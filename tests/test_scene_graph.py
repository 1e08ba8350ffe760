import json

import numpy as np
import pytest

from sgalign.errors import InvalidInputError
from sgalign.scene_graph import (Edge, Node, NodeFeatures, SceneGraph,
                                 build_edges, graph_from_dict, graph_to_dict,
                                 load_graph, pairwise_distance, read_graph,
                                 save_graph, validate_graph)


def make_node(nid, pos, d_vl=4, d_t=5, rng=None):
    rng = rng or np.random.default_rng(nid)
    return Node(
        id=nid, label=f"n{nid}", x=np.asarray(pos, dtype=float),
        features=NodeFeatures(
            f_vl=rng.standard_normal(d_vl),
            f_t=rng.standard_normal(d_t),
            f_g=rng.uniform(0.1, 1.0, 3),
        ))


class TestPairwiseDistance:
    def test_identity(self):
        assert pairwise_distance((0, 0, 0), (0, 0, 0)) == 0.0

    def test_3_4_5(self):
        assert pairwise_distance((0, 0, 0), (3, 4, 0)) == 5.0

    def test_random_against_sum_of_squares(self, rng):
        for _ in range(100):
            a = rng.uniform(-10, 10, 3)
            b = rng.uniform(-10, 10, 3)
            oracle = sum((a[k] - b[k]) ** 2 for k in range(3)) ** 0.5
            assert abs(pairwise_distance(a, b) - oracle) <= 1e-12

    def test_symmetry(self, rng):
        a, b = rng.uniform(-5, 5, 3), rng.uniform(-5, 5, 3)
        assert pairwise_distance(a, b) == pairwise_distance(b, a)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            pairwise_distance((np.nan, 0, 0), (0, 0, 0))
        with pytest.raises(InvalidInputError):
            pairwise_distance((0, 0, 0), (np.inf, 0, 0))


def brute_force_edges(nodes, n_max, d_th):
    """Independent O(n^2) neighbor oracle: rank by distance, union, dedupe."""
    picked = set()
    for a in nodes:
        cands = []
        for b in nodes:
            if b.id == a.id:
                continue
            d = np.linalg.norm(a.x - b.x)
            if d <= d_th:
                cands.append((d, b.id))
        cands.sort()
        for _, bid in cands[:n_max]:
            picked.add((min(a.id, bid), max(a.id, bid)))
    return picked


class TestBuildEdges:
    def test_single_node(self):
        assert build_edges([make_node(0, (0, 0, 0))]) == []

    def test_empty(self):
        assert build_edges([]) == []

    def test_threshold_excludes_far_node(self):
        nodes = [make_node(i, (x, 0, 0)) for i, x in enumerate([0.0, 1.0, 10.0])]
        edges = build_edges(nodes, n_max=4, d_th=2.0)
        assert [(e.i, e.j) for e in edges] == [(0, 1)]
        assert edges[0].d == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        nodes = [make_node(i, rng.uniform(0, 6, 3)) for i in range(50)]
        edges = build_edges(nodes, n_max=4, d_th=2.0)
        assert {(e.i, e.j) for e in edges} == brute_force_edges(nodes, 4, 2.0)

    def test_invalid_params(self):
        nodes = [make_node(0, (0, 0, 0)), make_node(1, (1, 0, 0))]
        with pytest.raises(InvalidInputError):
            build_edges(nodes, n_max=0)
        with pytest.raises(InvalidInputError):
            build_edges(nodes, d_th=0.0)
        with pytest.raises(InvalidInputError):
            build_edges(nodes, d_th=float("nan"))

    def test_rigid_invariance(self, rng):
        nodes = [make_node(i, rng.uniform(0, 5, 3)) for i in range(30)]
        before = {(e.i, e.j) for e in build_edges(nodes)}
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1.0]])
        moved = [Node(n.id, n.label, rot @ n.x + np.array([3.0, -1.0, 2.0]),
                      n.features) for n in nodes]
        assert {(e.i, e.j) for e in build_edges(moved)} == before

    def test_relabel_equivariance(self, rng):
        nodes = [make_node(i, rng.uniform(0, 5, 3)) for i in range(20)]
        perm = rng.permutation(20)
        relabeled = [Node(int(perm[n.id]), n.label, n.x, n.features) for n in nodes]
        expected = {tuple(sorted((int(perm[i]), int(perm[j]))))
                    for i, j in {(e.i, e.j) for e in build_edges(nodes)}}
        assert {(e.i, e.j) for e in build_edges(relabeled)} == expected

    def test_stored_distances_match(self, rng):
        nodes = [make_node(i, rng.uniform(0, 5, 3)) for i in range(25)]
        by_id = {n.id: n for n in nodes}
        for e in build_edges(nodes):
            actual = pairwise_distance(by_id[e.i].x, by_id[e.j].x)
            assert abs(e.d - actual) <= 1e-9 * max(1.0, actual)


def well_formed_graph(n=5, seed=0):
    rng = np.random.default_rng(seed)
    nodes = [make_node(i, rng.uniform(0, 4, 3), rng=rng) for i in range(n)]
    return SceneGraph("g", "world", nodes, build_edges(nodes), (4, 5))


class TestValidateGraph:
    def test_well_formed(self):
        assert validate_graph(well_formed_graph()) == []

    def test_duplicate_id(self):
        g = well_formed_graph()
        g.nodes.append(Node(3, "dup", np.zeros(3), g.nodes[0].features))
        violations = validate_graph(g)
        assert any("duplicate" in v and "3" in v for v in violations)

    def test_stale_edge_distance(self):
        g = well_formed_graph()
        i, j = g.nodes[0].id, g.nodes[1].id
        g.edges = [Edge(min(i, j), max(i, j),
                        pairwise_distance(g.nodes[0].x, g.nodes[1].x) * 2.0)]
        violations = validate_graph(g)
        assert any("stored distance" in v for v in violations)

    def test_dangling_endpoint(self):
        g = well_formed_graph()
        g.edges = [Edge(0, 99, 1.0)]
        assert any("dangling" in v for v in validate_graph(g))

    def test_dimension_mismatch(self):
        g = well_formed_graph()
        g.feature_dims = (7, 5)
        assert any("f_vl" in v for v in validate_graph(g))


class TestGroundTruthMap:
    def test_many_to_one_allowed(self):
        from sgalign.scene_graph import GroundTruthMap
        gt = GroundTruthMap({(0, 5), (1, 5), (2, 7)})
        assert gt.a_ids() == {0, 1, 2}

    def test_one_to_many_rejected(self):
        from sgalign.scene_graph import GroundTruthMap
        with pytest.raises(InvalidInputError):
            GroundTruthMap({(0, 5), (0, 6)})


class TestJsonRoundTrip:
    def test_round_trip(self):
        g = well_formed_graph()
        doc = graph_to_dict(g)
        back = graph_from_dict(json.loads(json.dumps(doc)))
        assert validate_graph(back) == []
        assert [(e.i, e.j) for e in back.edges] == [(e.i, e.j) for e in g.edges]
        assert np.array_equal(back.positions(), g.positions())

    def test_null_edges_rebuilt(self):
        g = well_formed_graph()
        doc = graph_to_dict(g)
        doc["edges"] = None
        back = graph_from_dict(doc)
        assert {(e.i, e.j) for e in back.edges} == {(e.i, e.j) for e in g.edges}


class TestGraphFiles:
    def test_saved_bytes(self, tmp_path):
        """save_graph writes every vector as JSON floats, in node order."""
        g = well_formed_graph()
        save_graph(g, tmp_path / "g.json")
        doc = {"graph_id": "g", "frame_kind": "world", "feature_dims": [4, 5],
               "nodes": [{"id": n.id, "label": n.label,
                          "position": [float(v) for v in n.x],
                          "f_vl": [float(v) for v in n.features.f_vl],
                          "f_t": [float(v) for v in n.features.f_t],
                          "f_g": [float(v) for v in n.features.f_g],
                          "gt_instance": None} for n in g.nodes],
               "edges": [[e.i, e.j, e.d] for e in g.edges]}
        assert (tmp_path / "g.json").read_text() == json.dumps(doc)

    def test_invalid_file_names_path_and_violations(self, tmp_path):
        g = well_formed_graph()
        g.nodes[0] = Node(0, "bad", g.nodes[0].x, NodeFeatures(
            g.nodes[0].features.f_vl, g.nodes[0].features.f_t, [5.0, -1.0, 5.0]))
        path = tmp_path / "bad.json"
        save_graph(g, path)
        back, violations = read_graph(path)
        assert violations == validate_graph(g) != []
        with pytest.raises(InvalidInputError) as err:
            load_graph(path)
        assert str(err.value) == f"{path}: {violations}"

    def test_null_edges_use_callers_parameters(self, tmp_path):
        g = well_formed_graph()
        doc = graph_to_dict(g)
        doc["edges"] = None
        (tmp_path / "g.json").write_text(json.dumps(doc))
        back = load_graph(tmp_path / "g.json", n_max=1, d_th=1.5)
        assert back.edges == build_edges(g.nodes, n_max=1, d_th=1.5)
        assert back.edges != build_edges(g.nodes)
