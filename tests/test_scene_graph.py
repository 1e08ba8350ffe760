import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from sgalign.errors import InvalidInputError
from sgalign.scene_graph import (EDGE_DISTANCE_RTOL, MAX_COORDINATE, Edge, Node,
                                 NodeFeatures, SceneGraph, build_edges, graph_from_dict,
                                 graph_to_dict, load_graph, pack_graphs,
                                 pairwise_distance, point_distances, read_graph,
                                 save_graph, unpack_graphs, validate_graph)
from sgalign.synth import SynthConfig, generate_scene, make_sample
from conftest import (assert_same_graphs, graph_columns, rows_graph, with_columns,
                      with_edges)


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

    @pytest.mark.parametrize("a, b", [((0, 0), (0, 0)), ((0, 0, 0, 0), (0, 0, 0, 0)),
                                      ([[0, 0, 0]], (1, 0, 0)), ((0, 0, 0), 5.0)])
    def test_non_3_vector_rejected(self, a, b):
        with pytest.raises(InvalidInputError, match="3-vectors"):
            pairwise_distance(a, b)


class TestPointDistances:
    def test_broadcasts_to_one_formula(self, rng):
        """Every shape gives the bits of sqrt((dx² + dy²) + dz²) per pair,
        and pairwise_distance is its scalar case."""
        a, b = rng.uniform(-10, 10, (40, 3)), rng.uniform(-10, 10, (30, 3))
        got = point_distances(a[:, None], b)
        assert got.shape == (40, 30)
        for i in range(40):
            for j in range(30):
                dx, dy, dz = a[i] - b[j]
                assert got[i, j] == math.sqrt((dx * dx + dy * dy) + dz * dz)
                assert got[i, j] == pairwise_distance(a[i], b[j])
        rows = np.arange(30)
        assert point_distances(a[:30], b).tobytes() == got[rows, rows].tobytes()


def brute_force_edges(ids, positions, n_max, d_th):
    """Independent O(n^2) neighbor oracle: rank by distance, union, dedupe."""
    picked = set()
    for a, xa in zip(ids, positions):
        cands = []
        for b, xb in zip(ids, positions):
            if b == a:
                continue
            d = np.linalg.norm(xa - xb)
            if d <= d_th:
                cands.append((d, b))
        cands.sort()
        for _, b in cands[:n_max]:
            picked.add((min(a, b), max(a, b)))
    return picked


def edge_set(endpoints):
    return set(map(tuple, endpoints.tolist()))


def assert_no_edges(edges):
    endpoints, distances = edges
    assert (endpoints.dtype, endpoints.shape) == (np.int64, (0, 2))
    assert (distances.dtype, distances.shape) == (np.float64, (0,))


class TestBuildEdges:
    def test_single_node(self):
        assert_no_edges(build_edges([0], np.zeros((1, 3))))

    def test_empty(self):
        assert_no_edges(build_edges([], np.zeros((0, 3))))

    def test_threshold_excludes_far_node(self):
        endpoints, distances = build_edges([0, 1, 2], np.array([[0.0, 0, 0], [1.0, 0, 0],
                                                                [10.0, 0, 0]]), 4, 2.0)
        assert endpoints.tolist() == [[0, 1]]
        assert distances[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        ids, positions = np.arange(50), rng.uniform(0, 6, (50, 3))
        endpoints, _ = build_edges(ids, positions, n_max=4, d_th=2.0)
        assert edge_set(endpoints) == brute_force_edges(ids.tolist(), positions, 4, 2.0)

    def test_sorted_and_canonical(self, rng):
        endpoints, _ = build_edges(rng.permutation(30), rng.uniform(0, 5, (30, 3)))
        assert len(endpoints) and (endpoints[:, 0] < endpoints[:, 1]).all()
        assert endpoints.tolist() == sorted(endpoints.tolist())

    def test_invalid_params(self):
        ids, positions = [0, 1], np.array([[0.0, 0, 0], [1.0, 0, 0]])
        with pytest.raises(InvalidInputError):
            build_edges(ids, positions, n_max=0)
        with pytest.raises(InvalidInputError):
            build_edges(ids, positions, d_th=0.0)
        with pytest.raises(InvalidInputError):
            build_edges(ids, positions, d_th=float("nan"))
        with pytest.raises(InvalidInputError, match="n_max must be an integer"):
            build_edges(ids, positions, n_max=2.5)

    def test_rigid_invariance(self, rng):
        ids, positions = np.arange(30), rng.uniform(0, 5, (30, 3))
        before = edge_set(build_edges(ids, positions)[0])
        theta = 0.77
        rot = np.array([[np.cos(theta), -np.sin(theta), 0],
                        [np.sin(theta), np.cos(theta), 0],
                        [0, 0, 1.0]])
        moved = np.array([rot @ x + np.array([3.0, -1.0, 2.0]) for x in positions])
        assert edge_set(build_edges(ids, moved)[0]) == before

    def test_relabel_equivariance(self, rng):
        ids, positions = np.arange(20), rng.uniform(0, 5, (20, 3))
        perm = rng.permutation(20)
        expected = {tuple(sorted((int(perm[i]), int(perm[j]))))
                    for i, j in edge_set(build_edges(ids, positions)[0])}
        assert edge_set(build_edges(perm[ids], positions)[0]) == expected

    def test_stored_distances_match(self, rng):
        positions = rng.uniform(0, 5, (25, 3))
        endpoints, distances = build_edges(np.arange(25), positions)
        for (i, j), d in zip(endpoints, distances):
            actual = pairwise_distance(positions[i], positions[j])
            assert abs(d - actual) <= 1e-9 * max(1.0, actual)

    def test_stored_distances_are_pairwise_distance(self):
        """Every stored distance has the bits of pairwise_distance of its
        endpoints, over 20 random 25-node graphs: one formula writes and
        checks them."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            positions = rng.uniform(0, 5, (25, 3))
            endpoints, distances = build_edges(np.arange(25), positions)
            assert len(endpoints)
            assert distances.tolist() == [pairwise_distance(positions[i], positions[j])
                                          for i, j in endpoints]


def well_formed_graph(n=5, seed=0):
    rng = np.random.default_rng(seed)
    rows = [(rng.uniform(0, 4, 3), rng.standard_normal(4), rng.standard_normal(5),
             rng.uniform(0.1, 1.0, 3)) for _ in range(n)]
    return rows_graph(rows, (4, 5), labels=[f"n{i}" for i in range(n)])


class TestValidateGraph:
    def test_well_formed(self):
        assert validate_graph(well_formed_graph()) == []

    def test_duplicate_id(self):
        g = parts_of(well_formed_graph())
        g.nodes.append(Node(3, "dup", np.zeros(3), g.nodes[0].features))
        violations = validate_graph(built(g))
        assert any("duplicate" in v and "3" in v for v in violations)

    def test_stale_edge_distance(self):
        g = well_formed_graph()
        d = pairwise_distance(g.positions()[0], g.positions()[1]) * 2.0
        g = with_columns(g, endpoints=[[0, 1]], edge_distances=[d])
        violations = validate_graph(g)
        assert any("stored distance" in v for v in violations)

    def test_dangling_endpoint(self):
        g = with_columns(well_formed_graph(), endpoints=[[0, 99]], edge_distances=[1.0])
        assert any("dangling" in v for v in validate_graph(g))

    def test_dimension_mismatch(self):
        g = parts_of(well_formed_graph())
        g.feature_dims = (7, 5)
        with pytest.raises(InvalidInputError, match="f_vl"):
            built(g)


def parts_of(g):
    """g's nodes, edges and feature_dims as a mutable stand-in, which the
    oracle reads as it reads a graph."""
    return SimpleNamespace(nodes=list(g.nodes), edges=list(g.edges),
                           feature_dims=g.feature_dims)


def built(parts):
    """The graph `graph_from_dict` reads from the JSON text of the parts, so
    that vectors of any shape reach the reader's checks."""
    doc = {"graph_id": "g", "frame_kind": "world", "feature_dims": list(parts.feature_dims),
           "nodes": [{"id": n.id, "label": n.label, "position": n.x, "f_vl": n.features.f_vl,
                      "f_t": n.features.f_t, "f_g": n.features.f_g,
                      "gt_instance": n.gt_instance} for n in parts.nodes],
           "edges": [[e.i, e.j, e.d] for e in parts.edges]}
    return graph_from_dict(json.loads(json.dumps(doc, default=list)))


def validate_graph_loop(g):
    """The node-by-node validator that validate_graph replaced, kept as its
    oracle."""
    violations = []
    d_vl, d_t = g.feature_dims

    seen = set()
    for n in g.nodes:
        if n.id in seen:
            violations.append(f"duplicate node id {n.id}")
        seen.add(n.id)
        if not np.all(np.isfinite(n.x)):
            violations.append(f"node {n.id}: non-finite position")
        f = n.features
        if f.f_vl.shape != (d_vl,):
            violations.append(f"node {n.id}: f_vl has shape {f.f_vl.shape}, expected ({d_vl},)")
        if f.f_t.shape != (d_t,):
            violations.append(f"node {n.id}: f_t has shape {f.f_t.shape}, expected ({d_t},)")
        if f.f_g.shape != (3,):
            violations.append(f"node {n.id}: f_g has shape {f.f_g.shape}, expected (3,)")
        for name, vec in (("f_vl", f.f_vl), ("f_t", f.f_t), ("f_g", f.f_g)):
            if not np.all(np.isfinite(vec)):
                violations.append(f"node {n.id}: non-finite values in {name}")
        if f.f_g.shape == (3,) and np.all(np.isfinite(f.f_g)):
            if np.any(f.f_g <= 0) or np.any(f.f_g > 1):
                violations.append(f"node {n.id}: f_g components must lie in (0, 1]")

    by_id = {n.id: n for n in g.nodes}
    for e in g.edges:
        if e.i == e.j:
            violations.append(f"edge ({e.i},{e.j}): self loop")
            continue
        if e.i > e.j:
            violations.append(f"edge ({e.i},{e.j}): not canonicalized i < j")
        if e.i not in by_id or e.j not in by_id:
            violations.append(f"edge ({e.i},{e.j}): dangling endpoint")
            continue
        actual = pairwise_distance(by_id[e.i].x, by_id[e.j].x)
        if abs(e.d - actual) > EDGE_DISTANCE_RTOL * max(1.0, actual):
            violations.append(
                f"edge ({e.i},{e.j}): stored distance {e.d} != actual {actual}")
    return violations


def with_features(node, **features):
    f = node.features
    return Node(node.id, node.label, node.x, NodeFeatures(
        features.get("f_vl", f.f_vl), features.get("f_t", f.f_t),
        features.get("f_g", f.f_g)), node.gt_instance)


def isolate(g, k):
    """Drop the edges of node k, so a bad position does not reach the
    oracle's pairwise_distance, which raises on it."""
    nid = g.nodes[k].id
    g.edges = [e for e in g.edges if nid not in (e.i, e.j)]


def mutate(name, g):
    """Apply one violation (or a mix) to a well-formed 8-node graph."""
    nodes, edges = g.nodes, g.edges
    if name == "duplicate_id":
        nodes[5] = Node(2, "dup", nodes[5].x, nodes[5].features)
    elif name == "duplicate_twice":
        nodes[5] = Node(2, "dup", nodes[5].x, nodes[5].features)
        nodes[7] = Node(2, "dup", nodes[7].x, nodes[7].features)
    elif name in ("nan_position", "inf_position"):
        bad = np.nan if name == "nan_position" else np.inf
        nodes[3] = Node(3, "p", [0.0, bad, 1.0], nodes[3].features)
        isolate(g, 3)
    elif name == "f_vl_shape":
        nodes[1] = with_features(nodes[1], f_vl=np.ones(3))
    elif name == "f_t_shape":
        nodes[2] = with_features(nodes[2], f_t=np.ones((5, 1)))
    elif name == "f_g_shape":
        nodes[4] = with_features(nodes[4], f_g=np.full(2, 0.5))
    elif name == "f_g_shape_out_of_range":
        nodes[4] = with_features(nodes[4], f_g=np.full(4, 7.0))
    elif name == "f_vl_nan":
        nodes[6] = with_features(nodes[6], f_vl=np.full(4, np.nan))
    elif name == "f_t_inf":
        f_t = nodes[0].features.f_t.copy()
        f_t[2] = -np.inf
        nodes[0] = with_features(nodes[0], f_t=f_t)
    elif name == "f_g_nan":
        nodes[1] = with_features(nodes[1], f_g=np.array([0.5, np.nan, 2.0]))
    elif name in ("f_g_zero", "f_g_above_one", "f_g_negative"):
        value = {"f_g_zero": 0.0, "f_g_above_one": 1.0 + 1e-12, "f_g_negative": -0.2}[name]
        nodes[2] = with_features(nodes[2], f_g=np.array([0.5, value, 0.5]))
    elif name == "f_g_one":  # 1 is inside (0, 1]
        nodes[2] = with_features(nodes[2], f_g=np.array([1.0, 1.0, 1.0]))
    elif name == "feature_dims":
        g.feature_dims = (7, 5)
    elif name == "self_loop":
        edges.insert(1, Edge(3, 3, 0.0))
    elif name == "not_canonical":
        e = edges[0]
        edges[0] = Edge(e.j, e.i, e.d)
    elif name == "dangling":
        edges.append(Edge(0, 99, 1.0))
        edges.append(Edge(99, 1, 1.0))
    elif name == "stale_distance":
        e = edges[-1]
        edges[-1] = Edge(e.i, e.j, e.d * (1 + 3 * EDGE_DISTANCE_RTOL))
    elif name == "distance_within_tolerance":
        e = edges[-1]
        edges[-1] = Edge(e.i, e.j, e.d * (1 + 0.9 * EDGE_DISTANCE_RTOL))
    elif name == "mixed":
        for other in ("duplicate_id", "f_vl_shape", "f_g_nan", "f_g_negative",
                      "self_loop", "not_canonical", "dangling", "stale_distance"):
            mutate(other, g)
    else:
        raise AssertionError(name)
    return g


MUTATIONS = ["duplicate_id", "duplicate_twice", "nan_position", "inf_position",
             "f_vl_shape", "f_t_shape", "f_g_shape", "f_g_shape_out_of_range",
             "f_vl_nan", "f_t_inf", "f_g_nan", "f_g_zero", "f_g_above_one",
             "f_g_negative", "f_g_one", "feature_dims", "self_loop", "not_canonical",
             "dangling", "stale_distance", "distance_within_tolerance", "mixed"]
# Mutations that leave a vector of the wrong shape, which a graph cannot hold.
SHAPE_MUTATIONS = {"f_vl_shape", "f_t_shape", "f_g_shape", "f_g_shape_out_of_range",
                   "feature_dims", "mixed"}


class TestValidateGraphOracle:
    def test_valid_graphs(self):
        graphs = [well_formed_graph(n, seed) for n, seed in ((0, 0), (1, 1), (8, 2), (40, 3))]
        graphs.append(generate_scene(SynthConfig(seed=4))[0])
        sample = make_sample("f2s", SynthConfig(seed=5))
        graphs += [sample.graph_a, sample.graph_b]
        for g in graphs:
            assert validate_graph(g) == validate_graph_loop(g) == []

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_each_violation(self, name):
        g = mutate(name, parts_of(well_formed_graph(8, seed=11)))
        expected = validate_graph_loop(g)
        if name in SHAPE_MUTATIONS:
            # Construction raises the oracle's first message of the first
            # node with a shape fault.
            first = next(v for v in expected if " has shape " in v)
            node = first.split(":")[0]
            assert first == next(v for v in expected if v.startswith(node + ":"))
            with pytest.raises(InvalidInputError) as err:
                built(g)
            assert str(err.value) == first
        else:
            assert validate_graph(built(g)) == expected
        if name not in ("f_g_one", "distance_within_tolerance"):
            assert expected

    def test_mixed_values(self):
        """The value faults of `mixed`, without its shape fault."""
        g = parts_of(well_formed_graph(8, seed=11))
        for name in ("duplicate_id", "f_g_nan", "f_g_negative", "self_loop",
                     "not_canonical", "dangling", "stale_distance"):
            mutate(name, g)
        expected = validate_graph_loop(g)
        assert len(expected) >= 7
        assert validate_graph(built(g)) == expected

    def test_nan_distance(self):
        """The loop let a NaN stored distance through (NaN > tol is false)."""
        g = parts_of(well_formed_graph(8, seed=11))
        e = g.edges[2]
        g.edges[2] = Edge(e.i, e.j, float("nan"))
        assert validate_graph_loop(g) == []
        actual = pairwise_distance(g.nodes[e.i].x, g.nodes[e.j].x)
        assert validate_graph(built(g)) == [
            f"edge ({e.i},{e.j}): stored distance nan != actual {actual}"]

    def test_bad_position_reported_not_raised(self):
        """The loop raised from pairwise_distance on an edge to a non-finite
        position; validate_graph reports the node and skips its edges."""
        g = parts_of(well_formed_graph(8, seed=11))
        nid = g.edges[0].i
        k = [n.id for n in g.nodes].index(nid)
        g.nodes[k] = Node(nid, "p", [np.nan, 0.0, 0.0], g.nodes[k].features)
        with pytest.raises(InvalidInputError):
            validate_graph_loop(g)
        assert validate_graph(built(g)) == [f"node {nid}: non-finite position"]

    def test_position_shape(self):
        """A position that is not a 3-vector cannot be stored (the loop let
        a 2-D position through)."""
        g = parts_of(well_formed_graph(8, seed=11))
        nid = g.edges[0].i
        k = [n.id for n in g.nodes].index(nid)
        g.nodes[k] = Node(nid, "p", [[1.0, 2.0, 3.0]], g.nodes[k].features)
        with pytest.raises(InvalidInputError) as err:
            built(g)
        assert str(err.value) == f"node {nid}: position has shape (1, 3), expected (3,)"

    @pytest.mark.parametrize("x", [1e200, -1.5e150, 1.7e308])
    def test_huge_coordinate(self, x):
        """A coordinate beyond MAX_COORDINATE is a violation, and the
        distances of its edges are not computed (they would overflow)."""
        g = parts_of(well_formed_graph(8, seed=11))
        nid = g.edges[0].i
        k = [n.id for n in g.nodes].index(nid)
        g.nodes[k] = Node(nid, "p", [0.0, x, 1.0], g.nodes[k].features)
        with np.errstate(all="raise"):
            assert validate_graph(built(g)) == [f"node {nid}: position has a coordinate "
                                                f"beyond +-{MAX_COORDINATE:g}"]
        g.nodes[k] = Node(nid, "p", [0.0, MAX_COORDINATE, 1.0], g.nodes[k].features)
        assert not any(v.startswith(f"node {nid}:") for v in validate_graph(built(g)))

    def test_null_edges_not_rebuilt_on_huge_coordinate(self):
        doc = graph_to_dict(well_formed_graph(8, seed=11))
        doc["edges"] = None
        doc["nodes"][0]["position"] = [1e200, 0.0, 0.0]
        with np.errstate(all="raise"):
            g = graph_from_dict(doc)
        assert g.edges == ()
        assert validate_graph(g) == [f"node {g.nodes[0].id}: position has a coordinate "
                                     f"beyond +-1e+150"]


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
        f_g = g.f_g.copy()
        f_g[0] = [5.0, -1.0, 5.0]
        g = with_columns(g, f_g=f_g)
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
        assert_same_graphs([back], [with_edges(g, n_max=1, d_th=1.5)])
        assert back.endpoints.tolist() != g.endpoints.tolist()


def graph_doc():
    return graph_to_dict(well_formed_graph())


def set_path(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestGraphFromDictTypes:
    @pytest.mark.parametrize("path, value, message", [
        (("nodes", 0, "id"), 1.7, "node id must be an integer"),
        (("nodes", 0, "id"), 2 ** 63, "node id must be an integer within int64"),
        (("nodes", 0, "id"), "1", "node id must be an integer"),
        (("nodes", 0, "id"), True, "node id must be an integer"),
        (("nodes", 1, "gt_instance"), "x", "node 1: gt_instance must be an integer"),
        (("nodes", 1, "gt_instance"), 0.5, "node 1: gt_instance must be an integer"),
        (("nodes", 1, "gt_instance"), -2 ** 63 - 1, "gt_instance must be an integer"),
        (("nodes", 2, "label"), 5, "node 2: label must be a string"),
        (("nodes", 2, "label"), None, "node 2: label must be a string"),
        (("nodes", 2, "f_vl"), [1.0, [2.0, 3.0]], "node 2: f_vl is not an array of numbers"),
        (("nodes", 2, "position"), "abc", "node 2: position is not an array of numbers"),
        (("nodes", 3), [1, 2], "a node must be a JSON object"),
        (("frame_kind",), "banana", "frame_kind must be one of"),
        (("graph_id",), 7, "graph_id must be a string"),
        (("feature_dims",), [4, 5, 6], "feature_dims must be a list of two integers"),
        (("feature_dims",), [4, "5"], "feature_dims entry must be an integer"),
        (("nodes",), {"0": {}}, "nodes must be a list"),
        (("edges",), {"0": [0, 1, 1.0]}, "edges must be a list or null"),
        (("edges", 0), [0, 1], "an edge must be a list [i, j, d]"),
        (("edges", 0), [0, 1, 1.0, 2.0], "an edge must be a list [i, j, d]"),
        (("edges", 0), [0.5, 1, 1.0], "edge endpoint must be an integer"),
        (("edges", 0), [0, 1, "1.0"], "distance must be a float64 number"),
        (("edges", 0), [0, 1, 10 ** 400], "distance must be a float64 number"),
    ])
    def test_refused(self, path, value, message):
        with pytest.raises(InvalidInputError, match=message.replace("[", r"\[")):
            graph_from_dict(set_path(graph_doc(), path, value))

    @pytest.mark.parametrize("doc", [[graph_doc()], "g", 3, None])
    def test_document_must_be_object(self, doc):
        with pytest.raises(InvalidInputError, match="a graph must be a JSON object"):
            graph_from_dict(doc)

    def test_integral_floats_become_ints(self):
        doc = set_path(set_path(graph_doc(), ("nodes", 0, "gt_instance"), 4.0),
                       ("nodes", 0, "id"), 0.0)
        node = graph_from_dict(doc).nodes[0]
        assert (node.id, node.gt_instance) == (0, 4)
        assert type(node.id) is int and type(node.gt_instance) is int

    def test_read_graph_names_file(self, tmp_path):
        (tmp_path / "g.json").write_text(json.dumps(
            set_path(graph_doc(), ("frame_kind",), "banana")))
        with pytest.raises(InvalidInputError) as err:
            read_graph(tmp_path / "g.json")
        assert str(err.value).startswith(f"{tmp_path / 'g.json'}: frame_kind must be")


def odd_graphs():
    """Graphs that exercise every packed field: None and int gt_instance
    (int64 extremes included), labels with a trailing NUL and non-ASCII
    text, a graph without nodes and one without edges."""
    a = with_columns(well_formed_graph(6, seed=1),
                     labels=["chair\0", "стол", "🪑 lamp", "", "a\0\0", "b"],
                     gt_instance=[0, 0, -3, 2 ** 63 - 1, -2 ** 63, 0],
                     gt_present=[False, True, True, True, True, False])
    b = with_columns(well_formed_graph(1, seed=2), "g\0", "camera")
    return [a, rows_graph([], (4, 5), "empty"), b, well_formed_graph(9, seed=3)]


class TestPackGraphs:
    def test_round_trip_bit_exact(self):
        graphs = odd_graphs()
        arrays, strings = pack_graphs(graphs)
        back = unpack_graphs(arrays, json.loads(json.dumps(strings)),
                             [f"s{k}" for k in range(len(graphs))], "src")
        assert_same_graphs(back, graphs)
        assert back[0].nodes[0].gt_instance is None and back[0].nodes[1].gt_instance == 0

    def test_views_not_copies(self):
        arrays, strings = pack_graphs(odd_graphs())
        back = unpack_graphs(arrays, strings, list("abcd"), "src")
        packed = {"ids": "node_ids", "positions": "positions", "f_vl": "f_vl", "f_t": "f_t",
                  "f_g": "f_g", "gt_instance": "gt_instance", "gt_present": "gt_present",
                  "endpoints": "edges", "edge_distances": "edge_distances"}
        for g in back:
            columns = graph_columns(g)
            assert all(columns[name].base is arrays[packed[name]] for name in packed)

    def test_no_graphs(self):
        arrays, strings = pack_graphs([])
        assert unpack_graphs(arrays, strings, [], "src") == []

    @pytest.mark.parametrize("change", ["ragged_f_vl", "2d_position", "float_id",
                                        "float_endpoint", "huge_gt_instance"])
    def test_unpackable_graph_refused(self, change):
        """What pack_graphs could not store is refused when a graph file is
        read, naming the node where one is at fault."""
        g = parts_of(well_formed_graph(3))
        n = g.nodes[1]
        if change == "ragged_f_vl":
            g.nodes[1] = with_features(n, f_vl=np.ones(6))
        elif change == "2d_position":
            g.nodes = [Node(m.id, m.label, m.x[None], m.features) for m in g.nodes]
        elif change == "float_id":
            g.nodes[1] = Node(1.5, n.label, n.x, n.features)
        elif change == "float_endpoint":
            g.edges = [Edge(0, 1.5, 1.0)]
        else:
            g.nodes[1] = Node(n.id, n.label, n.x, n.features, 2 ** 63)
        message = {"ragged_f_vl": "node 1: f_vl has shape (6,), expected (4,)",
                   "2d_position": "node 0: position has shape (1, 3), expected (3,)",
                   "float_id": "node id must be an integer within int64, got 1.5",
                   "float_endpoint": "edge endpoint must be an integer within int64, got 1.5",
                   "huge_gt_instance": "node 1: gt_instance must be an integer within int64"}
        with pytest.raises(InvalidInputError, match=re.escape(message[change])):
            built(g)


def columns_of(n=3):
    """Constructor keywords of a well-formed n-node graph with n - 1 edges."""
    return {**graph_columns(well_formed_graph(n)),
            "endpoints": np.stack([np.arange(n - 1), np.arange(1, n)], axis=1),
            "edge_distances": np.ones(n - 1)}


class TestColumns:
    def test_columns_read_only_and_kept(self):
        columns = columns_of()
        g = SceneGraph("g", "world", **columns)
        assert g.feature_dims == (4, 5)
        for name, column in graph_columns(g).items():
            if name != "labels":
                assert not column.flags.writeable, name
                assert column.tobytes() == np.asarray(columns[name]).tobytes(), name
        assert validate_graph(g) != []  # the distances are values, left to validate_graph

    @pytest.mark.parametrize("name, value, message", [
        ("ids", np.arange(3.0), "ids is float64 (3,), expected int64 (None,)"),
        ("ids", np.arange(3, dtype=np.int32), "ids is int32 (3,), expected int64"),
        ("positions", np.zeros((2, 3)), "positions is float64 (2, 3), expected float64 (3, 3)"),
        ("positions", np.zeros((3, 3), np.float32), "positions is float32"),
        ("f_vl", np.zeros(3), "f_vl is float64 (3,), expected float64 (3, None)"),
        ("f_t", np.zeros((3, 5, 1)), "f_t is float64 (3, 5, 1), expected float64 (3, None)"),
        ("f_g", np.zeros((3, 2)), "f_g is float64 (3, 2), expected float64 (3, 3)"),
        ("gt_instance", np.zeros(3), "gt_instance is float64 (3,), expected int64 (3,)"),
        ("gt_present", np.zeros(3, np.int64), "gt_present is int64 (3,), expected bool (3,)"),
        ("endpoints", np.zeros((2, 3), np.int64), "endpoints is int64 (2, 3), expected int64"),
        ("endpoints", np.zeros((2, 2)), "endpoints is float64 (2, 2)"),
        ("edge_distances", np.ones(3), "edge_distances is float64 (3,), expected float64 (2,)"),
        ("labels", ["a", "b"], "needs 3 labels for its node rows"),
        ("labels", "abc", "needs 3 labels for its node rows"),
        ("labels", ["a", 5, "c"], "node 1: label must be a string, got 5"),
    ])
    def test_refused(self, name, value, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            SceneGraph("g", "world", **{**columns_of(), name: value})

    @pytest.mark.parametrize("graph_id, frame_kind, message", [
        (7, "world", "graph_id must be a string"), ("g", "banana", "frame_kind must be one of")])
    def test_names_refused(self, graph_id, frame_kind, message):
        with pytest.raises(InvalidInputError, match=message):
            SceneGraph(graph_id, frame_kind, **columns_of())
