import json
import math
import re

import numpy as np
import pytest

from sgalign.errors import InvalidInputError
from sgalign.scene_graph import (EDGE_DISTANCE_RTOL, MAX_COORDINATE, SceneGraph,
                                 build_edges, graph_from_dict, graph_to_dict, load_graph,
                                 pack_graphs, pairwise_distance, point_distances,
                                 read_graph, save_graph, unpack_graphs, validate_graph)
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
        doc = graph_to_dict(well_formed_graph())
        doc["nodes"].append({**doc["nodes"][0], "id": 3, "label": "dup",
                             "position": [0.0, 0.0, 0.0]})
        violations = validate_graph(built(doc))
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
        doc = graph_to_dict(well_formed_graph())
        doc["feature_dims"] = [7, 5]
        with pytest.raises(InvalidInputError, match="f_vl"):
            built(doc)


def built(doc):
    """The graph `graph_from_dict` reads from the JSON text of a graph
    document, so that vectors of any shape reach the reader's checks."""
    return graph_from_dict(json.loads(json.dumps(doc, default=list)))


def validate_graph_loop(doc):
    """The node-by-node validator that validate_graph replaced, kept as its
    oracle. It reads the graph document that `built` parses."""
    violations = []
    d_vl, d_t = doc["feature_dims"]

    seen = set()
    for n in doc["nodes"]:
        nid = n["id"]
        if nid in seen:
            violations.append(f"duplicate node id {nid}")
        seen.add(nid)
        if not np.all(np.isfinite(n["position"])):
            violations.append(f"node {nid}: non-finite position")
        vectors = {name: np.asarray(n[name], dtype=float) for name in ("f_vl", "f_t", "f_g")}
        for name, width in (("f_vl", d_vl), ("f_t", d_t), ("f_g", 3)):
            if vectors[name].shape != (width,):
                violations.append(f"node {nid}: {name} has shape {vectors[name].shape}, "
                                  f"expected ({width},)")
        for name, vec in vectors.items():
            if not np.all(np.isfinite(vec)):
                violations.append(f"node {nid}: non-finite values in {name}")
        f_g = vectors["f_g"]
        if f_g.shape == (3,) and np.all(np.isfinite(f_g)):
            if np.any(f_g <= 0) or np.any(f_g > 1):
                violations.append(f"node {nid}: f_g components must lie in (0, 1]")

    by_id = {n["id"]: n for n in doc["nodes"]}
    for i, j, d in doc["edges"]:
        if i == j:
            violations.append(f"edge ({i},{j}): self loop")
            continue
        if i > j:
            violations.append(f"edge ({i},{j}): not canonicalized i < j")
        if i not in by_id or j not in by_id:
            violations.append(f"edge ({i},{j}): dangling endpoint")
            continue
        actual = pairwise_distance(by_id[i]["position"], by_id[j]["position"])
        if abs(d - actual) > EDGE_DISTANCE_RTOL * max(1.0, actual):
            violations.append(f"edge ({i},{j}): stored distance {d} != actual {actual}")
    return violations


def isolate(doc, k):
    """Drop the edges of node row k, so a bad position does not reach the
    oracle's pairwise_distance, which raises on it."""
    nid = doc["nodes"][k]["id"]
    doc["edges"] = [e for e in doc["edges"] if nid not in e[:2]]


def mutate(name, doc):
    """Apply one violation (or a mix) to the document of a well-formed
    8-node graph."""
    nodes, edges = doc["nodes"], doc["edges"]
    if name == "duplicate_id":
        nodes[5] = {**nodes[5], "id": 2, "label": "dup"}
    elif name == "duplicate_twice":
        nodes[5] = {**nodes[5], "id": 2, "label": "dup"}
        nodes[7] = {**nodes[7], "id": 2, "label": "dup"}
    elif name in ("nan_position", "inf_position"):
        bad = np.nan if name == "nan_position" else np.inf
        nodes[3] = {**nodes[3], "label": "p", "position": [0.0, bad, 1.0]}
        isolate(doc, 3)
    elif name == "f_vl_shape":
        nodes[1]["f_vl"] = np.ones(3)
    elif name == "f_t_shape":
        nodes[2]["f_t"] = np.ones((5, 1))
    elif name == "f_g_shape":
        nodes[4]["f_g"] = np.full(2, 0.5)
    elif name == "f_g_shape_out_of_range":
        nodes[4]["f_g"] = np.full(4, 7.0)
    elif name == "f_vl_nan":
        nodes[6]["f_vl"] = np.full(4, np.nan)
    elif name == "f_t_inf":
        nodes[0]["f_t"][2] = -np.inf
    elif name == "f_g_nan":
        nodes[1]["f_g"] = [0.5, np.nan, 2.0]
    elif name in ("f_g_zero", "f_g_above_one", "f_g_negative"):
        value = {"f_g_zero": 0.0, "f_g_above_one": 1.0 + 1e-12, "f_g_negative": -0.2}[name]
        nodes[2]["f_g"] = [0.5, value, 0.5]
    elif name == "f_g_one":  # 1 is inside (0, 1]
        nodes[2]["f_g"] = [1.0, 1.0, 1.0]
    elif name == "feature_dims":
        doc["feature_dims"] = [7, 5]
    elif name == "self_loop":
        edges.insert(1, [3, 3, 0.0])
    elif name == "not_canonical":
        i, j, d = edges[0]
        edges[0] = [j, i, d]
    elif name == "dangling":
        edges.append([0, 99, 1.0])
        edges.append([99, 1, 1.0])
    elif name == "stale_distance":
        i, j, d = edges[-1]
        edges[-1] = [i, j, d * (1 + 3 * EDGE_DISTANCE_RTOL)]
    elif name == "distance_within_tolerance":
        i, j, d = edges[-1]
        edges[-1] = [i, j, d * (1 + 0.9 * EDGE_DISTANCE_RTOL)]
    elif name == "mixed":
        for other in ("duplicate_id", "f_vl_shape", "f_g_nan", "f_g_negative",
                      "self_loop", "not_canonical", "dangling", "stale_distance"):
            mutate(other, doc)
    else:
        raise AssertionError(name)
    return doc


def eight_nodes():
    """The document of the well-formed 8-node graph that the oracle tests
    mutate."""
    return graph_to_dict(well_formed_graph(8, seed=11))


def first_edge_node(doc):
    """Row and id of the first endpoint of the document's first edge."""
    nid = doc["edges"][0][0]
    return [n["id"] for n in doc["nodes"]].index(nid), nid


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
            assert validate_graph(g) == validate_graph_loop(graph_to_dict(g)) == []

    @pytest.mark.parametrize("name", MUTATIONS)
    def test_each_violation(self, name):
        doc = mutate(name, eight_nodes())
        expected = validate_graph_loop(doc)
        if name in SHAPE_MUTATIONS:
            # Construction raises the oracle's first message of the first
            # node with a shape fault.
            first = next(v for v in expected if " has shape " in v)
            node = first.split(":")[0]
            assert first == next(v for v in expected if v.startswith(node + ":"))
            with pytest.raises(InvalidInputError) as err:
                built(doc)
            assert str(err.value) == first
        else:
            assert validate_graph(built(doc)) == expected
        if name not in ("f_g_one", "distance_within_tolerance"):
            assert expected

    def test_mixed_values(self):
        """The value faults of `mixed`, without its shape fault."""
        doc = eight_nodes()
        for name in ("duplicate_id", "f_g_nan", "f_g_negative", "self_loop",
                     "not_canonical", "dangling", "stale_distance"):
            mutate(name, doc)
        expected = validate_graph_loop(doc)
        assert len(expected) >= 7
        assert validate_graph(built(doc)) == expected

    def test_nan_distance(self):
        """The loop let a NaN stored distance through (NaN > tol is false)."""
        doc = eight_nodes()
        i, j, _ = doc["edges"][2]
        doc["edges"][2] = [i, j, float("nan")]
        assert validate_graph_loop(doc) == []
        actual = pairwise_distance(doc["nodes"][i]["position"], doc["nodes"][j]["position"])
        assert validate_graph(built(doc)) == [
            f"edge ({i},{j}): stored distance nan != actual {actual}"]

    def test_bad_position_reported_not_raised(self):
        """The loop raised from pairwise_distance on an edge to a non-finite
        position; validate_graph reports the node and skips its edges."""
        doc = eight_nodes()
        k, nid = first_edge_node(doc)
        doc["nodes"][k]["position"] = [np.nan, 0.0, 0.0]
        with pytest.raises(InvalidInputError):
            validate_graph_loop(doc)
        assert validate_graph(built(doc)) == [f"node {nid}: non-finite position"]

    def test_position_shape(self):
        """A position that is not a 3-vector cannot be stored (the loop let
        a 2-D position through)."""
        doc = eight_nodes()
        k, nid = first_edge_node(doc)
        doc["nodes"][k]["position"] = [[1.0, 2.0, 3.0]]
        with pytest.raises(InvalidInputError) as err:
            built(doc)
        assert str(err.value) == f"node {nid}: position has shape (1, 3), expected (3,)"

    @pytest.mark.parametrize("x", [1e200, -1.5e150, 1.7e308])
    def test_huge_coordinate(self, x):
        """A coordinate beyond MAX_COORDINATE is a violation, and the
        distances of its edges are not computed (they would overflow)."""
        doc = eight_nodes()
        k, nid = first_edge_node(doc)
        doc["nodes"][k]["position"] = [0.0, x, 1.0]
        with np.errstate(all="raise"):
            assert validate_graph(built(doc)) == [f"node {nid}: position has a coordinate "
                                                  f"beyond +-{MAX_COORDINATE:g}"]
        doc["nodes"][k]["position"] = [0.0, MAX_COORDINATE, 1.0]
        assert not any(v.startswith(f"node {nid}:") for v in validate_graph(built(doc)))

    def test_null_edges_not_rebuilt_on_huge_coordinate(self):
        doc = eight_nodes()
        doc["edges"] = None
        doc["nodes"][0]["position"] = [1e200, 0.0, 0.0]
        with np.errstate(all="raise"):
            g = graph_from_dict(doc)
        assert g.endpoints.shape == g.edge_distances.shape + (2,) == (0, 2)
        assert validate_graph(g) == [f"node {g.ids[0]}: position has a coordinate "
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
        assert back.endpoints.tolist() == g.endpoints.tolist()
        assert np.array_equal(back.positions(), g.positions())

    def test_null_edges_rebuilt(self):
        g = well_formed_graph()
        doc = graph_to_dict(g)
        doc["edges"] = None
        back = graph_from_dict(doc)
        assert edge_set(back.endpoints) == edge_set(g.endpoints)


class TestGraphFiles:
    def test_saved_bytes(self, tmp_path):
        """save_graph writes every vector as JSON floats, in node order."""
        g = well_formed_graph()
        save_graph(g, tmp_path / "g.json")
        doc = {"graph_id": "g", "frame_kind": "world", "feature_dims": [4, 5],
               "nodes": [{"id": int(g.ids[k]), "label": g.labels[k],
                          "position": [float(v) for v in g.positions()[k]],
                          "f_vl": [float(v) for v in g.f_vl[k]],
                          "f_t": [float(v) for v in g.f_t[k]],
                          "f_g": [float(v) for v in g.f_g[k]],
                          "gt_instance": None} for k in range(len(g.ids))],
               "edges": [[int(i), int(j), float(d)]
                         for (i, j), d in zip(g.endpoints, g.edge_distances)]}
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
        g = graph_from_dict(doc)
        assert (g.ids[0], g.gt_instance[0], g.gt_present[0]) == (0, 4, True)
        assert g.ids.dtype == g.gt_instance.dtype == np.int64

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
        assert back[0].gt_present[:2].tolist() == [False, True] and back[0].gt_instance[1] == 0

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
        doc = graph_to_dict(well_formed_graph(3))
        nodes = doc["nodes"]
        if change == "ragged_f_vl":
            nodes[1]["f_vl"] = [1.0] * 6
        elif change == "2d_position":
            for n in nodes:
                n["position"] = [n["position"]]
        elif change == "float_id":
            nodes[1]["id"] = 1.5
        elif change == "float_endpoint":
            doc["edges"] = [[0, 1.5, 1.0]]
        else:
            nodes[1]["gt_instance"] = 2 ** 63
        message = {"ragged_f_vl": "node 1: f_vl has shape (6,), expected (4,)",
                   "2d_position": "node 0: position has shape (1, 3), expected (3,)",
                   "float_id": "node id must be an integer within int64, got 1.5",
                   "float_endpoint": "edge endpoint must be an integer within int64, got 1.5",
                   "huge_gt_instance": "node 1: gt_instance must be an integer within int64"}
        with pytest.raises(InvalidInputError, match=re.escape(message[change])):
            built(doc)


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

    def test_nodes_and_edges_are_the_columns(self):
        """`nodes` and `edges` are `ids` and `endpoints` themselves, kept
        only for the node and edge counts of `benchmarks/`."""
        g = well_formed_graph()
        assert g.nodes is g.ids and g.edges is g.endpoints

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
