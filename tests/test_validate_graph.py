"""`validate_graph` against the full pass it replaced
(`oracles.validate_graph_reference`) on graphs that carry one to four
stacked faults, alone and in batches of one to eight graphs, a batch's
endpoint rows against the former `rows_of` formula (also on batches of ids
alone that share ids between graphs), and the refusal of a ground-truth pair
that is not (id_A, id_B)."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import rows_of_reference, validate_graph_reference

from sgalign.scene_graph import (MAX_COORDINATE, GraphBatch, SceneGraph, build_edges,
                                 validate_graph)

# Derandomized, so every run of the suite draws the same graphs.
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=2000,
                    suppress_health_check=[HealthCheck.too_slow])
# About as many graphs again, in batches of one to eight.
BATCH_SETTINGS = settings(SETTINGS, max_examples=400)

# A vector entry that is non-finite, beyond MAX_COORDINATE or just at it.
VECTOR_VALUES = [np.nan, np.inf, -np.inf, 1.5 * MAX_COORDINATE, -1e200, 1.7e308,
                 MAX_COORDINATE, -MAX_COORDINATE]
# An f_g component at 0, above 1, negative, or at the bounds it may take.
F_G_VALUES = [0.0, -0.0, 1.0 + 1e-12, 5.0, -0.2, 1.0, 1e-300]
# A stored distance scaled off (or within) the tolerance, or not a number.
DISTANCE_SCALES = [1 + 3e-9, 1 - 3e-9, 1 + 0.5e-9, 2.0, 0.0]
DISTANCE_VALUES = [np.nan, np.inf, -np.inf]
FAULTS = ["vector", "f_g", "repeated_id", "repeated_edge_id", "self_loop", "flipped",
          "dangling", "stale", "bad_distance", "no_nodes", "no_edges"]
# The text of each kind of violation.
KINDS = ["duplicate node id", "non-finite position", "position has a coordinate beyond",
         "non-finite values in f_vl", "non-finite values in f_t", "non-finite values in f_g",
         "f_vl has a value beyond", "f_t has a value beyond", "f_g components must lie",
         "self loop", "not canonicalized", "dangling endpoint", "stored distance"]


def faulty_graph(seed: int, n: int, widths: tuple[int, int], faults: list[str]) -> SceneGraph:
    """A valid graph of n nodes with k-NN edges and vector widths (3,
    *widths, 3), drawn from `seed`, then damaged by each of `faults` in
    turn. A fault that needs a node or an edge the graph lacks is skipped."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(100)[:n] - 20
    nodes = {"positions": rng.uniform(0, 4, (n, 3)), "f_vl": rng.standard_normal((n, widths[0])),
             "f_t": rng.standard_normal((n, widths[1])), "f_g": rng.uniform(0.05, 1.0, (n, 3))}
    ends, distances = (a.copy() for a in build_edges(ids, nodes["positions"]))

    def some(count):
        return int(rng.integers(count))

    def insert_edge(i, j, d):
        nonlocal ends, distances
        k = some(len(ends) + 1)
        ends, distances = np.insert(ends, k, [i, j], axis=0), np.insert(distances, k, d)

    for fault in faults:
        n, m = len(ids), len(ends)
        if fault == "vector" and n:
            v = nodes[list(nodes)[some(4)]]
            if v.shape[1]:
                v[some(n), some(v.shape[1])] = VECTOR_VALUES[some(len(VECTOR_VALUES))]
        elif fault == "f_g" and n:
            nodes["f_g"][some(n), some(3)] = F_G_VALUES[some(len(F_G_VALUES))]
        elif fault == "repeated_id" and n > 1:
            ids[some(n)] = ids[some(n)]
        elif fault == "repeated_edge_id" and n and m:
            ids[some(n)] = ends[some(m), some(2)]
        elif fault == "self_loop":
            i = ids[some(n)] if n else 7
            insert_edge(i, i, [0.0, 1.0][some(2)])
        elif fault == "flipped" and m:
            ends[some(m)] = ends[some(m)][::-1].copy()
        elif fault == "dangling":
            i, j = (ids[some(n)] if n else 3), 1000 + some(3)
            insert_edge(*((i, j) if some(2) else (j, i)), 1.0)
        elif fault == "stale" and m:
            with np.errstate(invalid="ignore"):  # a bad distance times 0.0 is NaN, still bad
                distances[some(m)] *= DISTANCE_SCALES[some(len(DISTANCE_SCALES))]
        elif fault == "bad_distance" and m:
            distances[some(m)] = DISTANCE_VALUES[some(len(DISTANCE_VALUES))]
        elif fault == "no_nodes":
            ids = ids[:0]
            nodes = {name: v[:0] for name, v in nodes.items()}
        elif fault == "no_edges":
            ends, distances = ends[:0], distances[:0]
    n = len(ids)
    return SceneGraph("g", "world", ids=ids, labels=[""] * n, **nodes,
                      gt_instance=np.zeros(n, np.int64), gt_present=np.zeros(n, bool),
                      endpoints=ends, edge_distances=distances)


class TestValidateGraphReference:
    @SETTINGS
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 40),
           widths=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=4))
    def test_same_violations(self, seed, n, widths, faults):
        g = faulty_graph(seed, n, widths, faults)
        with np.errstate(all="raise"):
            got = validate_graph(g)
        assert got == validate_graph_reference(g)
        assert np.array_equal(GraphBatch.of([g]).id_rows()[1],
                              rows_of_reference(g.ids, g.endpoints))

    def test_faults_reach_every_check(self):
        """The faults of the property test raise every kind of violation,
        several in one graph, and leave some graphs valid."""
        rng = np.random.default_rng(0)
        counts = []
        seen = set()
        for seed in range(400):
            faults = [FAULTS[k] for k in rng.integers(len(FAULTS), size=rng.integers(1, 5))]
            violations = validate_graph(faulty_graph(seed, int(rng.integers(41)), (3, 4), faults))
            counts.append(len(violations))
            seen.update(kind for kind in KINDS for v in violations if kind in v)
        assert seen == set(KINDS)
        assert min(counts) == 0 and max(counts) >= 4


class TestBatchViolations:
    @BATCH_SETTINGS
    @given(widths=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           members=st.lists(st.tuples(st.integers(0, 2 ** 32 - 1), st.integers(0, 40),
                                      st.lists(st.sampled_from(FAULTS), min_size=1, max_size=4)),
                            min_size=1, max_size=8))
    def test_graph_by_graph_reference(self, widths, members):
        """A batch's violations are each graph's own, its endpoint rows each
        graph's own rows offset by the graph's first row."""
        graphs = [faulty_graph(seed, n, widths, faults) for seed, n, faults in members]
        batch = GraphBatch.of(graphs)
        with np.errstate(all="raise"):
            got = batch.violations()
        assert got == [validate_graph_reference(g) for g in graphs]
        _, rows = batch.id_rows()
        offsets, edge_offsets = batch.arrays["offsets"], batch.arrays["edge_offsets"]
        for k, g in enumerate(graphs):
            own = rows_of_reference(g.ids, g.endpoints)
            assert np.array_equal(rows[edge_offsets[k]:edge_offsets[k + 1]],
                                  np.where(own >= 0, own + offsets[k], -1))

    def test_ids_belong_to_their_graph(self):
        """An id in two graphs is no repeat, and an edge cannot reach a node
        of another graph."""
        a = faulty_graph(1, 6, (2, 2), [])
        b = faulty_graph(2, 6, (2, 2), [])
        other = int(np.setdiff1d(a.ids, b.ids)[0])
        i = int(b.ids[0])
        stray = SceneGraph("b", "world", ids=b.ids, labels=b.labels, positions=b.positions(),
                           f_vl=b.f_vl, f_t=b.f_t, f_g=b.f_g, gt_instance=b.gt_instance,
                           gt_present=b.gt_present,
                           endpoints=np.vstack([b.endpoints, sorted([i, other])]),
                           edge_distances=np.append(b.edge_distances, 1.0))
        got = GraphBatch.of([a, a, stray]).violations()
        assert got[:2] == [[], []]
        assert got[2] == validate_graph_reference(stray)
        assert any("dangling endpoint" in v for v in got[2])


# Ids that graphs share, the ends of int64 among them; an endpoint may also
# name an id that no graph has.
SHARED_IDS = [np.iinfo(np.int64).min, -1, 0, 1, 2, 7, np.iinfo(np.int64).max]
STRAY_IDS = [np.iinfo(np.int64).min + 1, 3, np.iinfo(np.int64).max - 1]


def id_graph(ids, endpoints) -> SceneGraph:
    """A graph of these node ids and endpoint pairs; only the ids count."""
    n, m = len(ids), len(endpoints)
    return SceneGraph("g", "world", ids=np.array(ids, np.int64), labels=[""] * n,
                      positions=np.zeros((n, 3)), f_vl=np.zeros((n, 1)), f_t=np.zeros((n, 1)),
                      f_g=np.ones((n, 3)), gt_instance=np.zeros(n, np.int64),
                      gt_present=np.zeros(n, bool),
                      endpoints=np.array(endpoints, np.int64).reshape(m, 2),
                      edge_distances=np.zeros(m))


class TestIdRows:
    @settings(SETTINGS, max_examples=500)
    @given(members=st.lists(st.tuples(
        st.lists(st.sampled_from(SHARED_IDS), max_size=6),
        st.lists(st.tuples(*[st.sampled_from(SHARED_IDS + STRAY_IDS)] * 2), max_size=6)),
        max_size=5))
    def test_graph_by_graph_reference(self, members):
        """Per graph, an endpoint's row is `rows_of_reference`'s row offset by
        the graph's first row, never a row of another graph, and a row is
        repeated when an earlier row of its graph has its id."""
        graphs = [id_graph(ids, endpoints) for ids, endpoints in members]
        batch = GraphBatch.of(graphs)
        repeated, rows = batch.id_rows()
        offsets, edge_offsets = batch.arrays["offsets"], batch.arrays["edge_offsets"]
        assert rows.shape == (edge_offsets[-1], 2) and repeated.shape == (offsets[-1],)
        for k, g in enumerate(graphs):
            own = rows_of_reference(g.ids, g.endpoints)
            assert np.array_equal(rows[edge_offsets[k]:edge_offsets[k + 1]],
                                  np.where(own >= 0, own + offsets[k], -1))
            ids = g.ids.tolist()
            assert repeated[offsets[k]:offsets[k + 1]].tolist() == [
                ids[j] in ids[:j] for j in range(len(ids))]

    def test_no_node_rows(self):
        """With no node rows at all, every endpoint has no row."""
        for graphs in ([id_graph([], [(1, 2)])], [id_graph([], [(0, 0)]), id_graph([], [])]):
            repeated, rows = GraphBatch.of(graphs).id_rows()
            assert repeated.shape == (0,) and rows.tolist() == [[-1, -1]]
