"""Scene-graph data model and distance-labelled k-NN edge construction.

A scene graph is stored as columns with one row per node: an id, a label,
a 3D position and the intrinsic features (vision-language vector, text
vector, normalized bounding-box extents). Edges are undirected and store
only the Euclidean distance between their endpoints. A graph is built from
its columns and read as columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (InvalidInputError, ShapeError, as_array, as_int64, as_pairs, check_bound,
                     check_type, read_json)

DEFAULT_FEATURE_DIMS = (256, 384)
DEFAULT_N_MAX = 4
DEFAULT_D_TH = 2.0
FRAME_KINDS = ("camera", "world")

# Stored edge distances must agree with recomputed ones to this rel. tol.
EDGE_DISTANCE_RTOL = 1e-9
# Largest coordinate magnitude: squared distances between positions within
# it stay finite in float64.
MAX_COORDINATE = 1e150


def point_distances(a, b) -> np.ndarray:
    """Euclidean distances between the 3D points of `a` and `b`, (..., 3)
    arrays broadcast against each other: sqrt((dx² + dy²) + dz²) over the
    last axis. Every point distance of the package is this formula, so a
    stored, checked, encoded or penalised distance has the same bits."""
    d = np.subtract(a, b, dtype=float)
    d *= d
    return np.sqrt((d[..., 0] + d[..., 1]) + d[..., 2])


_VECTORS = ("position", "f_vl", "f_t", "f_g")
_NODE_KEYS = {"id", *_VECTORS}  # the keys a node of a graph document must have


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SceneGraph:
    """A scene graph as read-only columns: row k of the node columns is
    node k, row m of `endpoints` and `edge_distances` is edge m.

    The constructor takes the columns below (labels: n strings), keeps
    read-only views of them and is the one place their dtypes and shapes
    are checked, each over its whole array. A fault raises
    InvalidInputError; values are left to `validate_graph`.
    """

    graph_id: str
    frame_kind: str  # "camera" | "world"
    ids: np.ndarray             # (n,) int64
    labels: tuple[str, ...]
    _positions: np.ndarray      # (n, 3) float64
    f_vl: np.ndarray            # (n, d_vl) float64
    f_t: np.ndarray             # (n, d_t) float64
    f_g: np.ndarray             # (n, 3) float64
    gt_instance: np.ndarray     # (n,) int64, read where gt_present
    gt_present: np.ndarray      # (n,) bool
    endpoints: np.ndarray       # (m, 2) int64 node ids
    edge_distances: np.ndarray  # (m,) float64

    def __init__(self, graph_id: str, frame_kind: str, *, ids, labels, positions, f_vl, f_t,
                 f_g, gt_instance, gt_present, endpoints, edge_distances):
        if not isinstance(graph_id, str):
            raise InvalidInputError(f"graph_id must be a string, got {graph_id!r}")
        if not isinstance(frame_kind, str) or frame_kind not in FRAME_KINDS:
            raise InvalidInputError(
                f"frame_kind must be one of {list(FRAME_KINDS)}, got {frame_kind!r}")
        ids = _checked("ids", ids, np.int64, (None,))
        endpoints = _checked("endpoints", endpoints, np.int64, (None, 2))
        n = len(ids)
        if not isinstance(labels, (list, tuple)) or len(labels) != n:
            raise InvalidInputError(f"needs {n} labels for its node rows")
        for k, label in enumerate(labels):
            if not isinstance(label, str):
                raise InvalidInputError(f"node {ids[k]}: label must be a string, got {label!r}")
        columns = {
            "graph_id": graph_id, "frame_kind": frame_kind, "ids": ids, "labels": tuple(labels),
            "_positions": _checked("positions", positions, np.float64, (n, 3)),
            "f_vl": _checked("f_vl", f_vl, np.float64, (n, None)),
            "f_t": _checked("f_t", f_t, np.float64, (n, None)),
            "f_g": _checked("f_g", f_g, np.float64, (n, 3)),
            "gt_instance": _checked("gt_instance", gt_instance, np.int64, (n,)),
            "gt_present": _checked("gt_present", gt_present, np.bool_, (n,)),
            "endpoints": endpoints,
            "edge_distances": _checked("edge_distances", edge_distances, np.float64,
                                       (len(endpoints),))}
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @property
    def feature_dims(self) -> tuple[int, int]:
        """(d_vl, d_t), the widths of f_vl and f_t."""
        return self.f_vl.shape[1], self.f_t.shape[1]

    @property
    def nodes(self) -> np.ndarray:
        """`ids` itself. It stays only because `benchmarks/` counts nodes
        with `len(g.nodes)`; it goes when the benchmark counts `len(g.ids)`."""
        return self.ids

    @property
    def edges(self) -> np.ndarray:
        """`endpoints` itself. It stays only because `benchmarks/` counts
        edges with `len(g.edges)`; it goes when the benchmark counts
        `len(g.endpoints)`."""
        return self.endpoints

    def positions(self) -> np.ndarray:
        """(n, 3) read-only array of node positions in row order."""
        return self._positions

    def neighbor_ids(self) -> dict[int, list[int]]:
        """Adjacency as sorted neighbor-id lists (deterministic order)."""
        adj: dict[int, set[int]] = {i: set() for i in self.ids.tolist()}
        for i, j in self.endpoints.tolist():
            adj[i].add(j)
            adj[j].add(i)
        return {i: sorted(s) for i, s in adj.items()}


@dataclass
class GroundTruthMap:
    """Correspondence ground truth: many-to-one allowed, one-to-many not.

    Each id_A appears at most once; several id_A may share one id_B.
    """

    pairs: set[tuple[int, int]] = field(default_factory=set)

    def __post_init__(self):
        self.pairs = as_pairs("a ground truth pair", self.pairs, "(id_A, id_B)")
        a_side = [a for a, _ in self.pairs]
        if len(a_side) != len(set(a_side)):
            raise InvalidInputError("ground truth maps an id_A to multiple id_B")

    def a_ids(self) -> set[int]:
        return {a for a, _ in self.pairs}


def build_edges(ids, positions, n_max: int = DEFAULT_N_MAX,
                d_th: float = DEFAULT_D_TH) -> tuple[np.ndarray, np.ndarray]:
    """Distance-thresholded k-NN edges of the nodes with `ids` (n,) at
    `positions` (n, 3), symmetrized by union: the (m, 2) int64 endpoints,
    canonicalized i < j and sorted, and the (m,) float64 distances.

    Per node: candidates within d_th, ranked by (distance, id), up to n_max
    directed picks. The ids must be distinct integers within int64 (a float
    of integral value is one); the first that is not, or that repeats an
    earlier one, raises InvalidInputError naming it.
    """
    check_bound("n_max", n_max, ">= 1", where="build_edges")
    check_bound("d_th", d_th, "> 0", where="build_edges")
    ids = _distinct_ids(ids)
    positions = as_array("positions", positions, (len(ids), 3), "build_edges")
    dist = point_distances(positions[:, None], positions)
    np.fill_diagonal(dist, np.nan)  # sorts last and is never within d_th
    # Per node, its n_max nearest nodes (ties to the lower id) within d_th.
    nearest = np.lexsort((np.broadcast_to(ids, dist.shape), dist))[:, :n_max]
    a, b = np.repeat(np.arange(len(ids)), nearest.shape[1]), nearest.ravel()
    a, b = a[dist[a, b] <= d_th], b[dist[a, b] <= d_th]
    # The pairs sorted, each kept at its first pick: a stable lexsort, then
    # the first row of each run of equal rows.
    pairs = np.sort(np.stack([ids[a], ids[b]], axis=1), axis=1)
    order = np.lexsort(pairs.T[::-1])
    pairs = pairs[order]
    first = np.ones(len(pairs), bool)
    first[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
    return pairs[first], dist[a, b][order[first]]


def _distinct_ids(ids) -> np.ndarray:
    """`ids` as an int64 array, if they are distinct integers within int64
    (see `build_edges`)."""
    given = np.asarray(ids)
    if given.ndim != 1:
        raise InvalidInputError(f"build_edges: ids must be 1-D, got shape {given.shape}")
    seen = {}  # id: index, in order
    for k, value in enumerate(ids if isinstance(ids, (list, tuple)) else given.tolist()):
        try:
            id_ = as_int64(value, "id")
        except InvalidInputError:
            id_ = None
        if id_ is None or id_ in seen:
            raise InvalidInputError(f"build_edges: ids must be distinct integers within int64, "
                                    f"got {value!r} at index {k}")
        seen[id_] = k
    return np.array(list(seen), dtype=np.int64)


def validate_graph(g: SceneGraph) -> list[str]:
    """Return human-readable violations of values (shapes are checked when
    the graph is built); empty list means the graph is valid."""
    return GraphBatch.of([g]).violations()[0]


# ---------------------------------------------------------------------------
# JSON interchange


def graph_to_dict(g: SceneGraph) -> dict:
    gt = np.where(g.gt_present, g.gt_instance, None).tolist()
    return {
        "graph_id": g.graph_id,
        "frame_kind": g.frame_kind,
        "feature_dims": list(g.feature_dims),
        "nodes": [
            {"id": i, "label": label, "position": x, "f_vl": f_vl, "f_t": f_t, "f_g": f_g,
             "gt_instance": gt_instance}
            for i, label, x, f_vl, f_t, f_g, gt_instance in zip(
                g.ids.tolist(), g.labels, g.positions().tolist(), g.f_vl.tolist(),
                g.f_t.tolist(), g.f_g.tolist(), gt)
        ],
        "edges": [[i, j, d] for (i, j), d in zip(g.endpoints.tolist(),
                                                  g.edge_distances.tolist())],
    }


def _float(value, what: str, *args) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInputError(f"{what.format(*args)} must be a float64 number, got {value!r}")


def _column(values, name: str, ids: list[int], width: int) -> np.ndarray:
    """The nodes' `name` vectors, a list, as one (n, width) float64 array:
    converted at once when they agree in shape and node by node otherwise.
    The first vector that is not 1-D and `width` long raises
    InvalidInputError naming its node."""
    try:
        block = np.asarray(values, dtype=float)
        if block.shape == (len(ids), width):
            return block
    except (TypeError, ValueError, OverflowError):
        pass
    rows = [as_array(name, v, None, f"node {i}") for i, v in zip(ids, values)]
    for i, row in zip(ids, rows):
        if row.shape != (width,):
            raise InvalidInputError(f"node {i}: {name} has shape {row.shape}, "
                                    f"expected ({width},)")
    return np.stack(rows) if rows else np.zeros((0, max(width, 0)))


def _checked(name: str, value, dtype, shape: tuple) -> np.ndarray:
    """`value` as a read-only array, if it is a `dtype` array of `shape`
    (None: any size); anything else raises InvalidInputError."""
    arr = np.asarray(value)
    if (arr.dtype != dtype or arr.ndim != len(shape)
            or any(want not in (None, got) for got, want in zip(arr.shape, shape))):
        raise InvalidInputError(f"{name} is {arr.dtype} {arr.shape}, expected "
                                f"{np.dtype(dtype)} {shape}")
    arr = arr.view()
    arr.flags.writeable = False
    return arr


def _key(doc: dict, key: str, where: str = ""):
    """doc[key]; a missing key raises InvalidInputError naming it."""
    if key not in doc:
        raise InvalidInputError(f"{where}missing key {key!r}")
    return doc[key]


def graph_from_dict(data: dict, n_max: int = DEFAULT_N_MAX,
                    d_th: float = DEFAULT_D_TH) -> SceneGraph:
    """Build a SceneGraph from the JSON schema; null edges are rebuilt.

    A document that is not an object, a missing required key, a node that
    is not an object, an edge that is not [i, j, d], a field or scalar of
    the wrong type or a vector of the wrong shape raises InvalidInputError.
    Nodes and edges are read one by one, so the refusal names the first
    node or edge at fault. Each vector column is converted once. Values are
    left to `validate_graph`."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"a graph must be a JSON object, got {type(data).__name__}")
    graph_id, frame_kind, nodes = (_key(data, key) for key in ("graph_id", "frame_kind", "nodes"))
    if not isinstance(nodes, list):
        raise InvalidInputError("nodes must be a list")
    for k, nd in enumerate(nodes):
        if not isinstance(nd, dict):
            raise InvalidInputError(f"a node must be a JSON object, got {type(nd).__name__}")
        if not nd.keys() >= _NODE_KEYS:  # name the first key missing
            node_id = _key(nd, "id", f"node #{k}: ")
            for name in _VECTORS:
                _key(nd, name, f"node {node_id}: ")
    edges = data.get("edges")
    if not isinstance(edges, (list, type(None))):
        raise InvalidInputError("edges must be a list or null")
    for edge in edges or []:
        if not isinstance(edge, list) or len(edge) != 3:
            raise InvalidInputError(f"an edge must be a list [i, j, d], got {edge!r}")
    feature_dims = data.get("feature_dims", DEFAULT_FEATURE_DIMS)
    if not isinstance(feature_dims, (list, tuple)) or len(feature_dims) != 2:
        raise InvalidInputError(
            f"feature_dims must be a list of two integers, got {feature_dims!r}")
    ids = [as_int64(nd["id"], "node id") for nd in nodes]
    gt = [None if g is None else as_int64(g, "node {}: gt_instance", i)
          for i, g in zip(ids, (nd.get("gt_instance") for nd in nodes))]
    columns = {
        "ids": np.array(ids, dtype=np.int64),
        "gt_instance": np.array([0 if g is None else g for g in gt], dtype=np.int64),
        "gt_present": np.array([g is not None for g in gt], dtype=bool),
        "endpoints": np.array([(as_int64(i, "edge endpoint"), as_int64(j, "edge endpoint"))
                               for i, j, _ in edges or []], dtype=np.int64).reshape(-1, 2),
        "edge_distances": np.array([_float(d, "edge {!r}: distance", [i, j, d])
                                    for i, j, d in edges or []], dtype=np.float64)}
    widths = [3, *(as_int64(d, "feature_dims entry") for d in feature_dims), 3]
    positions, f_vl, f_t, f_g = (_column([nd[name] for nd in nodes], name, ids, width)
                                 for name, width in zip(_VECTORS, widths))
    # A coordinate beyond MAX_COORDINATE (or NaN) and a repeated id are left
    # to validate_graph.
    if (edges is None and (np.abs(positions) <= MAX_COORDINATE).all()
            and len(set(ids)) == len(ids)):
        columns["endpoints"], columns["edge_distances"] = build_edges(
            columns["ids"], positions, n_max, d_th)
    return SceneGraph(graph_id, frame_kind, labels=[nd.get("label", "") for nd in nodes],
                      positions=positions, f_vl=f_vl, f_t=f_t, f_g=f_g, **columns)


def save_graph(g: SceneGraph, path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(g)), encoding="utf-8")


def read_graph(path, n_max: int = DEFAULT_N_MAX,
               d_th: float = DEFAULT_D_TH) -> tuple[SceneGraph, list[str]]:
    """The one reader of graph files: parse `path`, rebuilding null edges
    with n_max and d_th, and return the graph with its `validate_graph`
    violations. A fault of structure, type or shape raises
    InvalidInputError naming the file; the violations are of values."""
    data = read_json(path)
    try:
        graph = graph_from_dict(data, n_max=n_max, d_th=d_th)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    return graph, validate_graph(graph)


def load_graph(path, n_max: int = DEFAULT_N_MAX, d_th: float = DEFAULT_D_TH) -> SceneGraph:
    """A valid graph from `path`; an invalid one raises InvalidInputError
    naming the file and listing the violations."""
    graph, violations = read_graph(path, n_max=n_max, d_th=d_th)
    if violations:
        raise InvalidInputError(f"{path}: {violations}")
    return graph


# ---------------------------------------------------------------------------
# Graph batches: many graphs as columns that hold the graphs' rows in turn.
# Graph k owns node rows offsets[k]:offsets[k+1] and edge rows
# edge_offsets[k]:edge_offsets[k+1]. `_PACKED` names each array, in archive
# order, and the SceneGraph column it concatenates; an offsets array counts
# the rows of its column graph by graph. Graph ids, frame kinds and labels
# travel beside the arrays as JSON-ready dicts: "U" arrays drop trailing NULs.
_PACKED = {"offsets": "ids", "node_ids": "ids", "positions": "_positions", "f_vl": "f_vl",
           "f_t": "f_t", "f_g": "f_g", "gt_instance": "gt_instance",
           "gt_present": "gt_present", "edge_offsets": "endpoints", "edges": "endpoints",
           "edge_distances": "edge_distances"}


def _segments(offsets: np.ndarray) -> np.ndarray:
    """The graph of each row of the column that `offsets` splits."""
    return np.repeat(np.arange(len(offsets) - 1), offsets[1:] - offsets[:-1])


def _first_bad_slice(offsets: np.ndarray, total: int) -> int | None:
    """None when offsets split `total` rows (start 0, never decrease, end at
    total); else the graph whose slice is wrong first."""
    down = np.flatnonzero(np.diff(offsets) < 0)
    if len(down):
        return int(down[0])
    if offsets[0] != 0:
        return 0
    if offsets[-1] != total:
        return len(offsets) - 2
    return None


@dataclass(frozen=True, eq=False, repr=False)
class GraphBatch:
    """Graphs as one batch: the arrays of `_PACKED` by name and, per graph, a
    dict of graph_id, frame_kind and labels. Built by `of` or `read`."""

    arrays: dict[str, np.ndarray]
    strings: list[dict]

    @classmethod
    def of(cls, graphs: Sequence[SceneGraph]) -> GraphBatch:
        """The batch of `graphs` (one graph's holds its own columns) once `check` passes."""
        cls.check(graphs)
        parts = list(graphs) or [graph_from_dict({"graph_id": "", "frame_kind": "world",
                                                  "feature_dims": [0, 0], "nodes": []})]
        arrays = {}
        for name, column in _PACKED.items():
            if name.endswith("offsets"):
                counts = [len(getattr(g, column)) for g in graphs]
                arrays[name] = np.array([0] + counts, np.int64).cumsum()
            elif len(parts) == 1:
                arrays[name] = getattr(parts[0], column)
            else:
                arrays[name] = np.concatenate([getattr(g, column) for g in parts])
        strings = [{"graph_id": g.graph_id, "frame_kind": g.frame_kind, "labels": g.labels}
                   for g in graphs]
        return cls(arrays, strings)

    @staticmethod
    def check(graphs: Sequence[SceneGraph]) -> None:
        """Refuse a member not a SceneGraph, or of other feature dims than the first."""
        for k, g in enumerate(graphs):
            check_type(f"graphs[{k}]", g, SceneGraph)
            if g.feature_dims != graphs[0].feature_dims:
                raise ShapeError(f"graph {g.graph_id!r}: feature dims {list(g.feature_dims)} do "
                                 f"not match those of graph {graphs[0].graph_id!r}")

    @classmethod
    def read(cls, arrays, strings, names: Sequence[str], source
             ) -> tuple[GraphBatch, list[SceneGraph]]:
        """The batch of an archive's `arrays` and `strings`, and its graphs as
        SceneGraphs of views, once dtypes, shapes, offsets, strings and values
        pass; else InvalidInputError naming `source` and the first bad scene."""
        def error(problem: str, k: int | None = None) -> InvalidInputError:
            scene = "" if k is None or not 0 <= k < len(names) else f"scene {names[k]!r}: "
            return InvalidInputError(f"{source}: {scene}{problem}")

        missing = [name for name in _PACKED if name not in arrays]
        if missing:
            raise error(f"missing graph arrays {missing}")
        ids, pairs = arrays["node_ids"], arrays["edges"]
        n_nodes = len(ids) if ids.ndim == 1 else None  # None: node_ids fails below
        n_edges = len(pairs) if pairs.ndim == 2 else None
        vector = (np.float64, (n_nodes, None))  # a node vector column of any width
        layout = {"offsets": (np.int64, (len(names) + 1,)),
                  "node_ids": (np.int64, (n_nodes,)),
                  "positions": vector, "f_vl": vector, "f_t": vector, "f_g": vector,
                  "gt_instance": (np.int64, (n_nodes,)),
                  "gt_present": (np.bool_, (n_nodes,)),
                  "edge_offsets": (np.int64, (len(names) + 1,)),
                  "edges": (np.int64, (n_edges, 2)),
                  "edge_distances": (np.float64, (n_edges,))}
        try:
            checked = {name: _checked(name, arrays[name], *layout[name]) for name in _PACKED}
        except InvalidInputError as exc:
            raise error(str(exc)) from exc
        for name, total in (("offsets", n_nodes), ("edge_offsets", n_edges)):
            k = _first_bad_slice(checked[name], total)
            if k is not None:
                raise error(f"{name} do not split {total} rows into {len(names)} graphs", k)
        if not isinstance(strings, list) or len(strings) != len(names):
            raise error(f"needs the strings of {len(names)} graphs")

        # Each graph is built (its constructor checks the strings and the
        # widths the validator reads) before any graph's values are checked.
        offsets, edge_offsets = checked["offsets"].tolist(), checked["edge_offsets"].tolist()
        graphs, fault = [], None
        for k, entry in enumerate(strings):
            nodes = slice(offsets[k], offsets[k + 1])
            edges = slice(edge_offsets[k], edge_offsets[k + 1])
            try:
                if not isinstance(entry, dict):
                    raise InvalidInputError("graph strings must be an object")
                graphs.append(SceneGraph(
                    entry.get("graph_id"), entry.get("frame_kind"), ids=checked["node_ids"][nodes],
                    labels=entry.get("labels"), positions=checked["positions"][nodes],
                    f_vl=checked["f_vl"][nodes], f_t=checked["f_t"][nodes],
                    f_g=checked["f_g"][nodes], gt_instance=checked["gt_instance"][nodes],
                    gt_present=checked["gt_present"][nodes], endpoints=checked["edges"][edges],
                    edge_distances=checked["edge_distances"][edges]))
            except InvalidInputError as exc:
                fault = error(str(exc), k)
                break
        batch = cls(checked, strings)
        # The first bad scene is named: a value fault of a graph built before
        # the graph whose construction failed, else that construction fault.
        for k, violations in enumerate(batch.violations()[:len(graphs)] if graphs else []):
            if violations:
                raise error(str(violations), k)
        if fault is not None:
            raise fault
        return batch, graphs

    def id_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(repeated, ends): per node row, whether an earlier row of its graph
        has its id; per edge, the batch rows (M, 2) of its endpoint ids in its
        graph, -1 where none has one, the last row of a repeated id. The key is
        the id in a batch of one graph, else graph * (n + 1) + the id's rank in
        the n sorted ids: one int64 in (graph, id) order. Searched among the
        stably sorted row keys, an endpoint key finds the last row at or before
        it, kept where the row has the endpoint's id and key."""
        a = self.arrays
        ids, wanted = a["node_ids"], a["edges"]
        keys, wanted_keys = ids, wanted
        if len(self.strings) > 1:
            ranks, span = np.sort(ids), len(ids) + 1
            keys = _segments(a["offsets"]) * span + np.searchsorted(ranks, ids)
            wanted_keys = (_segments(a["edge_offsets"])[:, None] * span
                           + np.searchsorted(ranks, wanted))
        order = np.argsort(keys, kind="stable")
        ordered, repeated = keys[order], np.zeros(len(ids), bool)
        repeated[order[1:]] = ordered[1:] == ordered[:-1]
        rows = np.append(-1, order)[np.searchsorted(ordered, wanted_keys, side="right")]
        found = np.append(ids, 0)[rows] == wanted
        if keys is not ids:  # and the row's graph is the endpoint's
            found &= np.append(keys, 0)[rows] == wanted_keys
        return repeated, np.where(found, rows, -1)

    def row_names(self, rows) -> list[tuple[str, int]]:
        """(graph_id, node id) of node rows, for error messages."""
        graphs, ids = _segments(self.arrays["offsets"])[rows], self.arrays["node_ids"][rows]
        return [(self.strings[g]["graph_id"], i) for g, i in zip(graphs.tolist(), ids.tolist())]

    def violations(self) -> list[list[str]]:
        """Each graph's `validate_graph` violations, node by node, then edge by
        edge, each check over all rows at once. A vector column whose minimum
        and maximum are within its bounds (a NaN fails them) flags no node."""
        a, out = self.arrays, [[] for _ in self.strings]

        def report(checks, offsets, message_of):  # each flagged row's messages, to its graph
            if checks:
                flagged = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))
                for k, g in zip(flagged.tolist(), _segments(offsets)[flagged].tolist()):
                    out[g] += [message_of(k, message) for mask, message in checks if mask[k]]

        repeated, rows = self.id_rows()
        bound = f"+-{MAX_COORDINATE:g}"
        # A node's messages: per vector column its non-finite rows, then its
        # rows beyond its bounds (those of f_vl, f_t and f_g after every
        # non-finite one). Beyond MAX_COORDINATE, squares and sums of squares
        # may overflow; f_g > 0 is f_g >= the least positive double.
        checks = [(repeated, "duplicate node id {}")] if repeated.any() else []
        later, usable = [], None
        for name, lo, hi, non_finite, beyond in (
                ("positions", -MAX_COORDINATE, MAX_COORDINATE, "non-finite position",
                 f"position has a coordinate beyond {bound}"),
                *((name, -MAX_COORDINATE, MAX_COORDINATE, f"non-finite values in {name}",
                   f"{name} has a value beyond {bound}") for name in ("f_vl", "f_t")),
                ("f_g", 5e-324, 1.0, "non-finite values in f_g",
                 "f_g components must lie in (0, 1]")):
            v = a[name]
            if lo <= v.min(initial=hi) and v.max(initial=hi) <= hi:
                continue
            bad = ~np.isfinite(v).all(axis=1)
            outside = ~bad & ~((v >= lo) & (v <= hi)).all(axis=1)
            checks.append((bad, "node {}: " + non_finite))
            (checks if name == "positions" else later).append((outside, "node {}: " + beyond))
            usable = ~(bad | outside) if name == "positions" else usable
        report(checks + later, a["offsets"],
               lambda k, message: message.format(int(a["node_ids"][k])))

        ends, pos, stored = a["edges"], a["positions"], a["edge_distances"]
        checks, measured = [], True  # True: every edge
        # Edges all canonical (so no self loop) and between nodes flag no edge
        # in the first three checks.
        if not ((ends[:, 0] < ends[:, 1]).all() and rows.min(initial=0) >= 0):
            self_loop = ends[:, 0] == ends[:, 1]
            # A self loop is neither dangling nor stale, a dangling edge not stale.
            dangling = ~self_loop & (rows.min(axis=1) < 0)
            measured = ~(self_loop | dangling)
            checks = [(self_loop, "self loop"),
                      (ends[:, 0] > ends[:, 1], "not canonicalized i < j"),
                      (dangling, "dangling endpoint")]
        if usable is not None:
            # An edge on a bad position is left to its node's message, unread.
            measured = measured & usable[rows].all(axis=1)
            pos = np.where(usable[:, None], pos, 0.0)
        # A dangling endpoint reads the last row (there is one unless every edge
        # dangles); its edge is not measured.
        actual = point_distances(pos[rows[:, 0]], pos[rows[:, 1]]) if len(pos) else \
            np.zeros(len(ends))
        # A NaN stored distance fails the comparison, so it is stale too.
        stale = measured & ~(np.abs(stored - actual)
                             <= EDGE_DISTANCE_RTOL * np.maximum(1.0, actual))
        if stale.any():
            checks.append((stale, "stored distance {} != actual {}"))
        report(checks, a["edge_offsets"], lambda m, message: f"edge ({ends[m, 0]},{ends[m, 1]}): "
               + message.format(float(stored[m]), float(actual[m])))
        return out
