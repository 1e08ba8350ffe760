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

from .errors import InvalidInputError, check_bound, read_json

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


def pairwise_distance(a, b) -> float:
    """Euclidean distance between two finite 3D points (meters)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (3,) or b.shape != (3,):
        raise InvalidInputError(f"pairwise_distance: points must be 3-vectors, "
                                f"got shapes {a.shape} and {b.shape}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("pairwise_distance: non-finite input point")
    return float(point_distances(a, b))


_VECTORS = ("position", "f_vl", "f_t", "f_g")


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

    def rows_of(self, ids) -> np.ndarray:
        """The node row of each id in `ids`, -1 where no node has it; a
        repeated id gives its last row."""
        order = np.argsort(self.ids, kind="stable")
        rows = np.append(-1, order)[np.searchsorted(self.ids[order], ids, side="right")]
        return np.where(np.append(self.ids, 0)[rows] == ids, rows, -1)


@dataclass
class GroundTruthMap:
    """Correspondence ground truth: many-to-one allowed, one-to-many not.

    Each id_A appears at most once; several id_A may share one id_B.
    """

    pairs: set[tuple[int, int]] = field(default_factory=set)

    def __post_init__(self):
        self.pairs = set(map(tuple, self.pairs))
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
    directed picks.
    """
    check_bound("n_max", n_max, ">= 1", where="build_edges")
    check_bound("d_th", d_th, "> 0", where="build_edges")
    ids = np.asarray(ids, dtype=np.int64)
    dist = point_distances(np.asarray(positions)[:, None], positions)
    np.fill_diagonal(dist, np.nan)  # sorts last and is never within d_th
    # Per node, its n_max nearest nodes (ties to the lower id) within d_th.
    nearest = np.lexsort((np.broadcast_to(ids, dist.shape), dist))[:, :n_max]
    a, b = np.repeat(np.arange(len(ids)), nearest.shape[1]), nearest.ravel()
    a, b = a[dist[a, b] <= d_th], b[dist[a, b] <= d_th]
    pairs, first = np.unique(np.sort(np.stack([ids[a], ids[b]], axis=1), axis=1), axis=0,
                             return_index=True)
    return pairs, dist[a, b][first]


def validate_graph(g: SceneGraph) -> list[str]:
    """Return human-readable violations; empty list means the graph is valid.

    Shapes are checked when the graph is built; this checks values. Each
    check runs over all nodes (or edges) at once; messages are built only
    for flagged ones, node by node, then edge by edge."""
    ids = g.ids.tolist()
    vectors = {"position": g.positions(), "f_vl": g.f_vl, "f_t": g.f_t, "f_g": g.f_g}
    non_finite = {name: ~np.isfinite(v).all(axis=1) for name, v in vectors.items()}
    # Beyond MAX_COORDINATE, squares and sums of squares may overflow.
    too_big = {name: ~non_finite[name] & (np.abs(vectors[name]) > MAX_COORDINATE).any(axis=1)
               for name in ("position", "f_vl", "f_t")}
    bound = f"+-{MAX_COORDINATE:g}"
    out_of_range = ~non_finite["f_g"] & ((g.f_g <= 0) | (g.f_g > 1)).any(axis=1)
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(g.ids, return_index=True)[1]] = False

    # Each node check and its message, in the order a node's messages take.
    checks = [(repeated, "duplicate node id {}"),
              (non_finite["position"], "node {}: non-finite position"),
              (too_big["position"], f"node {{}}: position has a coordinate beyond {bound}"),
              *((non_finite[name], f"node {{}}: non-finite values in {name}")
                for name in ("f_vl", "f_t", "f_g")),
              *((too_big[name], f"node {{}}: {name} has a value beyond {bound}")
                for name in ("f_vl", "f_t")),
              (out_of_range, "node {}: f_g components must lie in (0, 1]")]
    violations = []
    for k in np.flatnonzero(np.any([mask for mask, _ in checks], axis=0)):
        violations += [message.format(ids[k]) for mask, message in checks if mask[k]]

    ends = g.endpoints
    self_loop = ends[:, 0] == ends[:, 1]
    flipped = ends[:, 0] > ends[:, 1]
    # Row of each endpoint, -1 when dangling, which picks the zero sentinel
    # row appended to the positions. An edge on a bad position is left to
    # that node's message.
    rows = g.rows_of(ends)
    dangling = ~self_loop & (rows < 0).any(axis=1)
    usable = np.append(~non_finite["position"] & ~too_big["position"], False)
    pos = np.where(usable[:, None], np.append(g.positions(), np.zeros((1, 3)), axis=0), 0.0)
    measured = ~self_loop & ~dangling & usable[rows].all(axis=1)
    actual = point_distances(pos[rows[:, 0]], pos[rows[:, 1]])
    # A NaN stored distance fails the comparison, so it is stale too.
    stale = measured & ~(np.abs(g.edge_distances - actual)
                         <= EDGE_DISTANCE_RTOL * np.maximum(1.0, actual))
    # A self loop is neither dangling nor stale, a dangling edge not stale.
    checks = [(self_loop, "self loop"), (flipped, "not canonicalized i < j"),
              (dangling, "dangling endpoint"), (stale, "stored distance {} != actual {}")]
    pairs, stored = ends.tolist(), g.edge_distances.tolist()
    for m in np.flatnonzero(self_loop | flipped | dangling | stale):
        violations += [f"edge ({pairs[m][0]},{pairs[m][1]}): "
                       + message.format(stored[m], float(actual[m]))
                       for mask, message in checks if mask[m]]
    return violations


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


def _int64(value, what: str) -> int:
    """`value` as an int, if it is an integer (or a float with an integral
    value) within int64; anything else raises InvalidInputError."""
    if isinstance(value, float) and value.is_integer() or isinstance(value, np.integer):
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or not -2 ** 63 <= value < 2 ** 63):
        raise InvalidInputError(f"{what} must be an integer within int64, got {value!r}")
    return value


def _float(value, what: str, *args) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInputError(f"{what.format(*args)} must be a float64 number, got {value!r}")


def _floats(value, what: str) -> np.ndarray:
    """`value` as a float64 array; a value NumPy cannot convert (ragged,
    "abc") raises InvalidInputError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} is not an array of numbers ({exc})") from exc


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
    rows = [_floats(v, f"node {i}: {name}") for i, v in zip(ids, values)]
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
    the wrong type or a vector of the wrong shape raises InvalidInputError,
    naming the node where one is at fault. Each vector column is converted
    once. Values are left to `validate_graph`."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"a graph must be a JSON object, got {type(data).__name__}")
    graph_id, frame_kind, nodes = (_key(data, key) for key in ("graph_id", "frame_kind", "nodes"))
    if not isinstance(nodes, list):
        raise InvalidInputError("nodes must be a list")
    for k, nd in enumerate(nodes):
        if not isinstance(nd, dict):
            raise InvalidInputError(f"a node must be a JSON object, got {type(nd).__name__}")
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
    ids = [_int64(nd["id"], "node id") for nd in nodes]
    gt = [nd.get("gt_instance") for nd in nodes]
    gt_instance = [0 if g is None else _int64(g, f"node {i}: gt_instance")
                   for i, g in zip(ids, gt)]
    endpoints = [(_int64(i, "edge endpoint"), _int64(j, "edge endpoint"))
                 for i, j, _ in edges or []]
    distances = [_float(d, "edge {!r}: distance", [i, j, d]) for i, j, d in edges or []]
    widths = [3, *(_int64(d, "feature_dims entry") for d in feature_dims), 3]
    positions, f_vl, f_t, f_g = (_column([nd[name] for nd in nodes], name, ids, width)
                                 for name, width in zip(_VECTORS, widths))
    # A coordinate beyond MAX_COORDINATE (or NaN) is left to validate_graph.
    if edges is None and (np.abs(positions) <= MAX_COORDINATE).all():
        endpoints, distances = build_edges(ids, positions, n_max, d_th)
    return SceneGraph(graph_id, frame_kind, ids=np.array(ids, dtype=np.int64),
                      labels=[nd.get("label", "") for nd in nodes],
                      positions=positions, f_vl=f_vl, f_t=f_t, f_g=f_g,
                      gt_instance=np.array(gt_instance, dtype=np.int64),
                      gt_present=np.array([g is not None for g in gt], dtype=bool),
                      endpoints=np.array(endpoints, dtype=np.int64).reshape(-1, 2),
                      edge_distances=np.array(distances, dtype=np.float64))


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
# Array interchange: many graphs as concatenated columns. Graph k owns node
# rows offsets[k]:offsets[k+1] and edge rows edge_offsets[k]:edge_offsets[k+1].
# Graph ids, frame kinds, feature dims and labels travel beside the arrays
# as JSON-ready dicts, because NumPy "U" arrays drop trailing NULs.

# Each packed array and the SceneGraph column it concatenates, in archive
# order; an offsets array counts the rows of its column graph by graph.
_PACKED = {"offsets": "ids", "node_ids": "ids", "positions": "_positions", "f_vl": "f_vl",
           "f_t": "f_t", "f_g": "f_g", "gt_instance": "gt_instance",
           "gt_present": "gt_present", "edge_offsets": "endpoints", "edges": "endpoints",
           "edge_distances": "edge_distances"}
_NODE_VECTORS = ("positions", "f_vl", "f_t", "f_g")


def pack_graphs(graphs: Sequence[SceneGraph]) -> tuple[dict[str, np.ndarray], list[dict]]:
    """The graphs' columns concatenated into the arrays of `_PACKED`, plus,
    per graph, a dict of its strings; `unpack_graphs` inverts it bit for
    bit."""
    parts = list(graphs) or [graph_from_dict({"graph_id": "", "frame_kind": "world",
                                              "feature_dims": [0, 0], "nodes": [], "edges": []})]
    try:
        arrays = {packed: np.cumsum([0] + [len(getattr(g, column)) for g in graphs],
                                    dtype=np.int64) if packed.endswith("offsets")
                  else np.concatenate([getattr(g, column) for g in parts])
                  for packed, column in _PACKED.items()}
    except ValueError as exc:  # feature dims that differ between graphs
        raise InvalidInputError(f"cannot pack graphs: {exc}") from exc
    strings = [{"graph_id": g.graph_id, "frame_kind": g.frame_kind, "labels": list(g.labels)}
               for g in graphs]
    return arrays, strings


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


def unpack_graphs(arrays, strings, names: Sequence[str], source) -> list[SceneGraph]:
    """Rebuild the graphs `pack_graphs` packed into `arrays` and `strings`.

    Checks dtypes, shapes, offsets and the string fields (feature dims are
    the array widths), builds each graph from slices of the arrays (views,
    not copies) and runs `validate_graph` on it. A failure raises
    InvalidInputError naming `source` and, where one graph is at fault,
    its entry of `names`."""
    def error(problem: str, k: int | None = None) -> InvalidInputError:
        scene = "" if k is None or not 0 <= k < len(names) else f"scene {names[k]!r}: "
        return InvalidInputError(f"{source}: {scene}{problem}")

    missing = [name for name in _PACKED if name not in arrays]
    if missing:
        raise error(f"missing graph arrays {missing}")
    ids, pairs = arrays["node_ids"], arrays["edges"]
    n_nodes = len(ids) if ids.ndim == 1 else None  # None: node_ids fails below
    n_edges = len(pairs) if pairs.ndim == 2 else None
    layout = {"offsets": (np.int64, (len(names) + 1,)),
              "node_ids": (np.int64, (n_nodes,)),
              **{name: (np.float64, (n_nodes, None)) for name in _NODE_VECTORS},
              "gt_instance": (np.int64, (n_nodes,)),
              "gt_present": (np.bool_, (n_nodes,)),
              "edge_offsets": (np.int64, (len(names) + 1,)),
              "edges": (np.int64, (n_edges, 2)),
              "edge_distances": (np.float64, (n_edges,))}
    try:
        for name, (dtype, shape) in layout.items():
            _checked(name, arrays[name], dtype, shape)
    except InvalidInputError as exc:
        raise error(str(exc)) from exc
    for name, total in (("offsets", n_nodes), ("edge_offsets", n_edges)):
        k = _first_bad_slice(arrays[name], total)
        if k is not None:
            raise error(f"{name} do not split {total} rows into {len(names)} graphs", k)
    if not isinstance(strings, list) or len(strings) != len(names):
        raise error(f"needs the strings of {len(names)} graphs")

    offsets, edge_offsets = arrays["offsets"].tolist(), arrays["edge_offsets"].tolist()
    graphs = []
    for k, entry in enumerate(strings):
        nodes = slice(offsets[k], offsets[k + 1])
        edges = slice(edge_offsets[k], edge_offsets[k + 1])
        try:
            if not isinstance(entry, dict):
                raise InvalidInputError("graph strings must be an object")
            graph = SceneGraph(
                entry.get("graph_id"), entry.get("frame_kind"), ids=ids[nodes],
                labels=entry.get("labels"), positions=arrays["positions"][nodes],
                f_vl=arrays["f_vl"][nodes], f_t=arrays["f_t"][nodes], f_g=arrays["f_g"][nodes],
                gt_instance=arrays["gt_instance"][nodes], gt_present=arrays["gt_present"][nodes],
                endpoints=pairs[edges], edge_distances=arrays["edge_distances"][edges])
        except InvalidInputError as exc:
            raise error(str(exc), k) from exc
        violations = validate_graph(graph)
        if violations:
            raise error(str(violations), k)
        graphs.append(graph)
    return graphs
