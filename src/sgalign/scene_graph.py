"""Scene-graph data model and distance-labelled k-NN edge construction.

A scene graph is stored as columns with one row per node: an id, a label,
a 3D position and the intrinsic features (vision-language vector, text
vector, normalized bounding-box extents). Edges are undirected and store
only the Euclidean distance between their endpoints.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInputError, read_json

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


@dataclass(frozen=True)
class NodeFeatures:
    """Intrinsic per-object features.

    f_vl: vision-language embedding, unit scale, dimension D_vl.
    f_t: text embedding, dimension D_t.
    f_g: normalized oriented-bounding-box extents, components in (0, 1].
    """

    f_vl: np.ndarray
    f_t: np.ndarray
    f_g: np.ndarray


@dataclass(frozen=True)
class Node:
    """One node row; a SceneGraph built from it holds x and the features as float64."""

    id: int
    label: str
    x: np.ndarray
    features: NodeFeatures
    gt_instance: Optional[int] = None


@dataclass(frozen=True)
class Edge:
    """Undirected edge, canonicalized i < j, with cached distance d."""

    i: int
    j: int
    d: float


_VECTORS = ("position", "f_vl", "f_t", "f_g")


@dataclass(frozen=True, init=False, eq=False, repr=False)
class SceneGraph:
    """A scene graph as read-only columns: row k of the node columns is
    node k, row m of `endpoints` and `edge_distances` is edge m.

    `SceneGraph(graph_id, frame_kind, nodes, edges, feature_dims)` converts
    Node and Edge lists once. Building a graph is the one place types and
    shapes are checked: int64 ids, gt_instance values and endpoints, float64
    distances, string labels, and 1-D node vectors 3 wide (position, f_g)
    or as wide as `feature_dims` (f_vl, f_t). A fault raises
    InvalidInputError naming the node; values are left to `validate_graph`.
    `nodes` and `edges` build Node and Edge views on each access.
    """

    graph_id: str
    frame_kind: str  # "camera" | "world"
    feature_dims: tuple[int, int]
    ids: np.ndarray             # (n,) int64
    labels: tuple[str, ...]
    _positions: np.ndarray      # (n, 3) float64
    f_vl: np.ndarray            # (n, d_vl) float64
    f_t: np.ndarray             # (n, d_t) float64
    f_g: np.ndarray             # (n, 3) float64
    gt_instance: np.ndarray     # (n,) int64, 0 where not gt_present
    gt_present: np.ndarray      # (n,) bool
    endpoints: np.ndarray       # (m, 2) int64 node ids
    edge_distances: np.ndarray  # (m,) float64

    def __init__(self, graph_id: str, frame_kind: str, nodes: Sequence[Node] = (),
                 edges: Sequence[Edge] = (), feature_dims=DEFAULT_FEATURE_DIMS):
        self._build(graph_id, frame_kind, feature_dims, [n.id for n in nodes],
                    [n.label for n in nodes], [n.gt_instance for n in nodes],
                    [(e.i, e.j, e.d) for e in edges],
                    [[n.x for n in nodes], [n.features.f_vl for n in nodes],
                     [n.features.f_t for n in nodes], [n.features.f_g for n in nodes]])

    def _build(self, graph_id, frame_kind, feature_dims, ids: list, labels: list,
               gt_instance: list, edges: list, vectors: list) -> SceneGraph:
        """Check and store the columns from per-node ids, labels and
        gt_instance values (None where absent), (i, j, d) edges and, in
        _VECTORS order, the nodes' vectors (see `_column`)."""
        if not isinstance(graph_id, str):
            raise InvalidInputError(f"graph_id must be a string, got {graph_id!r}")
        if not isinstance(frame_kind, str) or frame_kind not in FRAME_KINDS:
            raise InvalidInputError(
                f"frame_kind must be one of {list(FRAME_KINDS)}, got {frame_kind!r}")
        if not isinstance(feature_dims, (list, tuple)) or len(feature_dims) != 2:
            raise InvalidInputError(
                f"feature_dims must be a list of two integers, got {feature_dims!r}")
        ids = [_int64(i, "node id") for i in ids]
        for i, label in zip(ids, labels):
            if not isinstance(label, str):
                raise InvalidInputError(f"node {i}: label must be a string, got {label!r}")
        columns = {
            "graph_id": graph_id, "frame_kind": frame_kind, "ids": np.array(ids, dtype=np.int64),
            "labels": tuple(labels),
            "gt_instance": np.array([0 if gt is None else _int64(gt, f"node {i}: gt_instance")
                                     for i, gt in zip(ids, gt_instance)], dtype=np.int64),
            "gt_present": np.array([gt is not None for gt in gt_instance], dtype=bool),
            "endpoints": np.array([(_int64(i, "edge endpoint"), _int64(j, "edge endpoint"))
                                   for i, j, _ in edges], dtype=np.int64).reshape(-1, 2),
            "edge_distances": np.array([_float(d, "edge {!r}: distance", [i, j, d])
                                        for i, j, d in edges], dtype=np.float64),
            "feature_dims": tuple(_int64(d, "feature_dims entry") for d in feature_dims)}
        d_vl, d_t = columns["feature_dims"]
        for attr, values, name, width in zip(("_positions", "f_vl", "f_t", "f_g"), vectors,
                                             _VECTORS, (3, d_vl, d_t, 3)):
            columns[attr] = _column(values, name, ids, width)
        for name, value in columns.items():
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, name, value)
        return self

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The node rows as Node views of the columns."""
        gt = np.where(self.gt_present, self.gt_instance, None).tolist()
        return tuple(Node(i, label, x, NodeFeatures(f_vl, f_t, f_g), g)
                     for i, label, x, f_vl, f_t, f_g, g in zip(
                         self.ids.tolist(), self.labels, self._positions, self.f_vl,
                         self.f_t, self.f_g, gt))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edge rows as Edge views of the columns."""
        return tuple(Edge(i, j, d) for (i, j), d in zip(self.endpoints.tolist(),
                                                         self.edge_distances.tolist()))

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


def build_edges(nodes: Sequence[Node], n_max: int = DEFAULT_N_MAX,
                d_th: float = DEFAULT_D_TH) -> list[Edge]:
    """Distance-thresholded k-NN edges, symmetrized by union.

    Per node: candidates within d_th, ranked by (distance, id), up to n_max
    directed picks. The undirected union is canonicalized i < j.
    """
    if n_max < 1:
        raise InvalidInputError(f"build_edges: n_max must be >= 1, got {n_max}")
    if not d_th > 0:  # also refuses NaN
        raise InvalidInputError(f"build_edges: d_th must be > 0, got {d_th}")
    if len(nodes) < 2:
        return []
    ids = np.array([n.id for n in nodes])
    pos = np.stack([n.x for n in nodes])
    dist = point_distances(pos[:, None], pos)
    np.fill_diagonal(dist, np.nan)  # sorts last and is never within d_th
    # Per node, its n_max nearest nodes (ties to the lower id) within d_th.
    nearest = np.lexsort((np.broadcast_to(ids, dist.shape), dist))[:, :n_max]
    a, b = np.repeat(np.arange(len(ids)), nearest.shape[1]), nearest.ravel()
    a, b = a[dist[a, b] <= d_th], b[dist[a, b] <= d_th]
    pairs, first = np.unique(np.sort(np.stack([ids[a], ids[b]], axis=1), axis=1), axis=0,
                             return_index=True)
    return [Edge(i, j, d) for (i, j), d in zip(pairs.tolist(), dist[a, b][first].tolist())]


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
    """The nodes' `name` vectors as one (n, width) float64 array. `values`
    is that array already or a list of per-node vectors, converted at once
    when they agree in shape and node by node otherwise. The first vector
    that is not 1-D and `width` long raises InvalidInputError naming its
    node."""
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


def _key(doc: dict, key: str, where: str = ""):
    """doc[key]; a missing key raises InvalidInputError naming it."""
    if key not in doc:
        raise InvalidInputError(f"{where}missing key {key!r}")
    return doc[key]


def graph_from_dict(data: dict, n_max: int = DEFAULT_N_MAX,
                    d_th: float = DEFAULT_D_TH) -> SceneGraph:
    """Build a SceneGraph from the JSON schema; null edges are rebuilt.

    A document that is not an object, a missing required key, a node that
    is not an object or an edge that is not [i, j, d] raises
    InvalidInputError; building the SceneGraph then checks the graph
    fields and scalar types, converts each vector column once and checks
    shapes. Values are left to `validate_graph`."""
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
    graph = SceneGraph.__new__(SceneGraph)._build(
        graph_id, frame_kind, data.get("feature_dims", DEFAULT_FEATURE_DIMS),
        [nd["id"] for nd in nodes], [nd.get("label", "") for nd in nodes],
        [nd.get("gt_instance") for nd in nodes], edges or [],
        [[nd[name] for nd in nodes] for name in _VECTORS])
    # A coordinate beyond MAX_COORDINATE (or NaN) is left to validate_graph.
    if edges is None and (np.abs(graph.positions()) <= MAX_COORDINATE).all():
        nodes = graph.nodes
        graph = SceneGraph(graph_id, frame_kind, nodes, build_edges(nodes, n_max, d_th),
                           graph.feature_dims)
    return graph


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
    per graph, a dict of its strings and feature dims; `unpack_graphs`
    inverts it bit for bit."""
    parts = list(graphs) or [SceneGraph("", "world", feature_dims=(0, 0))]
    try:
        arrays = {packed: np.cumsum([0] + [len(getattr(g, column)) for g in graphs],
                                    dtype=np.int64) if packed.endswith("offsets")
                  else np.concatenate([getattr(g, column) for g in parts])
                  for packed, column in _PACKED.items()}
    except ValueError as exc:  # feature dims that differ between graphs
        raise InvalidInputError(f"cannot pack graphs: {exc}") from exc
    strings = [{"graph_id": g.graph_id, "frame_kind": g.frame_kind,
                "feature_dims": list(g.feature_dims), "labels": list(g.labels)}
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

    Checks dtypes, shapes, offsets and the string fields, builds each graph
    from slices of the arrays (views, not copies) and runs `validate_graph`
    on it. A failure raises InvalidInputError naming `source` and, where
    one graph is at fault, its entry of `names`."""
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
    for name, (dtype, shape) in layout.items():  # None in a shape: any size
        arr = arrays[name]
        if (arr.dtype != dtype or arr.ndim != len(shape)
                or any(want not in (None, got) for got, want in zip(arr.shape, shape))):
            raise error(f"{name} is {arr.dtype} {arr.shape}, expected {np.dtype(dtype)} "
                        f"{shape}")
    for name, total in (("offsets", n_nodes), ("edge_offsets", n_edges)):
        k = _first_bad_slice(arrays[name], total)
        if k is not None:
            raise error(f"{name} do not split {total} rows into {len(names)} graphs", k)
    if not isinstance(strings, list) or len(strings) != len(names):
        raise error(f"needs the strings of {len(names)} graphs")

    offsets, edge_offsets = arrays["offsets"].tolist(), arrays["edge_offsets"].tolist()
    gt = np.where(arrays["gt_present"], arrays["gt_instance"], None).tolist()
    edges = [(i, j, d) for (i, j), d in zip(pairs.tolist(), arrays["edge_distances"].tolist())]
    graphs = []
    for k, entry in enumerate(strings):
        lo, hi = offsets[k], offsets[k + 1]
        try:
            if not isinstance(entry, dict):
                raise InvalidInputError("graph strings must be an object")
            labels = entry.get("labels")
            if not isinstance(labels, list) or len(labels) != hi - lo:
                raise InvalidInputError(f"needs {hi - lo} labels for its node rows")
            graph = SceneGraph.__new__(SceneGraph)._build(
                entry.get("graph_id"), entry.get("frame_kind"), entry.get("feature_dims"),
                ids[lo:hi].tolist(), labels, gt[lo:hi],
                edges[edge_offsets[k]:edge_offsets[k + 1]],
                [arrays[name][lo:hi] for name in _NODE_VECTORS])
        except InvalidInputError as exc:
            raise error(str(exc), k) from exc
        violations = validate_graph(graph)
        if violations:
            raise error(str(violations), k)
        graphs.append(graph)
    return graphs
