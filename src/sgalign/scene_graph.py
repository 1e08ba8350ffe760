"""Scene-graph data model and distance-labelled k-NN edge construction.

Nodes carry a 3D position plus intrinsic features (vision-language vector,
text vector, normalized bounding-box extents). Edges are undirected and
store only the Euclidean distance between their endpoints.
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
_INT64 = np.iinfo(np.int64)

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

    def __post_init__(self):
        object.__setattr__(self, "f_vl", np.asarray(self.f_vl, dtype=float))
        object.__setattr__(self, "f_t", np.asarray(self.f_t, dtype=float))
        object.__setattr__(self, "f_g", np.asarray(self.f_g, dtype=float))


@dataclass(frozen=True)
class Node:
    id: int
    label: str
    x: np.ndarray
    features: NodeFeatures
    gt_instance: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))


@dataclass(frozen=True)
class Edge:
    """Undirected edge, canonicalized i < j, with cached distance d."""

    i: int
    j: int
    d: float


@dataclass
class SceneGraph:
    graph_id: str
    frame_kind: str  # "camera" | "world"
    nodes: list[Node] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    feature_dims: tuple[int, int] = DEFAULT_FEATURE_DIMS

    def positions(self) -> np.ndarray:
        """(n, 3) array of node positions in declaration order."""
        if not self.nodes:
            return np.zeros((0, 3))
        return np.stack([n.x for n in self.nodes])

    def neighbor_ids(self) -> dict[int, list[int]]:
        """Adjacency as sorted neighbor-id lists (deterministic order)."""
        adj: dict[int, set[int]] = {n.id: set() for n in self.nodes}
        for e in self.edges:
            adj[e.i].add(e.j)
            adj[e.j].add(e.i)
        return {i: sorted(s) for i, s in adj.items()}


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

    picked: set[tuple[int, int]] = set()
    dist_of: dict[tuple[int, int], float] = {}
    for a in range(len(nodes)):
        cands = [(dist[a, b], ids[b], b) for b in range(len(nodes))
                 if b != a and dist[a, b] <= d_th]
        cands.sort()  # distance, then lower id
        for d, _, b in cands[:n_max]:
            key = (int(min(ids[a], ids[b])), int(max(ids[a], ids[b])))
            picked.add(key)
            dist_of[key] = float(d)
    return [Edge(i, j, dist_of[(i, j)]) for i, j in sorted(picked)]


def _rows_with(vectors: list[np.ndarray], test) -> np.ndarray:
    """Per vector, whether `test` holds for any of its elements."""
    sizes = {v.size for v in vectors}
    if len(sizes) == 1 and 0 not in sizes:  # one size: test them as one block
        block = np.concatenate([v.ravel() for v in vectors]).reshape(len(vectors), -1)
        return test(block).any(axis=1)
    return np.array([test(v).any() for v in vectors], dtype=bool)


def validate_graph(g: SceneGraph) -> list[str]:
    """Return human-readable violations; empty list means the graph is valid.

    Each check runs over all nodes (or edges) at once; messages are built
    only for flagged ones, node by node, then edge by edge."""
    nodes = g.nodes
    d_vl, d_t = g.feature_dims
    vectors = {"position": [n.x for n in nodes],
               "f_vl": [n.features.f_vl for n in nodes],
               "f_t": [n.features.f_t for n in nodes],
               "f_g": [n.features.f_g for n in nodes]}
    expected = {"position": (3,), "f_vl": (d_vl,), "f_t": (d_t,), "f_g": (3,)}
    bad_shape = {name: np.array([v.shape != expected[name] for v in vecs], dtype=bool)
                 for name, vecs in vectors.items()}
    non_finite = {name: _rows_with(vecs, lambda a: ~np.isfinite(a))
                  for name, vecs in vectors.items()}
    out_of_range = (~bad_shape["f_g"] & ~non_finite["f_g"]
                    & _rows_with(vectors["f_g"], lambda a: (a <= 0) | (a > 1)))
    too_far = (~bad_shape["position"] & ~non_finite["position"]
               & _rows_with(vectors["position"], lambda a: np.abs(a) > MAX_COORDINATE))
    repeated = np.ones(len(nodes), dtype=bool)
    repeated[np.unique(np.asarray([n.id for n in nodes]), return_index=True)[1]] = False

    violations: list[str] = []
    flagged = repeated | out_of_range | too_far
    for name in vectors:
        flagged |= bad_shape[name] | non_finite[name]
    for k in np.flatnonzero(flagged):
        n = nodes[k]
        if repeated[k]:
            violations.append(f"duplicate node id {n.id}")
        if bad_shape["position"][k]:
            violations.append(f"node {n.id}: position has shape {n.x.shape}, expected (3,)")
        if non_finite["position"][k]:
            violations.append(f"node {n.id}: non-finite position")
        if too_far[k]:
            violations.append(f"node {n.id}: position has a coordinate beyond "
                              f"+-{MAX_COORDINATE:g}")
        for name, dim in (("f_vl", d_vl), ("f_t", d_t), ("f_g", 3)):
            if bad_shape[name][k]:
                violations.append(f"node {n.id}: {name} has shape "
                                  f"{vectors[name][k].shape}, expected ({dim},)")
        for name in ("f_vl", "f_t", "f_g"):
            if non_finite[name][k]:
                violations.append(f"node {n.id}: non-finite values in {name}")
        if out_of_range[k]:
            violations.append(f"node {n.id}: f_g components must lie in (0, 1]")

    edges = g.edges
    if not edges:
        return violations
    # Row of each endpoint, -1 when dangling; the last node of a repeated id
    # counts. Row -1 of the padded arrays is a sentinel.
    row = {n.id: k for k, n in enumerate(nodes)}
    ends = np.array([(row.get(e.i, -1), row.get(e.j, -1)) for e in edges], dtype=np.int64)
    ids = np.array([(e.i, e.j) for e in edges])
    self_loop = ids[:, 0] == ids[:, 1]
    flipped = ids[:, 0] > ids[:, 1]
    dangling = ~self_loop & (ends < 0).any(axis=1)
    # An edge on a bad position is left to that node's message.
    usable = np.append(~bad_shape["position"] & ~non_finite["position"] & ~too_far, False)
    pos = np.array([x if ok else np.zeros(3) for x, ok in zip(vectors["position"], usable)]
                   + [np.zeros(3)]).reshape(-1, 3)
    measured = ~self_loop & ~dangling & usable[ends].all(axis=1)
    actual = point_distances(pos[ends[:, 0]], pos[ends[:, 1]])
    stored = np.array([e.d for e in edges], dtype=float)
    # A NaN stored distance fails the comparison, so it is stale too.
    stale = measured & ~(np.abs(stored - actual)
                         <= EDGE_DISTANCE_RTOL * np.maximum(1.0, actual))
    for m in np.flatnonzero(self_loop | flipped | dangling | stale):
        e = edges[m]
        if self_loop[m]:
            violations.append(f"edge ({e.i},{e.j}): self loop")
            continue
        if flipped[m]:
            violations.append(f"edge ({e.i},{e.j}): not canonicalized i < j")
        if dangling[m]:
            violations.append(f"edge ({e.i},{e.j}): dangling endpoint")
            continue
        if stale[m]:
            violations.append(f"edge ({e.i},{e.j}): stored distance {e.d} != actual "
                              f"{float(actual[m])}")
    return violations


# ---------------------------------------------------------------------------
# JSON interchange


def graph_to_dict(g: SceneGraph) -> dict:
    return {
        "graph_id": g.graph_id,
        "frame_kind": g.frame_kind,
        "feature_dims": list(g.feature_dims),
        "nodes": [
            {
                "id": n.id,
                "label": n.label,
                "position": n.x.tolist(),
                "f_vl": n.features.f_vl.tolist(),
                "f_t": n.features.f_t.tolist(),
                "f_g": n.features.f_g.tolist(),
                "gt_instance": n.gt_instance,
            }
            for n in g.nodes
        ],
        "edges": [[e.i, e.j, e.d] for e in g.edges],
    }


def _int64(value, what: str) -> int:
    """`value` as an int, if it is an integer (or a float with an integral
    value) within int64; anything else raises InvalidInputError."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or not _INT64.min <= value <= _INT64.max):
        raise InvalidInputError(f"{what} must be an integer within int64, got {value!r}")
    return value


def _float(value, what: str) -> float:
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise InvalidInputError(f"{what} must be a float64 number, got {value!r}")


def _floats(value, what: str) -> np.ndarray:
    """`value` as a float64 array; a value NumPy cannot convert (ragged,
    "abc") raises InvalidInputError."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{what} is not an array of numbers ({exc})") from exc


def _label(value, node_id) -> str:
    if not isinstance(value, str):
        raise InvalidInputError(f"node {node_id}: label must be a string, got {value!r}")
    return value


def _header(graph_id, frame_kind, feature_dims) -> tuple[str, str, tuple[int, int]]:
    """The checked graph-level fields shared by the JSON and array formats."""
    if not isinstance(graph_id, str):
        raise InvalidInputError(f"graph_id must be a string, got {graph_id!r}")
    if not isinstance(frame_kind, str) or frame_kind not in FRAME_KINDS:
        raise InvalidInputError(
            f"frame_kind must be one of {list(FRAME_KINDS)}, got {frame_kind!r}")
    if not isinstance(feature_dims, (list, tuple)) or len(feature_dims) != 2:
        raise InvalidInputError(
            f"feature_dims must be a list of two integers, got {feature_dims!r}")
    return graph_id, frame_kind, tuple(_int64(d, "feature_dims entry")
                                       for d in feature_dims)


def _key(doc: dict, key: str, where: str = ""):
    """doc[key]; a missing key raises InvalidInputError naming it."""
    if key not in doc:
        raise InvalidInputError(f"{where}missing key {key!r}")
    return doc[key]


def _node_from_dict(nd, k: int) -> Node:
    if not isinstance(nd, dict):
        raise InvalidInputError(f"a node must be a JSON object, got {type(nd).__name__}")
    node_id = _int64(_key(nd, "id", f"node #{k}: "), "node id")
    vectors = {name: _floats(_key(nd, name, f"node {node_id}: "), f"node {node_id}: {name}")
               for name in ("position", "f_vl", "f_t", "f_g")}
    gt_instance = nd.get("gt_instance")
    return Node(
        id=node_id,
        label=_label(nd.get("label", ""), node_id),
        x=vectors["position"],
        features=NodeFeatures(f_vl=vectors["f_vl"], f_t=vectors["f_t"], f_g=vectors["f_g"]),
        gt_instance=(None if gt_instance is None
                     else _int64(gt_instance, f"node {node_id}: gt_instance")),
    )


def _edge_from_list(raw) -> Edge:
    if not isinstance(raw, list) or len(raw) != 3:
        raise InvalidInputError(f"an edge must be a list [i, j, d], got {raw!r}")
    i, j, d = raw
    return Edge(_int64(i, "edge endpoint"), _int64(j, "edge endpoint"),
                _float(d, f"edge {raw!r}: distance"))


def graph_from_dict(data: dict, n_max: int = DEFAULT_N_MAX,
                    d_th: float = DEFAULT_D_TH) -> SceneGraph:
    """Build a SceneGraph from the JSON schema; null edges are rebuilt.

    Types are checked field by field before any array conversion: a
    document that is not an object, a missing required key, a node id, edge
    endpoint or gt_instance that is not an int64 integer, a label that is
    not a string, an edge that is not [i, j, d] or a frame kind other than
    camera/world raises InvalidInputError. Array shapes and values are left
    to `validate_graph`."""
    if not isinstance(data, dict):
        raise InvalidInputError(f"a graph must be a JSON object, got {type(data).__name__}")
    graph_id, frame_kind, feature_dims = _header(
        _key(data, "graph_id"), _key(data, "frame_kind"),
        data.get("feature_dims", DEFAULT_FEATURE_DIMS))
    if not isinstance(_key(data, "nodes"), list):
        raise InvalidInputError("nodes must be a list")
    nodes = [_node_from_dict(nd, k) for k, nd in enumerate(data["nodes"])]
    raw_edges = data.get("edges")
    if raw_edges is None:
        # A position that is not a 3-vector within MAX_COORDINATE (NaN is not)
        # is left to validate_graph.
        rebuild = all(n.x.shape == (3,) and (np.abs(n.x) <= MAX_COORDINATE).all()
                      for n in nodes)
        edges = build_edges(nodes, n_max=n_max, d_th=d_th) if rebuild else []
    elif isinstance(raw_edges, list):
        edges = [_edge_from_list(raw) for raw in raw_edges]
    else:
        raise InvalidInputError("edges must be a list or null")
    return SceneGraph(graph_id=graph_id, frame_kind=frame_kind, nodes=nodes,
                      edges=edges, feature_dims=feature_dims)


def save_graph(g: SceneGraph, path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(g)), encoding="utf-8")


def read_graph(path, n_max: int = DEFAULT_N_MAX,
               d_th: float = DEFAULT_D_TH) -> tuple[SceneGraph, list[str]]:
    """The one reader of graph files: parse `path`, rebuilding null edges
    with n_max and d_th, and return the graph with its `validate_graph`
    violations."""
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
# Array interchange: many graphs as concatenated arrays. Graph k owns node
# rows offsets[k]:offsets[k+1] and edge rows edge_offsets[k]:edge_offsets[k+1].
# Graph ids, frame kinds, feature dims and labels travel beside the arrays
# as JSON-ready dicts, because NumPy "U" arrays drop trailing NULs.

_NODE_VECTORS = ("positions", "f_vl", "f_t", "f_g")
_PACKED_ARRAYS = ("offsets", "node_ids", *_NODE_VECTORS, "gt_instance", "gt_present",
                  "edge_offsets", "edges", "edge_distances")


def _int64_column(values: list) -> np.ndarray:
    column = np.array(values, dtype=np.int64)
    if column.tolist() != values:  # a float id would be truncated silently
        raise ValueError("ids, edge endpoints and gt_instance must be integers")
    return column


def _node_rows(vectors: list[np.ndarray]) -> np.ndarray:
    block = np.stack(vectors) if vectors else np.zeros((0, 0))
    if block.ndim != 2:
        raise ValueError("node vectors must be 1-D")
    return block


def pack_graphs(graphs: Sequence[SceneGraph]) -> tuple[dict[str, np.ndarray], list[dict]]:
    """The graphs as arrays (`offsets`, `node_ids`, `positions`, `f_vl`,
    `f_t`, `f_g`, `gt_instance` with its `gt_present` mask, `edge_offsets`,
    `edges` and `edge_distances`) plus, per graph, a dict of its strings
    and feature dims; `unpack_graphs` inverts it bit for bit."""
    nodes = [n for g in graphs for n in g.nodes]
    edges = [e for g in graphs for e in g.edges]
    try:
        arrays = {
            "offsets": np.cumsum([0] + [len(g.nodes) for g in graphs], dtype=np.int64),
            "node_ids": _int64_column([n.id for n in nodes]),
            "positions": _node_rows([n.x for n in nodes]),
            "f_vl": _node_rows([n.features.f_vl for n in nodes]),
            "f_t": _node_rows([n.features.f_t for n in nodes]),
            "f_g": _node_rows([n.features.f_g for n in nodes]),
            "gt_instance": _int64_column([0 if n.gt_instance is None else n.gt_instance
                                          for n in nodes]),
            "gt_present": np.array([n.gt_instance is not None for n in nodes], dtype=bool),
            "edge_offsets": np.cumsum([0] + [len(g.edges) for g in graphs], dtype=np.int64),
            "edges": _int64_column([[e.i, e.j] for e in edges]).reshape(-1, 2),
            "edge_distances": np.array([e.d for e in edges], dtype=np.float64),
        }
    except (OverflowError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot pack graphs: {exc}") from exc
    strings = [{"graph_id": g.graph_id, "frame_kind": g.frame_kind,
                "feature_dims": list(g.feature_dims), "labels": [n.label for n in g.nodes]}
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

    Checks dtypes, shapes, offsets and the string fields, then runs
    `validate_graph` on every graph. A failure raises InvalidInputError
    naming `source` and, where one graph is at fault, its entry of `names`.
    Node vectors are views of the arrays, not copies."""
    def error(problem: str, k: int | None = None) -> InvalidInputError:
        scene = "" if k is None or not 0 <= k < len(names) else f"scene {names[k]!r}: "
        return InvalidInputError(f"{source}: {scene}{problem}")

    missing = [name for name in _PACKED_ARRAYS if name not in arrays]
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
    ids, gt, present = (arrays[k].tolist() for k in ("node_ids", "gt_instance", "gt_present"))
    pairs, dists = arrays["edges"].tolist(), arrays["edge_distances"].tolist()
    pos, f_vl, f_t, f_g = (arrays[k] for k in _NODE_VECTORS)
    graphs = []
    for k, entry in enumerate(strings):
        lo, hi = offsets[k], offsets[k + 1]
        try:
            if not isinstance(entry, dict):
                raise InvalidInputError("graph strings must be an object")
            graph_id, frame_kind, feature_dims = _header(
                entry.get("graph_id"), entry.get("frame_kind"), entry.get("feature_dims"))
            labels = entry.get("labels")
            if not isinstance(labels, list) or len(labels) != hi - lo:
                raise InvalidInputError(f"needs {hi - lo} labels for its node rows")
            labels = [_label(label, ids[r]) for r, label in zip(range(lo, hi), labels)]
        except InvalidInputError as exc:
            raise error(str(exc), k) from exc
        nodes = [Node(ids[r], label, pos[r], NodeFeatures(f_vl[r], f_t[r], f_g[r]),
                      gt[r] if present[r] else None)
                 for r, label in zip(range(lo, hi), labels)]
        rows = slice(edge_offsets[k], edge_offsets[k + 1])
        edges = [Edge(i, j, d) for (i, j), d in zip(pairs[rows], dists[rows])]
        graph = SceneGraph(graph_id, frame_kind, nodes, edges, feature_dims)
        violations = validate_graph(graph)
        if violations:
            raise error(str(violations), k)
        graphs.append(graph)
    return graphs
