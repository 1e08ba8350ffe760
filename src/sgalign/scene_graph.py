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

from .errors import InvalidInputError

DEFAULT_FEATURE_DIMS = (256, 384)
DEFAULT_N_MAX = 4
DEFAULT_D_TH = 2.0

# Stored edge distances must agree with recomputed ones to this rel. tol.
EDGE_DISTANCE_RTOL = 1e-9


def pairwise_distance(a, b) -> float:
    """Euclidean distance between two 3D points (meters)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise InvalidInputError("pairwise_distance: non-finite input point")
    return float(np.linalg.norm(a - b))


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

    def node_by_id(self) -> dict[int, Node]:
        return {n.id: n for n in self.nodes}

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
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

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


def validate_graph(g: SceneGraph) -> list[str]:
    """Return human-readable violations; empty list means the graph is valid."""
    violations: list[str] = []
    d_vl, d_t = g.feature_dims

    seen: set[int] = set()
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

    by_id = g.node_by_id()
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


def graph_from_dict(data: dict, n_max: int = DEFAULT_N_MAX,
                    d_th: float = DEFAULT_D_TH) -> SceneGraph:
    """Build a SceneGraph from the JSON schema; null edges are rebuilt."""
    nodes = [
        Node(
            id=int(nd["id"]),
            label=nd.get("label", ""),
            x=np.asarray(nd["position"], dtype=float),
            features=NodeFeatures(
                f_vl=np.asarray(nd["f_vl"], dtype=float),
                f_t=np.asarray(nd["f_t"], dtype=float),
                f_g=np.asarray(nd["f_g"], dtype=float),
            ),
            gt_instance=nd.get("gt_instance"),
        )
        for nd in data["nodes"]
    ]
    raw_edges = data.get("edges")
    if raw_edges is None:
        edges = build_edges(nodes, n_max=n_max, d_th=d_th)
    else:
        edges = [Edge(int(i), int(j), float(d)) for i, j, d in raw_edges]
    return SceneGraph(
        graph_id=data["graph_id"],
        frame_kind=data["frame_kind"],
        nodes=nodes,
        edges=edges,
        feature_dims=tuple(data.get("feature_dims", DEFAULT_FEATURE_DIMS)),
    )


def save_graph(g: SceneGraph, path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(g)), encoding="utf-8")


def read_graph(path, n_max: int = DEFAULT_N_MAX,
               d_th: float = DEFAULT_D_TH) -> tuple[SceneGraph, list[str]]:
    """The one reader of graph files: parse `path`, rebuilding null edges
    with n_max and d_th, and return the graph with its `validate_graph`
    violations."""
    graph = graph_from_dict(json.loads(Path(path).read_text(encoding="utf-8")),
                            n_max=n_max, d_th=d_th)
    return graph, validate_graph(graph)


def load_graph(path, n_max: int = DEFAULT_N_MAX, d_th: float = DEFAULT_D_TH) -> SceneGraph:
    """A valid graph from `path`; an invalid one raises InvalidInputError
    naming the file and listing the violations."""
    graph, violations = read_graph(path, n_max=n_max, d_th=d_th)
    if violations:
        raise InvalidInputError(f"{path}: {violations}")
    return graph
