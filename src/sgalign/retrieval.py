"""Scene database: global-embedding filtering plus node-level reranking.

A database holds per-scene graphs with cached node/global embeddings.
Queries are filtered to the Top-K scenes by global cosine similarity, then
reranked by the sum of matched-pair scores, optionally weighted by the
global similarity. Cached embeddings are invalidated when the encoder
weights change (content hash).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocator import MatchSet
from .config import RERANK_MODES, PipelineConfig
from .encoder import EncoderWeights, encode_graph, encode_graphs, node_batches
from .errors import (InvalidInputError, SgaError, as_array, check_bound, check_type,
                     check_widths, npz_entry, open_npz, read_json, section_dict)
from .matcher import score_matrix, unit_rows
from .pipeline import allocate
from .scene_graph import GraphBatch, SceneGraph


@dataclass
class EncodedScene:
    scene_id: str
    graph: SceneGraph
    node_embeddings: np.ndarray
    global_embedding: np.ndarray


@dataclass
class SceneDatabase:
    entries: list[EncodedScene] = field(default_factory=list)

    def __post_init__(self):
        check_type("entries", self.entries, list)
        for k, entry in enumerate(self.entries):
            check_type(f"entries[{k}]", entry, EncodedScene)
            check_type(f"entries[{k}].scene_id", entry.scene_id, str)
        ids = [e.scene_id for e in self.entries]
        if repeat := repeated_id(ids):
            raise InvalidInputError(f"database: scene id {ids[repeat[1]]!r} is listed twice")

    def __len__(self) -> int:
        return len(self.entries)


def _check_scene(name: str, scene) -> None:
    """Refuse `scene` unless it is an EncodedScene of a SceneGraph."""
    check_type(name, scene, EncodedScene)
    check_type(f"{name}.graph", scene.graph, SceneGraph)


def repeated_id(ids: list) -> tuple[int, int] | None:
    """(i, j) of the first id that is listed again, at j and before at i;
    None when every id is listed once."""
    first = {}
    for j, scene_id in enumerate(ids):
        if scene_id in first:
            return first[scene_id], j
        first[scene_id] = j
    return None


@dataclass
class RetrievalResult:
    """Candidates ranked by non-increasing score."""

    ranked: list[tuple[str, float, MatchSet | None]]
    failed: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ranked": [
                {"scene_id": sid, "score": score,
                 "matches": None if m is None else m.to_dict()}
                for sid, score, m in self.ranked
            ],
            "failed": list(self.failed),
        }


def encode_scene(scene_id: str, graph: SceneGraph,
                 weights: EncoderWeights) -> EncodedScene:
    node_emb, global_emb = encode_graph(graph, weights)
    return EncodedScene(scene_id=scene_id, graph=graph,
                        node_embeddings=node_emb, global_embedding=global_emb)


def build_database(scenes: list[tuple[str, SceneGraph]],
                   weights: EncoderWeights) -> SceneDatabase:
    """Encode every scene, several per batched forward pass."""
    check_type("scenes", scenes, list)
    for k, scene in enumerate(scenes):
        if not (isinstance(scene, (tuple, list)) and len(scene) == 2
                and isinstance(scene[1], SceneGraph)):
            raise InvalidInputError(f"scenes[{k}] is not a (scene_id, SceneGraph) pair")
        check_type(f"scenes[{k}] scene id", scene[0], str)
    entries = []
    for batch in node_batches(scenes, lambda scene: len(scene[1].ids)):
        encoded = encode_graphs([graph for _, graph in batch], weights)
        entries += [EncodedScene(scene_id=sid, graph=graph, node_embeddings=node_emb,
                                 global_embedding=global_emb)
                    for (sid, graph), (node_emb, global_emb) in zip(batch, encoded)]
    return SceneDatabase(entries=entries)


def global_similarity(q: np.ndarray, t: np.ndarray) -> float:
    """Cosine similarity of two unit-norm global descriptors, 1-D arrays of
    one width."""
    q = as_array("q", q, (None,), "global_similarity")
    t = as_array("t", t, (None,), "global_similarity")
    check_widths("global_similarity", "q", len(q), "t", len(t))
    return float(np.dot(q, t))


def topk_filter(query_global: np.ndarray, db: SceneDatabase, k: int) -> list[str]:
    """Scene ids of the k most similar globals; ties favor lower scene_id.
    One batched product over the stacked globals: NumPy computes each of its
    (1, d) @ (d, 1) items with its dot routine, so each has the bits of
    `global_similarity` on that entry (a plain `stacked @ q` does not)."""
    check_bound("k", k, ">= 1", where="topk_filter")
    check_type("db", db, SceneDatabase)
    q = as_array("query_global", query_global, (None,), "topk_filter")
    stacked = as_array("database globals", [e.global_embedding for e in db.entries]
                       or np.zeros((0, len(q))), (len(db), len(q)), "topk_filter")
    sims = (stacked[:, None, :] @ q[:, None])[:, 0, 0]
    scored = sorted(zip((-sims).tolist(), [e.scene_id for e in db.entries]))
    return [sid for _, sid in scored[:k]]


def rerank(query: EncodedScene, candidates: list[EncodedScene], mode: str,
           config: PipelineConfig) -> RetrievalResult:
    """Score candidates by matched-pair score mass; sort descending.

    mode "direct": score = sum of P[i, j] over the allocated matches.
    mode "weighted": the same sum multiplied by the global dot product.
    Node embeddings must be of shape (nodes of the scene's graph, the query's
    width) with no zero-norm row, and in weighted mode global embeddings must
    be 1-D arrays of the query's global width. The query's unit rows are
    formed once, on the first candidate: a query that breaks this fails
    every candidate, and a candidate that breaks it fails alone.
    """
    if mode not in RERANK_MODES:
        raise InvalidInputError(f"rerank mode must be {'|'.join(RERANK_MODES)}, got {mode!r}")
    if not candidates:
        raise InvalidInputError("rerank: no candidates")
    _check_scene("query", query)
    check_type("candidates", candidates, list)
    for k, cand in enumerate(candidates):
        _check_scene(f"candidates[{k}]", cand)
    check_type("config", config, PipelineConfig)
    rows: list[tuple[str, float, MatchSet | None]] = []
    failed: list[str] = []
    query_rows, query_positions = None, query.graph.positions()
    for cand in candidates:
        try:
            if query_rows is None:
                query_rows = unit_rows(as_array("query node embeddings", query.node_embeddings,
                                                (len(query.graph.ids), None), "rerank"), "a")
            cand_rows = unit_rows(as_array(
                "candidate node embeddings", cand.node_embeddings,
                (len(cand.graph.ids), query_rows.shape[1]), f"rerank: {cand.scene_id!r}"), "b")
            scores = score_matrix(query_rows @ cand_rows.T, config.matcher)
            matches = allocate(scores, query_positions, cand.graph.positions(), config,
                               config.retrieval.allocator)
            score = sum(scores.P[i, j] for i, j, _ in matches.pairs)
            if mode == "weighted":
                score *= global_similarity(query.global_embedding, cand.global_embedding)
            rows.append((cand.scene_id, float(score), matches))
        except SgaError:
            rows.append((cand.scene_id, float("-inf"), None))
            failed.append(cand.scene_id)
    rows.sort(key=lambda r: (-r[1], r[0]))
    return RetrievalResult(ranked=rows, failed=failed)


def retrieve(query: EncodedScene, db: SceneDatabase, k: int, mode: str,
             config: PipelineConfig) -> RetrievalResult:
    """Top-K global filtering followed by reranking. `k`, `mode` and the
    query's global embedding are checked on an empty database too, which
    ranks nothing."""
    _check_scene("query", query)
    keep = set(topk_filter(query.global_embedding, db, k))
    candidates = [e for e in db.entries if e.scene_id in keep]
    if not candidates and mode in RERANK_MODES:
        return RetrievalResult(ranked=[])
    return rerank(query, candidates, mode, config)


# ---------------------------------------------------------------------------
# Persistence: a directory with index.json and embeddings.npz. The archive
# holds the stacked globals (S, d_model), the concatenated node embeddings
# (sum of N, d_model) and the arrays of the scenes' `GraphBatch`; scene i
# owns node rows offsets[i]:offsets[i+1] of both. index.json holds the scene
# ids, the weights hash and the graphs' strings. A directory of any other
# format version is refused: it has to be rebuilt from its scene graphs.

DB_FORMAT_VERSION = 3
INDEX_FILE = "index.json"
EMBEDDINGS_FILE = "embeddings.npz"


def weights_fingerprint(weights: EncoderWeights) -> str:
    """sha256 over the config and, in name order, each tensor's name, dtype,
    shape and raw bytes."""
    check_type("weights", weights, EncoderWeights)
    digest = hashlib.sha256(json.dumps(section_dict(weights.config), sort_keys=True)
                            .encode("utf-8"))
    for name, arr in sorted(weights.tensors.items()):
        digest.update(json.dumps([name, arr.dtype.str, arr.shape]).encode("utf-8"))
        digest.update(np.ascontiguousarray(arr).data)
    return digest.hexdigest()


def _check_scene_id(scene_id) -> None:
    """A scene id must be a plain file name: non-empty, no '/', '\\' or
    NUL, not '.' or '..'."""
    if (not isinstance(scene_id, str) or scene_id in ("", ".", "..")
            or any(c in scene_id for c in "/\\\0")):
        raise InvalidInputError(f"scene id {scene_id!r} is not a safe file name")


def save_database(db: SceneDatabase, directory, weights: EncoderWeights) -> None:
    """Write embeddings.npz, then index.json. Every entry's scene id and
    embedding shapes are checked first, then what `load_database` refuses:
    graph values and embedding rows that are not unit vectors, the first
    scene at fault named as the load names it. A refused save opens no file."""
    check_type("db", db, SceneDatabase)
    check_type("weights", weights, EncoderWeights)
    batch, d_model = GraphBatch.of([e.graph for e in db.entries]), weights.config.d_model
    globals_, nodes = [], [np.zeros((0, d_model))]
    for entry, n in zip(db.entries, np.diff(batch.arrays["offsets"]).tolist()):
        _check_scene_id(entry.scene_id)
        for what, value, shape, out in (
                ("node embeddings", entry.node_embeddings, (n, d_model), nodes),
                ("global embedding", entry.global_embedding, (d_model,), globals_)):
            if np.shape(value) != shape:
                raise InvalidInputError(f"scene {entry.scene_id!r}: {what} of shape "
                                        f"{np.shape(value)}, expected {shape}")
            out.append(as_array(what, value, None, f"scene {entry.scene_id!r}"))
    directory = Path(directory)
    path, scene_ids = directory / EMBEDDINGS_FILE, [e.scene_id for e in db.entries]
    for k, violations in enumerate(batch.violations()):
        if violations:
            raise InvalidInputError(f"{path}: scene {scene_ids[k]!r}: {violations}")
    globals_, nodes = np.reshape(globals_, (len(db), d_model)), np.concatenate(nodes)
    _unit_rows(path, scene_ids, globals_, nodes, batch.arrays["offsets"])
    index = {"format_version": DB_FORMAT_VERSION, "scenes": scene_ids,
             "weights_hash": weights_fingerprint(weights), "graphs": batch.strings}
    directory.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        np.savez(fh, globals=globals_, nodes=nodes, **batch.arrays)
    (directory / INDEX_FILE).write_text(json.dumps(index), encoding="utf-8")


def _read_archive(path: Path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        try:
            with open_npz(fh, "npz archive") as archive:
                return {name: npz_entry(archive, name) for name in archive.files}
        except InvalidInputError as exc:
            raise InvalidInputError(f"{path}: {exc}") from exc


# Stored embeddings are unit rows, as the encoder writes them; a row whose
# norm is further from 1 than this was not written by it.
UNIT_NORM_TOL = 1e-9


def _unit_rows(path: Path, scene_ids: list[str], globals_: np.ndarray, nodes: np.ndarray,
               offsets: np.ndarray) -> None:
    """Refuse a global or node embedding row whose norm is not 1 within
    UNIT_NORM_TOL, naming its scene (node rows: `offsets` split them). Entries
    are bounded first, so the squared norms cannot overflow, and no temporary
    copy of the rows is made."""
    bound = 1 + UNIT_NORM_TOL
    for what, rows, starts in (("global embedding", globals_, np.arange(len(scene_ids) + 1)),
                               ("node embedding", nodes, offsets)):
        bad = ~((rows.max(axis=1) <= bound) & (rows.min(axis=1) >= -bound))  # NaN too
        if not bad.any():
            bad = ~(np.abs(np.sqrt(np.einsum("ij,ij->i", rows, rows)) - 1) <= UNIT_NORM_TOL)
        if bad.any():
            row = int(np.argmax(bad))
            scene = scene_ids[int(np.searchsorted(starts, row, side="right")) - 1]
            raise InvalidInputError(f"{path}: scene {scene!r}: {what} row {row} is not a unit "
                                    f"vector within {UNIT_NORM_TOL:g}")


def _embeddings(path: Path, arrays: dict[str, np.ndarray], scene_ids: list[str],
                d_model: int):
    """(globals, nodes) of the archive, checked against the graphs' node
    count; every row must be a unit vector."""
    if "globals" not in arrays or "nodes" not in arrays:
        raise InvalidInputError(f"{path}: needs arrays globals and nodes, "
                                f"has {sorted(arrays)}")
    globals_, nodes = arrays["globals"], arrays["nodes"]
    n_scenes = len(scene_ids)
    if globals_.shape != (n_scenes, d_model) or globals_.dtype != np.float64:
        raise InvalidInputError(f"{path}: globals are {globals_.dtype} {globals_.shape}, "
                                f"expected float64 {(n_scenes, d_model)}")
    offsets = arrays["offsets"]
    n_nodes = int(offsets[-1])
    if nodes.shape != (n_nodes, d_model) or nodes.dtype != np.float64:
        raise InvalidInputError(f"{path}: node embeddings are {nodes.dtype} "
                                f"{nodes.shape}, expected float64 {(n_nodes, d_model)}")
    _unit_rows(path, scene_ids, globals_, nodes, offsets)
    return globals_, nodes


def load_database(directory, weights: EncoderWeights) -> SceneDatabase:
    """Load a saved database of format version 3; its scene graphs are read
    from embeddings.npz and checked by `GraphBatch.read`. When the
    stored weights hash differs from `weights`, `build_database` re-encodes
    the graphs instead of reading their embeddings. An index.json of any
    other format version, or one that lists a scene id twice, raises
    InvalidInputError before the archive is opened."""
    check_type("weights", weights, EncoderWeights)
    directory = Path(directory)
    index_path = directory / INDEX_FILE
    index = read_json(index_path)
    if not isinstance(index, dict) or not isinstance(index.get("scenes"), list):
        raise InvalidInputError(f"{index_path}: no scenes list")
    if index.get("format_version") != DB_FORMAT_VERSION:
        raise InvalidInputError(
            f"{index_path}: database format_version {index.get('format_version')!r} "
            f"is not {DB_FORMAT_VERSION}; rebuild the database from its scene graphs")
    scene_ids = index["scenes"]
    for scene_id in scene_ids:
        _check_scene_id(scene_id)
    if repeat := repeated_id(scene_ids):
        raise InvalidInputError(
            f"{index_path}: scene id {scene_ids[repeat[1]]!r} is listed twice")
    path = directory / EMBEDDINGS_FILE
    arrays = _read_archive(path)
    batch, graphs = GraphBatch.read(arrays, index.get("graphs"), scene_ids, path)
    if index.get("weights_hash") != weights_fingerprint(weights):
        return build_database(list(zip(scene_ids, graphs)), weights)
    globals_, nodes = _embeddings(path, arrays, scene_ids, weights.config.d_model)
    offsets = batch.arrays["offsets"]
    return SceneDatabase(entries=[
        EncodedScene(scene_id=scene_id, graph=graph,
                     node_embeddings=nodes[offsets[i]:offsets[i + 1]],
                     global_embedding=globals_[i])
        for i, (scene_id, graph) in enumerate(zip(scene_ids, graphs))])
