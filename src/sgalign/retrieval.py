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
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocator import MatchSet
from .config import PipelineConfig
from .encoder import EncoderWeights, encode_graph, encode_graphs, node_batches
from .errors import InvalidInputError, SgaError
from .pipeline import match_embeddings
from .scene_graph import SceneGraph, graph_from_dict, graph_to_dict


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
        ids = [e.scene_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise InvalidInputError("duplicate scene ids in database")

    def __len__(self) -> int:
        return len(self.entries)

    def by_id(self, scene_id: str) -> EncodedScene:
        for entry in self.entries:
            if entry.scene_id == scene_id:
                return entry
        raise KeyError(scene_id)


@dataclass
class RetrievalResult:
    """Candidates ranked by non-increasing score."""

    ranked: list[tuple[str, float, MatchSet | None]]
    timings: dict[str, float] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "ranked": [
                {"scene_id": sid, "score": score,
                 "matches": None if m is None else m.to_dict(),
                 "seconds": self.timings.get(sid)}
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
    entries = []
    for batch in node_batches(scenes, lambda scene: len(scene[1].nodes)):
        encoded = encode_graphs([graph for _, graph in batch], weights)
        entries += [EncodedScene(scene_id=sid, graph=graph, node_embeddings=node_emb,
                                 global_embedding=global_emb)
                    for (sid, graph), (node_emb, global_emb) in zip(batch, encoded)]
    return SceneDatabase(entries=entries)


def global_similarity(q: np.ndarray, t: np.ndarray) -> float:
    """Cosine similarity of two unit-norm global descriptors."""
    return float(np.dot(np.asarray(q, dtype=float), np.asarray(t, dtype=float)))


def topk_filter(query_global: np.ndarray, db: SceneDatabase, k: int) -> list[str]:
    """Scene ids of the k most similar globals; ties favor lower scene_id."""
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    scored = sorted(
        ((-global_similarity(query_global, e.global_embedding), e.scene_id)
         for e in db.entries))
    return [sid for _, sid in scored[:k]]


def rerank(query: EncodedScene, candidates: list[EncodedScene], mode: str,
           config: PipelineConfig) -> RetrievalResult:
    """Score candidates by matched-pair score mass; sort descending.

    mode "direct": score = sum of P[i, j] over the allocated matches.
    mode "weighted": the same sum multiplied by the global dot product.
    """
    if mode not in ("direct", "weighted"):
        raise InvalidInputError(f"rerank mode must be direct|weighted, got {mode!r}")
    if not candidates:
        raise InvalidInputError("rerank: no candidates")
    rows: list[tuple[str, float, MatchSet | None]] = []
    timings: dict[str, float] = {}
    failed: list[str] = []
    for cand in candidates:
        started = time.perf_counter()
        try:
            scores, matches = match_embeddings(
                query.node_embeddings, cand.node_embeddings,
                query.graph.positions(), cand.graph.positions(), config,
                config.retrieval.allocator)
            score = sum(scores.P[i, j] for i, j, _ in matches.pairs)
            if mode == "weighted":
                score *= global_similarity(query.global_embedding,
                                           cand.global_embedding)
            rows.append((cand.scene_id, float(score), matches))
        except SgaError:
            rows.append((cand.scene_id, float("-inf"), None))
            failed.append(cand.scene_id)
        timings[cand.scene_id] = time.perf_counter() - started
    rows.sort(key=lambda r: (-r[1], r[0]))
    return RetrievalResult(ranked=rows, timings=timings, failed=failed)


def retrieve(query: EncodedScene, db: SceneDatabase, k: int, mode: str,
             config: PipelineConfig) -> RetrievalResult:
    """Top-K global filtering followed by reranking."""
    if not db.entries:
        return RetrievalResult(ranked=[])
    keep = set(topk_filter(query.global_embedding, db, k))
    candidates = [e for e in db.entries if e.scene_id in keep]
    return rerank(query, candidates, mode, config)


# ---------------------------------------------------------------------------
# Persistence: directory with index.json + per-scene graph/embedding files


def weights_fingerprint(weights: EncoderWeights) -> str:
    doc = {"config": weights.config.to_dict(),
           "tensors": {k: v.tolist() for k, v in sorted(weights.tensors.items())}}
    return hashlib.sha256(json.dumps(doc).encode("utf-8")).hexdigest()


def save_database(db: SceneDatabase, directory, weights: EncoderWeights) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for entry in db.entries:
        (directory / f"{entry.scene_id}.graph.json").write_text(
            json.dumps(graph_to_dict(entry.graph)), encoding="utf-8")
        (directory / f"{entry.scene_id}.emb.json").write_text(json.dumps({
            "global": entry.global_embedding.tolist(),
            "nodes": entry.node_embeddings.tolist(),
        }), encoding="utf-8")
    index = {"scenes": [e.scene_id for e in db.entries],
             "weights_hash": weights_fingerprint(weights)}
    (directory / "index.json").write_text(json.dumps(index), encoding="utf-8")


def load_database(directory, weights: EncoderWeights) -> SceneDatabase:
    """Load a saved database; stale embedding caches are recomputed."""
    directory = Path(directory)
    index = json.loads((directory / "index.json").read_text(encoding="utf-8"))
    fresh = index.get("weights_hash") == weights_fingerprint(weights)
    entries = []
    for scene_id in index["scenes"]:
        graph = graph_from_dict(json.loads(
            (directory / f"{scene_id}.graph.json").read_text(encoding="utf-8")))
        if fresh:
            emb = json.loads(
                (directory / f"{scene_id}.emb.json").read_text(encoding="utf-8"))
            d_model = weights.config.d_model
            nodes = (np.asarray(emb["nodes"], dtype=float)
                     if emb["nodes"] else np.zeros((0, d_model)))
            entries.append(EncodedScene(
                scene_id=scene_id, graph=graph,
                node_embeddings=nodes,
                global_embedding=np.asarray(emb["global"], dtype=float)))
        else:
            entries.append(encode_scene(scene_id, graph, weights))
    return SceneDatabase(entries=entries)
