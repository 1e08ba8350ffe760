"""End-to-end alignment: encode both graphs, score, allocate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import MatchSet, mcf_allocate, mnn_allocate
from .config import PipelineConfig
from .encoder import EncoderWeights, encode_graph
from .errors import InvalidInputError
from .matcher import ScoreMatrix, cosine_scores, score_matrix
from .scene_graph import SceneGraph, validate_graph


@dataclass
class AlignmentResult:
    matches: MatchSet
    scores: ScoreMatrix
    emb_a: np.ndarray
    emb_b: np.ndarray
    global_a: np.ndarray
    global_b: np.ndarray


def allocate(scores: ScoreMatrix, pos_a: np.ndarray, pos_b: np.ndarray,
             config: PipelineConfig, allocator: str) -> MatchSet:
    if allocator == "mnn":
        return mnn_allocate(scores, config.mnn)
    if allocator == "mcf":
        return mcf_allocate(scores, pos_a, pos_b, config.mcf)
    raise InvalidInputError(f"unknown allocator {allocator!r}")


def match_embeddings(emb_a: np.ndarray, emb_b: np.ndarray, pos_a: np.ndarray,
                     pos_b: np.ndarray, config: PipelineConfig,
                     allocator: str) -> tuple[ScoreMatrix, MatchSet]:
    """Score two encoded graphs against each other and allocate matches."""
    scores = score_matrix(cosine_scores(emb_a, emb_b), config.matcher)
    return scores, allocate(scores, pos_a, pos_b, config, allocator)


def align_graphs(graph_a: SceneGraph, graph_b: SceneGraph,
                 weights: EncoderWeights, config: PipelineConfig,
                 allocator: str = "mcf", validate: bool = True) -> AlignmentResult:
    """Full forward pass from two scene graphs to a MatchSet.

    Each graph is encoded on its own: BLAS may round a row differently with
    the number of rows in the product, and a one-graph call keeps the
    embeddings equal to those of `encode_graph`.
    """
    if validate:
        for name, g in (("graph_a", graph_a), ("graph_b", graph_b)):
            violations = validate_graph(g)
            if violations:
                raise InvalidInputError(f"{name} invalid: {violations}")
    emb_a, global_a = encode_graph(graph_a, weights)
    emb_b, global_b = encode_graph(graph_b, weights)
    scores, matches = match_embeddings(emb_a, emb_b, graph_a.positions(),
                                       graph_b.positions(), config, allocator)
    return AlignmentResult(matches=matches, scores=scores,
                           emb_a=emb_a, emb_b=emb_b,
                           global_a=global_a, global_b=global_b)
