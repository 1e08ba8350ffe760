"""End-to-end alignment: encode both graphs, score, allocate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import ALLOCATORS, MatchSet, mcf_allocate, mnn_allocate
from .config import PipelineConfig
from .encoder import EncoderWeights, encode_nodes
from .errors import InvalidInputError, check_type
from .matcher import ScoreMatrix, cosine_scores, score_matrix
from .scene_graph import SceneGraph, validate_graph


@dataclass
class AlignmentResult:
    matches: MatchSet
    scores: ScoreMatrix
    emb_a: np.ndarray
    emb_b: np.ndarray


def allocate(scores: ScoreMatrix, pos_a: np.ndarray, pos_b: np.ndarray,
             config: PipelineConfig, allocator: str) -> MatchSet:
    if allocator not in ALLOCATORS:
        raise InvalidInputError(f"unknown allocator {allocator!r}")
    if allocator == "mnn":
        return mnn_allocate(scores, config.mnn)
    return mcf_allocate(scores, pos_a, pos_b, config.mcf)


def match_embeddings(emb_a: np.ndarray, emb_b: np.ndarray, pos_a: np.ndarray,
                     pos_b: np.ndarray, config: PipelineConfig,
                     allocator: str) -> tuple[ScoreMatrix, MatchSet]:
    """Score two encoded graphs against each other and allocate matches."""
    check_type("config", config, PipelineConfig)
    scores = score_matrix(cosine_scores(emb_a, emb_b), config.matcher)
    return scores, allocate(scores, pos_a, pos_b, config, allocator)


def align_graphs(graph_a: SceneGraph, graph_b: SceneGraph,
                 weights: EncoderWeights, config: PipelineConfig,
                 allocator: str = "mcf", validate: bool = True) -> AlignmentResult:
    """Node embeddings of two scene graphs, scored and allocated to a MatchSet.

    Matching reads node embeddings only, so the class-token stage does not
    run. Both graphs go through one node pass, and each graph's rows equal
    those of `encode_graph`.
    """
    if validate:
        for name, g in (("graph_a", graph_a), ("graph_b", graph_b)):
            violations = validate_graph(g)
            if violations:
                raise InvalidInputError(f"{name} invalid: {violations}")
    check_type("config", config, PipelineConfig)
    emb_a, emb_b = encode_nodes([graph_a, graph_b], weights)
    scores, matches = match_embeddings(emb_a, emb_b, graph_a.positions(),
                                       graph_b.positions(), config, allocator)
    return AlignmentResult(matches=matches, scores=scores, emb_a=emb_a, emb_b=emb_b)
