"""Pairwise matching scores between two node-embedding sets.

Cosine similarities are turned into a probability-like matrix P in [0, 1]
with an explicit dustbin channel for non-matches by a dustbin-augmented
dual softmax (SuperGlue, Sarlin et al., CVPR 2020).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (InvalidInputError, NumericError, as_array, check_bounds, check_type,
                     check_widths)

# Floor keeps -log(P) bounded (~20.7), so flow costs stay interpretable
# against the default unmatched cost of 2.0.
P_FLOOR = 1e-9
# Cosine similarities satisfy |S| <= 1, so the logits S / temperature and the
# dustbin logit span at most max(2, 1 + |dustbin_logit|) / temperature, the
# largest difference the softmax forms. Half the float range leaves room for
# similarities a few ulp beyond 1.
MAX_LOGIT_SPAN = sys.float_info.max / 2


@dataclass(frozen=True)
class MatcherParams:
    # Temperature 0.07 keeps both halves of an under-segmented object above
    # the candidate threshold under dual-softmax column competition.
    temperature: float = field(default=0.07, metadata={"bound": "finite and > 0"})
    dustbin_logit: float = field(default=0.0, metadata={"bound": "finite"})

    def __post_init__(self):
        check_bounds(self)
        if 2 / self.temperature > MAX_LOGIT_SPAN:
            raise InvalidInputError(f"temperature must be >= {2 / MAX_LOGIT_SPAN:g} for "
                                    f"finite logits, got {self.temperature}")
        if (1 + abs(self.dustbin_logit)) / self.temperature > MAX_LOGIT_SPAN:
            raise InvalidInputError(
                f"dustbin_logit must be within +-{MAX_LOGIT_SPAN * self.temperature - 1:g} "
                f"for finite logits at temperature {self.temperature}, "
                f"got {self.dustbin_logit}")


@dataclass
class ScoreMatrix:
    """P in [0,1]^(I x J) plus the dustbin masses.

    dustbin_col[i] is the non-match mass of A-row i; dustbin_row[j] the
    non-match mass of B-column j.
    """

    P: np.ndarray
    dustbin_row: np.ndarray
    dustbin_col: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.P.shape


def unit_rows(emb: np.ndarray, side: str) -> np.ndarray:
    """The rows of `emb` scaled to unit norm. A zero-norm row raises
    NumericError naming it as side[row]."""
    emb = np.asarray(emb, dtype=float)
    norms = np.linalg.norm(emb, axis=1)
    zero = np.where(norms == 0)[0]
    if zero.size:
        raise NumericError(f"cosine_scores: zero-norm embedding {side}[{zero[0]}]")
    return emb / norms[:, None]


def cosine_scores(emb_a: np.ndarray, emb_b: np.ndarray) -> np.ndarray:
    """S[i, j] = <e_i, e_j> on defensively re-normalized embeddings."""
    emb_a = as_array("emb_a", emb_a, (None, None), "cosine_scores")
    emb_b = as_array("emb_b", emb_b, (None, None), "cosine_scores")
    check_widths("cosine_scores", "emb_a", emb_a.shape[1], "emb_b", emb_b.shape[1])
    if emb_a.size == 0 or emb_b.size == 0:
        return np.zeros((len(emb_a), len(emb_b)))
    return unit_rows(emb_a, "a") @ unit_rows(emb_b, "b").T


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    ex = np.exp(x - x.max(axis=axis, keepdims=True))
    return ex / ex.sum(axis=axis, keepdims=True)


def score_matrix(S: np.ndarray, params: MatcherParams = MatcherParams()) -> ScoreMatrix:
    """Convert similarities into the [0,1] score matrix with dustbin."""
    S = as_array("S", S, (None, None), "score_matrix")
    check_type("params", params, MatcherParams)
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("score_matrix: non-finite similarities")
    n_a, n_b = S.shape

    # With an empty side every row/column softmax is the dustbin alone: 1.0.
    logits = S / params.temperature
    bin_logit = params.dustbin_logit / params.temperature
    # Row softmax over J real columns plus the dustbin column.
    aug_rows = np.concatenate([logits, np.full((n_a, 1), bin_logit)], axis=1)
    r = softmax(aug_rows, axis=1)
    # Column softmax over I real rows plus the dustbin row.
    aug_cols = np.concatenate([logits, np.full((1, n_b), bin_logit)], axis=0)
    c = softmax(aug_cols, axis=0)
    P = np.maximum(r[:, :n_b] * c[:n_a, :], P_FLOOR)
    return ScoreMatrix(
        P=P,
        dustbin_row=c[n_a, :].copy(),
        dustbin_col=r[:, n_b].copy(),
    )
