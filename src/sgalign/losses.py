"""Training objectives as plain functions with analytic gradients.

No network training happens here: the losses are evaluated on given
similarity matrices / embeddings, and the gradients are verified against
finite differences in the test suite. A small gradient-descent demo fits
free per-node embeddings to one alignment sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, check_bound, check_bounds
from .matcher import softmax

DEFAULT_INFO_NCE_TEMPERATURE = 0.07
DEFAULT_TRIPLET_MARGIN = 0.5


@dataclass
class InfoNceInput:
    similarities: np.ndarray            # (I, J), pre-temperature
    positives: set[tuple[int, int]]
    temperature: float = field(default=DEFAULT_INFO_NCE_TEMPERATURE,
                               metadata={"bound": "finite and > 0"})

    def __post_init__(self):
        self.similarities = np.asarray(self.similarities, dtype=float)
        self.positives = set(map(tuple, self.positives))
        check_bounds(self)
        n_a, n_b = self.similarities.shape
        rows = [i for i, _ in self.positives]
        cols = [j for _, j in self.positives]
        if any(not (0 <= i < n_a) for i in rows) or any(not (0 <= j < n_b) for j in cols):
            raise InvalidInputError("positive pair out of range")
        if len(rows) != len(set(rows)) or len(cols) != len(set(cols)):
            raise InvalidInputError(
                "bidirectional form needs at most one positive per row and column")


def info_nce(inp: InfoNceInput) -> tuple[float, np.ndarray]:
    """Bidirectional cross-entropy over positive rows and columns.

    Returns (loss, dloss/dS). Row and column cross-entropies are averaged
    over positive rows / columns respectively, then the two directions are
    averaged, so rectangular matrices with partially matched rows work.
    """
    if not inp.positives:
        raise InvalidInputError("info_nce requires at least one positive pair")
    S = inp.similarities / inp.temperature
    grad = np.zeros_like(S)
    positives = sorted(inp.positives)

    row_sm = softmax(S, axis=1)
    col_sm = softmax(S, axis=0)
    n_pos = len(positives)

    loss = 0.0
    for i, j in positives:
        loss += -np.log(row_sm[i, j])
        grad[i, :] += row_sm[i, :] / n_pos
        grad[i, j] -= 1.0 / n_pos
    row_loss = loss / n_pos

    loss = 0.0
    col_grad = np.zeros_like(S)
    for i, j in positives:
        loss += -np.log(col_sm[i, j])
        col_grad[:, j] += col_sm[:, j] / n_pos
        col_grad[i, j] -= 1.0 / n_pos
    col_loss = loss / n_pos

    total = 0.5 * (row_loss + col_loss)
    total_grad = 0.5 * (grad + col_grad) / inp.temperature
    return float(total), total_grad


@dataclass
class TripletInput:
    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray
    margin: float = field(default=DEFAULT_TRIPLET_MARGIN, metadata={"bound": "finite and > 0"})

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.positive = np.asarray(self.positive, dtype=float)
        self.negative = np.asarray(self.negative, dtype=float)
        check_bounds(self)


def triplet_loss(inp: TripletInput) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Hinge on d(anchor, positive) - d(anchor, negative) + margin.

    Returns (loss, grad_anchor, grad_positive, grad_negative); gradients are
    zero in the inactive region (subgradient at the kink).
    """
    ap = inp.anchor - inp.positive
    an = inp.anchor - inp.negative
    d_ap = float(np.linalg.norm(ap))
    d_an = float(np.linalg.norm(an))
    value = d_ap - d_an + inp.margin
    zeros = np.zeros_like(inp.anchor)
    if value <= 0:
        return 0.0, zeros, zeros.copy(), zeros.copy()
    u_ap = ap / d_ap if d_ap > 0 else zeros
    u_an = an / d_an if d_an > 0 else zeros
    return float(value), u_ap - u_an, -u_ap, u_an


def hard_negative_mine(anchor: np.ndarray, positive_id: int,
                       pool: list[np.ndarray]) -> int:
    """Index of the non-positive pool entry closest to the anchor."""
    anchor = np.asarray(anchor, dtype=float)
    best_id, best_d = -1, np.inf
    for idx, emb in enumerate(pool):
        if idx == positive_id:
            continue
        d = float(np.linalg.norm(np.asarray(emb, dtype=float) - anchor))
        if d < best_d:
            best_id, best_d = idx, d
    if best_id < 0:
        raise InvalidInputError("hard_negative_mine: pool has no non-positive entry")
    return best_id


def toy_embedding_fit(sample, steps: int = 200, lr: float = 0.1,
                      dim: int = 16, seed: int = 0,
                      temperature: float = DEFAULT_INFO_NCE_TEMPERATURE) -> list[float]:
    """Gradient-descend free per-node embeddings on one alignment sample.

    Stands in for network training: shows the contrastive objective is
    minimizable on exact ground truth. Returns the per-step loss trajectory
    (length steps + 1, including the initial loss).
    """
    check_bound("steps", steps, ">= 0", where="toy_embedding_fit")
    check_bound("lr", lr, "finite and >= 0", where="toy_embedding_fit")
    check_bound("dim", dim, ">= 1", where="toy_embedding_fit")
    check_bound("seed", seed, ">= 0", where="toy_embedding_fit")
    gt_pairs = sorted(sample.gt.pairs)
    if not gt_pairs:
        raise InvalidInputError("toy_embedding_fit: sample has no positive pairs")
    ids_a = sample.graph_a.ids.tolist()
    ids_b = sample.graph_b.ids.tolist()
    index_a = {nid: k for k, nid in enumerate(ids_a)}
    index_b = {nid: k for k, nid in enumerate(ids_b)}
    # One-to-many B reuse is fine for InfoNCE only if columns stay unique;
    # keep the first pair per B column.
    positives: set[tuple[int, int]] = set()
    used_b: set[int] = set()
    used_a: set[int] = set()
    for a, b in gt_pairs:
        if index_b[b] in used_b or index_a[a] in used_a:
            continue
        positives.add((index_a[a], index_b[b]))
        used_a.add(index_a[a])
        used_b.add(index_b[b])

    rng = np.random.default_rng(seed)
    emb_a = rng.standard_normal((len(ids_a), dim))
    emb_b = rng.standard_normal((len(ids_b), dim))

    def evaluate():
        loss, grad = info_nce(InfoNceInput(emb_a @ emb_b.T, positives, temperature))
        return loss, grad @ emb_b, grad.T @ emb_a

    loss, g_a, g_b = evaluate()
    trajectory = [loss]
    for _ in range(steps):
        emb_a = emb_a - lr * g_a
        emb_b = emb_b - lr * g_b
        loss, g_a, g_b = evaluate()
        trajectory.append(loss)
    return trajectory
