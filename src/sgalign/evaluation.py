"""Per-sample matching metrics and test-set aggregation."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from .allocator import MatchSet
from .errors import InvalidInputError, check_bound
from .scene_graph import GroundTruthMap, SceneGraph

# The width of the overlap bins of `bin_by_overlap`, which divides [0, 1].
OVERLAP_BIN_WIDTH = 0.1


@dataclass(frozen=True)
class SampleMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn_nomatch: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AlignmentSample:
    """One evaluation unit: two graphs plus exact correspondence truth."""

    graph_a: SceneGraph
    graph_b: SceneGraph
    gt: GroundTruthMap
    overlap_ratio: float = 1.0
    task: str = "f2s"  # one of synth.TASKS
    seed: int = 0
    # Rigid map from graph_a positions into graph_b's frame, when known.
    gt_rotation: Optional[np.ndarray] = None
    gt_translation: Optional[np.ndarray] = None


def matches_by_id(pred: MatchSet, graph_a: SceneGraph, graph_b: SceneGraph) -> MatchSet:
    """`pred`, whose entries are rows of graph_a and graph_b, with each row
    replaced by its node id: the terms of a GroundTruthMap."""
    ids_a, ids_b = graph_a.ids.tolist(), graph_b.ids.tolist()
    return replace(pred, pairs=[(ids_a[i], ids_b[j], s) for i, j, s in pred.pairs],
                   unmatched_a=[ids_a[i] for i in pred.unmatched_a])


def sample_metrics(pred: MatchSet, gt: GroundTruthMap, n_a: int) -> SampleMetrics:
    """Pair-level counts over A-side decisions, including correct no-matches.
    `pred` names nodes by id, as `gt` does (see `matches_by_id`)."""
    check_bound("n_a", n_a, ">= 1", where="sample_metrics")
    pred_pairs = pred.pair_set()
    gt_pairs = set(gt.pairs)
    tp = len(pred_pairs & gt_pairs)
    fp = len(pred_pairs - gt_pairs)
    fn = len(gt_pairs - pred_pairs)
    gt_a = gt.a_ids()
    tn = sum(1 for i in pred.unmatched_a if i not in gt_a)

    if not gt_pairs and not pred_pairs:
        precision = recall = f1 = 1.0
    elif not gt_pairs:
        precision, recall, f1 = 0.0, 1.0, 0.0
    elif not pred_pairs:
        precision, recall, f1 = 1.0, 0.0, 0.0
    else:
        precision = tp / (tp + fp)
        recall = tp / (tp + fn)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    accuracy = (tp + tn) / n_a
    return SampleMetrics(accuracy=accuracy, precision=precision, recall=recall,
                         f1=f1, tp=tp, fp=fp, fn=fn, tn_nomatch=tn)


def aggregate(samples: list[SampleMetrics]) -> dict[str, float]:
    """Unweighted arithmetic mean of each metric.

    Uses exact summation so the result is bit-identical under any sample
    ordering (parallel evaluation must not change reports).
    """
    if not samples:
        raise InvalidInputError("aggregate: empty sample list")
    return {name: math.fsum(getattr(s, name) for s in samples) / len(samples)
            for name in ("accuracy", "precision", "recall", "f1")}


def bin_by_overlap(samples: list[tuple[float, SampleMetrics]]) -> list[dict]:
    """Group (overlap_ratio, metrics) into [b*w, (b+1)*w) bins of width
    w = OVERLAP_BIN_WIDTH; last bin closed."""
    n_bins = round(1.0 / OVERLAP_BIN_WIDTH)
    buckets: list[list[SampleMetrics]] = [[] for _ in range(n_bins)]
    for overlap, metrics in samples:
        check_bound("overlap", overlap, "in [0, 1]", where="bin_by_overlap")
        # Nudge guards decimal edges: 0.3 must land in [0.3, 0.4) despite
        # 0.3 * 10 rounding down to 2.9999999999999996.
        idx = min(int(overlap * n_bins + 1e-9), n_bins - 1)
        buckets[idx].append(metrics)
    return [{"lo": b * OVERLAP_BIN_WIDTH, "hi": (b + 1) * OVERLAP_BIN_WIDTH,
             "count": len(bucket), "mean": aggregate(bucket) if bucket else None}
            for b, bucket in enumerate(buckets)]
