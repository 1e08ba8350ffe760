import numpy as np
import pytest

from sgalign.allocator import MatchSet
from sgalign.errors import InvalidInputError
from sgalign.evaluation import (SampleMetrics, aggregate, bin_by_overlap,
                                sample_metrics)
from sgalign.scene_graph import GroundTruthMap


def match_set(pairs, n_a):
    matched = {i for i, _ in pairs}
    return MatchSet(pairs=[(i, j, 1.0) for i, j in pairs],
                    unmatched_a=[i for i in range(n_a) if i not in matched])


class TestSampleMetrics:
    def test_perfect_prediction(self):
        gt = GroundTruthMap({(0, 0), (1, 1), (2, 2)})
        m = sample_metrics(match_set([(0, 0), (1, 1), (2, 2)], 3), gt, 3)
        assert (m.accuracy, m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        gt = GroundTruthMap({(0, 0), (1, 1), (2, 2)})
        m = sample_metrics(match_set([], 5), gt, 5)
        assert m.accuracy == pytest.approx(2 / 5)
        assert m.recall == 0.0
        assert m.precision == 1.0
        assert m.f1 == 0.0

    def test_empty_gt_empty_pred(self):
        m = sample_metrics(match_set([], 4), GroundTruthMap(set()), 4)
        assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.accuracy == 1.0

    def test_empty_gt_nonempty_pred(self):
        m = sample_metrics(match_set([(0, 1)], 4), GroundTruthMap(set()), 4)
        assert (m.precision, m.recall, m.f1) == (0.0, 1.0, 0.0)

    def test_set_operation_oracle(self, rng):
        for _ in range(200):
            n_a = 6
            gt_pairs = {(int(i), int(rng.integers(0, 6)))
                        for i in rng.permutation(6)[:rng.integers(0, 7)]}
            pred_pairs = [(int(i), int(rng.integers(0, 6)))
                          for i in rng.permutation(6)[:rng.integers(0, 7)]]
            gt = GroundTruthMap(gt_pairs)
            m = sample_metrics(match_set(pred_pairs, n_a), gt, n_a)
            pred = set(pred_pairs)
            assert m.tp == len(pred & gt_pairs)
            assert m.fp == len(pred - gt_pairs)
            assert m.fn == len(gt_pairs - pred)
            gt_a = {a for a, _ in gt_pairs}
            pred_a = {a for a, _ in pred}
            assert m.tn_nomatch == len({i for i in range(n_a)
                                        if i not in pred_a and i not in gt_a})
            assert m.accuracy == pytest.approx((m.tp + m.tn_nomatch) / n_a)

    def test_many_to_one_counts_pairs(self):
        gt = GroundTruthMap({(0, 7), (1, 7)})
        m = sample_metrics(match_set([(0, 7)], 2), gt, 2)
        assert (m.tp, m.fn) == (1, 1)
        assert m.recall == pytest.approx(0.5)

    def test_zero_nodes_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_metrics(match_set([], 1), GroundTruthMap(set()), 0)

    def test_ranges(self, rng):
        for _ in range(100):
            n_a = int(rng.integers(1, 8))
            gt = GroundTruthMap({(int(i), int(rng.integers(0, 5)))
                                 for i in rng.permutation(n_a)[:rng.integers(0, n_a + 1)]})
            pred = [(int(i), int(rng.integers(0, 5)))
                    for i in rng.permutation(n_a)[:rng.integers(0, n_a + 1)]]
            m = sample_metrics(match_set(pred, n_a), gt, n_a)
            for v in (m.accuracy, m.precision, m.recall, m.f1):
                assert 0.0 <= v <= 1.0


def random_metrics(rng):
    p, r = rng.uniform(0, 1, 2)
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return SampleMetrics(accuracy=float(rng.uniform(0, 1)), precision=float(p),
                         recall=float(r), f1=float(f1), tp=0, fp=0, fn=0,
                         tn_nomatch=0)


class TestAggregate:
    def test_single(self, rng):
        m = random_metrics(rng)
        agg = aggregate([m])
        assert agg["f1"] == m.f1 and agg["accuracy"] == m.accuracy

    def test_two_halves(self, rng):
        a = random_metrics(rng)
        b = SampleMetrics(accuracy=a.accuracy, precision=a.precision,
                          recall=a.recall, f1=1.0, tp=0, fp=0, fn=0, tn_nomatch=0)
        a = SampleMetrics(accuracy=a.accuracy, precision=a.precision,
                          recall=a.recall, f1=0.0, tp=0, fp=0, fn=0, tn_nomatch=0)
        assert aggregate([a, b])["f1"] == pytest.approx(0.5)

    def test_summation_oracle(self, rng):
        ms = [random_metrics(rng) for _ in range(100)]
        agg = aggregate(ms)
        assert abs(agg["precision"] - sum(m.precision for m in ms) / 100) <= 1e-12

    def test_permutation_invariance(self, rng):
        ms = [random_metrics(rng) for _ in range(30)]
        shuffled = [ms[i] for i in rng.permutation(30)]
        assert aggregate(ms) == aggregate(shuffled)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            aggregate([])


class TestBinByOverlap:
    def test_single_bucket(self, rng):
        samples = [(0.95, random_metrics(rng)) for _ in range(5)]
        bins = bin_by_overlap(samples)
        assert [b["count"] for b in bins] == [0] * 9 + [5]

    def test_upper_edge_closed(self, rng):
        bins = bin_by_overlap([(1.0, random_metrics(rng))])
        assert bins[9]["count"] == 1

    def test_decimal_edges(self, rng):
        bins = bin_by_overlap([(0.3, random_metrics(rng))])
        assert bins[3]["count"] == 1

    def test_histogram_oracle(self, rng):
        overlaps = rng.uniform(0, 1, 300)
        samples = [(float(o), random_metrics(rng)) for o in overlaps]
        bins = bin_by_overlap(samples)
        expected, _ = np.histogram(overlaps, bins=10, range=(0, 1))
        assert [b["count"] for b in bins] == list(expected)

    def test_empty_bins_reported(self, rng):
        bins = bin_by_overlap([(0.55, random_metrics(rng))])
        assert len(bins) == 10
        assert bins[0]["count"] == 0 and bins[0]["mean"] is None
        assert bins[5]["mean"] is not None

    @pytest.mark.parametrize("width", [0, -0.5, np.nan, 1.5])
    def test_bad_bin_width_refused(self, rng, width):
        with pytest.raises(InvalidInputError, match="bin_by_overlap: bin_width must be "
                                                    r"in \(0, 1\]"):
            bin_by_overlap([(0.5, random_metrics(rng))], bin_width=width)
