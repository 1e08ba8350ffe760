import math

import numpy as np

from sgalign.matcher import (MatcherParams, P_FLOOR, cosine_scores,
                             score_matrix)


def unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestCosineScores:
    def test_self_similarity_diagonal(self, rng):
        emb = unit_rows(rng.standard_normal((6, 16)))
        S = cosine_scores(emb, emb)
        assert np.all(np.abs(np.diag(S) - 1.0) <= 1e-9)

    def test_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert abs(cosine_scores(a, b)[0, 0]) <= 1e-12

    def test_loop_oracle(self, rng):
        a = unit_rows(rng.standard_normal((8, 12)))
        b = unit_rows(rng.standard_normal((5, 12)))
        S = cosine_scores(a, b)
        for i in range(8):
            for j in range(5):
                dot = sum(a[i][k] * b[j][k] for k in range(12))
                assert abs(S[i, j] - dot) <= 1e-12

    def test_transpose_symmetry(self, rng):
        a = unit_rows(rng.standard_normal((4, 8)))
        b = unit_rows(rng.standard_normal((3, 8)))
        assert np.allclose(cosine_scores(a, b), cosine_scores(b, a).T, atol=1e-15)


def dual_softmax_oracle(S, params):
    """Explicit two-pass softmax with dustbin row/column."""
    n_a, n_b = S.shape
    T = params.temperature
    r = np.zeros((n_a, n_b + 1))
    for i in range(n_a):
        row = list(S[i] / T) + [params.dustbin_logit / T]
        mx = max(row)
        ex = [math.exp(v - mx) for v in row]
        r[i] = np.array(ex) / sum(ex)
    c = np.zeros((n_a + 1, n_b))
    for j in range(n_b):
        col = list(S[:, j] / T) + [params.dustbin_logit / T]
        mx = max(col)
        ex = [math.exp(v - mx) for v in col]
        c[:, j] = np.array(ex) / sum(ex)
    return r, c


class TestScoreMatrixDualSoftmax:
    def test_singleton_softmax_limit(self):
        sm = score_matrix(np.array([[1.0]]),
                          MatcherParams(dustbin_logit=-1e3, temperature=0.1))
        assert abs(sm.P[0, 0] - 1.0) <= 1e-6

    def test_two_pass_oracle(self, rng):
        S = rng.uniform(-1, 1, (4, 3))
        params = MatcherParams(dustbin_logit=0.3, temperature=0.2)
        sm = score_matrix(S, params)
        r, c = dual_softmax_oracle(S, params)
        expected = np.maximum(r[:, :3] * c[:4, :], P_FLOOR)
        assert np.allclose(sm.P, expected, atol=1e-12)
        assert np.allclose(sm.dustbin_col, r[:, 3], atol=1e-12)
        assert np.allclose(sm.dustbin_row, c[4, :], atol=1e-12)
        # P <= min(r, c) entrywise
        assert np.all(sm.P <= np.minimum(r[:, :3], c[:4, :]) + 1e-15)

    def test_row_mass_sums_to_one(self, rng):
        S = rng.uniform(-1, 1, (6, 5))
        params = MatcherParams()
        r, _ = dual_softmax_oracle(S, params)
        assert np.all(np.abs(r.sum(axis=1) - 1.0) <= 1e-12)

    def test_dustbin_logit_increase_decreases_P(self, rng):
        S = rng.uniform(-1, 1, (5, 4))
        lo = score_matrix(S, MatcherParams(dustbin_logit=0.0)).P
        hi = score_matrix(S, MatcherParams(dustbin_logit=0.5)).P
        assert np.all(hi <= lo + 1e-15)

    def test_permutation_equivariance(self, rng):
        S = rng.uniform(-1, 1, (5, 4))
        perm = rng.permutation(5)
        P = score_matrix(S, MatcherParams()).P
        P2 = score_matrix(S[perm], MatcherParams()).P
        assert np.allclose(P[perm], P2, atol=1e-15)

    def test_floor_everywhere(self, rng):
        S = rng.uniform(-1, 1, (7, 7))
        P = score_matrix(S, MatcherParams(temperature=0.01)).P
        assert np.all(P >= P_FLOOR)
        assert np.all(np.isfinite(-np.log(P)))

    def test_empty_sides(self):
        """With an empty side each softmax holds the dustbin alone, so every
        dustbin mass is exactly 1.0 whatever the dustbin logit."""
        for shape in ((0, 3), (4, 0), (0, 0)):
            for params in (MatcherParams(), MatcherParams(dustbin_logit=0.7,
                                                          temperature=0.3)):
                sm = score_matrix(np.zeros(shape), params)
                assert sm.P.shape == shape and sm.P.dtype == np.float64
                assert sm.dustbin_row.tolist() == [1.0] * shape[1]
                assert sm.dustbin_col.tolist() == [1.0] * shape[0]
