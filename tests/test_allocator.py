import math
import re
from collections import Counter

import numpy as np
import pytest

from sgalign.allocator import (McfParams, MnnParams, _penalties,
                               brute_force_allocate,
                               candidate_set, geometry_penalty, mcf_allocate,
                               mnn_allocate, solve_mcf)
from sgalign.errors import InvalidInputError
from sgalign.scene_graph import point_distances


def mnn_oracle(P, min_score):
    """Double-loop exhaustive mutual-argmax."""
    n_a, n_b = P.shape
    pairs = []
    for i in range(n_a):
        best_j, best = 0, -np.inf
        for j in range(n_b):
            if P[i, j] > best:
                best_j, best = j, P[i, j]
        # mutual check
        best_i, best_c = 0, -np.inf
        for i2 in range(n_a):
            if P[i2, best_j] > best_c:
                best_i, best_c = i2, P[i2, best_j]
        if best_i == i and P[i, best_j] >= min_score:
            pairs.append((i, best_j))
    return pairs


class TestMnn:
    def test_identity_permutation(self):
        P = np.full((4, 4), 0.01)
        np.fill_diagonal(P, 0.9)
        ms = mnn_allocate(P, MnnParams(min_score=0.1))
        assert [(i, j) for i, j, _ in ms.pairs] == [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert ms.unmatched_a == []

    def test_contested_column(self):
        P = np.full((2, 6), 0.01)
        P[0, 5] = 0.9
        P[1, 5] = 0.8
        ms = mnn_allocate(P, MnnParams(min_score=0.1))
        assert [(i, j) for i, j, _ in ms.pairs] == [(0, 5)]
        assert ms.unmatched_a == [1]

    def test_against_oracle(self, rng):
        for _ in range(500):
            P = rng.uniform(0, 1, (8, 8))
            ms = mnn_allocate(P, MnnParams(min_score=0.1))
            assert [(i, j) for i, j, _ in ms.pairs] == mnn_oracle(P, 0.1)

    def test_one_to_one_always(self, rng):
        for _ in range(50):
            P = rng.uniform(0, 1, (rng.integers(1, 9), rng.integers(1, 9)))
            ms = mnn_allocate(P, MnnParams(min_score=0.0))
            a_side = [i for i, _, _ in ms.pairs]
            b_side = [j for _, j, _ in ms.pairs]
            assert len(a_side) == len(set(a_side))
            assert len(b_side) == len(set(b_side))
            assert sorted(a_side + ms.unmatched_a) == list(range(P.shape[0]))


class TestCandidateSet:
    def test_all_below_tau(self):
        P = np.array([[0.1, 0.2, 0.05]])
        assert candidate_set(P, 0.3, 5) == []

    def test_topk_then_tau(self):
        P = np.array([[0.9, 0.8, 0.2, 0.1]])
        assert candidate_set(P, 0.3, 2) == [(0, 0), (0, 1)]

    def test_sort_filter_oracle(self, rng):
        for _ in range(200):
            P = rng.uniform(0, 1, (1, 8))
            tau, k = float(rng.uniform(0, 1)), int(rng.integers(1, 9))
            ranked = sorted(range(8), key=lambda j: (-P[0, j], j))[:k]
            expected = sorted((0, j) for j in ranked if P[0, j] >= tau)
            assert candidate_set(P, tau, k) == expected

    def test_sort_filter_oracle_rows_with_ties(self, rng):
        for _ in range(200):
            P = np.round(rng.uniform(0, 1, (int(rng.integers(1, 7)), 8)), 1)
            tau, k = float(rng.choice([0.0, 0.3, 0.5])), int(rng.integers(1, 9))
            expected = []
            for i in range(P.shape[0]):
                ranked = sorted(range(8), key=lambda j: (-P[i, j], j))[:k]
                expected.extend((i, j) for j in ranked if P[i, j] >= tau and P[i, j] > 0)
            assert candidate_set(P, tau, k) == sorted(expected)

    def test_tie_at_kth_value(self):
        P = np.array([[0.5, 0.5, 0.5, 0.4]])
        assert candidate_set(P, 0.0, 2) == [(0, 0), (0, 1)]


@pytest.mark.parametrize("allocate", [
    mnn_allocate, lambda P: mcf_allocate(P, np.zeros((1, 3)), np.zeros((1, 3))),
    lambda P: candidate_set(P, 0.0, 1)], ids=["mnn", "mcf", "candidate_set"])
@pytest.mark.parametrize("P, message", [
    (np.array([[2.0]]), "P must be in [0, 1], got 2.0"),
    (np.array([[0.5, -0.1]]), "P must be in [0, 1], got -0.1"),
    (np.array([[0.5], [np.nan]]), "P must be in [0, 1], got nan"),
    (np.array([[np.inf]]), "P must be in [0, 1], got inf"),
    (np.zeros(3), "P must be 2-D, got shape (3,)"),
    (np.zeros((1, 1, 1)), "P must be 2-D, got shape (1, 1, 1)")])
def test_bad_p_refused(allocate, P, message):
    """Both allocators and candidate_set refuse a score matrix by one rule."""
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        allocate(P)


class TestGeometryPenalty:
    def test_empty_prev(self):
        pos = np.zeros((3, 3))
        assert geometry_penalty(0, 0, [], pos, pos) == 0.0

    def test_consistent_pair(self):
        pos_a = np.array([[0, 0, 0], [2, 0, 0]], dtype=float)
        pos_b = np.array([[5, 5, 0], [5, 3, 0]], dtype=float)
        assert geometry_penalty(0, 0, [(1, 1)], pos_a, pos_b) == pytest.approx(0.0)

    def test_max_over_set(self):
        pos_a = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
        pos_b = np.array([[0, 0, 0], [1.3, 0, 0], [2.7, 0, 0]], dtype=float)
        # |d_a(0,1) - d_b(0,1)| = 0.3 ; |d_a(0,2) - d_b(0,2)| = 0.7
        pen = geometry_penalty(0, 0, [(1, 1), (2, 2)], pos_a, pos_b)
        assert pen == pytest.approx(0.7)

    def test_gathered_distances_match_direct_differences(self):
        # mcf_allocate gathers from pairwise distance matrices built once;
        # each entry must be the same bits as the norm of its own difference
        rng = np.random.default_rng(8)
        for _ in range(300):
            n_a, n_b = rng.integers(1, 30, 2)
            pos_a = rng.uniform(-5, 5, (n_a, 3))
            pos_b = rng.uniform(-5, 5, (n_b, 3))
            m, k = rng.integers(1, 40), rng.integers(1, 20)
            ci, cj = rng.integers(0, n_a, m), rng.integers(0, n_b, m)
            ks, ls = rng.integers(0, n_a, k), rng.integers(0, n_b, k)
            d_a = np.linalg.norm(pos_a[ci][:, None, :] - pos_a[ks][None, :, :], axis=2)
            d_b = np.linalg.norm(pos_b[cj][:, None, :] - pos_b[ls][None, :, :], axis=2)
            want = np.abs(d_a - d_b).max(axis=1)
            got = _penalties(ci, cj, ks, ls, point_distances(pos_a[:, None], pos_a),
                             point_distances(pos_b[:, None], pos_b))
            assert got.tobytes() == want.tobytes()
            pairs = list(zip(ks.tolist(), ls.tolist()))
            assert geometry_penalty(int(ci[0]), int(cj[0]), pairs, pos_a, pos_b) == want[0]


def random_instance(rng, max_i=6, max_j=6, max_cands=5):
    n_a = int(rng.integers(1, max_i + 1))
    n_b = int(rng.integers(1, max_j + 1))
    cands, costs = [], {}
    for i in range(n_a):
        k = int(rng.integers(0, min(max_cands, n_b) + 1))
        for j in rng.permutation(n_b)[:k]:
            cands.append((i, int(j)))
            costs[(i, int(j))] = float(rng.uniform(0, 5))
    return n_a, n_b, sorted(cands), costs


class TestSolveMcf:
    def test_empty_candidates(self):
        res = solve_mcf([], {}, 2.0, None, 4, 3)
        assert res.matched == []
        assert res.unmatched_a == [0, 1, 2, 3]
        assert res.total_cost == pytest.approx(4 * 2.0)

    def test_single_candidate_two_option(self):
        res = solve_mcf([(0, 0)], {(0, 0): 0.5}, 2.0, None, 1, 1)
        assert res.matched == [(0, 0)]
        res = solve_mcf([(0, 0)], {(0, 0): 3.0}, 2.0, None, 1, 1)
        assert res.matched == []
        assert res.unmatched_a == [0]

    def test_against_enumeration_oracle(self, rng):
        for trial in range(300):
            n_a, n_b, cands, costs = random_instance(rng)
            cap = [1, 2, None][trial % 3]
            c_un = float(rng.uniform(0.5, 4.0))
            res = solve_mcf(cands, costs, c_un, cap, n_a, n_b)
            best_cost, _ = brute_force_allocate(cands, costs, c_un, cap, n_a, n_b)
            assert abs(res.total_cost - best_cost) <= 1e-9

    def test_constraints(self, rng):
        for trial in range(100):
            n_a, n_b, cands, costs = random_instance(rng)
            cap = [1, 2, None][trial % 3]
            res = solve_mcf(cands, costs, 2.0, cap, n_a, n_b)
            counts_a = Counter(i for i, _ in res.matched)
            assert all(v == 1 for v in counts_a.values())
            assert sorted(res.unmatched_a + list(counts_a)) == list(range(n_a))
            if cap is not None:
                assert all(v <= cap for v in
                           Counter(j for _, j in res.matched).values())

    def test_deterministic(self, rng):
        n_a, n_b, cands, costs = random_instance(rng)
        a = solve_mcf(cands, costs, 2.0, 2, n_a, n_b)
        b = solve_mcf(cands, costs, 2.0, 2, n_a, n_b)
        assert a.matched == b.matched and a.unmatched_a == b.unmatched_a


class TestUncappedBranch:
    def test_against_enumeration_oracle_pairs(self, rng):
        # continuous random costs are tie-free, so the optimum is unique
        for _ in range(500):
            n_a, n_b, cands, costs = random_instance(rng)
            c_un = float(rng.uniform(0.5, 4.0))
            res = solve_mcf(cands, costs, c_un, None, n_a, n_b)
            best_cost, best = brute_force_allocate(cands, costs, c_un, None, n_a, n_b)
            assert res.matched == sorted(best)
            assert res.total_cost == pytest.approx(best_cost, abs=1e-12)

    def test_tie_goes_to_lower_b_index(self):
        P = np.array([[0.9, 0.0], [0.5, 0.5]])
        pos = np.zeros((2, 3))
        ms = mcf_allocate(P, pos, pos, McfParams(lam=0.0, tau=0.0))
        assert ms.pair_set() == {(0, 0), (1, 0)}
        res = solve_mcf([(1, 0), (1, 1)], {(1, 0): 0.7, (1, 1): 0.7}, 2.0, None, 2, 2)
        assert res.matched == [(1, 0)]
        assert res.unmatched_a == [0]

    def test_tie_with_unmatched_cost_leaves_row_unmatched(self):
        res = solve_mcf([(0, 0), (1, 1)], {(0, 0): 2.0, (1, 1): 1.5}, 2.0, None, 2, 2)
        assert res.matched == [(1, 1)]
        assert res.unmatched_a == [0]
        P = np.array([[0.25]])
        ms = mcf_allocate(P, np.zeros((1, 3)), np.zeros((1, 3)),
                          McfParams(c_unmatched=float(-np.log(0.25)), tau=0.0))
        assert ms.pairs == [] and ms.unmatched_a == [0]


class TestCappedBranch:
    def test_total_cost_against_linear_sum_assignment(self, rng):
        optimize = pytest.importorskip("scipy.optimize")
        for trial in range(300):
            n_a, n_b, cands, costs = random_instance(rng)
            cap = 1 + trial % 3
            c_un = float(rng.uniform(0.5, 4.0))
            res = solve_mcf(cands, costs, c_un, cap, n_a, n_b)
            # B column j copied cap times, plus one private unmatched column
            # per row; forbidden cells get a cost no optimum would pay.
            big = 1e6
            cost = np.full((n_a, n_b * cap + n_a), big)
            for (i, j), c in costs.items():
                cost[i, j * cap:(j + 1) * cap] = c
            cost[np.arange(n_a), n_b * cap + np.arange(n_a)] = c_un
            rows, cols = optimize.linear_sum_assignment(cost)
            expected = cost[rows, cols].sum()
            assert abs(res.total_cost - expected) <= 1e-9

    def test_against_enumeration_oracle_pairs(self, rng):
        # continuous random costs are tie-free, so the optimum is unique
        for trial in range(500):
            n_a, n_b, cands, costs = random_instance(rng)
            cap = 1 + trial % 3
            c_un = float(rng.uniform(0.5, 4.0))
            res = solve_mcf(cands, costs, c_un, cap, n_a, n_b)
            best_cost, best = brute_force_allocate(cands, costs, c_un, cap, n_a, n_b)
            assert res.matched == sorted(best)
            assert abs(res.total_cost - best_cost) <= 1e-9

    def test_non_binding_cap_equals_uncapped_with_ties(self, rng):
        # costs on a coarse grid that includes c_unmatched force exact ties,
        # so both tie rules (unmatched first, then the lower B index) are hit
        for trial in range(500):
            n_a, n_b, cands, _ = random_instance(rng, max_i=8, max_j=8, max_cands=8)
            costs = {ij: float(rng.choice([0.5, 1.0, 1.5, 2.0])) for ij in cands}
            cap = n_a + trial % 3
            capped = solve_mcf(cands, costs, 2.0, cap, n_a, n_b)
            uncapped = solve_mcf(cands, costs, 2.0, None, n_a, n_b)
            assert capped == uncapped


class TestMcfAllocate:
    def test_lambda_zero_rowwise_closed_form(self, rng):
        # with no geometric coupling each row independently matches its
        # cheapest candidate iff -log P < c_unmatched
        params = McfParams(lam=0.0, cap_max=None)
        for _ in range(50):
            P = rng.uniform(0.01, 1.0, (5, 6))
            pos = rng.uniform(0, 5, (6, 3))
            ms = mcf_allocate(P, pos[:5], pos, params)
            got = {(i, j) for i, j, _ in ms.pairs}
            expected = set()
            for i in range(5):
                cands = [(j, -math.log(P[i, j]))
                         for (r, j) in candidate_set(P, params.tau, params.top_k)
                         if r == i]
                if cands:
                    j, cost = min(cands, key=lambda t: (t[1], t[0]))
                    if cost < params.c_unmatched:
                        expected.add((i, j))
            assert got == expected

    def test_self_alignment_converges_second_iteration(self):
        P = np.full((5, 5), 0.02)
        np.fill_diagonal(P, 0.95)
        pos = np.random.default_rng(0).uniform(0, 4, (5, 3))
        ms = mcf_allocate(P, pos, pos, McfParams())
        assert {(i, j) for i, j, _ in ms.pairs} == {(i, i) for i in range(5)}
        assert ms.iterations == 2
        assert ms.converged

    def test_many_to_one_capacity(self):
        # two A nodes (halves of one object) both drawn to B node 0
        P = np.array([[0.9, 0.05], [0.85, 0.05]])
        pos_a = np.array([[0.0, 0, 0], [0.4, 0, 0]])
        pos_b = np.array([[0.2, 0, 0], [3.0, 0, 0]])
        unlimited = mcf_allocate(P, pos_a, pos_b, McfParams(cap_max=None))
        assert {(i, j) for i, j, _ in unlimited.pairs} == {(0, 0), (1, 0)}
        capped = mcf_allocate(P, pos_a, pos_b, McfParams(cap_max=1))
        assert len(capped.pairs) == 1
        assert capped.pairs[0][1] == 0

    def test_lambda_zero_position_invariance(self, rng):
        P = rng.uniform(0.01, 1.0, (4, 4))
        params = McfParams(lam=0.0)
        a = mcf_allocate(P, rng.uniform(0, 5, (4, 3)), rng.uniform(0, 5, (4, 3)), params)
        b = mcf_allocate(P, rng.uniform(0, 5, (4, 3)), rng.uniform(0, 5, (4, 3)), params)
        assert a.pair_set() == b.pair_set()

    def test_mnn_candidate_coupling(self, rng):
        # every MNN pair above max(tau, min_score) and within top-K must be
        # an MCF candidate edge
        params = McfParams()
        for _ in range(50):
            P = rng.uniform(0, 1, (6, 6))
            mnn = mnn_allocate(P, MnnParams(min_score=0.1))
            cands = set(candidate_set(P, params.tau, params.top_k))
            for i, j, s in mnn.pairs:
                if s >= max(params.tau, 0.1):
                    ranked = sorted(range(6), key=lambda c: (-P[i, c], c))
                    if j in ranked[:params.top_k]:
                        assert (i, j) in cands

    def test_match_set_json_shape(self):
        P = np.array([[0.9]])
        ms = mcf_allocate(P, np.zeros((1, 3)), np.zeros((1, 3)), McfParams())
        doc = ms.to_dict()
        assert set(doc) == {"pairs", "unmatched_a", "iterations", "converged"}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.1, 1.5])
    def test_invalid_p_rejected(self, bad):
        P = np.array([[0.9, 0.2], [0.3, bad]])
        with pytest.raises(InvalidInputError):
            mcf_allocate(P, np.zeros((2, 3)), np.zeros((2, 3)), McfParams())

    def test_p_must_be_2d(self):
        with pytest.raises(InvalidInputError):
            mcf_allocate(np.array([0.5, 0.5]), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_zero_entry_never_a_candidate(self):
        P = np.array([[0.0, 0.0], [0.0, 0.6]])
        pos = np.zeros((2, 3))
        for cap in (None, 1):
            ms = mcf_allocate(P, pos, pos, McfParams(tau=0.0, cap_max=cap))
            assert ms.pair_set() == {(1, 1)}
            assert ms.unmatched_a == [0]
        assert candidate_set(P, 0.0, 2) == [(1, 1)]

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            McfParams(tau=1.5)
        with pytest.raises(InvalidInputError):
            McfParams(max_iters=0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InvalidInputError):
                McfParams(c_unmatched=bad)
            with pytest.raises(InvalidInputError):
                McfParams(lam=bad)
            for cap in (1, None):
                with pytest.raises(InvalidInputError, match="c_unmatched"):
                    solve_mcf([(0, 0)], {(0, 0): 1.0}, bad, cap, 1, 1)
        with pytest.raises(InvalidInputError):
            MnnParams(min_score=-0.1)
