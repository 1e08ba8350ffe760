import numpy as np
import pytest

from sgalign.errors import InvalidInputError
from sgalign.losses import (InfoNceInput, TripletInput, hard_negative_mine,
                            info_nce, toy_embedding_fit, triplet_loss)
from sgalign.synth import SynthConfig, make_sample


def finite_difference(fn, x, h=1e-5):
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        grad[idx] = (fn(xp) - fn(xm)) / (2 * h)
        it.iternext()
    return grad


class TestInfoNce:
    def test_singleton_is_zero(self):
        loss, grad = info_nce(InfoNceInput(np.array([[3.0]]), {(0, 0)}))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_saturating_diagonal(self):
        losses = []
        for alpha in (0.5, 2.0, 8.0):
            S = alpha * (2 * np.eye(4) - 1)
            loss, _ = info_nce(InfoNceInput(S, {(i, i) for i in range(4)}, 0.5))
            losses.append(loss)
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-9

    def test_gradient_against_finite_differences(self, rng):
        for _ in range(100):
            S = rng.uniform(-1, 1, (5, 5))
            positives = {(i, i) for i in range(5)}
            inp = InfoNceInput(S, positives, 0.3)
            loss, grad = info_nce(inp)
            fd = finite_difference(
                lambda s: info_nce(InfoNceInput(s, positives, 0.3))[0], S)
            denom = max(np.abs(fd).max(), 1e-8)
            assert np.abs(grad - fd).max() / denom < 1e-6

    def test_rectangular_partial_positives(self, rng):
        S = rng.uniform(-1, 1, (3, 6))
        positives = {(0, 2), (2, 5)}
        loss, grad = info_nce(InfoNceInput(S, positives, 0.2))
        fd = finite_difference(
            lambda s: info_nce(InfoNceInput(s, positives, 0.2))[0], S)
        assert np.abs(grad - fd).max() / np.abs(fd).max() < 1e-6

    def test_row_grad_mass_conservation(self, rng):
        # single-row matrices isolate the row cross-entropy; its gradient
        # rows must sum to zero (softmax minus indicator)
        for _ in range(20):
            S = rng.uniform(-1, 1, (1, 6))
            _, grad = info_nce(InfoNceInput(S, {(0, 3)}, 0.1))
            assert abs(grad[0].sum()) <= 1e-10

    def test_total_mass_conservation(self, rng):
        S = rng.uniform(-1, 1, (4, 4))
        _, grad = info_nce(InfoNceInput(S, {(i, i) for i in range(4)}, 0.1))
        assert abs(grad.sum()) <= 1e-10

    def test_no_positives_rejected(self):
        with pytest.raises(InvalidInputError):
            info_nce(InfoNceInput(np.zeros((2, 2)), set()))

    @pytest.mark.parametrize("temperature", [0.0, -0.1, np.nan, np.inf])
    def test_bad_temperature_rejected(self, temperature):
        with pytest.raises(InvalidInputError, match="temperature must be finite and > 0"):
            InfoNceInput(np.zeros((2, 2)), {(0, 0)}, temperature)

    def test_one_positive_per_row_and_column(self):
        with pytest.raises(InvalidInputError):
            InfoNceInput(np.zeros((2, 2)), {(0, 0), (0, 1)})
        with pytest.raises(InvalidInputError):
            InfoNceInput(np.zeros((2, 2)), {(0, 0), (1, 0)})

    def test_loss_nonnegative(self, rng):
        for _ in range(50):
            S = rng.uniform(-2, 2, (4, 5))
            loss, _ = info_nce(InfoNceInput(S, {(0, 1), (2, 3)}, 0.5))
            assert loss >= 0.0


class TestTripletLoss:
    def test_inactive_hinge(self):
        anchor = np.zeros(4)
        negative = np.full(4, 5.0)
        loss, ga, gp, gn = triplet_loss(TripletInput(anchor, anchor, negative, 0.5))
        assert loss == 0.0
        assert np.all(ga == 0) and np.all(gp == 0) and np.all(gn == 0)

    def test_direct_substitution(self):
        # d_ap = 1, d_an = 0.2, m = 0.5 -> 1.3
        anchor = np.zeros(3)
        positive = np.array([1.0, 0, 0])
        negative = np.array([0.2, 0, 0])
        loss, *_ = triplet_loss(TripletInput(anchor, positive, negative, 0.5))
        assert loss == pytest.approx(1.3, abs=1e-12)

    @pytest.mark.parametrize("margin", [0.0, -0.5, np.nan, np.inf])
    def test_bad_margin_rejected(self, margin):
        with pytest.raises(InvalidInputError, match="margin must be finite and > 0"):
            TripletInput(np.zeros(3), np.ones(3), np.ones(3), margin)

    def test_gradients_against_finite_differences(self, rng):
        checked = 0
        while checked < 100:
            a, p, n = (rng.uniform(-1, 1, 6) for _ in range(3))
            d_ap = np.linalg.norm(a - p)
            d_an = np.linalg.norm(a - n)
            if abs(d_ap - d_an + 0.5) <= 1e-3:  # kink exclusion
                continue
            checked += 1
            loss, ga, gp, gn = triplet_loss(TripletInput(a, p, n, 0.5))
            for vec, grad, which in ((a, ga, 0), (p, gp, 1), (n, gn, 2)):
                def f(x, which=which, a=a, p=p, n=n):
                    args = [a, p, n]
                    args[which] = x
                    return triplet_loss(TripletInput(*args, 0.5))[0]
                fd = finite_difference(f, vec)
                denom = max(np.abs(fd).max(), 1e-8)
                assert np.abs(grad - fd).max() / denom < 1e-6

    def test_lipschitz_bound(self, rng):
        # perturbing any input by delta changes the loss by at most
        # 2 * |delta| (each distance is 1-Lipschitz in each argument)
        for _ in range(50):
            a, p, n = (rng.uniform(-1, 1, 5) for _ in range(3))
            base, *_ = triplet_loss(TripletInput(a, p, n, 0.5))
            delta = rng.uniform(-0.01, 0.01, 5)
            moved, *_ = triplet_loss(TripletInput(a + delta, p, n, 0.5))
            assert abs(moved - base) <= 2 * np.linalg.norm(delta) + 1e-12


class TestHardNegativeMine:
    def test_pool_of_two(self):
        anchor = np.zeros(3)
        pool = [np.ones(3), np.full(3, 2.0)]
        assert hard_negative_mine(anchor, 0, pool) == 1

    def test_duplicate_anchor_wins(self):
        anchor = np.array([1.0, 2.0, 3.0])
        pool = [anchor + 1.0, anchor.copy(), anchor + 2.0]
        assert hard_negative_mine(anchor, 0, pool) == 1

    def test_exhaustive_oracle(self, rng):
        for _ in range(30):
            anchor = rng.standard_normal(8)
            pool = [rng.standard_normal(8) for _ in range(16)]
            pos = int(rng.integers(0, 16))
            got = hard_negative_mine(anchor, pos, pool)
            dists = [(np.linalg.norm(v - anchor), k) for k, v in enumerate(pool)
                     if k != pos]
            assert got == min(dists)[1]

    def test_exhausted_pool(self):
        with pytest.raises(InvalidInputError):
            hard_negative_mine(np.zeros(2), 0, [np.ones(2)])


@pytest.fixture(scope="module")
def sample():
    return make_sample("f2s", SynthConfig(seed=2, n_objects=(6, 6),
                                          undersegment_prob=0.0))


class TestToyEmbeddingFit:

    def test_zero_lr_constant(self, sample):
        traj = toy_embedding_fit(sample, steps=10, lr=0.0)
        assert all(v == traj[0] for v in traj)

    @pytest.mark.parametrize("field, value", [("steps", 2.5), ("steps", -1),
                                              ("lr", np.nan), ("lr", -0.1), ("dim", 0),
                                              ("dim", 2.5), ("seed", -1)])
    def test_bad_argument_rejected(self, sample, field, value):
        with pytest.raises(InvalidInputError, match=f"toy_embedding_fit: {field} must be"):
            toy_embedding_fit(sample, **{field: value})

    def test_loss_decreases(self, sample):
        traj = toy_embedding_fit(sample, steps=200, lr=0.1)
        assert traj[-1] < traj[0]
        # monotone trend over windows of 10
        windows = [np.mean(traj[k:k + 10]) for k in range(0, 200, 10)]
        assert all(b <= a + 1e-9 for a, b in zip(windows, windows[1:]))

    def test_deterministic(self, sample):
        t1 = toy_embedding_fit(sample, steps=50, lr=0.1, seed=4)
        t2 = toy_embedding_fit(sample, steps=50, lr=0.1, seed=4)
        assert t1 == t2
