import math

import numpy as np
import pytest

from sgalign.errors import DegenerateGeometryError, InvalidInputError
from sgalign.registration import (COLLINEAR_EPS, RigidTransform, _minimal_samples,
                                  estimate_rigid, registration_error, success_flags)


def random_rotation(rng):
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])


class TestEstimateRigid:
    def test_exact_recovery(self, rng):
        rot = random_rotation(rng)
        t = rng.uniform(-3, 3, 3)
        a = rng.uniform(0, 5, (10, 3))
        pairs = [(p, rot @ p + t) for p in a]
        est, inliers = estimate_rigid(pairs, seed=0)
        err = registration_error(est, RigidTransform(rot, t))
        assert err.rre < 1e-7
        assert err.rte < 1e-9
        assert len(inliers) == 10

    def test_identity(self, rng):
        a = rng.uniform(0, 5, (6, 3))
        est, _ = estimate_rigid([(p, p) for p in a], seed=0)
        assert np.allclose(est.R, np.eye(3), atol=1e-12)
        assert np.allclose(est.t, 0.0, atol=1e-12)

    def test_outlier_rejection(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            rot = random_rotation(rng)
            t = rng.uniform(-3, 3, 3)
            inlier_pts = rng.uniform(0, 5, (20, 3))
            pairs = [(p, rot @ p + t + rng.normal(0, 0.01, 3)) for p in inlier_pts]
            outliers = [(rng.uniform(0, 5, 3), rng.uniform(0, 5, 3))
                        for _ in range(5)]
            est, inliers = estimate_rigid(pairs + outliers, seed=seed)
            assert all(idx < 20 for idx in inliers)
            err = registration_error(est, RigidTransform(rot, t))
            assert err.rte < 0.05

    def test_equivariance_under_pre_rotation(self, rng):
        rot = random_rotation(rng)
        t = rng.uniform(-2, 2, 3)
        a = rng.uniform(0, 4, (8, 3))
        q = random_rotation(rng)
        est, _ = estimate_rigid([(p, rot @ p + t) for p in a], seed=1)
        est2, _ = estimate_rigid([(q @ p, rot @ p + t) for p in a], seed=1)
        assert np.abs(est2.R - est.R @ q.T).max() <= 1e-6

    def test_output_invariants(self, rng):
        a = rng.uniform(0, 5, (12, 3))
        rot = random_rotation(rng)
        pairs = [(p, rot @ p + rng.normal(0, 0.05, 3)) for p in a]
        est, _ = estimate_rigid(pairs, seed=2)
        assert np.allclose(est.R.T @ est.R, np.eye(3), atol=1e-9)
        assert np.linalg.det(est.R) == pytest.approx(1.0, abs=1e-9)

    def test_numpy_int_iters_accepted(self, rng):
        a = rng.uniform(0, 5, (6, 3))
        pairs = [(p, p) for p in a]
        assert_same_fit(estimate_rigid(pairs, iters=np.int64(7)),
                        estimate_rigid(pairs, iters=7))

def _kabsch_oracle(a, b):
    ca = a.mean(axis=0)
    cb = b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    rot = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return rot, cb - rot @ ca


def _collinear_oracle(points):
    centered = points - points.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    return s[1] <= COLLINEAR_EPS * max(1.0, s[0])


def estimate_rigid_oracle(pairs, iters=256, inlier_eps=0.2, seed=0):
    """One hypothesis at a time: draw, fit, score, keep the first strict best."""
    a = np.asarray([p[0] for p in pairs], dtype=float)
    b = np.asarray([p[1] for p in pairs], dtype=float)
    n = len(pairs)
    rng = np.random.default_rng(seed)
    best_inliers = None
    for _ in range(iters):
        idx = rng.choice(n, size=3, replace=False)
        if _collinear_oracle(a[idx]):
            continue
        rot, t = _kabsch_oracle(a[idx], b[idx])
        residuals = np.linalg.norm(a @ rot.T + t - b, axis=1)
        inliers = np.where(residuals <= inlier_eps)[0]
        if best_inliers is None or len(inliers) > len(best_inliers):
            best_inliers = inliers
    if best_inliers is None or len(best_inliers) < 3 or _collinear_oracle(a[best_inliers]):
        best_inliers = np.arange(n)
    rot, t = _kabsch_oracle(a[best_inliers], b[best_inliers])
    return RigidTransform(R=rot, t=t), [int(i) for i in best_inliers]


def oracle_instance(rng):
    """Random pairs: exact or noisy, 0-50% outliers, some degenerate layouts."""
    n = int(rng.integers(3, 61))
    a = rng.uniform(-5, 5, (n, 3))
    layout = int(rng.integers(4))
    if layout == 1:  # duplicate points
        a[rng.integers(0, n, int(rng.integers(1, n)))] = a[0]
    elif layout == 2:  # a collinear subset (the whole set when k == n)
        k = int(rng.integers(3, n + 1))
        a[rng.choice(n, k, replace=False)] = \
            np.outer(rng.uniform(-3, 3, k), rng.standard_normal(3)) + 1.0
    elif layout == 3:  # integer grid: exact ties in residuals
        a = np.round(a)
    b = a @ random_rotation(rng).T + rng.uniform(-3, 3, 3)
    if rng.random() < 0.5:
        b += rng.normal(0, 0.05, b.shape)
    outliers = rng.choice(n, int(rng.integers(0, n // 2 + 1)), replace=False)
    b[outliers] = rng.uniform(-5, 5, (len(outliers), 3))
    return list(zip(a, b))


def assert_same_fit(got, want):
    assert got[0].R.tobytes() == want[0].R.tobytes()
    assert got[0].t.tobytes() == want[0].t.tobytes()
    assert got[1] == want[1]


def draws(n, iters, seed):
    """The index triples estimate_rigid draws, in order."""
    rng = np.random.default_rng(seed)
    return [rng.choice(n, size=3, replace=False).tolist() for _ in range(iters)]


class TestMinimalSamples:
    """One draw for all samples gives the triples of one rng.choice call per
    sample, and leaves the generator in the same state."""

    @pytest.mark.parametrize("iters", [1, 7, 256])
    def test_equal_choice_calls(self, iters):
        # n = 3 draws from [0, 0] first, which consumes nothing; 2**31 + 5
        # needs whole 32-bit draws and 2**32 + 7 64-bit ones
        for n in [*range(3, 300), 2 ** 31 + 5, 2 ** 32 + 7]:
            for seed in (0, n):
                loop, vectorised = np.random.default_rng(seed), np.random.default_rng(seed)
                want = np.array([loop.choice(n, size=3, replace=False) for _ in range(iters)])
                got = _minimal_samples(vectorised, n, iters)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (n, seed)
                assert vectorised.bit_generator.state == loop.bit_generator.state, (n, seed)


class TestEstimateRigidOracle:
    def test_random_instances_bit_identical(self):
        rng = np.random.default_rng(2024)
        compared = degenerate = 0
        while compared < 1000:
            pairs = oracle_instance(rng)
            iters = int(rng.choice([1, 7, 256], p=[0.45, 0.45, 0.1]))
            seed = int(rng.integers(1 << 31))
            if _collinear_oracle(np.asarray([p[0] for p in pairs])):
                with pytest.raises(DegenerateGeometryError):
                    estimate_rigid(pairs, iters=iters, seed=seed)
                degenerate += 1
                continue
            want = estimate_rigid_oracle(pairs, iters=iters, seed=seed)
            assert_same_fit(estimate_rigid(pairs, iters=iters, seed=seed), want)
            compared += 1
        assert degenerate > 0

    def test_full_fit_when_every_draw_is_collinear(self):
        # 29 points on a line and one off it: a seed whose draws all miss the
        # off point leaves no hypothesis to score
        n, iters = 30, 4
        a = np.zeros((n, 3))
        a[:-1, 0] = np.arange(n - 1)
        a[-1] = (0.0, 2.0, 0.0)
        b = a + np.random.default_rng(3).normal(0, 0.5, a.shape)
        pairs = list(zip(a, b))
        seed = next(s for s in range(1000)
                    if all(n - 1 not in d for d in draws(n, iters, s)))
        got = estimate_rigid(pairs, iters=iters, seed=seed)
        assert got[1] == list(range(n))
        assert_same_fit(got, estimate_rigid_oracle(pairs, iters=iters, seed=seed))

    def test_first_of_tied_hypotheses_wins(self):
        # two far-apart groups of five, each moved by its own rigid motion:
        # a triple from either group scores exactly five inliers
        rng = np.random.default_rng(11)
        a = np.vstack([rng.uniform(0, 4, (5, 3)), rng.uniform(20, 24, (5, 3))])
        b = a.copy()
        b[:5] = a[:5] @ random_rotation(rng).T + (1.0, 2.0, 3.0)
        b[5:] = a[5:] @ random_rotation(rng).T + (-4.0, 0.0, 9.0)
        pairs = list(zip(a, b))
        groups = (set(range(5)), set(range(5, 10)))
        winners = set()
        for seed in range(20):
            first = next(g for d in draws(10, 64, seed) for g in groups if set(d) <= g)
            got = estimate_rigid(pairs, iters=64, seed=seed)
            assert set(got[1]) == first
            assert_same_fit(got, estimate_rigid_oracle(pairs, iters=64, seed=seed))
            winners.add(min(first))
        assert winners == {0, 5}


def relative_transform_oracle(est, gt):
    """4x4 homogeneous matrix composition oracle."""
    def mat(tf):
        m = np.eye(4)
        m[:3, :3] = tf.R
        m[:3, 3] = tf.t
        return m
    rel = np.linalg.inv(mat(gt)) @ mat(est)
    angle = math.degrees(math.acos(np.clip((np.trace(rel[:3, :3]) - 1) / 2, -1, 1)))
    return float(np.linalg.norm(rel[:3, 3])), angle


class TestRegistrationError:
    def test_identity_case(self, rng):
        rot = random_rotation(rng)
        t = rng.uniform(-3, 3, 3)
        tf = RigidTransform(rot, t)
        err = registration_error(tf, tf)
        assert err.rte == pytest.approx(0.0, abs=1e-12)
        assert err.rre == pytest.approx(0.0, abs=1e-5)

    def test_ten_degree_yaw(self, rng):
        gt_rot = random_rotation(rng)
        t = rng.uniform(-3, 3, 3)
        theta = math.radians(10.0)
        yaw = np.array([[math.cos(theta), -math.sin(theta), 0],
                        [math.sin(theta), math.cos(theta), 0], [0, 0, 1.0]])
        est = RigidTransform(gt_rot @ yaw, t)
        gt = RigidTransform(gt_rot, t)
        err = registration_error(est, gt)
        assert err.rre == pytest.approx(10.0, abs=1e-9)
        rte_oracle, rre_oracle = relative_transform_oracle(est, gt)
        assert err.rte == pytest.approx(rte_oracle, abs=1e-12)
        assert err.rre == pytest.approx(rre_oracle, abs=1e-9)

    def test_180_degree_clamp(self):
        flip = np.diag([1.0, -1.0, -1.0])
        err = registration_error(RigidTransform(flip, np.zeros(3)),
                                 RigidTransform(np.eye(3), np.zeros(3)))
        assert err.rre == pytest.approx(180.0)

    def test_zero_iff_equal(self, rng):
        rot = random_rotation(rng)
        gt = RigidTransform(rot, rng.uniform(-1, 1, 3))
        small = RigidTransform(rot, gt.t + np.array([1e-3, 0, 0]))
        err = registration_error(small, gt)
        assert err.rte > 0

    def test_oracle_on_random_pairs(self, rng):
        for _ in range(20):
            est = RigidTransform(random_rotation(rng), rng.uniform(-2, 2, 3))
            gt = RigidTransform(random_rotation(rng), rng.uniform(-2, 2, 3))
            err = registration_error(est, gt)
            rte_o, rre_o = relative_transform_oracle(est, gt)
            assert err.rte == pytest.approx(rte_o, abs=1e-9)
            assert err.rre == pytest.approx(rre_o, abs=1e-9)


class TestRigidTransform:
    def test_orthonormal_check_is_allclose(self, rng):
        """The orthonormality check accepts exactly what
        np.allclose(R.T @ R, I, atol=1e-9) does, at its default rtol."""
        for scale in 10.0 ** rng.uniform(-12, -3, 400):
            R = np.eye(3) + rng.normal(size=(3, 3)) * scale
            try:
                RigidTransform(R, np.zeros(3))
                accepted = True
            except InvalidInputError as exc:
                accepted = "orthonormal" not in str(exc)
            assert accepted == np.allclose(R.T @ R, np.eye(3), atol=1e-9), R


class TestSuccessFlags:
    def test_thresholds(self):
        flags = success_flags(type("E", (), {"rte": 0.7, "rre": 6.0})())
        assert [f["success"] for f in flags] == [False, True, True]
