"""Rigid-transform estimation from matched node centers, with RTE/RRE scoring.

The estimator is RANSAC over 3-point minimal samples with a closed-form
least-squares rotation (SVD of the cross-covariance, reflection-corrected),
refit on the final inlier set. Errors are reported as the translation norm
and rotation angle of the relative transform against ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateGeometryError, InvalidInputError, as_array, check_bound,
                     check_values)
from .scene_graph import point_distances

DEFAULT_RANSAC_ITERS = 256
DEFAULT_INLIER_EPS = 0.2
COLLINEAR_EPS = 1e-9

_EYE = np.eye(3)
_ORTHONORMAL_TOL = 1e-9 + 1e-5 * _EYE  # atol + rtol * |I|, as np.allclose reads them

# Success-rate reporting bins: (RTE meters, RRE degrees).
SUCCESS_THRESHOLDS = ((0.5, 5.0), (1.0, 10.0), (2.0, 15.0))


@dataclass(frozen=True)
class RigidTransform:
    """x_b = R @ x_a + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "R", as_array("R", self.R, (3, 3), "RigidTransform"))
        object.__setattr__(self, "t", as_array("t", self.t, (3,), "RigidTransform"))
        # np.allclose(R.T @ R, I, atol=1e-9) with its default rtol, written out
        if not (np.abs(self.R.T @ self.R - _EYE) <= _ORTHONORMAL_TOL).all():
            raise InvalidInputError("R is not orthonormal")
        if not math.isclose(float(np.linalg.det(self.R)), 1.0, abs_tol=1e-9):
            raise InvalidInputError("R is not a proper rotation (det != +1)")

    def apply(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=float) @ self.R.T + self.t

    def to_dict(self) -> dict:
        return {"R": [[float(v) for v in row] for row in self.R],
                "t": [float(v) for v in self.t]}


@dataclass(frozen=True)
class RegistrationError:
    rte: float  # meters
    rre: float  # degrees


def _kabsch(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares rotations/translations mapping point sets a onto b.

    a and b are (..., k, 3); each leading index is one independent fit.
    """
    ca = a.mean(axis=-2)
    cb = b.mean(axis=-2)
    h = np.swapaxes(a - ca[..., None, :], -1, -2) @ (b - cb[..., None, :])
    u, _, vt = np.linalg.svd(h)
    v, ut = np.swapaxes(vt, -1, -2), np.swapaxes(u, -1, -2)
    d = np.sign(np.linalg.det(v @ ut))
    # a product with diag(1, 1, d), not a sign flip of v's last column: the
    # two can differ in the sign of a zero, and the test oracle uses the product
    reflect = np.zeros(d.shape + (3, 3))
    reflect[..., [0, 1], [0, 1]] = 1.0
    reflect[..., 2, 2] = d
    rot = v @ reflect @ ut
    return rot, cb - (rot @ ca[..., None])[..., 0]


def _collinear(points: np.ndarray) -> np.ndarray:
    """Whether each (..., k, 3) point set lies on a line (or a point)."""
    centered = points - points.mean(axis=-2)[..., None, :]
    s = np.linalg.svd(centered, compute_uv=False)
    return s[..., 1] <= COLLINEAR_EPS * np.maximum(1.0, s[..., 0])


def _positions(pairs, side: int, name: str) -> np.ndarray:
    try:
        points = [p[side] for p in pairs]
    except (TypeError, IndexError) as exc:
        raise InvalidInputError(f"estimate_rigid: a pair has no {name} position ({exc})") from None
    pts = as_array(f"{name} positions", points, None, "estimate_rigid")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError(f"{name} positions must be (n, 3), got shape {pts.shape}")
    check_values(f"{name} positions", pts, "finite")
    return pts


def _minimal_samples(rng: np.random.Generator, n: int, iters: int) -> np.ndarray:
    """`iters` calls of rng.choice(n, 3, replace=False), in one draw.

    choice takes a 3-subset by Floyd's algorithm (Bentley and Floyd, CACM
    1987): values from [0, n-3], [0, n-2] and [0, n-1] in turn, where a
    value already taken gives way to the top of its range. It then shuffles
    the three with values from [0, 2] and [0, 1]. One `integers` call makes
    the same bounded draws in the same order, so the triples and the
    generator's end state are those of the calls.
    """
    draws = rng.integers(0, np.tile([n - 2, n - 1, n, 3, 2], iters)).reshape(iters, 5)
    idx = draws[:, :3].copy()
    idx[idx[:, 1] == idx[:, 0], 1] = n - 2
    idx[(draws[:, 2] == idx[:, 0]) | (draws[:, 2] == idx[:, 1]), 2] = n - 1
    rows = np.arange(iters)
    for i, j in ((2, draws[:, 3]), (1, draws[:, 4])):  # swap positions i and j
        idx[rows, i], idx[rows, j] = idx[rows, j], idx[rows, i]
    return idx


def estimate_rigid(pairs, iters: int = DEFAULT_RANSAC_ITERS,
                   inlier_eps: float = DEFAULT_INLIER_EPS,
                   seed: int = 0) -> tuple[RigidTransform, list[int]]:
    """RANSAC rigid fit of A positions onto B; returns (transform, inliers).

    All `iters` minimal samples are drawn first, in one call, then fitted
    and scored as one batch; the best hypothesis is the first with the most
    inliers. An `iters` whose samples NumPy cannot allocate raises
    InvalidInputError.
    """
    check_bound("iters", iters, ">= 1", where="estimate_rigid")
    check_bound("inlier_eps", inlier_eps, "finite and >= 0", where="estimate_rigid")
    n = len(pairs)
    if n < 3:
        raise InvalidInputError(f"estimate_rigid needs >= 3 pairs, got {n}")
    a = _positions(pairs, 0, "A")
    b = _positions(pairs, 1, "B")
    if _collinear(a):
        raise DegenerateGeometryError("A positions are collinear")

    try:
        idx = _minimal_samples(np.random.default_rng(seed), n, iters)
    except (ValueError, OverflowError, MemoryError) as exc:
        raise InvalidInputError(
            f"estimate_rigid: iters {iters} samples cannot be allocated: {exc}") from exc
    idx = idx[~_collinear(a[idx])]
    best_inliers: np.ndarray | None = None
    if len(idx):
        rot, t = _kabsch(a[idx], b[idx])
        residuals = point_distances(a @ np.swapaxes(rot, -1, -2) + t[:, None, :], b)
        inlier = residuals <= inlier_eps
        best_inliers = np.flatnonzero(inlier[inlier.sum(axis=1).argmax()])
    if best_inliers is None or len(best_inliers) < 3 or _collinear(a[best_inliers]):
        # fall back to a full fit when no hypothesis separated an inlier set
        best_inliers = np.arange(n)
    rot, t = _kabsch(a[best_inliers], b[best_inliers])
    return RigidTransform(R=rot, t=t), [int(i) for i in best_inliers]


def registration_error(est: RigidTransform, gt: RigidTransform) -> RegistrationError:
    """Errors of the relative transform gt^-1 composed with est.

    The rotation angle theta satisfies cos t = (trace(R) - 1) / 2; it is
    extracted with atan2 of the skew part so near-zero angles keep full
    double precision (plain arccos floors out around 1e-6 degrees).
    """
    rel = gt.R.T @ est.R
    cos_angle = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    sin_angle = 0.5 * math.sqrt((rel[2, 1] - rel[1, 2]) ** 2 +
                                (rel[0, 2] - rel[2, 0]) ** 2 +
                                (rel[1, 0] - rel[0, 1]) ** 2)
    rre = math.degrees(math.atan2(sin_angle, cos_angle))
    rte = float(np.linalg.norm(gt.R.T @ (est.t - gt.t)))
    return RegistrationError(rte=rte, rre=rre)


def success_flags(err: RegistrationError) -> list[dict]:
    """Pass/fail against the three standard (RTE, RRE) threshold pairs."""
    return [
        {"rte_threshold": rte_th, "rre_threshold": rre_th,
         "success": err.rte <= rte_th and err.rre <= rre_th}
        for rte_th, rre_th in SUCCESS_THRESHOLDS
    ]
