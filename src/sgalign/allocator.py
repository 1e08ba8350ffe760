"""Turn a score matrix into discrete correspondences.

Two allocators: mutual nearest neighbor (strictly one-to-one) and an
iterative minimum-cost-flow formulation that supports many-to-one matches,
per-node unmatched options and a geometric-consistency penalty that is
recomputed from the previous iteration's matches.

With B capacity unlimited (the default) the flow problem separates by row:
each A node takes its cheapest candidate if that costs strictly less than
the unmatched option. This is solved as one dense argmin. A finite B
capacity couples the rows; with unit supplies the flow is then a
rectangular assignment of the A rows to a private unmatched column each
and to cap_max copies of every B column, solved exactly on float costs by
shortest augmenting paths. Both cases share one tie rule: the unmatched
option wins an exact tie with a candidate, and among candidates the lower
B index wins. A brute-force enumeration oracle over all capacity-feasible
assignments is included for verification.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DOCUMENT_KEYS, InvalidInputError, check_bound, check_bounds, check_types
from .matcher import ScoreMatrix
from .scene_graph import MAX_COORDINATE, point_distances

# Flow costs are -log(P) (at most ~20.7) plus lambda times a distance
# distortion, and the unmatched cost. Keeping each within MAX_COST leaves a
# factor of 1e8 for the sums of costs the shortest-path solver forms. A
# distortion |d_a - d_b| is at most the largest distance between positions
# within +-MAX_COORDINATE.
MAX_COST = 1e300
MAX_PENALTY = 2 * math.sqrt(3) * MAX_COORDINATE

# The allocator names `pipeline.allocate` dispatches on.
ALLOCATORS = ("mnn", "mcf")


@dataclass
class MatchSet:
    """Predicted correspondences plus explicit unmatched A-side indices."""

    pairs: list[tuple[int, int, float]]
    unmatched_a: list[int]
    iterations: int = 1
    converged: bool = True

    def pair_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.pairs}

    def to_dict(self) -> dict:
        return {
            "pairs": [[i, j, s] for i, j, s in self.pairs],
            "unmatched_a": list(self.unmatched_a),
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class MnnParams:
    min_score: float = field(default=0.1, metadata={"bound": "in [0, 1]"})

    def __post_init__(self):
        check_bounds(self)


@dataclass(frozen=True)
class McfParams:
    tau: float = field(default=0.3, metadata={"bound": "in [0, 1]"})
    top_k: int = field(default=5, metadata={"bound": ">= 1"})
    c_unmatched: float = field(default=2.0, metadata={"bound": "finite"})
    lam: float = field(default=1.0, metadata={"bound": "finite"})
    cap_max: int | None = None  # None = unlimited
    max_iters: int = field(default=5, metadata={"bound": ">= 1"})

    def __post_init__(self):
        check_bounds(self)
        for name, bound in (("c_unmatched", MAX_COST), ("lam", MAX_COST / MAX_PENALTY)):
            if not abs(getattr(self, name)) <= bound:
                raise InvalidInputError(f"{DOCUMENT_KEYS.get(name, name)} must be within "
                                        f"+-{bound:g} for finite costs, "
                                        f"got {getattr(self, name)}")
        if self.cap_max is not None:
            check_types(self, numbers.Integral, "an integer or null", ("cap_max",))
            if self.cap_max < 1:
                raise InvalidInputError(f"cap_max must be >= 1 or None, got {self.cap_max}")


def _as_p(P) -> np.ndarray:
    """The score matrix of `P` (a ScoreMatrix or an array), refused unless
    it is 2-D with every entry in [0, 1]: the one check of P that both
    allocators and `candidate_set` make."""
    p = P.P if isinstance(P, ScoreMatrix) else np.asarray(P, dtype=float)
    if p.ndim != 2:
        raise InvalidInputError(f"P must be 2-D, got shape {p.shape}")
    check_bound("P", p, "in [0, 1]")
    return p


def mnn_allocate(P, params: MnnParams = MnnParams()) -> MatchSet:
    """Mutual-argmax matching; ties resolved toward the lowest index."""
    p = _as_p(P)
    n_a, n_b = p.shape
    pairs: list[tuple[int, int, float]] = []
    if n_a and n_b:
        row_best = p.argmax(axis=1)
        col_best = p.argmax(axis=0)
        for i in range(n_a):
            j = int(row_best[i])
            if int(col_best[j]) == i and p[i, j] >= params.min_score:
                pairs.append((i, j, float(p[i, j])))
    matched = {i for i, _, _ in pairs}
    unmatched = [i for i in range(n_a) if i not in matched]
    return MatchSet(pairs=pairs, unmatched_a=unmatched)


def _candidate_mask(p: np.ndarray, tau: float, top_k: int) -> np.ndarray:
    n_a, n_b = p.shape
    mask = np.zeros((n_a, n_b), dtype=bool)
    # A stable sort of -P ranks ties at the K-th value by column index.
    top = np.argsort(-p, axis=1, kind="stable")[:, :top_k]
    mask[np.arange(n_a)[:, None], top] = True
    return mask & (p >= tau) & (p > 0)


def candidate_set(P, tau: float, top_k: int) -> list[tuple[int, int]]:
    """(i, j) with P >= tau and j among the top_k entries of row i.

    Ranking ties at the K-th value go to the lower column index; the tau
    filter applies after ranking. An entry P == 0 is never a candidate (its
    cost -log P is infinite). Returned sorted for determinism.
    """
    ci, cj = np.nonzero(_candidate_mask(_as_p(P), tau, top_k))
    return list(zip(ci.tolist(), cj.tolist()))


def _penalties(ci: np.ndarray, cj: np.ndarray, ks: np.ndarray, ls: np.ndarray,
               dist_a: np.ndarray, dist_b: np.ndarray) -> np.ndarray:
    """Worst distance distortion of each pair (ci, cj) against the pairs (ks, ls).

    dist_a[i, k] and dist_b[j, l] are the distances between node positions.
    """
    if len(ks) == 0:
        return np.zeros(len(ci))
    return np.abs(dist_a[ci[:, None], ks] - dist_b[cj[:, None], ls]).max(axis=1)


def geometry_penalty(i: int, j: int, prev_matches, pos_a: np.ndarray,
                     pos_b: np.ndarray) -> float:
    """Worst distance distortion of (i, j) against the previous matches."""
    pairs = prev_matches.pairs if isinstance(prev_matches, MatchSet) else prev_matches
    ks = np.array([kl[0] for kl in pairs], dtype=int)
    ls = np.array([kl[1] for kl in pairs], dtype=int)
    pen = _penalties(np.array([0]), np.array([0]), ks, ls,
                     point_distances(pos_a[i], pos_a)[None],
                     point_distances(pos_b[j], pos_b)[None])
    return float(pen[0])


# ---------------------------------------------------------------------------
# Exact rectangular assignment: shortest augmenting paths with potentials


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of a dense (n, m) matrix.

    Needs n <= m and a feasible assignment of finite cost. Rows are added
    one at a time along a shortest augmenting path (Dijkstra on reduced
    costs with dual potentials u, v; Jonker & Volgenant 1987, Crouse 2016),
    scanning a whole row per step. Ties go to the lowest column index.
    """
    n, m = cost.shape
    u, v = np.zeros(n), np.zeros(m)
    row4col = np.full(m, -1, dtype=np.intp)
    col4row = np.full(n, -1, dtype=np.intp)
    for cur in range(n):
        dist = np.full(m, np.inf)   # shortest path cost to each column
        path = np.full(m, -1, dtype=np.intp)
        scanned = np.zeros(m, dtype=bool)
        i, d = cur, 0.0
        while True:
            reduced = d + cost[i] - u[i] - v
            better = (reduced < dist) & ~scanned
            dist[better] = reduced[better]
            path[better] = i
            j = int(np.where(scanned, np.inf, dist).argmin())
            d = dist[j]
            scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        passed = scanned & (row4col >= 0)  # columns the path runs through
        u[cur] += d
        u[row4col[passed]] += d - dist[passed]
        v[scanned] -= d - dist[scanned]
        while True:  # flip the path back to cur
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _solve(ci: np.ndarray, cj: np.ndarray, cost: np.ndarray, c_unmatched: float,
           cap_max: int | None, n_a: int, n_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment of A nodes to candidates (ci, cj) or 'unmatched'.

    The candidates must be sorted by (i, j). Returns the chosen pairs as
    index arrays, sorted the same way.
    """
    check_bound("c_unmatched", c_unmatched, "finite", where="solve_mcf")
    bad = ~np.isfinite(cost)
    if bad.any():
        k = int(np.argmax(bad))
        raise InvalidInputError(
            f"solve_mcf: non-finite cost for {(int(ci[k]), int(cj[k]))}")
    if cap_max is None:
        # Unlimited B capacity: the rows are independent. argmin returns the
        # first minimum, so exact ties go to the lower B index, and a cost
        # equal to c_unmatched leaves the row unmatched.
        if len(ci) == 0:
            return ci, cj
        dense = np.full((n_a, n_b), np.inf)
        dense[ci, cj] = cost
        best = dense.argmin(axis=1)
        take = dense[np.arange(n_a), best] < c_unmatched
        return np.flatnonzero(take), best[take]

    # A finite capacity couples the rows: assign the A rows to their private
    # unmatched columns (first, so they win exact ties) or to cap copies of
    # each B column. No B node can take more than n_a rows.
    cap = min(cap_max, n_a)
    dense = np.full((n_a, n_a + n_b * cap), np.inf)
    dense[np.arange(n_a), np.arange(n_a)] = c_unmatched
    dense[ci[:, None], n_a + cj[:, None] * cap + np.arange(cap)] = cost[:, None]
    col = _assign(dense)
    take = col >= n_a
    return np.flatnonzero(take), (col[take] - n_a) // cap


@dataclass
class FlowResult:
    matched: list[tuple[int, int]]        # (i, j) with unit flow
    unmatched_a: list[int]
    total_cost: float                     # float cost of the chosen assignment


def solve_mcf(candidates: list[tuple[int, int]], costs: dict[tuple[int, int], float],
              c_unmatched: float, cap_max: int | None, n_a: int, n_b: int) -> FlowResult:
    """Exact optimal assignment of A nodes to candidate B nodes or 'unmatched'."""
    cands = sorted(candidates)
    ci = np.array([i for i, _ in cands], dtype=np.intp)
    cj = np.array([j for _, j in cands], dtype=np.intp)
    cost = np.array([costs[key] for key in cands], dtype=float)
    mi, mj = _solve(ci, cj, cost, c_unmatched, cap_max, n_a, n_b)
    matched = list(zip(mi.tolist(), mj.tolist()))
    matched_a = set(mi.tolist())
    unmatched = [i for i in range(n_a) if i not in matched_a]
    total = sum(costs[ij] for ij in matched)
    for _ in unmatched:
        total += c_unmatched
    return FlowResult(
        matched=matched,
        unmatched_a=unmatched,
        total_cost=total,
    )


def brute_force_allocate(candidates: list[tuple[int, int]],
                         costs: dict[tuple[int, int], float],
                         c_unmatched: float, cap_max: int | None,
                         n_a: int, n_b: int) -> tuple[float, list[tuple[int, int]]]:
    """Exhaustive minimum over all capacity-feasible assignments.

    Recursive enumeration (memoized on remaining capacity); independent of
    the flow solver. Only suitable for small instances.
    """
    per_row: list[list[tuple[float, int]]] = [[] for _ in range(n_a)]
    for (i, j) in candidates:
        per_row[i].append((costs[(i, j)], j))
    for row in per_row:
        row.sort()
    cap = cap_max if cap_max is not None else n_a

    memo: dict[tuple[int, tuple[int, ...]], tuple[float, tuple]] = {}

    def rec(i: int, used: tuple[int, ...]) -> tuple[float, tuple]:
        if i == n_a:
            return 0.0, ()
        key = (i, used)
        if key in memo:
            return memo[key]
        best_cost, best_rest = rec(i + 1, used)
        best_cost += c_unmatched
        best_choice: tuple = ((i, -1),) + best_rest
        for cost, j in per_row[i]:
            if used[j] >= cap:
                continue
            new_used = used[:j] + (used[j] + 1,) + used[j + 1:]
            sub_cost, sub_rest = rec(i + 1, new_used)
            if cost + sub_cost < best_cost:
                best_cost = cost + sub_cost
                best_choice = ((i, j),) + sub_rest
        memo[key] = (best_cost, best_choice)
        return memo[key]

    total, choice = rec(0, (0,) * n_b)
    matched = [(i, j) for i, j in choice if j >= 0]
    return total, matched


def mcf_allocate(P, pos_a: np.ndarray, pos_b: np.ndarray,
                 params: McfParams = McfParams()) -> MatchSet:
    """Iterative min-cost-flow allocation with geometric-penalty refinement."""
    p = _as_p(P)
    pos_a = np.asarray(pos_a, dtype=float)
    pos_b = np.asarray(pos_b, dtype=float)
    ci, cj = np.nonzero(_candidate_mask(p, params.tau, params.top_k))
    n_a, n_b = p.shape
    neg_log = -np.log(p[ci, cj])

    prev = (ci[:0], cj[:0])
    dist = (None, None)  # pairwise node distances, built once matches exist
    converged = False
    for iterations in range(1, params.max_iters + 1):
        if dist[0] is None and len(prev[0]):
            dist = (point_distances(pos_a[:, None], pos_a),
                    point_distances(pos_b[:, None], pos_b))
        cost = neg_log + params.lam * _penalties(ci, cj, *prev, *dist)
        mi, mj = _solve(ci, cj, cost, params.c_unmatched, params.cap_max,
                        n_a, n_b)
        if iterations > 1 and np.array_equal(mi, prev[0]) \
                and np.array_equal(mj, prev[1]):
            converged = True
            break
        prev = (mi, mj)

    matched_a = np.zeros(n_a, dtype=bool)
    matched_a[mi] = True
    pairs = [(i, j, float(p[i, j])) for i, j in zip(mi.tolist(), mj.tolist())]
    return MatchSet(pairs=pairs, unmatched_a=np.flatnonzero(~matched_a).tolist(),
                    iterations=iterations, converged=converged)
