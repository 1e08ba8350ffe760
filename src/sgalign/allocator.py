"""Turn a score matrix into discrete correspondences.

Two allocators: mutual nearest neighbor (strictly one-to-one) and an
iterative minimum-cost-flow formulation that supports many-to-one matches,
per-node unmatched options and a geometric-consistency penalty that is
recomputed from the previous iteration's matches.

With B capacity unlimited (the default) the flow problem separates by row:
each A node takes its cheapest candidate if that costs strictly less than
the unmatched option, exact ties going to the lower B index. This is solved
as one dense argmin. A finite B capacity couples the rows; that case runs an
exact flow solver, successive shortest augmenting paths with node
potentials on integer-scaled costs. A brute-force enumeration oracle over
all capacity-feasible assignments is included for verification.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, InvariantError
from .matcher import ScoreMatrix


@dataclass
class MatchSet:
    """Predicted correspondences plus explicit unmatched A-side indices."""

    pairs: list[tuple[int, int, float]]
    unmatched_a: list[int]
    iterations: int = 1
    converged: bool = True

    def pair_set(self) -> set[tuple[int, int]]:
        return {(i, j) for i, j, _ in self.pairs}

    def counts_b(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for _, j, _ in self.pairs:
            counts[j] = counts.get(j, 0) + 1
        return counts

    def to_dict(self) -> dict:
        return {
            "pairs": [[i, j, s] for i, j, s in self.pairs],
            "unmatched_a": list(self.unmatched_a),
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class MnnParams:
    min_score: float = 0.1

    def __post_init__(self):
        if not 0 <= self.min_score <= 1:
            raise InvalidInputError(f"min_score must be in [0,1], got {self.min_score}")


@dataclass(frozen=True)
class McfParams:
    tau: float = 0.3
    top_k: int = 5
    c_unmatched: float = 2.0
    lam: float = 1.0
    cap_max: int | None = None  # None = unlimited
    max_iters: int = 5
    cost_scale: int = 10 ** 6  # integer cost resolution of the finite-cap_max solver

    def __post_init__(self):
        if not 0 <= self.tau <= 1:
            raise InvalidInputError(f"tau must be in [0,1], got {self.tau}")
        if self.top_k < 1:
            raise InvalidInputError(f"top_k must be >= 1, got {self.top_k}")
        for name in ("c_unmatched", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.max_iters < 1:
            raise InvalidInputError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.cost_scale < 1:
            raise InvalidInputError(f"cost_scale must be >= 1, got {self.cost_scale}")
        if self.cap_max is not None and self.cap_max < 1:
            raise InvalidInputError(f"cap_max must be >= 1 or None, got {self.cap_max}")


def _as_p(P) -> np.ndarray:
    if isinstance(P, ScoreMatrix):
        return P.P
    return np.asarray(P, dtype=float)


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
    if p.ndim != 2:
        raise InvalidInputError(f"P must be 2-D, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise InvalidInputError("P has non-finite entries")
    if p.size and (p.min() < 0 or p.max() > 1):
        raise InvalidInputError("P has entries outside [0, 1]")
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
               pos_a: np.ndarray, pos_b: np.ndarray) -> np.ndarray:
    """Worst distance distortion of each pair (ci, cj) against the pairs (ks, ls)."""
    if len(ks) == 0:
        return np.zeros(len(ci))
    d_a = np.linalg.norm(pos_a[ci][:, None, :] - pos_a[ks][None, :, :], axis=2)
    d_b = np.linalg.norm(pos_b[cj][:, None, :] - pos_b[ls][None, :, :], axis=2)
    return np.abs(d_a - d_b).max(axis=1)


def geometry_penalty(i: int, j: int, prev_matches, pos_a: np.ndarray,
                     pos_b: np.ndarray) -> float:
    """Worst distance distortion of (i, j) against the previous matches."""
    pairs = prev_matches.pairs if isinstance(prev_matches, MatchSet) else prev_matches
    ks = np.array([kl[0] for kl in pairs], dtype=int)
    ls = np.array([kl[1] for kl in pairs], dtype=int)
    pen = _penalties(np.array([i]), np.array([j]), ks, ls,
                     np.asarray(pos_a, dtype=float), np.asarray(pos_b, dtype=float))
    return float(pen[0])


# ---------------------------------------------------------------------------
# Exact min-cost flow: successive shortest paths with potentials


class _FlowNetwork:
    """Residual network on integer costs; edges stored as forward/backward pairs."""

    def __init__(self, n_nodes: int):
        self.n = n_nodes
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n_nodes)]

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        idx = len(self.to)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[u].append(idx)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        self.adj[v].append(idx + 1)
        return idx

    def min_cost_flow(self, s: int, t: int, max_flow: int) -> tuple[int, int]:
        """Push up to max_flow units; returns (flow sent, integer cost)."""
        inf = float("inf")
        # Bellman-Ford proofs the initial potentials (costs here are already
        # non-negative, but this keeps the solver correct for any input).
        pot = [0.0] * self.n
        for _ in range(self.n - 1):
            changed = False
            for u in range(self.n):
                if pot[u] == inf:
                    continue
                for e in self.adj[u]:
                    if self.cap[e] > 0 and pot[u] + self.cost[e] < pot[self.to[e]]:
                        pot[self.to[e]] = pot[u] + self.cost[e]
                        changed = True
            if not changed:
                break

        flow = total_cost = 0
        while flow < max_flow:
            dist = [inf] * self.n
            dist[s] = 0
            prev_edge = [-1] * self.n
            heap: list[tuple[float, int]] = [(0.0, s)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for e in self.adj[u]:
                    v = self.to[e]
                    if self.cap[e] <= 0:
                        continue
                    nd = d + self.cost[e] + pot[u] - pot[v]
                    if nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = e
                        heapq.heappush(heap, (nd, v))
            if dist[t] == inf:
                break
            for v in range(self.n):
                if dist[v] < inf:
                    pot[v] += dist[v]
            # bottleneck along the augmenting path
            push = max_flow - flow
            v = t
            while v != s:
                e = prev_edge[v]
                push = min(push, self.cap[e])
                v = self.to[e ^ 1]
            v = t
            while v != s:
                e = prev_edge[v]
                self.cap[e] -= push
                self.cap[e ^ 1] += push
                total_cost += push * self.cost[e]
                v = self.to[e ^ 1]
            flow += push
        return flow, total_cost


def _solve(ci: np.ndarray, cj: np.ndarray, cost: np.ndarray, c_unmatched: float,
           cap_max: int | None, n_a: int, n_b: int,
           cost_scale: int) -> tuple[np.ndarray, np.ndarray]:
    """Optimal assignment of A nodes to candidates (ci, cj) or 'unmatched'.

    The candidates must be sorted by (i, j). Returns the chosen pairs as
    index arrays, sorted the same way.
    """
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

    source = 0
    sink = n_a + n_b + 1
    net = _FlowNetwork(n_a + n_b + 2)
    for i in range(n_a):
        net.add_edge(source, 1 + i, 1, 0)
    cand_edges = [net.add_edge(1 + i, 1 + n_a + j, 1, round(c * cost_scale))
                  for i, j, c in zip(ci.tolist(), cj.tolist(), cost.tolist())]
    c_un_int = round(c_unmatched * cost_scale)
    for i in range(n_a):
        net.add_edge(1 + i, sink, 1, c_un_int)
    for j in range(n_b):
        net.add_edge(1 + n_a + j, sink, cap_max, 0)

    flow, _ = net.min_cost_flow(source, sink, n_a)
    # The unmatched edges guarantee feasibility of the full supply.
    if flow != n_a:
        raise InvariantError(f"solve_mcf: flow {flow} fell short of supply {n_a}")
    used = np.array([net.cap[e] == 0 for e in cand_edges], dtype=bool)
    return ci[used], cj[used]


@dataclass
class FlowResult:
    matched: list[tuple[int, int]]        # (i, j) with unit flow
    unmatched_a: list[int]
    total_cost: float                     # float cost of the chosen assignment
    objective_error_bound: float          # integer-rounding slack (0 when uncapped)


def solve_mcf(candidates: list[tuple[int, int]], costs: dict[tuple[int, int], float],
              c_unmatched: float, cap_max: int | None, n_a: int, n_b: int,
              cost_scale: int = 10 ** 6) -> FlowResult:
    """Exact optimal assignment of A nodes to candidate B nodes or 'unmatched'."""
    cands = sorted(candidates)
    ci = np.array([i for i, _ in cands], dtype=np.intp)
    cj = np.array([j for _, j in cands], dtype=np.intp)
    cost = np.array([costs[key] for key in cands], dtype=float)
    mi, mj = _solve(ci, cj, cost, c_unmatched, cap_max, n_a, n_b, cost_scale)
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
        objective_error_bound=0.0 if cap_max is None else n_a / cost_scale,
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
    converged = False
    for iterations in range(1, params.max_iters + 1):
        cost = neg_log + params.lam * _penalties(ci, cj, *prev, pos_a, pos_b)
        mi, mj = _solve(ci, cj, cost, params.c_unmatched, params.cap_max,
                        n_a, n_b, params.cost_scale)
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
