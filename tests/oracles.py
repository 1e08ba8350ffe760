"""Independent oracles for the flow allocator, and an adapter that runs the
library's solver on the same instances; the one-stream weight draw."""

import math
from typing import NamedTuple

import numpy as np

from sgalign.allocator import _solve
from sgalign.encoder import WO_INIT_GAIN, EncoderConfig, EncoderWeights, _empty_tensors


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


class Flow(NamedTuple):
    matched: list[tuple[int, int]]        # (i, j) with unit flow
    unmatched_a: list[int]
    total_cost: float                     # float cost of the chosen assignment


def solve_mcf(candidates: list[tuple[int, int]], costs: dict[tuple[int, int], float],
              c_unmatched: float, cap_max: int | None, n_a: int, n_b: int) -> Flow:
    """`allocator._solve` on a candidate list and a cost dict, the instance
    form of `brute_force_allocate`."""
    cands = sorted(candidates)
    ci, cj = (np.array([ij[k] for ij in cands], dtype=np.intp) for k in (0, 1))
    cost = np.array([costs[ij] for ij in cands], dtype=float)
    mi, mj = _solve(ci, cj, cost, c_unmatched, cap_max, n_a, n_b)
    matched = list(zip(mi.tolist(), mj.tolist()))
    unmatched = sorted(set(range(n_a)) - set(mi.tolist()))
    total = sum(costs[ij] for ij in matched)
    for _ in unmatched:
        total += c_unmatched
    return Flow(matched, unmatched, total)


def init_weights_serial(config: EncoderConfig, seed: int = 0) -> EncoderWeights:
    """`encoder.init_weights` as one loop on the calling thread: every tensor
    drawn from one stream in tensor order."""
    rng = np.random.default_rng(seed)
    tensors, packed = _empty_tensors(config)
    for name, out in tensors.items():
        if name == "cls_token":
            rng.standard_normal(out=out)
            out /= np.linalg.norm(out)
        elif name.endswith("ln_scale"):
            out.fill(1.0)
        elif out.ndim == 1:  # biases and ln_bias
            out.fill(0.0)
        else:
            fan_out, fan_in = out.shape
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            gain = WO_INIT_GAIN if name.startswith("layer") and name.endswith("Wo") else 1.0
            # rng.uniform(lo, hi) without a temporary: lo + (hi - lo) * U[0, 1)
            lo, hi = -gain * bound, gain * bound
            rng.random(out=out)
            out *= hi - lo
            out += lo
    return EncoderWeights._filled(config, tensors, packed, seed)
