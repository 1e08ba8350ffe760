"""Independent oracles for the flow allocator, and an adapter that runs the
library's solver on the same instances; the one-stream weight draw; the
full-pass graph validator; the per-positive InfoNCE loop."""

import math
from typing import NamedTuple

import numpy as np

from sgalign.allocator import _solve
from sgalign.encoder import WO_INIT_GAIN, EncoderConfig, EncoderWeights, _empty_tensors
from sgalign.losses import InfoNceInput
from sgalign.matcher import softmax
from sgalign.scene_graph import (EDGE_DISTANCE_RTOL, MAX_COORDINATE, SceneGraph,
                                 point_distances)


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


def validate_graph_reference(g: SceneGraph) -> list[str]:
    """`scene_graph.validate_graph` as a full pass: every mask is built for
    every graph, with no whole-array early out. The one-pass validator must
    return the same list."""
    ids = g.ids.tolist()
    vectors = {"position": g.positions(), "f_vl": g.f_vl, "f_t": g.f_t, "f_g": g.f_g}
    non_finite = {name: ~np.isfinite(v).all(axis=1) for name, v in vectors.items()}
    # Beyond MAX_COORDINATE, squares and sums of squares may overflow.
    too_big = {name: ~non_finite[name] & (np.abs(vectors[name]) > MAX_COORDINATE).any(axis=1)
               for name in ("position", "f_vl", "f_t")}
    bound = f"+-{MAX_COORDINATE:g}"
    out_of_range = ~non_finite["f_g"] & ((g.f_g <= 0) | (g.f_g > 1)).any(axis=1)
    repeated = np.ones(len(ids), dtype=bool)
    repeated[np.unique(g.ids, return_index=True)[1]] = False

    # Each node check and its message, in the order a node's messages take.
    checks = [(repeated, "duplicate node id {}"),
              (non_finite["position"], "node {}: non-finite position"),
              (too_big["position"], f"node {{}}: position has a coordinate beyond {bound}"),
              *((non_finite[name], f"node {{}}: non-finite values in {name}")
                for name in ("f_vl", "f_t", "f_g")),
              *((too_big[name], f"node {{}}: {name} has a value beyond {bound}")
                for name in ("f_vl", "f_t")),
              (out_of_range, "node {}: f_g components must lie in (0, 1]")]
    violations = []
    for k in np.flatnonzero(np.any([mask for mask, _ in checks], axis=0)):
        violations += [message.format(ids[k]) for mask, message in checks if mask[k]]

    ends = g.endpoints
    self_loop = ends[:, 0] == ends[:, 1]
    flipped = ends[:, 0] > ends[:, 1]
    # Row of each endpoint, -1 when dangling, which picks the zero sentinel
    # row appended to the positions. An edge on a bad position is left to
    # that node's message.
    rows = rows_of_reference(g.ids, ends)
    dangling = ~self_loop & (rows < 0).any(axis=1)
    usable = np.append(~non_finite["position"] & ~too_big["position"], False)
    pos = np.where(usable[:, None], np.append(g.positions(), np.zeros((1, 3)), axis=0), 0.0)
    measured = ~self_loop & ~dangling & usable[rows].all(axis=1)
    actual = point_distances(pos[rows[:, 0]], pos[rows[:, 1]])
    # A NaN stored distance fails the comparison, so it is stale too.
    stale = measured & ~(np.abs(g.edge_distances - actual)
                         <= EDGE_DISTANCE_RTOL * np.maximum(1.0, actual))
    # A self loop is neither dangling nor stale, a dangling edge not stale.
    checks = [(self_loop, "self loop"), (flipped, "not canonicalized i < j"),
              (dangling, "dangling endpoint"), (stale, "stored distance {} != actual {}")]
    pairs, stored = ends.tolist(), g.edge_distances.tolist()
    for m in np.flatnonzero(self_loop | flipped | dangling | stale):
        violations += [f"edge ({pairs[m][0]},{pairs[m][1]}): "
                       + message.format(stored[m], float(actual[m]))
                       for mask, message in checks if mask[m]]
    return violations


def rows_of_reference(ids: np.ndarray, wanted) -> np.ndarray:
    """The row lookup of `GraphBatch.id_rows` by the formula of the former
    `SceneGraph.rows_of`: the row of each id in `wanted` among node `ids`,
    -1 where none has it, the last row of a repeated id."""
    order = np.argsort(ids, kind="stable")
    rows = np.append(-1, order)[np.searchsorted(ids[order], wanted, side="right")]
    return np.where(np.append(ids, 0)[rows] == wanted, rows, -1)


def info_nce_loop(inp: InfoNceInput) -> tuple[float, np.ndarray]:
    """`losses.info_nce` as one loop per direction over the sorted positives,
    each adding its loss term and its gradient row or column in turn."""
    S = inp.similarities / inp.temperature
    grad = np.zeros_like(S)
    positives = sorted(inp.positives)

    row_sm = softmax(S, axis=1)
    col_sm = softmax(S, axis=0)
    n_pos = len(positives)

    loss = 0.0
    for i, j in positives:
        loss += -np.log(row_sm[i, j])
        grad[i, :] += row_sm[i, :] / n_pos
        grad[i, j] -= 1.0 / n_pos
    row_loss = loss / n_pos

    loss = 0.0
    col_grad = np.zeros_like(S)
    for i, j in positives:
        loss += -np.log(col_sm[i, j])
        col_grad[:, j] += col_sm[:, j] / n_pos
        col_grad[i, j] -= 1.0 / n_pos
    col_loss = loss / n_pos

    total = 0.5 * (row_loss + col_loss)
    total_grad = 0.5 * (grad + col_grad) / inp.temperature
    return float(total), total_grad
