"""Budget-constrained assignment of one configuration per block.

The problem: pick exactly one candidate configuration for every block so that
total state memory stays within an integer byte budget and the mean relative
update-time ratio stays within a time budget, minimizing the summed objective
terms. Memory is compared in exact integer arithmetic; objectives are floats
with a 1e-9 comparison slack.

Two solvers are provided. `solve_bruteforce` exhaustively enumerates small
instances and is the testing oracle. `solve_exact` is a forward dynamic
program over the blocks that keeps only partial assignments no other one
dominates in (memory, time, objective) (Nemhauser & Ullmann, 1969), pruned
by the LP relaxation of the memory-budgeted multiple-choice knapsack with a
Lagrangian price on the time budget (Sinha & Zoltners, 1979). Its cutoff
is the phi of a feasible incumbent, that LP's solution rounded down and
repaired to fit, so one pass usually proves the optimum. It proves
optimality or infeasibility on any instance, with no recursion. Both return
the lexicographically smallest assignment among those within the slack of
the optimum.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .config_space import (
    ADAMW16,
    BlockShape,
    CandidatePolicy,
    Configuration,
    CostModel,
    DEFAULT_POLICY,
    enumerate_candidates_multi,
    json_int,
    policy_grid,
    state_bytes,
)
from .diagnostics import RawMetrics
from .risk import Anchors, RiskSignals, RiskWeights, expand_selectors, phi, signals_from_metrics

OBJECTIVE_SLACK = 1e-9
TIME_SLACK = 1e-12
# Evaluations of the root bound while searching for the best time price.
_PRICE_STEPS = 64
# When no incumbent is found, solve_exact's first cutoff lies this fraction of
# |root bound| + 1 above the root bound; each failed round multiplies the
# distance by _GROW. Measured on 12- to 600-block problems: the states kept
# grow steeply with the cutoff.
_FLOOR = 4e-3
_GROW = 4.0


class AllocationBuildError(ValueError):
    """The problem cannot be constructed as requested."""


@dataclass(frozen=True, slots=True)
class Candidate:
    """One admissible configuration for a block, with its cost row."""

    config: Configuration
    phi: float
    mem_bytes: int
    time_ratio: float

    def __post_init__(self) -> None:
        if self.mem_bytes < 0:
            raise ValueError("candidate memory must be non-negative")
        if not self.time_ratio > 0:
            raise ValueError("candidate time ratio must be positive")
        if not math.isfinite(self.phi):
            raise ValueError("candidate objective term must be finite")


@dataclass(frozen=True, slots=True)
class ProblemBlock:
    """Block descriptor; a block may cover several parameter tensors."""

    id: int
    name: str
    shapes: tuple[BlockShape, ...] = ()


@dataclass(frozen=True)
class AllocationProblem:
    blocks: tuple[ProblemBlock, ...]
    candidates: tuple[tuple[Candidate, ...], ...]
    mem_budget: int
    time_budget: float
    excluded: tuple[frozenset[Configuration], ...] = ()

    # Per block, the indices of the non-excluded candidates, set once: a range
    # when nothing is excluded, which keeps a kept problem small.
    usable_idx: tuple[Sequence[int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.candidates) != len(self.blocks):
            raise ValueError("need one candidate list per block")
        excluded = self.excluded or tuple(frozenset() for _ in self.blocks)
        if len(excluded) != len(self.blocks):
            raise ValueError("need one exclusion set per block")
        object.__setattr__(self, "excluded", excluded)
        usable_idx = []
        for block, cands, banned in zip(self.blocks, self.candidates, excluded):
            idx = tuple(j for j, c in enumerate(cands) if c.config not in banned) if banned else range(len(cands))
            if not idx:
                raise AllocationBuildError(f"block {block.id}: all candidates excluded")
            usable_idx.append(idx)
        object.__setattr__(self, "usable_idx", tuple(usable_idx))

    def usable(self, i: int) -> list[tuple[int, Candidate]]:
        """Non-excluded candidates of block i with their original indices."""
        return [(j, self.candidates[i][j]) for j in self.usable_idx[i]]

    def min_feasible_mem(self) -> int:
        return sum(min(cands[j].mem_bytes for j in idx) for cands, idx in zip(self.candidates, self.usable_idx))


@dataclass(frozen=True)
class AllocationSolution:
    status: str  # "optimal" or "infeasible"
    assignment: dict[int, Configuration]
    objective: float
    total_mem: int
    mean_time_ratio: float
    # solve_exact: DP states kept, summed over cutoff rounds; solve_bruteforce:
    # assignments enumerated.
    nodes_explored: int = 0
    infeasible_reason: str | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def _infeasible(reason: str, nodes: int = 0) -> AllocationSolution:
    return AllocationSolution(
        status="infeasible",
        assignment={},
        objective=math.inf,
        total_mem=0,
        mean_time_ratio=math.inf,
        nodes_explored=nodes,
        infeasible_reason=reason,
    )


@dataclass(frozen=True)
class _Arrays:
    """Per-block numpy views over the usable candidates."""

    phis: list[np.ndarray]
    mems: list[np.ndarray]
    ratios: list[np.ndarray]
    orig_idx: list[np.ndarray]


def _usable_arrays(problem: AllocationProblem) -> _Arrays:
    sizes = [len(idx) for idx in problem.usable_idx]
    ends = np.cumsum(sizes).tolist()
    cands = [row[j] for row, idx in zip(problem.candidates, problem.usable_idx) for j in idx]

    def split(values: list, dtype) -> list[np.ndarray]:
        flat = np.array(values, dtype=dtype)
        return [flat[end - size : end] for end, size in zip(ends, sizes)]

    return _Arrays(
        phis=split([c.phi for c in cands], np.float64),
        mems=split([c.mem_bytes for c in cands], np.int64),
        ratios=split([c.time_ratio for c in cands], np.float64),
        orig_idx=split([j for idx in problem.usable_idx for j in idx], np.int64),
    )


def _solution_from_choice(problem: AllocationProblem, arrays: _Arrays, choice: Sequence[int], nodes: int) -> AllocationSolution:
    n = len(problem.blocks)
    assignment = {}
    objective = 0.0
    total_mem = 0
    total_r = 0.0
    for i, k in enumerate(choice):
        cand = problem.candidates[i][int(arrays.orig_idx[i][k])]
        assignment[problem.blocks[i].id] = cand.config
        objective += cand.phi
        total_mem += cand.mem_bytes
        total_r += cand.time_ratio
    return AllocationSolution(
        status="optimal",
        assignment=assignment,
        objective=objective,
        total_mem=total_mem,
        mean_time_ratio=total_r / n,
        nodes_explored=nodes,
    )


def solve_bruteforce(problem: AllocationProblem, max_assignments: int = 10**7) -> AllocationSolution:
    """Exhaustive oracle: feasible minimum of the summed objective.

    Ties within the 1e-9 slack break toward the lexicographically smallest
    assignment (by block order, then candidate index).
    """
    arrays = _usable_arrays(problem)
    n = len(problem.blocks)
    sizes = [len(p) for p in arrays.phis]
    total = math.prod(sizes)
    if total > max_assignments:
        raise ValueError(f"instance too large for brute force: {total} assignments > {max_assignments}")

    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]

    mean_cap = problem.time_budget + TIME_SLACK
    chunk = 1 << 19

    def _chunk_stats(start: int, stop: int):
        flat = np.arange(start, stop, dtype=np.int64)
        obj = np.zeros(stop - start, dtype=np.float64)
        mem = np.zeros(stop - start, dtype=np.int64)
        ratio = np.zeros(stop - start, dtype=np.float64)
        for i in range(n):
            digit = (flat // strides[i]) % sizes[i]
            obj += arrays.phis[i][digit]
            mem += arrays.mems[i][digit]
            ratio += arrays.ratios[i][digit]
        feasible = (mem <= problem.mem_budget) & (ratio / n <= mean_cap)
        return obj, feasible

    best = math.inf
    any_feasible = False
    for start in range(0, total, chunk):
        obj, feasible = _chunk_stats(start, min(start + chunk, total))
        if feasible.any():
            any_feasible = True
            best = min(best, float(obj[feasible].min()))
    if not any_feasible:
        return _infeasible("no assignment satisfies both budgets", nodes=total)

    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        obj, feasible = _chunk_stats(start, stop)
        hits = np.flatnonzero(feasible & (obj <= best + OBJECTIVE_SLACK))
        if hits.size:
            flat = start + int(hits[0])
            choice = [(flat // int(strides[i])) % sizes[i] for i in range(n)]
            return _solution_from_choice(problem, arrays, choice, nodes=total)
    raise RuntimeError("unreachable: feasible minimum vanished between passes")


@dataclass(frozen=True)
class _PricedHulls:
    """LP relaxation of the memory row at one time price `lam`.

    Each block's candidates become points (memory, phi + lam * ratio). The LP
    relaxation of choosing one point per block under a memory budget starts
    every block at its minimum-memory point (`base_*`, column `start`) and
    then buys hull increments in order of cost per byte (`d_*`, sorted by
    slope, the increments of every block merged; `block` names the owner of
    each and `to` the column it moves that block to).
    """

    lam: float
    base_cost: np.ndarray  # suffix sums: base_cost[i] covers blocks i, i + 1, ...
    base_ratio: float
    start: np.ndarray
    block: np.ndarray
    to: np.ndarray
    d_mem: np.ndarray
    d_cost: np.ndarray
    d_ratio: np.ndarray

    @classmethod
    def build(cls, mem: np.ndarray, phi: np.ndarray, ratio: np.ndarray, lam: float) -> "_PricedHulls":
        """Lower convex hulls of all blocks at once, by vectorized gift wrapping.

        `mem`, `phi` and `ratio` are (blocks, columns) arrays; padding columns
        hold infinite memory and phi.
        """
        cost = phi + lam * ratio
        rows = np.arange(mem.shape[0])
        start = np.lexsort((cost, mem), axis=-1)[:, 0]
        blocks, frm, to = [], [], []
        active, cur = rows, start
        while active.size:
            dm = mem[active] - mem[active, cur][:, None]
            dc = cost[active] - cost[active, cur][:, None]
            down = (dm > 0) & (dc < 0)
            nxt = (np.where(down, dc, np.inf) / np.where(down, dm, 1.0)).argmin(axis=1)
            ok = down[np.arange(active.size), nxt]
            active, cur, nxt = active[ok], cur[ok], nxt[ok]
            blocks.append(active)
            frm.append(cur)
            to.append(nxt)
            cur = nxt
        block, frm, to = np.concatenate(blocks), np.concatenate(frm), np.concatenate(to)
        d_mem = mem[block, to] - mem[block, frm]
        d_cost = cost[block, to] - cost[block, frm]
        order = np.argsort(d_cost / d_mem, kind="stable")
        return cls(
            lam=lam,
            base_cost=np.concatenate((np.cumsum(cost[rows, start][::-1])[::-1], [0.0])),
            base_ratio=float(ratio[rows, start].sum()),
            start=start,
            block=block[order],
            to=to[order],
            d_mem=d_mem[order],
            d_cost=d_cost[order],
            d_ratio=(ratio[block, to] - ratio[block, frm])[order],
        )

    def root(self, spare_mem: float, time_cap: float) -> tuple[float, float]:
        """Lagrangian bound over all blocks and its slope in `lam`.

        `spare_mem` is the budget left after every block's minimum-memory
        point. The slope is the LP solution's summed ratio minus `time_cap`.
        """
        cum_mem, taken = self._taken(spare_mem)
        cost = float(self.base_cost[0]) + float(self.d_cost[:taken].sum())
        ratio = self.base_ratio + float(self.d_ratio[:taken].sum())
        if taken < self.d_mem.size:
            frac = (spare_mem - (cum_mem[taken - 1] if taken else 0.0)) / self.d_mem[taken]
            cost += frac * float(self.d_cost[taken])
            ratio += frac * float(self.d_ratio[taken])
        return (cost - self.lam * time_cap if self.lam else cost), ratio - time_cap

    def _taken(self, spare_mem: float) -> tuple[np.ndarray, int]:
        """Cumulative increment memory, and how many increments fit in full."""
        cum_mem = np.cumsum(self.d_mem)
        return cum_mem, int(np.searchsorted(cum_mem, spare_mem, side="right"))

    def rounded(self, spare_mem: float) -> np.ndarray:
        """Column per block of the root LP solution rounded down.

        Each block takes the hull point its fully bought increments reach;
        the one block bought in part stays at its lower point, so the LP's
        memory row still holds.
        """
        _, taken = self._taken(spare_mem)
        last = np.full(self.start.size, -1)
        np.maximum.at(last, self.block[:taken], np.arange(taken))  # a block's increments come in hull order
        cols = self.start.copy()
        cols[last >= 0] = self.to[last[last >= 0]]
        return cols

    def bound(self, first: int, sel: np.ndarray, spare_mem: np.ndarray, spare_time: np.ndarray) -> np.ndarray:
        """Lower bound on the summed phi of blocks `first`, `first + 1`, ..., per state.

        `sel` indexes the increments of those blocks, `spare_mem` is the
        memory each state leaves beyond their minimum and `spare_time` the
        summed ratio they may still use.
        """
        d_mem, d_cost = self.d_mem[sel], self.d_cost[sel]
        cum_mem = np.concatenate(([0.0], np.cumsum(d_mem)))
        cum_cost = np.concatenate(([0.0], np.cumsum(d_cost)))
        slope = np.concatenate((d_cost / d_mem, [0.0]))
        j = np.searchsorted(cum_mem, spare_mem, side="right") - 1
        value = self.base_cost[first] + cum_cost[j] + (spare_mem - cum_mem[j]) * slope[j]
        if self.lam:
            value -= self.lam * spare_time
        return value


def _best_price(
    mem: np.ndarray, phi: np.ndarray, ratio: np.ndarray, spare_mem: float, time_cap: float, at_zero: tuple[float, float]
) -> tuple[_PricedHulls, float]:
    """The time price that maximizes the root bound, with that bound.

    The bound is concave and piecewise linear in the price, with slope
    (LP summed ratio - time_cap); `at_zero` is (bound, slope) at price 0,
    where the slope is positive. The price grows fourfold until the slope
    turns non-positive. Then the tangent lines at the bracket's two ends are
    intersected: either the bound reaches the intersection, which makes it
    the maximum, or the new point replaces the end whose slope sign it shares.
    """
    finite = np.isfinite(phi)
    lam = max(float(np.ptp(phi[finite])), 1e-12) / max(float(np.ptp(ratio[finite])), 1e-12)
    lo, hi = (0.0, *at_zero), None
    best_table, best = None, -math.inf
    for _ in range(_PRICE_STEPS):
        table = _PricedHulls.build(mem, phi, ratio, lam)
        g, s = table.root(spare_mem, time_cap)
        if g > best:
            best_table, best = table, g
        if hi is not None and g >= lo[1] + lo[2] * (lam - lo[0]) - 1e-12 * max(1.0, abs(g)):
            break
        if s > 0:
            lo = (lam, g, s)
        else:
            hi = (lam, g, s)
        if hi is None:
            lam *= 4.0
            continue
        (l0, g0, s0), (l1, g1, s1) = lo, hi
        lam = (g1 - s1 * l1 - g0 + s0 * l0) / (s0 - s1)
        if not l0 < lam < l1:
            break
    return best_table, best


def _dominated_by_staircase(
    x_a: np.ndarray, x_b: np.ndarray, y_a: np.ndarray, y_b: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Flag each state B that some state A beats by more than OBJECTIVE_SLACK.

    A counts when x_a[A] <= x_b[B] and y_a[A] <= tau <= y_b[B] for one of
    the thresholds tau: -inf and every (F // 16)-th value of sorted y_b.
    Sorting on x_a and one prefix minimum of phi per threshold answer every
    B: O(F log F) time and O(F) memory per threshold, in chunks of at most
    2**18 cells. Pairs with no threshold between their y values are
    missed, which keeps the filter sound but not complete.
    """
    f = phis.size
    order = np.argsort(x_a, kind="stable")
    ends = np.searchsorted(x_a[order], x_b, side="right") - 1
    ys, ps = y_a[order], phis[order]
    taus = np.concatenate(([-np.inf], np.sort(y_b)[:: max(1, f // 16)]))
    bucket = np.searchsorted(taus, y_b, side="right") - 1
    dominated = np.zeros(f, dtype=bool)
    rows = max(1, (1 << 18) // f)
    for lo in range(0, taus.size, rows):
        hi = min(lo + rows, taus.size)
        best = np.minimum.accumulate(np.where(ys <= taus[lo:hi, None], ps, np.inf), axis=1)
        sel = np.flatnonzero((bucket >= lo) & (bucket < hi))
        dominated[sel] = best[bucket[sel] - lo, ends[sel]] < phis[sel] - OBJECTIVE_SLACK
    return dominated


def _undominated(
    mems: np.ndarray, times: np.ndarray, phis: np.ndarray, mem_free: np.ndarray, time_free: np.ndarray
) -> np.ndarray:
    """Mask of states that no other state is found to dominate.

    The states are in lexicographic order of their partial assignments. A
    dominates B when every completion of B is also a completion of A that
    stays within the budgets, and either A's phi is lower by more than
    OBJECTIVE_SLACK, or A's phi is not higher, A uses exactly the same
    memory and time, and A comes first. A state with `mem_free` (`time_free`)
    set fits the memory (time) budget under every completion, so it competes
    on the other resource alone. Removing only dominated states keeps the
    optimum and the tie rule's answer.
    """
    f = phis.size
    keep = np.ones(f, dtype=bool)
    if f < 2:
        return keep
    order = np.lexsort((phis, times, mems))
    m, t = mems[order], times[order]
    group = np.cumsum(np.concatenate(([True], (m[1:] != m[:-1]) | (t[1:] != t[:-1]))))
    key = order - group * (f + 1)  # earlier groups hold larger keys
    keep[order[1:][np.minimum.accumulate(key)[:-1] < key[1:]]] = False
    mem_a = np.where(mem_free, -1, mems)
    time_a = np.where(time_free, -np.inf, times)
    if not mem_free.all():
        keep &= ~_dominated_by_staircase(mem_a, mems, time_a, times, phis)
    if not time_free.all():
        keep &= ~_dominated_by_staircase(time_a, times, mem_a.astype(np.float64), mems.astype(np.float64), phis)
    return keep


class _ParetoDP:
    """The blocks' candidates, the budgets and the LP tables of one problem."""

    def __init__(self, problem: AllocationProblem, arrays: _Arrays):
        n = len(problem.blocks)
        self.n = n
        self.mem_budget = problem.mem_budget
        self.mean_cap = problem.time_budget + TIME_SLACK
        # Time is compared as a summed ratio. Pruning and "fits under every
        # completion" get a relative margin against rounding in the sums;
        # leaves are checked exactly as `solve_bruteforce` checks them.
        self.time_cap = n * self.mean_cap
        self.margin = 1e-9 * max(1.0, abs(self.time_cap)) if math.isfinite(self.time_cap) else 0.0

        self.mems, self.ratios, self.phis = arrays.mems, arrays.ratios, arrays.phis

        def suffix_sums(values: list, dtype) -> np.ndarray:
            return np.concatenate((np.cumsum(np.array(values, dtype=dtype)[::-1])[::-1], np.zeros(1, dtype)))

        self.min_mem = suffix_sums([int(m.min()) for m in self.mems], np.int64)
        self.spare_mem = float(self.mem_budget - self.min_mem[0])  # beyond every block's minimum
        self.max_mem = suffix_sums([int(m.max()) for m in self.mems], np.int64)
        self.min_time = suffix_sums([float(r.min()) for r in self.ratios], np.float64)
        self.max_time = suffix_sums([float(r.max()) for r in self.ratios], np.float64)
        # (blocks, candidates) tables for the LP and the incumbent; padding
        # has infinite memory and phi (no memory in the exact `mem_table`).
        sizes = np.array([p.size for p in self.phis])
        self.valid = np.arange(sizes.max()) < sizes[:, None]
        self.mem_table = np.zeros(self.valid.shape, np.int64)
        self.mem_table[self.valid] = np.concatenate(self.mems)
        self.pad_mem = np.where(self.valid, self.mem_table, np.inf)
        self.pad_phi = np.full(self.valid.shape, np.inf)
        self.pad_phi[self.valid] = np.concatenate(self.phis)
        self.pad_ratio = np.zeros(self.valid.shape)
        self.pad_ratio[self.valid] = np.concatenate(self.ratios)
        self.tables: list[_PricedHulls] = []

    def root_bound(self) -> float:
        """Build the LP tables (price 0, and the best time price when the
        time row binds the LP) and return the larger root bound."""
        table = _PricedHulls.build(self.pad_mem, self.pad_phi, self.pad_ratio, 0.0)
        root, slope = table.root(self.spare_mem, self.time_cap)
        self.tables = [table]
        if math.isfinite(self.time_cap) and slope > 0:
            table, priced = _best_price(self.pad_mem, self.pad_phi, self.pad_ratio, self.spare_mem, self.time_cap, (root, slope))
            self.tables.append(table)
            root = max(root, priced)
        return root

    def incumbent(self) -> tuple[float, np.ndarray] | None:
        """A feasible assignment from the LP tables: (its phi, its column per block).

        Each table's root LP solution is rounded down and then improved by
        `_moved`; the lowest phi wins. None when no rounding can be repaired
        to fit the time row.
        """
        best = None
        for table in self.tables:
            cols = self._moved(table.rounded(self.spare_mem))
            if cols is not None:
                value = float(np.cumsum(self.pad_phi[np.arange(self.n), cols])[-1])  # in block order, as the oracle sums
                if best is None or value < best[0]:
                    best = (value, cols)
        return best

    def _moved(self, cols: np.ndarray) -> np.ndarray | None:
        """`cols` moved one block at a time, greedily, while memory stays within budget.

        While the time row is broken, each move takes a lower-ratio candidate,
        the one whose phi rises least per unit of ratio saved; None when no
        such move is left. Once the row holds, each move takes a lower-phi
        candidate that keeps it, the one whose phi falls most per byte
        added, until none is left. Memory is checked in exact integers and
        time as the leaves check it.
        """
        rows = np.arange(self.n)
        spare = self.mem_budget - int(self.mem_table[rows, cols].sum())
        if spare < 0:
            return None
        while True:
            now = (rows, cols)
            rise = self.pad_phi - self.pad_phi[now][:, None]
            extra = self.mem_table - self.mem_table[now][:, None]
            saved = self.pad_ratio[now][:, None] - self.pad_ratio
            time = np.cumsum(self.pad_ratio[now])[-1]
            over = time / self.n > self.mean_cap
            if over:
                move = self.valid & (extra <= spare) & (saved > 0)
                score = rise / np.where(move, saved, 1.0)
            else:
                move = self.valid & (extra <= spare) & (rise < 0) & (-saved <= self.time_cap - time)
                score = rise / np.maximum(extra, 1)
            if not move.any():
                return None if over else cols
            i, j = np.unravel_index(np.argmin(np.where(move, score, np.inf)), move.shape)
            nxt = cols.copy()
            nxt[i] = j
            if not over and np.cumsum(self.pad_ratio[rows, nxt])[-1] / self.n > self.mean_cap:
                return cols
            spare -= int(extra[i, j])
            cols = nxt

    def run(self, limit: float) -> tuple[tuple[np.ndarray, list] | None, int]:
        """One pass over the blocks, keeping states whose phi plus bound is <= `limit`.

        Returns the leaves' phis in lexicographic order of their assignments
        with per-step (parent, candidate) back-pointers (or None when no leaf
        survives), and the number of states kept.
        """
        n = self.n
        mems = np.zeros(1, dtype=np.int64)
        times = np.zeros(1, dtype=np.float64)
        phis = np.zeros(1, dtype=np.float64)
        back: list[tuple[np.ndarray, np.ndarray]] = []
        kept = 0
        sel = [np.arange(t.block.size) for t in self.tables]
        for d in range(n):
            mem = (mems[:, None] + self.mems[d]).ravel()
            time = (times[:, None] + self.ratios[d]).ravel()
            phi = (phis[:, None] + self.phis[d]).ravel()
            ok = mem <= self.mem_budget - self.min_mem[d + 1]
            if d == n - 1:
                ok &= (time / n <= self.mean_cap) & (phi <= limit)
                idx = np.flatnonzero(ok)
            else:
                ok &= time + self.min_time[d + 1] <= self.time_cap + self.margin
                idx = np.flatnonzero(ok)
                if limit < math.inf:
                    spare_mem = (self.mem_budget - self.min_mem[d + 1] - mem[idx]).astype(np.float64)
                    spare_time = self.time_cap + self.margin - time[idx]
                    bounds = []
                    for t, table in enumerate(self.tables):
                        sel[t] = sel[t][table.block[sel[t]] > d]
                        bounds.append(table.bound(d + 1, sel[t], spare_mem, spare_time))
                    idx = idx[phi[idx] + np.max(bounds, axis=0) <= limit]
                if idx.size > 1:
                    free_mem = mem[idx] + self.max_mem[d + 1] <= self.mem_budget
                    free_time = time[idx] + self.max_time[d + 1] <= self.time_cap - self.margin
                    idx = idx[_undominated(mem[idx], time[idx], phi[idx], free_mem, free_time)]
            if idx.size == 0:
                return None, kept
            back.append(np.divmod(idx, self.phis[d].size))
            mems, times, phis = mem[idx], time[idx], phi[idx]
            kept += idx.size
        return (phis, back), kept

    def choice(self, back: list, leaf: int) -> list[int]:
        """Usable-candidate index per block of the leaf's assignment."""
        choice = [0] * self.n
        for d in range(self.n - 1, -1, -1):
            parent, cand = back[d]
            choice[d] = int(cand[leaf])
            leaf = int(parent[leaf])
        return choice


def solve_exact(problem: AllocationProblem) -> AllocationSolution:
    """Prove the feasible optimum (or infeasibility) with a bounded Pareto DP.

    The blocks are decided in order. A state is a partial assignment with its
    exact integer memory, its summed time ratio and its summed phi. Each step
    extends every state by each of the next block's candidates, then drops a
    state when (a) the undecided blocks cannot fit the memory or time budget
    even at their minimum, (b) its phi plus an LP lower bound on the
    undecided blocks exceeds the cutoff U, or (c) another state dominates it
    (see `_undominated`). The bound is the LP relaxation of the memory row
    over the blocks' convex hulls, with the time row priced by the root
    Lagrangian multiplier; the larger of that and the unpriced bound is used.

    U is the phi of a feasible incumbent (`_ParetoDP.incumbent`): the root
    LP solution of each table rounded down, repaired greedily until the time
    row holds, then moved greedily to lower phi while both budgets hold.
    Every prefix of the optimum has phi plus bound at most the optimum <= U,
    so one round keeps a leaf, and it keeps every leaf within OBJECTIVE_SLACK
    of the optimum. When no rounding can be repaired, U starts just above
    the root bound and grows until a round ends with a leaf whose phi is
    <= U. Every pruned state bounds above U, so a leaf at or below U is
    optimal. Ties break as in `solve_bruteforce`: among feasible assignments
    within OBJECTIVE_SLACK of the optimum, the lexicographically smallest
    (block order, then candidate index). Totals are summed in block order,
    as the oracle sums them. `nodes_explored` counts the DP states kept,
    summed over the cutoff rounds.
    """
    arrays = _usable_arrays(problem)
    n = len(problem.blocks)
    dp = _ParetoDP(problem, arrays)
    if dp.min_mem[0] > problem.mem_budget:
        return _infeasible(
            f"memory budget {problem.mem_budget} below minimum feasible {int(dp.min_mem[0])} bytes"
        )
    if dp.min_time[0] / n > dp.mean_cap:
        return _infeasible(
            f"time budget {problem.time_budget} below minimum feasible mean ratio {dp.min_time[0] / n:.6g}"
        )
    root = dp.root_bound()
    lam = max(t.lam for t in dp.tables)
    scale = max(1.0, lam * abs(dp.time_cap)) if lam else 1.0  # of a bound's terms, for its rounding tolerance
    ceiling = float(sum(float(p.max()) for p in arrays.phis))
    if root > ceiling + 1e-9 * max(scale, abs(ceiling)):
        return _infeasible("no assignment satisfies both budgets")

    nodes = 0
    delta = _FLOOR * (1.0 + abs(root))
    incumbent = dp.incumbent()
    cutoff = incumbent[0] if incumbent is not None else root + delta
    while True:
        if cutoff >= ceiling:
            cutoff = math.inf
        tol = 1e-9 * max(scale, abs(cutoff)) if math.isfinite(cutoff) else 0.0
        leaves, kept = dp.run(cutoff + OBJECTIVE_SLACK + tol)
        nodes += kept
        if leaves is not None:
            phis, back = leaves
            best = float(phis.min())
            if best <= cutoff:
                leaf = int(np.flatnonzero(phis <= best + OBJECTIVE_SLACK)[0])
                return _solution_from_choice(problem, arrays, dp.choice(back, leaf), nodes=nodes)
        if cutoff == math.inf:
            return _infeasible("no assignment satisfies both budgets", nodes=nodes)
        delta = max(delta, cutoff - root) * _GROW
        cutoff = root + delta


@dataclass(frozen=True, slots=True)
class Violation:
    kind: str
    message: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...]
    objective: float
    total_mem: int
    mean_time_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"kind": v.kind, "message": v.message} for v in self.violations],
            "objective": self.objective,
            "total_mem": self.total_mem,
            "mean_time_ratio": self.mean_time_ratio,
        }


def verify(problem: AllocationProblem, solution: AllocationSolution) -> VerificationReport:
    """Recompute totals from scratch and flag every violated contract."""
    violations: list[Violation] = []
    by_id = {b.id: i for i, b in enumerate(problem.blocks)}
    missing = set(by_id) - set(solution.assignment)
    extra = set(solution.assignment) - set(by_id)
    for block_id in sorted(missing):
        violations.append(Violation("coverage", f"block {block_id} has no assigned configuration"))
    for block_id in sorted(extra):
        violations.append(Violation("coverage", f"assignment names unknown block {block_id}"))

    objective = 0.0
    total_mem = 0
    total_r = 0.0
    counted = 0
    for block_id, config in sorted(solution.assignment.items()):
        if block_id not in by_id:
            continue
        i = by_id[block_id]
        if config in problem.excluded[i]:
            violations.append(
                Violation("exclusion", f"block {block_id} uses excluded configuration {config.family}:{config.state_bits}")
            )
            continue
        cand = next((c for c in problem.candidates[i] if c.config == config), None)
        if cand is None:
            violations.append(
                Violation(
                    "unknown-candidate",
                    f"block {block_id} uses {config.family}:{config.state_bits}, not a candidate of this problem",
                )
            )
            continue
        objective += cand.phi
        total_mem += cand.mem_bytes
        total_r += cand.time_ratio
        counted += 1

    mean_ratio = total_r / counted if counted else math.inf
    if counted == len(problem.blocks):
        if total_mem > problem.mem_budget:
            violations.append(
                Violation(
                    "memory",
                    f"total state memory {total_mem} exceeds budget {problem.mem_budget} "
                    f"by {total_mem - problem.mem_budget} bytes",
                )
            )
        if mean_ratio > problem.time_budget + TIME_SLACK:
            violations.append(
                Violation(
                    "time",
                    f"mean update-time ratio {mean_ratio:.6g} exceeds budget {problem.time_budget:.6g}",
                )
            )
        if solution.is_optimal and abs(solution.objective - objective) > 1e-6:
            violations.append(
                Violation(
                    "objective",
                    f"stored objective {solution.objective:.9g} does not match recomputed {objective:.9g}",
                )
            )
    return VerificationReport(
        ok=not violations,
        violations=tuple(violations),
        objective=objective,
        total_mem=total_mem,
        mean_time_ratio=mean_ratio,
    )


def build_problem(
    blocks: Sequence,
    metrics: Mapping[int, RawMetrics],
    anchors: Anchors = Anchors(),
    weights: RiskWeights = RiskWeights(),
    cost_model: CostModel | None = None,
    budget_ratio: float = 0.5,
    time_budget: float = 1.3,
    gamma: float = 0.1,
    policy: CandidatePolicy = DEFAULT_POLICY,
    exclude: Iterable[str] = (),
    prefer: Iterable[str] = (),
    signals: Mapping[int, RiskSignals] | None = None,
) -> AllocationProblem:
    """Assemble the allocation problem from block descriptors and metrics.

    The memory budget is `budget_ratio` times the AdamW16 state bytes of the
    whole block list, rounded to integer bytes. `exclude`/`prefer` take
    family[:bits] selectors; excluded configurations are removed from the
    candidate lists and recorded per block. `signals` may be passed directly
    to bypass metric normalization (block id -> RiskSignals).
    """
    if not blocks:
        raise AllocationBuildError("need at least one block")
    if not budget_ratio > 0:
        raise AllocationBuildError(f"budget ratio must be positive, got {budget_ratio}")
    cost_model = cost_model or CostModel.static_default(policy)

    descriptors = [  # ProblemBlock or trace.BlockSpec
        b if isinstance(b, ProblemBlock) else ProblemBlock(id=b.id, name=b.name, shapes=(b.shape,)) for b in blocks
    ]

    baseline = sum(state_bytes(ADAMW16, s) for d in descriptors for s in d.shapes)
    mem_budget = int(round(budget_ratio * baseline))

    # Selectors are matched once, on the policy grid; each block's grid is a
    # subset of it, and phi never sees a preferred configuration outside it.
    full_grid = policy_grid(policy)
    banned_any = expand_selectors(exclude, full_grid)
    weights = replace(weights, pref_set=weights.pref_set | expand_selectors(prefer, full_grid))

    per_block_candidates: list[tuple[Candidate, ...]] = []
    per_block_excluded: list[frozenset[Configuration]] = []
    for d in descriptors:
        grid = enumerate_candidates_multi(d.shapes, policy)
        if signals is not None:
            block_signals = signals[d.id]
        else:
            try:
                block_signals = signals_from_metrics(metrics[d.id], anchors)
            except KeyError:
                raise AllocationBuildError(f"no metrics available for block {d.id}") from None
        banned = banned_any.intersection(grid)
        per_block_candidates.append(
            tuple(
                Candidate(
                    config=cfg,
                    phi=phi(cfg, block_signals, weights, gamma),
                    mem_bytes=sum(state_bytes(cfg, s) for s in d.shapes),
                    time_ratio=cost_model.ratio(cfg),
                )
                for cfg in grid
                if cfg not in banned
            )
        )
        per_block_excluded.append(banned)

    return AllocationProblem(
        blocks=tuple(descriptors),
        candidates=tuple(per_block_candidates),
        mem_budget=mem_budget,
        time_budget=time_budget,
        excluded=tuple(per_block_excluded),
    )


def problem_to_json_dict(problem: AllocationProblem) -> dict:
    return {
        "B_mem": problem.mem_budget,
        "B_time": problem.time_budget,
        "blocks": [
            {
                "id": b.id,
                "name": b.name,
                "dims_list": [list(s.dims) for s in b.shapes],
                "candidates": [
                    {
                        "config": c.config.to_json_dict(),
                        "phi": c.phi,
                        "mem_bytes": c.mem_bytes,
                        "time_ratio": c.time_ratio,
                    }
                    for c in cands
                ],
                "excluded": [c.to_json_dict() for c in sorted(banned, key=Configuration.sort_key)],
            }
            for b, cands, banned in zip(problem.blocks, problem.candidates, problem.excluded)
        ],
    }


def _json_list(value: object, key: str) -> list:
    """The value of `key`, checked to be a list."""
    if not isinstance(value, list):
        raise ValueError(f"'{key}' must be a list, got {type(value).__name__}")
    return value


def _json_objects(d: object, key: str) -> list[dict]:
    """The list `d[key]` of a JSON object `d`, checked to hold objects."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    entries = _json_list(d[key], key)
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{key}[{i}] must be an object, got {type(entry).__name__}")
    return entries


def _field(d: dict, key: str, parse):
    """`parse(d[key])`; a bad value raises a ValueError that names the key."""
    value = d[key]
    try:
        return parse(value)
    except KeyError as exc:
        raise ValueError(f"{key!r} has no {exc} key") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key!r}: {exc}") from None


@contextmanager
def _naming(where: str) -> Iterator[None]:
    """Re-raise malformed content of one document entry as a ValueError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{where} has no {exc} key") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def problem_from_json_dict(d: dict) -> AllocationProblem:
    """The document `problem_to_json_dict` writes; a ValueError names the
    key or entry that is malformed."""
    blocks = []
    candidates = []
    excluded = []
    for i, entry in enumerate(_json_objects(d, "blocks")):
        with _naming(f"blocks[{i}]"):
            block_id = _field(entry, "id", json_int)
            blocks.append(
                ProblemBlock(
                    id=block_id,
                    name=str(entry.get("name", f"block{block_id}")),
                    shapes=tuple(BlockShape.from_json(dims) for dims in _json_list(entry.get("dims_list", []), "dims_list")),
                )
            )
            rows = []
            for k, c in enumerate(_json_objects(entry, "candidates")):
                with _naming(f"candidates[{k}]"):
                    rows.append(
                        Candidate(
                            config=_field(c, "config", Configuration.from_json_dict),
                            phi=_field(c, "phi", float),
                            mem_bytes=_field(c, "mem_bytes", json_int),
                            time_ratio=_field(c, "time_ratio", float),
                        )
                    )
            candidates.append(tuple(rows))
            excluded.append(frozenset(Configuration.from_json_dict(c) for c in _json_list(entry.get("excluded", []), "excluded")))
    return AllocationProblem(
        blocks=tuple(blocks),
        candidates=tuple(candidates),
        mem_budget=_field(d, "B_mem", json_int),
        time_budget=_field(d, "B_time", float),
        excluded=tuple(excluded),
    )


def plan_to_json_dict(problem: AllocationProblem, solution: AllocationSolution) -> dict:
    """Spec'd plan document for an optimal solution."""
    if not solution.is_optimal:
        raise ValueError("plans are emitted for optimal solutions only")
    block_rows = []
    for i, block in enumerate(problem.blocks):
        config = solution.assignment[block.id]
        cand = next(c for c in problem.candidates[i] if c.config == config)
        block_rows.append(
            {
                "id": block.id,
                "name": block.name,
                "config": config.to_json_dict(),
                "phi": cand.phi,
                "mem_bytes": cand.mem_bytes,
                "time_ratio": cand.time_ratio,
            }
        )
    return {
        "status": solution.status,
        "objective": solution.objective,
        "B_mem": problem.mem_budget,
        "total_mem": solution.total_mem,
        "B_time": problem.time_budget,
        "mean_time_ratio": solution.mean_time_ratio,
        "blocks": block_rows,
    }


def solution_from_plan_dict(d: dict) -> AllocationSolution:
    """Rehydrate a solution (claimed totals included) from a plan document;
    ValueError naming the key or entry when it is malformed."""
    assignment = {}
    for i, row in enumerate(_json_objects(d, "blocks")):
        with _naming(f"blocks[{i}]"):
            assignment[_field(row, "id", json_int)] = _field(row, "config", Configuration.from_json_dict)
    return AllocationSolution(
        status=str(d.get("status", "optimal")),
        assignment=assignment,
        objective=_field(d, "objective", float),
        total_mem=_field(d, "total_mem", json_int),
        mean_time_ratio=_field(d, "mean_time_ratio", float),
    )
