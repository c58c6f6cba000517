"""Budget-constrained assignment of one configuration per block.

The problem: pick exactly one candidate configuration for every block so that
total state memory stays within an integer byte budget and the mean relative
update-time ratio stays within a time budget, minimizing the summed objective
terms. Memory is compared in exact integer arithmetic; objectives are floats
with a 1e-9 comparison slack.

An `AllocationProblem` holds the candidates as one padded (blocks x columns)
table: each block's configuration tuple names its columns, and float64 phi,
int64 state bytes and float64 time ratio arrays hold their costs. An excluded
configuration is never a column. `build_problem` fills the table in
array passes over blocks x the candidate grid; the solvers, `verify` and the
plan document read it directly. `Candidate` objects are a view, built only
when `AllocationProblem.candidates` is read.

Two solvers are provided. `solve_bruteforce` exhaustively enumerates small
instances and is the testing oracle. `solve_exact` is a forward dynamic
program over the blocks that reads the problem's table columns. It keeps
only partial assignments that one sweep in memory order finds no other one
to dominate in (memory, time, objective) (Nemhauser & Ullmann, 1969), and
prunes by the LP relaxation of the memory-budgeted multiple-choice knapsack
with a Lagrangian price on the time budget (Sinha & Zoltners, 1979). Its cutoff
is the phi of a feasible incumbent, that LP's solution rounded down and
repaired to fit, so one pass proves the optimum; without an incumbent the
pass has no cutoff. Before the pass, reduced-cost fixing (Dyer, Kayal &
Walker, 1984) drops every candidate whose Lagrangian bound, with its block
fixed to it, exceeds the cutoff. It proves optimality or infeasibility on
any instance, with no recursion. Both return the lexicographically
smallest assignment among those within the slack of the optimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config_space import GRID, BlockShape, Configuration, CostModel, state_bytes_table
from .diagnostics import RawMetrics
from .documents import json_int, json_number, json_number_or_inf, json_str, read, read_list
from .risk import Anchors, RiskSignals, RiskWeights, expand_selectors, phi_table, signals_from_metrics

OBJECTIVE_SLACK = 1e-9
TIME_SLACK = 1e-12
# Evaluations of the root bound while searching for the best time price.
_PRICE_STEPS = 64
# The price search stops once the root bound is within this much phi of its
# maximum. It is absolute: a relative stop lets the bound fall short by an
# amount that grows with N, and the DP pays for every bit of it. At N = 723
# (memory 0.5, time 0.9) a stop at 1e-3 * |root| left the root 0.055 low and
# the solve kept 13.6 M states against 5.7 M.
_PRICE_GAP = 1e-3
# The bound and dominance passes skip a DP front of at most this many
# states: on fronts this small their numpy calls cost more than the states
# they remove. solve_exact alone on the 459 `sweep` seed-0 problems, three
# interleaved passes on a shared 2-CPU Xeon host: pruning every front gives
# p50 1815 us with 35,421 states kept; skipping fronts of <= 16 / 64 / 256 /
# 1024 states gives 1240 / 753 / 719 / 801 us with 49,372 / 96,996 / 217,867
# / 541,680 states.
_SMALL_FRONT = 64


class AllocationBuildError(ValueError):
    """The problem cannot be constructed as requested."""


@dataclass(frozen=True, slots=True)
class Candidate:
    """One configuration for a block with its cost row: a row entry for
    `AllocationProblem.from_candidates`, and one column of a problem's table
    in the `AllocationProblem.candidates` view."""

    config: Configuration
    phi: float
    mem_bytes: int
    time_ratio: float


@dataclass(frozen=True, slots=True)
class ProblemBlock:
    """Block descriptor; a block may cover several parameter tensors."""

    id: int
    name: str
    shapes: tuple[BlockShape, ...] = ()


@dataclass(frozen=True, eq=False)
class AllocationProblem:
    """One configuration per block to choose, as a (blocks, columns) table.

    Column j of block i is the configuration `configs[i][j]`, with its
    objective term `phi[i, j]`, its exact state bytes `mem[i, j]` and its
    update-time ratio `ratio[i, j]`. Beyond a block's configurations the
    table is padded with phi inf, memory 0 and ratio 0, whatever the given
    tables hold there; `column_mask`, set at construction, marks the
    columns that are not padding. `excluded[i]` records the configurations
    block i may not take; none of them is a column, and `verify` flags a
    plan that uses one. The constructor stores read-only copies of the
    three tables. Equality compares the content.
    """

    blocks: tuple[ProblemBlock, ...]
    configs: tuple[tuple[Configuration, ...], ...]
    phi: np.ndarray
    mem: np.ndarray
    ratio: np.ndarray
    mem_budget: int
    time_budget: float
    excluded: tuple[frozenset[Configuration], ...] = ()
    column_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.blocks)
        if math.isnan(self.time_budget):  # every comparison with NaN is false, so no plan would break it
            raise AllocationBuildError("time budget must be a number, got NaN")
        if len(self.configs) != n:
            raise ValueError("need one configuration tuple per block")
        if not self.excluded:
            object.__setattr__(self, "excluded", (frozenset(),) * n)
        if len(self.excluded) != n:
            raise ValueError("need one exclusion set per block")
        ids = [b.id for b in self.blocks]
        if len(set(ids)) != n:
            dup = next(i for k, i in enumerate(ids) if i in ids[:k])
            raise AllocationBuildError(f"duplicate block id {dup}")
        for block, row, banned in zip(self.blocks, self.configs, self.excluded):
            if not row:
                raise AllocationBuildError(f"block {block.id}: all candidates excluded")
            if banned and not banned.isdisjoint(row):
                c = min(banned.intersection(row), key=Configuration.sort_key)
                raise ValueError(f"block {block.id}: {c.family}:{c.state_bits} is both a candidate and excluded")
        sizes = [len(row) for row in self.configs]
        width = max(sizes, default=0)
        valid = np.arange(width) < np.array(sizes, dtype=np.int64).reshape(n, 1)
        valid.flags.writeable = False
        object.__setattr__(self, "column_mask", valid)
        for name, dtype, pad in (("phi", np.float64, np.inf), ("mem", np.int64, 0), ("ratio", np.float64, 0.0)):
            table = getattr(self, name)
            if table.shape != (n, width) or table.dtype != dtype:
                raise ValueError(f"{name} must be a ({n}, {width}) {np.dtype(dtype).name} array")
            table = np.where(valid, table, pad)
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        checks = (
            ("candidate memory must be non-negative", self.mem >= 0),
            ("candidate time ratio must be positive", self.ratio > 0),
            ("candidate objective term must be finite", np.isfinite(self.phi)),
        )
        bad = valid & ~(checks[0][1] & checks[1][1] & checks[2][1])
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            message = next(message for message, ok in checks if not ok[i, j])
            raise ValueError(f"blocks[{i}]: candidates[{j}]: {message}")

    @classmethod
    def from_candidates(
        cls,
        blocks: Sequence[ProblemBlock],
        candidates: Sequence[Sequence[Candidate]],
        mem_budget: int,
        time_budget: float,
        excluded: Sequence[frozenset[Configuration]] = (),
    ) -> "AllocationProblem":
        """The problem whose block i has the candidate row `candidates[i]`
        without the configurations `excluded[i]` (default: none) names."""
        if len(candidates) != len(blocks):
            raise ValueError("need one candidate list per block")
        n = len(blocks)
        excluded = tuple(excluded) or (frozenset(),) * n
        if len(excluded) != n:
            raise ValueError("need one exclusion set per block")
        candidates = [[c for c in row if c.config not in banned] for row, banned in zip(candidates, excluded)]
        configs = tuple(tuple(c.config for c in row) for row in candidates)
        sizes = np.array(list(map(len, configs)), dtype=np.int64).reshape(n, 1)
        valid = np.arange(max(map(len, configs), default=0)) < sizes
        flat = [c for row in candidates for c in row]
        phi = np.full(valid.shape, np.inf)
        mem = np.zeros(valid.shape, np.int64)
        ratio = np.zeros(valid.shape)
        phi[valid] = [c.phi for c in flat]
        try:
            mem[valid] = [c.mem_bytes for c in flat]
        except OverflowError:
            raise ValueError("candidate memory must fit in 64-bit integers") from None
        ratio[valid] = [c.time_ratio for c in flat]
        return cls(
            blocks=tuple(blocks),
            configs=configs,
            phi=phi,
            mem=mem,
            ratio=ratio,
            mem_budget=mem_budget,
            time_budget=time_budget,
            excluded=excluded,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationProblem):
            return NotImplemented
        return (
            self.blocks == other.blocks
            and self.configs == other.configs
            and self.mem_budget == other.mem_budget
            and self.time_budget == other.time_budget
            and self.excluded == other.excluded
            and all(np.array_equal(getattr(self, name), getattr(other, name)) for name in ("phi", "mem", "ratio"))
        )

    __hash__ = None  # the tables are arrays

    @functools.cached_property
    def candidates(self) -> tuple[tuple[Candidate, ...], ...]:
        """Each block's configurations with their cost rows; built on first access."""
        phi, mem, ratio = self.phi.tolist(), self.mem.tolist(), self.ratio.tolist()
        return tuple(
            tuple(Candidate(*cell) for cell in zip(row, phi[i], mem[i], ratio[i])) for i, row in enumerate(self.configs)
        )

    def usable(self, i: int) -> list[tuple[int, Candidate]]:
        """The candidates of block i with their column indices."""
        return list(enumerate(self.candidates[i]))

    def min_feasible_mem(self) -> int:
        least = np.where(self.column_mask, self.mem, np.iinfo(np.int64).max).min(axis=1)
        return sum(least.tolist())


@dataclass(frozen=True)
class AllocationSolution:
    status: str  # "optimal" or "infeasible"
    assignment: dict[int, Configuration]
    objective: float
    total_mem: int
    mean_time_ratio: float
    # solve_exact: DP states kept in its one round; solve_bruteforce:
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


def _solution(problem: AllocationProblem, cols: Sequence[int], nodes: int) -> AllocationSolution:
    """The solution taking table column `cols[i]` of block i; totals are
    summed in block order."""
    rows = np.arange(len(problem.blocks))
    cols = np.asarray(cols, dtype=np.int64)
    objective, total_r = 0.0, 0.0
    for value in problem.phi[rows, cols].tolist():
        objective += value
    for value in problem.ratio[rows, cols].tolist():
        total_r += value
    return AllocationSolution(
        status="optimal",
        assignment={b.id: row[j] for b, row, j in zip(problem.blocks, problem.configs, cols.tolist())},
        objective=objective,
        total_mem=sum(problem.mem[rows, cols].tolist()),
        mean_time_ratio=total_r / len(rows),
        nodes_explored=nodes,
    )


def solve_bruteforce(problem: AllocationProblem, max_assignments: int = 10**7) -> AllocationSolution:
    """Exhaustive oracle: feasible minimum of the summed objective.

    Ties within the 1e-9 slack break toward the lexicographically smallest
    assignment (by block order, then candidate index).
    """
    n = len(problem.blocks)
    # Digit k of block i names its column k.
    sizes = [len(row) for row in problem.configs]
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
            obj += problem.phi[i, digit]
            mem += problem.mem[i, digit]
            ratio += problem.ratio[i, digit]
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
            return _solution(problem, [(flat // int(strides[i])) % sizes[i] for i in range(n)], nodes=total)
    raise RuntimeError("unreachable: feasible minimum vanished between passes")


@dataclass(frozen=True)
class _PricedHulls:
    """LP relaxation of the memory row at one time price `lam`.

    Each block's candidates become points (memory, phi + lam * ratio). The LP
    relaxation of choosing one point per block under a memory budget starts
    every block at its minimum-memory point (`base_*`, column `start`) and
    then buys hull increments in order of cost per byte (`d_*`, sorted by
    slope, the increments of every block merged; `block` names the owner of
    each and `to` the column it moves that block to). With the problem's
    `spare_mem`, the LP buys the first `taken` increments in full and the
    fraction `frac` of the next one; `mu` is the memory price, minus that
    increment's slope (0 when every increment fits).
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
    spare_mem: float
    taken: int
    frac: float
    mu: float

    @classmethod
    def build(cls, mem: np.ndarray, phi: np.ndarray, ratio: np.ndarray, lam: float, spare_mem: float) -> "_PricedHulls":
        """Lower convex hulls of all blocks at once, by vectorized gift wrapping,
        and the root LP's cut at `spare_mem`, the budget left after every
        block's minimum-memory point.

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
        d_mem, d_cost = d_mem[order], d_cost[order]
        cum_mem = np.cumsum(d_mem)
        taken = int(np.searchsorted(cum_mem, spare_mem, side="right"))
        frac, mu = 0.0, 0.0
        if taken < d_mem.size:
            frac = float((spare_mem - (cum_mem[taken - 1] if taken else 0.0)) / d_mem[taken])
            mu = -float(d_cost[taken] / d_mem[taken])
        return cls(
            lam=lam,
            base_cost=np.concatenate((np.cumsum(cost[rows, start][::-1])[::-1], [0.0])),
            base_ratio=float(ratio[rows, start].sum()),
            start=start,
            block=block[order],
            to=to[order],
            d_mem=d_mem,
            d_cost=d_cost,
            d_ratio=(ratio[block, to] - ratio[block, frm])[order],
            spare_mem=spare_mem,
            taken=taken,
            frac=frac,
            mu=mu,
        )

    def root(self, time_cap: float) -> tuple[float, float]:
        """Lagrangian bound over all blocks and its slope in `lam`.

        The slope is the LP solution's summed ratio minus `time_cap`.
        """
        taken = self.taken
        cost = float(self.base_cost[0]) + float(self.d_cost[:taken].sum())
        ratio = self.base_ratio + float(self.d_ratio[:taken].sum())
        if self.frac:
            cost += self.frac * float(self.d_cost[taken])
            ratio += self.frac * float(self.d_ratio[taken])
        return (cost - self.lam * time_cap if self.lam else cost), ratio - time_cap

    def column_bounds(self, mem: np.ndarray, phi: np.ndarray, ratio: np.ndarray, time_cap: float) -> np.ndarray:
        """Lagrangian bound with each block fixed to each column, as a (blocks, columns) array.

        The prices are `lam` on time and `mu` on memory. With red = phi +
        lam * ratio + mu * (memory beyond the block's minimum), the bound at
        the root is L = sum of each block's least red - mu * `spare_mem` -
        lam * `time_cap`, which is `root`'s; fixing block i to column j adds
        red[i, j] minus block i's least red. Memory counts from each block's
        minimum, so mu never multiplies a large byte total. `mem` is the
        int64 table with padding 0; padding has infinite phi.
        """
        rows = np.arange(mem.shape[0])
        red = phi + self.mu * (mem - mem[rows, self.start][:, None])
        if self.lam:  # time_cap may be inf, and 0 * inf is nan
            red += self.lam * ratio
        least = red.min(axis=1)
        root = float(least.sum()) - self.mu * self.spare_mem - (self.lam * time_cap if self.lam else 0.0)
        return root + (red - least[:, None])

    def rounded(self) -> np.ndarray:
        """Column per block of the root LP solution rounded down.

        Each block takes the hull point its fully bought increments reach;
        the one block bought in part stays at its lower point, so the LP's
        memory row still holds.
        """
        last = np.full(self.start.size, -1)
        np.maximum.at(last, self.block[: self.taken], np.arange(self.taken))  # a block's increments come in hull order
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


def _rounding(lam: float, time_cap: float, value: float) -> float:
    """How far a root bound at time price `lam` may pass `value` by rounding alone."""
    scale = max(1.0, lam * abs(time_cap)) if lam else 1.0  # of the bound's terms; time_cap may be inf at price 0
    return 1e-9 * max(scale, abs(value))


def _best_price(
    mem: np.ndarray,
    phi: np.ndarray,
    ratio: np.ndarray,
    spare_mem: float,
    time_cap: float,
    at_zero: tuple[float, float],
    ceiling: float,
) -> tuple[_PricedHulls, float, list[_PricedHulls]]:
    """A time price whose root bound is within `_PRICE_GAP` of the largest:
    its table, that bound, and the tables at the two ends of the final price
    bracket.

    The bound is concave and piecewise linear in the price, with slope
    (LP summed ratio - time_cap); `at_zero` is (bound, slope) at price 0,
    where the slope is positive.

    - Start at an eighth of ptp(phi) / ptp(ratio), the price at which the
      whole spread of ratios is worth the whole spread of phi. That price
      itself overshoots: over 242 `sweep`-shaped problems the maximum sits
      at 0.001-0.46 of it, with median 0.11.
    - While the slope stays positive, go where the line through the last
      two slopes reaches 0, at 2 to 16 times the current price.
    - Once a point with a non-positive slope brackets the maximum, go where
      the tangent lines at the bracket's two ends meet (Kelley, 1960); the
      point there replaces the end whose slope sign it shares.
    - The height where those tangents meet bounds the maximum from above.
      Stop once it is within `_PRICE_GAP` of the best bound found.
    - Stop as soon as the best bound passes `ceiling`, the sum of each
      block's largest usable phi, by more than `_rounding`: no assignment
      fits the budgets then, and `solve_exact` says so from that bound.
      On such a problem the slope never turns and the bound grows without
      limit, so without this stop the search takes every step.

    Any price gives a valid Lagrangian lower bound, and the DP keeps every
    assignment whose phi plus bound is within its limit. So where the search
    stops changes how much the DP prunes, never its answer or the tie
    rule's. The maximum sits on a kink, where the LP has two solutions; the
    bracket's ends hold one each (the price-0 end has no table here), and
    `_ParetoDP.incumbent` rounds both.
    """
    finite = np.isfinite(phi)
    lam = max(float(np.ptp(phi[finite])), 1e-12) / max(float(np.ptp(ratio[finite])), 1e-12) / 8.0
    lo, hi = (0.0, *at_zero, None), None
    best_table, best, top = None, -math.inf, math.inf
    for _ in range(_PRICE_STEPS):
        table = _PricedHulls.build(mem, phi, ratio, lam, spare_mem)
        g, s = table.root(time_cap)
        if g > best:
            best_table, best = table, g
        if best >= top - _PRICE_GAP or best > ceiling + _rounding(best_table.lam, time_cap, ceiling):
            break
        if s <= 0:
            hi = (lam, g, s, table)
        elif hi is None:
            l0, s0 = lo[0], lo[2]
            zero = lam + s * (lam - l0) / (s0 - s) if s0 > s else math.inf
            lo, lam = (lam, g, s, table), min(max(zero, 2.0 * lam), 16.0 * lam)
            continue
        else:
            lo = (lam, g, s, table)
        (l0, g0, s0, _), (l1, g1, s1, _) = lo, hi
        lam = (g1 - s1 * l1 - g0 + s0 * l0) / (s0 - s1)
        top = g0 + s0 * (lam - l0)
        if not l0 < lam < l1 or best >= top - _PRICE_GAP:
            break
    ends = [end[3] for end in (lo, hi) if end is not None and end[3] is not None]
    return best_table, best, ends


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

    Two passes look for dominators. The first groups the states of equal
    memory and time and keeps the first of least phi in each group. The
    second is one sweep in memory order: A beats B when its memory (-1 if
    free) is at most B's, its phi is lower by more than OBJECTIVE_SLACK, and
    its time (-inf if free) <= tau <= B's time for one of the thresholds
    tau: -inf and every (F // 16)-th of the sorted times. One prefix minimum
    of phi per threshold answers every B: O(F log F) time and O(F) memory
    per threshold, in chunks of at most 2**18 cells. Pairs with no threshold
    between their times are missed, which keeps the filter sound but not
    complete.
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
    order = np.argsort(mem_a, kind="stable")
    ends = np.searchsorted(mem_a[order], mems, side="right") - 1
    time_a, phi_a = np.where(time_free, -np.inf, times)[order], phis[order]
    taus = np.concatenate(([-np.inf], np.sort(times)[:: max(1, f // 16)]))
    bucket = np.searchsorted(taus, times, side="right") - 1
    rows = max(1, (1 << 18) // f)
    for lo in range(0, taus.size, rows):
        hi = min(lo + rows, taus.size)
        best = np.minimum.accumulate(np.where(time_a <= taus[lo:hi, None], phi_a, np.inf), axis=1)
        sel = np.flatnonzero((bucket >= lo) & (bucket < hi))
        keep[sel] &= best[bucket[sel] - lo, ends[sel]] >= phis[sel] - OBJECTIVE_SLACK
    return keep


class _ParetoDP:
    """The blocks' candidates, the budgets and the LP tables of one problem."""

    def __init__(self, problem: AllocationProblem):
        n = len(problem.blocks)
        self.n = n
        self.mem_budget = problem.mem_budget
        self.mean_cap = problem.time_budget + TIME_SLACK
        # Time is compared as a summed ratio. Pruning and "fits under every
        # completion" get a relative margin against rounding in the sums;
        # leaves are checked exactly as `solve_bruteforce` checks them.
        self.time_cap = n * self.mean_cap
        self.margin = 1e-9 * max(1.0, abs(self.time_cap)) if math.isfinite(self.time_cap) else 0.0

        # The problem's (blocks, columns) tables, whose padding holds phi
        # infinite and memory and ratio 0; `pad_mem` is the memory table for
        # the LP, infinite in the padding.
        self.problem = problem
        self.valid = valid = problem.column_mask
        self.pad_mem = np.where(valid, problem.mem, np.inf)
        # No assignment has more phi than each block's largest, summed.
        self.ceiling = float(sum(np.where(valid, problem.phi, -np.inf).max(axis=1).tolist()))

        def suffix_sums(values: np.ndarray) -> np.ndarray:
            return np.concatenate((np.cumsum(values[::-1])[::-1], np.zeros(1, values.dtype)))

        self.min_mem = suffix_sums(np.where(valid, problem.mem, np.iinfo(np.int64).max).min(axis=1))
        self.spare_mem = float(self.mem_budget - self.min_mem[0])  # beyond every block's minimum
        self.max_mem = suffix_sums(problem.mem.max(axis=1))
        self.min_time = suffix_sums(np.where(valid, problem.ratio, np.inf).min(axis=1))
        self.max_time = suffix_sums(problem.ratio.max(axis=1))
        self.tables: list[_PricedHulls] = []  # bound the DP's states
        self.bracket: list[_PricedHulls] = []  # only rounded for the incumbent
        self.column_bound = np.zeros_like(problem.phi)  # the tables' largest bound with a block fixed to a column

    def root_bound(self) -> float:
        """Build the LP tables (price 0, and `_best_price`'s when the time
        row binds the LP), fill `column_bound` from them and return the
        larger root bound. The column bounds take the time cap with the
        margin, as the states' bounds do."""
        phi, ratio = self.problem.phi, self.problem.ratio
        table = _PricedHulls.build(self.pad_mem, phi, ratio, 0.0, self.spare_mem)
        root, slope = table.root(self.time_cap)
        self.tables, self.bracket = [table], []
        if math.isfinite(self.time_cap) and slope > 0:
            table, priced, self.bracket = _best_price(
                self.pad_mem, phi, ratio, self.spare_mem, self.time_cap, (root, slope), self.ceiling
            )
            self.tables.append(table)
            root = max(root, priced)
        cap = self.time_cap + self.margin
        self.column_bound = np.max(
            [t.column_bounds(self.problem.mem, phi, ratio, cap) for t in self.tables],
            axis=0,
        )
        return root

    def incumbent(self) -> tuple[float, np.ndarray] | None:
        """A feasible assignment from the LP tables: (its phi, its column per block).

        The root LP solution of each table, and of the tables at the ends of
        the final price bracket, is rounded down and then improved by
        `_moved`; the lowest phi wins. None when no rounding can be repaired
        to fit the time row.
        """
        best = None
        tried: list[np.ndarray] = []
        for table in self.tables + self.bracket:
            start = table.rounded()
            if any(np.array_equal(start, other) for other in tried):
                continue
            tried.append(start)
            cols = self._moved(start)
            if cols is not None:
                value = float(np.cumsum(self.problem.phi[np.arange(self.n), cols])[-1])  # in block order, as the oracle sums
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
        mem, phi, ratio = self.problem.mem, self.problem.phi, self.problem.ratio
        rows = np.arange(self.n)
        spare = self.mem_budget - int(mem[rows, cols].sum())
        if spare < 0:
            return None
        while True:
            now = (rows, cols)
            rise = phi - phi[now][:, None]
            extra = mem - mem[now][:, None]
            saved = ratio[now][:, None] - ratio
            time = np.cumsum(ratio[now])[-1]
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
            if not over and np.cumsum(ratio[rows, nxt])[-1] / self.n > self.mean_cap:
                return cols
            spare -= int(extra[i, j])
            cols = nxt

    def run(self, limit: float) -> tuple[tuple[np.ndarray, list] | None, int]:
        """One pass over the blocks, keeping states whose phi plus bound is <= `limit`.

        First, reduced-cost fixing: a column whose `column_bound` exceeds
        `limit` is dropped, since every assignment through it has phi above
        the limit. One stable sort moves each block's remaining columns to
        the front in table order, so the states stay in lexicographic order.
        The bound and the dominance pass each run only on a front of more
        than `_SMALL_FRONT` states; a smaller one is carried unpruned. Both
        passes only remove states, and the leaves check the limit, so this
        keeps the optimum and the tie rule's answer.
        Returns the leaves' phis in that order with per-step (parent, table
        column) back-pointers (or None when no leaf survives), and the
        number of states kept, the unpruned ones included.
        """
        n = self.n
        keep = self.valid & (self.column_bound <= limit)
        sizes = keep.sum(axis=1).tolist()
        if 0 in sizes:
            return None, 0
        cols = np.argsort(~keep, axis=1, kind="stable")
        mem_sorted, ratio_sorted, phi_sorted = (
            np.take_along_axis(t, cols, axis=1) for t in (self.problem.mem, self.problem.ratio, self.problem.phi)
        )
        mems = np.zeros(1, dtype=np.int64)
        times = np.zeros(1, dtype=np.float64)
        phis = np.zeros(1, dtype=np.float64)
        back: list[tuple[np.ndarray, np.ndarray]] = []
        kept = 0
        sel = [np.arange(t.block.size) for t in self.tables]
        for d in range(n):
            k = sizes[d]
            mem = (mems[:, None] + mem_sorted[d, :k]).ravel()
            time = (times[:, None] + ratio_sorted[d, :k]).ravel()
            phi = (phis[:, None] + phi_sorted[d, :k]).ravel()
            ok = mem <= self.mem_budget - self.min_mem[d + 1]
            if d == n - 1:
                ok &= (time / n <= self.mean_cap) & (phi <= limit)
                idx = np.flatnonzero(ok)
            else:
                ok &= time + self.min_time[d + 1] <= self.time_cap + self.margin
                idx = np.flatnonzero(ok)
                # One column moves every state alike, and a small front is
                # carried as it is; a later block's passes see its states.
                if k > 1 and idx.size > _SMALL_FRONT and limit < math.inf:
                    spare_mem = (self.mem_budget - self.min_mem[d + 1] - mem[idx]).astype(np.float64)
                    spare_time = self.time_cap + self.margin - time[idx]
                    bounds = []
                    for t, table in enumerate(self.tables):
                        sel[t] = sel[t][table.block[sel[t]] > d]
                        bounds.append(table.bound(d + 1, sel[t], spare_mem, spare_time))
                    idx = idx[phi[idx] + np.max(bounds, axis=0) <= limit]
                if k > 1 and idx.size > _SMALL_FRONT:
                    free_mem = mem[idx] + self.max_mem[d + 1] <= self.mem_budget
                    free_time = time[idx] + self.max_time[d + 1] <= self.time_cap - self.margin
                    idx = idx[_undominated(mem[idx], time[idx], phi[idx], free_mem, free_time)]
            if idx.size == 0:
                return None, kept
            back.append((idx // k, cols[d, idx % k]))
            mems, times, phis = mem[idx], time[idx], phi[idx]
            kept += idx.size
        return (phis, back), kept

    def choice(self, back: list, leaf: int) -> list[int]:
        """Table column per block of the leaf's assignment."""
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
    over the blocks' convex hulls, with the time row priced by a Lagrangian
    multiplier; the larger of that and the unpriced bound is used. The
    multiplier's root bound is within `_PRICE_GAP` of the best one
    (`_best_price`); any multiplier gives a valid bound, so one short of the
    best only prunes less.

    The one pass starts with reduced-cost fixing. At each LP table's time
    price and its root memory price, the Lagrangian bound with block i fixed
    to candidate j is the root bound plus j's reduced cost above block i's
    least; j is dropped when that exceeds the pass's limit, U plus the slack,
    for either table. Every assignment through a dropped candidate has phi
    above the limit, so the optimum and the tie rule's answer stay. The
    remaining candidates keep their order, and a block left with one
    candidate extends every state without the bound and dominance tests.
    So does a front of at most `_SMALL_FRONT` states: (b) and (c) only
    remove states, and on small fronts they cost more than they save.

    U is the phi of a feasible incumbent (`_ParetoDP.incumbent`): the root
    LP solution of each table, and of the tables at both ends of the final
    price bracket, rounded down, repaired greedily until the time row holds,
    then moved greedily to lower phi while both budgets hold.
    Every prefix of the optimum has phi plus bound at most the optimum <= U,
    so the round keeps a leaf, and it keeps every leaf within OBJECTIVE_SLACK
    of the optimum; a round at U that keeps no leaf cannot happen. When no
    rounding can be repaired, U is infinite: fixing and the bound keep
    everything and dominance alone prunes, so the round keeps a leaf
    exactly when the problem is feasible. Ties break as in
    `solve_bruteforce`: among feasible assignments within OBJECTIVE_SLACK of
    the optimum, the lexicographically smallest (block order, then
    candidate index). Totals are summed in block order, as the oracle sums
    them. `nodes_explored` counts the DP states kept in the round, the ones
    carried unpruned included.
    """
    n = len(problem.blocks)
    dp = _ParetoDP(problem)
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
    if root > dp.ceiling + _rounding(lam, dp.time_cap, dp.ceiling):
        return _infeasible("no assignment satisfies both budgets")

    incumbent = dp.incumbent()
    limit = math.inf
    if incumbent is not None:
        limit = incumbent[0] + OBJECTIVE_SLACK + _rounding(lam, dp.time_cap, incumbent[0])
    leaves, nodes = dp.run(limit)
    if leaves is None:
        if incumbent is not None:
            raise RuntimeError("unreachable: the round at the incumbent's cutoff kept no leaf")
        return _infeasible("no assignment satisfies both budgets", nodes=nodes)
    phis, back = leaves
    leaf = int(np.flatnonzero(phis <= phis.min() + OBJECTIVE_SLACK)[0])
    return _solution(problem, dp.choice(back, leaf), nodes=nodes)


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


def _column(configs: tuple[Configuration, ...], config: Configuration) -> int | None:
    """Column of `config` within a block's configuration tuple, or None."""
    try:
        return configs.index(config)
    except ValueError:
        return None


def verify(problem: AllocationProblem, solution: AllocationSolution) -> VerificationReport:
    """Recompute totals from scratch and flag every violated contract.

    Memory is checked over the assigned blocks even when the plan misses
    some, since their state can only add to it; the time budget and the
    stored objective are checked when every block is assigned.
    """
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
        j = _column(problem.configs[i], config)
        if j is None:
            violations.append(
                Violation(
                    "unknown-candidate",
                    f"block {block_id} uses {config.family}:{config.state_bits}, not a candidate of this problem",
                )
            )
            continue
        objective += float(problem.phi[i, j])
        total_mem += int(problem.mem[i, j])
        total_r += float(problem.ratio[i, j])
        counted += 1

    mean_ratio = total_r / counted if counted else math.inf
    if total_mem > problem.mem_budget:
        violations.append(
            Violation(
                "memory",
                f"total state memory {total_mem} exceeds budget {problem.mem_budget} "
                f"by {total_mem - problem.mem_budget} bytes",
            )
        )
    if counted == len(problem.blocks):
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
    exclude: Iterable[str] = (),
    prefer: Iterable[str] = (),
    signals: Mapping[int, RiskSignals] | None = None,
) -> AllocationProblem:
    """Assemble the allocation problem from block descriptors and metrics.

    The memory budget is `budget_ratio` times the AdamW16 state bytes of the
    whole block list, rounded to integer bytes. `exclude`/`prefer` take
    family[:bits] selectors; excluded configurations are removed from the
    candidate lists and recorded per block, and are the one way to narrow
    the grid. `signals` may be passed directly to bypass metric
    normalization (block id -> RiskSignals).

    The table is filled in array passes over blocks x candidate grid (phi,
    state bytes, ratio) and then gathered into each block's columns: the
    unexcluded grid, without the factorized configurations when one of the
    block's shapes cannot factorize.
    """
    if not blocks:
        raise AllocationBuildError("need at least one block")
    if not 0 < budget_ratio < math.inf:
        raise AllocationBuildError(f"budget ratio must be positive and finite, got {budget_ratio}")
    cost_model = cost_model or CostModel.static_default()

    descriptors = [  # ProblemBlock or trace.BlockSpec
        b if isinstance(b, ProblemBlock) else ProblemBlock(id=b.id, name=b.name, shapes=(b.shape,)) for b in blocks
    ]

    # Selectors are matched once, on the candidate grid; each block's grid is
    # a subset of it, and phi never sees a preferred configuration outside it.
    banned = expand_selectors(exclude, GRID.configs)
    keep = np.array([c not in banned for c in GRID.configs], dtype=bool)
    prefer = tuple(prefer)
    if prefer:
        weights = replace(weights, pref_set=weights.pref_set | expand_selectors(prefer, GRID.configs))

    block_signals, params, whole, factors = [], [], [], []
    for d in descriptors:
        if not d.shapes:
            raise AllocationBuildError(f"block {d.id} has no shapes")
        if signals is not None:
            block_signals.append(signals[d.id])
        else:
            try:
                block_signals.append(signals_from_metrics(metrics[d.id], anchors))
            except KeyError:
                raise AllocationBuildError(f"no metrics available for block {d.id}") from None
        # Factorized columns need every shape to factorize; `factors` is
        # then the block's summed factor-vector length, else 0.
        whole.append(all(s.supports_factorized for s in d.shapes))
        params.append(sum(s.param_count for s in d.shapes))
        factors.append(sum(s.factor_length for s in d.shapes) if whole[-1] else 0)
    total = sum(params)
    # No configuration stores more than AdamW32's two 4-byte tensors per
    # parameter, so this bounds every sum of state bytes the solver forms.
    if 8 * total > np.iinfo(np.int64).max:
        raise AllocationBuildError(f"state memory of {total} parameters overflows 64-bit integers")
    mem_budget = int(round(budget_ratio * (4 * total)))  # AdamW16: two 2-byte tensors per parameter

    # The grid columns a block takes, keyed by whether it factorizes.
    cols = {f: np.flatnonzero(keep & (f | ~GRID.factorized)) for f in set(whole)}
    configs = {f: tuple(GRID.configs[j] for j in c.tolist()) for f, c in cols.items()}
    excluded = {True: banned, False: frozenset(c for c in banned if not c.factorized)}
    width = max(c.size for c in cols.values())
    factorizes = np.array(whole, dtype=bool).reshape(-1, 1)
    index = np.zeros((len(whole), width), dtype=np.int64)  # grid column of each table column
    for f, c in cols.items():
        index[factorizes[:, 0] == f, : c.size] = c
    used = keep & (factorizes | ~GRID.factorized)
    rows = np.arange(len(whole)).reshape(-1, 1)
    phi = phi_table(block_signals, weights, gamma, used)[rows, index]
    mem = state_bytes_table(np.array(params, dtype=np.int64), np.array(factors, dtype=np.int64))[rows, index]
    ratio = cost_model.ratio_row(used.any(axis=0))[index]
    return AllocationProblem(
        blocks=tuple(descriptors),
        configs=tuple(configs[f] for f in whole),
        phi=phi,
        mem=mem,
        ratio=ratio,
        mem_budget=mem_budget,
        time_budget=time_budget,
        excluded=tuple(excluded[f] for f in whole),
    )


def problem_to_json_dict(problem: AllocationProblem) -> dict:
    phi, mem, ratio = problem.phi.tolist(), problem.mem.tolist(), problem.ratio.tolist()
    return {
        "B_mem": problem.mem_budget,
        "B_time": problem.time_budget,
        "blocks": [
            {
                "id": b.id,
                "name": b.name,
                "dims_list": [list(s.dims) for s in b.shapes],
                "candidates": [
                    {"config": c.to_json_dict(), "phi": p, "mem_bytes": m, "time_ratio": r}
                    for c, p, m, r in zip(row, phi[i], mem[i], ratio[i])
                ],
                "excluded": [c.to_json_dict() for c in sorted(banned, key=Configuration.sort_key)],
            }
            for i, (b, row, banned) in enumerate(zip(problem.blocks, problem.configs, problem.excluded))
        ],
    }


def problem_from_json_dict(d: dict) -> AllocationProblem:
    """The document `problem_to_json_dict` writes, read by the rules of
    `baoc.documents`; a ValueError names the key or entry that is malformed.
    `B_time` may be Infinity, which `allocate --time-budget inf` writes."""
    rows = read_list(d, "blocks", _problem_row)
    return AllocationProblem.from_candidates(
        blocks=tuple(block for block, _, _ in rows),
        candidates=tuple(candidates for _, candidates, _ in rows),
        mem_budget=read(d, "B_mem", json_int),
        time_budget=read(d, "B_time", json_number_or_inf),
        excluded=tuple(banned for _, _, banned in rows),
    )


def _problem_row(entry: object) -> tuple[ProblemBlock, tuple[Candidate, ...], frozenset[Configuration]]:
    """One `blocks` entry of a problem document: the block, its candidates and its excluded set."""
    block_id = read(entry, "id", json_int)
    name = read(entry, "name", json_str, f"block{block_id}")
    shapes = tuple(read_list(entry, "dims_list", BlockShape.from_json, []))
    return (
        ProblemBlock(block_id, name, shapes),
        tuple(read_list(entry, "candidates", _candidate)),
        frozenset(read_list(entry, "excluded", Configuration.from_json_dict, [])),
    )


def _candidate(c: object) -> Candidate:
    return Candidate(
        config=read(c, "config", Configuration.from_json_dict),
        phi=read(c, "phi", json_number),
        mem_bytes=read(c, "mem_bytes", json_int),
        time_ratio=read(c, "time_ratio", json_number),
    )


def plan_to_json_dict(problem: AllocationProblem, solution: AllocationSolution) -> dict:
    """Spec'd plan document for an optimal solution."""
    if not solution.is_optimal:
        raise ValueError("plans are emitted for optimal solutions only")
    block_rows = []
    for i, block in enumerate(problem.blocks):
        config = solution.assignment[block.id]
        j = problem.configs[i].index(config)
        block_rows.append(
            {
                "id": block.id,
                "name": block.name,
                "config": config.to_json_dict(),
                "phi": float(problem.phi[i, j]),
                "mem_bytes": int(problem.mem[i, j]),
                "time_ratio": float(problem.ratio[i, j]),
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
    return AllocationSolution(
        status=read(d, "status", json_str, "optimal"),
        assignment=dict(read_list(d, "blocks", _assigned)),
        objective=read(d, "objective", json_number),
        total_mem=read(d, "total_mem", json_int),
        mean_time_ratio=read(d, "mean_time_ratio", json_number),
    )


def _assigned(row: object) -> tuple[int, Configuration]:
    return read(row, "id", json_int), read(row, "config", Configuration.from_json_dict)
