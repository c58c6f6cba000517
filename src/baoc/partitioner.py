"""Structure-guided block partitioning refined by diagnostic differences.

Model structure proposes candidate units in forward order; warmup diagnostics
decide which adjacent units stay separate. Every distance is the weighted
maximum component difference between two partition signal vectors
(`_difference`); the differences between neighboring units are computed once,
as one vector. `partition` then makes three passes:

1. fold: each group below the minimum size (alpha times the total parameter
   count) merges into the adjacent group with the closest parameter-weighted
   mean signal, scanning left to right;
2. adjacent folded groups stay apart only when the units flanking the gap
   differ by more than tau (by default the upper quartile of all pairwise
   unit differences, from `compute_tau`);
3. each merged run is re-split greedily where neighboring units differ by
   more than tau and both sides still meet the minimum size.

After the fold every group meets the minimum size or is the only group, so
every output block does too.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config_space import BlockShape
from .documents import json_int, json_str, load, read, read_list
from .risk import RiskSignals

UPPER_QUARTILE = "upper_quartile"


@dataclass(frozen=True, slots=True)
class StructuralUnit:
    """One candidate unit from the model's forward structure."""

    id: int
    name: str
    shape: BlockShape

    @property
    def param_count(self) -> int:
        return self.shape.param_count


@dataclass(frozen=True, slots=True)
class PartitionParams:
    """Minimum block-size ratio, threshold policy, and per-metric weights."""

    alpha: float = 0.01
    tau: float | str = UPPER_QUARTILE
    weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if isinstance(self.tau, str) and self.tau != UPPER_QUARTILE:
            raise ValueError(f"tau must be a number or {UPPER_QUARTILE!r}")
        if any(w < 0 for w in self.weights):
            raise ValueError("metric weights must be non-negative")


def _difference(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted maximum component difference along the last axis; the one
    rule behind every distance the partitioner compares."""
    return np.max(w * np.abs(a - b), axis=-1)


def pairwise_difference(
    z_a: Sequence[float], z_b: Sequence[float], weights: Sequence[float] | None = None
) -> float:
    """Weighted maximum component difference between two signal vectors."""
    a = np.asarray(z_a, dtype=np.float64)
    b = np.asarray(z_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("signal vectors must have matching lengths")
    w = np.ones_like(a) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != a.shape:
        raise ValueError("weights must match the signal vector length")
    return float(_difference(a, b, w))


def _signal_matrix(
    units: Sequence[StructuralUnit], unit_signals: Mapping[int, RiskSignals]
) -> np.ndarray:
    rows = []
    for u in units:
        try:
            rows.append(unit_signals[u.id].partition_vector())
        except KeyError:
            raise ValueError(f"no signals for unit {u.id}") from None
    return np.asarray(rows, dtype=np.float64)


def compute_tau(
    units: Sequence[StructuralUnit],
    unit_signals: Mapping[int, RiskSignals],
    params: PartitionParams = PartitionParams(),
) -> float:
    """Threshold actually used: fixed value, or the upper quartile of all
    pairwise differences among candidate units."""
    if not isinstance(params.tau, str):
        return float(params.tau)
    z = _signal_matrix(units, unit_signals)
    if len(units) < 2:
        return 0.0
    w = np.asarray(params.weights, dtype=np.float64)
    deltas = np.concatenate([_difference(z[i], z[i + 1 :], w) for i in range(len(z) - 1)])
    return float(np.quantile(deltas, 0.75))


def _fold_undersized(z: np.ndarray, sizes: Sequence[int], n_min: float, w: np.ndarray) -> list[int]:
    """Start from one group per unit and merge the first group below `n_min`
    into its statistically closest adjacent neighbor (ties go to the preceding
    one; a group at either end takes its only neighbor) until none is left or
    one group remains. Distances are taken between the groups'
    parameter-weighted mean signals. Returns each group's first unit index."""
    starts = list(range(len(sizes)))
    sizes = list(sizes)
    means = list(z)
    pos = 0  # groups before `pos` meet the minimum and never change again
    while len(sizes) > 1:
        while pos < len(sizes) and sizes[pos] >= n_min:
            pos += 1
        if pos == len(sizes):
            break
        if pos + 1 == len(sizes) or (
            pos > 0
            and _difference(means[pos - 1], means[pos], w) <= _difference(means[pos], means[pos + 1], w)
        ):
            pos -= 1
        size = sizes[pos] + sizes[pos + 1]
        means[pos : pos + 2] = [(means[pos] * sizes[pos] + means[pos + 1] * sizes[pos + 1]) / size]
        sizes[pos : pos + 2] = [size]
        del starts[pos + 1]
    return starts


def partition(
    units: Sequence[StructuralUnit],
    unit_signals: Mapping[int, RiskSignals],
    params: PartitionParams = PartitionParams(),
) -> list[list[int]]:
    """Group candidate units into final blocks (lists of unit ids, in order).

    Output blocks are contiguous over the unit ordering, disjoint, cover all
    units, and each meets the minimum size unless a single block is the only
    way to do so.
    """
    if not units:
        raise ValueError("need at least one unit")
    ids = [u.id for u in units]
    if len(set(ids)) != len(ids):
        raise ValueError("unit ids must be unique")
    z = _signal_matrix(units, unit_signals)
    w = np.asarray(params.weights, dtype=np.float64)
    sizes = [u.param_count for u in units]
    n_min = params.alpha * sum(sizes)
    tau = compute_tau(units, unit_signals, params)
    # split[k]: units k and k + 1 differ by more than tau.
    split = (_difference(z[:-1], z[1:], w) > tau).tolist()

    # After the fold every group meets the minimum (or is the only one), so
    # adjacent groups stay separate exactly when their flanking units differ
    # by more than tau.
    starts = _fold_undersized(z, sizes, n_min, w)
    cuts = [s for s in starts[1:] if split[s - 1]]

    # Re-split each run where a clear internal statistic change was buried,
    # greedily, so that both sides of every cut meet the minimum size.
    blocks: list[list[int]] = []
    for lo, hi in zip([0, *cuts], [*cuts, len(units)]):
        start, acc, rest = lo, 0, sum(sizes[lo:hi])
        for k in range(lo, hi - 1):
            acc += sizes[k]
            rest -= sizes[k]
            if split[k] and acc >= n_min and rest >= n_min:
                blocks.append(ids[start : k + 1])
                start, acc = k + 1, 0
        blocks.append(ids[start:hi])
    return blocks


def load_model_description(path: str | Path) -> list[StructuralUnit]:
    """Read structural units from a model description file.

    Schema: {"units": [{"id", "name", "dims", "kind"?, "layer"?, "position"?}]}.
    Units are returned in file order, which must follow the forward structure;
    the optional keys are accepted and ignored. `id` and `dims` must hold
    integers and `name` a string; a malformed value or a missing key raises
    ValueError naming the file and the unit.
    """
    return load(path, "model description", lambda d: read_list(d, "units", _unit))


def _unit(entry: object) -> StructuralUnit:
    return StructuralUnit(
        id=read(entry, "id", json_int), name=read(entry, "name", json_str), shape=read(entry, "dims", BlockShape.from_json)
    )


def block_name(member_names: Sequence[str]) -> str:
    """Name of a block: its one member's name, or `first..last` for a merge."""
    if len(member_names) == 1:
        return member_names[0]
    return f"{member_names[0]}..{member_names[-1]}"


def partition_to_json_dict(
    units: Sequence[StructuralUnit],
    blocks: list[list[int]],
    params: PartitionParams,
    tau: float,
) -> dict:
    by_id = {u.id: u for u in units}
    rows = []
    for i, unit_ids in enumerate(blocks):
        members = [by_id[uid] for uid in unit_ids]
        rows.append(
            {
                "id": i,
                "name": block_name([m.name for m in members]),
                "unit_ids": list(unit_ids),
                "param_count": sum(m.param_count for m in members),
            }
        )
    return {"alpha": params.alpha, "tau": tau, "blocks": rows}
