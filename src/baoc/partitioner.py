"""Structure-guided block partitioning refined by diagnostic differences.

Model structure proposes candidate units in forward order; warmup diagnostics
decide which adjacent units stay separate. Units below the minimum size merge
into their statistically closest neighbor, adjacent units stay apart only
when their signal difference clears a threshold (the upper quartile of all
pairwise differences by default), and oversized merges are re-split where
internal statistics are clearly separated.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config_space import BlockShape
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
    return float(np.max(w * np.abs(a - b)))


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
    m = len(units)
    if m < 2:
        return 0.0
    w = np.asarray(params.weights, dtype=np.float64)
    deltas = [
        float(np.max(w * np.abs(z[i] - z[j]))) for i in range(m) for j in range(i + 1, m)
    ]
    return float(np.quantile(np.asarray(deltas), 0.75))


@dataclass
class _Group:
    unit_idx: list[int]
    size: int
    z: np.ndarray  # parameter-weighted mean signal of the member units


def _merge(a: _Group, b: _Group) -> _Group:
    size = a.size + b.size
    z = (a.z * a.size + b.z * b.size) / size
    return _Group(unit_idx=a.unit_idx + b.unit_idx, size=size, z=z)


def _fold_undersized(groups: list[_Group], n_min: float, w: np.ndarray) -> None:
    """Merge the first group below `n_min` into its statistically closest
    adjacent neighbor (ties go to the preceding one) until none is left, in
    place; a lone group stays as it is."""

    def delta(a: _Group, b: _Group) -> float:
        return float(np.max(w * np.abs(a.z - b.z)))

    while len(groups) > 1:
        pos = next((k for k, g in enumerate(groups) if g.size < n_min), None)
        if pos is None:
            return
        prev_delta = delta(groups[pos - 1], groups[pos]) if pos > 0 else math.inf
        next_delta = delta(groups[pos], groups[pos + 1]) if pos + 1 < len(groups) else math.inf
        if prev_delta <= next_delta:
            groups[pos - 1 : pos + 1] = [_merge(groups[pos - 1], groups[pos])]
        else:
            groups[pos : pos + 2] = [_merge(groups[pos], groups[pos + 1])]


def partition(
    units: Sequence[StructuralUnit],
    unit_signals: Mapping[int, RiskSignals],
    params: PartitionParams = PartitionParams(),
    total_params: int | None = None,
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
    if total_params is None:
        total_params = sum(u.param_count for u in units)
    n_min = params.alpha * total_params
    tau = compute_tau(units, unit_signals, params)

    def unit_delta(i: int, j: int) -> float:
        return float(np.max(w * np.abs(z[i] - z[j])))

    groups = [
        _Group(unit_idx=[i], size=units[i].param_count, z=z[i].copy()) for i in range(len(units))
    ]

    _fold_undersized(groups, n_min, w)

    # Adjacent groups stay separate only when the units flanking the gap
    # differ by more than tau and both sides meet the minimum size.
    kept = [groups[0]]
    for g in groups[1:]:
        left = kept[-1]
        gap = unit_delta(left.unit_idx[-1], g.unit_idx[0])
        if gap > tau and left.size >= n_min and g.size >= n_min:
            kept.append(g)
        else:
            kept[-1] = _merge(left, g)

    # Re-split merges that buried a clear internal statistic change, greedily
    # so every resulting piece still meets the minimum size.
    pieces: list[_Group] = []
    for g in kept:
        start = 0
        acc_size = 0
        sub: list[_Group] = []
        for k in range(len(g.unit_idx)):
            acc_size += units[g.unit_idx[k]].param_count
            if k + 1 == len(g.unit_idx):
                break
            gap = unit_delta(g.unit_idx[k], g.unit_idx[k + 1])
            remaining = g.size - sum(units[i].param_count for i in g.unit_idx[: k + 1])
            if gap > tau and acc_size >= n_min and remaining >= n_min:
                idx = g.unit_idx[start : k + 1]
                zz = np.average(z[idx], axis=0, weights=[units[i].param_count for i in idx])
                sub.append(_Group(unit_idx=list(idx), size=acc_size, z=zz))
                start = k + 1
                acc_size = 0
        idx = g.unit_idx[start:]
        zz = np.average(z[idx], axis=0, weights=[units[i].param_count for i in idx])
        sub.append(_Group(unit_idx=list(idx), size=sum(units[i].param_count for i in idx), z=zz))
        pieces.extend(sub)

    # Safety net: fold any sub-minimum remnant into its closest neighbor.
    _fold_undersized(pieces, n_min, w)

    return [[units[i].id for i in g.unit_idx] for g in pieces]


def load_model_description(path: str | Path) -> list[StructuralUnit]:
    """Read structural units from a model description file.

    Schema: {"units": [{"id", "name", "dims", "kind"?, "layer"?, "position"?}]}.
    Units are returned in file order, which must follow the forward structure;
    the optional keys are accepted and ignored.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or "units" not in raw:
        raise ValueError("model description must be an object with a 'units' list")
    out = []
    for entry in raw["units"]:
        out.append(
            StructuralUnit(
                id=int(entry["id"]),
                name=str(entry["name"]),
                shape=BlockShape(tuple(int(x) for x in entry["dims"])),
            )
        )
    return out


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
        name = members[0].name if len(members) == 1 else f"{members[0].name}..{members[-1].name}"
        rows.append(
            {
                "id": i,
                "name": name,
                "unit_ids": list(unit_ids),
                "param_count": sum(m.param_count for m in members),
            }
        )
    return {"alpha": params.alpha, "tau": tau, "blocks": rows}
