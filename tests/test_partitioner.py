import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from baoc.config_space import BlockShape
from baoc.partitioner import (
    PartitionParams,
    StructuralUnit,
    compute_tau,
    load_model_description,
    pairwise_difference,
    partition,
    partition_to_json_dict,
)
from baoc.risk import RiskSignals


def sig(geometry, momentum=0.5, distortion=0.3, structure=0.2):
    return RiskSignals(geometry=geometry, momentum=momentum, distortion=distortion,
                       structure=structure, precision={32: 0.0})


def make_units(values, sizes=None):
    sizes = sizes or [10_000] * len(values)
    units, signals = [], {}
    for i, (v, n) in enumerate(zip(values, sizes)):
        units.append(StructuralUnit(id=i, name=f"u{i}", shape=BlockShape((n,))))
        signals[i] = sig(v)
    return units, signals


TWO_CLUSTERS = [0.13, 0.12, 0.11, 0.10, 0.90, 0.89, 0.88, 0.87]


# Reference partitioner: the earlier group-object implementation, kept only
# to pin `partition` and `compute_tau` to the same blocks and the same tau.


def reference_compute_tau(units, unit_signals, params):
    if not isinstance(params.tau, str):
        return float(params.tau)
    z = np.asarray([unit_signals[u.id].partition_vector() for u in units], dtype=np.float64)
    m = len(units)
    if m < 2:
        return 0.0
    deltas = [
        float(np.max(np.abs(z[i] - z[j]))) for i in range(m) for j in range(i + 1, m)
    ]
    return float(np.quantile(np.asarray(deltas), 0.75))


@dataclass
class _RefGroup:
    unit_idx: list
    size: int
    z: np.ndarray


def _ref_merge(a, b):
    size = a.size + b.size
    return _RefGroup(unit_idx=a.unit_idx + b.unit_idx, size=size, z=(a.z * a.size + b.z * b.size) / size)


def _ref_fold_undersized(groups, n_min):
    def delta(a, b):
        return float(np.max(np.abs(a.z - b.z)))

    while len(groups) > 1:
        pos = next((k for k, g in enumerate(groups) if g.size < n_min), None)
        if pos is None:
            return
        prev_delta = delta(groups[pos - 1], groups[pos]) if pos > 0 else math.inf
        next_delta = delta(groups[pos], groups[pos + 1]) if pos + 1 < len(groups) else math.inf
        if prev_delta <= next_delta:
            groups[pos - 1 : pos + 1] = [_ref_merge(groups[pos - 1], groups[pos])]
        else:
            groups[pos : pos + 2] = [_ref_merge(groups[pos], groups[pos + 1])]


def reference_partition(units, unit_signals, params):
    z = np.asarray([unit_signals[u.id].partition_vector() for u in units], dtype=np.float64)
    n_min = params.alpha * sum(u.param_count for u in units)
    tau = reference_compute_tau(units, unit_signals, params)

    def unit_delta(i, j):
        return float(np.max(np.abs(z[i] - z[j])))

    groups = [_RefGroup(unit_idx=[i], size=units[i].param_count, z=z[i].copy()) for i in range(len(units))]
    _ref_fold_undersized(groups, n_min)
    kept = [groups[0]]
    for g in groups[1:]:
        left = kept[-1]
        gap = unit_delta(left.unit_idx[-1], g.unit_idx[0])
        if gap > tau and left.size >= n_min and g.size >= n_min:
            kept.append(g)
        else:
            kept[-1] = _ref_merge(left, g)
    pieces = []
    for g in kept:
        start = 0
        acc_size = 0
        sub = []
        for k in range(len(g.unit_idx)):
            acc_size += units[g.unit_idx[k]].param_count
            if k + 1 == len(g.unit_idx):
                break
            gap = unit_delta(g.unit_idx[k], g.unit_idx[k + 1])
            remaining = g.size - sum(units[i].param_count for i in g.unit_idx[: k + 1])
            if gap > tau and acc_size >= n_min and remaining >= n_min:
                idx = g.unit_idx[start : k + 1]
                zz = np.average(z[idx], axis=0, weights=[units[i].param_count for i in idx])
                sub.append(_RefGroup(unit_idx=list(idx), size=acc_size, z=zz))
                start = k + 1
                acc_size = 0
        idx = g.unit_idx[start:]
        zz = np.average(z[idx], axis=0, weights=[units[i].param_count for i in idx])
        sub.append(_RefGroup(unit_idx=list(idx), size=sum(units[i].param_count for i in idx), z=zz))
        pieces.extend(sub)
    _ref_fold_undersized(pieces, n_min)
    return [[units[i].id for i in g.unit_idx] for g in pieces]


def random_partition_case(rng):
    """Units, signals and params drawn to hit ties, near-ties, mixed unit
    sizes, small to large alpha and every tau mode."""
    m = int(rng.integers(1, 25))
    signal_kind = int(rng.integers(0, 4))
    if signal_kind == 0:
        values = rng.random((m, 4))
    elif signal_kind == 1:  # rounded: many exact ties
        values = np.round(rng.random((m, 4)), 1)
    elif signal_kind == 2:  # near-identical
        values = 0.5 + rng.random((m, 4)) * 1e-12
    else:  # a few levels
        values = rng.choice([0.0, 0.25, 0.5, 1.0], size=(m, 4))
    size_kind = int(rng.integers(0, 3))
    if size_kind == 0:
        sizes = rng.integers(1, 5000, m)
    elif size_kind == 1:  # tiny and huge units mixed
        sizes = np.where(rng.random(m) < 0.5, rng.integers(1, 20, m), rng.integers(10**6, 10**8, m))
    else:
        sizes = np.full(m, 1000)
    alpha = float(np.exp(rng.uniform(np.log(0.001), np.log(0.6))))
    tau = ("upper_quartile", 0.0, float(rng.random() * 0.6))[int(rng.integers(0, 3))]
    units = [
        StructuralUnit(id=3 * i + 1, name=f"u{i}", shape=BlockShape((int(n),))) for i, n in enumerate(sizes)
    ]
    signals = {
        u.id: RiskSignals(geometry=float(v[0]), momentum=float(v[1]), distortion=float(v[2]),
                          structure=float(v[3]), precision={32: 0.0})
        for u, v in zip(units, values)
    }
    return units, signals, PartitionParams(alpha=alpha, tau=tau)


class TestPairwiseDifference:
    def test_identical_is_zero(self):
        assert pairwise_difference((0.3, 0.4), (0.3, 0.4)) == 0.0

    def test_max_component(self):
        assert pairwise_difference((0.9, 0.1), (0.1, 0.1)) == pytest.approx(0.8, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_difference((1.0,), (1.0, 2.0))


class TestPartition:
    def test_two_clusters_split_exactly_once(self):
        units, signals = make_units(TWO_CLUSTERS)
        blocks = partition(units, signals, PartitionParams(alpha=0.01))
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7]]

    def test_identical_signals_one_block(self):
        units, signals = make_units([0.5] * 8)
        assert partition(units, signals, PartitionParams(alpha=0.01)) == [[0, 1, 2, 3, 4, 5, 6, 7]]

    def test_tiny_unit_merges_into_closest_cluster(self):
        # Tiny unit 4 carries the right cluster's signal; it must join it.
        values = [0.13, 0.12, 0.11, 0.10, 0.90, 0.90, 0.89, 0.88, 0.87]
        sizes = [10_000] * 4 + [50] + [10_000] * 4
        units, signals = make_units(values, sizes)
        blocks = partition(units, signals, PartitionParams(alpha=0.01))
        assert blocks == [[0, 1, 2, 3], [4, 5, 6, 7, 8]]

    @pytest.mark.parametrize("tiny_value,expected", [(0.85, [[0], [1, 2]]), (0.15, [[0, 1], [2]])])
    def test_merge_target_is_delta_closest(self, tiny_value, expected):
        units, signals = make_units([0.1, tiny_value, 0.9], [10_000, 50, 10_000])
        blocks = partition(units, signals, PartitionParams(alpha=0.01, tau=0.5))
        assert blocks == expected

    def test_single_unit(self):
        units, signals = make_units([0.4])
        assert partition(units, signals) == [[0]]

    def test_disjoint_ordered_cover(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 15))
            values = rng.random(m).tolist()
            sizes = [int(rng.integers(10, 5000)) for _ in range(m)]
            units, signals = make_units(values, sizes)
            alpha = float(rng.uniform(0.01, 0.5))
            blocks = partition(units, signals, PartitionParams(alpha=alpha))
            flattened = [uid for block in blocks for uid in block]
            assert flattened == list(range(m))  # disjoint cover in original order

    def test_min_size_respected_or_single_block(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            m = int(rng.integers(2, 12))
            values = rng.random(m).tolist()
            sizes = [int(rng.integers(10, 5000)) for _ in range(m)]
            units, signals = make_units(values, sizes)
            total = sum(sizes)
            alpha = float(rng.uniform(0.02, 0.4))
            blocks = partition(units, signals, PartitionParams(alpha=alpha))
            if len(blocks) > 1:
                for block in blocks:
                    assert sum(sizes[uid] for uid in block) >= alpha * total

    def test_alpha_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            m = int(rng.integers(3, 12))
            values = rng.random(m).tolist()
            sizes = [int(rng.integers(50, 5000)) for _ in range(m)]
            units, signals = make_units(values, sizes)
            counts = [
                len(partition(units, signals, PartitionParams(alpha=alpha)))
                for alpha in (0.01, 0.05, 0.1, 0.2, 0.4)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    @pytest.mark.parametrize(
        "values,sizes,expected",
        [
            # The tiny first unit is infinitely far from its only neighbor.
            ([math.inf, 0.1, 0.9], [10, 10_000, 10_000], [[0, 1], [2]]),
            # The tiny last unit is a NaN distance (inf - inf) from its only neighbor.
            ([0.1, math.inf, math.inf], [10_000, 10_000, 10], [[0], [1, 2]]),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value encountered in subtract:RuntimeWarning")
    def test_undersized_end_unit_merges_inward_at_degenerate_distance(self, values, sizes, expected):
        units, signals = make_units(values, sizes)
        params = PartitionParams(alpha=0.01, tau=0.5)
        assert partition(units, signals, params) == expected

    def test_duplicate_ids_rejected(self):
        u = StructuralUnit(id=0, name="a", shape=BlockShape((10,)))
        with pytest.raises(ValueError, match="unique"):
            partition([u, u], {0: sig(0.5)})

    def test_missing_signals_rejected(self):
        units, signals = make_units([0.5, 0.6])
        del signals[1]
        with pytest.raises(ValueError, match="no signals for unit 1"):
            partition(units, signals)


class TestMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_blocks_and_tau_as_reference(self, seed):
        rng = np.random.default_rng(9000 + seed)
        for _ in range(500):
            units, signals, params = random_partition_case(rng)
            assert compute_tau(units, signals, params) == reference_compute_tau(units, signals, params)
            assert partition(units, signals, params) == reference_partition(units, signals, params)


class TestParamsAndTau:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            PartitionParams(alpha=0.0)
        with pytest.raises(ValueError):
            PartitionParams(alpha=1.0)
        with pytest.raises(ValueError):
            PartitionParams(tau="median")

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_tau_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="tau must be a finite number"):
            PartitionParams(tau=tau)

    def test_fixed_tau(self):
        units, signals = make_units([0.1, 0.9])
        assert compute_tau(units, signals, PartitionParams(tau=0.42)) == 0.42

    def test_upper_quartile_tau(self):
        units, signals = make_units(TWO_CLUSTERS)
        tau = compute_tau(units, signals, PartitionParams())
        deltas = sorted(
            abs(a - b) for i, a in enumerate(TWO_CLUSTERS) for b in TWO_CLUSTERS[i + 1 :]
        )
        assert tau == pytest.approx(float(np.quantile(deltas, 0.75)), abs=1e-12)


class TestModelDescription:
    def test_load_and_report(self, tmp_path):
        desc = {
            "units": [
                {"id": 0, "name": "l0.attn", "dims": [64, 64], "kind": "attention", "layer": 0},
                {"id": 1, "name": "l0.ffn", "dims": [64, 256], "kind": "ffn", "layer": 0},
            ]
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(desc))
        units = load_model_description(path)
        assert [u.name for u in units] == ["l0.attn", "l0.ffn"]
        assert units[1].shape.param_count == 64 * 256

        doc = partition_to_json_dict(units, [[0, 1]], PartitionParams(), tau=0.5)
        assert doc["blocks"][0]["unit_ids"] == [0, 1]
        assert doc["blocks"][0]["param_count"] == 64 * 64 + 64 * 256
        assert doc["blocks"][0]["name"] == "l0.attn..l0.ffn"

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"layers": []}))
        with pytest.raises(ValueError, match="units"):
            load_model_description(path)
