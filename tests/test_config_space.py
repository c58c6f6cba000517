
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baoc.allocator import ProblemBlock, build_problem
from baoc.config_space import (
    ADAMW16,
    ADAMW32,
    GRID,
    VALID_BITS,
    BlockShape,
    Configuration,
    CostModel,
    InvalidConfigurationError,
    aggressiveness,
    enumerate_candidates,
    enumerate_candidates_multi,
    measure_update_ratio,
    state_bytes,
    state_bytes_table,
)
from baoc.diagnostics import RawMetrics
from baoc.risk import RiskSignals

MATRIX = BlockShape((64, 64))
VECTOR = BlockShape((100,))

# Hand-listed expected grid: 5 stateful families x 3 bit-widths plus the two
# stateless singletons.
EXPECTED_MATRIX_GRID = {
    (fam, bits) for fam in ("adamw", "adam", "sgdm", "sgdwm", "adafactor") for bits in (32, 16, 8)
} | {("sgd", 32), ("sgdw", 32)}


class TestConfiguration:
    def test_family_labels(self):
        assert Configuration(True, True, True, False).family == "adamw"
        assert Configuration(True, True, False, False).family == "adam"
        assert Configuration(False, False, False, False).family == "sgd"
        assert Configuration(False, True, False, False).family == "sgdm"
        assert Configuration(False, False, True, False).family == "sgdw"
        assert Configuration(False, True, True, False).family == "sgdwm"
        assert Configuration(True, False, False, True).family == "adafactor"

    def test_factorized_requires_adaptive(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration(adaptive=False, momentum=True, decoupled_decay=False, factorized=True)

    def test_stateless_pins_32_bits(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration(False, False, False, False, state_bits=16)
        assert Configuration.from_family("sgd", 8).state_bits == 32

    def test_invalid_bits(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration(True, True, True, False, state_bits=24)

    def test_json_round_trip(self):
        for fam in ("adamw", "sgd", "adafactor"):
            cfg = Configuration.from_family(fam, 16)
            assert Configuration.from_json_dict(cfg.to_json_dict()) == cfg

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"adaptive": "false"}, "'adaptive'"),
            ({"momentum": 0}, "'momentum'"),
            ({"decoupled_decay": "no"}, "'decoupled_decay'"),
            ({"factorized": None}, "'factorized'"),
            ({"bits": "16"}, "'bits'"),
            ({"bits": 16.0}, "'bits'"),
            ({"bits": True}, "'bits'"),
        ],
    )
    def test_json_values_are_read_strictly(self, change, named):
        with pytest.raises(ValueError, match=named):
            Configuration.from_json_dict(ADAMW16.to_json_dict() | change)

    def test_json_shape_errors(self):
        with pytest.raises(ValueError, match="must be an object"):
            Configuration.from_json_dict(None)
        doc = ADAMW16.to_json_dict()
        del doc["bits"]
        with pytest.raises(ValueError, match="missing key 'bits'"):
            Configuration.from_json_dict(doc)


FAMILIES = ("adamw", "adam", "sgd", "sgdm", "sgdw", "sgdwm", "adafactor")


def reference_candidates(shapes, families=FAMILIES, bit_widths=VALID_BITS):
    """One grid per shape of `families` at `bit_widths` (stateless ones at 32
    bits), intersected across shapes, in canonical order."""

    def one(shape):
        out = set()
        for fam in families:
            stateless = Configuration.from_family(fam).stateless
            for bits in (32,) if stateless else bit_widths:
                cfg = Configuration.from_family(fam, bits)
                if shape.supports_factorized or not cfg.factorized:
                    out.add(cfg)
        return out

    common = one(shapes[0])
    for shape in shapes[1:]:
        common &= one(shape)
    return sorted(common, key=Configuration.sort_key)


SHAPE_SETS = [
    (BlockShape((100,)),),
    (BlockShape((64, 32)),),
    (BlockShape((3, 10, 20)),),
    (BlockShape((1, 100)),),
    (BlockShape((100, 1)),),
    (BlockShape((5, 1, 100)),),
    (BlockShape((64, 32)), BlockShape((3, 10, 20))),
    (BlockShape((64, 32)), BlockShape((100,))),
    (BlockShape((100,)), BlockShape((64, 32))),
    (BlockShape((64, 32)), BlockShape((1, 100))),
    (BlockShape((1, 100)), BlockShape((100, 1))),
]

# Candidate policies: the families and bit-widths each keeps, and the
# `exclude` selectors that narrow the grid to exactly those.
POLICIES = [
    (FAMILIES, VALID_BITS, ()),
    (FAMILIES, (32, 16), ("adamw:8", "adam:8", "sgdm:8", "sgdwm:8", "adafactor:8")),
    (
        ("adamw", "sgdwm"),
        (16,),
        ("adam", "sgd", "sgdm", "sgdw", "adafactor", "adamw:32", "adamw:8", "sgdwm:32", "sgdwm:8"),
    ),
    (["sgd", "adafactor", "adamw", "sgdm"], [8, 32], ["adam", "sgdw", "sgdwm", "adafactor:16", "adamw:16", "sgdm:16"]),
]
SIGNALS = RiskSignals(0.5, 0.25, 0.2, 0.7, {32: 0.0, 16: 0.01, 8: 0.4})


def narrowed(shapes, exclude):
    """The one-block problem `build_problem` gives for `shapes` under `exclude`."""
    return build_problem([ProblemBlock(0, "b", tuple(shapes))], {}, signals={0: SIGNALS}, exclude=exclude)


class TestEnumerate:
    def test_matrix_grid_is_17(self):
        cands = enumerate_candidates(MATRIX)
        assert len(cands) == 17
        assert {(c.family, c.state_bits) for c in cands} == EXPECTED_MATRIX_GRID

    def test_vector_grid_is_14(self):
        cands = enumerate_candidates(VECTOR)
        assert len(cands) == 14
        expected = {k for k in EXPECTED_MATRIX_GRID if k[0] != "adafactor"}
        assert {(c.family, c.state_bits) for c in cands} == expected

    def test_excluding_8bit_is_12(self):
        # Metrics diagnosed without 8-bit states: no "8" entry in Q.
        metrics = RawMetrics(1.0, 0.5, 0.5, 0.1, 0.2, {32: 1.0, 16: 0.99}, steps=10)
        block = ProblemBlock(0, "m", (MATRIX,))
        with pytest.raises(KeyError, match="8-bit"):
            build_problem([block], {0: metrics})
        no8 = [f"{fam}:8" for fam in FAMILIES]
        cands = build_problem([block], {0: metrics}, exclude=no8).configs[0]
        assert len(cands) == 12
        assert list(cands) == reference_candidates((MATRIX,), FAMILIES, (32, 16))

    def test_no_factorized_for_degenerate_axes(self):
        for dims in ((100,), (1, 100), (100, 1), (5, 1, 100)):
            cands = enumerate_candidates(BlockShape(dims))
            assert not any(c.factorized for c in cands)

    def test_conservative_first_order(self):
        cands = enumerate_candidates(MATRIX)
        assert cands[0] == ADAMW32
        bits = [c.state_bits for c in cands if not c.stateless]
        assert bits == sorted(bits, reverse=True)

    def test_multi_shape_intersection(self):
        cands = enumerate_candidates_multi((MATRIX, VECTOR))
        assert len(cands) == 14  # factorized dropped by the vector member
        assert not any(c.factorized for c in cands)

    @pytest.mark.parametrize("policy", POLICIES, ids=["default", "no8", "adamw-sgdwm-16", "lists"])
    @pytest.mark.parametrize("shapes", SHAPE_SETS, ids=lambda shapes: "+".join("x".join(map(str, s.dims)) for s in shapes))
    def test_same_list_as_per_shape_intersection(self, shapes, policy):
        expected = reference_candidates(shapes)
        assert enumerate_candidates_multi(shapes) == expected
        if len(shapes) == 1:
            assert enumerate_candidates(shapes[0]) == expected
        families, bits, exclude = policy
        prob = narrowed(shapes, exclude)
        assert list(prob.configs[0]) == reference_candidates(shapes, families, bits)

    def test_returned_list_is_fresh(self):
        expected = reference_candidates((MATRIX,))
        for shapes in ((MATRIX,), (MATRIX, VECTOR)):
            first = enumerate_candidates_multi(shapes)
            first.clear()
        enumerate_candidates(MATRIX).append(ADAMW16)
        assert enumerate_candidates_multi((MATRIX,)) == expected
        assert enumerate_candidates(MATRIX) == expected

    def test_no_shapes_is_an_error(self):
        with pytest.raises(ValueError, match="at least one shape"):
            enumerate_candidates_multi(())


class TestStateBytes:
    def test_adamw16_vector(self):
        assert state_bytes(ADAMW16, BlockShape((1000,))) == 4000

    def test_stateless_is_zero(self):
        sgd = Configuration.from_family("sgd")
        assert state_bytes(sgd, MATRIX) == 0
        assert state_bytes(Configuration.from_family("sgdw"), BlockShape((7, 9, 11))) == 0

    def test_adafactor32_matrix(self):
        af32 = Configuration.from_family("adafactor", 32)
        assert state_bytes(af32, BlockShape((100, 200))) == (100 + 200) * 4

    def test_adafactor_leading_axes(self):
        af16 = Configuration.from_family("adafactor", 16)
        assert state_bytes(af16, BlockShape((3, 10, 20))) == 3 * (10 + 20) * 2

    def test_factorized_on_vector_raises(self):
        af = Configuration.from_family("adafactor", 32)
        with pytest.raises(InvalidConfigurationError):
            state_bytes(af, VECTOR)

    def test_momentum_only(self):
        sgdm8 = Configuration.from_family("sgdm", 8)
        assert state_bytes(sgdm8, BlockShape((123,))) == 123

    @given(
        dims=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        bits=st.sampled_from([32, 16, 8]),
    )
    def test_adaptive_momentum_exact_formula(self, dims, bits):
        cfg = Configuration.from_family("adam", bits)
        shape = BlockShape(tuple(dims))
        assert state_bytes(cfg, shape) == 2 * shape.param_count * (bits // 8)

    def test_additive_over_blocks(self):
        # Non-factorized costs are per-element, so splitting a block into
        # pieces never changes the total.
        shapes = [BlockShape((13,)), BlockShape((4, 7)), BlockShape((2, 3, 5))]
        flat = BlockShape((sum(s.param_count for s in shapes),))
        for fam, bits in (("adamw", 16), ("adam", 32), ("sgdm", 8), ("sgd", 32)):
            cfg = Configuration.from_family(fam, bits)
            assert sum(state_bytes(cfg, s) for s in shapes) == state_bytes(cfg, flat)

    def test_monotone_in_bits(self):
        for fam in ("adamw", "adam", "sgdm", "adafactor"):
            vals = [state_bytes(Configuration.from_family(fam, b), MATRIX) for b in (8, 16, 32)]
            assert vals == sorted(vals)


class TestStateBytesTable:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("shapes", SHAPE_SETS)
    def test_equals_summed_state_bytes(self, shapes, policy):
        whole = all(s.supports_factorized for s in shapes)
        params = np.array([sum(s.param_count for s in shapes)], dtype=np.int64)
        factors = np.array([sum(s.factor_length for s in shapes) if whole else 0], dtype=np.int64)
        table = state_bytes_table(params, factors)
        assert table.dtype == np.int64
        for j, cfg in enumerate(GRID.configs):
            if whole or not cfg.factorized:
                assert int(table[0, j]) == sum(state_bytes(cfg, s) for s in shapes)
        prob = narrowed(shapes, policy[2])
        for j, cfg in enumerate(prob.configs[0]):
            assert int(prob.mem[0, j]) == sum(state_bytes(cfg, s) for s in shapes)

    def test_grid_columns_match_the_configurations(self):
        for j, cfg in enumerate(GRID.configs):
            assert (GRID.adaptive[j], GRID.momentum[j], GRID.decoupled_decay[j], GRID.factorized[j]) == (
                cfg.adaptive, cfg.momentum, cfg.decoupled_decay, cfg.factorized,
            )
            assert GRID.stateless[j] == cfg.stateless and GRID.bits[j] == cfg.state_bits
            assert GRID.aggressiveness[j] == aggressiveness(cfg)
            assert GRID.keys[j] == (cfg.family, cfg.state_bits)


class TestStoreState:
    def test_subnormal_absmax_is_finite(self):
        from baoc.config_space import _store_state

        stored = _store_state(np.array([0.0, 1e-45], np.float32), 8)
        assert stored.dtype == np.float32 and np.isfinite(stored).all()


class TestAggressiveness:
    def test_examples(self):
        assert aggressiveness(ADAMW32) == 0.0
        assert aggressiveness(Configuration.from_family("adamw", 8)) == 3.0
        assert aggressiveness(Configuration.from_family("sgd")) == 3.0

    def test_adamw32_unique_minimizer(self):
        vals = {c: aggressiveness(c) for c in enumerate_candidates(MATRIX)}
        assert vals[ADAMW32] == 0.0
        assert all(v > 0.0 for c, v in vals.items() if c != ADAMW32)


class TestMeasureUpdateRatio:
    def test_baseline_is_exactly_one(self):
        shape = BlockShape((128, 128))
        assert measure_update_ratio(ADAMW16, shape, 3) == 1.0
        assert measure_update_ratio(ADAMW16, shape, 3) == 1.0

    def test_stateless_ratio_range(self):
        # Host timing: assert positivity and a loose upper bound, never a value.
        ratio = measure_update_ratio(Configuration.from_family("sgd"), BlockShape((256, 256)), 15)
        assert 0.0 < ratio < 1.5

    def test_repetitions_validation(self):
        with pytest.raises(ValueError):
            measure_update_ratio(ADAMW16, MATRIX, 0)

    def test_factorized_shape_mismatch(self):
        with pytest.raises(InvalidConfigurationError):
            measure_update_ratio(Configuration.from_family("adafactor", 16), VECTOR, 1)


class TestCostModel:
    def test_static_default(self):
        cm = CostModel.static_default()
        assert cm.ratio(ADAMW16) == 1.0
        assert cm.ratio(Configuration.from_family("sgd")) == 0.4
        assert cm.ratio(Configuration.from_family("sgdm", 8)) == 0.7
        assert cm.ratio(Configuration.from_family("adam", 32)) == 1.05
        assert cm.ratio(Configuration.from_family("adamw", 8)) == 1.1
        assert cm.ratio(Configuration.from_family("adafactor", 16)) == 1.2
        assert cm.source == "static_table"

    def test_static_default_table(self):
        expected = {("sgd", 32): 0.4, ("sgdw", 32): 0.4}
        for bits in (32, 16, 8):
            expected |= {("sgdm", bits): 0.7, ("sgdwm", bits): 0.7, ("adafactor", bits): 1.2}
            expected |= {(fam, bits): {32: 1.05, 16: 1.0, 8: 1.1}[bits] for fam in ("adamw", "adam")}
        assert CostModel.static_default().ratio_table == expected

    def test_static_default_is_shared_and_read_only(self):
        cm = CostModel.static_default()
        assert CostModel.static_default() is cm
        with pytest.raises(TypeError):
            cm.ratio_table[("sgd", 32)] = 9.0
        assert CostModel.static_default().ratio(Configuration.from_family("sgd")) == 0.4

    def test_json_round_trip(self):
        cm = CostModel.static_default()
        again = CostModel.from_json_dict(json.loads(cm.to_json()))
        assert again.ratio_table == cm.ratio_table
        assert again.source == cm.source

    def test_baseline_must_be_one(self):
        with pytest.raises(ValueError):
            CostModel(ratio_table={("adamw", 16): 1.01})

    def test_ratios_must_be_positive(self):
        with pytest.raises(ValueError):
            CostModel(ratio_table={("adamw", 16): 1.0, ("sgd", 32): 0.0})

    def test_missing_entry(self):
        cm = CostModel(ratio_table={("adamw", 16): 1.0})
        with pytest.raises(KeyError):
            cm.ratio(Configuration.from_family("sgd"))


class TestBlockShape:
    def test_validation(self):
        with pytest.raises(ValueError):
            BlockShape(())
        with pytest.raises(ValueError):
            BlockShape((0, 5))

    def test_param_count(self):
        assert BlockShape((3, 4, 5)).param_count == 60
