import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from baoc.diagnostics import (
    BETA_V,
    EPS,
    DiagnosticsState,
    RawMetrics,
    anisotropy,
    distortion,
    precision_similarity,
    quantize,
    snr,
    structure_residual,
)
from baoc.trace import BlockSpec


def interp_quantile(values, q):
    """Independent linear-interpolation quantile: h = q*(n-1) between order stats."""
    v = sorted(values)
    h = q * (len(v) - 1)
    lo = math.floor(h)
    hi = math.ceil(h)
    return v[lo] + (h - lo) * (v[hi] - v[lo])


finite_vectors = hnp.arrays(
    np.float64,
    st.integers(2, 30),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


class TestAnisotropy:
    def test_constant_vector_is_zero(self):
        assert anisotropy(np.full(17, 3.7)) == pytest.approx(0.0, abs=1e-12)

    def test_constructed_quantiles_give_log10(self):
        # Vector whose interpolated 0.1/0.9 quantiles are exactly 1 and 10;
        # expected value computed with the independent quantile oracle.
        v = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0])
        q1, q9 = interp_quantile(v, 0.1), interp_quantile(v, 0.9)
        assert (q1, q9) == (1.0, 10.0)
        expected = math.log((q9 + EPS) / (q1 + EPS))
        assert anisotropy(v) == pytest.approx(expected, abs=1e-12)
        assert anisotropy(v) == pytest.approx(math.log(10.0), abs=1e-6)

    def test_near_scale_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(1e-6, 10.0, size=200)
        assert abs(anisotropy(2.0 * v) - anisotropy(v)) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(
        v=hnp.arrays(
            np.float64, st.integers(1, 50), elements=st.floats(0.0, 1e9, allow_nan=False)
        )
    )
    def test_nonnegative(self, v):
        assert anisotropy(v) >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anisotropy(np.array([]))


class TestSnr:
    def test_zero_mean(self):
        assert snr(np.zeros(4), np.ones(4)) == 0.0

    def test_hand_arithmetic(self):
        assert snr(np.array([3.0, 4.0]), np.array([2.0, 3.0])) == pytest.approx(5.0, abs=1e-9)

    def test_eps_guards_zero_denominator(self):
        value = snr(np.array([1.0, 0.0]), np.zeros(2))
        assert value == pytest.approx(1.0 / EPS, rel=1e-9)
        assert math.isfinite(value)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            snr(np.ones(3), np.ones(4))


class TestDistortion:
    def test_uniform_preconditioner(self):
        assert distortion(np.full(6, 2.5), np.random.default_rng(0).standard_normal(6)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_zero_params(self):
        assert distortion(np.array([1.0, 4.0]), np.zeros(2)) == 0.0

    def test_hand_arithmetic(self):
        assert distortion(np.array([1.0, 4.0]), np.array([1.0, 1.0])) == pytest.approx(1 / 3, abs=1e-6)


def dense_structure_residual(S):
    """Reference: rank-1 reconstruction from the row and column means of the
    zero-filled grid, as a dense outer product."""
    overall = S.mean()
    if overall <= EPS:
        return 0.0
    approx = np.outer(S.mean(axis=1), S.mean(axis=0)) / overall
    return float(np.linalg.norm(S - approx) / (np.linalg.norm(S) + EPS))


class TestStructureResidual:
    def test_outer_product_is_exact(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 9)
        assert structure_residual(np.outer(a, b)) < 1e-9

    def test_outer_product_with_zero_row_and_column_is_exact(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a, b = rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 9)
            a[rng.integers(7)] = 0.0
            b[rng.integers(9)] = 0.0
            assert structure_residual(np.outer(a, b)) < 1e-12

    def test_identity_2x2(self):
        assert structure_residual(np.eye(2)) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_matrix_guard(self):
        assert structure_residual(np.zeros((3, 3))) == 0.0

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            structure_residual(np.ones((1, 5)))
        with pytest.raises(ValueError):
            structure_residual(np.ones(4))

    def test_matrix_with_exact_zeros_matches_dense_reference(self):
        rng = np.random.default_rng(12)
        S = rng.uniform(0.0, 2.0, (9, 13)) * (rng.uniform(size=(9, 13)) < 0.6)
        S[4] = 0.0  # an empty row
        S[:, 7] = 0.0  # an empty column
        assert (S == 0.0).mean() > 0.3
        assert structure_residual(S) == pytest.approx(dense_structure_residual(S), abs=1e-12)

    def test_row_col_permutation_covariance(self):
        rng = np.random.default_rng(2)
        S = rng.uniform(0.0, 1.0, (5, 6))
        perm_r, perm_c = rng.permutation(5), rng.permutation(6)
        assert structure_residual(S[perm_r][:, perm_c]) == pytest.approx(structure_residual(S), abs=1e-12)


class TestQuantize:
    def test_identity_at_32(self):
        x = np.array([1.1, -2.7, 3e-9])
        assert np.array_equal(quantize(x, 32), x)

    def test_absmax_example(self):
        got = quantize(np.array([127.0, -127.0, 63.4]), 8)
        assert np.array_equal(got, np.array([127.0, -127.0, 63.0]))

    def test_absmax_zero_vector(self):
        assert np.array_equal(quantize(np.zeros(3), 8), np.zeros(3))

    @settings(max_examples=100, deadline=None)
    @given(x=finite_vectors)
    @example(x=np.array([0.0, 5e-324]))  # absmax/127 underflows to 0
    def test_idempotent_at_8(self, x):
        once = quantize(x, 8)
        assert np.array_equal(quantize(once, 8), once)

    def test_half_precision_round_to_nearest_even(self):
        # binary16 spacing at 2048..4096 is 2; ties go to the even mantissa.
        got = quantize(np.array([2049.0, 2051.0, 1.0 + 2.0**-11]), 16)
        assert np.array_equal(got, np.array([2048.0, 2052.0, 1.0]))

    def test_half_precision_exact_values_pass_through(self):
        x = np.array([1.0, 0.5, -0.25, 2048.0, 65504.0])
        assert np.array_equal(quantize(x, 16), x)

    def test_unsupported_bits(self):
        with pytest.raises(ValueError):
            quantize(np.ones(2), 4)


class TestPrecisionSimilarity:
    def test_bits32_is_exactly_one(self):
        rng = np.random.default_rng(3)
        assert precision_similarity(rng.standard_normal(10), rng.uniform(0, 1, 10), 32) == 1.0

    def test_parallel_after_quantization(self):
        assert precision_similarity(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 8) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_zero_update_direction(self):
        assert precision_similarity(np.zeros(4), np.ones(4), 8) == 1.0

    @settings(max_examples=100, deadline=None)
    @given(m=finite_vectors)
    def test_clipped_range(self, m):
        v = np.abs(m) + 0.5
        for bits in (16, 8):
            q = precision_similarity(m, v, bits)
            assert EPS <= q <= 1.0


def _spec(dims=(6,), ratio=1.0, seed=0, id=0):
    return BlockSpec.create(id, f"b{id}", dims, ratio, seed)


def dense_cells(spec):
    """Each sample's occupied-row and occupied-column rank in the two trailing
    axes, and the sample count of every cell of that grid."""
    rows_full, cols_full = spec.shape.dims[-2], spec.shape.dims[-1]
    within = np.asarray(spec.sample_indices) % (rows_full * cols_full)
    r, c = within // cols_full, within % cols_full
    row_rank = np.searchsorted(np.unique(r), r)
    col_rank = np.searchsorted(np.unique(c), c)
    counts = np.zeros((row_rank.max() + 1, col_rank.max() + 1), dtype=np.int64)
    np.add.at(counts, (row_rank, col_rank), 1)
    return row_rank, col_rank, counts


def stepwise_cell_fold(spec, grads):
    """The squared-gradient grid as a per-cell EMA, step by step: each step
    scatter-adds g*g into a dense grid, divides by the per-cell sample count
    and folds the observed cells in."""
    row_rank, col_rank, counts = dense_cells(spec)
    observed = counts > 0
    fold = np.zeros(counts.shape)
    for g in grads:
        acc = np.zeros(counts.shape)
        np.add.at(acc, (row_rank, col_rank), g * g)
        cell_mean = acc / np.maximum(counts, 1)
        fold[observed] = BETA_V * fold[observed] + (1.0 - BETA_V) * cell_mean[observed]
    return fold


class TestStateUpdate:
    def test_first_update_closed_form(self):
        state = DiagnosticsState(_spec(dims=(2,)))
        state.update(np.array([1.0, 2.0]))
        assert np.allclose(state.exp_avg, [0.1, 0.2], atol=1e-15)
        assert np.allclose(state.exp_avg_sq, [0.001 * 1.0, 0.001 * 4.0], atol=1e-15)
        assert state.direction_stability == 0.0  # first step has no previous gradient

    def test_identical_gradients_direction_stability(self):
        state = DiagnosticsState(_spec(dims=(2,)))
        g = np.array([1.0, 2.0])
        state.update(g)
        state.update(g)
        assert state.direction_stability == pytest.approx(0.1, abs=1e-12)

    def test_zero_gradient_contributes_zero_cosine(self):
        state = DiagnosticsState(_spec(dims=(2,)))
        g = np.array([1.0, 2.0])
        state.update(g)
        state.update(g)
        before = state.direction_stability
        state.update(np.zeros(2))
        assert state.direction_stability == pytest.approx(0.9 * before, abs=1e-15)

    def test_direction_stability_matches_np_linalg_norm(self):
        # The carried norm and its dot product give the bits np.linalg.norm gives, over a stream
        # with a zero gradient, strided views and a reversed one.
        n = 257
        state = DiagnosticsState(_spec(dims=(n,)))
        rng = np.random.default_rng(12)
        stream = [rng.standard_normal(n), np.zeros(n), rng.standard_normal(2 * n)[::2], rng.standard_normal(n),
                  rng.standard_normal(n)[::-1], np.zeros(n), np.zeros(n), rng.standard_normal(3 * n)[1::3]]
        expected, prev = 0.0, None
        for g in stream:
            state.update(g)
            if prev is not None:
                norms = np.linalg.norm(g) * np.linalg.norm(prev)
                cos = 0.0 if norms == 0.0 else float(g @ prev / (norms + EPS))
                expected = 0.9 * expected + (1.0 - 0.9) * cos
            prev = g
            assert state.direction_stability == expected
        assert expected != 0.0

    def test_length_mismatch(self):
        state = DiagnosticsState(_spec(dims=(4,)))
        with pytest.raises(ValueError):
            state.update(np.ones(3))

    @settings(max_examples=50, deadline=None)
    @given(
        grads=st.lists(
            hnp.arrays(np.float64, 5, elements=st.floats(-100, 100, allow_nan=False)),
            min_size=1,
            max_size=12,
        )
    )
    def test_invariants_under_arbitrary_streams(self, grads):
        state = DiagnosticsState(_spec(dims=(5,)))
        for g in grads:
            state.update(g)
            assert np.all(state.exp_avg_sq >= 0.0)
            assert -1.0 <= state.direction_stability <= 1.0

    def test_matrix_state_nonnegative_and_matches_direct_ema(self):
        # Full sampling on a small matrix: the compacted grid is the full grid,
        # so S must equal a directly-computed EMA of the squared gradients.
        spec = _spec(dims=(3, 4), ratio=1.0)
        state = DiagnosticsState(spec)
        rng = np.random.default_rng(8)
        order = np.asarray(spec.sample_indices)
        expected = np.zeros((3, 4))
        for _ in range(7):
            g = rng.standard_normal(12)
            state.update(g)
            full = np.zeros(12)
            full[order] = g
            expected = 0.999 * expected + 0.001 * (full.reshape(3, 4) ** 2)
        assert np.allclose(state.sq_matrix, expected, atol=1e-14)
        assert np.all(state.sq_matrix >= 0.0)

    @pytest.mark.parametrize(
        "dims, ratio", [((64, 48), 0.05), ((4, 16, 12), 0.3), ((1, 40, 30), 0.3), ((6, 5), 1.0)]
    )
    def test_sparse_matrix_state_matches_dense_accumulator(self, dims, ratio):
        # Reference: a dense occupied-rows x occupied-columns grid holding the
        # mean of each cell's exp_avg_sq entries, which the state must equal
        # exactly; and the step-wise per-cell EMA, equal in exact arithmetic.
        spec = _spec(dims=dims, ratio=ratio, seed=3)
        row_rank, col_rank, counts = dense_cells(spec)
        if spec.shape.param_count > dims[-2] * dims[-1]:
            assert counts.max() > 1  # leading axis pools samples into cells
        else:
            assert counts.max() == 1  # one sample per cell
            assert (counts > 0).all() == (ratio == 1.0)  # sparse grid unless fully sampled: unobserved cells stay 0
        state = DiagnosticsState(spec)
        rng = np.random.default_rng(11)
        grads = []
        for _ in range(6):
            grads.append(rng.standard_normal(spec.sample_size) * rng.uniform(0.1, 3.0, spec.sample_size))
            state.update(grads[-1])
            cell_mean = np.zeros(counts.shape)
            np.add.at(cell_mean, (row_rank, col_rank), state.exp_avg_sq)
            cell_mean /= np.maximum(counts, 1)
            assert np.array_equal(state.sq_matrix, cell_mean)
            np.testing.assert_allclose(state.sq_matrix, stepwise_cell_fold(spec, grads), rtol=1e-14, atol=0)

    def test_permutation_invariant_metrics(self):
        rng = np.random.default_rng(9)
        grads = [rng.standard_normal(8) for _ in range(5)]
        theta = rng.standard_normal(8)
        perm = rng.permutation(8)
        a = DiagnosticsState(_spec(dims=(8,)))
        b = DiagnosticsState(_spec(dims=(8,)))
        for g in grads:
            a.update(g, theta)
            b.update(g[perm], theta[perm])
        ma, mb = a.snapshot(), b.snapshot()
        assert ma.anisotropy == pytest.approx(mb.anisotropy, abs=1e-12)
        assert ma.snr == pytest.approx(mb.snr, abs=1e-12)
        assert ma.distortion == pytest.approx(mb.distortion, abs=1e-12)
        assert ma.direction_stability == pytest.approx(mb.direction_stability, abs=1e-12)


class TestSnapshot:
    def test_q32_is_one_and_every_grid_bit(self):
        state = DiagnosticsState(_spec(dims=(10,)))
        rng = np.random.default_rng(4)
        for _ in range(3):
            state.update(rng.standard_normal(10))
        metrics = state.snapshot()
        assert metrics.precision_cosine[32] == 1.0
        assert list(metrics.precision_cosine) == [32, 16, 8]

    def test_no_params_means_zero_distortion(self):
        state = DiagnosticsState(_spec(dims=(5,)))
        state.update(np.ones(5))
        assert state.snapshot().distortion == 0.0

    def test_distortion_updates_only_on_param_steps(self):
        state = DiagnosticsState(_spec(dims=(3,)))
        rng = np.random.default_rng(6)
        state.update(rng.standard_normal(3), rng.standard_normal(3))
        after_first = state.last_distortion
        state.update(rng.standard_normal(3))  # no params: value carried over
        assert state.last_distortion == after_first

    def test_vector_block_has_zero_structure_residual(self):
        state = DiagnosticsState(_spec(dims=(7,)))
        state.update(np.ones(7))
        assert state.snapshot().structure_residual == 0.0

    @pytest.mark.parametrize(
        "dims, ratio", [((64, 48), 0.05), ((4, 16, 12), 0.3), ((3, 4), 1.0)]
    )
    def test_structure_residual_matches_dense_reference(self, dims, ratio):
        state = DiagnosticsState(_spec(dims=dims, ratio=ratio, seed=5))
        rng = np.random.default_rng(13)
        grads = [rng.standard_normal(state.spec.sample_size) * rng.uniform(0.1, 3.0) for _ in range(5)]
        for g in grads:
            state.update(g)
        residual = state.snapshot().structure_residual
        assert residual == pytest.approx(dense_structure_residual(state.sq_matrix), abs=1e-12)
        stepwise = dense_structure_residual(stepwise_cell_fold(state.spec, grads))
        assert residual == pytest.approx(stepwise, abs=1e-12)

    def test_streamed_rank1_pattern_at_full_sampling(self):
        # Every step's squared gradient is a scaled outer product, so the EMA
        # grid is exactly rank-1 and fully observed.
        spec = _spec(dims=(12, 9), ratio=1.0, seed=2)
        rng = np.random.default_rng(14)
        pattern = np.sqrt(np.outer(rng.uniform(0.2, 3.0, 12), rng.uniform(0.2, 3.0, 9))).ravel()
        state = DiagnosticsState(spec)
        for _ in range(8):
            state.update(rng.uniform(0.5, 2.0) * pattern[np.asarray(spec.sample_indices)])
        assert state.snapshot().structure_residual < 1e-9
        assert dense_structure_residual(state.sq_matrix) < 1e-9

    def test_snapshot_memory_scales_with_samples_not_grid_area(self):
        # ~16.8k samples on a ~2048 x 7100 occupied grid: a dense grid would
        # be over 100 MB, the per-cell arrays are well under 1 MB.
        state = DiagnosticsState(_spec(dims=(2048, 8192), ratio=0.001, seed=1))
        rows, cols = state._grid_shape
        assert rows * cols * 8 > 100 * 2**20
        rng = np.random.default_rng(15)
        for _ in range(3):
            state.update(rng.standard_normal(state.spec.sample_size))
        tracemalloc.start()
        try:
            state.snapshot()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_snapshot_requires_updates(self):
        with pytest.raises(ValueError):
            DiagnosticsState(_spec()).snapshot()

    def test_json_round_trip(self):
        state = DiagnosticsState(_spec(dims=(4, 4), ratio=1.0))
        rng = np.random.default_rng(7)
        for _ in range(4):
            state.update(rng.standard_normal(16), rng.standard_normal(16))
        metrics = state.snapshot()
        doc = metrics.to_json_dict(block_id=3)
        assert doc["block_id"] == 3
        assert set(doc["Q"]) == {"32", "16", "8"}
        assert RawMetrics.from_json_dict(doc) == metrics
        assert RawMetrics.from_json_dict(json.loads(json.dumps(doc))) == metrics

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("A", True, "'A' must be a finite number, got true"),
            ("rho_bar", "0.5", "'rho_bar' must be a finite number, got \"0.5\""),
            ("snr", math.inf, "'snr' must be a finite number, got Infinity"),
            ("C", 10**400, "'C' must be a finite number"),
            ("F", None, "'F' must be a finite number, got null"),
            ("Q", [1.0], "'Q' must be an object"),
            ("Q", {"32": 1.0, "12": 0.5}, "'Q' key '12' is not a bit-width in (32, 16, 8)"),
            ("Q", {"16.0": 0.5}, "'Q' key '16.0' is not a bit-width"),
            ("Q", {"16": math.nan}, "Q['16'] must be a finite number, got NaN"),
            ("steps", 0, "'steps' must be an integer >= 1, got 0"),
            ("steps", 2.0, "'steps' must be an integer >= 1, got 2.0"),
            ("steps", True, "'steps' must be an integer >= 1, got true"),
        ],
    )
    def test_from_json_dict_is_strict(self, key, value, message):
        row = {"block_id": 0, "A": 1, "rho_bar": 0.5, "snr": 0.1, "C": 0.2, "F": 0.3,
               "Q": {"32": 1.0, "16": 0.99, "8": 0.9}, "steps": 4}
        assert RawMetrics.from_json_dict(row).anisotropy == 1.0
        with pytest.raises(ValueError) as err:
            RawMetrics.from_json_dict(row | {key: value})
        assert str(err.value).startswith(message)
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            RawMetrics.from_json_dict({k: v for k, v in row.items() if k != key})
