import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from baoc.diagnostics import (
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


class TestStructureResidual:
    def test_outer_product_is_exact(self):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(0.5, 2.0, 7), rng.uniform(0.5, 2.0, 9)
        assert structure_residual(np.outer(a, b)) < 1e-9

    def test_identity_2x2(self):
        assert structure_residual(np.eye(2)) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_zero_matrix_guard(self):
        assert structure_residual(np.zeros((3, 3))) == 0.0

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ValueError):
            structure_residual(np.ones((1, 5)))
        with pytest.raises(ValueError):
            structure_residual(np.ones(4))

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

    @pytest.mark.parametrize("dims, ratio", [((64, 48), 0.05), ((4, 16, 12), 0.3)])
    def test_sparse_matrix_state_matches_dense_accumulator(self, dims, ratio):
        # Reference: a dense occupied-rows x occupied-columns accumulator that
        # scatter-adds g*g, divides by the per-cell sample count and folds the
        # observed cells into the EMA, step by step.
        spec = _spec(dims=dims, ratio=ratio, seed=3)
        rows_full, cols_full = dims[-2], dims[-1]
        within = np.asarray(spec.sample_indices) % (rows_full * cols_full)
        r, c = within // cols_full, within % cols_full
        row_rank = np.searchsorted(np.unique(r), r)
        col_rank = np.searchsorted(np.unique(c), c)
        counts = np.zeros((row_rank.max() + 1, col_rank.max() + 1), dtype=np.int64)
        np.add.at(counts, (row_rank, col_rank), 1)
        observed = counts > 0
        if len(dims) == 2:
            assert not observed.all()  # sparse grid: unobserved cells stay 0
        else:
            assert counts.max() > 1  # leading axis pools samples into cells
        state = DiagnosticsState(spec)
        beta = state.beta_v
        reference = np.zeros(counts.shape)
        rng = np.random.default_rng(11)
        for _ in range(6):
            g = rng.standard_normal(spec.sample_size) * rng.uniform(0.1, 3.0, spec.sample_size)
            state.update(g)
            acc = np.zeros(counts.shape)
            np.add.at(acc, (row_rank, col_rank), g * g)
            cell_mean = acc / np.maximum(counts, 1)
            reference[observed] = beta * reference[observed] + (1.0 - beta) * cell_mean[observed]
            assert np.array_equal(state.sq_matrix, reference)

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
    def test_q32_is_one_and_only_requested_bits(self):
        state = DiagnosticsState(_spec(dims=(10,)))
        rng = np.random.default_rng(4)
        for _ in range(3):
            state.update(rng.standard_normal(10))
        metrics = state.snapshot(bits=(32, 16))
        assert metrics.precision_cosine[32] == 1.0
        assert set(metrics.precision_cosine) == {32, 16}

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
