import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from baoc.config_space import ADAMW32, GRID, Configuration
from baoc.diagnostics import EPS, RawMetrics
from baoc.risk import (
    Anchors,
    RiskSignals,
    RiskWeights,
    distortion_signal,
    expand_selectors,
    geometry_signal,
    load_risk_config,
    momentum_need,
    parse_selector,
    phi,
    phi_table,
    precision_risk,
    risk,
    signals_from_metrics,
    structure_signal,
)

SIGNALS = RiskSignals(
    geometry=0.5, momentum=0.25, distortion=0.2, structure=0.7, precision={32: 0.0, 16: 0.01, 8: 0.4}
)


class TestGeometrySignal:
    def test_anchor_exactness(self):
        assert geometry_signal(math.log(2.0)) == 0.0
        assert geometry_signal(math.log(10.0)) == 1.0

    def test_midpoint(self):
        mid = (math.log(2.0) + math.log(10.0)) / 2.0
        assert geometry_signal(mid) == pytest.approx(0.5, abs=1e-12)

    def test_clipping(self):
        assert geometry_signal(-5.0) == 0.0
        assert geometry_signal(50.0) == 1.0

    def test_global_scale_rescales_anchors(self):
        scaled = Anchors().scaled(1.2)
        assert geometry_signal(1.2 * math.log(2.0), scaled) == pytest.approx(0.0, abs=1e-12)
        assert geometry_signal(1.2 * math.log(10.0), scaled) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        A=st.floats(-1e9, 1e9, allow_nan=False),
        scale=st.floats(0.1, 10.0, allow_nan=False),
    )
    def test_range_under_scaling(self, A, scale):
        assert 0.0 <= geometry_signal(A, Anchors().scaled(scale)) <= 1.0


class TestMomentumNeed:
    def test_rho_anchor_exactness(self):
        assert momentum_need(0.2, 0.0, snr_available=False) == 0.0
        assert momentum_need(0.6, 0.0, snr_available=False) == 1.0

    def test_saturated_product(self):
        assert momentum_need(0.6, math.expm1(2.0)) == pytest.approx(1.0, abs=1e-9)

    def test_linear_midpoints(self):
        assert momentum_need(0.4, math.e - 1.0) == pytest.approx(0.25, abs=1e-12)

    def test_below_gate_is_zero(self):
        assert momentum_need(0.1, 1e9) == 0.0

    def test_snr_unavailable_uses_direction_gate_alone(self):
        assert momentum_need(0.4, 12345.0, snr_available=False) == pytest.approx(0.5, abs=1e-12)


class TestScalarSignals:
    def test_distortion(self):
        assert distortion_signal(0.0) == 0.0
        assert distortion_signal(math.e - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_structure(self):
        assert structure_signal(1.7) == 1.0
        assert structure_signal(0.3) == 0.3
        assert structure_signal(-0.1) == 0.0

    def test_precision(self):
        assert abs(precision_risk(1.0)) <= 1e-9
        assert precision_risk(1.0) >= -1e-9
        assert precision_risk(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-9)


class TestRisk:
    def test_adamw16_only_precision_term(self):
        cfg = Configuration.from_family("adamw", 16)
        assert risk(cfg, SIGNALS) == pytest.approx(0.01, abs=1e-12)

    def test_stateless_drops_three_mechanisms(self):
        cfg = Configuration.from_family("sgd")
        assert risk(cfg, SIGNALS) == pytest.approx(0.95, abs=1e-12)

    def test_soft_preference_subtracts(self):
        cfg = Configuration.from_family("sgd")
        weights = RiskWeights(pref_set=frozenset({cfg}), lambda_pref=0.3)
        assert risk(cfg, SIGNALS, weights) == pytest.approx(0.65, abs=1e-12)

    def test_lambda_zero_is_identity(self):
        cfg = Configuration.from_family("sgdm", 8)
        with_pref = RiskWeights(pref_set=frozenset({cfg}), lambda_pref=0.0)
        assert risk(cfg, SIGNALS, with_pref) == risk(cfg, SIGNALS)

    def test_weights_scale_terms(self):
        cfg = Configuration.from_family("sgd")
        weights = RiskWeights(w_A=2.0, w_M=0.0, w_C=1.0)
        assert risk(cfg, SIGNALS, weights) == pytest.approx(2 * 0.5 + 0.2, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        g=st.floats(0, 1),
        m=st.floats(0, 1),
        c=st.floats(0, 5),
        f=st.floats(0, 1),
        q16=st.floats(0, 30),
        q8=st.floats(0, 30),
        momentum=st.booleans(),
        decoupled=st.booleans(),
        bits=st.sampled_from([32, 16, 8]),
    )
    def test_mechanisms_never_increase_risk(self, g, m, c, f, q16, q8, momentum, decoupled, bits):
        # Monotonicity in each mechanism flag holds whenever the flip does not
        # cross the stateless boundary (where the precision term vanishes by
        # definition and can tip the comparison the other way).
        signals = RiskSignals(geometry=g, momentum=m, distortion=c, structure=f,
                              precision={32: 0.0, 16: q16, 8: q8})
        adaptive_on = Configuration(True, momentum, decoupled, False, bits)
        if momentum:  # adaptive flip stays stateful
            adaptive_off = Configuration(False, momentum, decoupled, False, bits)
            assert risk(adaptive_on, signals) <= risk(adaptive_off, signals) + 1e-12
        momentum_on = Configuration(True, True, decoupled, False, bits)
        momentum_off = Configuration(True, False, decoupled, False, bits)
        assert risk(momentum_on, signals) <= risk(momentum_off, signals) + 1e-12
        # decoupled decay never touches state, so its flip is unconditional
        for adaptive2, momentum2 in ((True, True), (True, False), (False, True), (False, False)):
            b2 = 32 if (not adaptive2 and not momentum2) else bits
            decay_on = Configuration(adaptive2, momentum2, True, False, b2)
            decay_off = Configuration(adaptive2, momentum2, False, False, b2)
            assert risk(decay_on, signals) <= risk(decay_off, signals) + 1e-12
        # factorization is never free
        factorized = Configuration(True, momentum, decoupled, True, bits)
        assert risk(factorized, signals) >= risk(adaptive_on, signals) - 1e-12

    def test_missing_precision_entry(self):
        signals = RiskSignals(geometry=0, momentum=0, distortion=0, structure=0, precision={32: 0.0})
        with pytest.raises(KeyError):
            risk(Configuration.from_family("adamw", 8), signals)


class TestPhi:
    def test_adamw32_zero_risk_gives_zero(self):
        signals = RiskSignals(geometry=0.3, momentum=0.2, distortion=0.5, structure=0.1,
                              precision={32: 0.0})
        assert phi(ADAMW32, signals) == 0.0

    def test_gamma_weights_aggressiveness(self):
        cfg = Configuration.from_family("adamw", 8)
        signals = RiskSignals(geometry=0, momentum=0, distortion=0, structure=0,
                              precision={32: 0.0, 8: 0.02})
        assert phi(cfg, signals, gamma=0.1) == pytest.approx(0.02 + 0.3, abs=1e-12)

    def test_gamma_zero_reduces_to_risk(self):
        for fam, bits in (("adamw", 8), ("sgd", 32), ("adafactor", 16)):
            cfg = Configuration.from_family(fam, bits)
            assert phi(cfg, SIGNALS, gamma=0.0) == risk(cfg, SIGNALS)


signal_values = st.floats(-1.0, 4.0, allow_nan=False)  # negative values and -0.0 included


class TestPhiTable:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(*[signal_values] * 7), min_size=1, max_size=4),
        scale=st.tuples(*[st.floats(0.0, 3.0)] * 5),
        lambda_pref=st.floats(0.0, 2.0),
        preferred=st.sets(st.integers(0, 16)),
        gamma=st.floats(-1.0, 1.0),
    )
    def test_bit_identical_to_scalar_phi(self, rows, scale, lambda_pref, preferred, gamma):
        # Every cell of the grid, so every cell an `exclude` narrowing keeps.
        signals = [RiskSignals(g, m, c, f, {32: q32, 16: q16, 8: q8}) for g, m, c, f, q32, q16, q8 in rows]
        weights = RiskWeights(
            *scale,
            pref_set=frozenset(GRID.configs[k % len(GRID.configs)] for k in preferred),
            lambda_pref=lambda_pref,
        )
        table = phi_table(signals, weights, gamma)
        expected = np.array([[phi(c, s, weights, gamma) for c in GRID.configs] for s in signals])
        assert table.tobytes() == expected.tobytes()  # signed zeros too

    def test_missing_precision_only_where_used(self):
        no8 = RiskSignals(0.1, 0.2, 0.3, 0.4, {32: 0.0, 16: 0.01})
        with pytest.raises(KeyError, match="8-bit"):
            phi_table([SIGNALS, no8])
        used = np.broadcast_to(GRID.bits != 8, (2, GRID.bits.size)) | GRID.stateless
        table = phi_table([SIGNALS, no8], used=used)
        for j, cfg in enumerate(GRID.configs):
            if used[1, j]:
                assert table[1, j] == phi(cfg, no8)


class TestSignalsFromMetrics:
    def test_assembly(self):
        metrics = RawMetrics(
            anisotropy=math.log(10.0),
            direction_stability=0.6,
            snr=math.expm1(2.0),
            distortion=0.0,
            structure_residual=0.4,
            precision_cosine={32: 1.0, 16: 0.9, 8: 0.5},
            steps=100,
        )
        s = signals_from_metrics(metrics)
        assert s.geometry == 1.0
        assert s.momentum == pytest.approx(1.0, abs=1e-9)
        assert s.distortion == 0.0
        assert s.structure == 0.4
        assert s.precision[8] == pytest.approx(-math.log(0.5 + EPS), abs=1e-12)

    def test_partition_vector_clips_distortion(self):
        s = RiskSignals(geometry=0.2, momentum=0.3, distortion=2.5, structure=0.1, precision={32: 0.0})
        assert s.partition_vector() == (0.2, 0.3, 1.0, 0.1)


class TestAnchors:
    def test_validation(self):
        with pytest.raises(ValueError):
            Anchors(rho_low=0.6, rho_high=0.6)
        with pytest.raises(ValueError):
            Anchors(global_scale=0.0)

    def test_json_round_trip(self):
        a = Anchors(global_scale=1.3)
        assert Anchors.from_json_dict(a.to_json_dict()) == a


class TestSelectors:
    def test_parse(self):
        assert parse_selector("adamw:8") == ("adamw", 8)
        assert parse_selector("sgd") == ("sgd", None)
        with pytest.raises(ValueError):
            parse_selector(":16")
        with pytest.raises(ValueError):
            parse_selector("adamw:7")
        with pytest.raises(ValueError):
            parse_selector("adamw:x")

    def test_expand(self):
        grid = [
            Configuration.from_family("adamw", 8),
            Configuration.from_family("adamw", 16),
            Configuration.from_family("sgd"),
        ]
        assert expand_selectors(["adamw"], grid) == frozenset(grid[:2])
        assert expand_selectors(["adamw:8", "sgd"], grid) == frozenset({grid[0], grid[2]})
        assert expand_selectors([], grid) == frozenset()


class TestRiskConfigFile:
    def test_load(self, tmp_path):
        path = tmp_path / "risk.json"
        path.write_text(
            json.dumps(
                {
                    "anchors": {"rho_low": 0.1, "rho_high": 0.7},
                    "weights": {"w_C": 0.5},
                    "lambda_pref": 0.2,
                    "prefer": ["adamw:16"],
                }
            )
        )
        anchors, weights, prefer = load_risk_config(path)
        assert anchors.rho_low == 0.1 and anchors.rho_high == 0.7
        assert anchors.A_low == Anchors().A_low
        assert weights.w_C == 0.5 and weights.w_A == 1.0
        assert weights.lambda_pref == 0.2
        assert prefer == ["adamw:16"]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RiskWeights(w_A=-0.5)
