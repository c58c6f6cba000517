import json

import numpy as np
import pytest

from baoc.pipeline import collect_metrics
from baoc.simulator import StreamProfile, generate_stream, load_profiles
from baoc.trace import BlockSpec, write_trace


def spec(dims=(24, 24), seed=0, id=0):
    return BlockSpec.create(id, f"b{id}", dims, 1.0, seed)


def metrics_for(profile_kwargs, steps=200, dims=(24, 24), seed=0):
    s = spec(dims=dims, seed=seed)
    profile = StreamProfile(**{**profile_kwargs, "seed": seed})
    records = generate_stream([s], {0: profile}, steps)
    return collect_metrics([s], records)[0]


class TestDeterminism:
    def test_bit_identical_records(self):
        s = spec()
        profile = StreamProfile(drift_strength=1.0, drift_persistence=0.5,
                                noise_scale_spread=1.0, seed=9)
        a = generate_stream([s], {0: profile}, 50)
        b = generate_stream([s], {0: profile}, 50)
        for ra, rb in zip(a, b):
            assert np.array_equal(ra.grads[0], rb.grads[0])
            assert np.array_equal(ra.params[0], rb.params[0])

    def test_bit_identical_trace_files(self, tmp_path):
        s = spec()
        profile = StreamProfile(noise_scale_spread=2.0, seed=4)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(p1, [s], generate_stream([s], {0: profile}, 30), 1.0)
        write_trace(p2, [s], generate_stream([s], {0: profile}, 30), 1.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_changes_stream(self):
        s = spec()
        a = generate_stream([s], {0: StreamProfile(seed=1)}, 5)
        b = generate_stream([s], {0: StreamProfile(seed=2)}, 5)
        assert not np.array_equal(a[0].grads[0], b[0].grads[0])


class TestCalibratedRegimes:
    # Thresholds confirmed by calibration runs over 10 seeds at these exact
    # settings (see test comments for the observed envelopes).

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_isotropic_anisotropy_small(self, seed):
        # Observed max over seeds: ~0.27 after 200 steps (the second-moment
        # EMA is only partially converged, so sampling noise sets the floor).
        m = metrics_for({"noise_scale_spread": 0.0, "drift_strength": 0.0}, seed=seed)
        assert m.anisotropy < 0.35

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_persistent_drift_high_stability(self, seed):
        # Drift norm must dominate the sqrt(n)-scale noise norm; observed
        # rho_bar ~0.986 at drift 200 over 576 coordinates.
        m = metrics_for({"drift_persistence": 1.0, "drift_strength": 200.0}, seed=seed)
        assert m.direction_stability > 0.9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rank1_pattern_low_structure_residual(self, seed):
        # Observed max over seeds: ~0.105 after 200 steps.
        m = metrics_for({"rank1_mix": 1.0, "noise_scale_spread": 0.0}, seed=seed)
        assert m.structure_residual < 0.15


class TestMonotoneControl:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_anisotropy_tracks_noise_spread(self, seed):
        values = [
            metrics_for({"noise_scale_spread": s}, steps=300, seed=seed).anisotropy
            for s in (0.0, 1.0, 2.0, 3.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_stability_tracks_persistence(self, seed):
        values = [
            metrics_for(
                {"drift_persistence": p, "drift_strength": 100.0}, steps=300, seed=seed
            ).direction_stability
            for p in (0.0, 0.5, 0.9, 1.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestValidation:
    def test_profile_ranges(self):
        with pytest.raises(ValueError):
            StreamProfile(drift_persistence=1.5)
        with pytest.raises(ValueError):
            StreamProfile(rank1_mix=-0.1)
        with pytest.raises(ValueError):
            StreamProfile(drift_strength=-1.0)
        with pytest.raises(ValueError):
            StreamProfile(noise_scale_spread=-0.5)

    def test_rank1_needs_matrix_block(self):
        s = spec(dims=(100,))
        with pytest.raises(ValueError, match="matrix"):
            generate_stream([s], {0: StreamProfile(rank1_mix=0.5)}, 3)

    def test_missing_profile(self):
        with pytest.raises(ValueError, match="no stream profile"):
            generate_stream([spec()], {}, 3)

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            generate_stream([spec()], {0: StreamProfile()}, 0)


class TestProfilesFile:
    def test_load(self, tmp_path):
        doc = {
            "sampling_ratio": 0.5,
            "blocks": [
                {"id": 0, "name": "w", "dims": [8, 8], "kind": "ffn",
                 "profile": {"drift_strength": 2.0, "drift_persistence": 0.9}},
                {"id": 1, "name": "v", "dims": [32],
                 "profile": {"noise_scale_spread": 1.5, "seed": 7}},
            ],
        }
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps(doc))
        defs, ratio = load_profiles(path, default_seed=42)
        assert ratio == 0.5
        assert defs[0]["profile"].drift_strength == 2.0
        assert defs[0]["profile"].seed == 42  # filled from the default
        assert defs[1]["profile"].seed == 7  # explicit seed wins
        assert defs[1]["kind"] == "other"

    def test_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match=r"must be an object, got \[\]"):
            load_profiles(path)
