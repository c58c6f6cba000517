"""Synthetic sampled gradient streams with controllable statistics.

Each block's stream is a drifting mean direction plus per-coordinate Gaussian
noise: the drift direction's step-to-step correlation controls direction
stability, the log-spread of the per-coordinate noise scales controls
anisotropy, and (on matrix blocks) an outer-product variance pattern controls
how close the squared-gradient matrix is to rank one. Streams are pure
functions of (blocks, profiles, steps); every block draws from its own
counter-based generator key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config_space import BlockShape
from .documents import json_fraction, json_int, json_number, json_object, json_str, load, naming, read, read_list
from .trace import BlockSpec, StepRecord, derive_seed


@dataclass(frozen=True, slots=True)
class StreamProfile:
    """Knobs for one block's synthetic stream."""

    drift_strength: float = 0.0
    drift_persistence: float = 0.0
    noise_scale_spread: float = 0.0
    rank1_mix: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift_strength < 0:
            raise ValueError("drift_strength must be >= 0")
        if not 0.0 <= self.drift_persistence <= 1.0:
            raise ValueError("drift_persistence must be in [0, 1]")
        if self.noise_scale_spread < 0:
            raise ValueError("noise_scale_spread must be >= 0")
        if not 0.0 <= self.rank1_mix <= 1.0:
            raise ValueError("rank1_mix must be in [0, 1]")


def _unit(vec: np.ndarray) -> np.ndarray:
    # The dot product and square root np.linalg.norm takes for a contiguous
    # 1-D float64 vector, bit for bit, without its dispatch.
    norm = math.sqrt(vec.dot(vec))
    return vec if norm == 0.0 else vec / norm


def _noise_scales(spec: BlockSpec, profile: StreamProfile, rng: np.random.Generator) -> np.ndarray:
    n = spec.sample_size
    sigma = np.exp(profile.noise_scale_spread * rng.uniform(-1.0, 1.0, size=n))
    if profile.rank1_mix > 0.0:
        dims = spec.shape.dims
        if len(dims) < 2 or dims[-1] < 2 or dims[-2] < 2:
            raise ValueError(
                f"block {spec.id}: rank1_mix needs a matrix block, got shape {dims}"
            )
        rows_full, cols_full = dims[-2], dims[-1]
        a = np.exp(rng.uniform(-1.0, 1.0, size=rows_full))
        b = np.exp(rng.uniform(-1.0, 1.0, size=cols_full))
        within = spec.sample_indices % (rows_full * cols_full)
        pattern = a[within // cols_full] * b[within % cols_full]
        pattern = pattern / pattern.mean()
        variance = sigma**2 * ((1.0 - profile.rank1_mix) + profile.rank1_mix * pattern)
        sigma = np.sqrt(variance)
    return sigma


def _block_stream(spec: BlockSpec, profile: StreamProfile, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-block (steps x sample_size) gradients and the fixed parameter vector."""
    rng = np.random.Generator(np.random.Philox(derive_seed(profile.seed, spec.id)))
    n = spec.sample_size
    sigma = _noise_scales(spec, profile, rng)
    params = rng.standard_normal(n)
    direction = _unit(rng.standard_normal(n))
    keep = profile.drift_persistence
    grads = np.empty((steps, n), dtype=np.float64)
    for t in range(steps):
        fresh = _unit(rng.standard_normal(n))
        direction = _unit(keep * direction + (1.0 - keep) * fresh)
        grads[t] = profile.drift_strength * direction + sigma * rng.standard_normal(n)
    return grads, params


def generate_stream(
    blocks: Sequence[BlockSpec],
    profiles: Mapping[int, StreamProfile],
    steps: int,
) -> list[StepRecord]:
    """Generate `steps` records covering every block, deterministic in seeds."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    missing = [b.id for b in blocks if b.id not in profiles]
    if missing:
        raise ValueError(f"no stream profile for blocks {missing}")
    streams = {b.id: _block_stream(b, profiles[b.id], steps) for b in blocks}
    records = []
    for t in range(steps):
        grads = {b.id: streams[b.id][0][t] for b in blocks}
        params = {b.id: streams[b.id][1] for b in blocks}
        records.append(StepRecord(step=t + 1, grads=grads, params=params))
    return records


def load_profiles(path: str | Path, default_seed: int = 0) -> tuple[list[dict], float | None]:
    """Read the simulate input file.

    Schema: {"sampling_ratio"?: s, "blocks": [{"id", "name"?, "dims", "kind"?,
    "profile"?: {...}}]}. Returns the raw block definitions (with parsed
    StreamProfile under "profile") and the optional sampling ratio. `id`,
    `dims` and the profile `seed` must hold integers and the other profile
    knobs numbers; a malformed value or a missing key raises ValueError
    naming the file and the entry.
    """
    return load(path, "profile file", lambda d: _block_definitions(d, default_seed))


def _block_definitions(d: dict, default_seed: int) -> tuple[list[dict], float | None]:
    blocks = read_list(d, "blocks", lambda entry: _block_definition(entry, default_seed))
    return blocks, read(d, "sampling_ratio", json_fraction, None)


def _block_definition(entry: object, default_seed: int) -> dict:
    block_id = read(entry, "id", json_int)
    p = read(entry, "profile", json_object, {})
    with naming("'profile'"):
        profile = StreamProfile(
            drift_strength=read(p, "drift_strength", json_number, 0.0),
            drift_persistence=read(p, "drift_persistence", json_number, 0.0),
            noise_scale_spread=read(p, "noise_scale_spread", json_number, 0.0),
            rank1_mix=read(p, "rank1_mix", json_number, 0.0),
            seed=read(p, "seed", json_int, default_seed),
        )
    return {
        "id": block_id,
        "name": read(entry, "name", json_str, f"block{block_id}"),
        "dims": list(read(entry, "dims", BlockShape.from_json).dims),
        "kind": read(entry, "kind", json_str, "other"),
        "profile": profile,
    }
