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

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .config_space import BlockShape, json_int
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
    norm = np.linalg.norm(vec)
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
        within = np.asarray(spec.sample_indices, dtype=np.int64) % (rows_full * cols_full)
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

    Schema: {"sampling_ratio"?: s, "blocks": [{"id", "name", "dims", "kind"?,
    "profile": {...}}]}. Returns the raw block definitions (with parsed
    StreamProfile under "profile") and the optional sampling ratio. `id`,
    `dims` and the profile `seed` must hold integers; a malformed value or a
    missing key raises ValueError naming the file and the entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    entries = raw.get("blocks") if isinstance(raw, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"profile file {path}: expected an object with a 'blocks' list")
    defs = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("dims"), list):
            raise ValueError(f"profile file {path}: blocks[{i}] is not an object with a 'dims' list")
        if not isinstance(entry.get("profile", {}), dict):
            raise ValueError(f"profile file {path}: blocks[{i}].profile is not an object")
        p = dict(entry.get("profile", {}))
        p.setdefault("seed", default_seed)
        try:
            block_id = json_int(entry["id"])
            defs.append(
                {
                    "id": block_id,
                    "name": str(entry.get("name", f"block{block_id}")),
                    "dims": list(BlockShape.from_json(entry["dims"]).dims),
                    "kind": str(entry.get("kind", "other")),
                    "profile": StreamProfile(
                        drift_strength=float(p.get("drift_strength", 0.0)),
                        drift_persistence=float(p.get("drift_persistence", 0.0)),
                        noise_scale_spread=float(p.get("noise_scale_spread", 0.0)),
                        rank1_mix=float(p.get("rank1_mix", 0.0)),
                        seed=json_int(p["seed"]),
                    ),
                }
            )
        except KeyError as exc:
            raise ValueError(f"profile file {path}: blocks[{i}] has no {exc} key") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"profile file {path}: blocks[{i}]: {exc}") from None
    ratio = raw.get("sampling_ratio")
    try:
        return defs, (float(ratio) if ratio is not None else None)
    except (TypeError, ValueError):
        raise ValueError(f"profile file {path}: sampling_ratio {ratio!r} is not a number") from None
