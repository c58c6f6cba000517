"""Candidate optimizer configurations and their memory/time cost models.

A configuration is a tuple of mechanism switches (adaptive scaling, momentum,
decoupled weight decay, state factorization) plus a state bit-width. This
module enumerates the candidate grid for a parameter block, prices the
persistent optimizer-state bytes of each candidate, scores how aggressive a
candidate is relative to full AdamW32, and measures (or tabulates) relative
one-step update-time ratios normalized to AdamW16.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

VALID_BITS = (32, 16, 8)

#: Families enumerated by default: AdamW, Adam, SGD, SGD+momentum, SGDW,
#: SGDW+momentum, Adafactor. Stateless families carry no bit-width axis.
DEFAULT_FAMILIES = ("adamw", "adam", "sgd", "sgdm", "sgdw", "sgdwm", "adafactor")

_FAMILY_FLAGS = {
    # family -> (adaptive, momentum, decoupled_decay, factorized)
    "adamw": (True, True, True, False),
    "adam": (True, True, False, False),
    "sgd": (False, False, False, False),
    "sgdm": (False, True, False, False),
    "sgdw": (False, False, True, False),
    "sgdwm": (False, True, True, False),
    "adafactor": (True, False, False, True),
}


class InvalidConfigurationError(ValueError):
    """A configuration is inconsistent or does not apply to a block shape."""


def family_label(adaptive: bool, momentum: bool, decoupled_decay: bool, factorized: bool) -> str:
    """Derive the reporting label from mechanism flags (total over all combos)."""
    if factorized:
        return "adafactorm" if momentum else "adafactor"
    if adaptive:
        base = "adam" if momentum else "rmsprop"
        return base + ("w" if decoupled_decay else "")
    label = "sgd"
    if decoupled_decay:
        label += "w"
    if momentum:
        label += "m"
    return label


@dataclass(frozen=True, slots=True)
class Configuration:
    """One candidate optimizer configuration for a block.

    ``state_bits`` is the storage precision of the persistent state tensors.
    Stateless configurations (no adaptive scaling, no momentum) have no
    state to store; they are pinned to 32 bits so the aggressiveness score
    does not reward a meaningless low-precision claim.
    """

    adaptive: bool
    momentum: bool
    decoupled_decay: bool
    factorized: bool
    state_bits: int = 32

    def __post_init__(self) -> None:
        if self.state_bits not in VALID_BITS:
            raise InvalidConfigurationError(f"state_bits must be one of {VALID_BITS}, got {self.state_bits}")
        if self.factorized and not self.adaptive:
            raise InvalidConfigurationError("factorized state requires adaptive scaling")
        if self.stateless and self.state_bits != 32:
            raise InvalidConfigurationError("stateless configurations must report state_bits=32")

    @property
    def stateless(self) -> bool:
        return not self.adaptive and not self.momentum

    @property
    def family(self) -> str:
        return family_label(self.adaptive, self.momentum, self.decoupled_decay, self.factorized)

    def to_json_dict(self) -> dict:
        return {
            "adaptive": self.adaptive,
            "momentum": self.momentum,
            "decoupled_decay": self.decoupled_decay,
            "factorized": self.factorized,
            "bits": self.state_bits,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Configuration":
        return cls(
            adaptive=bool(d["adaptive"]),
            momentum=bool(d["momentum"]),
            decoupled_decay=bool(d["decoupled_decay"]),
            factorized=bool(d["factorized"]),
            state_bits=int(d["bits"]),
        )

    @classmethod
    def from_family(cls, family: str, bits: int = 32) -> "Configuration":
        try:
            a, m, d, f = _FAMILY_FLAGS[family]
        except KeyError:
            raise InvalidConfigurationError(f"unknown family {family!r}") from None
        if not a and not m:
            bits = 32
        return cls(adaptive=a, momentum=m, decoupled_decay=d, factorized=f, state_bits=bits)

    def sort_key(self) -> tuple:
        """Conservative-first total order: higher bits, then kept mechanisms."""
        return (
            -self.state_bits,
            not self.adaptive,
            not self.momentum,
            not self.decoupled_decay,
            self.factorized,
            self.family,
        )


ADAMW16 = Configuration(adaptive=True, momentum=True, decoupled_decay=True, factorized=False, state_bits=16)
ADAMW32 = Configuration(adaptive=True, momentum=True, decoupled_decay=True, factorized=False, state_bits=32)


@dataclass(frozen=True, slots=True)
class BlockShape:
    """Tensor extents of a parameter block."""

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("block shape needs at least one axis")
        if any(d < 1 for d in self.dims):
            raise ValueError(f"all extents must be positive, got {self.dims}")

    @property
    def param_count(self) -> int:
        return math.prod(self.dims)

    @property
    def supports_factorized(self) -> bool:
        """Factorization replaces the second moment by one vector per trailing
        axis; it needs two non-degenerate trailing axes to mean anything."""
        return len(self.dims) >= 2 and self.dims[-1] > 1 and self.dims[-2] > 1


@dataclass(frozen=True, slots=True)
class CandidatePolicy:
    """Which families and bit-widths enter the candidate grid."""

    families: tuple[str, ...] = DEFAULT_FAMILIES
    bits: tuple[int, ...] = VALID_BITS

    def __post_init__(self) -> None:
        unknown = [f for f in self.families if f not in _FAMILY_FLAGS]
        if unknown:
            raise InvalidConfigurationError(f"unknown families {unknown}")
        bad = [b for b in self.bits if b not in VALID_BITS]
        if bad:
            raise InvalidConfigurationError(f"unsupported bit-widths {bad}")


DEFAULT_POLICY = CandidatePolicy()


def enumerate_candidates(
    block_shape: BlockShape, policy: CandidatePolicy = DEFAULT_POLICY
) -> list[Configuration]:
    """Enumerate the deduplicated family x bit-width grid for one block.

    Stateless families collapse the bit-width axis into a single entry;
    factorized families are emitted only for shapes whose two trailing axes
    are both non-degenerate. Output is in conservative-first canonical order.
    """
    out: set[Configuration] = set()
    for fam in policy.families:
        a, m, d, f = _FAMILY_FLAGS[fam]
        if f and not block_shape.supports_factorized:
            continue
        if not a and not m:
            out.add(Configuration(a, m, d, f, 32))
        else:
            for bits in policy.bits:
                out.add(Configuration(a, m, d, f, bits))
    return sorted(out, key=Configuration.sort_key)


def enumerate_candidates_multi(
    shapes: Sequence[BlockShape], policy: CandidatePolicy = DEFAULT_POLICY
) -> list[Configuration]:
    """Candidates valid for every tensor in a multi-tensor block."""
    if not shapes:
        raise ValueError("need at least one shape")
    common = set(enumerate_candidates(shapes[0], policy))
    for shape in shapes[1:]:
        common &= set(enumerate_candidates(shape, policy))
    return sorted(common, key=Configuration.sort_key)


def state_bytes(config: Configuration, block_shape: BlockShape) -> int:
    """Bytes of persistent optimizer-owned state for one block.

    Counts one first-moment tensor if momentum, one second-moment tensor if
    adaptive (or row+column factor vectors over the two trailing axes when
    factorized). Each element costs state_bits/8 bytes; no quantization
    metadata is charged.
    """
    if config.stateless:
        return 0
    elements = 0
    if config.momentum:
        elements += block_shape.param_count
    if config.adaptive:
        if config.factorized:
            if not block_shape.supports_factorized:
                raise InvalidConfigurationError(
                    f"factorized configuration needs two non-degenerate trailing axes, got shape {block_shape.dims}"
                )
            rows, cols = block_shape.dims[-2], block_shape.dims[-1]
            leading = math.prod(block_shape.dims[:-2]) if len(block_shape.dims) > 2 else 1
            elements += leading * (rows + cols)
        else:
            elements += block_shape.param_count
    return elements * (config.state_bits // 8)


def aggressiveness(config: Configuration) -> float:
    """Penalty for dropping mechanisms, factorizing, or cutting precision.

    Zero only for AdamW32; each dropped mechanism adds 1, factorization adds
    1, and bit reduction adds 32/b - 1.
    """
    bits = 32 if config.stateless else config.state_bits
    return (
        (0.0 if config.adaptive else 1.0)
        + (0.0 if config.momentum else 1.0)
        + (0.0 if config.decoupled_decay else 1.0)
        + (1.0 if config.factorized else 0.0)
        + 32.0 / bits
        - 1.0
    )


# Placeholder ratios used until `bench` measures the host. Keyed by mechanism
# class, not by measurement.
_STATIC_RATIOS = {
    "stateless": 0.4,
    "momentum_only": 0.7,
    "adaptive8": 1.1,
    "adaptive16": 1.0,
    "adaptive32": 1.05,
    "factorized": 1.2,
}


def _static_ratio(config: Configuration) -> float:
    if config.stateless:
        return _STATIC_RATIOS["stateless"]
    if config.factorized:
        return _STATIC_RATIOS["factorized"]
    if not config.adaptive:
        return _STATIC_RATIOS["momentum_only"]
    return _STATIC_RATIOS[f"adaptive{config.state_bits}"]


@dataclass(frozen=True)
class CostModel:
    """Relative per-step update-time ratios, normalized to AdamW16.

    Immutable once built; share freely across threads.
    """

    ratio_table: dict[tuple[str, int], float]
    source: str = "static_table"

    def __post_init__(self) -> None:
        base = self.ratio_table.get(("adamw", 16))
        if base != 1.0:
            raise ValueError(f"ratio for (adamw, 16) must be exactly 1.0, got {base}")
        for key, ratio in self.ratio_table.items():
            if not (ratio > 0):
                raise ValueError(f"ratio for {key} must be positive, got {ratio}")

    def ratio(self, config: Configuration) -> float:
        bits = 32 if config.stateless else config.state_bits
        key = (config.family, bits)
        try:
            return self.ratio_table[key]
        except KeyError:
            raise KeyError(f"cost model has no ratio for {key[0]}:{key[1]}") from None

    @classmethod
    def static_default(cls, policy: CandidatePolicy = DEFAULT_POLICY) -> "CostModel":
        table: dict[tuple[str, int], float] = {}
        for fam in policy.families:
            for bits in VALID_BITS:
                cfg = Configuration.from_family(fam, bits)
                table[(cfg.family, 32 if cfg.stateless else cfg.state_bits)] = _static_ratio(cfg)
        table[("adamw", 16)] = 1.0
        return cls(ratio_table=table, source="static_table")

    def to_json_dict(self) -> dict:
        return {
            "ratios": {f"{fam}:{bits}": r for (fam, bits), r in sorted(self.ratio_table.items())},
            "source": self.source,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "CostModel":
        if not isinstance(d, dict) or not isinstance(d.get("ratios"), dict):
            raise ValueError("cost model must be an object with a 'ratios' object")
        table: dict[tuple[str, int], float] = {}
        for key, ratio in d["ratios"].items():
            fam, _, bits = key.partition(":")
            table[(fam, int(bits))] = float(ratio)
        return cls(ratio_table=table, source=str(d.get("source", "static_table")))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CostModel":
        return cls.from_json_dict(json.loads(text))


def _one_step_kernel(config: Configuration, shape: tuple[int, ...], buffers: dict) -> None:
    """One synthetic optimizer step with the mechanisms and state precision
    of `config`; used only for relative timing."""
    lr, wd, b1, b2, eps = 1e-3, 1e-2, 0.9, 0.999, 1e-8
    params = buffers["params"]
    grad = buffers["grad"]
    update = grad
    if config.momentum:
        m = buffers["m"].astype(np.float32)
        m = b1 * m + (1.0 - b1) * grad
        buffers["m"] = _store_state(m, config.state_bits)
        update = m
    if config.adaptive:
        if config.factorized:
            row = buffers["row"].astype(np.float32)
            col = buffers["col"].astype(np.float32)
            g2 = grad * grad
            row = b2 * row + (1.0 - b2) * g2.mean(axis=-1)
            col = b2 * col + (1.0 - b2) * g2.mean(axis=-2)
            buffers["row"] = _store_state(row, config.state_bits)
            buffers["col"] = _store_state(col, config.state_bits)
            denom = np.sqrt(row[..., :, None] * col[..., None, :] / (row.mean() + eps)) + eps
        else:
            v = buffers["v"].astype(np.float32)
            v = b2 * v + (1.0 - b2) * grad * grad
            buffers["v"] = _store_state(v, config.state_bits)
            denom = np.sqrt(v) + eps
        update = update / denom
    if config.decoupled_decay:
        params *= 1.0 - lr * wd
    params -= lr * update


def _store_state(arr: np.ndarray, bits: int) -> np.ndarray:
    if bits == 32:
        return arr
    if bits == 16:
        return arr.astype(np.float16)
    # int8 storage with a per-tensor absmax scale, as 8-bit optimizers do
    scale = float(np.abs(arr).max()) / 127.0 or 1.0
    return (np.clip(np.round(arr / scale), -127, 127) * scale).astype(np.float32)


def _make_buffers(config: Configuration, shape: tuple[int, ...]) -> dict:
    rng = np.random.Generator(np.random.Philox(12345))
    buffers = {
        "params": rng.standard_normal(shape).astype(np.float32),
        "grad": rng.standard_normal(shape).astype(np.float32),
    }
    if config.momentum:
        buffers["m"] = _store_state(np.zeros(shape, np.float32), config.state_bits)
    if config.adaptive and config.factorized:
        buffers["row"] = _store_state(np.zeros(shape[:-1], np.float32), config.state_bits)
        buffers["col"] = _store_state(np.zeros(shape[:-2] + shape[-1:], np.float32), config.state_bits)
    elif config.adaptive:
        buffers["v"] = _store_state(np.zeros(shape, np.float32), config.state_bits)
    return buffers


def _time_kernel(config: Configuration, shape: tuple[int, ...], repetitions: int) -> float:
    buffers = _make_buffers(config, shape)
    _one_step_kernel(config, shape, buffers)  # warm caches and allocator
    samples = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        _one_step_kernel(config, shape, buffers)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure_update_ratio(config: Configuration, block_shape: BlockShape, repetitions: int) -> float:
    """Time one update step of `config` relative to AdamW16 on the same shape.

    Median over `repetitions`. The baseline is self-normalized: AdamW16
    returns exactly 1.0. Call from a single thread at a time; concurrent
    timing runs corrupt each other.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if config.factorized and not block_shape.supports_factorized:
        raise InvalidConfigurationError(
            f"factorized configuration cannot run on shape {block_shape.dims}"
        )
    if config == ADAMW16:
        return 1.0
    shape = tuple(block_shape.dims)
    measured = _time_kernel(config, shape, repetitions)
    baseline = _time_kernel(ADAMW16, shape, repetitions)
    return measured / baseline


def measure_cost_model(
    block_shape: BlockShape,
    repetitions: int = 25,
    policy: CandidatePolicy = DEFAULT_POLICY,
) -> CostModel:
    """Build a measured CostModel over the policy grid on a reference shape."""
    table: dict[tuple[str, int], float] = {}
    for cfg in enumerate_candidates(block_shape, policy):
        bits = 32 if cfg.stateless else cfg.state_bits
        table[(cfg.family, bits)] = measure_update_ratio(cfg, block_shape, repetitions)
    table[("adamw", 16)] = 1.0
    return CostModel(ratio_table=table, source="measured")
