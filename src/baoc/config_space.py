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
import types
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .documents import json_bool, json_int, json_ints, json_number, json_object, json_str, read

VALID_BITS = (32, 16, 8)


def quantize(x: np.ndarray, bits: int) -> np.ndarray:
    """Emulate storing `x` at the given state precision and reading it back.

    32: identity. 16: IEEE binary16 round-to-nearest-even, saturating at the
    largest finite half-precision value. 8: symmetric absmax linear
    quantization onto 255 signed levels (scale = absmax/127). The level is
    round(x / absmax * 127), so a subnormal absmax, whose scale underflows
    to 0, still gives finite values.
    """
    arr = np.asarray(x, dtype=np.float64)
    if bits == 32:
        return arr.copy()
    if bits == 16:
        largest = float(np.finfo(np.float16).max)
        return np.clip(arr, -largest, largest).astype(np.float16).astype(np.float64)
    if bits == 8:
        absmax = float(np.abs(arr).max()) if arr.size else 0.0
        if absmax == 0.0:
            return np.zeros_like(arr)
        return np.clip(np.round(arr / absmax * 127.0), -127, 127) * (absmax / 127.0)
    raise ValueError(f"unsupported bit-width {bits}")


#: The families of the candidate grid: AdamW, Adam, SGD, SGD+momentum, SGDW,
#: SGDW+momentum, Adafactor. Stateless families carry no bit-width axis.
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
    def from_json_dict(cls, d: object) -> "Configuration":
        """A configuration from its JSON object: four boolean flags and an
        integer `bits`; ValueError naming the key otherwise."""
        flags = {key: read(d, key, json_bool) for key in ("adaptive", "momentum", "decoupled_decay", "factorized")}
        return cls(**flags, state_bits=read(d, "bits", json_int))

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

    @classmethod
    def from_json(cls, dims: object) -> "BlockShape":
        """A shape from a JSON ``dims`` list; ValueError unless it holds integers."""
        return cls(tuple(json_ints(dims).tolist()))

    @property
    def param_count(self) -> int:
        return math.prod(self.dims)

    @property
    def supports_factorized(self) -> bool:
        """Factorization replaces the second moment by one vector per trailing
        axis; it needs two non-degenerate trailing axes to mean anything."""
        return len(self.dims) >= 2 and self.dims[-1] > 1 and self.dims[-2] > 1

    @property
    def factor_length(self) -> int:
        """Elements of the factored second moment: a row and a column vector
        over the two trailing axes, per index of the leading axes. Needs at
        least two axes."""
        return math.prod(self.dims[:-2]) * (self.dims[-2] + self.dims[-1])


@dataclass(frozen=True, eq=False)
class GridColumns:
    """The candidate grid with each configuration attribute as a read-only
    array, one entry per configuration in grid order."""

    configs: tuple[Configuration, ...]
    keys: tuple[tuple[str, int], ...]  # (family, state bits), as `CostModel` keys its ratios
    adaptive: np.ndarray
    momentum: np.ndarray
    decoupled_decay: np.ndarray
    factorized: np.ndarray
    stateless: np.ndarray
    bits: np.ndarray  # int64 state bits
    bits_at: np.ndarray  # position of each configuration's bits in VALID_BITS
    aggressiveness: np.ndarray  # float64, `aggressiveness` of each configuration


def enumerate_candidates(block_shape: BlockShape) -> list[Configuration]:
    """The candidate grid for one block, in canonical order (see `enumerate_candidates_multi`)."""
    return enumerate_candidates_multi((block_shape,))


def enumerate_candidates_multi(shapes: Sequence[BlockShape]) -> list[Configuration]:
    """Candidates valid for every tensor of a block, as a new list in canonical order.

    Factorized entries need two non-degenerate trailing axes, so they are
    dropped when any shape lacks them.
    """
    if not shapes:
        raise ValueError("need at least one shape")
    if all(s.supports_factorized for s in shapes):
        return list(GRID.configs)
    return [c for c in GRID.configs if not c.factorized]


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
            elements += block_shape.factor_length
        else:
            elements += block_shape.param_count
    return elements * (config.state_bits // 8)


def state_bytes_table(params: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """`state_bytes` summed over each block's shapes, for every grid configuration.

    `params` holds each block's summed parameter count and `factors` its
    summed `factor_length` (int64, one entry per block). Returns an int64
    (blocks, configurations) array; its factorized entries mean something
    only for blocks whose every shape supports factorization. The caller
    keeps the products within int64.
    """
    second = np.where(GRID.factorized, factors[:, None], params[:, None])
    elements = GRID.momentum * params[:, None] + GRID.adaptive * second
    return elements * np.where(GRID.stateless, 0, GRID.bits // 8)


def aggressiveness(config: Configuration) -> float:
    """Penalty for dropping mechanisms, factorizing, or cutting precision.

    Zero only for AdamW32; each dropped mechanism adds 1, factorization adds
    1, and bit reduction adds 32/b - 1 (stateless configurations are 32-bit).
    """
    return (
        (0.0 if config.adaptive else 1.0)
        + (0.0 if config.momentum else 1.0)
        + (0.0 if config.decoupled_decay else 1.0)
        + (1.0 if config.factorized else 0.0)
        + 32.0 / config.state_bits
        - 1.0
    )


def _grid_columns() -> GridColumns:
    """Every family at every bit-width, in conservative-first canonical order.
    Stateless families collapse the bit-width axis into one 32-bit entry."""
    configs = sorted(
        {Configuration.from_family(family, bits) for family in _FAMILY_FLAGS for bits in VALID_BITS},
        key=Configuration.sort_key,
    )

    def column(values: list, dtype) -> np.ndarray:
        out = np.array(values, dtype=dtype)
        out.flags.writeable = False
        return out

    return GridColumns(
        configs=tuple(configs),
        keys=tuple((c.family, c.state_bits) for c in configs),
        adaptive=column([c.adaptive for c in configs], bool),
        momentum=column([c.momentum for c in configs], bool),
        decoupled_decay=column([c.decoupled_decay for c in configs], bool),
        factorized=column([c.factorized for c in configs], bool),
        stateless=column([c.stateless for c in configs], bool),
        bits=column([c.state_bits for c in configs], np.int64),
        bits_at=column([VALID_BITS.index(c.state_bits) for c in configs], np.int64),
        aggressiveness=column([aggressiveness(c) for c in configs], np.float64),
    )


#: The one candidate grid: 17 configurations, 14 without the factorized ones.
#: `exclude` selectors narrow it.
GRID = _grid_columns()


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

    ratio_table: Mapping[tuple[str, int], float]
    source: str = "static_table"

    def __post_init__(self) -> None:
        base = self.ratio_table.get(("adamw", 16))
        if base != 1.0:
            raise ValueError(f"ratio for (adamw, 16) must be exactly 1.0, got {base}")
        for key, ratio in self.ratio_table.items():
            if not (ratio > 0):
                raise ValueError(f"ratio for {key} must be positive, got {ratio}")

    def ratio(self, config: Configuration) -> float:
        key = (config.family, config.state_bits)
        try:
            return self.ratio_table[key]
        except KeyError:
            raise KeyError(f"cost model has no ratio for {key[0]}:{key[1]}") from None

    def ratio_row(self, used: np.ndarray) -> np.ndarray:
        """`ratio` of each grid configuration that `used` marks, else 0.0;
        ValueError naming the first marked configuration without a ratio."""
        try:
            return np.array([self.ratio_table[key] if u else 0.0 for key, u in zip(GRID.keys, used.tolist())])
        except KeyError as exc:
            raise ValueError("no ratio for {}:{}".format(*exc.args[0])) from None

    @staticmethod
    def static_default() -> "CostModel":
        """The placeholder table over the candidate grid; one shared, read-only model."""
        return _STATIC_COST_MODEL

    def to_json_dict(self) -> dict:
        return {
            "ratios": {f"{fam}:{bits}": r for (fam, bits), r in sorted(self.ratio_table.items())},
            "source": self.source,
        }

    @classmethod
    def from_json_dict(cls, d: object) -> "CostModel":
        """The model `to_json_dict` writes: `ratios` maps "family:bits" keys,
        bits one of `VALID_BITS`, to numbers; ValueError naming the key otherwise."""
        return cls(ratio_table=read(d, "ratios", _ratio_table), source=read(d, "source", json_str, "static_table"))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def _ratio_table(ratios: object) -> dict[tuple[str, int], float]:
    bits_of = {str(b): b for b in VALID_BITS}
    table = {}
    for key in json_object(ratios):
        family, _, bits = key.partition(":")
        if not family or bits not in bits_of:
            raise ValueError(f"key {key!r} is not family:bits with bits in {VALID_BITS}")
        table[(family, bits_of[bits])] = read(ratios, key, json_number)
    return table


_STATIC_COST_MODEL = CostModel(  # shared, so read-only
    ratio_table=types.MappingProxyType({key: _static_ratio(cfg) for key, cfg in zip(GRID.keys, GRID.configs)}),
    source="static_table",
)


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
    return quantize(arr, 8).astype(np.float32)


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


def measure_cost_model(block_shape: BlockShape, repetitions: int = 25) -> CostModel:
    """Build a measured CostModel over the candidate grid on a reference shape."""
    table = {
        (cfg.family, cfg.state_bits): measure_update_ratio(cfg, block_shape, repetitions)
        for cfg in enumerate_candidates(block_shape)
    }
    return CostModel(ratio_table=table, source="measured")
