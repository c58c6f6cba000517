"""Normalization of raw diagnostics into risk signals and per-candidate risk.

Raw metrics have incomparable scales; fixed anchors map them into need/risk
signals without any tuning on validation data. The per-candidate mismatch
risk is a linear combination of the signals gated by which mechanisms the
candidate drops, plus a precision term, optionally biased by a soft
preference set. The allocation objective term adds an aggressiveness penalty
on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config_space import GRID, VALID_BITS, Configuration, aggressiveness
from .diagnostics import EPS, RawMetrics
from .documents import json_number, json_object, json_str, load, naming, read, read_list


@dataclass(frozen=True, slots=True)
class Anchors:
    """Fixed normalization anchors; low < high for each pair.

    ``global_scale`` multiplies the anisotropy anchors, which is the knob the
    perturbation harness turns.
    """

    A_low: float = math.log(2.0)
    A_high: float = math.log(10.0)
    rho_low: float = 0.2
    rho_high: float = 0.6
    eta_low: float = 0.0
    eta_high: float = 2.0
    global_scale: float = 1.0

    def __post_init__(self) -> None:
        for lo, hi, name in (
            (self.A_low, self.A_high, "A"),
            (self.rho_low, self.rho_high, "rho"),
            (self.eta_low, self.eta_high, "eta"),
        ):
            if not lo < hi:
                raise ValueError(f"anchor pair {name}: low ({lo}) must be < high ({hi})")
        if not self.global_scale > 0:
            raise ValueError("global_scale must be positive")

    def scaled(self, factor: float) -> "Anchors":
        return replace(self, global_scale=self.global_scale * factor)

    def to_json_dict(self) -> dict:
        return {
            "A_low": self.A_low,
            "A_high": self.A_high,
            "rho_low": self.rho_low,
            "rho_high": self.rho_high,
            "eta_low": self.eta_low,
            "eta_high": self.eta_high,
            "global_scale": self.global_scale,
        }

    @classmethod
    def from_json_dict(cls, d: object) -> "Anchors":
        """Anchors from a JSON object; a key it lacks keeps its default."""
        defaults = cls()
        known = ("A_low", "A_high", "rho_low", "rho_high", "eta_low", "eta_high", "global_scale")
        return cls(**{k: read(d, k, json_number, getattr(defaults, k)) for k in known})


@dataclass(frozen=True, slots=True)
class RiskSignals:
    """Normalized per-block signals feeding the risk combination."""

    geometry: float          # need for adaptive scaling, in [0, 1]
    momentum: float          # need for momentum, in [0, 1]
    distortion: float        # need for decoupled decay, log-compressed, >= 0
    structure: float         # risk of factorized states, in [0, 1]
    precision: dict[int, float]  # bit-width -> risk of quantized states

    def partition_vector(self) -> tuple[float, float, float, float]:
        """Commensurate 4-vector used by the block partitioner's distance."""
        return (self.geometry, self.momentum, min(self.distortion, 1.0), self.structure)


@dataclass(frozen=True)
class RiskWeights:
    """User weights for the risk terms plus the soft-preference mechanism."""

    w_A: float = 1.0
    w_M: float = 1.0
    w_C: float = 1.0
    w_F: float = 1.0
    w_Q: float = 1.0
    pref_set: frozenset[Configuration] = frozenset()
    lambda_pref: float = 0.0

    def __post_init__(self) -> None:
        for name in ("w_A", "w_M", "w_C", "w_F", "w_Q", "lambda_pref"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def _clip01(x: float) -> float:
    return min(1.0, max(0.0, x))


def geometry_signal(A: float, anchors: Anchors = Anchors()) -> float:
    """Map raw anisotropy onto [0, 1] between the (scaled) fixed anchors."""
    low = anchors.A_low * anchors.global_scale
    high = anchors.A_high * anchors.global_scale
    return _clip01((A - low) / (high - low))


def momentum_need(rho_bar: float, snr: float, anchors: Anchors = Anchors()) -> float:
    """Product of the direction-stability gate and the log-compressed SNR gate.

    Every diagnostics snapshot computes an SNR, so both gates always apply.
    """
    s_rho = _clip01((rho_bar - anchors.rho_low) / (anchors.rho_high - anchors.rho_low))
    s_snr = _clip01((math.log1p(snr) - anchors.eta_low) / (anchors.eta_high - anchors.eta_low))
    return s_rho * s_snr


def distortion_signal(C: float) -> float:
    """Log compression; left unbounded, w_C absorbs the scale."""
    return math.log1p(C)


def structure_signal(F: float) -> float:
    return _clip01(F)


def precision_risk(Q: float) -> float:
    """Risk grows as the quantized update direction drifts off alignment."""
    return -math.log(Q + EPS)


def signals_from_metrics(metrics: RawMetrics, anchors: Anchors = Anchors()) -> RiskSignals:
    return RiskSignals(
        geometry=geometry_signal(metrics.anisotropy, anchors),
        momentum=momentum_need(metrics.direction_stability, metrics.snr, anchors),
        distortion=distortion_signal(metrics.distortion),
        structure=structure_signal(metrics.structure_residual),
        precision={b: precision_risk(q) for b, q in metrics.precision_cosine.items()},
    )


def risk(config: Configuration, signals: RiskSignals, weights: RiskWeights = RiskWeights()) -> float:
    """Mismatch risk of applying `config` to a block with these signals.

    Dropping a needed mechanism incurs its signal; factorizing incurs the
    structure signal; storing states below 32 bits incurs the precision risk
    (stateless candidates have no states, hence no precision term). Members
    of the preference set get lambda_pref subtracted.
    """
    value = 0.0
    if not config.adaptive:
        value += weights.w_A * signals.geometry
    if not config.momentum:
        value += weights.w_M * signals.momentum
    if not config.decoupled_decay:
        value += weights.w_C * signals.distortion
    if config.factorized:
        value += weights.w_F * signals.structure
    if not config.stateless:
        try:
            value += weights.w_Q * signals.precision[config.state_bits]
        except KeyError:
            raise KeyError(f"no precision signal for {config.state_bits}-bit states") from None
    if config in weights.pref_set:
        value -= weights.lambda_pref
    return value


def phi(
    config: Configuration,
    signals: RiskSignals,
    weights: RiskWeights = RiskWeights(),
    gamma: float = 0.1,
) -> float:
    """Allocation objective term: risk plus gamma times aggressiveness.

    The scalar definition; `phi_table` computes it for a whole grid at once
    and must agree with it bit for bit.
    """
    return risk(config, signals, weights) + gamma * aggressiveness(config)


# Where each of `risk`'s five terms (A, M, C, F, Q) counts in the grid, and
# which signal it reads: a (5, configurations) mask and a (5, configurations)
# index into (geometry, momentum, distortion, structure, precision at each of
# VALID_BITS).
_TERM_MASK = np.stack((~GRID.adaptive, ~GRID.momentum, ~GRID.decoupled_decay, GRID.factorized, ~GRID.stateless))
_TERM_SOURCE = np.repeat(np.arange(5).reshape(5, 1), GRID.bits.size, axis=1)
_TERM_SOURCE[4] += GRID.bits_at
_TERM_MASK.flags.writeable = _TERM_SOURCE.flags.writeable = False


def phi_table(
    signals: Sequence[RiskSignals],
    weights: RiskWeights = RiskWeights(),
    gamma: float = 0.1,
    used: np.ndarray | None = None,
) -> np.ndarray:
    """`phi` of every grid configuration for every block, as a (blocks, configurations) array.

    The terms are added in `risk`'s order (A, M, C, F, Q, then the preference
    subtracted), a skipped term adding 0.0, and gamma times aggressiveness
    last, so every entry is bit-identical to the scalar `phi`. A stateful
    configuration whose bit-width has no precision signal raises KeyError in
    the cells `used` marks (every cell by default); the other cells are not
    meaningful then.
    """
    rows = [(s.geometry, s.momentum, s.distortion, s.structure, *map(s.precision.get, VALID_BITS)) for s in signals]
    if any(None in row for row in rows):
        live = _TERM_MASK[4] & (np.ones((len(rows), 1), dtype=bool) if used is None else used)
        for i, j in np.argwhere(live).tolist():
            if rows[i][_TERM_SOURCE[4, j]] is None:
                raise KeyError(f"no precision signal for {GRID.bits[j]}-bit states")
    raw = np.array(rows, dtype=np.float64).reshape(len(rows), 4 + len(VALID_BITS))  # None reads as NaN
    scale = np.array([weights.w_A, weights.w_M, weights.w_C, weights.w_F, weights.w_Q]).reshape(5, 1)
    terms = np.where(_TERM_MASK, scale * raw[:, _TERM_SOURCE], 0.0)  # (blocks, terms, configurations)
    value = 0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3] + terms[:, 4]
    if weights.pref_set:
        preferred = np.array([c in weights.pref_set for c in GRID.configs], dtype=bool)
        value = value - np.where(preferred, weights.lambda_pref, 0.0)
    return value + gamma * GRID.aggressiveness


def parse_selector(text: str) -> tuple[str, int | None]:
    """Parse a "family" or "family:bits" candidate selector."""
    fam, sep, bits_text = text.partition(":")
    fam = fam.strip().lower()
    if not fam:
        raise ValueError(f"empty family in selector {text!r}")
    if not sep:
        return fam, None
    try:
        bits = int(bits_text)
    except ValueError:
        raise ValueError(f"bad bit-width in selector {text!r}") from None
    if bits not in (32, 16, 8):
        raise ValueError(f"bit-width in selector {text!r} must be 8, 16, or 32")
    return fam, bits


def selector_matches(selector: tuple[str, int | None], config: Configuration) -> bool:
    fam, bits = selector
    if config.family != fam:
        return False
    return bits is None or config.state_bits == bits


def expand_selectors(
    selectors: Iterable[str | tuple[str, int | None]],
    candidates: Iterable[Configuration],
) -> frozenset[Configuration]:
    """Concrete configuration set matched by family[:bits] selectors."""
    parsed = [parse_selector(s) if isinstance(s, str) else s for s in selectors]
    return frozenset(c for c in candidates if any(selector_matches(p, c) for p in parsed))


def load_risk_config(path: str | Path) -> tuple[Anchors, RiskWeights, list[str]]:
    """Read anchors, weights, and preference selectors from one JSON file.

    Schema: {"anchors": {...}, "weights": {"w_A": ..., ...},
    "lambda_pref": ..., "prefer": ["family[:bits]", ...]}; every key optional.
    A malformed value, a bad selector included, raises a ValueError naming
    the file and the key.
    """
    return load(path, "risk config", _risk_settings)


def _risk_settings(d: dict) -> tuple[Anchors, RiskWeights, list[str]]:
    anchors = read(d, "anchors", Anchors.from_json_dict, Anchors())
    w = read(d, "weights", json_object, {})
    with naming("'weights'"):
        terms = {k: read(w, k, json_number, 1.0) for k in ("w_A", "w_M", "w_C", "w_F", "w_Q")}
    weights = RiskWeights(**terms, lambda_pref=read(d, "lambda_pref", json_number, 0.0))
    return anchors, weights, read_list(d, "prefer", _selector, [])


def _selector(value: object) -> str:
    """A "family[:bits]" string that `parse_selector` accepts."""
    text = json_str(value)
    parse_selector(text)
    return text
