"""Streaming per-block gradient diagnostics.

Each traced block owns one `DiagnosticsState` that folds sampled gradient
vectors into exponential moving averages: first/second moments, step-to-step
direction stability, and (for matrix blocks) one squared-gradient EMA per
occupied cell of a compacted row/column grid, so a step costs O(samples).
Raw metrics, the distortion and the squared-gradient matrix included, are
derived from the final EMA values at the end of warmup:

- anisotropy: log ratio of the 0.9/0.1 quantiles of the second moment
- direction stability and a signal-to-noise proxy, gating momentum need
- distortion: how unevenly the adaptive preconditioner scales parameters
- structure residual: distance of the squared-gradient matrix from its
  row/column-mean rank-1 reconstruction
- precision cosine: alignment of the quantized-state update direction with
  the full-precision one, per candidate bit-width
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trace import BlockSpec

#: Numerical-stability constant for metric formulas.
EPS = 1e-12
#: Adam-style denominator constant for update directions (kept distinct from
#: EPS so preconditioners stay numerically useful).
EPS_UPDATE = 1e-8

DEFAULT_BETAS = (0.9, 0.999, 0.9)  # (first moment, second moment, direction stability)


def anisotropy(v_hat: np.ndarray) -> float:
    """log((Q0.9 + eps) / (Q0.1 + eps)) with linear-interpolation quantiles."""
    v = np.asarray(v_hat, dtype=np.float64)
    if v.size == 0:
        raise ValueError("anisotropy needs a nonempty vector")
    q_low, q_high = np.quantile(v, [0.1, 0.9])
    return float(np.log((q_high + EPS) / (q_low + EPS)))


def snr(m_hat: np.ndarray, v_hat: np.ndarray) -> float:
    """Squared first-moment norm over the L1 mass of the second moment."""
    m = np.asarray(m_hat, dtype=np.float64)
    v = np.asarray(v_hat, dtype=np.float64)
    if m.shape != v.shape:
        raise ValueError("m_hat and v_hat must have matching lengths")
    return float(m @ m / (np.abs(v).sum() + EPS))


def distortion(v_hat: np.ndarray, param_sample: np.ndarray) -> float:
    """Relative parameter-weighted deviation of the preconditioner from its mean."""
    v = np.asarray(v_hat, dtype=np.float64)
    theta = np.asarray(param_sample, dtype=np.float64)
    if v.shape != theta.shape:
        raise ValueError("v_hat and param_sample must have matching lengths")
    p = 1.0 / (np.sqrt(v) + EPS)
    deviation = (p / p.mean() - 1.0) * theta
    return float(np.linalg.norm(deviation) / (np.linalg.norm(theta) + EPS))


def structure_residual(S: np.ndarray) -> float:
    """Relative Frobenius error of the row/column-mean rank-1 reconstruction.

    Exact zero for any positive outer product; returns 0 when the matrix has
    no mass.
    """
    mat = np.asarray(S, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2 or mat.shape[1] < 2:
        raise ValueError(f"structure residual needs a matrix of at least 2x2, got shape {mat.shape}")
    overall = mat.mean()
    if overall <= EPS:
        return 0.0
    approx = np.outer(mat.mean(axis=1), mat.mean(axis=0)) / overall
    return float(np.linalg.norm(mat - approx) / (np.linalg.norm(mat) + EPS))


def quantize(x: np.ndarray, bits: int) -> np.ndarray:
    """Emulate storing `x` at the given state precision and reading it back.

    32: identity. 16: IEEE binary16 round-to-nearest-even, saturating at the
    largest finite half-precision value. 8: symmetric absmax linear
    quantization onto 255 signed levels (scale = absmax/127).
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
        scale = absmax / 127.0
        return np.clip(np.round(arr / scale), -127, 127) * scale
    raise ValueError(f"unsupported bit-width {bits}")


def precision_similarity(m_hat: np.ndarray, v_hat: np.ndarray, bits: int) -> float:
    """Cosine between full-precision and quantized-state update directions.

    Clipped into [EPS, 1]. A zero full-precision update has no direction to
    distort and reports 1. bits=32 is exactly 1 by definition.
    """
    if bits == 32:
        return 1.0
    m = np.asarray(m_hat, dtype=np.float64)
    v = np.asarray(v_hat, dtype=np.float64)
    if m.shape != v.shape:
        raise ValueError("m_hat and v_hat must have matching lengths")
    u_full = m / (np.sqrt(v) + EPS_UPDATE)
    norm_full = np.linalg.norm(u_full)
    if norm_full == 0.0:
        return 1.0
    u_quant = quantize(m, bits) / (np.sqrt(quantize(v, bits)) + EPS_UPDATE)
    cos = float(u_full @ u_quant / (norm_full * np.linalg.norm(u_quant) + EPS))
    return float(np.clip(cos, EPS, 1.0))


@dataclass(frozen=True, slots=True)
class RawMetrics:
    """Snapshot of the six raw diagnostics for one block."""

    anisotropy: float
    direction_stability: float
    snr: float
    distortion: float
    structure_residual: float
    precision_cosine: dict[int, float]
    steps: int

    def to_json_dict(self, block_id: int) -> dict:
        return {
            "block_id": block_id,
            "A": self.anisotropy,
            "rho_bar": self.direction_stability,
            "snr": self.snr,
            "C": self.distortion,
            "F": self.structure_residual,
            "Q": {str(b): q for b, q in sorted(self.precision_cosine.items(), reverse=True)},
            "steps": self.steps,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RawMetrics":
        return cls(
            anisotropy=float(d["A"]),
            direction_stability=float(d["rho_bar"]),
            snr=float(d["snr"]),
            distortion=float(d["C"]),
            structure_residual=float(d["F"]),
            precision_cosine={int(b): float(q) for b, q in d["Q"].items()},
            steps=int(d["steps"]),
        )


class DiagnosticsState:
    """EMA accumulators for one block's sampled gradient stream.

    One writer at a time per block; snapshot reads are side-effect free.
    """

    def __init__(
        self,
        spec: BlockSpec,
        betas: tuple[float, float, float] = DEFAULT_BETAS,
        eps: float = EPS,
    ):
        self.spec = spec
        self.beta_m, self.beta_v, self.beta_rho = betas
        self.eps = eps
        n = spec.sample_size
        self.exp_avg = np.zeros(n, dtype=np.float64)
        self.exp_avg_sq = np.zeros(n, dtype=np.float64)
        self.direction_stability = 0.0
        self.prev_grad: np.ndarray | None = None
        self.step_count = 0
        self._last_params: np.ndarray | None = None
        self._params_exp_avg_sq: np.ndarray | None = None
        self._grid_shape: tuple[int, int] | None = None
        if len(spec.shape.dims) >= 2:
            rows_full, cols_full = spec.shape.dims[-2], spec.shape.dims[-1]
            within = np.asarray(spec.sample_indices, dtype=np.int64) % (rows_full * cols_full)
            rows, row_rank = np.unique(within // cols_full, return_inverse=True)
            cols, col_rank = np.unique(within % cols_full, return_inverse=True)
            if len(rows) >= 2 and len(cols) >= 2:
                self._grid_shape = (len(rows), len(cols))
                cells, self._cell_of, self._cell_count = np.unique(
                    row_rank * len(cols) + col_rank, return_inverse=True, return_counts=True
                )
                self._cell_row, self._cell_col = np.divmod(cells, len(cols))
                self._cell_sq = np.zeros(len(cells), dtype=np.float64)

    @property
    def sq_matrix(self) -> np.ndarray | None:
        """Squared-gradient EMA on the grid of occupied rows/columns of the two
        trailing axes (leading axes pool in; samples sharing a cell enter as
        their mean), unobserved cells 0. None unless the grid is at least 2x2."""
        if self._grid_shape is None:
            return None
        mat = np.zeros(self._grid_shape, dtype=np.float64)
        mat[self._cell_row, self._cell_col] = self._cell_sq
        return mat

    @property
    def last_distortion(self) -> float:
        """Distortion of the last parameter sample, or 0 if no step had one."""
        if self._last_params is None:
            return 0.0
        return distortion(self._params_exp_avg_sq, self._last_params)

    def update(self, grad_sample: np.ndarray, param_sample: np.ndarray | None = None) -> None:
        """Fold one step's sampled gradient (and optional parameters) in.

        The last gradient and parameter arrays are kept by reference, not
        copied: a caller must not modify a passed array in place afterwards.
        """
        g = np.asarray(grad_sample, dtype=np.float64)
        if g.shape != self.exp_avg.shape:
            raise ValueError(
                f"block {self.spec.id}: gradient sample length {g.shape} "
                f"does not match state length {self.exp_avg.shape}"
            )
        self.exp_avg = self.beta_m * self.exp_avg + (1.0 - self.beta_m) * g
        self.exp_avg_sq = self.beta_v * self.exp_avg_sq + (1.0 - self.beta_v) * g * g
        if self.prev_grad is not None:
            norms = np.linalg.norm(g) * np.linalg.norm(self.prev_grad)
            cos = 0.0 if norms == 0.0 else float(g @ self.prev_grad / (norms + self.eps))
            self.direction_stability = self.beta_rho * self.direction_stability + (1.0 - self.beta_rho) * cos
        if self._grid_shape is not None:
            cell_mean = np.bincount(self._cell_of, weights=g * g) / self._cell_count
            self._cell_sq = self.beta_v * self._cell_sq + (1.0 - self.beta_v) * cell_mean
        if param_sample is not None:
            theta = np.asarray(param_sample, dtype=np.float64)
            if theta.shape != self.exp_avg.shape:
                raise ValueError(
                    f"block {self.spec.id}: parameter sample length {theta.shape} "
                    f"does not match state length {self.exp_avg.shape}"
                )
            self._last_params = theta
            self._params_exp_avg_sq = self.exp_avg_sq  # rebound every step, never written in place
        self.prev_grad = g
        self.step_count += 1

    def snapshot(self, bits: tuple[int, ...] = (32, 16, 8)) -> RawMetrics:
        """Read the raw metrics off the current EMA values."""
        if self.step_count == 0:
            raise ValueError(f"block {self.spec.id}: no updates folded in yet")
        sq_matrix = self.sq_matrix
        residual = structure_residual(sq_matrix) if sq_matrix is not None else 0.0
        q = {b: precision_similarity(self.exp_avg, self.exp_avg_sq, b) for b in sorted(set(bits), reverse=True)}
        return RawMetrics(
            anisotropy=anisotropy(self.exp_avg_sq),
            direction_stability=self.direction_stability,
            snr=snr(self.exp_avg, self.exp_avg_sq),
            distortion=self.last_distortion,
            structure_residual=residual,
            precision_cosine=q,
            steps=self.step_count,
        )
