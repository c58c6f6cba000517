"""Streaming per-block gradient diagnostics.

Each traced block owns one `DiagnosticsState` that folds sampled gradient
vectors into exponential moving averages: first/second moments per sample
and step-to-step direction stability, so a step costs O(samples). Raw
metrics, the distortion and the structure residual included, are derived
from the final EMA values at the end of warmup. A matrix block's
squared-gradient grid is one value per occupied cell of a compacted
row/column grid, the mean of its samples' second moments, derived once at
snapshot time: no metric builds the block's dense matrix.

An EMA is linear, so the mean of a cell's per-sample EMAs of g^2 equals, in
exact arithmetic, the EMA of the cell's per-step mean g^2. In floats every
term is non-negative, so no rounding cancels into a larger relative error:
after T steps, the mean that `snapshot` takes and a step-wise per-cell EMA
are each within (2T + k + 1) units of roundoff (2^-53), relative and to
first order, of the exact value for a cell of k samples.

- anisotropy: log ratio of the 0.9/0.1 quantiles of the second moment
- direction stability and a signal-to-noise proxy, gating momentum need
- distortion: how unevenly the adaptive preconditioner scales parameters
- structure residual: distance of the squared-gradient matrix from its
  row/column-mean rank-1 reconstruction, unobserved grid cells counting as
  zeros, in O(cells + rows + columns)
- precision cosine: alignment of the quantized-state update direction with
  the full-precision one, per candidate bit-width
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config_space import VALID_BITS, quantize
from .documents import BadValue, json_count, json_fraction, json_number, json_object, naming, read
from .trace import BlockSpec

#: Numerical-stability constant for metric formulas.
EPS = 1e-12
#: Adam-style denominator constant for update directions (kept distinct from
#: EPS so preconditioners stay numerically useful).
EPS_UPDATE = 1e-8

#: EMA decay rates of the first moment, the second moment and direction stability.
BETA_M, BETA_V, BETA_RHO = 0.9, 0.999, 0.9


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
    no mass. The nonzero cells of `S` go through `_cell_structure_residual`,
    which is exact because a zero cell and an absent one contribute alike.
    """
    mat = np.asarray(S, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] < 2 or mat.shape[1] < 2:
        raise ValueError(f"structure residual needs a matrix of at least 2x2, got shape {mat.shape}")
    rows, cols = np.nonzero(mat)
    return _cell_structure_residual(rows, cols, mat[rows, cols], mat.shape)


def _cell_structure_residual(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]
) -> float:
    """`structure_residual` of a `shape` matrix given only its listed cells.

    Cells are distinct (row, column) pairs; every other cell is 0. With row
    sums a, column sums b and total T, the reconstruction of cell (i, j) is
    a_i b_j / T. Listed cells add their squared error; the unlisted cells of
    row i add a_i^2 (sum of b_j^2 over its unlisted columns) / T^2. Costs
    O(cells + rows + columns).
    """
    n_rows, n_cols = shape
    a = np.bincount(rows, weights=values, minlength=n_rows)
    b = np.bincount(cols, weights=values, minlength=n_cols)
    total = a.sum()
    if total / (n_rows * n_cols) <= EPS:
        return 0.0
    listed_err = values - a[rows] * b[cols] / total
    b_sq = b * b
    # By subtraction, so clipped against rounding below 0, and exactly 0 for a
    # row listing every column with b_j != 0: an outer product, zero rows and
    # columns included, keeps a residual of 0 instead of sqrt(rounding).
    unlisted_b_sq = np.maximum(b_sq.sum() - np.bincount(rows, weights=b_sq[cols], minlength=n_rows), 0.0)
    live = b[cols] != 0.0
    unlisted_b_sq[np.bincount(rows[live], minlength=n_rows) == np.count_nonzero(b)] = 0.0
    err_sq = listed_err @ listed_err + (a * a) @ unlisted_b_sq / (total * total)
    return float(np.sqrt(err_sq) / (np.sqrt(values @ values) + EPS))


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
        """Read a `to_json_dict` row by the rules of `baoc.documents`; the row's
        ``block_id`` is not read.

        The five metrics and every ``Q`` value are finite JSON numbers in the
        ranges `snapshot` writes: A, snr, C and F at least 0 and each ``Q`` in
        (0, 1]; ``rho_bar`` is left unchecked, as a cosine EMA can round just
        past 1. ``Q`` is an object keyed by bit-widths of `VALID_BITS` written
        as integers, and ``steps`` an integer of at least 1. A missing key or
        a malformed value raises a ValueError naming the key. Floats written
        by `to_json_dict` read back bit-identical.
        """
        q = read(d, "Q", json_object)
        bit_keys = {str(b): b for b in VALID_BITS}
        precision = {}
        for key, value in q.items():
            if key not in bit_keys:
                raise ValueError(f"'Q' key {key!r} is not a bit-width in {VALID_BITS}")
            with naming(f"Q[{key!r}]"):
                precision[bit_keys[key]] = json_fraction(value)
        return cls(
            anisotropy=read(d, "A", _non_negative),
            direction_stability=read(d, "rho_bar", json_number),
            snr=read(d, "snr", _non_negative),
            distortion=read(d, "C", _non_negative),
            structure_residual=read(d, "F", _non_negative),
            precision_cosine=precision,
            steps=read(d, "steps", json_count),
        )


def _non_negative(value: object) -> float:
    number = json_number(value)
    if number >= 0:
        return number
    raise BadValue("a number >= 0", value)


def _norm(v: np.ndarray) -> float:
    """`np.linalg.norm` of a 1-D float64 vector, bit for bit, without its
    dispatch: the square root of the dot product of the elements in memory
    order. A strided view is copied first, as `np.linalg.norm` copies it:
    a dot product over strided memory sums in another order."""
    flat = v.ravel(order="K")
    return math.sqrt(flat.dot(flat))


class DiagnosticsState:
    """EMA accumulators for one block's sampled gradient stream.

    A block with two or more axes maps each sample to its cell of the two
    trailing axes once, at construction; leading axes pool in. Its
    squared-gradient grid is read off `exp_avg_sq` when asked for (see the
    module docstring for how it compares with a per-cell EMA), so `update`
    folds the per-sample EMAs alone.

    The norm of the last gradient is carried to the next step's direction
    stability instead of computed again.

    One writer at a time per block; snapshot reads are side-effect free.
    """

    def __init__(self, spec: BlockSpec):
        self.spec = spec
        n = spec.sample_size
        self.exp_avg = np.zeros(n, dtype=np.float64)
        self.exp_avg_sq = np.zeros(n, dtype=np.float64)
        self.direction_stability = 0.0
        self.prev_grad: np.ndarray | None = None
        self._prev_norm = 0.0
        self.step_count = 0
        self._last_params: np.ndarray | None = None
        self._params_exp_avg_sq: np.ndarray | None = None
        self._grid_shape: tuple[int, int] | None = None
        if len(spec.shape.dims) >= 2:
            rows_full, cols_full = spec.shape.dims[-2], spec.shape.dims[-1]
            within = spec.sample_indices % (rows_full * cols_full)
            rows, row_rank = np.unique(within // cols_full, return_inverse=True)
            cols, col_rank = np.unique(within % cols_full, return_inverse=True)
            if len(rows) >= 2 and len(cols) >= 2:
                self._grid_shape = (len(rows), len(cols))
                cells, self._cell_of, self._cell_count = np.unique(
                    row_rank * len(cols) + col_rank, return_inverse=True, return_counts=True
                )
                self._cell_row, self._cell_col = np.divmod(cells, len(cols))

    def _cell_means(self) -> np.ndarray:
        """The mean of `exp_avg_sq` over each occupied cell, in row-major cell order."""
        return np.bincount(self._cell_of, weights=self.exp_avg_sq) / self._cell_count

    @property
    def sq_matrix(self) -> np.ndarray | None:
        """Squared-gradient EMA on the grid of occupied rows/columns of the two
        trailing axes (leading axes pool in): each occupied cell holds the mean
        of its samples' `exp_avg_sq`, unobserved cells 0. None unless the grid
        is at least 2x2.

        An inspection view built on each access; `snapshot` never builds it.
        """
        if self._grid_shape is None:
            return None
        mat = np.zeros(self._grid_shape, dtype=np.float64)
        mat[self._cell_row, self._cell_col] = self._cell_means()
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
        self.exp_avg = BETA_M * self.exp_avg + (1.0 - BETA_M) * g
        self.exp_avg_sq = BETA_V * self.exp_avg_sq + (1.0 - BETA_V) * g * g
        norm = _norm(g)
        if self.prev_grad is not None:
            norms = norm * self._prev_norm
            cos = 0.0 if norms == 0.0 else float(g @ self.prev_grad / (norms + EPS))
            self.direction_stability = BETA_RHO * self.direction_stability + (1.0 - BETA_RHO) * cos
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
        self._prev_norm = norm
        self.step_count += 1

    def snapshot(self) -> RawMetrics:
        """Read the raw metrics off the current EMA values, with a precision
        cosine for each of `VALID_BITS`."""
        if self.step_count == 0:
            raise ValueError(f"block {self.spec.id}: no updates folded in yet")
        residual = 0.0
        if self._grid_shape is not None:
            residual = _cell_structure_residual(self._cell_row, self._cell_col, self._cell_means(), self._grid_shape)
        q = {b: precision_similarity(self.exp_avg, self.exp_avg_sq, b) for b in VALID_BITS}
        return RawMetrics(
            anisotropy=anisotropy(self.exp_avg_sq),
            direction_stability=self.direction_stability,
            snr=snr(self.exp_avg, self.exp_avg_sq),
            distortion=self.last_distortion,
            structure_residual=residual,
            precision_cosine=q,
            steps=self.step_count,
        )
