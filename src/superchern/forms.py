"""Graded matrix-valued differential forms on flat tori.

Coefficients live in Lambda(R^n) (x) Mat_m(C), sampled on a uniform periodic
grid with unit period per axis.  Form components are indexed by bitmasks over
the axes, products carry the Koszul sign determined by the Z2-grading of the
matrix factor, and the exterior derivative is evaluated per Fourier mode, so
it is exact on band-limited data.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChartMismatchError,
    ClosednessError,
    CycleError,
    ParityWarning,
)

__all__ = [
    "TorusChart",
    "Grading",
    "GradedMatrixForm",
    "FormClassReport",
    "wedge_mul",
    "exterior_d",
    "supertrace",
    "trace_wedge",
    "matrix_trace",
    "algebra_exp",
    "harmonic_part",
    "equal_mod_exact",
    "integrate",
    "sup_norm",
    "expm_batched",
]


@dataclass(frozen=True)
class TorusChart:
    """Flat torus T^dim with unit periods on a uniform grid of grid_size per axis.

    dim = 0 is a single point; every form of positive degree then vanishes.
    """

    dim: int
    grid_size: int = 32

    def __post_init__(self):
        if not 0 <= self.dim <= 3:
            raise ValueError(f"chart dimension must be 0..3, got {self.dim}")
        if self.dim >= 1:
            n = self.grid_size
            if n < 4:
                raise ValueError("grid_size must be at least 4")
            if n & (n - 1):
                raise ValueError("grid_size must be a power of two")

    @property
    def shape(self) -> tuple:
        return (self.grid_size,) * self.dim

    @property
    def n_components(self) -> int:
        return 1 << self.dim

    @property
    def cell_volume(self) -> float:
        return 1.0 / self.grid_size ** self.dim if self.dim else 1.0

    def coordinate(self, axis: int) -> np.ndarray:
        """Grid values of the axis-th coordinate, broadcastable over the grid."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        x = np.arange(self.grid_size) / self.grid_size
        shape = [1] * self.dim
        shape[axis] = self.grid_size
        return x.reshape(shape)

    def fourier_phase(self, k) -> np.ndarray:
        """exp(2 pi i k.x) on the grid for the mode k (one integer per axis)."""
        phase = np.zeros(self.shape)
        for a, ka in enumerate(k):
            phase = phase + ka * self.coordinate(a)
        return np.exp(2j * np.pi * phase)


class Grading:
    """Diagonal Z2-grading of a rank-m coefficient bundle (signature of gamma)."""

    __slots__ = ("signature",)

    def __init__(self, signature):
        sig = np.asarray(signature, dtype=np.int8).reshape(-1)
        if sig.size and not np.all(np.abs(sig) == 1):
            raise ValueError("grading signature entries must be +1 or -1")
        sig.setflags(write=False)
        object.__setattr__(self, "signature", sig)

    @classmethod
    def trivial(cls, rank: int) -> "Grading":
        return cls(np.ones(rank))

    @classmethod
    def balanced(cls, plus: int, minus: int) -> "Grading":
        return cls(np.concatenate([np.ones(plus), -np.ones(minus)]))

    @property
    def rank(self) -> int:
        return self.signature.size

    @property
    def plus_indices(self) -> np.ndarray:
        return np.flatnonzero(self.signature > 0)

    @property
    def minus_indices(self) -> np.ndarray:
        return np.flatnonzero(self.signature < 0)

    def concat(self, other: "Grading") -> "Grading":
        return Grading(np.concatenate([self.signature, other.signature]))

    def kron(self, other: "Grading") -> "Grading":
        return Grading(np.kron(self.signature, other.signature))

    def flip(self) -> "Grading":
        return Grading(-self.signature)

    def conj_table(self) -> np.ndarray:
        """Sign table g_r g_c implementing A -> gamma A gamma elementwise."""
        g = self.signature.astype(np.float64)
        return np.outer(g, g)

    def __eq__(self, other):
        return isinstance(other, Grading) and np.array_equal(
            self.signature, other.signature
        )

    def __repr__(self):
        return f"Grading({self.signature.tolist()})"


def _popcount(mask: int) -> int:
    return bin(mask).count("1")


@functools.lru_cache(maxsize=None)
def _wedge_signs(dim: int) -> np.ndarray:
    """Permutation sign of dx_I ^ dx_J per bitmask pair; 0 on overlap."""
    size = 1 << dim
    table = np.zeros((size, size), dtype=np.int8)
    for i in range(size):
        for j in range(size):
            if i & j:
                continue
            inv = 0
            for a in range(dim):
                if not (i >> a) & 1:
                    continue
                for b in range(dim):
                    if (j >> b) & 1 and a > b:
                        inv += 1
            table[i, j] = -1 if inv % 2 else 1
    return table


class GradedMatrixForm:
    """Element of Lambda(R^n) (x) Mat_m(C) sampled on the grid of a chart.

    data has shape ``(2**dim, *grid, m, m)``; the leading index is the form
    component bitmask (bit a set means dx_a is present, factors ordered by
    increasing axis).
    """

    __slots__ = ("chart", "grading", "data")

    def __init__(self, chart: TorusChart, grading: Grading, data: np.ndarray):
        m = grading.rank
        expected = (chart.n_components,) + chart.shape + (m, m)
        data = np.asarray(data, dtype=np.complex128)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape}, expected {expected}")
        self.chart = chart
        self.grading = grading
        self.data = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, chart: TorusChart, grading: Grading) -> "GradedMatrixForm":
        m = grading.rank
        shape = (chart.n_components,) + chart.shape + (m, m)
        return cls(chart, grading, np.zeros(shape, dtype=np.complex128))

    @classmethod
    def identity(cls, chart: TorusChart, grading: Grading) -> "GradedMatrixForm":
        out = cls.zeros(chart, grading)
        out.data[0] += np.eye(grading.rank)
        return out

    @classmethod
    def from_matrix_field(
        cls, chart, grading, field, axes: tuple = ()
    ) -> "GradedMatrixForm":
        """Form with a single component dx_axes carrying the given matrix field."""
        out = cls.zeros(chart, grading)
        out.set_component(axes, field)
        return out

    @classmethod
    def from_scalar_field(cls, chart, field, axes: tuple = ()) -> "GradedMatrixForm":
        """Rank-1 (scalar) form with one component."""
        field = np.asarray(field, dtype=np.complex128)
        out = cls.zeros(chart, Grading.trivial(1))
        out.set_component(axes, field[..., None, None])
        return out

    # -- component access --------------------------------------------------

    @staticmethod
    def axes_mask(axes) -> int:
        mask = 0
        for a in axes:
            bit = 1 << a
            if mask & bit:
                raise CycleError(f"repeated axis {a} in {tuple(axes)}")
            mask |= bit
        return mask

    def component(self, axes) -> np.ndarray:
        mask = self.axes_mask(axes)
        if mask >= self.chart.n_components:
            raise CycleError(f"axes {tuple(axes)} exceed chart dim {self.chart.dim}")
        return self.data[mask]

    def set_component(self, axes, field):
        mask = self.axes_mask(axes)
        if mask >= self.chart.n_components:
            raise CycleError(f"axes {tuple(axes)} exceed chart dim {self.chart.dim}")
        self.data[mask] = np.broadcast_to(
            np.asarray(field, dtype=np.complex128), self.data[mask].shape
        )

    @property
    def rank(self) -> int:
        return self.grading.rank

    def copy(self) -> "GradedMatrixForm":
        return GradedMatrixForm(self.chart, self.grading, self.data.copy())

    def degree_part(self, degree: int) -> "GradedMatrixForm":
        out = self.zeros(self.chart, self.grading)
        for mask in range(self.chart.n_components):
            if _popcount(mask) == degree:
                out.data[mask] = self.data[mask]
        return out

    def degrees_present(self, tol: float = 0.0) -> list:
        out = []
        for mask in range(self.chart.n_components):
            if np.abs(self.data[mask]).max(initial=0.0) > tol:
                out.append(_popcount(mask))
        return sorted(set(out))

    # -- arithmetic ---------------------------------------------------------

    def _check_compat(self, other: "GradedMatrixForm"):
        if self.chart != other.chart:
            raise ChartMismatchError(f"charts differ: {self.chart} vs {other.chart}")
        if self.grading != other.grading:
            raise ChartMismatchError("rank/grading mismatch")

    def __add__(self, other):
        self._check_compat(other)
        return GradedMatrixForm(self.chart, self.grading, self.data + other.data)

    def __sub__(self, other):
        self._check_compat(other)
        return GradedMatrixForm(self.chart, self.grading, self.data - other.data)

    def __neg__(self):
        return GradedMatrixForm(self.chart, self.grading, -self.data)

    def __mul__(self, scalar):
        return GradedMatrixForm(self.chart, self.grading, self.data * scalar)

    __rmul__ = __mul__

    def wedge(self, other: "GradedMatrixForm") -> "GradedMatrixForm":
        return wedge_mul(self, other)

    def parity_split(self):
        """Split into total-even and total-odd parts (form degree xor gamma parity)."""
        even = self.zeros(self.chart, self.grading)
        odd = self.zeros(self.chart, self.grading)
        table = self.grading.conj_table()
        for mask in range(self.chart.n_components):
            comp = self.data[mask]
            mat_even = 0.5 * (comp + comp * table)
            mat_odd = comp - mat_even
            if _popcount(mask) % 2 == 0:
                even.data[mask] = mat_even
                odd.data[mask] = mat_odd
            else:
                even.data[mask] = mat_odd
                odd.data[mask] = mat_even
        return even, odd

    def sup_norm(self) -> float:
        if self.data.size == 0:
            return 0.0
        return float(np.abs(self.data).max())

    def __repr__(self):
        return (
            f"GradedMatrixForm(dim={self.chart.dim}, N={self.chart.grid_size}, "
            f"rank={self.rank}, degrees={self.degrees_present(1e-14)})"
        )


def sup_norm(a: GradedMatrixForm) -> float:
    return a.sup_norm()


def wedge_mul(a: GradedMatrixForm, b: GradedMatrixForm) -> GradedMatrixForm:
    """Product in the graded algebra: wedge on forms, matrix product on fibers.

    The Koszul sign (-1)^{|A| |beta|} with |A| the gamma-parity of the left
    matrix factor is implemented by conjugating the left factor with gamma
    whenever the right form degree is odd.
    """
    a._check_compat(b)
    out = _wedge_data(a.data, b.data, a.grading.conj_table())
    return GradedMatrixForm(a.chart, a.grading, out)


# Largest fibre rank that _fibre_mul and _colsum_max unroll over the fibre
# axes.  One product of (1024, m, m) stacks, matmul against the unrolled
# kernel (two cores, numpy 2.4, OpenBLAS): 0.012 -> 0.009 ms at m = 1,
# 0.48 -> 0.056 ms at m = 2, 0.71 -> 0.18 ms at m = 3, 0.74 -> 0.45 ms at
# m = 4, 1.1 -> 4.9 ms at m = 8.  Rank 3 stays on matmul all the same, so
# that the rank-3 Chern-form checks keep matmul's bits.
_ELEMENTWISE_MAX_RANK = 2


def _fibre_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pointwise fibre product p @ q of stacks of shape ``(..., m, m)``.

    numpy's matmul makes one BLAS call per matrix of the stack, which is
    nearly all of the cost at rank <= 2; there each entry is summed
    elementwise over the grid, sum_k p[..., r, k] q[..., k, c] in order of k.
    """
    m = p.shape[-1]
    if m > _ELEMENTWISE_MAX_RANK:
        return p @ q
    out = np.empty(np.broadcast_shapes(p.shape, q.shape), np.result_type(p, q))
    for r in range(m):
        for c in range(m):
            entry = out[..., r, c]
            np.multiply(p[..., r, 0], q[..., 0, c], out=entry)
            for k in range(1, m):
                entry += p[..., r, k] * q[..., k, c]
    return out


def _nonzero_components(x: np.ndarray) -> np.ndarray:
    """Per leading index, whether the component has a nonzero entry."""
    return x.reshape(x.shape[0], -1).any(axis=1)


def _wedge_data(
    x: np.ndarray,
    y: np.ndarray,
    table: np.ndarray,
    y_live: np.ndarray | None = None,
    written: np.ndarray | None = None,
) -> np.ndarray:
    """wedge_mul on component arrays of shape ``(2**dim, ..., m, m)``.

    table is the grading's conj_table; zero components are skipped, and so
    are the components of y that y_live (default: the nonzero ones) marks
    False, which are then read as 0.  A boolean array written, if given, is
    set True at every output component a product was added into; the others
    hold +0 only.
    """
    nc = x.shape[0]
    signs = _wedge_signs(nc.bit_length() - 1)
    x_live = _nonzero_components(x)
    if y_live is None:
        y_live = _nonzero_components(y)
    # np.zeros, not np.zeros_like: zeros_like writes every page, while the
    # calloc-backed np.zeros leaves a component that no product writes
    # without resident memory (on T^2 the square of a connection writes
    # only dx0 dx1, one component of four).
    out = np.zeros(x.shape, x.dtype)
    for i in range(nc):
        if not x_live[i]:
            continue
        xi = x[i]
        xi_conj = xi * table
        for j in range(nc):
            s = signs[i, j]
            if s == 0 or not y_live[j]:
                continue
            left = xi_conj if _popcount(j) % 2 else xi
            contrib = _fibre_mul(left, y[j])
            if s == 1:
                out[i | j] += contrib
            else:
                out[i | j] -= contrib
            if written is not None:
                written[i | j] = True
    return out


@functools.lru_cache(maxsize=None)
def _derivative_multiplier(n: int) -> np.ndarray:
    """Spectral derivative multiplier 2 pi i k with the Nyquist mode zeroed."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    k[n // 2] = 0.0
    return 2j * np.pi * k


def _axis_derivative(x: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative of grid samples x along one periodic grid axis."""
    shape = [1] * x.ndim
    shape[axis] = x.shape[axis]
    mult = _derivative_multiplier(x.shape[axis]).reshape(shape)
    return np.fft.ifft(np.fft.fft(x, axis=axis) * mult, axis=axis)


def exterior_d(a: GradedMatrixForm) -> GradedMatrixForm:
    """Exterior derivative, evaluated per Fourier mode along each axis."""
    chart = a.chart
    out = GradedMatrixForm.zeros(chart, a.grading)
    if chart.dim == 0 or a.rank == 0:
        return out
    signs = _wedge_signs(chart.dim)
    for axis in range(chart.dim):
        bit = 1 << axis
        for mask in range(chart.n_components):
            if mask & bit:
                continue
            comp = a.data[mask]
            if not comp.any():
                continue
            # dx_axis ^ dx_mask, reordered to increasing axes
            out.data[mask | bit] += signs[bit, mask] * _axis_derivative(comp, axis)
    return out


def supertrace(a: GradedMatrixForm) -> GradedMatrixForm:
    """Pointwise Tr(gamma . a_I) per component; result is a rank-1 form."""
    out = GradedMatrixForm.zeros(a.chart, Grading.trivial(1))
    if a.rank:
        g = a.grading.signature.astype(np.float64)
        out.data[..., 0, 0] = np.einsum("...rr,r->...", a.data, g)
    return out


def trace_wedge(w: np.ndarray, x: GradedMatrixForm, y: GradedMatrixForm) -> GradedMatrixForm:
    """Pointwise Tr(w . (x ^ y)) per component for a constant fibre matrix w.

    Rank-1 result, the sum over component pairs of s_ij Tr(x_i' y_j w) with
    x_i' the left factor wedge_mul uses; the product x ^ y is never formed.
    w = diag(gamma) gives supertrace(wedge_mul(x, y)).
    """
    x._check_compat(y)
    nc = x.chart.n_components
    signs = _wedge_signs(x.chart.dim)
    table = x.grading.conj_table()
    y_live = _nonzero_components(y.data)
    # y_j w, or None where y_j = 0
    yw = [
        np.tensordot(yj, w, axes=(-1, 0)) if live else None
        for yj, live in zip(y.data, y_live)
    ]
    x_live = _nonzero_components(x.data)
    out = GradedMatrixForm.zeros(x.chart, Grading.trivial(1))
    acc = out.data[..., 0, 0]
    for i in range(nc):
        if not x_live[i]:
            continue
        xi = x.data[i]
        left = (xi, xi * table)
        for j in range(nc):
            s = signs[i, j]
            if s == 0 or yw[j] is None:
                continue
            # Tr(l m) = sum_ab l_ba m_ab
            contrib = np.einsum("...ba,...ab->...", left[_popcount(j) % 2], yw[j])
            if s == 1:
                acc[i | j] += contrib
            else:
                acc[i | j] -= contrib
    return out


def matrix_trace(a: GradedMatrixForm) -> GradedMatrixForm:
    """Plain pointwise matrix trace per component; result is a rank-1 form."""
    out = GradedMatrixForm.zeros(a.chart, Grading.trivial(1))
    if a.rank:
        out.data[..., 0, 0] = np.einsum("...rr->...", a.data)
    return out


# -- batched matrix exponential ---------------------------------------------

_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152
_UNIT_ROUNDOFF = 2.0**-53
_EXPM_CHUNK = 1 << 22  # flops-ish guard: chunk when batch * d^2 exceeds this


def _scaling_exponents(norm1: np.ndarray) -> np.ndarray:
    """Squarings s per point so that norm1 / 2**s <= theta_13."""
    with np.errstate(divide="ignore"):
        s = np.ceil(np.log2(np.maximum(norm1, 1e-300) / _PADE13_THETA))
    return np.where(norm1 > _PADE13_THETA, s, 0.0).astype(np.int64)


def _pade13_uv(a):
    """Odd and even parts u, v of the Pade-13 numerator, p(a) = v + u."""
    b = _PADE13
    eye = np.eye(a.shape[-1], dtype=np.complex128)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (
        a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
        + b[7] * a6
        + b[5] * a4
        + b[3] * a2
        + b[1] * eye
    )
    v = (
        a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
        + b[6] * a6
        + b[4] * a4
        + b[2] * a2
        + b[0] * eye
    )
    return u, v


def _expm_block(mats: np.ndarray) -> np.ndarray:
    s = _scaling_exponents(np.abs(mats).sum(axis=-2).max(axis=-1))
    a = mats * (0.5 ** s)[:, None, None]
    u, v = _pade13_uv(a)
    f = np.linalg.solve(v - u, v + u)
    smax = int(s.max()) if s.size else 0
    for r in range(smax):
        todo = s > r
        f[todo] = f[todo] @ f[todo]
    return f


def expm_batched(mats: np.ndarray) -> np.ndarray:
    """Matrix exponential over the leading axes (scaling and squaring, Pade 13)."""
    mats = np.asarray(mats, dtype=np.complex128)
    d = mats.shape[-1]
    flat = mats.reshape(-1, d, d)
    if flat.shape[0] == 0:
        return mats.copy()
    chunk = max(1, _EXPM_CHUNK // max(1, d * d))
    if flat.shape[0] <= chunk:
        out = _expm_block(flat)
    else:
        out = np.empty_like(flat)
        for start in range(0, flat.shape[0], chunk):
            out[start : start + chunk] = _expm_block(flat[start : start + chunk])
    return out.reshape(mats.shape)


def left_regular_matrix(a: GradedMatrixForm) -> np.ndarray:
    """Matrix of left multiplication by a on Lambda(R^n) (x) C^m.

    Returns an array of shape ``(*grid, D, D)`` with ``D = 2**dim * m``; basis
    vectors are ordered (component mask, fiber index).
    """
    return _left_regular_data(a.data, a.grading.conj_table())


def _left_regular_data(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """left_regular_matrix on component arrays of shape ``(2**dim, ..., m, m)``."""
    nc, m = x.shape[0], x.shape[-1]
    dm = nc * m
    out = np.zeros(x.shape[1:-2] + (dm, dm), dtype=np.complex128)
    signs = _wedge_signs(nc.bit_length() - 1)
    for i in range(nc):
        ai = x[i]
        if not ai.any():
            continue
        ai_conj = ai * table
        for j in range(nc):
            s = signs[i, j]
            if s == 0:
                continue
            blk = ai_conj if _popcount(j) % 2 else ai
            k = i | j
            out[..., k * m : (k + 1) * m, j * m : (j + 1) * m] += s * blk
    return out


def _left_regular_exp(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """exp(x) as expm_batched of the left-regular matrix applied to the unit."""
    nc, m = x.shape[0], x.shape[-1]
    cols = expm_batched(_left_regular_data(x, table))[..., :, :m]
    comps = cols.reshape(cols.shape[:-2] + (nc, m, m))
    return np.ascontiguousarray(np.moveaxis(comps, -3, 0))


def _nilpotent_exp(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """exp(n) = sum_{k <= dim} n^k / k! for n, x without its degree-0 part.

    Exact: a product of k such factors has form degree at least k.  The
    one copy of x, with its degree-0 part zeroed, is n; the powers read x
    with that part masked out, and the unit is added last, onto the exact
    zero that every power leaves in degree 0.  numpy divides a complex
    array by a real k as a multiplication by 1 / k, so the cheaper in-place
    product below has the bits of the division.  Only the components of a
    power that a product wrote are scaled and added; the others are +0, and
    out[c] += 0.0 is what adding them did (it turns -0 into +0).
    """
    nc = x.shape[0]
    dim = nc.bit_length() - 1
    live = _nonzero_components(x)
    live[0] = False
    out = x.copy()
    out[0] = 0.0
    term = out
    for k in range(2, dim + 1):
        written = np.zeros(nc, dtype=bool)
        term = _wedge_data(term, x, table, live, written)
        for c in range(nc):
            if written[c]:
                term[c] *= 1.0 / k
                out[c] += term[c]
            else:
                out[c] += 0.0
    diag = np.einsum("...rr->...r", out[0])
    diag += 1.0
    return out


def _colsum_max(x: np.ndarray) -> np.ndarray:
    """max_c sum_r x[..., r, c]: the matrix 1-norm of a real stack x >= 0.

    Unrolled up to _ELEMENTWISE_MAX_RANK, adding rows in the order of
    x.sum(axis=-2), so the result has its bits.
    """
    m = x.shape[-1]
    if m > _ELEMENTWISE_MAX_RANK:
        return x.sum(axis=-2).max(axis=-1)
    best = None
    for c in range(m):
        col = x[..., 0, c]
        for r in range(1, m):
            col = col + x[..., r, c]
        best = col if best is None else np.maximum(best, col)
    return best


def _odd_max(mag: np.ndarray, table: np.ndarray) -> float:
    """Largest |entry| of the total-odd part, from mag = |components|.

    Entry (r, c) of a component is total-odd when its gamma parity
    (table < 0) differs from the component's form-degree parity.  Indices
    fall into runs of equal gamma sign, so the odd entries of a component
    are whole run-by-run blocks, and each block's maximum is one strided
    .max() on a view: no mask, no copy.
    """
    sign = table[0].tolist()
    cuts = [0] + [c for c in range(1, len(sign)) if sign[c] != sign[c - 1]] + [len(sign)]
    runs = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    degree_odd = [_popcount(i) % 2 == 1 for i in range(mag.shape[0])]
    best = 0.0
    for rows in runs:
        for cols in runs:
            gamma_odd = sign[rows.start] != sign[cols.start]
            for i, odd in enumerate(degree_odd):
                if gamma_odd != odd:
                    best = max(best, mag[i, ..., rows, cols].max())
    return float(best)


def algebra_exp(a: GradedMatrixForm, strict_parity: bool = False) -> GradedMatrixForm:
    """Exponential in the graded algebra, pointwise over the grid.

    Inputs with a significant total-odd part trigger a ParityWarning (or
    ParityError when strict_parity is set): the element being exponentiated
    is even in every identity this package verifies.  The check runs before
    the evaluation is chosen from the input:

    1. Central degree-0 part: at every point a_0 = lam 1 + E with
       lam = tr(a_0) / m and ||E|| <= u ||a|| (u = 2**-53, ||.|| the 1-norm
       of the left-regular representation, the norm Pade scaling uses).
       Then exp(a) = e^lam sum_{k <= dim} N^k / k! with N = a - a_0, a
       terminating series.  It covers F0 = 0 (lam = 0, connection-only
       curvatures), every rank-1 input, and the (1|1) curvatures of eta
       quadrature, whose F0 = B_0^2 = |phi|^2 1 by the Clifford relation.
       Treating such an a_0 as exactly central evaluates exp(a - E): a
       backward error of at most u ||a||, the same bound the Pade-13 degree
       and scaling of 3. are chosen to meet (Higham, SIAM J. Matrix Anal.
       Appl. 26, 2005), so this adds no error beyond the reference's.
    2. Fibre blocks: the fibre indices r, c linked by an entry a[r, c] or
       a[c, r] that is not exactly 0 in some component at some point fall
       into connected components.  With more than one, a is a direct sum of
       its blocks and so is exp(a) (Higham, Functions of Matrices, SIAM 2008,
       Thm 1.13): blocks of equal size and grading signature are stacked and
       each stack is evaluated as a whole input is (1. or 3., with the
       central test per block), and entries off the blocks stay exactly 0.
       Suspensions (oddk.suspend: the data as 1 (x) a and the fibre Dirac
       block, both diagonal in the fibre mode, so at least one block per
       mode) and direct sums (superconn.direct_sum, dk stabilizations) give
       such inputs; the suspended rank-98 curvature of the benchmark, whose
       data is diagonal too, is 49 blocks (1|1), each with a central F0.
    3. Otherwise the ordinary matrix exponential (expm_batched) of the
       left-regular representation on the 2**dim * m dimensional module,
       applied to the identity element.  This is also the reference the
       others are tested against; it is itself tested against
       scipy.linalg.expm.
    """
    if a.rank == 0:
        return GradedMatrixForm.zeros(a.chart, a.grading)
    mag = np.abs(a.data)
    if _odd_max(mag, a.grading.conj_table()) > 1e-10 * max(float(mag.max()), 1.0):
        if strict_parity:
            from .errors import ParityError

            raise ParityError("algebra_exp input has a total-odd part")
        warnings.warn(
            "algebra_exp input has a total-odd part", ParityWarning, stacklevel=2
        )
    data = _exp_data(a.data, mag, a.grading.signature.astype(np.float64))
    return GradedMatrixForm(a.chart, a.grading, data)


def _exp_data(x: np.ndarray, mag: np.ndarray, sig: np.ndarray, split: bool = True) -> np.ndarray:
    """algebra_exp on components x of shape ``(2**dim, ..., m, m)``.

    mag is |x| and sig the grading signature of the m fibre indices.
    split=False skips the block split, for a stack of blocks that are each
    one connected component already.
    """
    m = x.shape[-1]
    table = np.outer(sig, sig)
    a0 = x[0]
    lam = np.einsum("...rr->...", a0) / m
    spread = _colsum_max(np.abs(a0 - lam[..., None, None] * np.eye(m)))
    norm1 = _colsum_max(mag.sum(axis=0))
    if np.all(spread <= _UNIT_ROUNDOFF * norm1):
        data = _nilpotent_exp(x, table)
        if lam.any():
            data *= np.exp(lam)[..., None, None]
        return data
    if split:
        blocks = _fibre_blocks(mag)
        if len(blocks) > 1:
            return _exp_blocks(x, mag, sig, blocks)
    return _left_regular_exp(x, table)


def _fibre_blocks(mag: np.ndarray) -> list:
    """Fibre index sets of the connected components of mag's zero pattern.

    Indices r and c are linked when mag[..., r, c] or mag[..., c, r] is
    nonzero for some component and point; the reachability matrix comes
    from repeated boolean squaring of the links.
    """
    m = mag.shape[-1]
    link = mag.reshape(-1, m, m).any(axis=0)
    reach = link | link.T | np.eye(m, dtype=bool)
    while True:
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    first = reach.argmax(axis=1)
    return [np.flatnonzero(first == r) for r in np.unique(first)]


def _exp_blocks(x: np.ndarray, mag: np.ndarray, sig: np.ndarray, blocks: list) -> np.ndarray:
    """_exp_data of a direct sum, one stack per (block size, grading signature).

    A stack of G blocks of size b has shape ``(2**dim, ..., G, b, b)``: the
    block axis joins the grid axes, so each block gets its own central test
    and Pade scaling, and no block is split again.
    """
    groups = {}
    for idx in blocks:
        groups.setdefault((idx.size, sig[idx].tobytes()), []).append(idx)
    out = np.zeros(x.shape, x.dtype)
    for members in groups.values():
        idx = np.stack(members)
        rows, cols = idx[:, :, None], idx[:, None, :]
        out[..., rows, cols] = _exp_data(
            x[..., rows, cols], mag[..., rows, cols], sig[idx[0]], split=False
        )
    return out


def harmonic_part(a: GradedMatrixForm) -> GradedMatrixForm:
    """Constant Fourier mode of every component (harmonic projection)."""
    if a.chart.dim == 0:
        return a.copy()
    axes = tuple(range(1, 1 + a.chart.dim))
    mean = a.data.mean(axis=axes, keepdims=True)
    return GradedMatrixForm(
        a.chart, a.grading, np.broadcast_to(mean, a.data.shape).copy()
    )


def harmonic_coefficients(a: GradedMatrixForm) -> np.ndarray:
    """Constant Fourier mode per component, shape ``(2**dim, m, m)``."""
    if a.chart.dim == 0:
        return a.data.copy()
    axes = tuple(range(1, 1 + a.chart.dim))
    return a.data.mean(axis=axes)


@dataclass
class FormClassReport:
    """Outcome of a comparison modulo exact forms."""

    harmonic: np.ndarray
    residual_norm: float
    is_closed: bool
    closedness_residual: float


def equal_mod_exact(a: GradedMatrixForm, b: GradedMatrixForm, tol: float = 1e-8):
    """Decide a = b mod Im(d) for closed scalar forms via harmonic parts.

    Both inputs must be rank 1 and closed (checked to tol); equality holds
    iff the constant Fourier modes agree within tol.
    Returns ``(bool, FormClassReport)``.
    """
    if a.rank != 1 or b.rank != 1:
        raise ChartMismatchError("equal_mod_exact expects scalar (rank-1) forms")
    a._check_compat(b)
    closed_res = max(sup_norm(exterior_d(a)), sup_norm(exterior_d(b)))
    is_closed = closed_res <= tol
    if not is_closed:
        raise ClosednessError("equal_mod_exact input is not closed", closed_res)
    diff = harmonic_coefficients(a) - harmonic_coefficients(b)
    residual = float(np.abs(diff).max()) if diff.size else 0.0
    report = FormClassReport(
        harmonic=diff,
        residual_norm=residual,
        is_closed=is_closed,
        closedness_residual=closed_res,
    )
    return residual <= tol, report


def integrate(a: GradedMatrixForm, cycle) -> complex:
    """Period of a scalar form over a coordinate sub-torus.

    The cycle is a tuple of distinct axes; the period is the mean of the
    matching component over the grid times the (unit) cycle volume.
    """
    if a.rank != 1:
        raise CycleError("integrate expects a scalar (rank-1) form")
    axes = tuple(cycle)
    mask = GradedMatrixForm.axes_mask(axes)
    if mask >= a.chart.n_components:
        raise CycleError(f"cycle {axes} does not fit on a dim-{a.chart.dim} chart")
    comp = a.data[mask][..., 0, 0]
    return complex(comp.mean())
