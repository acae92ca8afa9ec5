"""Differential K-cocycles of both parities and their relation calculus.

A cocycle is a triple (bundle-with-superconnection, scalar form) of one of
two flavors.  An even cocycle (a class of K^0) has a graded bundle and an
odd-degree form; an odd cocycle (a class of K^1) has an ungraded bundle and
an even-degree form, and its calculus is the even one run on the sigma-lift
of the bundle with the sigma-trace (see oddk).  The relations are direct
sum, collapse of an invertible degree-0 term against eta(A, infinity) and
shift of the superconnection against eta(A0, A1), for both flavors; and,
for even cocycles only, stabilization by a finite auxiliary bundle,
reduction to the kernel bundle of the degree-0 term, the composed normal
form and the product.  Every relation preserves the curvature class
Ch(A) + d omega (the odd Chern form for odd cocycles), which is the
numerically decidable shadow of class equality: full equality of classes is
not decidable from grid data, so the certified statement is always
curvature-class agreement plus the explicit relation chain that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChartMismatchError,
    NonConstantRankError,
    NonSmoothKernelError,
    StabilizerInsufficientError,
)
from .forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    _axis_derivative,
    exterior_d,
)
from .superconn import Superconnection, chern_character, direct_sum, projected_connection
from .superconn import product as sc_product
from .transgression import QuadratureConfig, eta_between, eta_infinity

__all__ = [
    "DKCocycle",
    "Stabilizer",
    "curvature_class",
    "cocycle_add",
    "collapse_invertible",
    "shift_superconnection",
    "stabilize",
    "kernel_reduce",
    "normalize_q",
    "product_cocycle",
    "smooth_frame",
]

# stabilize: least singular value of A_[0]^+ + s that counts as surjective
_SURJ_TOL = 1e-6
# smooth_frame: largest overlap defect 1 - sigma_min, and largest jump of the
# aligned frame between neighbours
_MISALIGN_TOL = 0.5


@dataclass
class DKCocycle:
    """Triple (bundle-with-superconnection, scalar form) of flavor "even" or
    "odd"; an odd cocycle must have an ungraded bundle."""

    A: Superconnection
    omega: GradedMatrixForm
    flavor: str = "even"

    def __post_init__(self):
        if self.flavor not in ("even", "odd"):
            raise ValueError(f"cocycle flavor must be 'even' or 'odd', got {self.flavor!r}")
        if self.flavor == "odd" and self.A.grading.minus_indices.size:
            raise ChartMismatchError("an odd cocycle needs an ungraded (all +1) bundle")
        if self.omega.rank != 1:
            raise ChartMismatchError("omega must be a scalar (rank-1) form")
        if self.omega.chart != self.A.chart:
            raise ChartMismatchError("omega chart does not match the bundle")

    @classmethod
    def zero(cls, chart: TorusChart) -> "DKCocycle":
        return cls(
            Superconnection.trivial(chart, Grading(np.zeros(0))),
            GradedMatrixForm.zeros(chart, Grading.trivial(1)),
        )

    @classmethod
    def unit(cls, chart: TorusChart) -> "DKCocycle":
        """Rank-1 trivially graded bundle with the bare d and omega = 0."""
        return cls(
            Superconnection.trivial(chart, Grading.trivial(1)),
            GradedMatrixForm.zeros(chart, Grading.trivial(1)),
        )

    @property
    def chart(self) -> TorusChart:
        return self.A.chart

    @property
    def rank(self) -> int:
        return self.A.rank


# The odd branches import oddk when they run (oddk imports this module) and
# look each function up on the module, so a rebound attribute is what runs.


def _require_even(op: str, *cocycles: DKCocycle):
    if any(c.flavor != "even" for c in cocycles):
        raise ChartMismatchError(f"{op} is defined for even cocycles only")


def curvature_class(c: DKCocycle) -> GradedMatrixForm:
    """Ch(A) + d omega (odd_chern for the odd flavor); closed, and invariant
    under every relation."""
    if c.flavor == "odd":
        from . import oddk

        return oddk.odd_chern(c.A) + exterior_d(c.omega)
    return chern_character(c.A) + exterior_d(c.omega)


def cocycle_add(c1: DKCocycle, c2: DKCocycle) -> DKCocycle:
    if c1.chart != c2.chart:
        raise ChartMismatchError("cocycle_add requires a common chart")
    if c1.flavor != c2.flavor:
        raise ChartMismatchError(f"cannot add an {c1.flavor} and an {c2.flavor} cocycle")
    return DKCocycle(direct_sum(c1.A, c2.A), c1.omega + c2.omega, c1.flavor)


def collapse_invertible(
    c: DKCocycle, tol: float = 1e-10, cfg: QuadratureConfig | None = None
) -> DKCocycle:
    """Replace an invertible cocycle by the rank-0 one carrying omega + eta(A, inf)."""
    if c.flavor == "odd":
        from . import oddk

        eta = oddk.odd_eta_infinity(c.A, tol=tol, cfg=cfg)
    else:
        eta = eta_infinity(c.A, tol=tol, cfg=cfg)
    zero = Superconnection.trivial(c.chart, Grading(np.zeros(0)))
    return DKCocycle(zero, c.omega + eta.form, c.flavor)


def shift_superconnection(
    c: DKCocycle, a1: Superconnection, cfg: QuadratureConfig | None = None
) -> DKCocycle:
    """Move to another superconnection on the same bundle, absorbing the eta form."""
    c.A._check_compat(a1)
    if c.flavor == "odd":
        from . import oddk

        eta = oddk.odd_eta_between(c.A, a1, cfg)
    else:
        eta = eta_between(c.A, a1, cfg)
    return DKCocycle(a1, c.omega + eta.form, c.flavor)


@dataclass
class Stabilizer:
    """Finite auxiliary bundle E with a map s : E -> H^- and a connection on E.

    s_field has shape ``(*grid, dim H^-, e_rank)``; conn_fields holds one
    skew-hermitian ``(*grid, e_rank, e_rank)`` field per chart axis.
    """

    e_rank: int
    s_field: np.ndarray
    conn_fields: list = field(default_factory=list)

    def surjectivity_margin(self, a: Superconnection) -> float:
        """Smallest singular value over the grid of [A_[0]^+ | s]."""
        grading = a.grading
        plus = grading.plus_indices
        minus = grading.minus_indices
        if minus.size == 0:
            return np.inf
        t0 = a.term0_field()
        a_plus = t0[..., minus[:, None], plus[None, :]]
        s = np.broadcast_to(
            self.s_field, a.chart.shape + (minus.size, self.e_rank)
        )
        stacked = np.concatenate([a_plus, s], axis=-1)
        sv = np.linalg.svd(stacked, compute_uv=False)
        return float(sv[..., -1].min())


def stabilize(
    c: DKCocycle, st: Stabilizer, cfg: QuadratureConfig | None = None
) -> DKCocycle:
    """Absorb E (+) E with grading (+, -) and couple it to H^- through s.

    The output superconnection is (A (+) nabla on E (+) E) plus the odd
    off-diagonal coupling built from s; omega picks up the eta form between
    the two.  The degree-0 term of the result has vector-bundle kernel
    whenever A_[0]^+ + s is pointwise surjective, which is checked.
    """
    _require_even("stabilize", c)
    a = c.A
    margin = st.surjectivity_margin(a)
    if margin <= _SURJ_TOL:
        raise StabilizerInsufficientError(
            f"A_[0]^+ + s has smallest singular value {margin:.3e} <= {_SURJ_TOL:.1e}"
        )
    chart = a.chart
    m = a.rank
    r = st.e_rank
    grading = a.grading.concat(Grading.balanced(r, r))
    base_coeff = GradedMatrixForm.zeros(chart, grading)
    base_coeff.data[..., :m, :m] = a.coeff.data
    for axis, conn in enumerate(st.conn_fields):
        base_coeff.data[1 << axis, ..., m : m + r, m : m + r] += conn
        base_coeff.data[1 << axis, ..., m + r :, m + r :] += conn
    base = Superconnection(base_coeff)

    hat_coeff = base_coeff.copy()
    minus = a.grading.minus_indices
    s_field = np.broadcast_to(st.s_field, chart.shape + (minus.size, r))
    e1 = np.arange(m, m + r)
    hat_coeff.data[0][..., minus[:, None], e1[None, :]] += s_field
    hat_coeff.data[0][..., e1[:, None], minus[None, :]] += np.conj(
        np.swapaxes(s_field, -1, -2)
    )
    hat = Superconnection(hat_coeff)

    eta = eta_between(base, hat, cfg)
    return DKCocycle(hat, c.omega + eta.form)


# -- kernel bundle machinery -------------------------------------------------


def _polar_unitary(mats: np.ndarray):
    """Unitary polar factor and smallest singular value of batched matrices."""
    u, s, vh = np.linalg.svd(mats)
    smin = s[..., -1] if s.shape[-1] else np.ones(mats.shape[:-2])
    return u @ vh, smin


def _fractional_power_unitary(w: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """w**e for batched unitary w and a vector of exponents (principal log)."""
    vals, vecs = np.linalg.eig(w)
    angles = np.angle(vals)
    if np.abs(angles).max(initial=0.0) > 3.0:
        raise NonSmoothKernelError(
            "frame holonomy too close to a half-turn for a principal root"
        )
    inv = np.linalg.inv(vecs)
    powered = np.exp(1j * angles[None, :, :] * exponents[:, None, None])
    return np.einsum("bij,ebj,bjk->ebik", vecs, powered, inv)


def _frame_jump(v: np.ndarray, chart: TorusChart) -> float:
    """Largest neighbor difference of a frame field, wrap edges included."""
    k = v.shape[-1]
    if k == 0 or chart.dim == 0:
        return 0.0
    worst = 0.0
    for axis in range(chart.dim):
        diff = np.roll(v, -1, axis=axis) - v
        jumps = np.sqrt((np.abs(diff) ** 2).sum(axis=(-2, -1)) / k)
        worst = max(worst, float(jumps.max(initial=0.0)))
    return worst


def smooth_frame(frames: np.ndarray, chart: TorusChart):
    """Align pointwise orthonormal frames of a smooth subbundle across the grid.

    frames has shape ``(*grid, m, k)``.  Sweeping the last axis first and the
    first axis last, each slice is aligned to its predecessor through the
    polar factor of the overlap matrix (a transport independent of the raw
    per-point gauge), and the wrap-around mismatch of each loop is
    distributed as a fractional unitary power, so the output is
    periodic-smooth whenever the subbundle admits such a frame.  Returns
    (aligned_frames, worst_misalignment); raises NonSmoothKernelError when an
    overlap drops below 1 - _MISALIGN_TOL or the aligned field still jumps
    between neighbors (a curvature obstruction this sweep cannot remove).
    """
    k = frames.shape[-1]
    if k == 0 or chart.dim == 0:
        return frames.copy(), 0.0
    m = frames.shape[-2]
    v = frames.copy()
    n = chart.grid_size
    worst = 0.0
    for axis in range(chart.dim - 1, -1, -1):
        vw = np.moveaxis(v, axis, 0)
        lead_shape = vw.shape[1 : chart.dim]
        flat = vw.reshape(n, -1, m, k).copy()
        for j in range(1, n):
            overlap = np.conj(np.swapaxes(flat[j], -1, -2)) @ flat[j - 1]
            u, smin = _polar_unitary(overlap)
            worst = max(worst, float(1.0 - smin.min(initial=1.0)))
            flat[j] = flat[j] @ u
        overlap = np.conj(np.swapaxes(flat[n - 1], -1, -2)) @ flat[0]
        w, smin = _polar_unitary(overlap)
        worst = max(worst, float(1.0 - smin.min(initial=1.0)))
        if worst > _MISALIGN_TOL:
            raise NonSmoothKernelError(
                f"kernel frame misalignment {worst:.3f} exceeds {_MISALIGN_TOL}"
            )
        powers = _fractional_power_unitary(w, np.arange(n) / n)
        flat = flat @ powers
        v = np.moveaxis(flat.reshape((n,) + lead_shape + (m, k)), 0, axis)
    jump = _frame_jump(v, chart)
    if jump > _MISALIGN_TOL:
        raise NonSmoothKernelError(
            f"aligned kernel frame still jumps by {jump:.3f} between neighbors"
        )
    v = _polish_frame(v, chart)
    return v, worst


def _polish_frame(v: np.ndarray, chart: TorusChart) -> np.ndarray:
    """Remove per-point gauge jitter: low-pass the frame field, project back
    into the subbundle, and re-orthonormalize.  Falls back to the input when
    the filtered frame degenerates."""
    if chart.dim == 0:
        return v
    proj = v @ np.conj(np.swapaxes(v, -1, -2))
    n = chart.grid_size
    keep = max(2, n // 4)
    filt1d = (np.abs(np.fft.fftfreq(n, d=1.0 / n)) <= keep).astype(float)
    smooth = v
    for axis in range(chart.dim):
        shape = [1] * (chart.dim + 2)
        shape[axis] = n
        smooth = np.fft.ifft(
            np.fft.fft(smooth, axis=axis) * filt1d.reshape(shape), axis=axis
        )
    candidate = proj @ smooth
    u, s, vh = np.linalg.svd(candidate, full_matrices=False)
    if float(s[..., -1].min(initial=1.0)) < 0.5:
        return v
    return u @ vh


def _kernel_data(a: Superconnection, rank_tol: float):
    """Kernel ranks, projector field, perpendicular gap, raw sector frames."""
    grading = a.grading
    plus = grading.plus_indices
    minus = grading.minus_indices
    t0 = a.term0_field()
    scale = max(float(np.abs(t0).max(initial=0.0)), 1e-300)
    thresh = rank_tol * scale
    block = t0[..., minus[:, None], plus[None, :]]
    u, s, vh = np.linalg.svd(block)
    ranks = (s >= thresh).sum(axis=-1)
    if ranks.size and ranks.min() != ranks.max():
        vals, counts = np.unique(ranks, return_counts=True)
        raise NonConstantRankError(
            "kernel rank varies over the grid",
            {int(val): int(cnt) for val, cnt in zip(vals, counts)},
        )
    rank = int(ranks.flat[0]) if ranks.size else 0
    k_plus = plus.size - rank
    k_minus = minus.size - rank
    c_perp = float(s[..., :rank].min()) if rank else np.inf
    m = a.rank
    shape = a.chart.shape
    frame_plus = np.zeros(shape + (m, k_plus), dtype=np.complex128)
    frame_minus = np.zeros(shape + (m, k_minus), dtype=np.complex128)
    if k_plus:
        null_right = np.conj(np.swapaxes(vh[..., rank:, :], -1, -2))
        frame_plus[..., plus, :] = null_right
    if k_minus:
        frame_minus[..., minus, :] = u[..., :, rank:]
    adj = lambda x: np.conj(np.swapaxes(x, -1, -2))
    q = frame_plus @ adj(frame_plus) + frame_minus @ adj(frame_minus)
    return rank, k_plus, k_minus, q, c_perp, frame_plus, frame_minus


def kernel_reduce(
    c: DKCocycle,
    rank_tol: float = 1e-8,
    cfg: QuadratureConfig | None = None,
    tol: float = 1e-10,
) -> DKCocycle:
    """Reduce to the kernel bundle of the degree-0 term.

    Ker(A_[0]) must have constant rank over the grid (singular values below
    rank_tol * |A_[0]|_inf count as kernel).  With Q the kernel projector and
    B = (I-Q) A (I-Q) + Q A_[1] Q, the output is the cocycle on the kernel
    bundle, expressed in a smooth global frame, whose connection is
    Q A_[1] Q and whose form is omega + eta(A, B) + eta((I-Q) A (I-Q), inf).
    """
    _require_even("kernel_reduce", c)
    a = c.A
    chart = a.chart
    m = a.rank
    rank, k_plus, k_minus, q, c_perp, fplus, fminus = _kernel_data(a, rank_tol)
    k = k_plus + k_minus

    conn = [a.coeff.data[1 << axis] for axis in range(chart.dim)]
    b = projected_connection(q, conn, chart, a.grading)
    p_perp = np.eye(m) - q
    for mask in range(chart.n_components):
        if bin(mask).count("1") != 1:
            b.coeff.data[mask] = p_perp @ a.coeff.data[mask] @ p_perp

    omega = c.omega + eta_between(a, b, cfg).form
    if rank > 0:
        omega = omega + eta_infinity(b, tol=tol, cfg=cfg, gap=c_perp).form

    if k == 0:
        zero = Superconnection.trivial(chart, Grading(np.zeros(0)))
        return DKCocycle(zero, omega)

    frames = np.concatenate([fplus, fminus], axis=-1)
    frames, _ = smooth_frame(frames, chart)
    grading_red = Grading.balanced(k_plus, k_minus)
    red_coeff = GradedMatrixForm.zeros(chart, grading_red)
    fr_h = np.conj(np.swapaxes(frames, -1, -2))
    for axis, w in enumerate(conn):
        red_coeff.data[1 << axis] = fr_h @ (_axis_derivative(frames, axis) + w @ frames)
    a_red = Superconnection(red_coeff)
    # the discrete-transport gauge carries O(h^2) jitter; only gross
    # convention violations are worth a diagnostic here
    a_red.validate(strict=False, tol=1e-2)
    return DKCocycle(a_red, omega)


def normalize_q(
    c: DKCocycle,
    st: Stabilizer,
    rank_tol: float = 1e-8,
    cfg: QuadratureConfig | None = None,
    tol: float = 1e-10,
) -> DKCocycle:
    """Stabilize, then reduce to the kernel bundle: the finite normal form."""
    return kernel_reduce(stabilize(c, st, cfg), rank_tol=rank_tol, cfg=cfg, tol=tol)


def product_cocycle(c1: DKCocycle, c2: DKCocycle) -> DKCocycle:
    """Tensor product with omega = Ch(A1) ^ w2 + w1 ^ Ch(A2) + w1 ^ d w2."""
    _require_even("product_cocycle", c1, c2)
    if c1.chart != c2.chart:
        raise ChartMismatchError("product requires a common chart")
    a = sc_product(c1.A, c2.A)
    ch1 = chern_character(c1.A)
    ch2 = chern_character(c2.A)
    omega = (
        ch1.wedge(c2.omega)
        + c1.omega.wedge(ch2)
        + c1.omega.wedge(exterior_d(c2.omega))
    )
    return DKCocycle(a, omega)
