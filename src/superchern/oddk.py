"""Odd cocycle theory: the sigma-algebra, sigma-trace, odd Chern/eta forms, suspension.

A formal odd generator sigma with sigma^2 = 1 turns an ungraded bundle into
a graded one: the pair a + b sigma is represented on the doubled bundle as
[[a, b], [b, a]] with grading (+1..., -1...), which realizes the sign rule
"sigma anticommutes with odd-total-parity elements" through the ordinary
Koszul machinery.  An ungraded superconnection lifts by tagging its even
form-degree terms with sigma; the sigma-trace reads off the off-diagonal
block, and all transgression identities then run verbatim.  Odd cocycles
are dk.DKCocycle with flavor "odd": the dk relations that hold for them
(sum, collapse, shift) call odd_chern and the odd eta forms defined here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dk import DKCocycle, curvature_class
from .errors import ChartMismatchError
from .forms import GradedMatrixForm, Grading, TorusChart, algebra_exp, wedge_mul
from .superconn import Superconnection, curvature
from .transgression import EtaResult, QuadratureConfig, eta_between, eta_infinity

__all__ = [
    "SigmaElement",
    "OddCocycle",
    "sigma_lift",
    "tr_sigma",
    "odd_chern",
    "odd_eta_between",
    "odd_eta_infinity",
    "odd_curvature_class",
    "suspend",
]


def _check_ungraded(grading: Grading):
    if grading.minus_indices.size:
        raise ChartMismatchError("odd theory expects an ungraded (all +1) bundle")


@dataclass
class SigmaElement:
    """a + b sigma with ungraded matrix coefficients a, b."""

    even_part: GradedMatrixForm
    odd_part: GradedMatrixForm

    def __post_init__(self):
        _check_ungraded(self.even_part.grading)
        self.even_part._check_compat(self.odd_part)

    @property
    def rank(self) -> int:
        return self.even_part.rank

    def to_rep(self) -> GradedMatrixForm:
        """Block representation [[a, b], [b, a]] on the graded double."""
        m = self.rank
        chart = self.even_part.chart
        rep = GradedMatrixForm.zeros(chart, Grading.balanced(m, m))
        rep.data[..., :m, :m] = self.even_part.data
        rep.data[..., m:, m:] = self.even_part.data
        rep.data[..., :m, m:] = self.odd_part.data
        rep.data[..., m:, :m] = self.odd_part.data
        return rep

    @classmethod
    def from_rep(cls, rep: GradedMatrixForm) -> "SigmaElement":
        m = rep.rank // 2
        chart = rep.chart
        grading = Grading.trivial(m)
        even = GradedMatrixForm(chart, grading, rep.data[..., :m, :m].copy())
        odd = GradedMatrixForm(chart, grading, rep.data[..., :m, m:].copy())
        return cls(even, odd)

    def mul(self, other: "SigmaElement") -> "SigmaElement":
        return SigmaElement.from_rep(wedge_mul(self.to_rep(), other.to_rep()))


def sigma_lift(a: Superconnection) -> Superconnection:
    """sigma-tag the even form-degree terms of an ungraded superconnection.

    The result lives on the doubled bundle with grading (+1.., -1..) and has
    odd total parity; its degree-0 term is hermitian and grading-odd exactly
    when the input degree-0 term is hermitian.
    """
    _check_ungraded(a.grading)
    m = a.rank
    chart = a.chart
    grading = Grading.balanced(m, m)
    coeff = GradedMatrixForm.zeros(chart, grading)
    for mask in range(chart.n_components):
        comp = a.coeff.data[mask]
        if not comp.any():
            continue
        if bin(mask).count("1") % 2 == 0:
            coeff.data[mask, ..., :m, m:] = comp
            coeff.data[mask, ..., m:, :m] = comp
        else:
            coeff.data[mask, ..., :m, :m] = comp
            coeff.data[mask, ..., m:, m:] = comp
    affine = {}
    for axis, slope in a.affine.items():
        big = np.zeros((2 * m, 2 * m), dtype=np.complex128)
        big[:m, m:] = slope
        big[m:, :m] = slope
        affine[axis] = big
    return Superconnection(coeff, affine)


def tr_sigma(x) -> GradedMatrixForm:
    """Tr of the sigma coefficient: Tr_sigma(a + b sigma) = Tr(b)."""
    if isinstance(x, SigmaElement):
        rep = x.to_rep()
    else:
        rep = x
    m = rep.rank // 2
    out = GradedMatrixForm.zeros(rep.chart, Grading.trivial(1))
    out.data[..., 0, 0] = np.einsum("...rr->...", rep.data[..., :m, m : 2 * m])
    return out


def _sigma_weight(rank: int) -> np.ndarray:
    """Fibre matrix W with tr_sigma(x) = Tr(W x) on the doubled bundle."""
    m = rank // 2
    w = np.zeros((rank, rank), dtype=np.complex128)
    w[m:, :m] = np.eye(m)
    return w


def odd_chern(a: Superconnection) -> GradedMatrixForm:
    """Tr_sigma exp(-(sigma-lift)^2); a closed scalar form of odd degrees."""
    return tr_sigma(algebra_exp(-curvature(sigma_lift(a))))


def odd_eta_between(
    a0: Superconnection, a1: Superconnection, cfg: QuadratureConfig | None = None
) -> EtaResult:
    """Transgression of the odd Chern character along the linear path."""
    lifted = sigma_lift(a0)
    return eta_between(lifted, sigma_lift(a1), cfg, weight=_sigma_weight(lifted.rank))


def odd_eta_infinity(
    a: Superconnection, tol: float = 1e-10, cfg: QuadratureConfig | None = None
) -> EtaResult:
    """Odd transgression to infinity; requires an invertible degree-0 term."""
    lifted = sigma_lift(a)
    return eta_infinity(lifted, tol=tol, cfg=cfg, weight=_sigma_weight(lifted.rank))


# Names for the odd flavor, kept because perfbench/workloads.py builds its
# odd-suspension scene and reads its class through them.
def OddCocycle(A: Superconnection, omega: GradedMatrixForm) -> DKCocycle:
    return DKCocycle(A, omega, "odd")


odd_curvature_class = curvature_class  # dispatches on the flavor


def suspend(c: DKCocycle, fiber_modes: int = 6, grid_size: int | None = None):
    """Suspension of an odd cocycle to an even one on the product with a new circle.

    The new circle coordinate u (period 1, inserted as axis 0) twists a
    truncated fiber Dirac block diag(i (n - u)) on modes |n| <= fiber_modes;
    the ungraded data rides along through sigma_lift of its pullback on every
    fiber mode, and omega becomes 2 pi du ^ omega (the new coordinate is
    unit-period, so the circle form picks up the 2 pi length factor).  The
    mode-shift clutching of the fiber block makes its u-dependence affine,
    which the superconnection carries as an exact slope; contributions of the
    edge modes are Gaussian-suppressed by the heat factors.  The new axis
    takes the base grid (grid_size may only repeat it; 8 over a point base).
    """
    if c.flavor != "odd":
        raise ChartMismatchError("suspend takes an odd cocycle")
    chart = c.chart
    if chart.dim + 1 > 3:
        raise ChartMismatchError("suspension would exceed dimension 3")
    if chart.dim and grid_size not in (None, chart.grid_size):
        raise ChartMismatchError(
            f"suspension keeps the base grid {chart.grid_size}, got grid_size {grid_size}"
        )
    new_chart = TorusChart(chart.dim + 1, chart.grid_size if chart.dim else grid_size or 8)
    m = c.rank
    n_modes = 2 * fiber_modes + 1
    fiber_n = np.arange(-fiber_modes, fiber_modes + 1, dtype=np.float64)
    big = n_modes * m

    # Fibre index (half, n, k) at position half * big + n * m + k.  Every
    # piece below is diagonal in the fibre mode n: the data as 1_f (x) a, the
    # Dirac block diag(i (n - u)) and both slopes.  The curvature is then a
    # direct sum over n of (m|m) blocks (finer when a is), which
    # forms.algebra_exp exponentiates block by block.  Assigning a base field
    # to a component of the new chart repeats it along the new axis 0.
    pulled = GradedMatrixForm.zeros(new_chart, Grading.trivial(big))
    eye_f = np.eye(n_modes)
    for mask in range(chart.n_components):
        comp = c.A.coeff.data[mask]
        if comp.any():
            pulled.data[mask << 1] = np.einsum("ij,...kl->...ikjl", eye_f, comp).reshape(
                comp.shape[:-2] + (big, big)
            )
    slopes = {axis + 1: np.kron(eye_f, slope) for axis, slope in c.A.affine.items()}
    lifted = sigma_lift(Superconnection(pulled, slopes))
    # fiber Dirac block i (n - u), odd against the doubling
    coeff = lifted.coeff
    nu = new_chart.grid_size
    u1d = np.arange(nu) / nu
    tmat = np.zeros((nu, n_modes, n_modes), dtype=np.complex128)
    idx = np.arange(n_modes)
    tmat[:, idx, idx] = 1j * (fiber_n[None, :] - u1d[:, None])
    tblock = np.einsum("uij,kl->uikjl", tmat, np.eye(m)).reshape(nu, big, big)
    tblock = tblock.reshape((nu,) + (1,) * chart.dim + (big, big))
    coeff.data[0, ..., :big, big:] += tblock
    coeff.data[0, ..., big:, :big] += np.conj(np.swapaxes(tblock, -1, -2))
    slope = np.zeros((2 * big, 2 * big), dtype=np.complex128)
    s_small = np.kron(-1j * np.eye(n_modes), np.eye(m))
    slope[:big, big:] = s_small
    slope[big:, :big] = np.conj(s_small.T)
    a_new = Superconnection(coeff, {0: slope, **lifted.affine})

    omega_new = GradedMatrixForm.zeros(new_chart, Grading.trivial(1))
    for mask in range(chart.n_components):
        comp = c.omega.data[mask]
        if comp.any():
            omega_new.data[(mask << 1) | 1] = 2.0 * np.pi * comp
    return DKCocycle(a_new, omega_new)
