"""Superconnections on finite-rank Z2-graded bundles over flat tori.

A superconnection is d plus a coefficient form B whose degree-i part is the
i-th homogeneous term: a pointwise hermitian gamma-odd matrix field at degree
0, a skew-hermitian gamma-even connection 1-form at degree 1, and total-odd
terms at degree >= 2.  Since B has odd total parity, (d + B)^2 acts on
sections as dB + B^2, which is what ``curvature`` returns.

Coefficient fields are periodic grid samples; an optional per-axis affine
slope supports degree-0 terms of the form (periodic) + coordinate * C, whose
exterior derivative is handled exactly.  This is how circle families with
nontrivial spectral flow (mode-shift clutching) are represented at truncated
scale.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ChartMismatchError, ParityError, ValidationWarning
from .forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    _axis_derivative,
    algebra_exp,
    exterior_d,
    supertrace,
    wedge_mul,
)

__all__ = [
    "Superconnection",
    "GaugeTransform",
    "curvature",
    "neg_exp",
    "chern_character",
    "rescale",
    "direct_sum",
    "projected_connection",
    "product",
    "min_gap",
    "gauge",
    "affine_path",
]


class Superconnection:
    """d + B on a trivialized rank-m bundle, with B stored by form degree."""

    __slots__ = ("coeff", "affine")

    def __init__(self, coeff: GradedMatrixForm, affine: dict | None = None):
        self.coeff = coeff
        self.affine = dict(affine) if affine else {}
        for axis, slope in self.affine.items():
            slope = np.asarray(slope, dtype=np.complex128)
            if slope.shape != (coeff.rank, coeff.rank):
                raise ValueError("affine slope must be a constant rank x rank matrix")
            if not 0 <= axis < coeff.chart.dim:
                raise ValueError(f"affine axis {axis} out of range")
            self.affine[axis] = slope

    # -- construction --------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        chart: TorusChart,
        grading: Grading,
        term0=None,
        conn1=None,
        higher=(),
        affine=None,
    ) -> "Superconnection":
        """Assemble from a degree-0 matrix field, per-axis connection fields,
        and a list of (degree, form) or homogeneous GradedMatrixForm terms."""
        coeff = GradedMatrixForm.zeros(chart, grading)
        if term0 is not None:
            coeff.set_component((), term0)
        if conn1 is not None:
            if isinstance(conn1, GradedMatrixForm):
                coeff = coeff + conn1.degree_part(1)
            else:
                for axis, field in enumerate(conn1):
                    if field is not None:
                        coeff.set_component((axis,), field)
        for item in higher:
            form = item[1] if isinstance(item, tuple) else item
            coeff = coeff + form
        return cls(coeff, affine)

    @classmethod
    def trivial(cls, chart: TorusChart, grading: Grading) -> "Superconnection":
        """The bare exterior derivative (all coefficient terms zero)."""
        return cls(GradedMatrixForm.zeros(chart, grading))

    @property
    def chart(self) -> TorusChart:
        return self.coeff.chart

    @property
    def grading(self) -> Grading:
        return self.coeff.grading

    @property
    def rank(self) -> int:
        return self.coeff.rank

    def term(self, degree: int) -> GradedMatrixForm:
        return self.coeff.degree_part(degree)

    def term0_field(self) -> np.ndarray:
        return self.coeff.component(())

    def copy(self) -> "Superconnection":
        return Superconnection(self.coeff.copy(), dict(self.affine))

    def _check_compat(self, other: "Superconnection"):
        self.coeff._check_compat(other.coeff)

    def _affine_value_form(self) -> GradedMatrixForm:
        """Degree-0 form holding the coordinate * slope part of the values."""
        out = GradedMatrixForm.zeros(self.chart, self.grading)
        for axis, slope in self.affine.items():
            coord = self.chart.coordinate(axis)
            out.data[0] += coord[..., None, None] * slope
        return out

    def validate(self, strict: bool = False, tol: float = 1e-10) -> list:
        """Check hermiticity/parity conventions; warn (default) or raise."""
        problems = []
        scale = max(self.coeff.sup_norm(), 1.0)
        table = self.grading.conj_table()
        t0 = self.term0_field()
        if np.abs(t0 - np.conj(np.swapaxes(t0, -1, -2))).max(initial=0) > tol * scale:
            problems.append("degree-0 term is not pointwise hermitian")
        even_part = 0.5 * (t0 + t0 * table)
        if np.abs(even_part).max(initial=0) > tol * scale:
            problems.append("degree-0 term is not gamma-odd")
        for axis in range(self.chart.dim):
            w = self.coeff.component((axis,))
            if (
                np.abs(w + np.conj(np.swapaxes(w, -1, -2))).max(initial=0)
                > tol * scale
            ):
                problems.append(f"connection 1-form axis {axis} is not skew-hermitian")
            odd_part = 0.5 * (w - w * table)
            if np.abs(odd_part).max(initial=0) > tol * scale:
                problems.append(f"connection 1-form axis {axis} is not gamma-even")
        for degree in range(2, self.chart.dim + 1):
            term = self.term(degree)
            _, odd = term.parity_split()
            if (term - odd).sup_norm() > tol * scale:
                problems.append(f"degree-{degree} term is not total-odd")
        if problems and strict:
            raise ParityError("; ".join(problems))
        for msg in problems:
            warnings.warn(msg, ValidationWarning, stacklevel=2)
        return problems

    def __repr__(self):
        return (
            f"Superconnection(dim={self.chart.dim}, N={self.chart.grid_size}, "
            f"rank={self.rank})"
        )


def curvature(a: Superconnection) -> GradedMatrixForm:
    """F = dB + B ^ B for the odd coefficient form B (the non-d part)."""
    b = a.coeff
    if a.affine:
        db = exterior_d(b - a._affine_value_form())
        for axis, slope in a.affine.items():
            db.data[1 << axis] += slope
    else:
        db = exterior_d(b)
    db.data += wedge_mul(b, b).data
    return db


def neg_exp(theta: GradedMatrixForm) -> GradedMatrixForm:
    """exp(-theta) for a fresh form theta, which is negated in place."""
    np.negative(theta.data, out=theta.data)
    return algebra_exp(theta)


def chern_character(a: Superconnection) -> GradedMatrixForm:
    """Str exp(-F); a closed scalar form of even degrees."""
    return supertrace(neg_exp(curvature(a)))


def closedness_defect(a: Superconnection, x: GradedMatrixForm) -> GradedMatrixForm:
    """Residual of d Str(X exp(-A^2)) = Str([A, X] exp(-A^2)).

    On T^1 and T^2 the even Chern character itself is a constant plus a
    top-degree form, so d Ch vanishes identically there; this commutator
    identity is the closedness statement with nontrivial numerical content
    at every dimension.  X may have mixed parity; the graded commutator
    [A, X] = dX + B X - (-1)^{|X|} X B is taken per parity part.
    """
    x._check_compat(a.coeff)
    if a.affine:
        raise ChartMismatchError("closedness_defect does not support affine terms")
    heat = neg_exp(curvature(a))
    b = a.coeff
    x_even, x_odd = x.parity_split()
    comm = exterior_d(x) + wedge_mul(b, x)
    comm = comm - wedge_mul(x_even, b) + wedge_mul(x_odd, b)
    lhs = exterior_d(supertrace(wedge_mul(x, heat)))
    rhs = supertrace(wedge_mul(comm, heat))
    return lhs - rhs


def rescale(a: Superconnection, t: float) -> Superconnection:
    """Scale the degree-i term by t**(1-i)."""
    if t <= 0:
        raise ValueError(f"rescale requires t > 0, got {t}")
    out = GradedMatrixForm.zeros(a.chart, a.grading)
    for mask in range(a.chart.n_components):
        deg = bin(mask).count("1")
        out.data[mask] = a.coeff.data[mask] * t ** (1 - deg)
    affine = {axis: t * slope for axis, slope in a.affine.items()}
    return Superconnection(out, affine)


def affine_path(a0: Superconnection, a1: Superconnection):
    """Linear path t -> (1-t) a0 + t a1 and its constant t-derivative form."""
    a0._check_compat(a1)
    for axis in set(a0.affine) | set(a1.affine):
        s0 = a0.affine.get(axis)
        s1 = a1.affine.get(axis)
        if s0 is None or s1 is None or not np.allclose(s0, s1):
            raise ChartMismatchError(
                "linear paths require matching affine slopes on both endpoints"
            )
    diff = a1.coeff - a0.coeff

    def path(t: float) -> Superconnection:
        return Superconnection(a0.coeff + t * diff, dict(a0.affine))

    return path, diff


def direct_sum(a: Superconnection, b: Superconnection) -> Superconnection:
    """Block-diagonal sum; gradings concatenate."""
    if a.chart != b.chart:
        raise ChartMismatchError("direct_sum requires a common chart")
    chart = a.chart
    grading = a.grading.concat(b.grading)
    ma, mb = a.rank, b.rank
    out = GradedMatrixForm.zeros(chart, grading)
    out.data[..., :ma, :ma] = a.coeff.data
    out.data[..., ma:, ma:] = b.coeff.data
    affine = {}
    for axis in set(a.affine) | set(b.affine):
        slope = np.zeros((ma + mb, ma + mb), dtype=np.complex128)
        if axis in a.affine:
            slope[:ma, :ma] = a.affine[axis]
        if axis in b.affine:
            slope[ma:, ma:] = b.affine[axis]
        affine[axis] = slope
    return Superconnection(out, affine)


def projected_connection(
    p: np.ndarray, omega_axes: list, chart: TorusChart, grading: Grading
) -> Superconnection:
    """Superconnection d + [P w P + (1-P) w (1-P) + 2 P dP - dP] for a projector field P.

    That is P (d + w) P + (1-P) (d + w) (1-P), d + w compressed to the image
    and the kernel of P.  omega_axes holds w per axis, or None where it vanishes.
    """
    coeff = GradedMatrixForm.zeros(chart, grading)
    for axis, w in enumerate(omega_axes):
        # dP along the axis, with the +0 that exterior_d's sum starts from
        dpa = _axis_derivative(p, axis)
        dpa += 0.0
        blend = 2.0 * (p @ dpa) - dpa
        if w is not None:
            p_perp = np.eye(grading.rank) - p
            blend = blend + p @ w @ p + p_perp @ w @ p_perp
        coeff.data[1 << axis] = blend
    return Superconnection(coeff)


def product(a1: Superconnection, a2: Superconnection) -> Superconnection:
    """Tensor-product superconnection on the graded tensor bundle.

    Coefficients embed as B1 (x) I plus the gamma1-twisted embedding of B2
    (the twist applies gamma1 on the gamma2-odd matrix part, which makes the
    degree-0 cross terms anticommute away).
    """
    if a1.chart != a2.chart:
        raise ChartMismatchError("product requires a common chart")
    if a1.affine or a2.affine:
        raise ChartMismatchError("product does not support affine-twisted factors")
    chart = a1.chart
    m1, m2 = a1.rank, a2.rank
    grading = a1.grading.kron(a2.grading)
    out = GradedMatrixForm.zeros(chart, grading)
    eye2 = np.eye(m2)
    g1 = np.diag(a1.grading.signature.astype(np.float64))
    table2 = a2.grading.conj_table()
    for mask in range(chart.n_components):
        c1 = a1.coeff.data[mask]
        if c1.any():
            out.data[mask] += np.einsum("...ij,kl->...ikjl", c1, eye2).reshape(
                c1.shape[:-2] + (m1 * m2, m1 * m2)
            )
        c2 = a2.coeff.data[mask]
        if c2.any():
            even = 0.5 * (c2 + c2 * table2)
            odd = c2 - even
            eye1 = np.eye(m1)
            emb = np.einsum("ij,...kl->...ikjl", eye1, even) + np.einsum(
                "ij,...kl->...ikjl", g1, odd
            )
            out.data[mask] += emb.reshape(c2.shape[:-2] + (m1 * m2, m1 * m2))
    return Superconnection(out)


def min_gap(a: Superconnection) -> float:
    """Minimum over the grid of the smallest singular value of the degree-0 term.

    A rank-0 bundle is vacuously invertible (returns inf).
    """
    if a.rank == 0:
        return math.inf
    sv = np.linalg.svd(a.term0_field(), compute_uv=False)
    return float(sv.min())


class GaugeTransform:
    """Pointwise unitary, gamma-even change of trivialization."""

    __slots__ = ("chart", "grading", "field")

    def __init__(self, chart: TorusChart, grading: Grading, field, tol: float = 1e-10):
        field = np.asarray(field, dtype=np.complex128)
        m = grading.rank
        field = np.broadcast_to(field, chart.shape + (m, m)).copy()
        eye = np.eye(m)
        uu = field @ np.conj(np.swapaxes(field, -1, -2))
        if np.abs(uu - eye).max(initial=0) > tol:
            raise ValueError("gauge field is not pointwise unitary")
        table = grading.conj_table()
        if np.abs(field - field * table).max(initial=0) > tol:
            raise ValueError("gauge field is not gamma-even")
        self.chart = chart
        self.grading = grading
        self.field = field

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(
            self.chart, self.grading, np.conj(np.swapaxes(self.field, -1, -2))
        )


def gauge(a: Superconnection, g: GaugeTransform) -> Superconnection:
    """Conjugate all terms; the connection 1-form picks up -(dg) g^{-1}."""
    if g.chart != a.chart or g.grading != a.grading:
        raise ChartMismatchError("gauge transform does not match the bundle")
    if a.affine:
        raise ChartMismatchError("gauge does not support affine-twisted terms")
    u = g.field
    u_inv = np.conj(np.swapaxes(u, -1, -2))
    out = GradedMatrixForm.zeros(a.chart, a.grading)
    for mask in range(a.chart.n_components):
        comp = a.coeff.data[mask]
        if comp.any():
            out.data[mask] = u @ comp @ u_inv
    u_form = GradedMatrixForm.from_matrix_field(a.chart, a.grading, u)
    du = exterior_d(u_form)
    for axis in range(a.chart.dim):
        out.data[1 << axis] -= du.data[1 << axis] @ u_inv
    return Superconnection(out)
