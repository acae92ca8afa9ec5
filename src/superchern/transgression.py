"""Eta transgression forms between superconnections and to infinity.

eta(A0, A1) integrates Str( (dA/dt) exp(-A(t)^2) ) along the linear path
from A0 to A1; eta(A, infinity) integrates the same density along the
rescaled family A_t = t A_[0] + A_[1] + t^{-1} A_[2] + ... over [1, T],
where T is chosen from the Gaussian tail bound available when the degree-0
term has a spectral gap.

eta_between and eta_infinity take the trace functional as a constant fibre
weight W, tr(x) = Tr(W x) (gamma for the supertrace, the sigma-block selector
for the odd variant), and an optional constant curving added to the
curvature (the twisted variant), so all variants share one quadrature core.
That core evaluates one exponential per node but contracts once per rule:
the trace is linear in the heat and dA/dt is a fixed form (the linear path)
or a t-weighted sum of the fixed degree parts of A (the rescaled family), so
each rule sums its weighted heats, once per degree part of dA/dt, before
taking the trace.  eta_along_path contracts at every node, since a user
path's derivative is arbitrary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError
from .forms import GradedMatrixForm, algebra_exp, exterior_d, trace_wedge, wedge_mul
from .superconn import Superconnection, affine_path, curvature, min_gap

__all__ = [
    "QuadratureConfig",
    "EtaResult",
    "eta_between",
    "eta_infinity",
    "eta_along_path",
]

# factor on the integrand's size at t = 1 in eta_infinity's Gaussian tail bound
_TAIL_SAFETY = 10.0


@dataclass(frozen=True)
class QuadratureConfig:
    """Composite Gauss-Legendre settings."""

    panels: int = 8
    order: int = 16

    def __post_init__(self):
        if self.panels < 1:
            raise ValueError("panels must be >= 1")
        if self.order < 2:
            raise ValueError("order must be >= 2")


@dataclass
class EtaResult:
    """A transgression form with its quadrature/tail error estimate."""

    form: GradedMatrixForm
    est_error: float
    truncation_T: float | None = None


def _panel_nodes(a: float, b: float, panels: int, order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    ts, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        ts.append(mid + half * nodes)
        ws.append(half * weights)
    return np.concatenate(ts), np.concatenate(ws)


def _quad_form(integrand, a: float, b: float, panels: int, order: int):
    ts, ws = _panel_nodes(a, b, panels, order)
    total = None
    for t, w in zip(ts, ws):
        val = integrand(float(t)) * w
        total = val if total is None else total + val
    return total


def integrate_form(integrand, a: float, b: float, cfg: QuadratureConfig):
    """Composite Gauss integral of a form-valued function with an order-halving
    error estimate.  Returns (form, est_error)."""
    full = _quad_form(integrand, a, b, cfg.panels, cfg.order)
    coarse = _quad_form(integrand, a, b, cfg.panels, max(1, cfg.order // 2))
    return full, (full - coarse).sup_norm()


def _eta_quadrature(heat, w, x0, higher, a: float, b: float, cfg: QuadratureConfig):
    """Gauss integral over [a, b] of Tr(w (dA/dt ^ H(t))) with an order-halving
    error estimate, where dA/dt = x0 + sum_k f_k(t) x_k over (x_k, f_k) in
    higher.  Returns (form, est_error).

    heat(t) returns fresh components of H(t).  The trace is linear in the
    heat, so each rule sums the weighted heats, one sum for x0 and one per
    higher term, and contracts each sum once: each node scales its heat by
    its weight in place and adds it to the rule's sums.
    """
    xs = [x0] + [x for x, _ in higher]
    factors = [f for _, f in higher]

    def rule(order):
        ts, ws = _panel_nodes(a, b, cfg.panels, order)
        sums = None
        for t, wt in zip(ts, ws):
            t = float(t)
            h = heat(t)
            h *= wt
            terms = [h] + [h * f(t) for f in factors]
            if sums is None:
                sums = terms
                continue
            for acc, term in zip(sums, terms):
                acc += term
        total = None
        for x, acc in zip(xs, sums):
            val = trace_wedge(w, x, GradedMatrixForm(x.chart, x.grading, acc))
            total = val if total is None else total + val
        return total

    full = rule(cfg.order)
    coarse = rule(max(1, cfg.order // 2))
    return full, (full - coarse).sup_norm()


def _node_heat(theta: np.ndarray, curving: GradedMatrixForm | None, like) -> np.ndarray:
    """Components of exp(-(theta + curving)) for fresh curvature components
    theta, which are overwritten."""
    if curving is not None:
        theta += curving.data
    np.negative(theta, out=theta)
    return algebra_exp(GradedMatrixForm(like.chart, like.grading, theta)).data


def _rescale_slope(k, t):
    """d/dt t^(1-k), the factor of the degree-k term of A in dA_t/dt."""
    return (1 - k) * t ** (-k)


def _gamma(a: Superconnection) -> np.ndarray:
    """The grading as a fibre matrix: Tr(gamma x) is the supertrace."""
    return np.diag(a.grading.signature.astype(np.complex128))


def eta_between(
    a0: Superconnection,
    a1: Superconnection,
    cfg: QuadratureConfig | None = None,
    *,
    weight: np.ndarray | None = None,
    curving: GradedMatrixForm | None = None,
) -> EtaResult:
    """Transgression form along the linear path from a0 to a1.

    Along B(t) = B_0 + t D the curvature is F(A_0) + t (dD + B_0 D + D B_0)
    + t^2 D D (the affine slopes agree at both ends, so they only enter
    F(A_0)); the three coefficients are computed once.
    """
    cfg = cfg or QuadratureConfig()
    _, diff = affine_path(a0, a1)
    b0 = a0.coeff
    f0 = curvature(a0).data
    f1 = (exterior_d(diff) + wedge_mul(b0, diff) + wedge_mul(diff, b0)).data
    f2 = wedge_mul(diff, diff).data
    w = _gamma(a0) if weight is None else weight

    def heat(t):
        return _node_heat(f0 + t * (f1 + t * f2), curving, b0)

    form, est = _eta_quadrature(heat, w, diff, [], 0.0, 1.0, cfg)
    return EtaResult(form=form, est_error=est)


def eta_along_path(path, dpath, cfg: QuadratureConfig | None = None) -> EtaResult:
    """Transgression along an arbitrary smooth path of superconnections.

    path(t) returns a Superconnection and dpath(t) its coefficient-form
    t-derivative; used for homotopy-invariance checks with user paths.  The
    curvature is recomputed at every node.
    """
    cfg = cfg or QuadratureConfig()

    def integrand(t):
        at = path(t)
        heat = algebra_exp(-curvature(at))
        return trace_wedge(_gamma(at), dpath(t), heat)

    form, est = integrate_form(integrand, 0.0, 1.0, cfg)
    return EtaResult(form=form, est_error=est)


def eta_infinity(
    a: Superconnection,
    tol: float = 1e-10,
    cfg: QuadratureConfig | None = None,
    *,
    gap: float | None = None,
    weight: np.ndarray | None = None,
    curving: GradedMatrixForm | None = None,
) -> EtaResult:
    """Transgression to infinity for an invertible degree-0 term.

    The integral over [1, T] is truncated where the tail bound
    C exp(-c^2 T^2 / 2) drops below tol, with c the spectral gap and C the
    integrand magnitude at t = 1 times the configured safety factor.  The
    curvature of the rescaled family is F(A_t) = t^2 delta_t F(A), delta_t
    scaling degree-k components by t^-k, so F(A) is computed once.
    """
    cfg = cfg or QuadratureConfig()
    c = min_gap(a) if gap is None else gap
    if not c > 0:
        raise NotInvertibleError("eta_infinity requires an invertible degree-0 term", c)
    chart = a.chart
    degree = np.array([bin(mask).count("1") for mask in range(chart.n_components)])
    degree = degree.reshape((-1,) + (1,) * (chart.dim + 2))
    f = curvature(a).data
    w = _gamma(a) if weight is None else weight

    def heat(t):
        return _node_heat(f * t ** (2.0 - degree), curving, a.coeff)

    # dA_t/dt = A_[0] + sum_{k >= 2} (1 - k) t^-k A_[k]; degree 1 drops out
    higher = [
        (a.coeff.degree_part(k), functools.partial(_rescale_slope, k))
        for k in a.coeff.degrees_present()
        if k >= 2
    ]
    at_one = GradedMatrixForm(a.chart, a.grading, a.coeff.data * _rescale_slope(degree, 1.0))
    heat_one = GradedMatrixForm(a.chart, a.grading, heat(1.0))
    start = trace_wedge(w, at_one, heat_one)
    big_c = max(start.sup_norm(), tol) * _TAIL_SAFETY
    if big_c <= tol:
        t_max = 1.0 + 1.0 / c
    else:
        t_max = math.sqrt(2.0 * math.log(big_c / tol)) / c
        t_max = max(t_max, 1.0 + 0.5 / c)
    form, est = _eta_quadrature(heat, w, a.coeff.degree_part(0), higher, 1.0, t_max, cfg)
    tail = big_c * math.exp(-0.5 * (c * t_max) ** 2)
    return EtaResult(form=form, est_error=est + tail, truncation_T=t_max)
