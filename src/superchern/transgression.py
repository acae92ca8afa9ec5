"""Eta transgression forms between superconnections and to infinity.

eta(A0, A1) integrates Str( (dA/dt) exp(-A(t)^2) ) along the linear path
from A0 to A1; eta(A, infinity) integrates the same density along the
rescaled family A_t = t A_[0] + A_[1] + t^{-1} A_[2] + ... over [1, T],
where T is chosen from the Gaussian tail bound available when the degree-0
term has a spectral gap.

eta_between and eta_infinity take the trace functional as a constant fibre
weight W, tr(x) = Tr(W x) (gamma for the supertrace, the sigma-block selector
for the odd variant).  They and eta_along_path (polynomial paths) share one
quadrature core, which evaluates one exponential per node but contracts once
per rule: the trace is linear in the heat and dA/dt is a t-weighted sum of
fixed forms, so each rule sums its weighted heats, once per fixed form,
before taking the trace.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError
from .forms import GradedMatrixForm, _fibre_mul, exterior_d, trace_wedge, wedge_mul
from .superconn import Superconnection, affine_path, curvature, min_gap, neg_exp

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


def _power_slope(p, t):
    """d/dt t^p: the factor of P_p in dB/dt along a polynomial path, and with
    p = 1 - k that of the degree-k term of A in dA_t/dt on the rescaled family."""
    return p * t ** (p - 1)


def _curvature_coefficients(a0: Superconnection, coeffs: list) -> list:
    """Components of F_k, F(t) = sum_k t^k F_k, along B(t) = B_0 + sum_j t^j P_j for
    coeffs = [P_1, ..., P_n]: F_0 = F(A_0), with the fixed affine slopes of A_0, and
    F_k = dP_k + sum_{i+j=k} P_i P_j (P_0 = B_0), summed in that order over the terms present.
    """
    ps, n = [a0.coeff] + coeffs, len(coeffs)
    out = [curvature(a0).data]
    for k in range(1, 2 * n + 1):
        terms = [exterior_d(ps[k])] if k <= n else []
        terms += [wedge_mul(ps[i], ps[k - i]) for i in range(max(0, k - n), min(k, n) + 1)]
        out.append(sum(terms[1:], terms[0]).data)
    return out


def _horner(coeffs: list, t: float) -> np.ndarray:
    """sum_k t^k coeffs[k] by Horner's rule, as a fresh array (len >= 2)."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = c + t * acc
    return acc


def _gamma(a: Superconnection) -> np.ndarray:
    """The grading as a fibre matrix: Tr(gamma x) is the supertrace."""
    return np.diag(a.grading.signature.astype(np.complex128))


def eta_between(
    a0: Superconnection,
    a1: Superconnection,
    cfg: QuadratureConfig | None = None,
    *,
    weight: np.ndarray | None = None,
) -> EtaResult:
    """Transgression form along the linear path from a0 to a1.

    Along B(t) = B_0 + t D the curvature is F(A_0) + t (dD + B_0 D + D B_0)
    + t^2 D D; the three coefficients are computed once.
    """
    cfg = cfg or QuadratureConfig()
    _, diff = affine_path(a0, a1)
    fs = _curvature_coefficients(a0, [diff])
    w = _gamma(a0) if weight is None else weight

    def heat(t):
        return neg_exp(GradedMatrixForm(a0.chart, a0.grading, _horner(fs, t))).data

    form, est = _eta_quadrature(heat, w, diff, [], 0.0, 1.0, cfg)
    return EtaResult(form=form, est_error=est)


def eta_along_path(a0: Superconnection, coeffs, cfg: QuadratureConfig | None = None) -> EtaResult:
    """Transgression along B(t) = B_0 + sum_{j=1..n} t^j P_j, n >= 1, from a0 at t = 0
    (its affine slopes stay fixed), for coeffs = [P_1, ..., P_n].

    Each node sets the degree-0 part of its Horner-evaluated F(t) to B_[0](t)^2, which
    it equals: the polynomial's round-off would leave a (1|1) Clifford part |phi|^2 1
    short of central, and algebra_exp would take the Pade path there.
    """
    cfg = cfg or QuadratureConfig()
    fs = _curvature_coefficients(a0, coeffs)
    b0s = [p.data[0] for p in [a0.coeff] + coeffs]

    def heat(t):
        theta, b0 = _horner(fs, t), _horner(b0s, t)
        theta[0] = _fibre_mul(b0, b0)
        return neg_exp(GradedMatrixForm(a0.chart, a0.grading, theta)).data

    higher = [(p, functools.partial(_power_slope, j)) for j, p in enumerate(coeffs[1:], 2)]
    form, est = _eta_quadrature(heat, _gamma(a0), coeffs[0], higher, 0.0, 1.0, cfg)
    return EtaResult(form=form, est_error=est)


def eta_infinity(
    a: Superconnection,
    tol: float = 1e-10,
    cfg: QuadratureConfig | None = None,
    *,
    gap: float | None = None,
    weight: np.ndarray | None = None,
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
        return neg_exp(GradedMatrixForm(chart, a.grading, f * t ** (2.0 - degree))).data

    # dA_t/dt = A_[0] + sum_{k >= 2} (1 - k) t^-k A_[k]; degree 1 drops out
    higher = [
        (a.coeff.degree_part(k), functools.partial(_power_slope, 1 - k))
        for k in a.coeff.degrees_present()
        if k >= 2
    ]
    at_one = GradedMatrixForm(a.chart, a.grading, a.coeff.data * _power_slope(1 - degree, 1.0))
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
