"""Cech gerbe data checks and the curving-twisted superconnection calculus.

Two modes, mirroring what is honestly computable on a grid:

* Cech verification mode: finite covers with phase-valued transition data,
  associator phases on triple overlaps, connective-structure 1-forms and
  curvings; the coherence axioms are checked pointwise on overlap cores.
* Global-curving mode: a single global 2-form kappa twists the
  superconnection square to theta = A^2 + kappa, and d_H = d + H ^ . with
  H = d kappa replaces d.  This is the trivial twist: kappa . 1 is central
  and even, so with I_kappa xi = exp(-kappa) ^ xi

      Ch_kappa = I_kappa Ch,   eta_kappa = I_kappa eta,   d_H I_kappa = I_kappa d,

  and I_kappa is an isomorphism onto the untwisted theory.  The twisted eta
  forms are I_kappa of the untwisted ones, and X is d_H-exact iff
  I_{-kappa} X is d-exact, which the harmonic test of forms.equal_mod_exact
  decides.  The twisted character keeps the paper's exp(-(F + kappa)).

A twist with [H] != 0 needs curvings on several charts and is not modelled.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartMismatchError, ClosednessError
from .forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    equal_mod_exact,
    exterior_d,
    sup_norm,
    supertrace,
    wedge_mul,
)
from .superconn import Superconnection, curvature, neg_exp
from .transgression import (
    EtaResult,
    QuadratureConfig,
    eta_between,
    eta_infinity,
)

__all__ = [
    "CechCover",
    "GerbeData",
    "ConnectiveStructure",
    "Curving",
    "verify_gerbe",
    "verify_connective",
    "verify_curving",
    "curving_field_strength",
    "d_H",
    "I_tau",
    "twisted_theta",
    "twisted_chern",
    "twisted_eta_between",
    "twisted_eta_infinity",
    "is_dH_exact",
    "twisted_equal_mod_exact",
]

# absolute tolerance of the Cech cocycle checks and of the closedness of H
_TOL = 1e-10


# -- Cech data ----------------------------------------------------------------


@dataclass
class CechCover:
    """Open cover of the chart by cutoff masks with overlap bookkeeping."""

    chart: TorusChart
    sets: list

    def __post_init__(self):
        if not self.sets:
            raise ValueError("a cover needs at least one set")
        for u in self.sets:
            if u.chart != self.chart:
                raise ChartMismatchError("cover sets live on different charts")

    def check_coverage(self, tol: float = 1e-12) -> float:
        """Smallest pointwise max of the masks; must reach 1 within tol."""
        stack = np.stack([u.mask for u in self.sets])
        worst = float(stack.max(axis=0).min())
        if worst < 1.0 - tol:
            raise ChartMismatchError(
                f"cover cores leave the torus uncovered (max mask {worst:.6f})"
            )
        return worst

    def overlap_core(self, indices) -> np.ndarray:
        core = np.ones(self.chart.shape, dtype=bool)
        for i in indices:
            core &= self.sets[i].core
        return core

    def pairs(self):
        return list(itertools.combinations(range(len(self.sets)), 2))

    def triples(self):
        return list(itertools.combinations(range(len(self.sets)), 3))

    def quadruples(self):
        return list(itertools.combinations(range(len(self.sets)), 4))


def _pair_key(i, j):
    return (min(i, j), max(i, j))


@dataclass
class GerbeData:
    """Phase transition fields on pairs and associator phases on triples.

    transitions maps (i, j) with i < j to a unit-modulus field; mu maps
    ordered triples (i, j, k) with i < j < k to a unit-modulus field.
    """

    cover: CechCover
    transitions: dict
    mu: dict

    def mu_at(self, i, j, k):
        """Associator phase for arbitrary index order (antisymmetric rule)."""
        order = (i, j, k)
        key = tuple(sorted(order))
        base = self.mu[key]
        # parity of the permutation taking sorted -> order
        perm = [key.index(x) for x in order]
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
        )
        return base if inversions % 2 == 0 else np.conj(base)


def verify_gerbe(g: GerbeData) -> dict:
    """Check unit modulus and the associativity (coboundary) condition.

    On every quadruple overlap core the combination
    mu_{jkl} mu_{ikl}^* mu_{ijl} mu_{ijk}^* must equal 1.
    """
    cover = g.cover
    worst_modulus = 0.0
    for key, fieldv in list(g.transitions.items()) + list(g.mu.items()):
        worst_modulus = max(worst_modulus, float(np.abs(np.abs(fieldv) - 1.0).max()))
    worst = 0.0
    checked = 0
    for (i, j, k, l) in cover.quadruples():
        core = cover.overlap_core((i, j, k, l))
        if not core.any():
            continue
        combo = (
            g.mu_at(j, k, l)
            * np.conj(g.mu_at(i, k, l))
            * g.mu_at(i, j, l)
            * np.conj(g.mu_at(i, j, k))
        )
        worst = max(worst, float(np.abs(combo[core] - 1.0).max()))
        checked += 1
    return {
        "max_violation": worst,
        "max_modulus_defect": worst_modulus,
        "quadruples_checked": checked,
        "passes": worst <= _TOL and worst_modulus <= _TOL,
    }


@dataclass
class ConnectiveStructure:
    """1-forms a_{ij} on pair overlaps (connections on the transition lines)."""

    cover: CechCover
    forms: dict  # (i, j) i < j -> GradedMatrixForm, degree 1, rank 1

    def form_at(self, i, j) -> GradedMatrixForm:
        base = self.forms[_pair_key(i, j)]
        return base if i < j else -1 * base


def verify_connective(cs: ConnectiveStructure, g: GerbeData) -> dict:
    """delta a = -dlog mu on triple overlap cores: a_ij + a_jk - a_ik = mu^* d mu."""
    cover = cs.cover
    worst = 0.0
    checked = 0
    for (i, j, k) in cover.triples():
        core = cover.overlap_core((i, j, k))
        if not core.any():
            continue
        mu = g.mu_at(i, j, k)
        mu_form = GradedMatrixForm.from_scalar_field(cover.chart, mu)
        dlog = exterior_d(mu_form)
        combo = cs.form_at(i, j) + cs.form_at(j, k) - cs.form_at(i, k)
        for axis in range(cover.chart.dim):
            lhs = combo.component((axis,))[..., 0, 0]
            rhs = dlog.component((axis,))[..., 0, 0] * np.conj(mu)
            worst = max(worst, float(np.abs((lhs - rhs)[core]).max(initial=0.0)))
        checked += 1
    return {"max_violation": worst, "triples_checked": checked, "passes": worst <= _TOL}


@dataclass
class Curving:
    """2-forms kappa_i per cover set; differences match transition curvatures."""

    cover: CechCover
    kappas: list  # GradedMatrixForm, degree 2, rank 1, one per set


def verify_curving(k: Curving, cs: ConnectiveStructure) -> dict:
    """kappa_i - kappa_j = d a_{ij} on pair overlap cores."""
    cover = k.cover
    worst = 0.0
    checked = 0
    for (i, j) in cover.pairs():
        core = cover.overlap_core((i, j))
        if not core.any():
            continue
        da = exterior_d(cs.form_at(i, j))
        diff = k.kappas[i] - k.kappas[j] - da
        worst = max(worst, float(np.abs(diff.data[:, core]).max(initial=0.0)))
        checked += 1
    return {"max_violation": worst, "pairs_checked": checked, "passes": worst <= _TOL}


def curving_field_strength(k: Curving, cs: ConnectiveStructure | None = None) -> tuple:
    """Global 3-form H with H|_{U_i} = d kappa_i, plus the coherence report.

    The d kappa_i are compared pairwise on overlap cores before gluing by a
    mask-weighted average; dH = 0 is checked and reported.
    """
    cover = k.cover
    chart = cover.chart
    dks = [exterior_d(kap) for kap in k.kappas]
    worst = 0.0
    for (i, j) in cover.pairs():
        core = cover.overlap_core((i, j))
        if core.any():
            diff = dks[i] - dks[j]
            worst = max(worst, float(np.abs(diff.data[:, core]).max(initial=0.0)))
    if worst > _TOL:
        raise ClosednessError("d kappa_i disagree on overlaps", worst)
    weights = np.stack([u.mask for u in cover.sets])
    total = weights.sum(axis=0)
    h = GradedMatrixForm.zeros(chart, Grading.trivial(1))
    for w, dk in zip(weights, dks):
        h.data += (w / total)[None, ..., None, None] * dk.data
    dh = sup_norm(exterior_d(h))
    report = {
        "overlap_mismatch": worst,
        "dH": dh,
        "passes": worst <= _TOL and dh <= _TOL,
    }
    return h, report


# -- twisted de Rham -----------------------------------------------------------


def d_H(xi: GradedMatrixForm, h: GradedMatrixForm):
    """d xi + H ^ xi for a closed 3-form H; raises if H is not closed."""
    res = sup_norm(exterior_d(h))
    if res > _TOL:
        raise ClosednessError("twisting 3-form is not closed", res)
    return exterior_d(xi) + wedge_mul(h, xi)


def I_tau(xi: GradedMatrixForm, tau: GradedMatrixForm) -> GradedMatrixForm:
    """exp(-tau) ^ xi with the finite exponential series of a 2-form."""
    chart = xi.chart
    out = xi.copy()
    power = xi
    coeff = 1.0
    for j in range(1, chart.dim // 2 + 1):
        power = wedge_mul(tau, power)
        coeff *= -1.0 / j
        out = out + coeff * power
    return out


# -- twisted superconnection calculus (global-curving mode) --------------------


def _curving(kappa: GradedMatrixForm, grading: Grading) -> GradedMatrixForm:
    """kappa . I on the fibre of grading, for a global curving kappa: a scalar
    form of degree 2 only."""
    if kappa.rank != 1 or set(kappa.degrees_present()) - {2}:
        raise ChartMismatchError(
            "a global curving is a scalar 2-form; multi-chart curvings are not supported"
        )
    out = GradedMatrixForm.zeros(kappa.chart, grading)
    out.data[:] = kappa.data[..., :1, :1] * np.eye(grading.rank)
    return out


def _itau_bound(kappa: GradedMatrixForm) -> float:
    """b(kappa) = sum_{j <= dim/2} (C(dim, 2) |kappa|)^j / j!, a bound on the
    sup-norm operator norm of I_kappa: each component of kappa ^ x sums at
    most C(dim, 2) products of a kappa and an x component."""
    dim = kappa.chart.dim
    step = math.comb(dim, 2) * sup_norm(kappa)
    return sum(step**j / math.factorial(j) for j in range(dim // 2 + 1))


def twisted_theta(a: Superconnection, kappa: GradedMatrixForm) -> GradedMatrixForm:
    """theta = A^2 + kappa . I in global-curving mode."""
    return curvature(a) + _curving(kappa, a.grading)


def twisted_chern(a: Superconnection, kappa: GradedMatrixForm) -> GradedMatrixForm:
    """Str exp(-theta); d_H-closed for H = d kappa."""
    return supertrace(neg_exp(twisted_theta(a, kappa)))


def _twist(eta: EtaResult, kappa: GradedMatrixForm) -> EtaResult:
    """I_kappa of an untwisted eta form; the error estimate grows by b(kappa)
    and the truncation T stays the untwisted one."""
    form = I_tau(eta.form, _curving(kappa, eta.form.grading))
    return EtaResult(form, _itau_bound(kappa) * eta.est_error, eta.truncation_T)


def twisted_eta_between(
    a0: Superconnection,
    a1: Superconnection,
    kappa: GradedMatrixForm,
    cfg: QuadratureConfig | None = None,
) -> EtaResult:
    """eta_kappa(A0, A1) = I_kappa eta(A0, A1): exp(-(F + kappa)) = exp(-kappa) ^
    exp(-F) at every node, and I_kappa commutes with the path integral."""
    return _twist(eta_between(a0, a1, cfg), kappa)


def twisted_eta_infinity(
    a: Superconnection,
    kappa: GradedMatrixForm,
    tol: float = 1e-10,
    cfg: QuadratureConfig | None = None,
) -> EtaResult:
    """eta_kappa(A, infinity) = I_kappa eta(A, infinity), truncated at the
    untwisted T; the tail and quadrature estimate is b(kappa) times the
    untwisted one."""
    return _twist(eta_infinity(a, tol=tol, cfg=cfg), kappa)


# -- equality mod Im(d_H) ------------------------------------------------------


def is_dH_exact(target: GradedMatrixForm, kappa: GradedMatrixForm, tol: float = 1e-8):
    """Decide target in Im(d_H), H = d kappa, by the harmonic test of
    X = I_{-kappa} target: I_{-kappa} d_H = d I_{-kappa}, so target is
    d_H-exact iff X is d-closed with zero harmonic part.

    Returns (is_exact, residual): (False, sup |dX|) if X is not closed to tol,
    otherwise the largest harmonic coefficient of X against tol.
    """
    x = I_tau(target, -1 * _curving(kappa, target.grading))
    try:
        ok, report = equal_mod_exact(x, GradedMatrixForm.zeros(x.chart, x.grading), tol)
    except ClosednessError as err:
        return False, err.residual
    return ok, report.residual_norm


def twisted_equal_mod_exact(
    a: GradedMatrixForm,
    b: GradedMatrixForm,
    kappa: GradedMatrixForm,
    tol: float = 1e-8,
):
    """Decide a = b mod Im(d_H) for H = d kappa: is_dH_exact of a - b."""
    return is_dH_exact(a - b, kappa, tol)
