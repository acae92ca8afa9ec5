"""Cech gerbe data checks and the curving-twisted superconnection calculus.

Two modes, mirroring what is honestly computable on a grid:

* Cech verification mode: finite covers with phase-valued transition data,
  associator phases on triple overlaps, connective-structure 1-forms and
  curvings; the coherence axioms are checked pointwise on overlap cores.
* Global-curving mode: the gerbe is trivial, a single global 2-form kappa
  twists the superconnection square to theta = A^2 + kappa, and the whole
  transgression calculus runs with d_H = d + H ^ . in place of d, where
  H = d kappa.

Equality mod Im(d_H) is decided by a least-squares solve for a d_H-primitive
in the truncated Fourier basis; with H nonzero the constant-mode criterion
used for the untwisted calculus is no longer correct.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ChartMismatchError, ClosednessError
from .forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    _derivative_multiplier,
    _wedge_signs,
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
        n = len(self.sets)
        return [(i, j) for i in range(n) for j in range(i + 1, n)]

    def triples(self):
        n = len(self.sets)
        return [
            (i, j, k)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        ]

    def quadruples(self):
        n = len(self.sets)
        return [
            (i, j, k, l)
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
            for l in range(k + 1, n)
        ]


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


def _embed_scalar(kappa: GradedMatrixForm, grading: Grading) -> GradedMatrixForm:
    out = GradedMatrixForm.zeros(kappa.chart, grading)
    eye = np.eye(grading.rank)
    out.data[:] = kappa.data[..., :1, :1] * eye
    return out


def _curving(kappa: GradedMatrixForm, grading: Grading) -> GradedMatrixForm:
    """kappa . I, the curving term of theta, for a global curving kappa."""
    if kappa.rank != 1:
        raise ChartMismatchError(
            "multi-chart curvings are not supported; supply a global 2-form"
        )
    return _embed_scalar(kappa, grading)


def twisted_theta(a: Superconnection, kappa: GradedMatrixForm) -> GradedMatrixForm:
    """theta = A^2 + kappa . I in global-curving mode."""
    return curvature(a) + _curving(kappa, a.grading)


def twisted_chern(a: Superconnection, kappa: GradedMatrixForm) -> GradedMatrixForm:
    """Str exp(-theta); d_H-closed for H = d kappa."""
    return supertrace(neg_exp(twisted_theta(a, kappa)))


def twisted_eta_between(
    a0: Superconnection,
    a1: Superconnection,
    kappa: GradedMatrixForm,
    cfg: QuadratureConfig | None = None,
) -> EtaResult:
    return eta_between(a0, a1, cfg, curving=_curving(kappa, a0.grading))


def twisted_eta_infinity(
    a: Superconnection,
    kappa: GradedMatrixForm,
    tol: float = 1e-10,
    cfg: QuadratureConfig | None = None,
) -> EtaResult:
    return eta_infinity(a, tol=tol, cfg=cfg, curving=_curving(kappa, a.grading))


# -- equality mod Im(d_H) ------------------------------------------------------


def _dh_sparse_matrix(chart: TorusChart, h: GradedMatrixForm) -> sp.csr_matrix:
    """Matrix of d_H on scalar forms in the (component, Fourier mode) basis."""
    n = chart.grid_size
    dim = chart.dim
    nc = chart.n_components
    npts = n**dim if dim else 1
    size = nc * npts
    signs_table = _wedge_signs(dim)

    rows, cols, vals = [], [], []
    mode_shape = (n,) * dim if dim else (1,)
    mode_grid = np.stack(
        np.unravel_index(np.arange(npts), mode_shape), axis=-1
    )  # (npts, dim-or-1)
    # d part: diagonal in the mode index, the multiplier of exterior_d
    mult = _derivative_multiplier(n)
    for mask in range(nc):
        for axis in range(dim):
            bit = 1 << axis
            if mask & bit:
                continue
            kvals = mult[mode_grid[:, axis]]
            idx = np.flatnonzero(kvals)
            rows.append((mask | bit) * npts + idx)
            cols.append(mask * npts + idx)
            vals.append(signs_table[bit, mask] * kvals[idx])
    # H-wedge part: convolution by the Fourier modes of each H component
    tolz = 1e-14
    all_idx = np.arange(npts)
    for hmask in range(nc):
        comp = h.data[hmask][..., 0, 0]
        if not comp.any():
            continue
        hhat = np.fft.fftn(comp) / npts if dim else comp.reshape(1)
        nz = np.argwhere(np.abs(hhat) > tolz)
        for mode in nz:
            coeff = hhat[tuple(mode)]
            shifted = (mode_grid + np.asarray(mode)) % n
            out_idx = np.ravel_multi_index(tuple(shifted.T), mode_shape)
            for mask in range(nc):
                s = signs_table[hmask, mask]
                if s == 0:
                    continue
                out_mask = hmask | mask
                rows.append(out_mask * npts + out_idx)
                cols.append(mask * npts + all_idx)
                vals.append(np.full(npts, s * coeff, dtype=np.complex128))
    if not rows:
        return sp.csr_matrix((size, size), dtype=np.complex128)
    row_arr = np.concatenate([np.atleast_1d(r) for r in rows]).astype(np.int64)
    col_arr = np.concatenate([np.atleast_1d(c) for c in cols]).astype(np.int64)
    val_arr = np.concatenate([np.atleast_1d(v) for v in vals]).astype(np.complex128)
    return sp.csr_matrix((val_arr, (row_arr, col_arr)), shape=(size, size))


def _scalar_to_modes(xi: GradedMatrixForm) -> np.ndarray:
    chart = xi.chart
    n = chart.grid_size
    dim = chart.dim
    npts = n**dim if dim else 1
    out = np.zeros(chart.n_components * npts, dtype=np.complex128)
    for mask in range(chart.n_components):
        comp = xi.data[mask][..., 0, 0]
        hat = np.fft.fftn(comp) / npts if dim else comp.reshape(1)
        out[mask * npts : (mask + 1) * npts] = hat.reshape(-1)
    return out


def is_dH_exact(target: GradedMatrixForm, h: GradedMatrixForm, tol: float = 1e-8):
    """Least-squares d_H-primitive search in the truncated Fourier basis.

    Returns (is_exact, residual_norm); the residual is the sup of the
    unreachable part of target, measured back on the grid scale.
    """
    chart = target.chart
    mat = _dh_sparse_matrix(chart, h)
    rhs = _scalar_to_modes(target)
    result = spla.lsqr(
        mat,
        rhs,
        atol=1e-14,
        btol=1e-14,
        iter_lim=8 * rhs.size,
    )
    resid_modes = rhs - mat @ result[0]
    # sup norm on the grid is bounded by the l1 norm of the mode residual
    residual = float(np.abs(resid_modes).sum())
    return residual <= tol, residual


def twisted_equal_mod_exact(
    a: GradedMatrixForm,
    b: GradedMatrixForm,
    h: GradedMatrixForm,
    tol: float = 1e-8,
):
    """Decide a = b mod Im(d_H) by solving for a primitive of the difference."""
    return is_dH_exact(a - b, h, tol)
