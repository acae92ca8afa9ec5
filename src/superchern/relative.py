"""Relative forms, the parametrix/projector index construction, and
eta-difference defects with quantization oracles.

Open sets are smooth cutoff masks built from coordinate boxes; "restriction
to U" always means sampling on the chi = 1 core, which keeps all assertions
away from the transition collar.  The index projectors follow the standard
2x2 construction from a parametrix Q = f(A_[0]) that inverts the degree-0
term exactly wherever its spectrum clears the window [-c, c]; the resulting
relative character is supported off U and has quantized degree-2 periods,
checked against a discrete phase-winding oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChartMismatchError, GapError, NotInvertibleError
from .forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    exterior_d,
    supertrace,
)
from .superconn import Superconnection, chern_character, curvature, neg_exp, projected_connection
from .transgression import QuadratureConfig, eta_between, eta_infinity

__all__ = [
    "OpenSet",
    "RelativeForm",
    "IndexProjectors",
    "relative_d",
    "relative_sup_norm",
    "parametrix",
    "index_projectors",
    "relative_chern_pair",
    "index_character",
    "cor2_defect",
    "spectral_flow",
    "winding_number_box",
    "box_integral",
    "core_min_gap",
]


def _transition(s: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return a / (a + b + 1e-300)


def _periodic_distance(x: np.ndarray, center: float) -> np.ndarray:
    d = np.abs(x - center) % 1.0
    return np.minimum(d, 1.0 - d)


def _box_bump(chart: TorusChart, center, core_radius, support_radius) -> np.ndarray:
    """Product bump: 1 on the core box, 0 outside the support box."""
    center = np.broadcast_to(np.asarray(center, dtype=float), (chart.dim,))
    core = np.broadcast_to(np.asarray(core_radius, dtype=float), (chart.dim,))
    supp = np.broadcast_to(np.asarray(support_radius, dtype=float), (chart.dim,))
    if np.any(core >= supp):
        raise ValueError("core radius must be strictly inside the support radius")
    out = np.ones(chart.shape)
    for axis in range(chart.dim):
        d = _periodic_distance(chart.coordinate(axis), center[axis])
        out = out * _transition((supp[axis] - d) / (supp[axis] - core[axis]))
    return out


@dataclass
class OpenSet:
    """Smooth cutoff mask chi with a boolean core where chi = 1 exactly."""

    chart: TorusChart
    mask: np.ndarray
    core: np.ndarray
    boxes: list = field(default_factory=list)

    @classmethod
    def whole(cls, chart: TorusChart) -> "OpenSet":
        return cls(chart, np.ones(chart.shape), np.ones(chart.shape, dtype=bool))

    @classmethod
    def empty(cls, chart: TorusChart) -> "OpenSet":
        return cls(chart, np.zeros(chart.shape), np.zeros(chart.shape, dtype=bool))

    @classmethod
    def box(cls, chart, center, core_radius, support_radius) -> "OpenSet":
        bump = _box_bump(chart, center, core_radius, support_radius)
        return cls(
            chart,
            bump,
            bump >= 1.0 - 1e-12,
            boxes=[("box", center, core_radius, support_radius)],
        )

    @classmethod
    def complement_of_boxes(cls, chart, boxes) -> "OpenSet":
        """U = M minus several bump boxes; core is where every bump vanishes.

        boxes is an iterable of (center, core_radius, support_radius); note
        the roles flip: the box support is excluded from the core of U.
        """
        mask = np.ones(chart.shape)
        core = np.ones(chart.shape, dtype=bool)
        specs = []
        for center, core_radius, support_radius in boxes:
            bump = _box_bump(chart, center, core_radius, support_radius)
            mask = mask * (1.0 - bump)
            core &= bump <= 0.0
            specs.append(("complement", center, core_radius, support_radius))
        return cls(chart, mask, core, boxes=specs)

    def core_fraction(self) -> float:
        return float(self.core.mean()) if self.core.size else 1.0


@dataclass
class RelativeForm:
    """Pair (omega on M, sigma on U); deg sigma = deg omega - 1."""

    omega: GradedMatrixForm
    sigma: GradedMatrixForm

    def __post_init__(self):
        if self.omega.rank != 1 or self.sigma.rank != 1:
            raise ChartMismatchError("relative forms are scalar (rank-1)")
        self.omega._check_compat(self.sigma)


def relative_d(rf: RelativeForm, _u: OpenSet | None = None) -> RelativeForm:
    """(omega, sigma) -> (d omega, omega|_U - d sigma).

    The pair is stored on the full grid and restriction to U is sampling, so
    no open set is needed; a second argument is accepted and ignored for
    callers written against the older (rf, u) signature.
    """
    return RelativeForm(exterior_d(rf.omega), rf.omega - exterior_d(rf.sigma))


def relative_sup_norm(rf: RelativeForm, u: OpenSet) -> float:
    """Sup of |omega| over M and of |sigma| over the core of U."""
    worst = rf.omega.sup_norm()
    if u.core.any():
        core_vals = np.abs(rf.sigma.data[:, u.core, :, :])
        worst = max(worst, float(core_vals.max(initial=0.0)))
    return worst


def core_min_gap(a: Superconnection, u: OpenSet) -> float:
    """Smallest singular value of the degree-0 term over the core of U."""
    if a.rank == 0:
        return math.inf
    sv = np.linalg.svd(a.term0_field(), compute_uv=False)[..., -1]
    if a.chart.dim == 0:
        return float(sv)
    if not u.core.any():
        return math.inf
    return float(sv[u.core].min())


# -- parametrix and index projectors ----------------------------------------


def _xi_bump(x: np.ndarray, c: float) -> np.ndarray:
    """Even bump with xi(0) = 1 supported in [-c, c]."""
    u = np.clip((x / c) ** 2, 0.0, None)
    with np.errstate(divide="ignore", over="ignore"):
        val = np.where(u < 1.0, np.exp(1.0 - 1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return val


def _xi_values(x: np.ndarray, c: float, xi_shape) -> np.ndarray:
    if xi_shape == "bump":
        return _xi_bump(x, c)
    if isinstance(xi_shape, tuple) and len(xi_shape) == 2 and xi_shape[0] == "gauss":
        return np.exp(-xi_shape[1] * (x / c) ** 2)
    raise ValueError(f"unknown cutoff shape {xi_shape!r}")


def parametrix(
    a0_field: np.ndarray, c: float, u: OpenSet | None = None, xi_shape="bump"
) -> np.ndarray:
    """Q = f(A_[0]) with odd f and x f(x) = 1 - xi(x) for a cutoff xi.

    With the default compactly supported bump, f(x) = 1/x holds exactly for
    |x| > c, so Q inverts the degree-0 term exactly wherever its spectrum
    clears the window [-c, c].  The ("gauss", alpha) shape replaces the bump
    by exp(-alpha (x/c)^2): f is then entire (much friendlier to spectral
    grids) and inverts only up to exp(-alpha (gap/c)^2), which callers pick
    below their tolerance.  When an OpenSet is supplied, eigenvalues inside
    (0, c] on its core raise GapError.
    """
    w, v = np.linalg.eigh(a0_field)
    if u is not None and u.core.any():
        core_w = w[u.core] if u.chart.dim else w
        bad = np.abs(core_w[np.abs(core_w) <= c])
        bad = bad[bad > 0.0]
        if bad.size:
            raise GapError(
                "spectrum enters (0, c] on the core of U",
                np.sort(bad)[:8].tolist(),
            )
    xi = _xi_values(w, c, xi_shape)
    safe = np.where(np.abs(w) < 1e-300, 1.0, w)
    if xi_shape == "bump":
        fw = np.where(np.abs(w) > c, 1.0 / safe, (1.0 - xi) / safe)
    else:
        fw = (1.0 - xi) / safe
    return (v * fw[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


@dataclass
class IndexProjectors:
    """The 2x2 construction on the doubled bundle H (+) H."""

    q: np.ndarray
    s0: np.ndarray
    s1: np.ndarray
    l: np.ndarray
    l_inv: np.ndarray
    p: np.ndarray
    p0: np.ndarray

    def validate(self, u: OpenSet, tol: float = 1e-10) -> dict:
        eye = np.eye(self.l.shape[-1])
        rep = {
            "p_idempotent": float(np.abs(self.p @ self.p - self.p).max()),
            "p0_idempotent": float(np.abs(self.p0 @ self.p0 - self.p0).max()),
            "l_inverse": float(np.abs(self.l @ self.l_inv - eye).max()),
        }
        diff = np.abs(self.p - self.p0)
        if u.chart.dim and u.core.any():
            rep["p_minus_p0_on_core"] = float(diff[u.core].max(initial=0.0))
        else:
            rep["p_minus_p0_on_core"] = float(diff.max(initial=0.0))
        rep["ok"] = all(v <= tol for k, v in rep.items() if k != "ok")
        return rep

    def rank_profile(self) -> np.ndarray:
        """Pointwise rank of P - P0 (rounded trace of its square)."""
        diff = self.p - self.p0
        sq = diff @ diff
        return np.round(np.einsum("...rr->...", sq).real).astype(int)


def index_projectors(
    a: Superconnection, u: OpenSet, c: float, xi_shape="bump"
) -> IndexProjectors:
    """Build Q, S0, S1, L, L^{-1}, P, P0 on the doubled bundle."""
    t0 = a.term0_field()
    q = parametrix(t0, c, u, xi_shape)
    m = a.rank
    eye = np.eye(m)
    s0 = eye - q @ t0
    s1 = eye - t0 @ q
    shape = t0.shape[:-2]
    big = np.zeros(shape + (2 * m, 2 * m), dtype=np.complex128)
    corner = (eye + s0) @ q
    l = big.copy()
    l[..., :m, :m] = s0
    l[..., :m, m:] = -corner
    l[..., m:, :m] = t0
    l[..., m:, m:] = s1
    l_inv = big.copy()
    l_inv[..., :m, :m] = s0
    l_inv[..., :m, m:] = corner
    l_inv[..., m:, :m] = -t0
    l_inv[..., m:, m:] = s1
    # L^{-1} P1 L with P1 = 1 (+) 0, which keeps only these blocks
    p = l_inv[..., :, :m] @ l[..., :m, :]
    p0 = big.copy()
    p0[..., m:, m:] = eye
    return IndexProjectors(q=q, s0=s0, s1=s1, l=l, l_inv=l_inv, p=p, p0=p0)


def relative_chern_pair(
    a: Superconnection,
    u: OpenSet,
    tol: float = 1e-10,
    cfg: QuadratureConfig | None = None,
) -> RelativeForm:
    """(Ch(A), eta(A, infinity)|_U); relatively closed where the gap holds."""
    gap = core_min_gap(a, u)
    if not gap > 0:
        raise NotInvertibleError("degree-0 term is not invertible on the core of U", gap)
    eta = eta_infinity(a, tol=tol, cfg=cfg, gap=gap)
    return RelativeForm(chern_character(a), eta.form)


def _doubled(w: np.ndarray) -> np.ndarray | None:
    """The field w (+) w on the doubled bundle, or None where w vanishes."""
    if not w.any():
        return None
    m = w.shape[-1]
    big = np.zeros(w.shape[:-2] + (2 * m, 2 * m), dtype=np.complex128)
    big[..., :m, :m] = w
    big[..., m:, m:] = w
    return big


def index_character(
    a: Superconnection, u: OpenSet, c: float | None = None, xi_shape="bump"
) -> RelativeForm:
    """Relative character of the index of the degree-0 term.

    Returns (1/2) Str( P exp(-(P o A~_[1] o P)^2) P
                     - P0 exp(-(P0 o A~_[1] o P0)^2) P0 )
    paired with a zero second component, on the doubled bundle A~ = A (+) A
    with flipped grading on the second copy.  The form vanishes on the core
    of U and its degree-2 periods are 2 pi i times the local index.

    Only these supertraces are formed.  P0 = 0 (+) 1 is constant and the
    connection part w (+) w of A~_[1] is block-diagonal, so
    P0 o A~_[1] o P0 = 0 (+) (d + w); the second copy carries -gamma, so the
    P0 term is exactly -Str_gamma exp(-F(d + w)), one exponential at rank m.
    The P term contracts each heat component H_I with the weight
    W = P Gamma P (Gamma the doubled grading): Str(P H_I P) = tr(W H_I).
    Of the projector construction only P is kept, and only until W and the
    projected connection are formed, so that no field of it stays alive
    through the rank-2m exponential.

    The window c defaults to half the gap on the core of U; a window that is
    not finite and positive (no gap, or an empty core) raises
    NotInvertibleError.
    """
    if c is None:
        gap = core_min_gap(a, u)
        if not gap > 0:
            raise NotInvertibleError("no spectral gap on the core of U", gap)
        c = 0.5 * gap
    if not (math.isfinite(c) and c > 0):
        raise NotInvertibleError(
            f"parametrix window c = {c} must be finite and positive", core_min_gap(a, u)
        )
    p = index_projectors(a, u, c, xi_shape).p
    chart = a.chart
    grading2 = a.grading.concat(a.grading.flip())
    omega_axes = [_doubled(a.coeff.data[1 << axis]) for axis in range(chart.dim)]
    weight = (p * grading2.signature) @ p
    # each field goes as soon as the next is formed (one T^2 N256 form of
    # the doubled rank-2 bundle is 67 MB)
    conn = projected_connection(p, omega_axes, chart, grading2)
    del p, omega_axes
    f = curvature(conn)
    del conn
    heat = neg_exp(f)
    del f
    heat0 = neg_exp(curvature(Superconnection(a.coeff.degree_part(1))))
    chi = supertrace(heat0)
    chi.data[..., 0, 0] += np.einsum("...ab,i...ba->i...", weight, heat.data)
    chi.data *= 0.5
    zero = GradedMatrixForm.zeros(chart, Grading.trivial(1))
    return RelativeForm(chi, zero)


def cor2_defect(
    a: Superconnection,
    a1: Superconnection,
    cfg: QuadratureConfig | None = None,
    tol: float = 1e-10,
):
    """eta(A, A') - eta(A, infinity) + eta(A', infinity) with its periods.

    Both degree-0 terms must be invertible.  The defect is closed; its
    periods over the coordinate cycles quantize on winding families, scaling
    with the spectral flow of the connecting path.
    """
    eta01 = eta_between(a, a1, cfg)
    etainf0 = eta_infinity(a, tol=tol, cfg=cfg)
    etainf1 = eta_infinity(a1, tol=tol, cfg=cfg)
    defect = eta01.form - etainf0.form + etainf1.form
    periods = {}
    for axis in range(a.chart.dim):
        from .forms import integrate

        periods[axis] = integrate(defect, (axis,))
    report = {
        "periods": periods,
        "est_error": eta01.est_error + etainf0.est_error + etainf1.est_error,
        "truncation_T": (etainf0.truncation_T, etainf1.truncation_T),
    }
    return defect, report


def spectral_flow(path, samples: int = 64):
    """Signed count of eigenvalue zero crossings along a path of hermitian matrices.

    path(t) returns a hermitian matrix for t in [0, 1].  The count is the net
    number of eigenvalues moving from negative to positive, localized by 24
    bisections of every sample interval across which the negative count
    changes.  Raises if an endpoint eigenvalue is within 1e-9 of zero.
    """

    def neg_count(t):
        evals = np.linalg.eigvalsh(np.asarray(path(t)))
        if t in (0.0, 1.0) and np.abs(evals).min(initial=np.inf) < 1e-9:
            raise NotInvertibleError(
                "spectral_flow endpoint has a zero eigenvalue",
                float(np.abs(evals).min()),
            )
        return int((evals < 0.0).sum())

    ts = np.linspace(0.0, 1.0, samples + 1)
    counts = [neg_count(float(t)) for t in ts]
    crossings = []
    total = 0
    for i in range(samples):
        delta = counts[i] - counts[i + 1]
        if delta != 0:
            lo, hi = float(ts[i]), float(ts[i + 1])
            for _ in range(24):
                mid = 0.5 * (lo + hi)
                if counts[i] - neg_count(mid) != 0:
                    hi = mid
                else:
                    lo = mid
            crossings.append((0.5 * (lo + hi), delta))
            total += delta
    return total, crossings


def winding_number_box(field: np.ndarray, chart: TorusChart, box) -> int:
    """Discrete degree of field/|field| along the grid boundary of a box.

    box is (center, radius) in torus coordinates; the loop visits the grid
    points nearest the box edges counterclockwise and accumulates the phase
    increments of the (nonvanishing) complex field.
    """
    if chart.dim != 2:
        raise ChartMismatchError("the winding oracle runs on 2-dimensional charts")
    center, radius = box
    n = chart.grid_size
    c0, c1 = (np.asarray(center) % 1.0) * n
    r0, r1 = np.broadcast_to(np.asarray(radius, dtype=float), (2,)) * n
    lo0, hi0 = int(np.floor(c0 - r0)), int(np.ceil(c0 + r0))
    lo1, hi1 = int(np.floor(c1 - r1)), int(np.ceil(c1 + r1))
    loop = []
    for i in range(lo0, hi0 + 1):
        loop.append((i, lo1))
    for j in range(lo1 + 1, hi1 + 1):
        loop.append((hi0, j))
    for i in range(hi0 - 1, lo0 - 1, -1):
        loop.append((i, hi1))
    for j in range(hi1 - 1, lo1, -1):
        loop.append((lo0, j))
    vals = np.array([field[i % n, j % n] for i, j in loop])
    if vals.size == 0 or float(np.abs(vals).min()) <= 0.0:
        raise GapError("winding oracle hit a zero of the field on the loop", [0.0])
    ratios = vals[np.arange(1, len(vals) + 1) % len(vals)] / vals
    return int(round(float(np.angle(ratios).sum() / (2.0 * math.pi))))


def box_integral(form: GradedMatrixForm, axes, box) -> complex:
    """Integral of one component over a coordinate box (grid sum times cell volume)."""
    chart = form.chart
    comp = form.component(tuple(axes))[..., 0, 0]
    center, radius = box
    center = np.broadcast_to(np.asarray(center, dtype=float), (chart.dim,))
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (chart.dim,))
    sel = np.ones(chart.shape, dtype=bool)
    for axis in range(chart.dim):
        d = _periodic_distance(chart.coordinate(axis), center[axis])
        sel &= np.broadcast_to(d <= radius[axis], chart.shape)
    return complex(comp[sel].sum() * chart.cell_volume)
