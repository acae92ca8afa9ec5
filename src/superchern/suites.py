"""Named verification suites producing machine-readable reports.

Each suite builds deterministic seeded scenes, evaluates a set of identity
checks at pinned tolerances, and returns a Report whose payload is stable
across runs (timings are excluded from the content hash).  Records are
sorted by name.  ``run_many`` runs independent suites in parallel, one
thread per suite up to the number of CPUs the process may run on; the
reports do not depend on the thread count.

Every identity family has one scene builder in ``scenes`` and one residual
function here.  The suites and the acceptance criteria both call them, each
with its own seeds, family sizes and aggregation, so a residual is written
once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import scenes as S
from .dk import (
    DKCocycle,
    cocycle_add,
    collapse_invertible,
    curvature_class,
    normalize_q,
    product_cocycle,
    shift_superconnection,
    stabilize,
)
from .forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    exterior_d,
    harmonic_coefficients,
    integrate,
    sup_norm,
)
from .oddk import odd_chern, odd_eta_between, odd_eta_infinity
from .relative import (
    OpenSet,
    box_integral,
    cor2_defect,
    core_min_gap,
    index_character,
    relative_chern_pair,
    relative_d,
    relative_sup_norm,
    spectral_flow,
    winding_number_box,
)
from .spectral import (
    DiracModel,
    TruncatedOperator,
    composition_check,
    duhamel_derivative,
    heat_trace,
    summability_bound_check,
    trace_cyclicity_check,
)
from .superconn import (
    Superconnection,
    chern_character,
    closedness_defect,
    direct_sum,
    gauge,
    product,
)
from .transgression import QuadratureConfig, eta_along_path, eta_between, eta_infinity
from .twisted import (
    CechCover,
    ConnectiveStructure,
    Curving,
    I_tau,
    curving_field_strength,
    d_H,
    twisted_chern,
    verify_gerbe,
)

__all__ = ["SuiteConfig", "CheckRecord", "Report", "run_suite", "SUITES"]


@dataclass(frozen=True)
class SuiteConfig:
    """What to run: suite name, seed, grid override, tolerance scale."""

    suite: str
    seed: int = 42
    grid: int | None = None
    tol_scale: float = 1.0

    def __post_init__(self):
        if self.tol_scale < 0:
            raise ValueError("tolerance scale must be nonnegative")


@dataclass
class CheckRecord:
    name: str
    anchor: str
    residual: float
    tolerance: float
    passed: bool
    lhs: float | None = None
    rhs: float | None = None
    seconds: float = 0.0

    def payload(self, with_timing=True) -> dict:
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "lhs": None if self.lhs is None else float(self.lhs),
            "rhs": None if self.rhs is None else float(self.rhs),
        }
        if with_timing:
            out["seconds"] = round(self.seconds, 6)
        return out


@dataclass
class Report:
    suite: str
    config: dict
    records: list = field(default_factory=list)
    environment: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def payload(self) -> dict:
        return {
            "schema": 1,
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "records": [r.payload() for r in sorted(self.records, key=lambda r: r.name)],
            "content_hash": self.content_hash(),
            "environment": self.environment,
        }

    def content_hash(self) -> str:
        stable = {
            "schema": 1,
            "suite": self.suite,
            "config": self.config,
            "records": [
                r.payload(with_timing=False)
                for r in sorted(self.records, key=lambda r: r.name)
            ],
        }
        blob = json.dumps(stable, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_json(self) -> str:
        return json.dumps(self.payload(), sort_keys=True, indent=1)

    def to_csv_rows(self):
        yield ("name", "anchor", "residual", "tolerance", "passed")
        for r in sorted(self.records, key=lambda r: r.name):
            yield (r.name, r.anchor, f"{r.residual:.6e}", f"{r.tolerance:.1e}", r.passed)


class _Checks(list):
    """The records of one suite run.

    A record's ``seconds`` is the wall time since the previous record or the
    last ``mark()``.  Suites mark after building their scenes, so a record
    times the evaluation of its own check (plus any intermediate it computes
    first for later checks) and scene construction stays out.
    """

    def __init__(self):
        super().__init__()
        self._since = time.perf_counter()

    def mark(self):
        self._since = time.perf_counter()

    def add(self, name, anchor, residual, tol, lhs=None, rhs=None, ok=None):
        now = time.perf_counter()
        self.append(
            CheckRecord(
                name=name,
                anchor=anchor,
                residual=float(residual),
                tolerance=float(tol),
                passed=bool((residual <= tol) if ok is None else ok),
                lhs=lhs,
                rhs=rhs,
                seconds=now - self._since,
            )
        )
        self._since = now


# -- residuals, one per identity, shared with the acceptance criteria ------------


def harm_gap(a: GradedMatrixForm, b: GradedMatrixForm | None = None) -> float:
    """Largest harmonic coefficient of a - b: the gap mod exact forms."""
    diff = a if b is None else a - b
    coeffs = harmonic_coefficients(diff)
    return float(np.abs(coeffs).max()) if coeffs.size else 0.0


def chern_closedness(a) -> float:
    """sup |d Ch(A)|."""
    return sup_norm(exterior_d(chern_character(a)))


def commutator_closedness(a, x) -> float:
    """sup of the commutator form of the closedness identity for A and x."""
    return sup_norm(closedness_defect(a, x))


def chern_product_residual(a, b) -> float:
    """sup |Ch(A (x) B) - Ch(A) ^ Ch(B)|."""
    return sup_norm(chern_character(product(a, b)) - chern_character(a).wedge(chern_character(b)))


def transgression_residual(a0, a1, eta) -> float:
    """sup |Ch(A1) - Ch(A0) + d eta| for the form eta = eta(A0, A1)."""
    return sup_norm(chern_character(a1) - chern_character(a0) + exterior_d(eta))


def quadrature_estimates(a0, a1):
    """Error estimates of eta(A0, A1) with 4 panels of order 2 and of order 4."""
    est2 = eta_between(a0, a1, QuadratureConfig(panels=4, order=2)).est_error
    est4 = eta_between(a0, a1, QuadratureConfig(panels=4, order=4)).est_error
    return est2, est4


def additivity_residual(a0, a1, a2, eta01) -> float:
    """Harmonic gap of eta(A0, A1) + eta(A1, A2) - eta(A0, A2)."""
    return harm_gap(eta01 + eta_between(a1, a2).form, eta_between(a0, a2).form)


def homotopy_residual(a0, a1, a2, eta01) -> float:
    """Harmonic gap between eta(A0, A1) and eta along a quadratic detour through A2."""
    # (1 - t) A0 + t A1 + 4 t (1 - t) detour = A0 + t P1 + t^2 P2
    detour = a2.coeff - 0.5 * (a0.coeff + a1.coeff)
    p1 = (a1.coeff - a0.coeff) + 4 * detour
    return harm_gap(eta_along_path(a0, [p1, -4 * detour]).form, eta01)


def collapse_residual(a):
    """sup |Ch(A) - d eta(A, infinity)| and the eta form's tail estimate."""
    eta = eta_infinity(a, tol=1e-10)
    return sup_norm(chern_character(a) - exterior_d(eta.form)), eta.est_error


def stabilization_eta(tilde, massive) -> float:
    """sup |eta(A, A + m)| for a stabilization pair."""
    return sup_norm(eta_between(tilde, massive).form)


def stabilization_eta_infinity(massive) -> float:
    """sup |eta(A + m, infinity)| for the massive end of a stabilization pair."""
    return sup_norm(eta_infinity(massive, tol=1e-12).form)


def sum_class_gap(c1, c2) -> float:
    """sup |cl(c1 + c2) - cl(c1) - cl(c2)| of the curvature classes."""
    total = curvature_class(cocycle_add(c1, c2))
    return sup_norm(total - curvature_class(c1) - curvature_class(c2))


def class_gap(c1, c2) -> float:
    """sup |cl(c1) - cl(c2)|: how far a relation moved the curvature class."""
    return sup_norm(curvature_class(c1) - curvature_class(c2))


def odd_transgression_residual(a0, a1, eta) -> float:
    """sup |Ch_odd(A1) - Ch_odd(A0) + d eta| for eta = eta_odd(A0, A1)."""
    return sup_norm(odd_chern(a1) - odd_chern(a0) + exterior_d(eta))


def odd_point_value():
    """eta_odd(sigma, infinity) at a point and its closed form sqrt(pi)/2 erfc(1)."""
    apt = Superconnection.from_terms(TorusChart(0), Grading.trivial(1), np.array([[1.0 + 0j]]))
    val = complex(odd_eta_infinity(apt, tol=1e-12).form.data[0, 0, 0])
    return val, math.sqrt(math.pi) / 2.0 * math.erfc(1.0)


def relative_d_squared(rf, u) -> float:
    """sup over U of d(d(omega, sigma)) in the relative complex."""
    return relative_sup_norm(relative_d(relative_d(rf)), u)


def pair_closedness(a) -> float:
    """sup of d of the relative Chern pair of A on the whole torus."""
    pair = relative_chern_pair(a, OpenSet.whole(a.chart))
    return relative_sup_norm(relative_d(pair), OpenSet.whole(a.chart))


def index_periods(a, q, u, zeros):
    """Index character of a winding testbed against its winding oracle.

    Returns sup |chi| on the core of U, the total period over 2 pi i, and
    per zero the box period over 2 pi i and the winding of q.
    """
    chi = index_character(a, u, c=0.75 * core_min_gap(a, u), xi_shape=("gauss", 10.5))
    core_sup = float(np.abs(chi.omega.data[:, u.core]).max())
    total = integrate(chi.omega, (0, 1)) / (2j * np.pi)
    periods = [box_integral(chi.omega, (0, 1), (z, 0.23)) / (2j * np.pi) for z in zeros]
    windings = [winding_number_box(q, a.chart, (z, 0.23)) for z in zeros]
    return core_sup, total, periods, windings


def defect_residual(b0, b1) -> float:
    """Harmonic part of the eta defect of an invertible homotopy."""
    defect, _ = cor2_defect(b0, b1)
    return harm_gap(defect)


def winding_periods(chart, windings):
    """Per winding k: the eta-defect period against k = 0, and the spectral
    flow of the mode-shift family with k units of flow."""
    ref = S.winding_superconnection(chart, 0, radius=1.0)
    modes = np.arange(-6, 7)
    periods, flows = {}, {}
    for k in windings:
        _, rep = cor2_defect(S.winding_superconnection(chart, k, 1.0), ref)
        periods[k] = rep["periods"][0]
        flows[k], _ = spectral_flow(
            lambda t, kk=k: np.diag((modes + 0.5 - kk * t).astype(float)), samples=32
        )
    return periods, flows


def cyclicity_spread(f1, p, f2) -> float:
    """Spread of the three cyclic heat-trace orderings."""
    return trace_cyclicity_check(f1, p, f2, t=0.8, eps=0.4)["spread"]


def duhamel_report(d0, v) -> dict:
    """Heat-derivative (Duhamel) formula along D0 + t V at t = 0.3."""
    return duhamel_derivative(lambda t: d0 + t * v, u=0.3, eps=0.5)


def twisted_closedness(chtw, h) -> float:
    """sup |d_H Ch_kappa(A)| for the twisted character and H = d kappa."""
    return sup_norm(d_H(chtw, h))


def curving_naturality(a, kappa, tau, chtw) -> float:
    """sup |I_tau Ch_kappa(A) - Ch_{kappa + tau}(A)|."""
    return sup_norm(I_tau(chtw, tau) - twisted_chern(a, kappa + tau))


# -- suite bodies -------------------------------------------------------------


def _suite_chern(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    checks = _Checks()
    for i in range(4):
        dim = 1 + i % 2
        grading = Grading.balanced(1 + i % 2, 1 + (i + 1) % 2)
        a, x = S.closedness_scene(cfg.seed + i, dim, n, grading)
        a2, x2 = S.closedness_scene(cfg.seed + i, dim, 2 * n, grading)
        checks.mark()
        checks.add(f"chern-closed-abs-{i}", "chern-closedness", chern_closedness(a), 1e-8 * ts)
        r1 = commutator_closedness(a, x)
        r2 = commutator_closedness(a2, x2)
        checks.add(
            f"chern-closed-ramp-{i}",
            "chern-closedness-ramp",
            r2 / max(r1, 1e-300),
            0.1 * ts,
            lhs=r1,
            rhs=r2,
        )

    chart = TorusChart(2, n)
    rng = np.random.default_rng(cfg.seed + 100)
    grading = Grading.balanced(1, 1)
    a = S.random_superconnection(rng, chart, grading, amp0=0.3, amp1=0.2, max_mode=1)
    b = S.random_superconnection(rng, chart, grading, amp0=0.3, amp1=0.2, max_mode=1)
    g = S.random_gauge(rng, chart, grading, amp=0.5, max_mode=1)
    checks.mark()
    checks.add(
        "chern-sum-additive",
        "chern-direct-sum",
        sup_norm(chern_character(direct_sum(a, b)) - chern_character(a) - chern_character(b)),
        1e-10 * ts,
    )
    checks.add(
        "chern-gauge-invariant",
        "chern-gauge-invariance",
        sup_norm(chern_character(gauge(a, g)) - chern_character(a)),
        1e-10 * ts,
    )
    checks.add(
        "chern-product", "chern-product-multiplicative", chern_product_residual(a, b), 1e-8 * ts
    )
    return checks


def _suite_eta(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    chart = TorusChart(2, n)
    rng = np.random.default_rng(cfg.seed)
    a0, a1, a2 = S.eta_endpoints(rng, chart, 3)
    gapped = S.gapped_superconnection(
        rng, chart, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
    )
    # vanishing pair on the doubled-bundle scene
    tilde, massive = S.stabilization_scene(
        np.random.default_rng(cfg.seed + 7), TorusChart(1, n), 1, amp=0.5
    )
    checks = _Checks()
    eta01 = eta_between(a0, a1).form
    checks.add(
        "eta-transgression", "eta-transgression", transgression_residual(a0, a1, eta01), 1e-8 * ts
    )
    est2, est4 = quadrature_estimates(a0, a1)
    checks.add(
        "eta-quadrature-ramp",
        "eta-quadrature-convergence",
        est4 / max(est2, 1e-300),
        1e-2 * ts,
        lhs=est2,
        rhs=est4,
    )
    checks.add(
        "eta-additivity", "eta-additivity", additivity_residual(a0, a1, a2, eta01), 1e-8 * ts
    )
    checks.add(
        "eta-homotopy",
        "eta-homotopy-invariance",
        homotopy_residual(a0, a1, a2, eta01),
        1e-8 * ts,
    )
    residual, est = collapse_residual(gapped)
    checks.add(
        "eta-invertible-collapse", "eta-infinity-transgression", residual, 1e-8 * ts + est
    )
    checks.add(
        "eta-stab-vanishing-between",
        "stabilization-eta-vanishes",
        stabilization_eta(tilde, massive),
        1e-10 * ts,
    )
    checks.add(
        "eta-stab-vanishing-infinity",
        "stabilization-eta-vanishes",
        stabilization_eta_infinity(massive),
        1e-10 * ts,
    )
    return checks


def _suite_dk(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    cfgq = QuadratureConfig(panels=6, order=12)
    chart = TorusChart(1, n)
    rng = np.random.default_rng(cfg.seed)
    c1 = S.random_cocycle(rng, chart, 0.5, 0.4, 0.5)
    c2 = S.random_cocycle(rng, chart, 0.5, 0.4, 0.5)
    chart2 = TorusChart(2, n)
    rng2 = np.random.default_rng(cfg.seed + 1)
    cg = S.gapped_cocycle(rng2, chart2, 0.06, 0.2, 0.15, 0.3)
    grading = cg.A.grading
    shift_target = Superconnection(
        cg.A.coeff
        + S.random_higher(rng2, chart2, grading, 2, 0.1, 1)
        + 0.1 * S.random_superconnection(rng2, chart2, grading, 0.5, 0.5, 1).coeff
    )
    st = S.random_stabilizer(rng2, chart2, 0.3)
    # kernel reduction on the cheap T^1 chart
    cg1 = S.gapped_cocycle(rng, chart, 0.1, 0.3, 0.3, 0.4)
    st1 = S.random_stabilizer(rng, chart, 0.5)
    st1b = S.random_stabilizer(np.random.default_rng(cfg.seed + 5), chart, 0.45)
    rngp = np.random.default_rng(cfg.seed + 9)
    cp1 = S.random_cocycle(rngp, chart2, 0.25, 0.18, 0.3)
    cp2 = S.random_cocycle(rngp, chart2, 0.25, 0.18, 0.3)
    checks = _Checks()
    checks.add("dk-add", "relation-direct-sum", sum_class_gap(c1, c2), 1e-10 * ts)
    checks.add(
        "dk-collapse",
        "relation-invertible-collapse",
        class_gap(collapse_invertible(cg, cfg=cfgq), cg),
        1e-8 * ts,
    )
    checks.add(
        "dk-shift",
        "relation-superconnection-shift",
        class_gap(shift_superconnection(cg, shift_target, cfgq), cg),
        1e-8 * ts,
    )
    checks.add(
        "dk-stabilize", "relation-stabilization", class_gap(stabilize(cg, st, cfgq), cg), 1e-8 * ts
    )
    red1 = normalize_q(cg1, st1, cfg=cfgq)
    checks.add("dk-normalize", "relation-normal-form", class_gap(red1, cg1), 1e-8 * ts)
    checks.add(
        "dk-normalize-choice",
        "normal-form-choice-independence",
        class_gap(normalize_q(cg1, st1b, cfg=cfgq), red1),
        1e-8 * ts,
    )
    checks.add(
        "dk-product-unit",
        "relation-product-unit",
        class_gap(product_cocycle(cg, DKCocycle.unit(chart2)), cg),
        1e-10 * ts,
    )
    lhs = curvature_class(product_cocycle(cp1, cp2))
    rhs = curvature_class(cp1).wedge(curvature_class(cp2))
    checks.add("dk-product-class", "relation-product-class", sup_norm(lhs - rhs), 1e-8 * ts)
    return checks


def _suite_odd(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    chart = TorusChart(1, n)
    rng = np.random.default_rng(cfg.seed)
    a0 = S.random_odd_superconnection(rng, chart, 2, 0.4, 0.3, 1)
    a1 = S.random_odd_superconnection(rng, chart, 2, 0.4, 0.3, 1)
    gapped = S.gapped_odd_superconnection(rng, chart, 2.2)
    twists = {k: S.dirac_twist_superconnection(chart, k, 4, 2.0) for k in (1, 2, 3)}
    checks = _Checks()
    eta = odd_eta_between(a0, a1).form
    checks.add(
        "odd-transgression",
        "odd-eta-transgression",
        odd_transgression_residual(a0, a1, eta),
        1e-8 * ts,
    )
    val, target = odd_point_value()
    checks.add(
        "odd-eta-point",
        "odd-eta-erfc-value",
        abs(val - target),
        1e-8 * ts,
        lhs=val.real,
        rhs=target,
    )
    base = integrate(odd_chern(twists[1]), (0,))
    ratio_gaps = [abs(integrate(odd_chern(twists[k]), (0,)) / base - k) for k in (2, 3)]
    checks.add(
        "odd-winding-linearity",
        "odd-chern-winding",
        max(ratio_gaps),
        1e-6 * ts,
        lhs=abs(base),
    )
    etai = odd_eta_infinity(gapped, tol=1e-10)
    checks.add(
        "odd-collapse",
        "odd-eta-infinity-transgression",
        sup_norm(odd_chern(gapped) - exterior_d(etai.form)),
        1e-8 * ts + etai.est_error,
    )
    return checks


def _suite_relative(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    chart = TorusChart(2, n)
    rng = np.random.default_rng(cfg.seed)
    u, rf = S.relative_complex_scene(rng, chart)
    gapped = S.gapped_superconnection(
        rng, chart, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12
    )
    # index character quantization on the doubled-winding testbed
    aw, q, uw, zeros = S.winding_testbed(max(n * 4, 256) if n <= 64 else n)
    # eta-difference defect: invertible homotopy vanishes; windings quantize
    chart1 = TorusChart(1, max(n, 64))
    b0, b1 = S.invertible_pair(np.random.default_rng(cfg.seed + 3), chart1)
    checks = _Checks()
    checks.add("relative-d-squared", "relative-complex", relative_d_squared(rf, u), 1e-10 * ts)
    checks.add("relative-pair-closed", "relative-chern-pair", pair_closedness(gapped), 1e-8 * ts)
    core_sup, total, periods, windings = index_periods(aw, q, uw, zeros)
    checks.add("relative-index-support", "index-character-support", core_sup, 1e-8 * ts)
    w_total = windings[0] + windings[1]
    checks.add(
        "relative-index-total",
        "index-character-degree",
        abs(total - (-w_total)),
        1e-6 * ts,
        lhs=total.real,
        rhs=-w_total,
    )
    checks.add(
        "relative-index-local",
        "index-character-degree",
        abs(periods[0] - (-windings[0])),
        1e-6 * ts,
        lhs=periods[0].real,
        rhs=-windings[0],
    )
    checks.add(
        "relative-defect-invertible", "eta-defect-vanishing", defect_residual(b0, b1), 1e-8 * ts
    )
    per, flows = winding_periods(chart1, (1, 2))
    checks.add(
        "relative-defect-winding",
        "eta-defect-quantization",
        abs(per[2] / per[1] - 2.0),
        1e-6 * ts,
        lhs=abs(per[1]),
        rhs=float(flows[2] / flows[1]),
    )
    checks.add(
        "relative-defect-flow",
        "eta-defect-spectral-flow",
        abs(per[1] / (2j * np.pi) - flows[1]),
        1e-6 * ts,
        lhs=(per[1] / (2j * np.pi)).real,
        rhs=flows[1],
    )
    return checks


def _suite_spectral(cfg: SuiteConfig):
    ts = cfg.tol_scale
    rng = np.random.default_rng(cfg.seed)
    count = 25
    compositions = [S.composition_scene(rng) for _ in range(count)]
    summabilities = [S.summability_scene(rng, DiracModel(8)) for _ in range(count)]
    cyclic = S.cyclicity_scene(rng, DiracModel(16))
    d0, v = S.duhamel_scene(rng)
    checks = _Checks()

    reps = [composition_check(*scene) for scene in compositions]
    holds = all(rep["holds"] for rep in reps)
    checks.add(
        "spectral-composition",
        "operator-norm-composition",
        0.0 if holds else 1.0,
        0.5,
        lhs=min([np.inf] + [rep["slack"] for rep in reps]),
        ok=holds,
    )
    reps = [summability_bound_check(p, q, theta=0.7, eps=0.5) for p, q in summabilities]
    holds = all(rep["holds"] for rep in reps)
    checks.add(
        "spectral-summability",
        "heat-summability-bound",
        0.0 if holds else 1.0,
        0.5,
        lhs=max([0.0] + [rep["lhs"] / rep["rhs"] for rep in reps]),
        ok=holds,
    )
    checks.add(
        "spectral-cyclicity", "heat-trace-cyclicity", cyclicity_spread(*cyclic), 1e-10 * ts
    )
    theta_val = heat_trace(TruncatedOperator(DiracModel(64).matrix(), DiracModel(64)), 1.0)
    oracle = sum(math.exp(-k * k) for k in range(-64, 65))
    checks.add(
        "spectral-heat-theta",
        "heat-trace-value",
        abs(theta_val - oracle),
        1e-10 * ts,
        lhs=theta_val,
        rhs=oracle,
    )
    rep = duhamel_report(d0, v)
    checks.add(
        "spectral-duhamel",
        "heat-derivative-formula",
        abs(rep["richardson_ratio"] - 4.0),
        0.4 * ts,
        lhs=rep["fd_residual"],
        rhs=rep["richardson_ratio"],
    )
    return checks


def _suite_twisted(cfg: SuiteConfig):
    ts = cfg.tol_scale
    # gerbe coherence on a 4-set circle cover with a common quadruple core
    good, bad = S.gerbe_scene()
    # curving field strength on T^3 with an exact global answer
    chart3 = TorusChart(3, 16)
    z = chart3.coordinate(2)
    kappa_field = np.broadcast_to(np.sin(2 * np.pi * z), chart3.shape)
    kappa = GradedMatrixForm.from_scalar_field(chart3, kappa_field, (0, 1))
    cover3 = CechCover(chart3, [OpenSet.whole(chart3)])
    expect = GradedMatrixForm.from_scalar_field(
        chart3, 2 * np.pi * np.broadcast_to(np.cos(2 * np.pi * z), chart3.shape), (0, 1, 2)
    )
    # d_H closedness of the twisted character on a finer T^3
    chart3b = TorusChart(3, 32)
    rng = np.random.default_rng(cfg.seed)
    a, kap, tau = S.twisted_scene(rng, chart3b)
    xi = S.random_scalar_form(rng, chart3b, {0, 1, 2}, amp=0.8, max_mode=1)
    checks = _Checks()

    rep = verify_gerbe(good)
    checks.add(
        "twisted-gerbe-pass",
        "gerbe-coherence",
        rep["max_violation"],
        1e-10 * ts,
        ok=rep["passes"] and rep["max_violation"] <= 1e-10 * ts,
    )
    rep_bad = verify_gerbe(bad)
    detected = (not rep_bad["passes"]) and abs(rep_bad["max_violation"] - 1e-3) < 3e-4
    checks.add(
        "twisted-gerbe-perturbation",
        "gerbe-coherence-detection",
        abs(rep_bad["max_violation"] - 1e-3),
        3e-4,
        lhs=rep_bad["max_violation"],
        ok=detected,
    )
    h, hrep = curving_field_strength(Curving(cover3, [kappa]), ConnectiveStructure(cover3, {}))
    checks.add("twisted-field-strength", "curving-field-strength", sup_norm(h - expect), 1e-10 * ts)
    checks.add("twisted-dH-zero", "field-strength-closed", hrep["dH"], 1e-10 * ts)
    hb = exterior_d(kap)
    chtw = twisted_chern(a, kap)
    checks.add(
        "twisted-chern-closed",
        "twisted-chern-closedness",
        twisted_closedness(chtw, hb),
        1e-8 * ts,
        lhs=hb.sup_norm(),
    )
    checks.add(
        "twisted-curving-shift",
        "twisted-curving-naturality",
        curving_naturality(a, kap, tau, chtw),
        1e-10 * ts,
    )
    lhs = I_tau(d_H(xi, hb), tau)
    rhs = d_H(I_tau(xi, tau), hb + exterior_d(tau))
    checks.add("twisted-Itau-natural", "twisted-intertwining", sup_norm(lhs - rhs), 1e-10 * ts)
    return checks


SUITES = {
    "chern-identities": _suite_chern,
    "eta-identities": _suite_eta,
    "dk-relations": _suite_dk,
    "odd": _suite_odd,
    "relative": _suite_relative,
    "spectral-lemmas": _suite_spectral,
    "twisted": _suite_twisted,
}


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute a named suite; deterministic for a fixed config and seed."""
    if cfg.suite not in SUITES:
        raise KeyError(
            f"unknown suite {cfg.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    t0 = time.time()
    checks = SUITES[cfg.suite](cfg)
    report = Report(
        suite=cfg.suite,
        config={
            "seed": cfg.seed,
            "grid": cfg.grid,
            "tol_scale": cfg.tol_scale,
        },
        records=list(checks),
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seconds_total": round(time.time() - t0, 3),
        },
    )
    return report


def run_many(configs) -> list:
    """Run several suites, one thread per suite up to the number of usable CPUs."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    threads = min(len(configs), cpus)
    if threads <= 1:
        return [run_suite(c) for c in configs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(run_suite, configs))
