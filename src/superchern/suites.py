"""Named verification suites producing machine-readable reports.

Each suite builds deterministic seeded scenes, evaluates a set of identity
checks at pinned tolerances, and returns a Report whose payload is stable
across runs (timings are excluded from the content hash).  Checks run in
parallel up to the SUPERCHERN_THREADS cap; records are sorted by name.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import scenes as S
from .dk import (
    DKCocycle,
    Stabilizer,
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
    RelativeForm,
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
    GerbeData,
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
    scene_paths: tuple = ()

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
            out["seconds"] = round(self.seconds, 4)
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

    def payload(self, with_timings=True) -> dict:
        body = {
            "schema": 1,
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "records": [
                r.payload(with_timing=with_timings)
                for r in sorted(self.records, key=lambda r: r.name)
            ],
        }
        body["content_hash"] = self.content_hash()
        if with_timings:
            body["environment"] = self.environment
        return body

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

    def to_json(self, with_timings=True) -> str:
        return json.dumps(self.payload(with_timings), sort_keys=True, indent=1)

    def to_csv_rows(self):
        yield ("name", "anchor", "residual", "tolerance", "passed")
        for r in sorted(self.records, key=lambda r: r.name):
            yield (r.name, r.anchor, f"{r.residual:.6e}", f"{r.tolerance:.1e}", r.passed)


def _mk(name, anchor, residual, tol, lhs=None, rhs=None, ok=None) -> CheckRecord:
    passed = (residual <= tol) if ok is None else ok
    return CheckRecord(
        name=name,
        anchor=anchor,
        residual=float(residual),
        tolerance=float(tol),
        passed=bool(passed),
        lhs=lhs,
        rhs=rhs,
    )


def _harm_gap(a: GradedMatrixForm, b: GradedMatrixForm | None = None) -> float:
    diff = a if b is None else a - b
    coeffs = harmonic_coefficients(diff)
    return float(np.abs(coeffs).max()) if coeffs.size else 0.0


# -- suite bodies -------------------------------------------------------------


def _suite_chern(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    checks = []

    def one(i):
        dim = 1 + (i % 2)
        chart = TorusChart(dim, n)
        rng = np.random.default_rng(cfg.seed + i)
        grading = Grading.balanced(1 + i % 2, 1 + (i + 1) % 2)
        amp = 0.4 if dim == 1 else 0.28
        a = S.random_superconnection(rng, chart, grading, amp0=amp, amp1=0.8 * amp, max_mode=1)
        rec = [
            _mk(
                f"chern-closed-abs-{i}",
                "chern-closedness",
                sup_norm(exterior_d(chern_character(a))),
                1e-8 * ts,
            )
        ]
        x = GradedMatrixForm(
            chart,
            grading,
            np.stack(
                [
                    S.band_limited_field(rng, chart, (grading.rank,) * 2, 1, 1.2 * amp)
                    for _ in range(chart.n_components)
                ]
            ),
        )
        r1 = sup_norm(closedness_defect(a, x))
        chart2 = TorusChart(dim, 2 * n)
        rng2 = np.random.default_rng(cfg.seed + i)
        a2 = S.random_superconnection(rng2, chart2, grading, amp0=amp, amp1=0.8 * amp, max_mode=1)
        x2 = GradedMatrixForm(
            chart2,
            grading,
            np.stack(
                [
                    S.band_limited_field(rng2, chart2, (grading.rank,) * 2, 1, 1.2 * amp)
                    for _ in range(chart2.n_components)
                ]
            ),
        )
        r2 = sup_norm(closedness_defect(a2, x2))
        rec.append(
            _mk(
                f"chern-closed-ramp-{i}",
                "chern-closedness-ramp",
                r2 / max(r1, 1e-300),
                0.1,
                lhs=r1,
                rhs=r2,
            )
        )
        return rec

    for i in range(4):
        checks.extend(one(i))

    chart = TorusChart(2, n)
    rng = np.random.default_rng(cfg.seed + 100)
    grading = Grading.balanced(1, 1)
    a = S.random_superconnection(rng, chart, grading, amp0=0.3, amp1=0.2, max_mode=1)
    b = S.random_superconnection(rng, chart, grading, amp0=0.3, amp1=0.2, max_mode=1)
    checks.append(
        _mk(
            "chern-sum-additive",
            "chern-direct-sum",
            sup_norm(
                chern_character(direct_sum(a, b))
                - chern_character(a)
                - chern_character(b)
            ),
            1e-10 * ts,
        )
    )
    g = S.random_gauge(rng, chart, grading, amp=0.5, max_mode=1)
    checks.append(
        _mk(
            "chern-gauge-invariant",
            "chern-gauge-invariance",
            sup_norm(chern_character(gauge(a, g)) - chern_character(a)),
            1e-10 * ts,
        )
    )
    checks.append(
        _mk(
            "chern-product",
            "chern-product-multiplicative",
            sup_norm(
                chern_character(product(a, b))
                - chern_character(a).wedge(chern_character(b))
            ),
            1e-8 * ts,
        )
    )
    return checks


def _suite_eta(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    chart = TorusChart(2, n)
    rng = np.random.default_rng(cfg.seed)
    grading = Grading.balanced(1, 1)
    mk_sc = lambda: S.random_superconnection(
        rng, chart, grading, amp0=0.22, amp1=0.16, max_mode=1
    )
    a0, a1, a2 = mk_sc(), mk_sc(), mk_sc()
    checks = []

    eta01 = eta_between(a0, a1)
    checks.append(
        _mk(
            "eta-transgression",
            "eta-transgression",
            sup_norm(chern_character(a1) - chern_character(a0) + exterior_d(eta01.form)),
            1e-8 * ts,
        )
    )
    est2 = eta_between(a0, a1, QuadratureConfig(panels=4, order=2)).est_error
    est4 = eta_between(a0, a1, QuadratureConfig(panels=4, order=4)).est_error
    checks.append(
        _mk(
            "eta-quadrature-ramp",
            "eta-quadrature-convergence",
            est4 / max(est2, 1e-300),
            1e-2,
            lhs=est2,
            rhs=est4,
        )
    )
    eta12 = eta_between(a1, a2)
    eta02 = eta_between(a0, a2)
    checks.append(
        _mk(
            "eta-additivity",
            "eta-additivity",
            _harm_gap(eta01.form + eta12.form, eta02.form),
            1e-8 * ts,
        )
    )
    # homotopy invariance: linear path vs a quadratic detour through a2
    detour = a2.coeff - 0.5 * (a0.coeff + a1.coeff)

    def path(t):
        coeff = (1 - t) * a0.coeff + t * a1.coeff + (4 * t * (1 - t)) * detour
        return Superconnection(coeff)

    def dpath(t):
        return (a1.coeff - a0.coeff) + (4 - 8 * t) * detour

    eta_curve = eta_along_path(path, dpath)
    checks.append(
        _mk(
            "eta-homotopy",
            "eta-homotopy-invariance",
            _harm_gap(eta_curve.form, eta01.form),
            1e-8 * ts,
        )
    )
    gapped = S.gapped_superconnection(
        rng, chart, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
    )
    etai = eta_infinity(gapped, tol=1e-10)
    checks.append(
        _mk(
            "eta-invertible-collapse",
            "eta-infinity-transgression",
            sup_norm(chern_character(gapped) - exterior_d(etai.form)),
            1e-8 * ts + etai.est_error,
        )
    )
    # vanishing pair on the doubled-bundle scene
    echart = TorusChart(1, n)
    erng = np.random.default_rng(cfg.seed + 7)
    conn = S.random_conn1(erng, echart, Grading.trivial(1), amp=0.5, max_mode=2)
    doubled = [w[..., 0, 0][..., None, None] * np.eye(2) for w in conn]
    tilde = Superconnection.from_terms(
        echart, Grading.balanced(1, 1), None, doubled
    )
    bconn = Superconnection.from_terms(
        echart,
        Grading.balanced(1, 1),
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        doubled,
    )
    checks.append(
        _mk(
            "eta-stab-vanishing-between",
            "stabilization-eta-vanishes",
            sup_norm(eta_between(tilde, bconn).form),
            1e-10 * ts,
        )
    )
    checks.append(
        _mk(
            "eta-stab-vanishing-infinity",
            "stabilization-eta-vanishes",
            sup_norm(eta_infinity(bconn, tol=1e-12).form),
            1e-10 * ts,
        )
    )
    return checks


def _suite_dk(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    cfgq = QuadratureConfig(panels=6, order=12)
    chart = TorusChart(1, n)
    rng = np.random.default_rng(cfg.seed)
    grading = Grading.balanced(1, 1)
    checks = []

    c1 = DKCocycle(
        S.random_superconnection(rng, chart, grading, 0.5, 0.4, 1),
        S.random_omega(rng, chart, 0.5, 1),
    )
    c2 = DKCocycle(
        S.random_superconnection(rng, chart, grading, 0.5, 0.4, 1),
        S.random_omega(rng, chart, 0.5, 1),
    )
    checks.append(
        _mk(
            "dk-add",
            "relation-direct-sum",
            sup_norm(
                curvature_class(cocycle_add(c1, c2))
                - curvature_class(c1)
                - curvature_class(c2)
            ),
            1e-10 * ts,
        )
    )
    chart2 = TorusChart(2, n)
    rng2 = np.random.default_rng(cfg.seed + 1)
    cg = DKCocycle(
        S.gapped_superconnection(
            rng2, chart2, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
        ),
        S.random_omega(rng2, chart2, 0.3, 1),
    )
    cl0 = curvature_class(cg)
    checks.append(
        _mk(
            "dk-collapse",
            "relation-invertible-collapse",
            sup_norm(curvature_class(collapse_invertible(cg, cfg=cfgq)) - cl0),
            1e-8 * ts,
        )
    )
    shift_target = Superconnection(
        cg.A.coeff
        + S.random_higher(rng2, chart2, cg.A.grading, 2, 0.1, 1)
        + 0.1 * S.random_superconnection(rng2, chart2, cg.A.grading, 0.5, 0.5, 1).coeff
    )
    checks.append(
        _mk(
            "dk-shift",
            "relation-superconnection-shift",
            sup_norm(curvature_class(shift_superconnection(cg, shift_target, cfgq)) - cl0),
            1e-8 * ts,
        )
    )
    st = Stabilizer(1, *S.stabilizer_pair_scene(rng2, chart2, 1, 1, 1, amp=0.3, max_mode=1))
    cst = stabilize(cg, st, cfgq)
    checks.append(
        _mk(
            "dk-stabilize",
            "relation-stabilization",
            sup_norm(curvature_class(cst) - cl0),
            1e-8 * ts,
        )
    )
    # kernel reduction on the cheap T^1 chart
    cg1 = DKCocycle(
        S.gapped_superconnection(rng, chart, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3),
        S.random_omega(rng, chart, 0.4, 1),
    )
    st1 = Stabilizer(1, *S.stabilizer_pair_scene(rng, chart, 1, 1, 1, amp=0.5, max_mode=1))
    red1 = normalize_q(cg1, st1, cfg=cfgq)
    checks.append(
        _mk(
            "dk-normalize",
            "relation-normal-form",
            sup_norm(curvature_class(red1) - curvature_class(cg1)),
            1e-8 * ts,
        )
    )
    st1b = Stabilizer(
        1, *S.stabilizer_pair_scene(np.random.default_rng(cfg.seed + 5), chart, 1, 1, 1, 0.45, 1)
    )
    red1b = normalize_q(cg1, st1b, cfg=cfgq)
    checks.append(
        _mk(
            "dk-normalize-choice",
            "normal-form-choice-independence",
            sup_norm(curvature_class(red1b) - curvature_class(red1)),
            1e-8 * ts,
        )
    )
    unit = DKCocycle.unit(chart2)
    checks.append(
        _mk(
            "dk-product-unit",
            "relation-product-unit",
            sup_norm(curvature_class(product_cocycle(cg, unit)) - cl0),
            1e-10 * ts,
        )
    )
    rngp = np.random.default_rng(cfg.seed + 9)
    cp1 = DKCocycle(
        S.random_superconnection(rngp, chart2, grading, 0.25, 0.18, 1),
        S.random_omega(rngp, chart2, 0.3, 1),
    )
    cp2 = DKCocycle(
        S.random_superconnection(rngp, chart2, grading, 0.25, 0.18, 1),
        S.random_omega(rngp, chart2, 0.3, 1),
    )
    lhs = curvature_class(product_cocycle(cp1, cp2))
    rhs = curvature_class(cp1).wedge(curvature_class(cp2))
    checks.append(
        _mk("dk-product-class", "relation-product-class", sup_norm(lhs - rhs), 1e-8 * ts)
    )
    return checks


def _suite_odd(cfg: SuiteConfig):
    import math

    from scipy.special import erfc

    n = cfg.grid or 32
    ts = cfg.tol_scale
    chart = TorusChart(1, n)
    rng = np.random.default_rng(cfg.seed)
    checks = []

    a0 = S.random_odd_superconnection(rng, chart, 2, 0.4, 0.3, 1)
    a1 = S.random_odd_superconnection(rng, chart, 2, 0.4, 0.3, 1)
    eta = odd_eta_between(a0, a1)
    checks.append(
        _mk(
            "odd-transgression",
            "odd-eta-transgression",
            sup_norm(odd_chern(a1) - odd_chern(a0) + exterior_d(eta.form)),
            1e-8 * ts,
        )
    )
    point = TorusChart(0)
    apt = Superconnection.from_terms(
        point, Grading.trivial(1), np.array([[1.0 + 0j]])
    )
    val = complex(odd_eta_infinity(apt, tol=1e-12).form.data[0, 0, 0])
    target = math.sqrt(math.pi) / 2.0 * erfc(1.0)
    checks.append(
        _mk(
            "odd-eta-point",
            "odd-eta-erfc-value",
            abs(val - target),
            1e-8 * ts,
            lhs=val.real,
            rhs=target,
        )
    )
    base = integrate(odd_chern(S.dirac_twist_superconnection(chart, 1, 4, 2.0)), (0,))
    rec = []
    for k in (2, 3):
        per = integrate(odd_chern(S.dirac_twist_superconnection(chart, k, 4, 2.0)), (0,))
        rec.append(abs(per / base - k))
    checks.append(
        _mk(
            "odd-winding-linearity",
            "odd-chern-winding",
            max(rec),
            1e-6 * ts,
            lhs=abs(base),
        )
    )
    gapped = S.random_odd_superconnection(rng, chart, 2, 0.3, 0.25, 1)
    shiftv = np.eye(2) * 2.2
    gapped = Superconnection.from_terms(
        chart,
        Grading.trivial(2),
        gapped.term0_field() + shiftv,
        [gapped.coeff.component((0,))],
    )
    etai = odd_eta_infinity(gapped, tol=1e-10)
    checks.append(
        _mk(
            "odd-collapse",
            "odd-eta-infinity-transgression",
            sup_norm(odd_chern(gapped) - exterior_d(etai.form)),
            1e-8 * ts + etai.est_error,
        )
    )
    return checks


def _suite_relative(cfg: SuiteConfig):
    n = cfg.grid or 32
    ts = cfg.tol_scale
    checks = []
    chart = TorusChart(2, n)
    rng = np.random.default_rng(cfg.seed)
    u = OpenSet.complement_of_boxes(chart, [((0.5, 0.5), 0.12, 0.22)])
    rf = RelativeForm(
        S.random_scalar_form(rng, chart, {0, 1, 2}, 0.8),
        S.random_scalar_form(rng, chart, {0, 1}, 0.8),
    )
    dd = relative_d(relative_d(rf))
    checks.append(
        _mk("relative-d-squared", "relative-complex", relative_sup_norm(dd, u), 1e-10 * ts)
    )
    gapped = S.gapped_superconnection(
        rng, chart, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12
    )
    pair = relative_chern_pair(gapped, OpenSet.whole(chart))
    checks.append(
        _mk(
            "relative-pair-closed",
            "relative-chern-pair",
            relative_sup_norm(relative_d(pair), OpenSet.whole(chart)),
            1e-8 * ts,
        )
    )
    # index character quantization on the doubled-winding testbed
    nidx = max(n * 4, 256) if n <= 64 else n
    chi_chart = TorusChart(2, nidx)
    x = chi_chart.coordinate(0)
    y = chi_chart.coordinate(1)
    q = np.exp(2j * np.pi * x) + np.exp(2j * np.pi * y) - 1.0
    t0 = np.zeros(chi_chart.shape + (2, 2), dtype=complex)
    t0[..., 1, 0] = q
    t0[..., 0, 1] = np.conj(q)
    aw = Superconnection.from_terms(chi_chart, Grading.balanced(1, 1), t0)
    z1, z2 = (1 / 6, 5 / 6), (5 / 6, 1 / 6)
    uw = OpenSet.complement_of_boxes(chi_chart, [(z1, 0.10, 0.26), (z2, 0.10, 0.26)])
    gap = core_min_gap(aw, uw)
    chi = index_character(aw, uw, c=0.75 * gap, xi_shape=("gauss", 10.5))
    core_sup = float(np.abs(chi.omega.data[:, uw.core]).max())
    checks.append(
        _mk("relative-index-support", "index-character-support", core_sup, 1e-8 * ts)
    )
    total = integrate(chi.omega, (0, 1)) / (2j * np.pi)
    w_total = winding_number_box(q, chi_chart, (z1, 0.23)) + winding_number_box(
        q, chi_chart, (z2, 0.23)
    )
    checks.append(
        _mk(
            "relative-index-total",
            "index-character-degree",
            abs(total - (-w_total)),
            1e-6 * ts,
            lhs=total.real,
            rhs=-w_total,
        )
    )
    per1 = box_integral(chi.omega, (0, 1), (z1, 0.23)) / (2j * np.pi)
    w1 = winding_number_box(q, chi_chart, (z1, 0.23))
    checks.append(
        _mk(
            "relative-index-local",
            "index-character-degree",
            abs(per1 - (-w1)),
            1e-6 * ts,
            lhs=per1.real,
            rhs=-w1,
        )
    )
    # eta-difference defect: invertible homotopy vanishes; windings quantize
    chart1 = TorusChart(1, max(n, 64))
    rngc = np.random.default_rng(cfg.seed + 3)
    b0 = S.gapped_superconnection(rngc, chart1, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
    b1 = S.gapped_superconnection(rngc, chart1, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
    defect, _ = cor2_defect(b0, b1)
    checks.append(
        _mk(
            "relative-defect-invertible",
            "eta-defect-vanishing",
            _harm_gap(defect),
            1e-8 * ts,
        )
    )
    a_ref = S.winding_superconnection(chart1, 0, radius=1.0)
    per = {}
    flows = {}
    for k in (1, 2):
        dk_form, repk = cor2_defect(S.winding_superconnection(chart1, k, 1.0), a_ref)
        per[k] = repk["periods"][0]
        modes = np.arange(-6, 7)
        flows[k], _ = spectral_flow(
            lambda t, kk=k: np.diag((modes + 0.5 - kk * t).astype(float)), samples=32
        )
    ratio_err = abs(per[2] / per[1] - 2.0)
    checks.append(
        _mk(
            "relative-defect-winding",
            "eta-defect-quantization",
            ratio_err,
            1e-6 * ts,
            lhs=abs(per[1]),
            rhs=float(flows[2] / flows[1]),
        )
    )
    checks.append(
        _mk(
            "relative-defect-flow",
            "eta-defect-spectral-flow",
            abs(per[1] / (2j * np.pi) - flows[1]),
            1e-6 * ts,
            lhs=(per[1] / (2j * np.pi)).real,
            rhs=flows[1],
        )
    )
    return checks


def _suite_spectral(cfg: SuiteConfig):
    ts = cfg.tol_scale
    rng = np.random.default_rng(cfg.seed)
    checks = []
    count = 25

    worst_slack = np.inf
    holds = True
    for i in range(count):
        ref = DiracModel(8, twist=float(rng.uniform(0, 2 * np.pi)))
        m = ref.size
        f1 = TruncatedOperator(
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), ref
        )
        f2 = TruncatedOperator(
            rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), ref
        )
        k1, k2, s = int(rng.integers(-2, 3)), int(rng.integers(-2, 3)), int(rng.integers(-2, 3))
        rep = composition_check(f1, k1, f2, k2, s)
        holds &= rep["holds"]
        worst_slack = min(worst_slack, rep["slack"])
    checks.append(
        _mk(
            "spectral-composition",
            "operator-norm-composition",
            0.0 if holds else 1.0,
            0.5,
            lhs=worst_slack,
            ok=holds,
        )
    )
    holds = True
    worst = 0.0
    for i in range(count):
        ref = DiracModel(8)
        m = 2 * ref.size
        d2 = ref.doubled()
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = 0.3 * (b + b.conj().T)
        gam = np.diag(np.concatenate([np.ones(ref.size), -np.ones(ref.size)]))
        b = 0.5 * (b - gam @ b @ gam)  # keep it odd
        p = TruncatedOperator(d2, ref, doubled=True)
        qop = TruncatedOperator(b, ref, doubled=True)
        rep = summability_bound_check(p, qop, theta=0.7, eps=0.5)
        holds &= rep["holds"]
        worst = max(worst, rep["lhs"] / rep["rhs"])
    checks.append(
        _mk(
            "spectral-summability",
            "heat-summability-bound",
            0.0 if holds else 1.0,
            0.5,
            lhs=worst,
            ok=holds,
        )
    )
    ref = DiracModel(16)
    m = ref.size
    f1 = TruncatedOperator(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), ref)
    f2 = TruncatedOperator(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), ref)
    p = TruncatedOperator(ref.matrix(), ref)
    rep = trace_cyclicity_check(f1, p, f2, t=0.8, eps=0.4)
    checks.append(
        _mk("spectral-cyclicity", "heat-trace-cyclicity", rep["spread"], 1e-10 * ts)
    )
    import math

    theta_val = heat_trace(TruncatedOperator(DiracModel(64).matrix(), DiracModel(64)), 1.0)
    oracle = sum(math.exp(-k * k) for k in range(-64, 65))
    checks.append(
        _mk(
            "spectral-heat-theta",
            "heat-trace-value",
            abs(theta_val - oracle),
            1e-10 * ts,
            lhs=theta_val,
            rhs=oracle,
        )
    )
    d0 = DiracModel(10).matrix()
    v = rng.standard_normal(d0.shape) + 1j * rng.standard_normal(d0.shape)
    v = 0.25 * (v + v.conj().T)
    rep = duhamel_derivative(lambda t: d0 + t * v, u=0.3, eps=0.5)
    checks.append(
        _mk(
            "spectral-duhamel",
            "heat-derivative-formula",
            abs(rep["richardson_ratio"] - 4.0),
            0.4,
            lhs=rep["fd_residual"],
            rhs=rep["richardson_ratio"],
        )
    )
    return checks


def _suite_twisted(cfg: SuiteConfig):
    ts = cfg.tol_scale
    checks = []
    # gerbe coherence on a 4-set circle cover with a common quadruple core
    chart1 = TorusChart(1, 64)
    cover = CechCover(
        chart1,
        [
            OpenSet.box(chart1, (c,), 0.4, 0.48)
            for c in (0.0, 0.25, 0.5, 0.75)
        ],
    )
    cover.check_coverage(1e-9)
    assert cover.overlap_core((0, 1, 2, 3)).any()
    ones = np.ones(chart1.shape)
    transitions = {key: ones.astype(complex) for key in cover.pairs()}
    mu = {key: np.exp(2j * np.pi / 3) * ones for key in cover.triples()}
    g = GerbeData(cover, transitions, mu)
    rep = verify_gerbe(g)
    checks.append(
        _mk(
            "twisted-gerbe-pass",
            "gerbe-coherence",
            rep["max_violation"],
            1e-10 * ts,
            ok=rep["passes"],
        )
    )
    mu_bad = dict(mu)
    first = sorted(mu_bad)[0]
    mu_bad[first] = mu_bad[first] * np.exp(1j * 1e-3)
    rep_bad = verify_gerbe(GerbeData(cover, transitions, mu_bad))
    detected = (not rep_bad["passes"]) and abs(rep_bad["max_violation"] - 1e-3) < 3e-4
    checks.append(
        _mk(
            "twisted-gerbe-perturbation",
            "gerbe-coherence-detection",
            abs(rep_bad["max_violation"] - 1e-3),
            3e-4,
            lhs=rep_bad["max_violation"],
            ok=detected,
        )
    )
    # curving field strength on T^3 with an exact global answer
    chart3 = TorusChart(3, 16)
    z = chart3.coordinate(2)
    kappa_field = np.broadcast_to(np.sin(2 * np.pi * z), chart3.shape)
    kappa = GradedMatrixForm.from_scalar_field(chart3, kappa_field, (0, 1))
    cover3 = CechCover(chart3, [OpenSet.whole(chart3)])
    curving = Curving(cover3, [kappa])
    cs = ConnectiveStructure(cover3, {})
    h, hrep = curving_field_strength(curving, cs)
    expect = GradedMatrixForm.from_scalar_field(
        chart3, 2 * np.pi * np.broadcast_to(np.cos(2 * np.pi * z), chart3.shape), (0, 1, 2)
    )
    checks.append(
        _mk(
            "twisted-field-strength",
            "curving-field-strength",
            sup_norm(h - expect),
            1e-10 * ts,
        )
    )
    checks.append(_mk("twisted-dH-zero", "field-strength-closed", hrep["dH"], 1e-10 * ts))
    # d_H closedness of the twisted character on a finer T^3
    chart3b = TorusChart(3, 32)
    rng = np.random.default_rng(cfg.seed)
    a = S.random_superconnection(
        rng, chart3b, Grading.balanced(1, 1), amp0=0.2, amp1=0.12, max_mode=1, with_higher=False
    )
    kap = S.random_scalar_form(rng, chart3b, {2}, amp=0.25, max_mode=1)
    hb = exterior_d(kap)
    chtw = twisted_chern(a, kap)
    checks.append(
        _mk(
            "twisted-chern-closed",
            "twisted-chern-closedness",
            sup_norm(d_H(chtw, hb)),
            1e-8 * ts,
            lhs=hb.sup_norm(),
        )
    )
    tau = S.random_scalar_form(rng, chart3b, {2}, amp=0.2, max_mode=1)
    checks.append(
        _mk(
            "twisted-curving-shift",
            "twisted-curving-naturality",
            sup_norm(I_tau(chtw, tau) - twisted_chern(a, kap + tau)),
            1e-10 * ts,
        )
    )
    xi = S.random_scalar_form(rng, chart3b, {0, 1, 2}, amp=0.8, max_mode=1)
    lhs = I_tau(d_H(xi, hb), tau)
    rhs = d_H(I_tau(xi, tau), hb + exterior_d(tau))
    checks.append(
        _mk("twisted-Itau-natural", "twisted-intertwining", sup_norm(lhs - rhs), 1e-10 * ts)
    )
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


def _scene_checks(cfg: SuiteConfig):
    """Closedness of the curvature class for user-supplied cocycle scenes."""
    from .serialize import cocycle_from_dict, load_scene

    checks = []
    for i, path in enumerate(cfg.scene_paths):
        cocycle = cocycle_from_dict(load_scene(path))
        if cocycle.flavor == "even":
            from .dk import curvature_class as cls_fn
        else:
            from .oddk import odd_curvature_class as cls_fn
        checks.append(
            _mk(
                f"scene-{i}-class-closed",
                "scene-class-closedness",
                sup_norm(exterior_d(cls_fn(cocycle))),
                1e-8 * cfg.tol_scale,
            )
        )
    return checks


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute a named suite; deterministic for a fixed config and seed."""
    if cfg.suite not in SUITES:
        raise KeyError(
            f"unknown suite {cfg.suite!r}; available: {', '.join(sorted(SUITES))}"
        )
    t0 = time.time()
    checks = SUITES[cfg.suite](cfg)
    checks.extend(_scene_checks(cfg))
    report = Report(
        suite=cfg.suite,
        config={
            "seed": cfg.seed,
            "grid": cfg.grid,
            "tol_scale": cfg.tol_scale,
        },
        records=checks,
        environment={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "seconds_total": round(time.time() - t0, 3),
        },
    )
    return report


def thread_cap() -> int:
    raw = os.environ.get("SUPERCHERN_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_many(configs) -> list:
    """Run several suites, in parallel up to the SUPERCHERN_THREADS cap."""
    cap = thread_cap()
    if cap == 1 or len(configs) <= 1:
        return [run_suite(c) for c in configs]
    with ThreadPoolExecutor(max_workers=cap) as pool:
        return list(pool.map(run_suite, configs))
