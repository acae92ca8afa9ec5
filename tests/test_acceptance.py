"""Acceptance gate: every exit criterion at its pinned tolerance.

One test per criterion; each prints a single pass/fail line (run pytest with
-s to stream them).  Scenes are deterministic; tolerances are fixed here and
nowhere else.
"""

import math

import numpy as np
from scipy.special import erfc

from superchern.dk import (
    DKCocycle,
    Stabilizer,
    cocycle_add,
    collapse_invertible,
    curvature_class,
    kernel_reduce,
    normalize_q,
    product_cocycle,
    shift_superconnection,
    stabilize,
)
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    exterior_d,
    harmonic_coefficients,
    integrate,
    sup_norm,
)
from superchern.oddk import (
    odd_chern,
    odd_collapse_invertible,
    odd_curvature_class,
    odd_eta_between,
    odd_eta_infinity,
)
from superchern.relative import (
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
from superchern.scenes import (
    band_limited_field,
    gapped_superconnection,
    random_conn1,
    random_odd_superconnection,
    random_omega,
    random_scalar_form,
    random_superconnection,
    stabilizer_pair_scene,
    winding_superconnection,
)
from superchern.spectral import (
    DiracModel,
    TruncatedOperator,
    composition_check,
    duhamel_derivative,
    summability_bound_check,
    trace_cyclicity_check,
)
from superchern.superconn import (
    Superconnection,
    chern_character,
    closedness_defect,
    min_gap,
    product,
)
from superchern.transgression import (
    QuadratureConfig,
    eta_along_path,
    eta_between,
    eta_infinity,
)
from superchern.twisted import (
    CechCover,
    GerbeData,
    I_tau,
    d_H,
    twisted_chern,
    verify_gerbe,
)

G11 = Grading.balanced(1, 1)
SEED = 202600


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def harm_gap(a, b=None):
    diff = a if b is None else a - b
    coeffs = harmonic_coefficients(diff)
    return float(np.abs(coeffs).max()) if coeffs.size else 0.0


def test_criterion_01_chern_closedness():
    """20 seeded superconnections on T^1/T^2, rank <= 4: |dCh| < 1e-8 at
    N=32, with the family closedness residual shrinking 10x at N=64.

    The even character on these charts is a constant plus a top-degree form,
    so |dCh| itself sits at rounding noise; the grid-refinement ramp is
    carried by the commutator form of the same closedness identity, which has
    nontrivial content in every degree.
    """

    def scene(i, n):
        dim = 1 + (i % 2)
        chart = TorusChart(dim, n)
        rng = np.random.default_rng(SEED + i)
        ranks = [(1, 1), (2, 1), (2, 2), (1, 2)][i % 4]
        grading = Grading.balanced(*ranks)
        amp = 0.4 if dim == 1 else 0.28
        a = random_superconnection(rng, chart, grading, amp0=amp, amp1=0.8 * amp, max_mode=1)
        x = GradedMatrixForm(
            chart,
            grading,
            np.stack(
                [
                    band_limited_field(rng, chart, (grading.rank,) * 2, 1, 1.2 * amp)
                    for _ in range(chart.n_components)
                ]
            ),
        )
        return a, x

    worst_dch = 0.0
    r32, r64 = [], []
    for i in range(20):
        a32, x32 = scene(i, 32)
        a64, x64 = scene(i, 64)
        worst_dch = max(worst_dch, sup_norm(exterior_d(chern_character(a32))))
        r32.append(sup_norm(closedness_defect(a32, x32)))
        r64.append(sup_norm(closedness_defect(a64, x64)))
    ratio = max(r64) / max(r32)
    ok = worst_dch < 1e-8 and ratio <= 0.1
    report(
        "criterion-01 chern-closedness",
        ok,
        f"max|dCh|={worst_dch:.2e} (<1e-8); family residual "
        f"{max(r32):.2e} -> {max(r64):.2e}, ratio {ratio:.2e} (<=0.1)",
    )


def test_criterion_02_transgression():
    """Ch(A1) - Ch(A0) + d eta < 1e-8 at default quadrature; order-doubling
    shrinks the quadrature error estimate at least 100x."""
    chart = TorusChart(2, 32)
    worst = 0.0
    for i in range(5):
        rng = np.random.default_rng(SEED + 40 + i)
        a0 = random_superconnection(rng, chart, G11, 0.22, 0.16, 1)
        a1 = random_superconnection(rng, chart, G11, 0.22, 0.16, 1)
        eta = eta_between(a0, a1)
        res = sup_norm(chern_character(a1) - chern_character(a0) + exterior_d(eta.form))
        worst = max(worst, res)
    rng = np.random.default_rng(SEED + 40)
    a0 = random_superconnection(rng, chart, G11, 0.22, 0.16, 1)
    a1 = random_superconnection(rng, chart, G11, 0.22, 0.16, 1)
    est2 = eta_between(a0, a1, QuadratureConfig(panels=4, order=2)).est_error
    est4 = eta_between(a0, a1, QuadratureConfig(panels=4, order=4)).est_error
    ok = worst < 1e-8 and est4 <= est2 / 100.0
    report(
        "criterion-02 transgression",
        ok,
        f"max residual {worst:.2e} (<1e-8); est {est2:.2e} -> {est4:.2e} "
        f"({est2 / max(est4, 1e-300):.0f}x)",
    )


def test_criterion_03_additivity_homotopy():
    """Three-term eta additivity and endpoint-fixed homotopy invariance,
    harmonic discrepancies < 1e-8."""
    chart = TorusChart(2, 32)
    worst_add = 0.0
    for i in range(2):
        rng = np.random.default_rng(SEED + 60 + i)
        mk = lambda: random_superconnection(rng, chart, G11, 0.22, 0.16, 1)
        a0, a1, a2 = mk(), mk(), mk()
        combo = (
            eta_between(a0, a1).form + eta_between(a1, a2).form - eta_between(a0, a2).form
        )
        worst_add = max(worst_add, harm_gap(combo))
    worst_hom = 0.0
    for i in range(2):
        rng = np.random.default_rng(SEED + 70 + i)
        mk = lambda: random_superconnection(rng, chart, G11, 0.22, 0.16, 1)
        a0, a1, a2 = mk(), mk(), mk()
        straight = eta_between(a0, a1).form
        detour = a2.coeff - 0.5 * (a0.coeff + a1.coeff)
        path = lambda t: Superconnection(
            (1 - t) * a0.coeff + t * a1.coeff + 4 * t * (1 - t) * detour
        )
        dpath = lambda t: (a1.coeff - a0.coeff) + (4 - 8 * t) * detour
        curved = eta_along_path(path, dpath).form
        worst_hom = max(worst_hom, harm_gap(curved, straight))
    ok = worst_add < 1e-8 and worst_hom < 1e-8
    report(
        "criterion-03 eta-additivity-homotopy",
        ok,
        f"additivity {worst_add:.2e}, homotopy {worst_hom:.2e} (<1e-8)",
    )


def test_criterion_04_invertible_collapse():
    """Ch(A) = d eta(A, infinity) within 1e-8 plus the reported tail bound on
    scenes with min_gap >= 0.5."""
    cases = []
    rng = np.random.default_rng(SEED + 80)
    cases.append((gapped_superconnection(rng, TorusChart(1, 32), gap=0.55), "T1 gap 0.55"))
    cases.append(
        (
            gapped_superconnection(
                rng, TorusChart(2, 32), gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
            ),
            "T2 gap 1.0",
        )
    )
    cases.append(
        (
            gapped_superconnection(
                rng, TorusChart(2, 64), gap=0.55, wiggle=0.1, phase_amp=0.3, amp1=0.25
            ),
            "T2(64) gap 0.55",
        )
    )
    details = []
    ok = True
    for a, label in cases:
        assert min_gap(a) >= 0.5
        eta = eta_infinity(a, tol=1e-10)
        res = sup_norm(chern_character(a) - exterior_d(eta.form))
        ok &= res < 1e-8 + eta.est_error
        details.append(f"{label}: {res:.2e} (tail {eta.est_error:.1e})")
    report("criterion-04 invertible-collapse", ok, "; ".join(details))


def test_criterion_05_stabilization_etas_vanish():
    """Both eta forms of the doubled-bundle stabilization scene < 1e-10."""
    chart = TorusChart(1, 32)
    rng = np.random.default_rng(SEED + 90)
    conn = random_conn1(rng, chart, Grading.trivial(2), amp=0.6, max_mode=2)
    doubled = [np.kron(np.eye(2), np.zeros((1, 1))) for _ in range(0)]
    doubled = []
    for w in conn:
        big = np.zeros(chart.shape + (4, 4), dtype=complex)
        big[..., :2, :2] = w
        big[..., 2:, 2:] = w
        doubled.append(big)
    grading = Grading(np.array([1, 1, -1, -1]))
    tilde = Superconnection.from_terms(chart, grading, None, doubled)
    mass = np.zeros((4, 4), dtype=complex)
    mass[:2, 2:] = np.eye(2)
    mass[2:, :2] = np.eye(2)
    bconn = Superconnection.from_terms(chart, grading, mass, doubled)
    r1 = sup_norm(eta_between(tilde, bconn).form)
    r2 = sup_norm(eta_infinity(bconn, tol=1e-12).form)
    ok = r1 < 1e-10 and r2 < 1e-10
    report(
        "criterion-05 stabilization-vanishing",
        ok,
        f"eta(conn, massive)={r1:.2e}, eta(massive, inf)={r2:.2e} (<1e-10)",
    )


def test_criterion_06_relation_invariance():
    """Every cocycle relation preserves the curvature class to 1e-8, and the
    normal form is independent of the stabilizer choice to 1e-8."""
    qcfg = QuadratureConfig(panels=5, order=10)
    gaps = {}

    ch1 = TorusChart(1, 32)
    ch2 = TorusChart(2, 32)
    rng = np.random.default_rng(SEED + 100)

    c1 = DKCocycle(
        random_superconnection(rng, ch2, G11, 0.25, 0.18, 1), random_omega(rng, ch2, 0.3, 1)
    )
    c2 = DKCocycle(
        random_superconnection(rng, ch2, G11, 0.25, 0.18, 1), random_omega(rng, ch2, 0.3, 1)
    )
    gaps["sum"] = sup_norm(
        curvature_class(cocycle_add(c1, c2)) - curvature_class(c1) - curvature_class(c2)
    )

    cg = DKCocycle(
        gapped_superconnection(rng, ch2, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15),
        random_omega(rng, ch2, 0.3, 1),
    )
    cl0 = curvature_class(cg)
    gaps["collapse"] = sup_norm(curvature_class(collapse_invertible(cg, cfg=qcfg)) - cl0)

    target = Superconnection(
        cg.A.coeff + 0.2 * random_superconnection(rng, ch2, G11, 0.4, 0.3, 1).coeff
    )
    gaps["shift"] = sup_norm(
        curvature_class(shift_superconnection(cg, target, qcfg)) - cl0
    )

    st = Stabilizer(1, *stabilizer_pair_scene(rng, ch2, 1, 1, 1, amp=0.3, max_mode=1))
    gaps["stabilize"] = sup_norm(curvature_class(stabilize(cg, st, qcfg)) - cl0)

    gaps["product-unit"] = sup_norm(
        curvature_class(product_cocycle(cg, DKCocycle.unit(ch2))) - cl0
    )

    # kernel reduction on the split scene whose eta corrections vanish
    grading4 = Grading(np.array([1, -1, 1, -1]))
    t0 = np.zeros(ch1.shape + (4, 4), dtype=complex)
    t0[..., 0, 1] = 1.3
    t0[..., 1, 0] = 1.3
    w_top = 1j * np.real(band_limited_field(rng, ch1, (1, 1), 1, 0.5))
    conn = np.zeros(ch1.shape + (4, 4), dtype=complex)
    conn[..., 2:3, 2:3] = w_top
    conn[..., 3:4, 3:4] = w_top
    csplit = DKCocycle(
        Superconnection.from_terms(ch1, grading4, t0, [conn]),
        GradedMatrixForm.zeros(ch1, Grading.trivial(1)),
    )
    gaps["kernel-reduce"] = sup_norm(
        curvature_class(kernel_reduce(csplit, cfg=qcfg)) - curvature_class(csplit)
    )

    # normal form with two independent stabilizers, fast chart
    cgap1 = DKCocycle(
        gapped_superconnection(rng, ch1, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3),
        random_omega(rng, ch1, 0.4, 1),
    )
    st_a = Stabilizer(1, *stabilizer_pair_scene(rng, ch1, 1, 1, 1, amp=0.5, max_mode=1))
    st_b = Stabilizer(
        1,
        *stabilizer_pair_scene(
            np.random.default_rng(SEED + 111), ch1, 1, 1, 1, amp=0.45, max_mode=1
        ),
    )
    ra = normalize_q(cgap1, st_a, cfg=qcfg)
    rb = normalize_q(cgap1, st_b, cfg=qcfg)
    gaps["normalize-T1"] = sup_norm(curvature_class(ra) - curvature_class(cgap1))
    gaps["normalize-choice-T1"] = sup_norm(curvature_class(ra) - curvature_class(rb))

    # the same statement with curvature-class content, on the finer grid
    ch2f = TorusChart(2, 64)
    rngf = np.random.default_rng(SEED + 120)
    cgf = DKCocycle(
        gapped_superconnection(rngf, ch2f, gap=1.0, wiggle=0.08, phase_amp=0.25, amp1=0.2),
        random_omega(rngf, ch2f, 0.3, 1),
    )
    st_c = Stabilizer(1, *stabilizer_pair_scene(rngf, ch2f, 1, 1, 1, amp=0.35, max_mode=1))
    st_d = Stabilizer(
        1,
        *stabilizer_pair_scene(
            np.random.default_rng(SEED + 121), ch2f, 1, 1, 1, amp=0.3, max_mode=1
        ),
    )
    rc = normalize_q(cgf, st_c, cfg=qcfg)
    rd = normalize_q(cgf, st_d, cfg=qcfg)
    gaps["normalize-T2"] = sup_norm(curvature_class(rc) - curvature_class(cgf))
    gaps["normalize-choice-T2"] = sup_norm(curvature_class(rc) - curvature_class(rd))

    worst = max(gaps.values())
    ok = worst < 1e-8
    detail = ", ".join(f"{k}={v:.1e}" for k, v in gaps.items())
    report("criterion-06 relation-invariance", ok, detail)


def test_criterion_07_product_identities():
    """Character multiplicativity and both product compatibility identities
    for the eta forms, mod exact forms, at 1e-8."""
    chart = TorusChart(2, 32)
    rng = np.random.default_rng(SEED + 130)
    worst_mult = 0.0
    for _ in range(3):
        a = random_superconnection(rng, chart, G11, 0.25, 0.18, 1)
        b = random_superconnection(rng, chart, G11, 0.25, 0.18, 1)
        lhs = chern_character(product(a, b))
        rhs = chern_character(a).wedge(chern_character(b))
        worst_mult = max(worst_mult, sup_norm(lhs - rhs))

    a1 = gapped_superconnection(rng, chart, gap=1.2, wiggle=0.05, phase_amp=0.15, amp1=0.1)
    a2 = random_superconnection(rng, chart, G11, 0.18, 0.12, 1)
    big = product(a1, a2)
    lhs = eta_infinity(big, tol=1e-10).form
    rhs = eta_infinity(a1, tol=1e-10).form.wedge(chern_character(a2))
    suffices_gap = harm_gap(lhs, rhs)

    a1p = Superconnection(
        a1.coeff + 0.25 * random_superconnection(rng, chart, G11, 0.2, 0.15, 1).coeff
    )
    lhs2 = eta_between(big, product(a1p, a2)).form
    rhs2 = eta_between(a1, a1p).form.wedge(chern_character(a2))
    equiv_gap = harm_gap(lhs2, rhs2)

    ok = worst_mult < 1e-8 and suffices_gap < 1e-8 and equiv_gap < 1e-8
    report(
        "criterion-07 product-identities",
        ok,
        f"Ch mult {worst_mult:.2e}; eta-infinity rule {suffices_gap:.2e}; "
        f"eta-shift rule {equiv_gap:.2e} (<1e-8)",
    )


def test_criterion_08_odd_theory():
    """Odd transgression/collapse identities at 1e-8 and the closed-form
    point value eta(sigma, infinity) = (sqrt(pi)/2) erfc(1) at 1e-8."""
    ch1 = TorusChart(1, 32)
    worst_trans = 0.0
    for i in range(3):
        rng = np.random.default_rng(SEED + 140 + i)
        a0 = random_odd_superconnection(rng, ch1, 2, 0.4, 0.3, 1)
        a1 = random_odd_superconnection(rng, ch1, 2, 0.4, 0.3, 1)
        eta = odd_eta_between(a0, a1)
        res = sup_norm(odd_chern(a1) - odd_chern(a0) + exterior_d(eta.form))
        worst_trans = max(worst_trans, res)

    rng = np.random.default_rng(SEED + 150)
    base = random_odd_superconnection(rng, ch1, 2, 0.3, 0.25, 1)
    shifted = Superconnection.from_terms(
        ch1,
        Grading.trivial(2),
        base.term0_field() + 2.5 * np.eye(2),
        [base.coeff.component((0,))],
    )
    from superchern.oddk import OddCocycle

    omega = random_scalar_form(rng, ch1, {0}, 0.3, 1)
    c = OddCocycle(shifted, omega)
    collapsed = odd_collapse_invertible(c, tol=1e-10)
    collapse_gap = sup_norm(odd_curvature_class(collapsed) - odd_curvature_class(c))

    point = TorusChart(0)
    apt = Superconnection.from_terms(point, Grading.trivial(1), np.array([[1.0 + 0j]]))
    val = complex(odd_eta_infinity(apt, tol=1e-12).form.data[0, 0, 0])
    target = math.sqrt(math.pi) / 2 * erfc(1.0)
    point_gap = abs(val - target)

    ok = worst_trans < 1e-8 and collapse_gap < 1e-8 and point_gap < 1e-8
    report(
        "criterion-08 odd-theory",
        ok,
        f"transgression {worst_trans:.2e}; collapse {collapse_gap:.2e}; "
        f"point value {val.real:.6f} vs {target:.6f} ({point_gap:.1e})",
    )


def test_criterion_09_spectral_lemmas():
    """Composition inequality and heat bound on 100 seeded instances each;
    three-way trace agreement < 1e-10; heat-derivative Richardson ratio
    4 +- 10%."""
    comp_ok = True
    for seed in range(100):
        r = np.random.default_rng(SEED + 1000 + seed)
        ref = DiracModel(8, twist=float(r.uniform(0, 2 * math.pi)))
        m = ref.size
        f1 = TruncatedOperator(r.standard_normal((m, m)) + 1j * r.standard_normal((m, m)), ref)
        f2 = TruncatedOperator(r.standard_normal((m, m)) + 1j * r.standard_normal((m, m)), ref)
        k1, k2, s = (int(v) for v in r.integers(-2, 3, 3))
        comp_ok &= composition_check(f1, k1, f2, k2, s)["holds"]

    heat_ok = True
    ref = DiracModel(8)
    gam = np.diag(np.concatenate([np.ones(ref.size), -np.ones(ref.size)]))
    for seed in range(100):
        r = np.random.default_rng(SEED + 2000 + seed)
        m = 2 * ref.size
        b = r.standard_normal((m, m)) + 1j * r.standard_normal((m, m))
        b = 0.3 * (b + b.conj().T)
        b = 0.5 * (b - gam @ b @ gam)
        p = TruncatedOperator(ref.doubled(), ref, doubled=True)
        q = TruncatedOperator(b, ref, doubled=True)
        theta = float(r.uniform(0.3, 1.2))
        eps = float(r.uniform(0.2, 0.8))
        heat_ok &= summability_bound_check(p, q, theta, eps)["holds"]

    ref16 = DiracModel(16)
    worst_spread = 0.0
    for seed in range(20):
        r = np.random.default_rng(SEED + 3000 + seed)
        m = ref16.size
        f1 = TruncatedOperator(r.standard_normal((m, m)) + 1j * r.standard_normal((m, m)), ref16)
        f2 = TruncatedOperator(r.standard_normal((m, m)) + 1j * r.standard_normal((m, m)), ref16)
        p = TruncatedOperator(ref16.matrix(), ref16)
        worst_spread = max(
            worst_spread, trace_cyclicity_check(f1, p, f2, t=0.8, eps=0.4)["spread"]
        )

    r = np.random.default_rng(SEED + 4000)
    ref10 = DiracModel(10)
    v = r.standard_normal((ref10.size,) * 2) + 1j * r.standard_normal((ref10.size,) * 2)
    v = 0.25 * (v + v.conj().T)
    d0 = ref10.matrix()
    rep = duhamel_derivative(lambda u: d0 + u * v, u=0.3, eps=0.5)
    ratio = rep["richardson_ratio"]

    ok = comp_ok and heat_ok and worst_spread < 1e-10 and abs(ratio - 4.0) <= 0.4
    report(
        "criterion-09 spectral-lemmas",
        ok,
        f"composition 100/100={comp_ok}; heat bound 100/100={heat_ok}; "
        f"trace spread {worst_spread:.1e} (<1e-10); richardson {ratio:.3f} (4 +- 0.4)",
    )


def test_criterion_10_relative_index():
    """Relative complex and index quantization: d^2 = 0 at 1e-10; the
    character pair relatively closed at 1e-8; winding-testbed degree-2
    periods over 2 pi i integral at 1e-6 and equal to the oracle; the eta
    defect vanishes for invertible homotopies and quantizes with the
    spectral flow."""
    ch2 = TorusChart(2, 32)
    rng = np.random.default_rng(SEED + 160)
    u = OpenSet.complement_of_boxes(ch2, [((0.5, 0.5), 0.12, 0.22)])
    rf = RelativeForm(
        random_scalar_form(rng, ch2, {0, 1, 2}, 0.8),
        random_scalar_form(rng, ch2, {0, 1}, 0.8),
    )
    dd_res = relative_sup_norm(relative_d(relative_d(rf)), u)

    a = gapped_superconnection(rng, ch2, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12)
    pair = relative_chern_pair(a, OpenSet.whole(ch2))
    pair_res = relative_sup_norm(relative_d(pair), OpenSet.whole(ch2))

    chart = TorusChart(2, 256)
    x, y = chart.coordinate(0), chart.coordinate(1)
    q = np.exp(2j * np.pi * x) + np.exp(2j * np.pi * y) - 1.0
    t0 = np.zeros(chart.shape + (2, 2), dtype=complex)
    t0[..., 1, 0] = q
    t0[..., 0, 1] = np.conj(q)
    aw = Superconnection.from_terms(chart, G11, t0)
    zeros = ((1 / 6, 5 / 6), (5 / 6, 1 / 6))
    uw = OpenSet.complement_of_boxes(chart, [(z, 0.10, 0.26) for z in zeros])
    gap = core_min_gap(aw, uw)
    chi = index_character(aw, uw, c=0.75 * gap, xi_shape=("gauss", 10.5))
    total = integrate(chi.omega, (0, 1)) / (2j * np.pi)
    w = [winding_number_box(q, chart, (z, 0.23)) for z in zeros]
    idx_gaps = [abs(total - (-(w[0] + w[1])))]
    for z, wz in zip(zeros, w):
        per = box_integral(chi.omega, (0, 1), (z, 0.23)) / (2j * np.pi)
        idx_gaps.append(abs(per - (-wz)))
        idx_gaps.append(abs(round(per.real) - per))
    idx_worst = max(idx_gaps)

    ch1 = TorusChart(1, 64)
    rngc = np.random.default_rng(SEED + 170)
    b0 = gapped_superconnection(rngc, ch1, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
    b1 = gapped_superconnection(rngc, ch1, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
    defect, _ = cor2_defect(b0, b1)
    inv_gap = harm_gap(defect)

    ref = winding_superconnection(ch1, 0, radius=1.0)
    periods, flows = {}, {}
    modes = np.arange(-6, 7)
    for k in (1, 2, 3):
        _, repk = cor2_defect(winding_superconnection(ch1, k, 1.0), ref)
        periods[k] = repk["periods"][0]
        flows[k], _ = spectral_flow(
            lambda t, kk=k: np.diag((modes + 0.5 - kk * t).astype(float)), samples=32
        )
    unit = periods[1] / flows[1]
    quant_gaps = [abs(periods[k] / periods[1] - k) for k in (2, 3)]
    quant_gaps += [abs(periods[k] - flows[k] * unit) for k in (1, 2, 3)]
    quant_gaps.append(abs(unit - 2j * np.pi))  # the measured lattice unit
    quant_worst = max(quant_gaps)

    ok = (
        dd_res < 1e-10
        and pair_res < 1e-8
        and idx_worst < 1e-6
        and inv_gap < 1e-8
        and quant_worst < 1e-6
        and abs(periods[1]) > 1.0
    )
    report(
        "criterion-10 relative-index",
        ok,
        f"d^2 {dd_res:.1e}; pair {pair_res:.1e}; index periods {idx_worst:.1e} "
        f"(oracle {w}); defect invertible {inv_gap:.1e}; quantization "
        f"{quant_worst:.1e} (unit {unit:.4f})",
    )


def test_criterion_11_twisted():
    """d_H-closedness of the twisted character on T^3 with H = d kappa != 0
    at 1e-8; curving naturality exact at 1e-10; gerbe coherence passes and
    flags a seeded perturbation."""
    chart = TorusChart(3, 32)
    rng = np.random.default_rng(SEED)
    a = random_superconnection(rng, chart, G11, amp0=0.2, amp1=0.12, max_mode=1, with_higher=False)
    kappa = random_scalar_form(rng, chart, {2}, 0.25, 1)
    h = exterior_d(kappa)
    assert sup_norm(h) > 1.0
    chtw = twisted_chern(a, kappa)
    closed_res = sup_norm(d_H(chtw, h))

    tau = random_scalar_form(rng, chart, {2}, 0.2, 1)
    natural_res = sup_norm(I_tau(chtw, tau) - twisted_chern(a, kappa + tau))

    chart1 = TorusChart(1, 64)
    cover = CechCover(
        chart1, [OpenSet.box(chart1, (c,), 0.4, 0.48) for c in (0.0, 0.25, 0.5, 0.75)]
    )
    ones = np.ones(chart1.shape, dtype=complex)
    mu = {k: np.exp(2j * np.pi / 3) * ones for k in cover.triples()}
    good = verify_gerbe(GerbeData(cover, {k: ones for k in cover.pairs()}, mu))
    mu_bad = dict(mu)
    key = sorted(mu_bad)[0]
    mu_bad[key] = mu_bad[key] * np.exp(1j * 1e-3)
    bad = verify_gerbe(GerbeData(cover, {k: ones for k in cover.pairs()}, mu_bad))
    gerbe_ok = good["passes"] and not bad["passes"] and abs(bad["max_violation"] - 1e-3) < 1e-5

    ok = closed_res < 1e-8 and natural_res < 1e-10 and gerbe_ok
    report(
        "criterion-11 twisted",
        ok,
        f"d_H Ch {closed_res:.2e} (|H|={sup_norm(h):.1f}); I_tau naturality "
        f"{natural_res:.2e}; gerbe pass/detect ok={gerbe_ok} "
        f"(violation {bad['max_violation']:.2e} vs seeded 1e-3)",
    )
