"""Acceptance gate: every exit criterion at its pinned tolerance.

One test per criterion; each prints a single pass/fail line (run pytest with
-s to stream them).  Scenes are deterministic; tolerances are fixed here and
nowhere else.  Scenes come from the identity-family builders in
``superchern.scenes`` and residuals from ``superchern.suites``, the same
functions the verification suites run; the criteria add their own seeds,
family sizes and worst-of aggregation.
"""

import numpy as np

from superchern.dk import (
    DKCocycle,
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
    sup_norm,
)
from superchern.oddk import odd_eta_between
from superchern.scenes import (
    band_limited_field,
    closedness_scene,
    composition_scene,
    cyclicity_scene,
    duhamel_scene,
    eta_endpoints,
    gapped_cocycle,
    gapped_odd_superconnection,
    gapped_superconnection,
    gerbe_scene,
    invertible_pair,
    random_cocycle,
    random_odd_superconnection,
    random_scalar_form,
    random_stabilizer,
    random_superconnection,
    relative_complex_scene,
    stabilization_scene,
    summability_scene,
    twisted_scene,
    winding_testbed,
)
from superchern.spectral import DiracModel, composition_check, summability_bound_check
from superchern.suites import (
    additivity_residual,
    chern_closedness,
    chern_product_residual,
    class_gap,
    collapse_residual,
    commutator_closedness,
    curving_naturality,
    cyclicity_spread,
    defect_residual,
    duhamel_report,
    harm_gap,
    homotopy_residual,
    index_periods,
    odd_point_value,
    odd_transgression_residual,
    pair_closedness,
    quadrature_estimates,
    relative_d_squared,
    stabilization_eta,
    stabilization_eta_infinity,
    sum_class_gap,
    transgression_residual,
    twisted_closedness,
    winding_periods,
)
from superchern.superconn import (
    Superconnection,
    chern_character,
    min_gap,
    product,
)
from superchern.transgression import QuadratureConfig, eta_between, eta_infinity
from superchern.twisted import twisted_chern, verify_gerbe

G11 = Grading.balanced(1, 1)
SEED = 202600


def report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_01_chern_closedness():
    """20 seeded superconnections on T^1/T^2, rank <= 4: |dCh| < 1e-8 at
    N=32, with the family closedness residual shrinking 10x at N=64.

    The even character on these charts is a constant plus a top-degree form,
    so |dCh| itself sits at rounding noise; the grid-refinement ramp is
    carried by the commutator form of the same closedness identity, which has
    nontrivial content in every degree.
    """
    worst_dch = 0.0
    r32, r64 = [], []
    for i in range(20):
        dim = 1 + (i % 2)
        grading = Grading.balanced(*[(1, 1), (2, 1), (2, 2), (1, 2)][i % 4])
        a32, x32 = closedness_scene(SEED + i, dim, 32, grading)
        a64, x64 = closedness_scene(SEED + i, dim, 64, grading)
        worst_dch = max(worst_dch, chern_closedness(a32))
        r32.append(commutator_closedness(a32, x32))
        r64.append(commutator_closedness(a64, x64))
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
    pairs = [eta_endpoints(np.random.default_rng(SEED + 40 + i), chart, 2) for i in range(5)]
    worst = max(transgression_residual(a0, a1, eta_between(a0, a1).form) for a0, a1 in pairs)
    est2, est4 = quadrature_estimates(*pairs[0])
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
        a0, a1, a2 = eta_endpoints(np.random.default_rng(SEED + 60 + i), chart, 3)
        worst_add = max(worst_add, additivity_residual(a0, a1, a2, eta_between(a0, a1).form))
    worst_hom = 0.0
    for i in range(2):
        a0, a1, a2 = eta_endpoints(np.random.default_rng(SEED + 70 + i), chart, 3)
        worst_hom = max(worst_hom, homotopy_residual(a0, a1, a2, eta_between(a0, a1).form))
    ok = worst_add < 1e-8 and worst_hom < 1e-8
    report(
        "criterion-03 eta-additivity-homotopy",
        ok,
        f"additivity {worst_add:.2e}, homotopy {worst_hom:.2e} (<1e-8)",
    )


def test_criterion_04_invertible_collapse():
    """Ch(A) = d eta(A, infinity) within 1e-8 plus the reported tail bound on
    scenes with min_gap >= 0.5."""
    rng = np.random.default_rng(SEED + 80)
    cases = [
        (gapped_superconnection(rng, TorusChart(1, 32), gap=0.55), "T1 gap 0.55"),
        (
            gapped_superconnection(
                rng, TorusChart(2, 32), gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
            ),
            "T2 gap 1.0",
        ),
        (
            gapped_superconnection(
                rng, TorusChart(2, 64), gap=0.55, wiggle=0.1, phase_amp=0.3, amp1=0.25
            ),
            "T2(64) gap 0.55",
        ),
    ]
    details = []
    ok = True
    for a, label in cases:
        assert min_gap(a) >= 0.5
        res, est = collapse_residual(a)
        ok &= res < 1e-8 + est
        details.append(f"{label}: {res:.2e} (tail {est:.1e})")
    report("criterion-04 invertible-collapse", ok, "; ".join(details))


def test_criterion_05_stabilization_etas_vanish():
    """Both eta forms of the doubled-bundle stabilization scene < 1e-10."""
    tilde, massive = stabilization_scene(
        np.random.default_rng(SEED + 90), TorusChart(1, 32), 2, amp=0.6
    )
    r1 = stabilization_eta(tilde, massive)
    r2 = stabilization_eta_infinity(massive)
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
    ch1 = TorusChart(1, 32)
    ch2 = TorusChart(2, 32)
    rng = np.random.default_rng(SEED + 100)

    c1 = random_cocycle(rng, ch2, 0.25, 0.18, 0.3)
    c2 = random_cocycle(rng, ch2, 0.25, 0.18, 0.3)
    gaps = {"sum": sum_class_gap(c1, c2)}

    cg = gapped_cocycle(rng, ch2, 0.06, 0.2, 0.15, 0.3)
    gaps["collapse"] = class_gap(collapse_invertible(cg, cfg=qcfg), cg)
    target = Superconnection(
        cg.A.coeff + 0.2 * random_superconnection(rng, ch2, G11, 0.4, 0.3, 1).coeff
    )
    gaps["shift"] = class_gap(shift_superconnection(cg, target, qcfg), cg)
    gaps["stabilize"] = class_gap(stabilize(cg, random_stabilizer(rng, ch2, 0.3), qcfg), cg)
    gaps["product-unit"] = class_gap(product_cocycle(cg, DKCocycle.unit(ch2)), cg)

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
    gaps["kernel-reduce"] = class_gap(kernel_reduce(csplit, cfg=qcfg), csplit)

    # normal form with two independent stabilizers, fast chart
    cgap1 = gapped_cocycle(rng, ch1, 0.1, 0.3, 0.3, 0.4)
    st_a = random_stabilizer(rng, ch1, 0.5)
    st_b = random_stabilizer(np.random.default_rng(SEED + 111), ch1, 0.45)
    ra = normalize_q(cgap1, st_a, cfg=qcfg)
    rb = normalize_q(cgap1, st_b, cfg=qcfg)
    gaps["normalize-T1"] = class_gap(ra, cgap1)
    gaps["normalize-choice-T1"] = class_gap(ra, rb)

    # the same statement with curvature-class content, on the finer grid
    ch2f = TorusChart(2, 64)
    rngf = np.random.default_rng(SEED + 120)
    cgf = gapped_cocycle(rngf, ch2f, 0.08, 0.25, 0.2, 0.3)
    st_c = random_stabilizer(rngf, ch2f, 0.35)
    st_d = random_stabilizer(np.random.default_rng(SEED + 121), ch2f, 0.3)
    rc = normalize_q(cgf, st_c, cfg=qcfg)
    rd = normalize_q(cgf, st_d, cfg=qcfg)
    gaps["normalize-T2"] = class_gap(rc, cgf)
    gaps["normalize-choice-T2"] = class_gap(rc, rd)

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
        worst_mult = max(worst_mult, chern_product_residual(a, b))

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
        eta = odd_eta_between(a0, a1).form
        worst_trans = max(worst_trans, odd_transgression_residual(a0, a1, eta))

    rng = np.random.default_rng(SEED + 150)
    shifted = gapped_odd_superconnection(rng, ch1, 2.5)
    c = DKCocycle(shifted, random_scalar_form(rng, ch1, {0}, 0.3, 1), "odd")
    collapsed = collapse_invertible(c, tol=1e-10)
    collapse_gap = sup_norm(curvature_class(collapsed) - curvature_class(c))

    val, target = odd_point_value()
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
        scene = composition_scene(np.random.default_rng(SEED + 1000 + seed))
        comp_ok &= composition_check(*scene)["holds"]

    heat_ok = True
    ref = DiracModel(8)
    for seed in range(100):
        r = np.random.default_rng(SEED + 2000 + seed)
        p, q = summability_scene(r, ref)
        theta = float(r.uniform(0.3, 1.2))
        eps = float(r.uniform(0.2, 0.8))
        heat_ok &= summability_bound_check(p, q, theta, eps)["holds"]

    ref16 = DiracModel(16)
    worst_spread = 0.0
    for seed in range(20):
        scene = cyclicity_scene(np.random.default_rng(SEED + 3000 + seed), ref16)
        worst_spread = max(worst_spread, cyclicity_spread(*scene))

    ratio = duhamel_report(*duhamel_scene(np.random.default_rng(SEED + 4000)))["richardson_ratio"]

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
    u, rf = relative_complex_scene(rng, ch2)
    dd_res = relative_d_squared(rf, u)
    a = gapped_superconnection(rng, ch2, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12)
    pair_res = pair_closedness(a)

    _, total, box_periods, w = index_periods(*winding_testbed(256))
    idx_gaps = [abs(total - (-(w[0] + w[1])))]
    for per, wz in zip(box_periods, w):
        idx_gaps.append(abs(per - (-wz)))
        idx_gaps.append(abs(round(per.real) - per))
    idx_worst = max(idx_gaps)

    ch1 = TorusChart(1, 64)
    inv_gap = defect_residual(*invertible_pair(np.random.default_rng(SEED + 170), ch1))

    periods, flows = winding_periods(ch1, (1, 2, 3))
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
    a, kappa, tau = twisted_scene(np.random.default_rng(SEED), TorusChart(3, 32))
    h = exterior_d(kappa)
    assert sup_norm(h) > 1.0
    chtw = twisted_chern(a, kappa)
    closed_res = twisted_closedness(chtw, h)
    natural_res = curving_naturality(a, kappa, tau, chtw)

    good_gerbe, bad_gerbe = gerbe_scene()
    good = verify_gerbe(good_gerbe)
    bad = verify_gerbe(bad_gerbe)
    gerbe_ok = good["passes"] and not bad["passes"] and abs(bad["max_violation"] - 1e-3) < 1e-5

    ok = closed_res < 1e-8 and natural_res < 1e-10 and gerbe_ok
    report(
        "criterion-11 twisted",
        ok,
        f"d_H Ch {closed_res:.2e} (|H|={sup_norm(h):.1f}); I_tau naturality "
        f"{natural_res:.2e}; gerbe pass/detect ok={gerbe_ok} "
        f"(violation {bad['max_violation']:.2e} vs seeded 1e-3)",
    )
