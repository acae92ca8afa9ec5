"""Differential K-cocycle relations: every operation preserves the curvature
class, and the kernel-reduction normal form is choice-independent."""

import numpy as np
import pytest

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
    smooth_frame,
    stabilize,
)
from superchern.errors import (
    ChartMismatchError,
    NonConstantRankError,
    NotInvertibleError,
    StabilizerInsufficientError,
)
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    exterior_d,
    sup_norm,
)
from superchern.scenes import (
    gapped_odd_superconnection,
    gapped_superconnection,
    random_omega,
    random_scalar_form,
    random_stabilizer,
    random_superconnection,
)
from superchern.suites import harm_gap
from superchern.superconn import Superconnection
from superchern.transgression import QuadratureConfig

CH1 = TorusChart(1, 32)
CH2 = TorusChart(2, 32)
G11 = Grading.balanced(1, 1)
QCFG = QuadratureConfig(panels=6, order=12)


def even_cocycle(seed, chart=CH1, gapped=False, **kw):
    rng = np.random.default_rng(seed)
    if gapped:
        a = gapped_superconnection(rng, chart, **kw)
    else:
        a = random_superconnection(rng, chart, G11, 0.5, 0.4, 1)
    return DKCocycle(a, random_omega(rng, chart, 0.4, 1))


def odd_cocycle(seed, chart=CH1):
    rng = np.random.default_rng(seed)
    a = gapped_odd_superconnection(rng, chart, 2.5)
    return DKCocycle(a, random_scalar_form(rng, chart, {0}, 0.3, 1), "odd")


class TestFlavor:
    def test_unknown_flavor(self):
        c = even_cocycle(0)
        with pytest.raises(ValueError, match="flavor"):
            DKCocycle(c.A, c.omega, "twisted")

    def test_odd_flavor_needs_an_ungraded_bundle(self):
        c = even_cocycle(0)
        with pytest.raises(ChartMismatchError, match="ungraded"):
            DKCocycle(c.A, GradedMatrixForm.zeros(CH1, Grading.trivial(1)), "odd")

    def test_flavors_do_not_mix(self):
        # the even unit is ungraded, so only the flavor tells the two apart
        odd, even = odd_cocycle(0), DKCocycle.unit(CH1)
        for c1, c2 in ((odd, even), (even, odd)):
            with pytest.raises(ChartMismatchError, match="cannot add"):
                cocycle_add(c1, c2)

    @pytest.mark.parametrize(
        "relation",
        [
            lambda c, st: stabilize(c, st),
            lambda c, st: kernel_reduce(c),
            lambda c, st: normalize_q(c, st),
            lambda c, st: product_cocycle(c, c),
            lambda c, st: product_cocycle(DKCocycle.unit(CH1), c),
        ],
        ids=["stabilize", "kernel_reduce", "normalize_q", "product", "product-even-odd"],
    )
    def test_even_only_relations_refuse_odd_input(self, rng, relation):
        with pytest.raises(ChartMismatchError, match="even cocycles only"):
            relation(odd_cocycle(1), random_stabilizer(rng, CH1, 0.5))

    def test_relations_keep_the_flavor(self):
        even = even_cocycle(2, gapped=True, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3)
        odd = odd_cocycle(2)
        for c in (even, odd):
            assert cocycle_add(c, c).flavor == c.flavor
            assert collapse_invertible(c, cfg=QCFG).flavor == c.flavor
            assert shift_superconnection(c, c.A, QCFG).flavor == c.flavor


class TestAddAndClass:
    def test_zero_neutral(self):
        c = even_cocycle(0)
        s = cocycle_add(c, DKCocycle.zero(CH1))
        assert sup_norm(curvature_class(s) - curvature_class(c)) < 1e-14

    def test_class_additive(self):
        c1, c2 = even_cocycle(1), even_cocycle(2)
        s = cocycle_add(c1, c2)
        gap = curvature_class(s) - curvature_class(c1) - curvature_class(c2)
        assert sup_norm(gap) < 1e-10
        assert s.A.grading.rank == 4

    def test_trivial_class_counts_rank(self):
        c = DKCocycle.unit(CH1)
        assert np.allclose(curvature_class(c).component(())[..., 0, 0], 1.0)

    def test_class_closed(self):
        c = even_cocycle(3, CH2)
        assert sup_norm(exterior_d(curvature_class(c))) < 1e-8

    def test_chart_mismatch(self):
        with pytest.raises(ChartMismatchError):
            cocycle_add(even_cocycle(0), even_cocycle(0, TorusChart(1, 16)))


class TestCollapse:
    def test_point_base(self):
        chp = TorusChart(0)
        t0 = np.array([[0.0, 1.5], [1.5, 0.0]], dtype=complex)
        c = DKCocycle(
            Superconnection.from_terms(chp, G11, t0),
            GradedMatrixForm.zeros(chp, Grading.trivial(1)),
        )
        out = collapse_invertible(c, cfg=QCFG)
        assert out.rank == 0
        assert sup_norm(out.omega) < 1e-12

    def test_class_preserved(self):
        c = even_cocycle(4, CH2, gapped=True, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15)
        out = collapse_invertible(c, cfg=QCFG)
        assert sup_norm(curvature_class(out) - curvature_class(c)) < 1e-8

    def test_not_invertible(self):
        c = DKCocycle(
            Superconnection.trivial(CH1, G11),
            GradedMatrixForm.zeros(CH1, Grading.trivial(1)),
        )
        with pytest.raises(NotInvertibleError) as err:
            collapse_invertible(c)
        assert err.value.min_gap == 0.0


class TestShift:
    def test_same_superconnection_is_identity(self):
        c = even_cocycle(5)
        out = shift_superconnection(c, c.A, QCFG)
        assert harm_gap(out.omega, c.omega) < 1e-12

    def test_class_invariant(self):
        c = even_cocycle(6, CH2, gapped=True, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15)
        rng = np.random.default_rng(60)
        target = Superconnection(
            c.A.coeff + 0.2 * random_superconnection(rng, CH2, G11, 0.4, 0.3, 1).coeff
        )
        out = shift_superconnection(c, target, QCFG)
        assert sup_norm(curvature_class(out) - curvature_class(c)) < 1e-8

    def test_round_trip_mod_exact(self):
        c = even_cocycle(7)
        rng = np.random.default_rng(70)
        target = Superconnection(
            c.A.coeff + 0.3 * random_superconnection(rng, CH1, G11, 0.4, 0.3, 1).coeff
        )
        there = shift_superconnection(c, target, QCFG)
        back = shift_superconnection(there, c.A, QCFG)
        assert harm_gap(back.omega, c.omega) < 1e-8


class TestStabilize:
    def test_surjectivity_guard(self):
        c = DKCocycle(
            Superconnection.trivial(CH1, G11),
            GradedMatrixForm.zeros(CH1, Grading.trivial(1)),
        )
        st = Stabilizer(1, np.zeros(CH1.shape + (1, 1)), [])
        with pytest.raises(StabilizerInsufficientError):
            stabilize(c, st)

    def test_class_preserved_and_kernel_created(self, rng):
        c = even_cocycle(8, gapped=True, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3)
        st = random_stabilizer(rng, CH1, 0.5)
        out = stabilize(c, st, QCFG)
        assert out.rank == c.rank + 2
        assert sup_norm(curvature_class(out) - curvature_class(c)) < 1e-8
        # the stabilized degree-0 term has a rank-2 kernel bundle
        sv = np.linalg.svd(out.A.term0_field(), compute_uv=False)
        assert (sv < 1e-8).sum(axis=-1).min() == 2
        assert (sv < 1e-8).sum(axis=-1).max() == 2


class TestKernelReduce:
    def test_constant_block_scene(self, rng):
        # invertible 2x2 constant block plus a genuine zero block: both eta
        # corrections vanish and the output is the zero-block summand
        grading = Grading(np.array([1, -1, 1, -1]))
        t0 = np.zeros(CH1.shape + (4, 4), dtype=complex)
        t0[..., 0, 1] = 1.3
        t0[..., 1, 0] = 1.3
        conn_top = rng.standard_normal(CH1.shape + (1, 1)) * 1j
        conn = np.zeros(CH1.shape + (4, 4), dtype=complex)
        conn[..., 2:3, 2:3] = conn_top
        conn[..., 3:4, 3:4] = conn_top
        a = Superconnection.from_terms(CH1, grading, t0, [conn])
        c = DKCocycle(
            a,
            GradedMatrixForm.zeros(CH1, Grading.trivial(1)),
        )
        out = kernel_reduce(c, cfg=QCFG)
        assert out.rank == 2
        assert sup_norm(out.omega) < 1e-10
        # reduced connection matches the zero-block connection up to gauge
        red = out.A.coeff.component((0,))
        assert np.abs(np.trace(red, axis1=-2, axis2=-1) - 2 * conn_top[..., 0, 0]).max() < 1e-8

    def test_invertible_matches_collapse(self):
        c = even_cocycle(9, gapped=True, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3)
        red = kernel_reduce(c, cfg=QCFG)
        col = collapse_invertible(c, cfg=QCFG)
        assert red.rank == 0
        assert harm_gap(red.omega, col.omega) < 1e-8

    def test_class_preserved_through_stabilization(self, rng):
        c = even_cocycle(10, gapped=True, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3)
        st = random_stabilizer(rng, CH1, 0.5)
        red = normalize_q(c, st, cfg=QCFG)
        assert red.rank == 2
        assert red.A.term(0).sup_norm() < 1e-12  # connection-only normal form
        assert sup_norm(curvature_class(red) - curvature_class(c)) < 1e-8

    def test_choice_independence(self, rng):
        c = even_cocycle(11, gapped=True, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3)
        st1 = random_stabilizer(rng, CH1, 0.5)
        st2 = random_stabilizer(np.random.default_rng(999), CH1, 0.4)
        r1 = normalize_q(c, st1, cfg=QCFG)
        r2 = normalize_q(c, st2, cfg=QCFG)
        assert sup_norm(curvature_class(r1) - curvature_class(r2)) < 1e-8

    def test_nonconstant_rank_detected(self):
        x = CH1.coordinate(0)
        t0 = np.zeros(CH1.shape + (2, 2), dtype=complex)
        h = np.sin(2 * np.pi * x)  # vanishes at grid points
        t0[..., 0, 1] = h
        t0[..., 1, 0] = h
        c = DKCocycle(
            Superconnection.from_terms(CH1, G11, t0),
            GradedMatrixForm.zeros(CH1, Grading.trivial(1)),
        )
        with pytest.raises(NonConstantRankError) as err:
            kernel_reduce(c)
        assert sum(err.value.histogram.values()) == CH1.grid_size


class TestSmoothFrame:
    def test_phase_twisted_line(self):
        # frame of a smoothly rotating line subbundle of C^2 over the circle
        n = 64
        ch = TorusChart(1, n)
        x = np.arange(n) / n
        theta = 0.6 * np.sin(2 * np.pi * x)
        raw = np.zeros((n, 2, 1), dtype=complex)
        raw[:, 0, 0] = np.cos(theta)
        raw[:, 1, 0] = np.sin(theta)
        # scramble the pointwise gauge
        phases = np.exp(2j * np.pi * np.random.default_rng(0).random(n))
        raw *= phases[:, None, None]
        aligned, worst = smooth_frame(raw, ch)
        assert worst < 0.05
        jumps = np.abs(np.roll(aligned, -1, axis=0) - aligned).max()
        assert jumps < 0.2


class TestProduct:
    def test_unit_law(self):
        c = even_cocycle(12, CH2, gapped=True, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15)
        out = product_cocycle(c, DKCocycle.unit(CH2))
        assert sup_norm(curvature_class(out) - curvature_class(c)) < 1e-10

    def test_class_multiplicative(self):
        rng = np.random.default_rng(13)
        c1 = DKCocycle(
            random_superconnection(rng, CH2, G11, 0.25, 0.18, 1),
            random_omega(rng, CH2, 0.3, 1),
        )
        c2 = DKCocycle(
            random_superconnection(rng, CH2, G11, 0.25, 0.18, 1),
            random_omega(rng, CH2, 0.3, 1),
        )
        lhs = curvature_class(product_cocycle(c1, c2))
        rhs = curvature_class(c1).wedge(curvature_class(c2))
        assert sup_norm(lhs - rhs) < 1e-8

    def test_relation_compat_eta_product(self, rng):
        # the shift relation on the first factor matches the product formula:
        # eta(A, A') = eta(A1, A1') ^ Ch(A2) mod exact
        from superchern.forms import harmonic_coefficients as hc
        from superchern.superconn import chern_character, product
        from superchern.transgression import eta_between

        a1 = random_superconnection(rng, CH2, G11, 0.2, 0.15, 1)
        a1p = Superconnection(
            a1.coeff + 0.3 * random_superconnection(rng, CH2, G11, 0.2, 0.15, 1).coeff
        )
        a2 = random_superconnection(rng, CH2, G11, 0.2, 0.15, 1)
        big = product(a1, a2)
        bigp = product(a1p, a2)
        lhs = eta_between(big, bigp).form
        rhs = eta_between(a1, a1p).form.wedge(chern_character(a2))
        assert np.abs(hc(lhs) - hc(rhs)).max() < 1e-8
