"""Relative complex, parametrix/projector construction, index character,
eta-difference defect, spectral flow."""

import tracemalloc

import numpy as np
import pytest

from superchern import suites
from superchern.errors import GapError, NotInvertibleError
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    algebra_exp,
    exterior_d,
    harmonic_coefficients,
    sup_norm,
    supertrace,
)
from superchern.relative import (
    OpenSet,
    RelativeForm,
    cor2_defect,
    core_min_gap,
    index_character,
    index_projectors,
    parametrix,
    relative_chern_pair,
    relative_d,
    relative_sup_norm,
    spectral_flow,
    winding_number_box,
)
from superchern.scenes import (
    gapped_superconnection,
    random_conn1,
    random_scalar_form,
    random_superconnection,
    winding_superconnection,
    winding_testbed,
)
from superchern.suites import index_periods
from superchern.superconn import Superconnection, curvature

CH2 = TorusChart(2, 32)
G11 = Grading.balanced(1, 1)


class TestOpenSets:
    def test_box_core_and_support(self):
        u = OpenSet.box(CH2, (0.5, 0.5), 0.1, 0.2)
        assert u.core.any()
        assert u.mask.max() == 1.0
        assert u.mask.min() == 0.0

    def test_complement(self):
        u = OpenSet.complement_of_boxes(CH2, [((0.5, 0.5), 0.1, 0.2)])
        assert 0.3 < u.core_fraction() < 1.0
        center_idx = (CH2.grid_size // 2, CH2.grid_size // 2)
        assert not u.core[center_idx]
        assert u.mask[0, 0] == 1.0


class TestRelativeComplex:
    def test_zero(self):
        z = GradedMatrixForm.zeros(CH2, Grading.trivial(1))
        rf = relative_d(RelativeForm(z, z))
        assert sup_norm(rf.omega) == 0.0 and sup_norm(rf.sigma) == 0.0

    def test_d_squared(self, rng):
        u = OpenSet.complement_of_boxes(CH2, [((0.5, 0.5), 0.12, 0.22)])
        rf = RelativeForm(
            random_scalar_form(rng, CH2, {0, 1, 2}, 0.8),
            random_scalar_form(rng, CH2, {0, 1}, 0.8),
        )
        dd = relative_d(relative_d(rf))
        assert relative_sup_norm(dd, u) < 1e-10

    def test_chern_pair_closed(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12)
        u = OpenSet.whole(CH2)
        pair = relative_chern_pair(a, u)
        assert relative_sup_norm(relative_d(pair), u) < 1e-8

    def test_pair_with_empty_set(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12)
        pair = relative_chern_pair(a, OpenSet.empty(CH2))
        assert sup_norm(relative_d(pair).omega) < 1e-8

    def test_deformation_invariance_shadow(self, rng):
        # two superconnections with the same degree-0 term and an invertible
        # path: the defect pairing the two relative pairs is exact
        a = gapped_superconnection(rng, TorusChart(1, 64), gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
        b = Superconnection(a.coeff.copy())
        b.coeff.data[1] = b.coeff.data[1] * 0.5  # change the connection only
        defect, _ = cor2_defect(a, b)
        assert np.abs(harmonic_coefficients(defect)).max() < 1e-8

    def test_requires_gap_on_core(self):
        a = Superconnection.trivial(CH2, G11)
        with pytest.raises(NotInvertibleError):
            relative_chern_pair(a, OpenSet.whole(CH2))


class TestParametrix:
    def test_exact_inverse_off_window(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
        t0 = a.term0_field()
        q = parametrix(t0, 0.4)
        assert np.abs(q @ t0 - np.eye(2)).max() < 1e-12

    def test_zero_block(self):
        chp = TorusChart(0)
        t0 = np.zeros((2, 2), dtype=complex)
        q = parametrix(t0, 0.5)
        assert np.abs(q).max() < 1e-12  # f(0) = 0
        s0 = np.eye(2) - q @ t0
        assert np.allclose(s0, np.eye(2))

    def test_odd_self_adjoint(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.0)
        q = parametrix(a.term0_field(), 0.4)
        gam = np.diag([1.0, -1.0])
        assert np.abs(gam @ q + q @ gam).max() < 1e-12
        assert np.abs(q - np.conj(np.swapaxes(q, -1, -2))).max() < 1e-12

    def test_gap_error(self):
        a, _, u, _ = winding_testbed(64)
        with pytest.raises(GapError):
            parametrix(a.term0_field(), 5.0, u)  # window swallows core spectrum


class TestIndexProjectors:
    def test_globally_invertible(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
        u = OpenSet.whole(CH2)
        pr = index_projectors(a, u, 0.4)
        rep = pr.validate(u)
        assert rep["ok"]
        assert rep["p_minus_p0_on_core"] < 1e-10

    def test_projector_is_conjugated_p1(self):
        a, _, u, _ = winding_testbed(32)
        pr = index_projectors(a, u, 0.75 * core_min_gap(a, u), ("gauss", 10.5))
        p1 = np.diag([1.0, 1.0, 0.0, 0.0])
        ref = pr.l_inv @ p1 @ pr.l
        assert np.abs(pr.p - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_winding_family_profile(self):
        a, _, u, _ = winding_testbed(64)
        gap = core_min_gap(a, u)
        pr = index_projectors(a, u, 0.5 * gap)
        rep = pr.validate(u)
        assert rep["p_idempotent"] < 1e-10
        assert rep["l_inverse"] < 1e-10
        profile = pr.rank_profile()
        assert profile.max() > 0  # nontrivial index support off U
        assert profile[u.core].max(initial=0) == 0


def sandwich_index_character(a, u, c, xi_shape):
    """(1/2) Str(P e^{-F_P} P - P0 e^{-F_P0} P0), both terms on the doubled bundle.

    The defining formula term by term: each projector gets its connection
    d + P w~ P + (1-P) w~ (1-P) + 2 P dP - dP, a rank-2m exponential and the
    product P H_I P before the supertrace of the grading gamma (+) -gamma.
    """
    pr = index_projectors(a, u, c, xi_shape)
    chart, m = a.chart, a.rank
    grading2 = a.grading.concat(a.grading.flip())
    eye = np.eye(2 * m)

    def term(proj):
        proj = np.broadcast_to(proj, chart.shape + (2 * m, 2 * m))
        dp = exterior_d(GradedMatrixForm.from_matrix_field(chart, grading2, proj))
        coeff = GradedMatrixForm.zeros(chart, grading2)
        for axis in range(chart.dim):
            w = np.zeros(chart.shape + (2 * m, 2 * m), dtype=complex)
            w[..., :m, :m] = w[..., m:, m:] = a.coeff.data[1 << axis]
            dpa = dp.data[1 << axis]
            coeff.data[1 << axis] = (
                2.0 * proj @ dpa - dpa + proj @ w @ proj + (eye - proj) @ w @ (eye - proj)
            )
        heat = algebra_exp(-curvature(Superconnection(coeff)))
        return supertrace(GradedMatrixForm(chart, grading2, proj @ heat.data @ proj))

    return 0.5 * (term(pr.p) - term(pr.p0))


class TestIndexCharacter:
    def test_globally_invertible_vanishes(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.2, wiggle=0.04, phase_amp=0.12, amp1=0.1)
        chi = index_character(a, OpenSet.whole(CH2), xi_shape=("gauss", 9.0))
        assert chi.omega.sup_norm() < 1e-9

    @pytest.mark.parametrize("scene", ["winding-omega", "unbalanced-2-1"])
    def test_matches_sandwich_formula(self, rng, scene):
        # the P0 identity and the weight contraction against the defining formula
        if scene == "winding-omega":
            a, _, u, _ = winding_testbed(32)
            conn = random_conn1(rng, a.chart, G11, amp=0.5, max_mode=1)
            a = Superconnection.from_terms(a.chart, G11, a.term0_field(), conn)
            c, xi_shape = 0.75 * core_min_gap(a, u), ("gauss", 10.5)
        else:
            # Str(1) = 1 on a (2|1) bundle, and its degree-0 term has a kernel
            a = random_superconnection(rng, CH2, Grading.balanced(2, 1), amp0=0.8, amp1=0.5)
            u, c, xi_shape = OpenSet.empty(CH2), 0.3, "bump"
        chi = index_character(a, u, c=c, xi_shape=xi_shape).omega
        ref = sandwich_index_character(a, u, c, xi_shape)
        assert chi.sup_norm() > 1e-3
        assert sup_norm(chi - ref) <= 1e-13 * ref.sup_norm()

    def test_winding_quantization(self):
        core_sup, total, periods, w = index_periods(*winding_testbed(256))
        # supported off U
        assert core_sup < 1e-8
        # total degree-2 period: integer, equal to (minus) the total winding
        assert abs(total - (-(w[0] + w[1]))) < 1e-6
        # local periods match the local degrees
        for per, wz in zip(periods, w):
            assert abs(per - (-wz)) < 1e-6
            assert abs(abs(per.real) - 1.0) < 1e-6  # each zero carries degree 1

    @pytest.mark.parametrize("scale", [-1.0, 2.0])
    def test_local_period_sees_scale_and_sign(self, monkeypatch, scale):
        # the zeros carry windings -1 and +1: the total period of any multiple
        # of chi is 0, so only the local period (relative-index-local) can see
        # a wrong sign or scale of the character
        original = suites.index_character

        def scaled(*args, **kwargs):
            chi = original(*args, **kwargs)
            return RelativeForm(chi.omega * scale, chi.sigma * scale)

        monkeypatch.setattr(suites, "index_character", scaled)
        _, total, periods, w = index_periods(*winding_testbed(256))
        tol = 1e-6  # relative-index-total and relative-index-local
        assert abs(total - (-(w[0] + w[1]))) < tol
        assert abs(periods[0] - (-w[0])) >= 10 * tol

    def test_peak_allocation(self):
        # the rank-2m exponential and its input, output and powers: about four
        # doubled forms.  The projector field P held through it adds a quarter
        # form, the projected connection a whole one.
        a, _, u, _ = winding_testbed(64)
        c = 0.75 * core_min_gap(a, u)
        form = 4 * 64**2 * 4**2 * 16  # bytes of one T^2 form at doubled rank 4
        tracemalloc.start()
        try:
            index_character(a, u, c=c, xi_shape=("gauss", 10.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.25 * form

    @pytest.mark.parametrize("c", [0.0, -0.1, float("nan"), float("inf")])
    def test_window_must_be_finite_and_positive(self, c):
        a, _, u, _ = winding_testbed(32)
        with pytest.raises(NotInvertibleError):
            index_character(a, u, c=c)

    def test_no_gap_on_core_raises(self):
        # zero degree-0 term: the explicit window 0.75 * gap is 0
        a = Superconnection.from_terms(CH2, G11, None)
        u = OpenSet.whole(CH2)
        with pytest.raises(NotInvertibleError):
            index_character(a, u, c=0.75 * core_min_gap(a, u))


class TestCor2Defect:
    def test_same_endpoint(self, rng):
        a = gapped_superconnection(rng, TorusChart(1, 64), gap=1.0)
        d, rep = cor2_defect(a, a)
        assert sup_norm(d) < 1e-12
        assert rep["est_error"] < 1e-6

    def test_invertible_homotopy_vanishes(self, rng):
        ch = TorusChart(1, 64)
        a = gapped_superconnection(rng, ch, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
        b = gapped_superconnection(rng, ch, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
        d, _ = cor2_defect(a, b)
        assert np.abs(harmonic_coefficients(d)).max() < 1e-8

    def test_winding_quantization_and_flow(self):
        ch = TorusChart(1, 64)
        ref = winding_superconnection(ch, 0, radius=1.0)
        periods = {}
        for k in (1, 2, 3):
            _, rep = cor2_defect(winding_superconnection(ch, k, 1.0), ref)
            periods[k] = rep["periods"][0]
        assert abs(periods[1]) > 1.0
        for k in (2, 3):
            assert abs(periods[k] / periods[1] - k) < 1e-6
        modes = np.arange(-6, 7)
        for k in (1, 2, 3):
            flow, crossings = spectral_flow(
                lambda t, kk=k: np.diag((modes + 0.5 - kk * t).astype(float)),
                samples=32,
            )
            assert flow == -k
            assert len(crossings) == k
            # defect period = 2 pi i times the flow of the matching twist path
            assert abs(periods[k] / (2j * np.pi) - flow) < 1e-6


class TestSpectralFlow:
    def test_constant_invertible(self):
        flow, crossings = spectral_flow(lambda t: np.diag([1.0, -2.0]))
        assert flow == 0 and not crossings

    def test_scalar_crossing(self):
        flow, crossings = spectral_flow(lambda t: np.array([[2.0 * t - 1.0]]))
        assert flow == 1
        assert abs(crossings[0][0] - 0.5) < 1e-4

    def test_endpoint_guard(self):
        with pytest.raises(NotInvertibleError):
            spectral_flow(lambda t: np.array([[t]]))


class TestWindingOracle:
    def test_plain_phase(self):
        ch = TorusChart(2, 64)
        x, y = ch.coordinate(0), ch.coordinate(1)
        field = np.broadcast_to(
            np.exp(2j * np.pi * x) * np.exp(-2j * np.pi * y) + 0.0, ch.shape
        ) - 0.2 * np.exp(2j * np.pi * x)
        # nonvanishing on the loop around a small box not containing zeros
        w = winding_number_box(np.exp(2j * np.pi * (x + 0 * y)) - 0.0, ch, ((0.5, 0.5), 0.1))
        assert w == 0
