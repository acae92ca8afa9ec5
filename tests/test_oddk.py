"""Odd theory: sigma algebra, sigma-trace, odd Chern/eta forms, suspension."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from superchern.dk import (
    DKCocycle,
    cocycle_add,
    collapse_invertible,
    curvature_class,
    shift_superconnection,
)
from superchern.errors import ChartMismatchError
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    exterior_d,
    integrate,
    sup_norm,
    wedge_mul,
)
from superchern.oddk import (
    SigmaElement,
    odd_chern,
    odd_eta_between,
    odd_eta_infinity,
    sigma_lift,
    suspend,
    tr_sigma,
)
from superchern.scenes import dirac_twist_superconnection, random_odd_superconnection
from superchern.superconn import Superconnection

CH1 = TorusChart(1, 32)
POINT = TorusChart(0)


def odd_cocycle(a, omega=None):
    """The odd-flavored cocycle (a, omega), with omega = 0 when not given."""
    if omega is None:
        omega = GradedMatrixForm.zeros(a.chart, Grading.trivial(1))
    return DKCocycle(a, omega, "odd")


def sigma_el(chart, rank, seed, amp=1.0):
    r = np.random.default_rng(seed)
    g = Grading.trivial(rank)
    shape = (chart.n_components,) + chart.shape + (rank, rank)
    mk = lambda: GradedMatrixForm(
        chart, g, amp * (r.standard_normal(shape) + 1j * r.standard_normal(shape))
    )
    return SigmaElement(mk(), mk())


class TestSigmaAlgebra:
    def test_multiplication_law(self):
        # (a + b sigma)(c + d sigma) = (ac + bd) + (ad + bc) sigma when the
        # factors are degree-0 (no Koszul signs enter)
        ch = TorusChart(1, 8)
        g = Grading.trivial(2)
        r = np.random.default_rng(0)
        mk0 = lambda: GradedMatrixForm.from_matrix_field(
            ch, g, r.standard_normal(ch.shape + (2, 2)) + 0j
        )
        a, b, c, d = mk0(), mk0(), mk0(), mk0()
        prod = SigmaElement(a, b).mul(SigmaElement(c, d))
        assert sup_norm(prod.even_part - (wedge_mul(a, c) + wedge_mul(b, d))) < 1e-12
        assert sup_norm(prod.odd_part - (wedge_mul(a, d) + wedge_mul(b, c))) < 1e-12

    def test_associativity_with_forms(self):
        x = sigma_el(TorusChart(1, 8), 2, 1)
        y = sigma_el(TorusChart(1, 8), 2, 2)
        z = sigma_el(TorusChart(1, 8), 2, 3)
        lhs = x.mul(y).mul(z).to_rep()
        rhs = x.mul(y.mul(z)).to_rep()
        assert sup_norm(lhs - rhs) < 1e-12

    def test_sigma_squares_to_one(self):
        ch = TorusChart(1, 8)
        g = Grading.trivial(2)
        sigma = SigmaElement(
            GradedMatrixForm.zeros(ch, g), GradedMatrixForm.identity(ch, g)
        )
        sq = sigma.mul(sigma)
        assert sup_norm(sq.even_part - GradedMatrixForm.identity(ch, g)) < 1e-14
        assert sup_norm(sq.odd_part) < 1e-14

    def test_tr_sigma(self):
        ch = TorusChart(1, 8)
        g = Grading.trivial(3)
        no_sigma = SigmaElement(
            GradedMatrixForm.identity(ch, g), GradedMatrixForm.zeros(ch, g)
        )
        assert sup_norm(tr_sigma(no_sigma)) == 0.0
        with_sigma = SigmaElement(
            GradedMatrixForm.zeros(ch, g), GradedMatrixForm.identity(ch, g)
        )
        assert np.allclose(tr_sigma(with_sigma).component(())[..., 0, 0], 3.0)

    def test_tr_sigma_linear(self):
        x = sigma_el(TorusChart(1, 8), 2, 4)
        y = sigma_el(TorusChart(1, 8), 2, 5)
        lhs = tr_sigma(
            SigmaElement(x.even_part + y.even_part, x.odd_part + y.odd_part)
        )
        assert sup_norm(lhs - tr_sigma(x) - tr_sigma(y)) < 1e-12


class TestSigmaLift:
    def test_pure_term0(self):
        t0 = np.array([[0.3]], dtype=complex)
        a = Superconnection.from_terms(POINT, Grading.trivial(1), t0)
        lifted = sigma_lift(a)
        rep = lifted.term0_field()
        assert np.allclose(rep, np.array([[0, 0.3], [0.3, 0]]))

    def test_square_has_no_sigma_part(self, rng):
        a = random_odd_superconnection(rng, CH1, 2, 0.6, 0.0, 1)
        lifted = sigma_lift(a)
        sq = wedge_mul(lifted.coeff, lifted.coeff)
        assert np.abs(sq.data[..., :2, 2:]).max() < 1e-12  # sigma block empty

    def test_round_trip(self, rng):
        a = random_odd_superconnection(rng, CH1, 2)
        lifted = sigma_lift(a)
        m = a.rank
        for mask in range(CH1.n_components):
            comp = a.coeff.data[mask]
            if bin(mask).count("1") % 2 == 0:
                assert np.allclose(lifted.coeff.data[mask][..., :m, m:], comp)
            else:
                assert np.allclose(lifted.coeff.data[mask][..., :m, :m], comp)

    def test_rejects_graded_input(self, rng):
        from superchern.scenes import random_superconnection

        graded = random_superconnection(rng, CH1, Grading.balanced(1, 1))
        with pytest.raises(ChartMismatchError):
            sigma_lift(graded)


class TestOddChern:
    def test_point_base_vanishes(self):
        a = Superconnection.from_terms(POINT, Grading.trivial(1), np.array([[0.7 + 0j]]))
        assert sup_norm(odd_chern(a)) < 1e-14

    def test_constant_term_gives_closed_zero_class(self):
        a = Superconnection.from_terms(
            CH1, Grading.trivial(1), np.array([[0.9 + 0j]]) * np.ones(CH1.shape + (1, 1))
        )
        och = odd_chern(a)
        assert sup_norm(exterior_d(och)) < 1e-12
        assert abs(integrate(och, (0,))) < 1e-12

    def test_winding_scales_linearly(self):
        base = integrate(odd_chern(dirac_twist_superconnection(CH1, 1, 4, 2.0)), (0,))
        assert abs(base) > 0.5
        for k in (2, 3):
            per = integrate(
                odd_chern(dirac_twist_superconnection(CH1, k, 4, 2.0)), (0,)
            )
            assert abs(per / base - k) < 1e-6

    def test_closedness(self, rng):
        a = random_odd_superconnection(rng, TorusChart(2, 32), 2, 0.3, 0.2, 1)
        assert sup_norm(exterior_d(odd_chern(a))) < 1e-8


class TestOddEta:
    def test_same_endpoint(self, rng):
        a = random_odd_superconnection(rng, CH1, 2)
        assert sup_norm(odd_eta_between(a, a).form) < 1e-14

    def test_point_erfc_value(self):
        a = Superconnection.from_terms(POINT, Grading.trivial(1), np.array([[1.0 + 0j]]))
        res = odd_eta_infinity(a, tol=1e-12)
        val = complex(res.form.data[0, 0, 0])
        assert abs(val - math.sqrt(math.pi) / 2 * erfc(1.0)) < 1e-8

    def test_transgression(self, rng):
        a0 = random_odd_superconnection(rng, CH1, 2, 0.4, 0.3, 1)
        a1 = random_odd_superconnection(rng, CH1, 2, 0.4, 0.3, 1)
        eta = odd_eta_between(a0, a1)
        res = odd_chern(a1) - odd_chern(a0) + exterior_d(eta.form)
        assert sup_norm(res) < 1e-8

    def test_odd_relations_preserve_class(self, rng):
        omega = GradedMatrixForm.zeros(CH1, Grading.trivial(1))
        omega.data[0, ..., 0, 0] = 0.3  # even-degree form
        a = random_odd_superconnection(rng, CH1, 2, 0.3, 0.25, 1)
        shifted = Superconnection.from_terms(
            CH1, Grading.trivial(2), a.term0_field() + 2.5 * np.eye(2),
            [a.coeff.component((0,))],
        )
        c = odd_cocycle(shifted, omega)
        cl = curvature_class(c)
        assert sup_norm(cl - odd_chern(shifted) - exterior_d(omega)) == 0.0
        out = shift_superconnection(
            c,
            Superconnection(
                shifted.coeff
                + 0.2 * random_odd_superconnection(rng, CH1, 2, 0.3, 0.2, 1).coeff
            ),
        )
        assert out.flavor == "odd"
        assert sup_norm(curvature_class(out) - cl) < 1e-8
        collapsed = collapse_invertible(c, tol=1e-10)
        assert collapsed.rank == 0 and collapsed.flavor == "odd"
        assert sup_norm(curvature_class(collapsed) - cl) < 1e-8
        # on T^1 the class alone would not see an even eta form: its degree-1
        # part is closed and its degree-0 part is the odd one; the odd
        # relations add even-degree forms only
        for form in (out.omega, collapsed.omega):
            assert not form.data[1].any()
        doubled = cocycle_add(c, c)
        assert doubled.flavor == "odd"
        assert sup_norm(curvature_class(doubled) - 2.0 * cl) < 1e-8


class TestSuspension:
    def test_point_base_shape_and_zero_omega(self):
        a = Superconnection.from_terms(POINT, Grading.trivial(1), np.array([[0.8 + 0j]]))
        c = odd_cocycle(a)
        s = suspend(c, fiber_modes=6, grid_size=16)
        assert s.chart.dim == 1
        assert s.rank == 2 * (2 * 6 + 1)
        assert sup_norm(s.omega) == 0.0
        assert s.A.validate() == []

    def test_point_base_degree_zero_consistency(self):
        # per-circle integral of the suspended class against the odd class of
        # the input; over a point both sides vanish
        a = Superconnection.from_terms(POINT, Grading.trivial(1), np.array([[0.8 + 0j]]))
        c = odd_cocycle(a)
        s = suspend(c, fiber_modes=16, grid_size=8)
        per = integrate(curvature_class(s), (0,))
        assert abs(per) < 1e-6

    def test_omega_pulls_back_with_circle_factor(self):
        ch = TorusChart(1, 8)
        omega = GradedMatrixForm.zeros(ch, Grading.trivial(1))
        omega.data[0, ..., 0, 0] = 1.0
        a = Superconnection.from_terms(
            ch, Grading.trivial(1), np.ones(ch.shape + (1, 1), dtype=complex)
        )
        s = suspend(odd_cocycle(a, omega), fiber_modes=2, grid_size=8)
        comp = s.omega.component((0,))[..., 0, 0]
        assert np.allclose(comp, 2 * np.pi)

    def test_winding_consistency_unit(self):
        # integrating the suspended class over both circles is proportional to
        # the odd class period, with a scene-independent constant
        ch = TorusChart(1, 16)
        ratios = []
        for k in (1, 2):
            c = odd_cocycle(dirac_twist_superconnection(ch, k, modes=3, scale=2.0))
            s = suspend(c, fiber_modes=3, grid_size=16)
            even_per = integrate(curvature_class(s), (0, 1))
            odd_per = integrate(curvature_class(c), (0,))
            ratios.append(even_per / odd_per)
        assert abs(ratios[1] / ratios[0] - 1.0) < 1e-6
        # the measured suspension unit sits at -2i sqrt(pi) up to truncation
        assert abs(ratios[0] - (-2j * math.sqrt(math.pi))) < 1e-3

    @pytest.mark.parametrize("base_n, grid_size", [(8, 16), (16, 8)])
    def test_grid_other_than_the_base_grid_is_refused(self, base_n, grid_size):
        ch = TorusChart(1, base_n)
        c = odd_cocycle(dirac_twist_superconnection(ch, 1, modes=1))
        with pytest.raises(ChartMismatchError):
            suspend(c, fiber_modes=1, grid_size=grid_size)

    def test_default_grid_is_the_base_grid(self):
        ch = TorusChart(1, 4)
        c = odd_cocycle(dirac_twist_superconnection(ch, 1, modes=1))
        assert suspend(c, fiber_modes=1).chart == TorusChart(2, 4)

    def test_sigma_placement_of_every_form_degree(self, rng):
        # the reference places the blocks by hand: even form degrees and all
        # slopes off the diagonal of the doubled fiber, odd degrees on it
        ch = TorusChart(1, 8)
        a = random_odd_superconnection(rng, ch, 2)
        base_slope = np.array([[0.3, 0.1j], [-0.1j, -0.2]])
        a = Superconnection(a.coeff, {0: base_slope})
        s = suspend(odd_cocycle(a), fiber_modes=1)
        m, modes, nu = 2, 3, 8
        big = modes * m

        def emb(x):
            return np.einsum("ij,...kl->...ikjl", np.eye(modes), x).reshape(
                x.shape[:-2] + (big, big)
            )

        coeff = np.zeros((4, nu, nu, 2 * big, 2 * big), dtype=np.complex128)
        coeff[0, ..., :big, big:] = coeff[0, ..., big:, :big] = emb(a.coeff.data[0])
        coeff[2, ..., :big, :big] = coeff[2, ..., big:, big:] = emb(a.coeff.data[1])
        fibre_n = np.repeat(np.arange(-1.0, 2.0), m)
        u = np.arange(nu) / nu
        dirac = np.zeros((nu, 1, big, big), dtype=np.complex128)
        dirac[..., np.arange(big), np.arange(big)] = 1j * (fibre_n - u[:, None, None])
        coeff[0, ..., :big, big:] += dirac
        coeff[0, ..., big:, :big] += np.conj(np.swapaxes(dirac, -1, -2))
        assert np.array_equal(s.A.coeff.data, coeff)

        slopes = np.zeros((2, 2 * big, 2 * big), dtype=np.complex128)
        slopes[0, :big, big:] = -1j * np.eye(big)
        slopes[0, big:, :big] = 1j * np.eye(big)
        slopes[1, :big, big:] = slopes[1, big:, :big] = np.kron(np.eye(modes), base_slope)
        assert sorted(s.A.affine) == [0, 1]
        assert np.array_equal(s.A.affine[0], slopes[0])
        assert np.array_equal(s.A.affine[1], slopes[1])

    @pytest.mark.parametrize(
        "grading", [Grading.balanced(1, 1), Grading.trivial(2)], ids=["graded", "ungraded"]
    )
    def test_even_input_is_refused(self, grading):
        # an even cocycle is refused whatever its grading
        ch = TorusChart(1, 8)
        c = DKCocycle(
            Superconnection.trivial(ch, grading), GradedMatrixForm.zeros(ch, Grading.trivial(1))
        )
        with pytest.raises(ChartMismatchError, match="odd cocycle"):
            suspend(c, fiber_modes=1)

    def test_dimension_guard(self, rng):
        a = random_odd_superconnection(rng, TorusChart(3, 8), 1)
        c = odd_cocycle(a)
        with pytest.raises(ChartMismatchError):
            suspend(c)
