"""Gerbe coherence checks and the curving-twisted transgression calculus."""

import numpy as np
import pytest

from superchern.errors import ChartMismatchError, ClosednessError
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    exterior_d,
    sup_norm,
)
from superchern.relative import OpenSet
from superchern.scenes import random_scalar_form, random_superconnection
from superchern.superconn import Superconnection, chern_character
from superchern.transgression import QuadratureConfig
from superchern.twisted import (
    CechCover,
    ConnectiveStructure,
    Curving,
    GerbeData,
    I_tau,
    _curving,
    _itau_bound,
    curving_field_strength,
    d_H,
    is_dH_exact,
    twisted_chern,
    twisted_equal_mod_exact,
    twisted_eta_between,
    twisted_eta_infinity,
    twisted_theta,
    verify_connective,
    verify_curving,
    verify_gerbe,
)

CH3 = TorusChart(3, 16)
G11 = Grading.balanced(1, 1)


def circle_cover(n_sets=4, core=0.4, supp=0.48):
    chart = TorusChart(1, 64)
    centers = [i / n_sets for i in range(n_sets)]
    return CechCover(chart, [OpenSet.box(chart, (c,), core, supp) for c in centers])


class TestGerbe:
    def test_trivial_mu_passes(self):
        cover = circle_cover()
        cover.check_coverage()
        ones = np.ones(cover.chart.shape, dtype=complex)
        g = GerbeData(
            cover,
            {k: ones for k in cover.pairs()},
            {k: ones for k in cover.triples()},
        )
        rep = verify_gerbe(g)
        assert rep["passes"] and rep["max_violation"] == 0.0

    def test_cube_root_cocycle_three_sets(self):
        # three sets: a single triple, no quadruple condition to violate
        cover = CechCover(
            TorusChart(1, 64),
            [OpenSet.box(TorusChart(1, 64), (c,), 0.4, 0.48) for c in (0.0, 1 / 3, 2 / 3)],
        )
        ones = np.ones(cover.chart.shape, dtype=complex)
        g = GerbeData(
            cover,
            {k: ones for k in cover.pairs()},
            {k: np.exp(2j * np.pi / 3) * ones for k in cover.triples()},
        )
        rep = verify_gerbe(g)
        assert rep["passes"]
        assert rep["quadruples_checked"] == 0

    def test_constant_phases_satisfy_quadruple_condition(self):
        cover = circle_cover()
        ones = np.ones(cover.chart.shape, dtype=complex)
        g = GerbeData(
            cover,
            {k: ones for k in cover.pairs()},
            {k: np.exp(2j * np.pi / 3) * ones for k in cover.triples()},
        )
        rep = verify_gerbe(g)
        assert rep["passes"]
        assert rep["quadruples_checked"] == 1

    def test_perturbation_detected_at_its_size(self):
        cover = circle_cover()
        ones = np.ones(cover.chart.shape, dtype=complex)
        mu = {k: np.exp(2j * np.pi / 3) * ones for k in cover.triples()}
        key = sorted(mu)[0]
        mu[key] = mu[key] * np.exp(1j * 1e-3)
        rep = verify_gerbe(GerbeData(cover, {k: ones for k in cover.pairs()}, mu))
        assert not rep["passes"]
        assert abs(rep["max_violation"] - 1e-3) < 2e-7


class TestConnectiveAndCurving:
    def build(self):
        # synthesize coherent data from potentials: a_ij = phi_i - phi_j with
        # mu constant, so the coboundary condition holds with dlog mu = 0
        cover = circle_cover()
        chart = cover.chart
        rng = np.random.default_rng(0)
        phis = [random_scalar_form(rng, chart, {1}, 0.5, 2) for _ in cover.sets]
        forms = {
            (i, j): phis[i] - phis[j] for (i, j) in cover.pairs()
        }
        cs = ConnectiveStructure(cover, forms)
        ones = np.ones(chart.shape, dtype=complex)
        g = GerbeData(
            cover,
            {k: ones for k in cover.pairs()},
            {k: ones for k in cover.triples()},
        )
        return cover, cs, g, phis

    def test_connective_coherence(self):
        cover, cs, g, _ = self.build()
        rep = verify_connective(cs, g)
        assert rep["passes"]

    def test_curving_coherence_and_field_strength(self):
        cover, cs, g, phis = self.build()
        chart = cover.chart
        rng = np.random.default_rng(1)
        base = random_scalar_form(rng, chart, {1}, 0.4, 2)  # no 2-forms on T^1
        kappas = [exterior_d(phis[i]) for i in range(len(cover.sets))]
        k = Curving(cover, kappas)
        rep = verify_curving(k, cs)
        assert rep["passes"]
        h, hrep = curving_field_strength(k, cs)
        assert hrep["passes"]
        assert sup_norm(h) < 1e-10  # d of exact forms

    def test_field_strength_closed_form(self):
        chart = CH3
        z = chart.coordinate(2)
        kappa = GradedMatrixForm.from_scalar_field(
            chart, np.broadcast_to(np.sin(2 * np.pi * z), chart.shape), (0, 1)
        )
        cover = CechCover(chart, [OpenSet.whole(chart)])
        h, rep = curving_field_strength(Curving(cover, [kappa]), None)
        expect = GradedMatrixForm.from_scalar_field(
            chart,
            2 * np.pi * np.broadcast_to(np.cos(2 * np.pi * z), chart.shape),
            (0, 1, 2),
        )
        assert sup_norm(h - expect) < 1e-10
        assert rep["dH"] < 1e-10

    def test_shifted_curving_strength(self):
        chart = CH3
        rng = np.random.default_rng(2)
        kappa = random_scalar_form(rng, chart, {2}, 0.5, 1)
        tau = random_scalar_form(rng, chart, {2}, 0.5, 1)
        cover = CechCover(chart, [OpenSet.whole(chart)])
        h0, _ = curving_field_strength(Curving(cover, [kappa]), None)
        h1, _ = curving_field_strength(Curving(cover, [kappa + tau]), None)
        assert sup_norm(h1 - h0 - exterior_d(tau)) < 1e-10


class TestTwistedDeRham:
    def test_reduces_to_d(self, rng):
        xi = random_scalar_form(rng, CH3, {0, 1}, 1.0, 1)
        h = GradedMatrixForm.zeros(CH3, Grading.trivial(1))
        assert sup_norm(d_H(xi, h) - exterior_d(xi)) == 0.0

    def test_squares_to_zero(self, rng):
        kappa = random_scalar_form(rng, CH3, {2}, 0.7, 1)
        h = exterior_d(kappa)
        xi = random_scalar_form(rng, CH3, {0, 1, 2, 3}, 1.0, 1)
        assert sup_norm(d_H(d_H(xi, h), h)) < 1e-10

    def test_rejects_nonclosed_twist(self, rng):
        h = random_scalar_form(rng, CH3, {2}, 1.0, 1)  # a 2-form is not closed here
        xi = random_scalar_form(rng, CH3, {1}, 1.0, 1)
        with pytest.raises(ClosednessError):
            d_H(xi, h)

    def test_itau_inverse_and_degree_shift(self, rng):
        xi = random_scalar_form(rng, CH3, {1}, 1.0, 1)
        tau = random_scalar_form(rng, CH3, {2}, 0.8, 1)
        assert sup_norm(I_tau(I_tau(xi, tau), -1 * tau) - xi) < 1e-12
        out = I_tau(xi, tau)
        assert out.degrees_present(1e-12) == [1, 3]

    def test_itau_intertwines(self, rng):
        kappa = random_scalar_form(rng, CH3, {2}, 0.6, 1)
        h = exterior_d(kappa)
        tau = random_scalar_form(rng, CH3, {2}, 0.5, 1)
        xi = random_scalar_form(rng, CH3, {0, 1, 2}, 1.0, 1)
        lhs = I_tau(d_H(xi, h), tau)
        rhs = d_H(I_tau(xi, tau), h + exterior_d(tau))
        assert sup_norm(lhs - rhs) < 1e-10

    def test_exactness_solver(self, rng):
        kappa = random_scalar_form(rng, TorusChart(3, 8), {2}, 0.7, 1)
        h = exterior_d(kappa)
        primitive = random_scalar_form(rng, TorusChart(3, 8), {0, 1}, 0.5, 1)
        exact = d_H(primitive, h)
        ok, res = is_dH_exact(exact, kappa, tol=1e-8)
        assert ok and res < 1e-8
        const = GradedMatrixForm.from_scalar_field(
            TorusChart(3, 8), np.ones((8, 8, 8)), (0,)
        )
        ok2, _ = is_dH_exact(const, kappa, tol=1e-8)
        assert not ok2

    def test_exactness_closed_not_exact(self, rng):
        # I_kappa dx_1 is d_H-closed; I_{-kappa} of it is dx_1, harmonic part 1
        kappa = random_scalar_form(rng, TorusChart(3, 8), {2}, 0.7, 1)
        dx1 = GradedMatrixForm.from_scalar_field(TorusChart(3, 8), np.ones((8, 8, 8)), (1,))
        target = I_tau(dx1, kappa)
        assert sup_norm(d_H(target, exterior_d(kappa))) < 1e-10
        ok, res = is_dH_exact(target, kappa, tol=1e-8)
        assert not ok
        assert abs(res - 1.0) < 1e-12

    def test_exactness_nonclosed_target(self, rng):
        kappa = random_scalar_form(rng, TorusChart(3, 8), {2}, 0.7, 1)
        xi = random_scalar_form(rng, TorusChart(3, 8), {1}, 1.0, 1)
        closedness = sup_norm(d_H(xi, exterior_d(kappa)))
        assert closedness > 1.0
        ok, res = is_dH_exact(xi, kappa, tol=1e-8)
        assert not ok and res > 1.0

    def test_exactness_rejects_field_strength(self, rng):
        # a caller passing H = d kappa where the curving belongs: a 3-form is
        # not a global curving
        kappa = random_scalar_form(rng, TorusChart(3, 8), {2}, 0.7, 1)
        xi = random_scalar_form(rng, TorusChart(3, 8), {1}, 1.0, 1)
        with pytest.raises(ChartMismatchError):
            is_dH_exact(xi, exterior_d(kappa))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_itau_operator_bound(self, rng, dim):
        chart = TorusChart(dim, 8)
        kappa = random_scalar_form(rng, chart, {2}, 0.7, 1)
        bound = _itau_bound(kappa)
        assert bound >= 1.0 + sup_norm(kappa)
        for _ in range(8):
            delta = random_scalar_form(rng, chart, set(range(dim + 1)), 1.0, 2)
            assert sup_norm(I_tau(delta, kappa)) <= bound * sup_norm(delta)


class TestTwistedCalculus:
    def setup_scene(self, amp=0.05, kamp=0.06, n=16):
        chart = TorusChart(3, n)
        rng = np.random.default_rng(12)
        a = random_superconnection(
            rng, chart, G11, amp0=amp, amp1=0.6 * amp, max_mode=1, with_higher=False
        )
        kappa = random_scalar_form(rng, chart, {2}, kamp, 1)
        return chart, a, kappa, exterior_d(kappa)

    def test_zero_curving_reduces(self, rng):
        chart, a, kappa, h = self.setup_scene()
        assert sup_norm(twisted_chern(a, 0 * kappa) - chern_character(a)) == 0.0

    def test_theta_commutator_is_h(self):
        from superchern.forms import wedge_mul

        chart, a, kappa, h = self.setup_scene(amp=0.3, kamp=0.4)
        theta = twisted_theta(a, kappa)
        b = a.coeff
        comm = exterior_d(theta) + wedge_mul(b, theta) - wedge_mul(theta, b)
        # d (kappa . 1) = H . 1
        assert sup_norm(comm - exterior_d(_curving(kappa, a.grading))) < 1e-8
        # theta is even
        _, odd = theta.parity_split()
        assert odd.sup_norm() < 1e-12

    def test_twisted_chern_is_itau_of_chern(self):
        # a (2|1) bundle has a degree-0 character, so kappa ^ Ch_0 != 0 on T^3
        chart = TorusChart(3, 8)
        rng = np.random.default_rng(16)
        a = random_superconnection(rng, chart, Grading.balanced(2, 1), 0.3, 0.2, 1, False)
        kappa = random_scalar_form(rng, chart, {2}, 0.3, 1)
        ch, chk = chern_character(a), twisted_chern(a, kappa)
        tol = 1e-12 * sup_norm(ch)
        assert sup_norm(chk - I_tau(ch, kappa)) <= tol
        # a mutant I_{2 kappa} in place of I_kappa
        assert sup_norm(chk - I_tau(ch, 2 * kappa)) >= 10 * tol

    def test_twisted_chern_dh_closed(self):
        chart, a, kappa, h = self.setup_scene(amp=0.2, kamp=0.25, n=32)
        assert sup_norm(h) > 1.0
        assert sup_norm(d_H(twisted_chern(a, kappa), h)) < 1e-8

    def test_curving_shift_naturality(self, rng):
        chart, a, kappa, h = self.setup_scene(amp=0.3, kamp=0.3)
        tau = random_scalar_form(rng, chart, {2}, 0.3, 1)
        lhs = I_tau(twisted_chern(a, kappa), tau)
        rhs = twisted_chern(a, kappa + tau)
        assert sup_norm(lhs - rhs) < 1e-10

    def test_connective_change_leaves_theta(self, rng):
        chart, a, kappa, h = self.setup_scene(amp=0.3, kamp=0.3)
        phi = random_scalar_form(rng, chart, {1}, 0.4, 1)
        phi_emb = GradedMatrixForm.zeros(chart, a.grading)
        phi_emb.data[:] = phi.data[..., :1, :1] * np.eye(a.rank)
        a2 = Superconnection(a.coeff - phi_emb)
        theta2 = twisted_theta(a2, kappa + exterior_d(phi))
        assert sup_norm(theta2 - twisted_theta(a, kappa)) < 1e-10

    def test_twisted_transgression(self):
        chart, a0, kappa, h = self.setup_scene()
        rng = np.random.default_rng(13)
        a1 = random_superconnection(
            rng, chart, G11, amp0=0.05, amp1=0.03, max_mode=1, with_higher=False
        )
        cfg = QuadratureConfig(panels=4, order=10)
        eta = twisted_eta_between(a0, a1, kappa, cfg)
        res = twisted_chern(a1, kappa) - twisted_chern(a0, kappa) + d_H(eta.form, h)
        assert sup_norm(res) < 1e-8

    def test_twisted_additivity_mod_dh_exact(self):
        chart, a0, kappa, h = self.setup_scene(amp=0.04, kamp=0.05, n=16)
        rng = np.random.default_rng(14)
        mk = lambda: random_superconnection(
            rng, chart, G11, amp0=0.04, amp1=0.025, max_mode=1, with_higher=False
        )
        a1, a2 = mk(), mk()
        cfg = QuadratureConfig(panels=4, order=10)
        combo = (
            twisted_eta_between(a0, a1, kappa, cfg).form
            + twisted_eta_between(a1, a2, kappa, cfg).form
            - twisted_eta_between(a0, a2, kappa, cfg).form
        )
        ok, res = twisted_equal_mod_exact(
            combo, GradedMatrixForm.zeros(chart, Grading.trivial(1)), kappa, tol=1e-8
        )
        assert ok, res

    def test_twisted_collapse(self):
        chart = TorusChart(3, 16)
        rng = np.random.default_rng(15)
        from superchern.scenes import gapped_superconnection

        a = gapped_superconnection(
            rng, chart, gap=1.2, wiggle=0.015, phase_amp=0.04, amp1=0.02, max_mode=1
        )
        kappa = random_scalar_form(rng, chart, {2}, 0.03, 1)
        h = exterior_d(kappa)
        cfg = QuadratureConfig(panels=6, order=12)
        eta = twisted_eta_infinity(a, kappa, tol=1e-10, cfg=cfg)
        res = twisted_chern(a, kappa) - d_H(eta.form, h)
        assert sup_norm(res) < 1e-8 + eta.est_error

    def test_multi_chart_guard(self, rng):
        chart, a, kappa, h = self.setup_scene()
        bad = GradedMatrixForm.zeros(chart, Grading.balanced(1, 1))
        with pytest.raises(ChartMismatchError):
            twisted_theta(a, bad)
