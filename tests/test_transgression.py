"""Eta forms: transgression, additivity, homotopy invariance, infinity limit."""

import numpy as np
import pytest

from superchern import transgression
from superchern.errors import NotInvertibleError
from superchern.forms import (
    Grading,
    TorusChart,
    algebra_exp,
    exterior_d,
    harmonic_coefficients,
    sup_norm,
)
from superchern.oddk import sigma_lift
from superchern.scenes import (
    dirac_twist_superconnection,
    gapped_superconnection,
    random_odd_superconnection,
    random_scalar_form,
    random_superconnection,
    stabilization_scene,
)
from superchern.suites import (
    homotopy_residual,
    quadrature_estimates,
    stabilization_eta,
    stabilization_eta_infinity,
    transgression_residual,
)
from superchern.superconn import (
    Superconnection,
    affine_path,
    chern_character,
    curvature,
    rescale,
)
from superchern.transgression import (
    QuadratureConfig,
    _panel_nodes,
    eta_between,
    eta_infinity,
)
from superchern.twisted import _curving, twisted_theta

CH2 = TorusChart(2, 32)
G11 = Grading.balanced(1, 1)


def mk(seed, amp=0.22):
    rng = np.random.default_rng(seed)
    return random_superconnection(rng, CH2, G11, amp0=amp, amp1=0.7 * amp, max_mode=1)


class TestEtaBetween:
    def test_same_endpoints_vanish(self):
        a = mk(0)
        assert sup_norm(eta_between(a, a).form) < 1e-14

    def test_transgression_identity(self):
        a0, a1 = mk(1), mk(2)
        assert transgression_residual(a0, a1, eta_between(a0, a1).form) < 1e-8

    def test_vanishing_on_doubled_bundle(self, rng):
        # connection (+) connection against the same with a unit off-diagonal
        tilde, with_mass = stabilization_scene(rng, TorusChart(1, 32), 1, amp=0.5)
        assert stabilization_eta(tilde, with_mass) < 1e-10
        assert stabilization_eta_infinity(with_mass) < 1e-10

    def test_additivity_mod_exact(self):
        a0, a1, a2 = mk(3), mk(4), mk(5)
        combo = (
            eta_between(a0, a1).form
            + eta_between(a1, a2).form
            - eta_between(a0, a2).form
        )
        assert np.abs(harmonic_coefficients(combo)).max() < 1e-8
        # the combination is closed, so comparing harmonic parts decides it
        assert sup_norm(exterior_d(combo)) < 1e-5

    def test_homotopy_invariance(self):
        a0, a1, a2 = mk(6), mk(7), mk(8)
        assert homotopy_residual(a0, a1, a2, eta_between(a0, a1).form) < 1e-8

    def test_quadrature_order_ramp(self):
        est2, est4 = quadrature_estimates(mk(9), mk(10))
        assert est4 <= est2 / 100.0


class TestEtaInfinity:
    def test_point_base_even_vanishes(self):
        chp = TorusChart(0)
        t0 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        a = Superconnection.from_terms(chp, G11, t0)
        res = eta_infinity(a, tol=1e-12)
        assert sup_norm(res.form) < 1e-14

    def test_invertible_transgression(self, rng):
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15)
        eta = eta_infinity(a, tol=1e-10)
        res = sup_norm(chern_character(a) - exterior_d(eta.form))
        assert res < 1e-8 + eta.est_error
        assert eta.truncation_T > 1.0

    def test_requires_gap(self):
        a = Superconnection.trivial(CH2, G11)
        with pytest.raises(NotInvertibleError) as err:
            eta_infinity(a)
        assert err.value.min_gap == 0.0

    def test_product_rule_mod_exact(self, rng):
        # eta(product, inf) = eta(A1, inf) ^ Ch(A2) mod exact when A1 is gapped
        from superchern.superconn import product

        a1 = gapped_superconnection(
            rng, CH2, gap=1.2, wiggle=0.05, phase_amp=0.15, amp1=0.1
        )
        a2 = random_superconnection(rng, CH2, G11, amp0=0.18, amp1=0.12, max_mode=1)
        big = product(a1, a2)
        lhs = eta_infinity(big, tol=1e-10).form
        rhs = eta_infinity(a1, tol=1e-10).form.wedge(chern_character(a2))
        gap = np.abs(
            harmonic_coefficients(lhs) - harmonic_coefficients(rhs)
        ).max()
        assert gap < 1e-8

    def test_tail_parameters_respond_to_gap(self, rng):
        sharp = gapped_superconnection(rng, TorusChart(1, 32), gap=2.0)
        soft = gapped_superconnection(rng, TorusChart(1, 32), gap=0.6)
        t_sharp = eta_infinity(sharp, tol=1e-10).truncation_T
        t_soft = eta_infinity(soft, tol=1e-10).truncation_T
        assert t_soft > t_sharp


def _node_inputs(monkeypatch):
    """Records every algebra_exp input of the eta quadrature."""
    seen = []

    def spy(a, *args, **kwargs):
        seen.append(a)
        return algebra_exp(a, *args, **kwargs)

    monkeypatch.setattr(transgression, "algebra_exp", spy)
    return seen


def _nodes(a, b, cfg):
    full = _panel_nodes(a, b, cfg.panels, cfg.order)[0]
    return list(full) + list(_panel_nodes(a, b, cfg.panels, cfg.order // 2)[0])


def _assert_close(got, ref):
    assert sup_norm(got - ref) <= 1e-14 * max(sup_norm(ref), 1.0)


def _twisted_pair(rng):
    kappa = random_scalar_form(rng, CH2, {2}, 0.8)
    return mk(11), mk(12), _curving(kappa, G11), kappa


class TestNodeCurvature:
    """The per-node curvature from precomputed terms against a direct evaluation."""

    CFG = QuadratureConfig(panels=2, order=4)

    def _sigma_affine_pair(self):
        # a mode-shift family and a periodic perturbation of it, same slope
        ch = TorusChart(1, 32)
        a0 = dirac_twist_superconnection(ch, 1, modes=2, scale=2.0)
        bump = random_odd_superconnection(np.random.default_rng(15), ch, a0.rank, 0.4, 0.3, 1)
        a1 = Superconnection(a0.coeff + bump.coeff, a0.affine)
        return sigma_lift(a0), sigma_lift(a1)

    @pytest.mark.parametrize("scene", ["random", "sigma-affine", "twisted"])
    def test_linear_path(self, monkeypatch, rng, scene):
        curving = kappa = None
        if scene == "random":
            a0, a1 = mk(13), mk(14)
        elif scene == "sigma-affine":
            a0, a1 = self._sigma_affine_pair()
        else:
            a0, a1, curving, kappa = _twisted_pair(rng)
        seen = _node_inputs(monkeypatch)
        eta_between(a0, a1, self.CFG, curving=curving)
        path, _ = affine_path(a0, a1)
        ts = _nodes(0.0, 1.0, self.CFG)
        assert len(seen) == len(ts)
        for t, node in zip(ts, seen):
            ref = curvature(path(t)) if kappa is None else twisted_theta(path(t), kappa)
            _assert_close(-node, ref)

    @pytest.mark.parametrize("scene", ["gapped", "sigma-affine", "twisted"])
    def test_rescaled_family(self, monkeypatch, rng, scene):
        curving = kappa = None
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15)
        if scene == "sigma-affine":
            a = self._sigma_affine_pair()[0]
        elif scene == "twisted":
            kappa = random_scalar_form(rng, CH2, {2}, 0.8)
            curving = _curving(kappa, a.grading)
        seen = _node_inputs(monkeypatch)
        res = eta_infinity(a, tol=1e-10, cfg=self.CFG, gap=1.0, curving=curving)
        ts = [1.0] + _nodes(1.0, res.truncation_T, self.CFG)
        assert len(seen) == len(ts)
        for t, node in zip(ts, seen):
            at = rescale(a, t)
            ref = curvature(at) if kappa is None else twisted_theta(at, kappa)
            _assert_close(-node, ref)
