"""Eta forms: transgression, additivity, homotopy invariance, infinity limit."""

import math

import numpy as np
import pytest

from superchern import forms, transgression
from superchern.errors import NotInvertibleError
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    algebra_exp,
    exterior_d,
    harmonic_coefficients,
    sup_norm,
    trace_wedge,
)
from superchern.oddk import _sigma_weight, odd_eta_between, odd_eta_infinity, sigma_lift
from superchern.scenes import (
    dirac_twist_superconnection,
    gapped_odd_superconnection,
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
    min_gap,
    rescale,
)
from superchern.transgression import (
    _TAIL_SAFETY,
    QuadratureConfig,
    _gamma,
    _panel_nodes,
    eta_along_path,
    eta_between,
    eta_infinity,
)
from superchern.twisted import twisted_eta_between, twisted_eta_infinity, twisted_theta

CH2 = TorusChart(2, 32)
CH3 = TorusChart(3, 8)
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


def _first_args(monkeypatch, name="neg_exp"):
    """Records the first argument of every call transgression makes to name:
    for neg_exp, every node curvature of the eta quadrature, which the call
    negates in place into the node's exponent."""
    seen = []
    original = getattr(transgression, name)

    def spy(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(transgression, name, spy)
    return seen


def _nodes(a, b, cfg):
    full = _panel_nodes(a, b, cfg.panels, cfg.order)[0]
    return list(full) + list(_panel_nodes(a, b, cfg.panels, cfg.order // 2)[0])


def _assert_close(got, ref, rel=1e-14):
    assert sup_norm(got - ref) <= rel * max(sup_norm(ref), 1.0)


def _sigma_affine_pair(seed=15):
    # a mode-shift family and a periodic perturbation of it, same slope
    ch = TorusChart(1, 32)
    a0 = dirac_twist_superconnection(ch, 1, modes=2, scale=2.0)
    bump = random_odd_superconnection(np.random.default_rng(seed), ch, a0.rank, 0.4, 0.3, 1)
    a1 = Superconnection(a0.coeff + bump.coeff, a0.affine)
    return sigma_lift(a0), sigma_lift(a1)


def _twisted_pair(rng):
    # on T^3 kappa meets the degree-1 part of eta; on T^2 kappa ^ eta = 0
    a0, a1 = (random_superconnection(rng, CH3, G11, 0.22, 0.154, 1) for _ in range(2))
    return a0, a1, random_scalar_form(rng, CH3, {2}, 0.8)


def _detour(a0, a1, a2):
    """Coefficients [P1, P2] of homotopy_residual's quadratic detour through a2."""
    detour = a2.coeff - 0.5 * (a0.coeff + a1.coeff)
    return [(a1.coeff - a0.coeff) + 4 * detour, -4 * detour]


def _polynomial_scene(scene):
    """a0 and the coefficients of a quadratic path, with or without affine slopes."""
    if scene == "random":
        a0, a1, a2 = mk(6), mk(7), mk(8)
    else:
        (a0, a1), a2 = _sigma_affine_pair(), _sigma_affine_pair(16)[1]
    return a0, _detour(a0, a1, a2)


def _polynomial_path(a0, coeffs):
    """t -> the superconnection d + B_0 + sum_j t^j P_j, with a0's slopes."""
    return lambda t: Superconnection(
        a0.coeff + sum((t**j * p for j, p in enumerate(coeffs[1:], 2)), t * coeffs[0]),
        a0.affine,
    )


class TestNodeCurvature:
    """The per-node curvature from precomputed terms against a direct evaluation."""

    CFG = QuadratureConfig(panels=2, order=4)

    @pytest.mark.parametrize("scene", ["random", "sigma-affine"])
    def test_linear_path(self, monkeypatch, scene):
        a0, a1 = (mk(13), mk(14)) if scene == "random" else _sigma_affine_pair()
        seen = _first_args(monkeypatch)
        eta_between(a0, a1, self.CFG)
        path, _ = affine_path(a0, a1)
        ts = _nodes(0.0, 1.0, self.CFG)
        assert len(seen) == len(ts)
        for t, node in zip(ts, seen):
            _assert_close(-node, curvature(path(t)))

    @pytest.mark.parametrize("scene", ["random", "sigma-affine"])
    def test_polynomial_path(self, monkeypatch, scene):
        a0, coeffs = _polynomial_scene(scene)
        seen = _first_args(monkeypatch)
        eta_along_path(a0, coeffs, self.CFG)
        path = _polynomial_path(a0, coeffs)
        ts = _nodes(0.0, 1.0, self.CFG)
        assert len(seen) == len(ts)
        # F(t) sums t^k F_k, whose terms exceed F(t) several times over
        for t, node in zip(ts, seen):
            _assert_close(-node, curvature(path(t)), rel=1e-13)

    @pytest.mark.parametrize("scene", ["gapped", "sigma-affine"])
    def test_rescaled_family(self, monkeypatch, rng, scene):
        a = gapped_superconnection(rng, CH2, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15)
        if scene == "sigma-affine":
            a = _sigma_affine_pair()[0]
        seen = _first_args(monkeypatch)
        res = eta_infinity(a, tol=1e-10, cfg=self.CFG, gap=1.0)
        ts = [1.0] + _nodes(1.0, res.truncation_T, self.CFG)
        assert len(seen) == len(ts)
        for t, node in zip(ts, seen):
            _assert_close(-node, curvature(rescale(a, t)))


# -- the per-rule contraction against a per-node one ----------------------------


def _rescaled_derivative(a, t):
    """d/dt of the rescaled coefficient form: (1 - i) t^-i on degree i."""
    out = GradedMatrixForm.zeros(a.chart, a.grading)
    for mask in range(a.chart.n_components):
        deg = bin(mask).count("1")
        if deg != 1:
            out.data[mask] = a.coeff.data[mask] * ((1 - deg) * t ** (-deg))
    return out


def _per_node_quadrature(theta, deriv, w, lo, hi, cfg):
    """Gauss rule and order-halving estimate of Tr(w (deriv(t) ^ exp(-theta(t)))),
    contracting at every node."""

    def rule(order):
        ts, ws = _panel_nodes(lo, hi, cfg.panels, order)
        total = None
        for t, wt in zip(ts, ws):
            t = float(t)
            val = trace_wedge(w, deriv(t), algebra_exp(-theta(t))) * wt
            total = val if total is None else total + val
        return total

    full, coarse = rule(cfg.order), rule(cfg.order // 2)
    return full, (full - coarse).sup_norm()


def _theta(kappa):
    return curvature if kappa is None else (lambda a: twisted_theta(a, kappa))


def _reference_between(a0, a1, cfg, w=None, kappa=None):
    path, diff = affine_path(a0, a1)
    theta = _theta(kappa)
    w = _gamma(a0) if w is None else w
    return _per_node_quadrature(lambda t: theta(path(t)), lambda t: diff, w, 0.0, 1.0, cfg)


def _reference_infinity(a, tol, cfg, w=None, kappa=None, t_max=None):
    theta = _theta(kappa)
    w = _gamma(a) if w is None else w
    c = min_gap(a)
    start = trace_wedge(w, _rescaled_derivative(a, 1.0), algebra_exp(-theta(a)))
    big_c = max(start.sup_norm(), tol) * _TAIL_SAFETY
    if t_max is None:
        t_max = max(math.sqrt(2.0 * math.log(big_c / tol)) / c, 1.0 + 0.5 / c)
    form, est = _per_node_quadrature(
        lambda t: theta(rescale(a, t)), lambda t: _rescaled_derivative(a, t), w, 1.0, t_max, cfg
    )
    return form, est + big_c * math.exp(-0.5 * (c * t_max) ** 2), t_max


def _assert_matches(res, form, est):
    scale = sup_norm(form)
    assert scale > 1e-6
    assert sup_norm(res.form - form) <= 1e-13 * scale
    assert abs(res.est_error - est) <= 1e-13 * scale
    assert est > 1e-8 * scale  # far above round-off, so the estimates are compared


def _assert_twisted_matches(res, untwisted, form, est):
    """res = I_kappa(untwisted) against the node-by-node exp(-(F + kappa)) form
    and estimate: the same form, a visible twist, and an estimate that bounds
    both the untwisted one and the twisted order-halving difference."""
    scale = sup_norm(form)
    assert sup_norm(res.form - form) <= 1e-13 * scale
    assert sup_norm(untwisted.form - form) > 0.1 * scale
    assert res.est_error >= untwisted.est_error
    assert res.est_error >= est - 1e-13 * scale


class TestContractionPerRule:
    """eta_between and eta_infinity sum the weighted heats of each rule before
    the trace; a contraction at every node gives the same forms and estimates."""

    CFG = QuadratureConfig(panels=2, order=4)

    @pytest.mark.parametrize("scene", ["random", "sigma-affine", "twisted"])
    def test_linear_path(self, rng, scene):
        w = None
        if scene == "twisted":
            # exp(-(F + kappa)) at every node against I_kappa of the untwisted form
            a0, a1, kappa = _twisted_pair(rng)
            res = twisted_eta_between(a0, a1, kappa, self.CFG)
            ref = _reference_between(a0, a1, self.CFG, kappa=kappa)
            _assert_twisted_matches(res, eta_between(a0, a1, self.CFG), *ref)
            return
        if scene == "random":
            a0, a1 = mk(13), mk(14)
        else:
            # Str vanishes on sigma lifts; the odd variant's weight does not
            a0, a1 = _sigma_affine_pair()
            w = _sigma_weight(a0.rank)
        res = eta_between(a0, a1, self.CFG, weight=w)
        _assert_matches(res, *_reference_between(a0, a1, self.CFG, w=w))

    @pytest.mark.parametrize("scene", ["gapped", "with-higher", "twisted"])
    def test_rescaled_family(self, rng, scene):
        # on T^2 the total-odd degree-2 term is gamma-odd and meets only the
        # gamma-even degree-0 heat, so its supertrace vanishes; T^3 sees it.
        # The twisted scene needs T^3 too: kappa ^ eta = 0 on T^2
        higher = scene == "with-higher"
        a = gapped_superconnection(
            rng, CH2 if scene == "gapped" else CH3, gap=1.0, wiggle=0.06,
            phase_amp=0.2, amp1=0.15, with_higher=higher,
        )
        assert (2 in a.coeff.degrees_present()) == higher
        res = eta_infinity(a, tol=1e-10, cfg=self.CFG)
        if scene == "twisted":
            kappa = random_scalar_form(rng, CH3, {2}, 0.8)
            twisted = twisted_eta_infinity(a, kappa, tol=1e-10, cfg=self.CFG)
            assert twisted.truncation_T == res.truncation_T
            ref = _reference_infinity(a, 1e-10, self.CFG, kappa=kappa, t_max=res.truncation_T)
            _assert_twisted_matches(twisted, res, *ref[:2])
            return
        form, est, t_max = _reference_infinity(a, 1e-10, self.CFG)
        assert abs(res.truncation_T - t_max) <= 1e-13 * t_max
        _assert_matches(res, form, est)

    def test_polynomial_path(self):
        a0, coeffs = _polynomial_scene("random")
        path = _polynomial_path(a0, coeffs)

        def deriv(t):
            return coeffs[0] + (2 * t) * coeffs[1]

        ref = _per_node_quadrature(
            lambda t: curvature(path(t)), deriv, _gamma(a0), 0.0, 1.0, self.CFG
        )
        _assert_matches(eta_along_path(a0, coeffs, self.CFG), *ref)

    def test_odd_linear_path(self, rng):
        ch = TorusChart(1, 32)
        a0, a1 = (random_odd_superconnection(rng, ch, 2, 0.4, 0.3, 1) for _ in range(2))
        lifted0, lifted1 = sigma_lift(a0), sigma_lift(a1)
        w = _sigma_weight(lifted0.rank)
        ref = _reference_between(lifted0, lifted1, self.CFG, w=w)
        _assert_matches(odd_eta_between(a0, a1, self.CFG), *ref)

    def test_odd_rescaled_family(self, rng):
        a = gapped_odd_superconnection(rng, TorusChart(1, 32), 2.2)
        lifted = sigma_lift(a)
        form, est, _ = _reference_infinity(lifted, 1e-10, self.CFG, w=_sigma_weight(lifted.rank))
        _assert_matches(odd_eta_infinity(a, tol=1e-10, cfg=self.CFG), form, est)


class TestContractionCount:
    """One exponential per node, one trace per rule and per degree part of dA/dt."""

    CH = TorusChart(2, 8)

    def _counts(self, monkeypatch, run):
        exps = _first_args(monkeypatch)
        traces = _first_args(monkeypatch, "trace_wedge")
        run()
        return len(exps), len(traces)

    def test_linear_path(self, monkeypatch):
        rng = np.random.default_rng(3)
        a0, a1 = (random_superconnection(rng, self.CH, G11, 0.22, 0.16, 1) for _ in range(2))
        assert self._counts(monkeypatch, lambda: eta_between(a0, a1)) == (192, 2)
        coarse = QuadratureConfig(panels=4, order=2)
        assert self._counts(monkeypatch, lambda: eta_between(a0, a1, coarse)) == (12, 2)

    def test_polynomial_path(self, monkeypatch):
        rng = np.random.default_rng(3)
        a0, a1, a2 = (random_superconnection(rng, self.CH, G11, 0.22, 0.16, 1) for _ in range(3))
        coeffs = _detour(a0, a1, a2)
        assert self._counts(monkeypatch, lambda: eta_along_path(a0, coeffs)) == (192, 4)

    @pytest.mark.parametrize("with_higher, parts", [(False, 1), (True, 2)])
    def test_rescaled_family(self, monkeypatch, with_higher, parts):
        a = gapped_superconnection(
            np.random.default_rng(1), self.CH, gap=1.0, wiggle=0.06, phase_amp=0.2,
            amp1=0.15, with_higher=with_higher,
        )
        counts = self._counts(monkeypatch, lambda: eta_infinity(a, tol=1e-10))
        assert counts == (193, 1 + 2 * parts)


class TestPolynomialPath:
    """eta_along_path on the shared core: its linear case, its quadrature error
    and the central evaluation at every node."""

    def test_linear_path_is_eta_between(self):
        a0, a1 = mk(13), mk(14)
        res = eta_along_path(a0, [a1.coeff - a0.coeff])
        ref = eta_between(a0, a1)
        assert sup_norm(res.form - ref.form) <= 1e-13
        assert abs(res.est_error - ref.est_error) <= 1e-13

    def test_quadratic_path_against_finer_rule(self):
        a0, coeffs = _polynomial_scene("random")
        res = eta_along_path(a0, coeffs)
        ref = eta_along_path(a0, coeffs, QuadratureConfig(panels=16, order=16))
        assert sup_norm(res.form) > 1e-3
        assert sup_norm(res.form - ref.form) <= res.est_error + 1e-13

    def test_every_node_is_central(self, monkeypatch):
        # F(t) by Horner's rule leaves the (1|1) degree-0 part |phi|^2 1 short
        # of central by round-off; B_[0](t)^2 is exactly central
        a0, coeffs = _polynomial_scene("random")
        nodes = _first_args(monkeypatch)
        pade = []
        original = forms._left_regular_exp

        def spy(x, table):
            pade.append(x)
            return original(x, table)

        monkeypatch.setattr(forms, "_left_regular_exp", spy)
        eta_along_path(a0, coeffs)
        assert len(nodes) == 192
        assert pade == []
