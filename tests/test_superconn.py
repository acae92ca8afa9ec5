"""Superconnection operations: curvature, Chern character, rescale, sums,
products, gauge action."""

import numpy as np
import pytest

from superchern.errors import ChartMismatchError, ParityError, ValidationWarning
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    algebra_exp,
    exterior_d,
    sup_norm,
    wedge_mul,
)
from superchern.oddk import sigma_lift
from superchern.relative import core_min_gap, index_projectors
from superchern.scenes import (
    band_limited_field,
    dirac_twist_superconnection,
    gapped_superconnection,
    random_conn1,
    random_gauge,
    random_superconnection,
    winding_testbed,
)
from superchern.superconn import (
    GaugeTransform,
    Superconnection,
    chern_character,
    closedness_defect,
    curvature,
    direct_sum,
    gauge,
    min_gap,
    neg_exp,
    product,
    projected_connection,
    rescale,
)

CH1 = TorusChart(1, 32)
CH2 = TorusChart(2, 32)
G11 = Grading.balanced(1, 1)


class TestCurvature:
    def test_bare_d_is_flat(self):
        a = Superconnection.trivial(CH2, G11)
        assert sup_norm(curvature(a)) == 0.0

    def test_point_offdiagonal_square(self):
        chp = TorusChart(0)
        lam = 0.7
        t0 = np.array([[0.0, lam], [lam, 0.0]], dtype=complex)
        a = Superconnection.from_terms(chp, G11, t0)
        f = curvature(a)
        assert np.abs(f.data[0] - lam**2 * np.eye(2)).max() < 1e-14

    def test_line_bundle_curvature_matches_derivative(self):
        # rank-1 twisted line on the circle: F has no 2-form part, and the
        # derivative entering dB matches the closed form (and second-order
        # finite differences at the expected rate)
        x = CH1.coordinate(0)
        alpha = np.sin(2 * np.pi * x)
        w = (1j * alpha)[..., None, None]
        a = Superconnection.from_terms(CH1, Grading.trivial(1), None, [w])
        f = curvature(a)
        assert sup_norm(f) < 1e-12  # dx ^ dx on the circle
        deriv = exterior_d(
            GradedMatrixForm.from_scalar_field(CH1, alpha)
        ).component((0,))[..., 0, 0]
        closed_form = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.abs(deriv - closed_form).max() < 1e-10
        n = CH1.grid_size
        fd = (np.roll(alpha, -1) - np.roll(alpha, 1)) * (n / 2.0)
        fd_err = np.abs(fd - closed_form).max()
        assert fd_err < (2 * np.pi) ** 3 / (6 * n**2) * 1.1

    def test_parity_validation(self, rng):
        bad0 = band_limited_field(rng, CH1, (2, 2), 1, 1.0)  # not hermitian/odd
        a = Superconnection.from_terms(CH1, G11, bad0)
        with pytest.warns(ValidationWarning):
            problems = a.validate(strict=False)
        assert problems
        with pytest.raises(ParityError):
            a.validate(strict=True)
        good = random_superconnection(rng, CH1, G11)
        assert good.validate(strict=True) == []


def _same_bits(got, ref):
    """Equal float64 words, the sign of every zero included."""
    got, ref = got.view(np.float64), ref.view(np.float64)
    return np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def _bit_scenes():
    """Superconnections with every term, pure connections, and affine slopes."""
    rng = np.random.default_rng(77)
    ch3 = TorusChart(3, 8)
    return {
        "random-T2": random_superconnection(rng, CH2, Grading.balanced(2, 1)),
        "connection-T2": Superconnection.from_terms(CH2, G11, None, random_conn1(rng, CH2, G11)),
        "connection-T3": Superconnection.from_terms(ch3, G11, None, random_conn1(rng, ch3, G11)),
        "affine-T1": sigma_lift(dirac_twist_superconnection(CH1, 1, modes=2)),
    }


class TestBitIdentity:
    """The in-place forms against the whole-array expressions they replace."""

    @pytest.mark.parametrize("scene", sorted(_bit_scenes()))
    def test_curvature_is_db_plus_square(self, scene):
        a = _bit_scenes()[scene]
        b = a.coeff
        if a.affine:
            db = exterior_d(b - a._affine_value_form())
            for axis, slope in a.affine.items():
                db.data[1 << axis] += slope
        else:
            db = exterior_d(b)
        assert _same_bits(curvature(a).data, (db + wedge_mul(b, b)).data)

    @pytest.mark.parametrize("scene", sorted(_bit_scenes()))
    def test_neg_exp_is_exp_of_negated_curvature(self, scene):
        a = _bit_scenes()[scene]
        f = curvature(a)
        heat = neg_exp(f)
        assert _same_bits(f.data, (-curvature(a)).data)  # negated in place
        assert _same_bits(heat.data, algebra_exp(-curvature(a)).data)

    @pytest.mark.parametrize("scene", ["winding", "winding-omega", "rotating-line"])
    def test_projected_connection_is_the_exterior_d_blend(self, scene):
        if scene == "rotating-line":
            # a line turning along axis 0 only: dP along axis 1 is all (signed) zeros
            chart, grading = TorusChart(2, 16), G11
            angle = np.pi * np.sin(2 * np.pi * chart.coordinate(0))
            line = np.stack([np.cos(angle), np.sin(angle)], axis=-1).astype(complex)
            p = line[..., :, None] * line[..., None, :]
        else:
            a, _, u, _ = winding_testbed(16)
            chart, grading = a.chart, a.grading.concat(a.grading.flip())
            p = index_projectors(a, u, 0.75 * core_min_gap(a, u), ("gauss", 10.5)).p
        omega_axes = [None] * chart.dim
        if scene == "winding-omega":
            conn = random_conn1(np.random.default_rng(5), chart, grading, amp=0.5, max_mode=1)
            omega_axes[1] = conn[1]
        dp = exterior_d(GradedMatrixForm.from_matrix_field(chart, grading, p))
        ref = GradedMatrixForm.zeros(chart, grading)
        for axis, w in enumerate(omega_axes):
            dpa = dp.data[1 << axis]
            blend = 2.0 * (p @ dpa) - dpa
            if w is not None:
                p_perp = np.eye(grading.rank) - p
                blend = blend + p @ w @ p + p_perp @ w @ p_perp
            ref.data[1 << axis] = blend
        got = projected_connection(p, omega_axes, chart, grading)
        assert _same_bits(got.coeff.data, ref.data)


class TestChern:
    def test_trivial_graded_rank(self):
        a = Superconnection.trivial(CH1, Grading.balanced(2, 1))
        ch = chern_character(a)
        assert np.allclose(ch.component(())[..., 0, 0], 1.0)

    def test_point_balanced_vanishes(self):
        chp = TorusChart(0)
        t0 = np.array([[0.0, 1.3], [1.3, 0.0]], dtype=complex)
        a = Superconnection.from_terms(chp, G11, t0)
        assert sup_norm(chern_character(a)) < 1e-15

    def test_closedness_and_commutator_ramp(self, rng):
        a = random_superconnection(rng, CH2, G11, amp0=0.3, amp1=0.22, max_mode=1)
        assert sup_norm(exterior_d(chern_character(a))) < 1e-8
        x = GradedMatrixForm(
            CH2,
            G11,
            np.stack([band_limited_field(rng, CH2, (2, 2), 1, 0.4) for _ in range(4)]),
        )
        r32 = sup_norm(closedness_defect(a, x))
        fine = TorusChart(2, 64)
        rng2 = np.random.default_rng(99)
        a2 = random_superconnection(rng2, fine, G11, amp0=0.3, amp1=0.22, max_mode=1)
        x2 = GradedMatrixForm(
            fine,
            G11,
            np.stack(
                [band_limited_field(rng2, fine, (2, 2), 1, 0.4) for _ in range(4)]
            ),
        )
        rng3 = np.random.default_rng(99)
        a32 = random_superconnection(rng3, CH2, G11, amp0=0.3, amp1=0.22, max_mode=1)
        x32 = GradedMatrixForm(
            CH2,
            G11,
            np.stack(
                [band_limited_field(rng3, CH2, (2, 2), 1, 0.4) for _ in range(4)]
            ),
        )
        r32b = sup_norm(closedness_defect(a32, x32))
        r64 = sup_norm(closedness_defect(a2, x2))
        assert r64 <= 0.1 * r32b


class TestRescale:
    def test_identity_at_one(self, rng):
        a = random_superconnection(rng, CH2, G11)
        assert sup_norm(rescale(a, 1.0).coeff - a.coeff) == 0.0

    def test_term0_scaling(self, rng):
        a = random_superconnection(rng, CH1, G11, amp1=0.0)
        doubled = rescale(a, 2.0)
        assert np.allclose(doubled.term0_field(), 2.0 * a.term0_field())

    def test_group_law(self, rng):
        a = random_superconnection(rng, CH2, G11)
        st = rescale(rescale(a, 1.7), 0.4)
        direct = rescale(a, 1.7 * 0.4)
        assert sup_norm(st.coeff - direct.coeff) < 1e-12

    def test_rejects_nonpositive(self, rng):
        a = random_superconnection(rng, CH1, G11)
        with pytest.raises(ValueError):
            rescale(a, 0.0)


class TestDirectSumAndProduct:
    def test_sum_with_rank_zero(self, rng):
        a = random_superconnection(rng, CH1, G11)
        zero = Superconnection.trivial(CH1, Grading(np.zeros(0)))
        s = direct_sum(a, zero)
        assert sup_norm(s.coeff - a.coeff) == 0.0

    def test_block_structure(self, rng):
        a = random_superconnection(rng, CH1, G11)
        b = random_superconnection(rng, CH1, Grading.balanced(2, 1))
        s = direct_sum(a, b)
        assert np.array_equal(
            s.grading.signature,
            np.concatenate([a.grading.signature, b.grading.signature]),
        )
        assert np.allclose(s.term0_field()[..., :2, :2], a.term0_field())

    def test_chern_additive(self, rng):
        a = random_superconnection(rng, CH2, G11, 0.3, 0.2, 1)
        b = random_superconnection(rng, CH2, Grading.balanced(2, 1), 0.3, 0.2, 1)
        gap = chern_character(direct_sum(a, b)) - chern_character(a) - chern_character(b)
        assert sup_norm(gap) < 1e-10

    def test_product_unit(self, rng):
        a = random_superconnection(rng, CH1, G11)
        unit = Superconnection.trivial(CH1, Grading.trivial(1))
        p = product(a, unit)
        assert sup_norm(p.coeff - a.coeff) == 0.0

    def test_product_term0_square_splits(self, rng):
        a = random_superconnection(rng, CH1, G11, amp1=0.0)
        b = random_superconnection(rng, CH1, Grading.balanced(1, 1), amp1=0.0)
        p = product(a, b)
        t0 = p.term0_field()
        sq = t0 @ t0
        expect = np.einsum(
            "...ij,kl->...ikjl", a.term0_field() @ a.term0_field(), np.eye(2)
        ).reshape(sq.shape) + np.einsum(
            "ij,...kl->...ikjl", np.eye(2), b.term0_field() @ b.term0_field()
        ).reshape(sq.shape)
        assert np.abs(sq - expect).max() < 1e-12

    def test_chern_multiplicative(self, rng):
        a = random_superconnection(rng, CH2, G11, 0.3, 0.2, 1)
        b = random_superconnection(rng, CH2, Grading.balanced(1, 1), 0.3, 0.2, 1)
        lhs = chern_character(product(a, b))
        rhs = chern_character(a).wedge(chern_character(b))
        assert sup_norm(lhs - rhs) < 1e-8

    def test_chart_mismatch(self, rng):
        a = random_superconnection(rng, CH1, G11)
        b = random_superconnection(rng, TorusChart(1, 16), G11)
        with pytest.raises(ChartMismatchError):
            direct_sum(a, b)
        with pytest.raises(ChartMismatchError):
            product(a, b)


class TestMinGap:
    def test_constant_offdiagonal(self):
        chp = TorusChart(0)
        t0 = np.array([[0.0, 0.8], [0.8, 0.0]], dtype=complex)
        assert abs(min_gap(Superconnection.from_terms(chp, G11, t0)) - 0.8) < 1e-14

    def test_zero_term(self):
        assert min_gap(Superconnection.trivial(CH1, G11)) == 0.0

    def test_pointwise_minimum(self):
        x = CH1.coordinate(0)
        h = 2.0 + np.sin(2 * np.pi * x)
        t0 = np.zeros(CH1.shape + (2, 2), dtype=complex)
        t0[..., 0, 1] = h
        t0[..., 1, 0] = h
        a = Superconnection.from_terms(CH1, G11, t0)
        assert abs(min_gap(a) - 1.0) < 1e-12


class TestGauge:
    def test_identity_gauge(self, rng):
        a = random_superconnection(rng, CH1, G11)
        g = GaugeTransform(CH1, G11, np.eye(2))
        assert sup_norm(gauge(a, g).coeff - a.coeff) == 0.0

    def test_chern_invariance(self, rng):
        a = random_superconnection(rng, CH2, G11, 0.3, 0.2, 1)
        g = random_gauge(rng, CH2, G11, amp=0.5, max_mode=1)
        gap = chern_character(gauge(a, g)) - chern_character(a)
        assert sup_norm(gap) < 1e-10

    def test_group_action_roundtrip(self, rng):
        a = random_superconnection(rng, CH1, G11, 0.5, 0.4, 1)
        g = random_gauge(rng, CH1, G11, amp=0.5, max_mode=1)
        back = gauge(gauge(a, g), g.inverse())
        assert sup_norm(back.coeff - a.coeff) < 1e-10

    def test_curvature_conjugates(self, rng):
        a = random_superconnection(rng, CH1, G11, 0.5, 0.4, 1)
        g = random_gauge(rng, CH1, G11, amp=0.4, max_mode=1)
        f = curvature(a)
        fg = curvature(gauge(a, g))
        u = g.field
        u_inv = np.conj(np.swapaxes(u, -1, -2))
        conj = GradedMatrixForm(CH1, G11, np.stack([u @ f.data[m] @ u_inv for m in range(2)]))
        assert sup_norm(fg - conj) < 1e-10

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            GaugeTransform(CH1, G11, 2.0 * np.eye(2))

    def test_gapped_scene_has_requested_gap(self, rng):
        a = gapped_superconnection(rng, CH2, gap=0.8)
        assert min_gap(a) >= 0.8
