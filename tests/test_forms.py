"""Graded form algebra: wedge, derivative, supertrace, exponential, periods."""

import itertools

import numpy as np
import pytest
import scipy.linalg as sla

from superchern import forms
from superchern.dk import DKCocycle
from superchern.errors import (
    ChartMismatchError,
    ClosednessError,
    CycleError,
    ParityError,
    ParityWarning,
)
from superchern.forms import (
    GradedMatrixForm,
    Grading,
    TorusChart,
    algebra_exp,
    equal_mod_exact,
    expm_batched,
    exterior_d,
    harmonic_part,
    integrate,
    left_regular_matrix,
    matrix_trace,
    sup_norm,
    supertrace,
    trace_wedge,
    wedge_mul,
)
from superchern.oddk import _sigma_weight, sigma_lift, suspend, tr_sigma
from superchern.scenes import (
    band_limited_field,
    dirac_twist_superconnection,
    random_scalar_form,
    random_superconnection,
)
from superchern.superconn import curvature, direct_sum, product
from superchern.twisted import twisted_theta


def random_form(chart, grading, seed, amp=1.0):
    r = np.random.default_rng(seed)
    m = grading.rank
    shape = (chart.n_components,) + chart.shape + (m, m)
    return GradedMatrixForm(
        chart, grading, amp * (r.standard_normal(shape) + 1j * r.standard_normal(shape))
    )


class TestChart:
    def test_validation(self):
        with pytest.raises(ValueError):
            TorusChart(4)
        with pytest.raises(ValueError):
            TorusChart(1, 3)
        with pytest.raises(ValueError):
            TorusChart(2, 24)  # not a power of two
        assert TorusChart(0).shape == ()
        assert TorusChart(2, 16).n_components == 4

    def test_coordinates(self):
        ch = TorusChart(2, 8)
        x = ch.coordinate(0)
        assert x.shape == (8, 1)
        assert x.max() < 1.0


class TestWedge:
    def test_dx_wedge_dx_vanishes(self):
        ch = TorusChart(2, 8)
        dx = GradedMatrixForm.from_scalar_field(ch, np.ones(ch.shape), (0,))
        assert sup_norm(wedge_mul(dx, dx)) == 0.0

    def test_scalar_bilinearity(self, rng):
        ch = TorusChart(2, 16)
        f = band_limited_field(rng, ch, (), 2, 1.0)
        g = band_limited_field(rng, ch, (), 2, 1.0)
        fdx = GradedMatrixForm.from_scalar_field(ch, f, (0,))
        gdy = GradedMatrixForm.from_scalar_field(ch, g, (1,))
        prod = wedge_mul(fdx, gdy)
        assert np.allclose(prod.component((0, 1))[..., 0, 0], f * g)

    def test_associativity(self):
        ch = TorusChart(2, 8)
        grading = Grading.balanced(1, 1)
        a, b, c = (random_form(ch, grading, s) for s in (1, 2, 3))
        lhs = wedge_mul(wedge_mul(a, b), c)
        rhs = wedge_mul(a, wedge_mul(b, c))
        assert sup_norm(lhs - rhs) < 1e-12

    def test_chart_mismatch(self):
        a = random_form(TorusChart(1, 8), Grading.trivial(1), 0)
        b = random_form(TorusChart(1, 16), Grading.trivial(1), 0)
        with pytest.raises(ChartMismatchError):
            wedge_mul(a, b)

    def test_left_regular_multiplicative(self):
        ch = TorusChart(2, 8)
        grading = Grading.balanced(1, 1)
        a, b = random_form(ch, grading, 4), random_form(ch, grading, 5)
        rho_ab = left_regular_matrix(wedge_mul(a, b))
        assert (
            np.abs(left_regular_matrix(a) @ left_regular_matrix(b) - rho_ab).max()
            < 1e-12
        )


class TestExteriorD:
    def test_constant_is_closed(self):
        ch = TorusChart(2, 16)
        one = GradedMatrixForm.identity(ch, Grading.trivial(2))
        assert sup_norm(exterior_d(one)) == 0.0

    def test_closed_form_derivative(self):
        ch = TorusChart(1, 32)
        x = ch.coordinate(0)
        f = GradedMatrixForm.from_scalar_field(ch, np.sin(2 * np.pi * x))
        df = exterior_d(f)
        target = 2 * np.pi * np.cos(2 * np.pi * x)
        assert np.abs(df.component((0,))[..., 0, 0] - target).max() < 1e-12

    def test_d_squared(self, rng):
        ch = TorusChart(3, 8)
        a = random_scalar_form(rng, ch, {0, 1, 2}, 1.0, 1)
        assert sup_norm(exterior_d(exterior_d(a))) < 1e-12

    def test_graded_leibniz_band_limited(self, rng):
        ch = TorusChart(2, 32)
        grading = Grading.balanced(1, 1)
        data_a = np.stack(
            [band_limited_field(rng, ch, (2, 2), 2, 0.8) for _ in range(4)]
        )
        data_b = np.stack(
            [band_limited_field(rng, ch, (2, 2), 2, 0.8) for _ in range(4)]
        )
        a = GradedMatrixForm(ch, grading, data_a)
        b = GradedMatrixForm(ch, grading, data_b)
        a_even, a_odd = a.parity_split()
        for part, sign in ((a_even, 1.0), (a_odd, -1.0)):
            lhs = exterior_d(wedge_mul(part, b))
            rhs = wedge_mul(exterior_d(part), b) + sign * wedge_mul(part, exterior_d(b))
            assert sup_norm(lhs - rhs) < 1e-10

    def test_point_chart(self):
        ch = TorusChart(0)
        a = random_form(ch, Grading.trivial(2), 0)
        assert sup_norm(exterior_d(a)) == 0.0


class TestSupertrace:
    def test_identity_counts_signature(self):
        ch = TorusChart(1, 8)
        st = supertrace(GradedMatrixForm.identity(ch, Grading.balanced(3, 1)))
        assert np.allclose(st.component(())[..., 0, 0], 2.0)

    def test_odd_matrix_killed(self):
        ch = TorusChart(1, 8)
        grading = Grading.balanced(1, 1)
        odd = GradedMatrixForm.zeros(ch, grading)
        odd.data[0, ..., 0, 1] = 1.0
        odd.data[0, ..., 1, 0] = 2.0
        assert sup_norm(supertrace(odd)) == 0.0

    def test_graded_commutators(self):
        ch = TorusChart(2, 8)
        grading = Grading.balanced(1, 1)
        a, b = random_form(ch, grading, 7), random_form(ch, grading, 8)
        for x, px in zip(a.parity_split(), (0, 1)):
            for y, py in zip(b.parity_split(), (0, 1)):
                comm = wedge_mul(x, y) - (-1.0) ** (px * py) * wedge_mul(y, x)
                assert sup_norm(supertrace(comm)) < 1e-12

    def test_matrix_trace(self):
        ch = TorusChart(0)
        tr = matrix_trace(GradedMatrixForm.identity(ch, Grading.balanced(2, 1)))
        assert np.allclose(tr.data[0, 0, 0], 3.0)


class TestAlgebraExp:
    def test_zero_gives_identity(self):
        ch = TorusChart(1, 8)
        grading = Grading.balanced(1, 1)
        e = algebra_exp(GradedMatrixForm.zeros(ch, grading))
        assert sup_norm(e - GradedMatrixForm.identity(ch, grading)) < 1e-15

    def test_degree_zero_matches_matrix_exp(self, rng):
        ch = TorusChart(1, 8)
        grading = Grading.balanced(1, 1)
        field = band_limited_field(rng, ch, (2, 2), 2, 1.0)
        a = GradedMatrixForm.from_matrix_field(ch, grading, field)
        with pytest.warns(ParityWarning):  # a generic field has gamma-odd entries
            e = algebra_exp(a)
        ref = np.stack([sla.expm(m) for m in field])
        assert np.abs(e.component(()) - ref).max() < 1e-12

    def test_nilpotent_expansion(self):
        ch = TorusChart(1, 32)
        x = ch.coordinate(0)
        lam = 0.4 - 0.3j
        f = np.cos(2 * np.pi * x)
        el = GradedMatrixForm.zeros(ch, Grading.trivial(1))
        el.data[0, ..., 0, 0] = lam
        el.data[1, ..., 0, 0] = f
        with pytest.warns(UserWarning):
            e = algebra_exp(el)
        assert np.abs(e.data[0, ..., 0, 0] - np.exp(lam)).max() < 1e-12
        assert np.abs(e.data[1, ..., 0, 0] - np.exp(lam) * f).max() < 1e-12

    def test_matches_power_series(self):
        ch = TorusChart(2, 8)
        grading = Grading.balanced(1, 1)
        a = 0.3 * random_form(ch, grading, 11)
        a_even, _ = a.parity_split()
        e = algebra_exp(a_even)
        term = GradedMatrixForm.identity(ch, grading)
        total = term
        for j in range(1, 24):
            term = wedge_mul(term, a_even) * (1.0 / j)
            total = total + term
        assert sup_norm(e - total) < 1e-10

    def test_expm_batched_vs_scipy(self, rng):
        mats = rng.standard_normal((24, 5, 5)) + 1j * rng.standard_normal((24, 5, 5))
        mats *= rng.uniform(0.05, 30.0, (24, 1, 1))
        ref = np.stack([sla.expm(m) for m in mats])
        ours = expm_batched(mats)
        assert np.abs(ours - ref).max() / np.abs(ref).max() < 1e-12


def _even(chart, grading, seed):
    return random_form(chart, grading, seed).parity_split()[0]


def _nilpotent(chart, grading, seed):
    a = _even(chart, grading, seed)
    a.data[0] = 0.0
    return a


def _curv(chart, plus, minus, seed, amp0=1.0):
    rng = np.random.default_rng(seed)
    a = random_superconnection(rng, chart, Grading.balanced(plus, minus), amp0=amp0)
    return -curvature(a)


def _twisted(chart, plus, minus, seed, amp0=1.0):
    rng = np.random.default_rng(seed)
    a = random_superconnection(rng, chart, Grading.balanced(plus, minus), amp0=amp0)
    return -twisted_theta(a, random_scalar_form(rng, chart, {2}, 0.8))


def _product(chart, seed):
    # (1|1) x (1|1): F0 = (|a|^2 + |b|^2) 1 by the Clifford relation
    rng = np.random.default_rng(seed)
    a1, a2 = (random_superconnection(rng, chart, Grading.balanced(1, 1)) for _ in range(2))
    return -curvature(product(a1, a2))


def _affine(chart, k, modes):
    return -curvature(sigma_lift(dirac_twist_superconnection(chart, k, modes=modes)))


def _suspension():
    base = TorusChart(1, 4)
    cocycle = DKCocycle(
        dirac_twist_superconnection(base, 1, modes=3, scale=2.0),
        GradedMatrixForm.zeros(base, Grading.trivial(1)),
        "odd",
    )
    return -curvature(suspend(cocycle, fiber_modes=3, grid_size=4).A)


# fibre blocks of the direct-sum scenes below
G11 = Grading.balanced(1, 1)
PERMUTED = [[0, 2], [1, 3]]
MIXED = [[0, 1, 2], [3, 4], [5]]
PAIRS = [[0, 1], [2, 3]]
CROSSED = [[0, 3], [1, 2]]


def _block_sum(parts, blocks):
    """Direct sum of the forms parts, each placed on its fibre index set."""
    m = sum(p.rank for p in parts)
    sig = np.zeros(m)
    for p, idx in zip(parts, blocks):
        sig[idx] = p.grading.signature
    out = GradedMatrixForm.zeros(parts[0].chart, Grading(sig))
    for p, idx in zip(parts, blocks):
        idx = np.asarray(idx)
        out.data[..., idx[:, None], idx[None, :]] = p.data
    return out


def _even_sum(chart, gradings, blocks, seed):
    """Direct sum of random even forms with the given gradings."""
    return _block_sum([_even(chart, g, seed + k) for k, g in enumerate(gradings)], blocks)


def _coupled(r, c):
    """Two (1|1) blocks linked by one entry (r, c) of dx^dy at one point."""
    a = _even_sum(TorusChart(2, 8), [G11, G11], PAIRS, 50)
    a.data[3, 3, 5, r, c] = 0.5  # indices 0 and 2 are both gamma-even
    return a


def _sum_of_rank3(seed):
    rng = np.random.default_rng(seed)
    a1, a2 = (
        random_superconnection(rng, TorusChart(2, 8), Grading.balanced(2, 1)) for _ in range(2)
    )
    return -curvature(direct_sum(a1, a2))


def _stabilized(seed):
    """Curvature of a (1|1) superconnection stabilized as dk.stabilize does:
    plus a (1|1) bundle E (+) E with a connection, and a mass s coupling the
    minus index to E's first copy; the second copy stays apart."""
    rng = np.random.default_rng(seed)
    chart = TorusChart(2, 8)
    a = random_superconnection(rng, chart, G11, 0.5, 0.4, 1)
    e = random_superconnection(rng, chart, G11, 0.0, 0.4, 1)
    out = direct_sum(a, e)
    s = band_limited_field(rng, chart, (), 1, 0.5)
    out.coeff.data[0, ..., 1, 2] += s
    out.coeff.data[0, ..., 2, 1] += np.conj(s)
    return -curvature(out)


# (scene, evaluations algebra_exp runs, in order); "left-regular" is the
# reference itself, and "split" is followed by one evaluation per block group
EXP_SCENES = {
    # an even element on a point is gamma-diagonal: blocks (2|0) and (0|1)
    "point-rank3": (
        lambda: _even(TorusChart(0), Grading.balanced(2, 1), 1),
        "split left-regular central",
    ),
    "T1-rank1": (lambda: _even(TorusChart(1, 8), Grading.trivial(1), 2), "central"),
    "T1-rank2": (lambda: _curv(TorusChart(1, 16), 1, 1, 3), "central"),
    "T2-rank2": (lambda: _curv(TorusChart(2, 16), 1, 1, 18), "central"),
    "T2-rank4": (lambda: _curv(TorusChart(2, 8), 2, 2, 4), "left-regular"),
    "T2-rank4-product": (lambda: _product(TorusChart(2, 8), 19), "central"),
    "T3-rank2": (lambda: _curv(TorusChart(3, 4), 1, 1, 5), "central"),
    "T2-rank6": (lambda: _curv(TorusChart(2, 8), 3, 3, 6), "left-regular"),
    "T3-rank6": (lambda: _curv(TorusChart(3, 4), 3, 3, 7), "left-regular"),
    "T1-rank26": (lambda: _curv(TorusChart(1, 8), 13, 13, 8), "left-regular"),
    "T2-rank98-suspension": (_suspension, "split central"),  # 49 blocks (1|1)
    "point-F0-zero": (lambda: _curv(TorusChart(0), 1, 1, 15, amp0=0.0), "central"),
    "T1-rank12-F0-zero": (lambda: _curv(TorusChart(1, 16), 6, 6, 16, amp0=0.0), "central"),
    "T2-rank4-F0-zero": (lambda: _curv(TorusChart(2, 16), 2, 2, 9, amp0=0.0), "central"),
    "T3-rank2-F0-zero": (lambda: _curv(TorusChart(3, 4), 1, 1, 10, amp0=0.0), "central"),
    "T3-rank3-F0-zero-all-degrees": (
        lambda: _nilpotent(TorusChart(3, 4), Grading.balanced(2, 1), 17),
        "central",
    ),
    "T1-affine-rank6": (lambda: _affine(TorusChart(1, 16), 1, modes=1), "split central"),
    "T1-affine-rank10": (lambda: _affine(TorusChart(1, 16), 2, modes=2), "split central"),
    "T3-twisted-rank2": (lambda: _twisted(TorusChart(3, 4), 1, 1, 11), "central"),
    "T3-twisted-rank6": (lambda: _twisted(TorusChart(3, 4), 3, 3, 12), "left-regular"),
    "T2-twisted-F0-zero": (lambda: _twisted(TorusChart(2, 8), 2, 2, 13, amp0=0.0), "central"),
    "T2-blocks-permuted": (
        lambda: _even_sum(TorusChart(2, 8), [G11, G11], PERMUTED, 56),
        "split left-regular",
    ),
    "T2-blocks-mixed-sizes": (
        lambda: _even_sum(
            TorusChart(2, 8), [Grading.balanced(2, 1), G11, Grading.trivial(1)], MIXED, 58
        ),
        "split left-regular left-regular central",
    ),
    # equal sizes, gradings (2|0) and (1|1): the dx part of the second
    # block needs its own sign table
    "T1-blocks-gradings-differ": (
        lambda: _even_sum(TorusChart(1, 16), [Grading.trivial(2), G11], PAIRS, 61),
        "split left-regular left-regular",
    ),
    "T2-coupled-by-degree2-upper": (lambda: _coupled(0, 2), "left-regular"),
    "T2-coupled-by-degree2-lower": (lambda: _coupled(2, 0), "left-regular"),
    # F0 = |phi_k|^2 1 on each (1|1) block, with a different phi_k per block
    "T2-blocks-central-not-whole": (
        lambda: _block_sum([_curv(TorusChart(2, 8), 1, 1, 63 + k) for k in range(2)], CROSSED),
        "split central",
    ),
    "T2-direct-sum-rank3": (lambda: _sum_of_rank3(55), "split left-regular"),
    "T2-stabilized-rank4": (lambda: _stabilized(5), "split left-regular central"),
}

# fibre blocks of the scenes that split; entries off them must stay exactly 0
SPLIT_BLOCKS = {
    "point-rank3": [[0, 1], [2]],
    "T1-affine-rank6": [[i, i + 3] for i in range(3)],
    "T1-affine-rank10": [[i, i + 5] for i in range(5)],
    # 1 (x) a with a diagonal in the mode basis, and the fibre Dirac block
    "T2-rank98-suspension": [[i, i + 49] for i in range(49)],
    "T2-blocks-permuted": PERMUTED,
    "T2-blocks-mixed-sizes": MIXED,
    "T1-blocks-gradings-differ": PAIRS,
    "T2-blocks-central-not-whole": CROSSED,
    "T2-direct-sum-rank3": [[0, 1, 2], [3, 4, 5]],
    "T2-stabilized-rank4": [[0, 1, 2], [3]],
}


def _reference_exp(a):
    """Components of exp(a) from expm_batched on the left-regular matrix."""
    m = a.rank
    ref = expm_batched(left_regular_matrix(a))[..., :, :m]
    ref = ref.reshape(ref.shape[:-2] + (a.chart.n_components, m, m))
    return np.moveaxis(ref, a.chart.dim, 0)


@pytest.fixture
def dispatch(monkeypatch):
    """Records which evaluations algebra_exp ran."""
    taken = []
    for name, path in (
        ("_nilpotent_exp", "central"),
        ("_left_regular_exp", "left-regular"),
        ("_exp_blocks", "split"),
    ):
        original = getattr(forms, name)

        def spy(*args, _original=original, _path=path):
            taken.append(_path)
            return _original(*args)

        monkeypatch.setattr(forms, name, spy)
    return taken


class TestAlgebraExpDispatch:
    @pytest.mark.parametrize("scene", sorted(EXP_SCENES))
    def test_matches_left_regular_reference(self, scene, dispatch):
        build, path = EXP_SCENES[scene]
        a = build()
        ref = _reference_exp(a)
        got = algebra_exp(a, strict_parity=True).data
        assert " ".join(dispatch) == path
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        inside = np.zeros((a.rank, a.rank), dtype=bool)
        for idx in SPLIT_BLOCKS.get(scene, [range(a.rank)]):
            inside[np.ix_(idx, idx)] = True
        assert np.all(got[..., ~inside] == 0)

    def test_blocks_are_found_once(self, monkeypatch, dispatch):
        # each stacked block is one connected component: it goes to the
        # central test and the Pade without a second search for blocks
        found = []
        original = forms._fibre_blocks

        def spy(mag):
            blocks = original(mag)
            found.append([idx.tolist() for idx in blocks])
            return blocks

        monkeypatch.setattr(forms, "_fibre_blocks", spy)
        algebra_exp(EXP_SCENES["T2-stabilized-rank4"][0](), strict_parity=True)
        assert found == [SPLIT_BLOCKS["T2-stabilized-rank4"]]
        assert dispatch == ["split", "left-regular", "central"]

    @pytest.mark.parametrize("scene", ["T2-rank4", "T2-rank6", "T2-rank4-F0-zero"])
    def test_parity_checked_before_dispatch(self, scene, dispatch):
        a = EXP_SCENES[scene][0]()
        noise = random_form(a.chart, a.grading, 14, 0.1).parity_split()[1]
        noise.data[0] = 0.0  # keeps F0 = 0 where it was
        bad = a + noise
        with pytest.raises(ParityError):
            algebra_exp(bad, strict_parity=True)
        assert dispatch == []
        with pytest.warns(ParityWarning):
            algebra_exp(bad)
        assert " ".join(dispatch) == EXP_SCENES[scene][1]

    # whole inputs of fibre rank 6 to 26: the reference path is checked
    # against scipy rather than against itself
    @pytest.mark.parametrize("scene", ["T2-rank6", "T3-rank6", "T1-rank26", "T3-twisted-rank6"])
    def test_reference_matches_scipy(self, scene):
        a = EXP_SCENES[scene][0]()
        m, d = a.rank, a.chart.n_components * a.rank
        lr = left_regular_matrix(a).reshape(-1, d, d)
        assert lr.shape[0] >= 8
        ref = np.stack([sla.expm(x)[:, :m] for x in lr])
        got = np.moveaxis(algebra_exp(a, strict_parity=True).data, 0, -3).reshape(ref.shape)
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


class TestCentralDegreeZero:
    def _spread(self, a, size, point):
        """a with a traceless gamma-even E of 1-norm size * ||a|| at one point."""
        bumped = a.copy()
        norm1 = np.abs(a.data).sum(axis=(0, -2)).max(axis=-1)
        e = np.zeros((a.rank, a.rank))
        e[0, 0], e[-1, -1] = 1.0, -1.0
        bumped.data[(0,) + point] += size * norm1[point] * e
        return bumped

    def test_spread_above_roundoff_goes_to_pade(self, dispatch):
        a = self._spread(EXP_SCENES["T2-rank2"][0](), 10 * 2.0**-53, (3, 5))
        ref = _reference_exp(a)
        got = algebra_exp(a, strict_parity=True).data
        assert dispatch == ["left-regular"]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_spread_below_roundoff_stays_central(self, dispatch):
        a = self._spread(EXP_SCENES["T2-rank2"][0](), 0.25 * 2.0**-53, (3, 5))
        ref = _reference_exp(a)
        got = algebra_exp(a, strict_parity=True).data
        assert dispatch == ["central"]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_scalar_degree_zero(self):
        ch = TorusChart(2, 8)
        a = _nilpotent(ch, Grading.balanced(2, 2), 20)
        lam = band_limited_field(np.random.default_rng(21), ch, (), 1, 1.0)
        a.data[0] = lam[..., None, None] * np.eye(4)
        got = algebra_exp(a, strict_parity=True).data
        a.data[0] = 0.0
        series = algebra_exp(a, strict_parity=True).data
        assert np.abs(got - np.exp(lam)[..., None, None] * series).max() < 1e-13


class TestTraceWedge:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    def test_matches_trace_of_product(self, dim):
        ch = TorusChart(dim, 4)
        grading = Grading.balanced(2, 2)
        x, y = random_form(ch, grading, 30 + dim), random_form(ch, grading, 40 + dim)
        gamma = np.diag(grading.signature.astype(complex))
        prod = wedge_mul(x, y)
        assert sup_norm(trace_wedge(gamma, x, y) - supertrace(prod)) < 1e-13
        sigma = _sigma_weight(grading.rank)
        assert sup_norm(trace_wedge(sigma, x, y) - tr_sigma(prod)) < 1e-13


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _matmul_wedge(x, y, table):
    """_wedge_data's product with one matmul per component pair."""
    nc = x.shape[0]
    signs = forms._wedge_signs(nc.bit_length() - 1)
    out = np.zeros_like(x)
    for i in range(nc):
        for j in range(nc):
            if signs[i, j] == 0 or not (x[i].any() and y[j].any()):
                continue
            left = x[i] * table if bin(j).count("1") % 2 else x[i]
            if signs[i, j] == 1:
                out[i | j] += left @ y[j]
            else:
                out[i | j] -= left @ y[j]
    return out


class TestFibreProduct:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize(
        "p_shape, q_shape",
        [((64,), (64,)), ((3, 1, 5), (4, 5)), ((2, 7), ()), ((), (6,))],
    )
    def test_small_rank_matches_matmul(self, rng, m, p_shape, q_shape):
        p = _complex_stack(rng, p_shape + (m, m))
        q = _complex_stack(rng, q_shape + (m, m))
        ref = np.matmul(p, q)
        got = forms._fibre_mul(p, q)
        assert got.shape == ref.shape
        norms = np.linalg.norm(p, axis=(-2, -1)).max() * np.linalg.norm(q, axis=(-2, -1)).max()
        assert np.abs(got - ref).max() <= 4 * 2.0**-53 * norms

    @pytest.mark.parametrize("m", [3, 4])
    def test_larger_rank_is_matmul(self, rng, m):
        p = _complex_stack(rng, (3, 1, 16, m, m))
        q = _complex_stack(rng, (4, 16, m, m))
        assert np.array_equal(forms._fibre_mul(p, q), np.matmul(p, q))

    def test_rank3_wedge_keeps_matmul_bits(self):
        ch = TorusChart(2, 8)
        grading = Grading.balanced(2, 1)
        x, y = random_form(ch, grading, 50), random_form(ch, grading, 51)
        x.data[1] = 0.0  # a zero component is skipped on both sides
        table = grading.conj_table()
        assert np.array_equal(
            forms._wedge_data(x.data, y.data, table), _matmul_wedge(x.data, y.data, table)
        )

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_colsum_max_keeps_reduction_bits(self, rng, m):
        x = np.abs(_complex_stack(rng, (4, 16, m, m))).sum(axis=0)
        assert np.array_equal(forms._colsum_max(x), x.sum(axis=-2).max(axis=-1))

    @pytest.mark.parametrize(
        "grading", [Grading.trivial(1), Grading.balanced(1, 1), Grading.balanced(2, 1)]
    )
    def test_nilpotent_exp_keeps_division_bits(self, grading):
        x = _nilpotent(TorusChart(3, 4), grading, 52).data
        table = grading.conj_table()
        ref = x + GradedMatrixForm.identity(TorusChart(3, 4), grading).data
        term = x
        for k in (2, 3):
            term = forms._wedge_data(term, x, table) / k
            ref += term
        assert np.array_equal(forms._nilpotent_exp(x, table), ref)


def _odd_mask(mag, table):
    """Broadcast total-odd parity mask: gamma parity differs from the degree's."""
    nc = mag.shape[0]
    degree_odd = np.array([bin(i).count("1") % 2 for i in range(nc)], dtype=bool)
    return (table < 0) != degree_odd.reshape((nc,) + (1,) * (mag.ndim - 1))


class TestOddMax:
    @pytest.mark.parametrize("dim", [0, 1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_equals_masked_maximum(self, rng, dim, m):
        ch = TorusChart(dim, 4)
        for signature in itertools.product([1, -1], repeat=m):
            table = Grading(signature).conj_table()
            shape = (ch.n_components,) + ch.shape + (m, m)
            mag = np.abs(_complex_stack(rng, shape))
            odd = _odd_mask(mag, table)
            # even entries dominate, so reading one of them changes the value
            mag = np.where(odd, mag, 10.0 * mag + 10.0)
            assert forms._odd_max(mag, table) == float((mag * odd).max())


class TestHarmonicAndPeriods:
    def test_constant_fixed_point(self):
        ch = TorusChart(2, 8)
        c = GradedMatrixForm.identity(ch, Grading.trivial(1))
        assert sup_norm(harmonic_part(c) - c) == 0.0

    def test_exact_forms_have_no_harmonic_part(self, rng):
        ch = TorusChart(2, 16)
        b = random_scalar_form(rng, ch, {0, 1}, 1.0)
        assert sup_norm(harmonic_part(exterior_d(b))) < 1e-12

    def test_mean_value(self):
        ch = TorusChart(1, 32)
        x = ch.coordinate(0)
        a = GradedMatrixForm.from_scalar_field(ch, 3.0 + np.sin(2 * np.pi * x), (0,))
        h = harmonic_part(a)
        assert np.abs(h.component((0,))[..., 0, 0] - 3.0).max() < 1e-12

    def test_equal_mod_exact(self, rng):
        ch = TorusChart(2, 16)
        x = ch.coordinate(0)
        a = GradedMatrixForm.from_scalar_field(
            ch, np.broadcast_to(2.0 + 0 * x, ch.shape), (0,)
        )
        same, report = equal_mod_exact(a, a, 1e-10)
        assert same and report.residual_norm == 0.0
        b = random_scalar_form(rng, ch, {0}, 0.5)
        shifted = a + exterior_d(b)
        same, _ = equal_mod_exact(a, shifted, 1e-10)
        assert same
        doubled = 2.0 * a
        same, report = equal_mod_exact(a, doubled, 1e-10)
        assert not same and report.residual_norm > 1.0

    def test_equal_mod_exact_rejects_nonclosed(self, rng):
        ch = TorusChart(1, 16)
        x = ch.coordinate(0)
        notclosed = GradedMatrixForm.from_scalar_field(ch, np.sin(2 * np.pi * x))
        with pytest.raises(ClosednessError):
            equal_mod_exact(notclosed, notclosed, 1e-10)

    def test_periods(self, rng):
        ch = TorusChart(1, 32)
        x = ch.coordinate(0)
        dx = GradedMatrixForm.from_scalar_field(ch, np.ones(ch.shape), (0,))
        assert abs(integrate(dx, (0,)) - 1.0) < 1e-14
        f = random_scalar_form(rng, ch, {0}, 1.0)
        assert abs(integrate(exterior_d(f), (0,))) < 1e-12
        a = GradedMatrixForm.from_scalar_field(ch, 2.0 + np.cos(2 * np.pi * x), (0,))
        assert abs(integrate(a, (0,)) - 2.0) < 1e-13

    def test_cycle_errors(self):
        ch = TorusChart(1, 8)
        a = GradedMatrixForm.zeros(ch, Grading.trivial(1))
        with pytest.raises(CycleError):
            integrate(a, (0, 0))
        with pytest.raises(CycleError):
            integrate(a, (1,))
        with pytest.raises(CycleError):
            integrate(GradedMatrixForm.zeros(ch, Grading.trivial(2)), (0,))
