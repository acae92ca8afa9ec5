"""Seeded generators for band-limited test scenes.

Everything here is deterministic given a numpy Generator; fields are built
from a handful of low Fourier modes so spectral differentiation and the
identity residuals they feed stay well inside the declared tolerances, with
room to shrink further as the grid is refined.

The second half holds one builder per identity family.  The verification
suites and the acceptance criteria both build their scenes through these,
each with its own seeds and family sizes, so a family's scene exists once.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .forms import GradedMatrixForm, Grading, TorusChart
from .superconn import Superconnection

__all__ = [
    "band_limited_field",
    "random_term0",
    "random_conn1",
    "random_higher",
    "random_superconnection",
    "gapped_superconnection",
    "winding_superconnection",
    "random_odd_superconnection",
    "dirac_twist_superconnection",
    "stabilizer_pair_scene",
    "random_omega",
    "random_scalar_form",
    "random_gauge",
    "closedness_scene",
    "eta_endpoints",
    "stabilization_scene",
    "random_cocycle",
    "gapped_cocycle",
    "random_stabilizer",
    "gapped_odd_superconnection",
    "relative_complex_scene",
    "winding_testbed",
    "invertible_pair",
    "composition_scene",
    "summability_scene",
    "cyclicity_scene",
    "duhamel_scene",
    "gerbe_scene",
    "twisted_scene",
]


# Largest phase table (one grid array per mode) that _phase_tables keeps;
# bigger ones are built one mode at a time on every call, as they would not
# fit in memory at once on fine T^3 grids.  The suites' largest table, T^3
# N32 with max_mode 1, takes 14 MB.
_PHASE_CACHE_BYTES = 1 << 24


def _mode_phases(chart: TorusChart, max_mode: int):
    """exp(2 pi i k.x) on the grid, per mode |k_a| <= max_mode in product order."""
    coords = [chart.coordinate(a) for a in range(chart.dim)]
    for k in itertools.product(range(-max_mode, max_mode + 1), repeat=chart.dim):
        phase = np.zeros(chart.shape)
        for a, ka in enumerate(k):
            phase = phase + ka * coords[a]
        yield np.exp(2j * np.pi * phase)


@functools.lru_cache(maxsize=8)
def _phase_tables(dim: int, grid_size: int, max_mode: int) -> np.ndarray:
    """_mode_phases stacked into one read-only array, kept for reuse."""
    tables = np.stack(list(_mode_phases(TorusChart(dim, grid_size), max_mode)))
    tables.setflags(write=False)
    return tables


def band_limited_field(rng, chart: TorusChart, trailing, max_mode=2, amp=1.0):
    """Complex field with Fourier support |k_a| <= max_mode, O(amp) entries.

    The phases exp(2 pi i k.x) of a (dim, grid, max_mode) triple are computed
    once and cached read-only (tables up to _PHASE_CACHE_BYTES); the field
    is summed mode by mode, each trailing entry over a contiguous grid
    array, with the arithmetic of the plain per-mode sum, so the values do
    not depend on the cache.
    """
    trailing = tuple(trailing)
    if chart.dim == 0:
        coeff = amp * (rng.standard_normal(trailing) + 1j * rng.standard_normal(trailing))
        return np.zeros(trailing, dtype=np.complex128) + coeff
    n_modes = (2 * max_mode + 1) ** chart.dim
    if n_modes * chart.grid_size**chart.dim * 16 <= _PHASE_CACHE_BYTES:
        phases = _phase_tables(chart.dim, chart.grid_size, max_mode)
    else:
        phases = _mode_phases(chart, max_mode)
    norm = amp / n_modes**0.5
    entries = math.prod(trailing)
    flat = np.zeros((entries,) + chart.shape, dtype=np.complex128)
    per_entry = (entries,) + (1,) * chart.dim
    for phase in phases:
        coeff = norm * (rng.standard_normal(trailing) + 1j * rng.standard_normal(trailing))
        flat += phase * coeff.reshape(per_entry)
    return np.ascontiguousarray(flat.reshape(entries, -1).T).reshape(chart.shape + trailing)


def _hermitize(field):
    return 0.5 * (field + np.conj(np.swapaxes(field, -1, -2)))


def _skew_hermitize(field):
    return 0.5 * (field - np.conj(np.swapaxes(field, -1, -2)))


def random_term0(rng, chart, grading: Grading, amp=1.0, max_mode=2):
    """Pointwise hermitian, gamma-odd matrix field."""
    m = grading.rank
    plus = grading.plus_indices
    minus = grading.minus_indices
    out = np.zeros(chart.shape + (m, m), dtype=np.complex128)
    if plus.size and minus.size:
        block = band_limited_field(rng, chart, (minus.size, plus.size), max_mode, amp)
        out[..., minus[:, None], plus[None, :]] = block
        out = out + np.conj(np.swapaxes(out, -1, -2))
    return out


def random_conn1(rng, chart, grading: Grading, amp=0.8, max_mode=2):
    """Per-axis skew-hermitian, gamma-even connection fields."""
    m = grading.rank
    fields = []
    for _ in range(chart.dim):
        w = np.zeros(chart.shape + (m, m), dtype=np.complex128)
        for idx in (grading.plus_indices, grading.minus_indices):
            if idx.size:
                blk = band_limited_field(rng, chart, (idx.size, idx.size), max_mode, amp)
                w[..., idx[:, None], idx[None, :]] = _skew_hermitize(blk)
        fields.append(w)
    return fields


def random_higher(rng, chart, grading: Grading, degree: int, amp=0.4, max_mode=1):
    """Homogeneous degree >= 2 term with odd total parity."""
    form = GradedMatrixForm.zeros(chart, grading)
    m = grading.rank
    table = grading.conj_table()
    for mask in range(chart.n_components):
        if bin(mask).count("1") != degree:
            continue
        field = band_limited_field(rng, chart, (m, m), max_mode, amp)
        if degree % 2 == 0:
            field = 0.5 * (field - field * table)  # gamma-odd matrix part
        else:
            field = 0.5 * (field + field * table)  # gamma-even matrix part
        form.data[mask] = field
    return form


def random_superconnection(
    rng,
    chart,
    grading: Grading,
    amp0=1.0,
    amp1=0.8,
    max_mode=2,
    with_higher=True,
):
    term0 = random_term0(rng, chart, grading, amp0, max_mode)
    conn1 = random_conn1(rng, chart, grading, amp1, max_mode)
    higher = []
    if with_higher and chart.dim >= 2:
        higher.append(random_higher(rng, chart, grading, 2, 0.4 * amp0, 1))
    return Superconnection.from_terms(chart, grading, term0, conn1, higher)


def gapped_superconnection(
    rng,
    chart,
    plus=1,
    minus=1,
    gap=1.0,
    wiggle=0.1,
    phase_amp=0.3,
    amp1=0.25,
    max_mode=1,
    with_higher=False,
):
    """Random superconnection whose degree-0 term has min_gap >= gap.

    Built around a constant isometry block with a gentle phase modulation;
    wiggle/phase_amp stay small so the heat factors of the rescaled family
    remain spectrally narrow on coarse grids.
    """
    grading = Grading.balanced(plus, minus)
    m = plus + minus
    base = np.zeros(chart.shape + (m, m), dtype=np.complex128)
    r = min(plus, minus)
    iso = np.zeros((minus, plus), dtype=np.complex128)
    iso[:r, :r] = np.eye(r)
    phase = band_limited_field(rng, chart, (), max_mode, phase_amp)
    phase = np.exp(1j * np.real(phase))
    base[..., plus:, :plus] = phase[..., None, None] * iso
    pert = random_term0(rng, chart, grading, wiggle * gap, max_mode)
    t0 = gap * (base + np.conj(np.swapaxes(base, -1, -2))) + pert
    # rescale so that the requested gap actually holds
    sv = np.linalg.svd(t0, compute_uv=False)
    have = float(sv.min())
    if have < gap:
        t0 = t0 * (gap / max(have, 1e-12) * 1.05)
    conn1 = random_conn1(rng, chart, grading, amp1, max_mode)
    higher = []
    if with_higher and chart.dim >= 2:
        higher.append(random_higher(rng, chart, grading, 2, 0.3 * amp1, 1))
    return Superconnection.from_terms(chart, grading, t0, conn1, higher)


def winding_superconnection(chart: TorusChart, k: int, radius=1.0, axis=0):
    """Rank (1|1) scene with off-diagonal winding phase r exp(2 pi i k x)."""
    grading = Grading.balanced(1, 1)
    x = chart.coordinate(axis)
    h = radius * np.exp(2j * np.pi * k * x)
    t0 = np.zeros(chart.shape + (2, 2), dtype=np.complex128)
    t0[..., 1, 0] = np.broadcast_to(h, chart.shape)
    t0[..., 0, 1] = np.conj(t0[..., 1, 0])
    return Superconnection.from_terms(chart, grading, t0)


def random_odd_superconnection(rng, chart, rank=2, amp0=1.0, amp1=0.8, max_mode=2):
    """Ungraded scene: hermitian degree-0 term, skew-hermitian connection."""
    grading = Grading.trivial(rank)
    t0 = _hermitize(band_limited_field(rng, chart, (rank, rank), max_mode, amp0))
    conn = [
        _skew_hermitize(band_limited_field(rng, chart, (rank, rank), max_mode, amp1))
        for _ in range(chart.dim)
    ]
    return Superconnection.from_terms(chart, grading, t0, conn)


def dirac_twist_superconnection(chart: TorusChart, k: int, modes=4, scale=2.0, axis=0):
    """Ungraded truncated mode-shift family diag(scale * (n - k x)) on a circle.

    Carries k units of spectral flow per period; the affine x-dependence is
    stored as an exact slope so differentiation does not see the wrap jump.
    """
    n = np.arange(-modes, modes + 1, dtype=np.float64)
    m = n.size
    grading = Grading.trivial(m)
    x = chart.coordinate(axis)
    field = np.zeros(chart.shape + (m, m), dtype=np.complex128)
    diag = scale * (n.reshape((1,) * chart.dim + (m,)) - k * x[..., None])
    idx = np.arange(m)
    field[..., idx, idx] = diag
    slope = np.diag(np.full(m, -scale * k, dtype=np.complex128))
    return Superconnection.from_terms(chart, grading, field, affine={axis: slope})


def stabilizer_pair_scene(rng, chart, plus=1, minus=1, e_rank=1, amp=0.7, max_mode=2):
    """Fields for a stabilizer: map into the minus sector plus a connection."""
    s_field = band_limited_field(rng, chart, (minus, e_rank), max_mode, amp)
    conn = [
        _skew_hermitize(band_limited_field(rng, chart, (e_rank, e_rank), max_mode, 0.5))
        for _ in range(chart.dim)
    ]
    return s_field, conn


def random_scalar_form(rng, chart, degrees, amp=0.8, max_mode=2):
    """Rank-1 form supported on the requested degrees."""
    out = GradedMatrixForm.zeros(chart, Grading.trivial(1))
    for mask in range(chart.n_components):
        if bin(mask).count("1") in degrees:
            out.data[mask, ..., 0, 0] = band_limited_field(
                rng, chart, (), max_mode, amp
            )
    return out


def random_omega(rng, chart, amp=0.8, max_mode=2):
    """Odd-degree scalar form (a cocycle's differential-form component)."""
    return random_scalar_form(
        rng, chart, degrees=set(range(1, chart.dim + 1, 2)), amp=amp, max_mode=max_mode
    )


def random_gauge(rng, chart, grading: Grading, amp=0.6, max_mode=2):
    """gamma-even pointwise unitary built as exp(i H) of a hermitian field."""
    from .forms import expm_batched
    from .superconn import GaugeTransform

    m = grading.rank
    h = np.zeros(chart.shape + (m, m), dtype=np.complex128)
    for idx in (grading.plus_indices, grading.minus_indices):
        if idx.size:
            blk = band_limited_field(rng, chart, (idx.size, idx.size), max_mode, amp)
            h[..., idx[:, None], idx[None, :]] = _hermitize(blk)
    u = expm_batched(1j * h)
    return GaugeTransform(chart, grading, u)


# -- identity-family scenes, shared by the suites and the acceptance gate ------


def closedness_scene(seed, dim, grid_size, grading: Grading):
    """Superconnection A and form x for Ch closedness and [A, x] closedness.

    Seeded on its own, so the same seed on a refined grid draws the same
    Fourier coefficients and the residuals form a grid-refinement ramp.
    """
    chart = TorusChart(dim, grid_size)
    rng = np.random.default_rng(seed)
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


def eta_endpoints(rng, chart, count):
    """``count`` (1|1) superconnections for the eta transgression identities."""
    grading = Grading.balanced(1, 1)
    return [
        random_superconnection(rng, chart, grading, amp0=0.22, amp1=0.16, max_mode=1)
        for _ in range(count)
    ]


def stabilization_scene(rng, chart, rank, amp):
    """A connection doubled to E (+) E and the same with the odd swap mass.

    Both eta forms of the pair vanish identically: eta between the two and
    eta from the massive one to infinity.
    """
    conn = random_conn1(rng, chart, Grading.trivial(rank), amp=amp, max_mode=2)
    doubled = []
    for w in conn:
        big = np.zeros(chart.shape + (2 * rank, 2 * rank), dtype=np.complex128)
        big[..., :rank, :rank] = w
        big[..., rank:, rank:] = w
        doubled.append(big)
    grading = Grading.balanced(rank, rank)
    mass = np.zeros((2 * rank, 2 * rank), dtype=np.complex128)
    mass[:rank, rank:] = np.eye(rank)
    mass[rank:, :rank] = np.eye(rank)
    tilde = Superconnection.from_terms(chart, grading, None, doubled)
    return tilde, Superconnection.from_terms(chart, grading, mass, doubled)


def random_cocycle(rng, chart, amp0, amp1, omega_amp):
    """Even cocycle (A, omega) with a random (1|1) superconnection."""
    from .dk import DKCocycle

    return DKCocycle(
        random_superconnection(rng, chart, Grading.balanced(1, 1), amp0, amp1, 1),
        random_omega(rng, chart, omega_amp, 1),
    )


def gapped_cocycle(rng, chart, wiggle, phase_amp, amp1, omega_amp):
    """Even cocycle (A, omega) whose degree-0 term has min_gap >= 1."""
    from .dk import DKCocycle

    return DKCocycle(
        gapped_superconnection(
            rng, chart, gap=1.0, wiggle=wiggle, phase_amp=phase_amp, amp1=amp1
        ),
        random_omega(rng, chart, omega_amp, 1),
    )


def random_stabilizer(rng, chart, amp):
    """Rank-one stabilizer of a (1|1) cocycle."""
    from .dk import Stabilizer

    return Stabilizer(1, *stabilizer_pair_scene(rng, chart, 1, 1, 1, amp=amp, max_mode=1))


def gapped_odd_superconnection(rng, chart, shift):
    """Ungraded rank-2 scene whose degree-0 term is shifted by ``shift`` * 1."""
    base = random_odd_superconnection(rng, chart, 2, 0.3, 0.25, 1)
    return Superconnection.from_terms(
        chart,
        Grading.trivial(2),
        base.term0_field() + shift * np.eye(2),
        [base.coeff.component((0,))],
    )


def relative_complex_scene(rng, chart):
    """Open set U (the complement of one box) and a relative form (omega, sigma)."""
    from .relative import OpenSet, RelativeForm

    u = OpenSet.complement_of_boxes(chart, [((0.5, 0.5), 0.12, 0.22)])
    rf = RelativeForm(
        random_scalar_form(rng, chart, {0, 1, 2}, 0.8),
        random_scalar_form(rng, chart, {0, 1}, 0.8),
    )
    return u, rf


def winding_testbed(grid_size):
    """Index testbed on T^2: T0 = [[0, conj q], [q, 0]], q = e^{2 pi i x} + e^{2 pi i y} - 1.

    q has two simple zeros, at (1/6, 5/6) and (5/6, 1/6), of winding -1 and
    +1; U is the complement of a box around each.  Returns (A, q, U, zeros).
    """
    from .relative import OpenSet

    chart = TorusChart(2, grid_size)
    x, y = chart.coordinate(0), chart.coordinate(1)
    q = np.exp(2j * np.pi * x) + np.exp(2j * np.pi * y) - 1.0
    t0 = np.zeros(chart.shape + (2, 2), dtype=np.complex128)
    t0[..., 1, 0] = q
    t0[..., 0, 1] = np.conj(q)
    a = Superconnection.from_terms(chart, Grading.balanced(1, 1), t0)
    zeros = ((1 / 6, 5 / 6), (5 / 6, 1 / 6))
    u = OpenSet.complement_of_boxes(chart, [(z, 0.10, 0.26) for z in zeros])
    return a, q, u, zeros


def invertible_pair(rng, chart):
    """Two gapped superconnections: an invertible homotopy's endpoints."""
    return tuple(
        gapped_superconnection(rng, chart, gap=1.0, wiggle=0.05, phase_amp=0.2, amp1=0.15)
        for _ in range(2)
    )


def _random_operator(rng, ref):
    from .spectral import TruncatedOperator

    m = ref.size
    return TruncatedOperator(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)), ref)


def _random_hermitian(rng, m, scale):
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * (b + b.conj().T)


def composition_scene(rng):
    """(F1, k1, F2, k2, s) for the weighted-norm composition inequality."""
    from .spectral import DiracModel

    ref = DiracModel(8, twist=float(rng.uniform(0, 2 * np.pi)))
    f1 = _random_operator(rng, ref)
    f2 = _random_operator(rng, ref)
    k1, k2, s = (int(v) for v in rng.integers(-2, 3, 3))
    return f1, k1, f2, k2, s


def summability_scene(rng, ref):
    """Doubled reference operator P and a random odd hermitian perturbation Q."""
    from .spectral import TruncatedOperator

    b = _random_hermitian(rng, 2 * ref.size, 0.3)
    gam = np.diag(np.concatenate([np.ones(ref.size), -np.ones(ref.size)]))
    b = 0.5 * (b - gam @ b @ gam)  # keep it odd
    p = TruncatedOperator(ref.doubled(), ref, doubled=True)
    return p, TruncatedOperator(b, ref, doubled=True)


def cyclicity_scene(rng, ref):
    """(F1, P, F2): two random operators around the reference operator P."""
    from .spectral import TruncatedOperator

    f1 = _random_operator(rng, ref)
    f2 = _random_operator(rng, ref)
    return f1, TruncatedOperator(ref.matrix(), ref), f2


def duhamel_scene(rng):
    """(D0, V): the cutoff-10 reference matrix and a hermitian direction."""
    from .spectral import DiracModel

    d0 = DiracModel(10).matrix()
    return d0, _random_hermitian(rng, d0.shape[0], 0.25)


def gerbe_scene():
    """Coherent gerbe data on a 4-set circle cover with a common quadruple
    core, and a copy with one triple phase off by exp(1e-3 i)."""
    from .relative import OpenSet
    from .twisted import CechCover, GerbeData

    chart = TorusChart(1, 64)
    cover = CechCover(
        chart, [OpenSet.box(chart, (c,), 0.4, 0.48) for c in (0.0, 0.25, 0.5, 0.75)]
    )
    cover.check_coverage(1e-9)
    assert cover.overlap_core((0, 1, 2, 3)).any()
    ones = np.ones(chart.shape, dtype=np.complex128)
    transitions = {key: ones for key in cover.pairs()}
    mu = {key: np.exp(2j * np.pi / 3) * ones for key in cover.triples()}
    mu_bad = dict(mu)
    first = sorted(mu_bad)[0]
    mu_bad[first] = mu_bad[first] * np.exp(1j * 1e-3)
    return GerbeData(cover, transitions, mu), GerbeData(cover, transitions, mu_bad)


def twisted_scene(rng, chart):
    """(A, kappa, tau): a (1|1) superconnection, a curving 2-form and its shift."""
    a = random_superconnection(
        rng, chart, Grading.balanced(1, 1), amp0=0.2, amp1=0.12, max_mode=1, with_higher=False
    )
    kappa = random_scalar_form(rng, chart, {2}, amp=0.25, max_mode=1)
    tau = random_scalar_form(rng, chart, {2}, amp=0.2, max_mode=1)
    return a, kappa, tau
