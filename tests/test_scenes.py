"""Scene generators: band-limited fields and their cached Fourier phases."""

import itertools

import numpy as np
import pytest

from superchern import scenes
from superchern.forms import TorusChart
from superchern.scenes import band_limited_field


def per_mode_field(rng, chart, trailing, max_mode, amp):
    """The band-limited sum mode by mode, each phase computed afresh."""
    trailing = tuple(trailing)
    out = np.zeros(chart.shape + trailing, dtype=np.complex128)
    modes = list(itertools.product(range(-max_mode, max_mode + 1), repeat=chart.dim))
    coords = [chart.coordinate(a) for a in range(chart.dim)]
    norm = amp / len(modes) ** 0.5
    for k in modes:
        coeff = norm * (rng.standard_normal(trailing) + 1j * rng.standard_normal(trailing))
        phase = np.zeros(chart.shape)
        for a, ka in enumerate(k):
            phase = phase + ka * coords[a]
        out += np.exp(2j * np.pi * phase)[(...,) + (None,) * len(trailing)] * coeff
    return out


CASES = [
    (dim, grid, max_mode)
    for dim, grid in [(1, 32), (2, 16), (3, 8)]
    for max_mode in (1, 2)
]
TRAILING = [(), (1, 1), (2, 1), (2, 2), (3, 3)]


class TestBandLimitedField:
    @pytest.mark.parametrize("cached", [True, False])
    @pytest.mark.parametrize("dim, grid, max_mode", CASES)
    def test_equals_per_mode_sum(self, monkeypatch, cached, dim, grid, max_mode):
        if not cached:
            monkeypatch.setattr(scenes, "_PHASE_CACHE_BYTES", 0)
        chart = TorusChart(dim, grid)
        for seed, trailing in enumerate(TRAILING):
            got = band_limited_field(np.random.default_rng(seed), chart, trailing, max_mode, 0.7)
            ref = per_mode_field(np.random.default_rng(seed), chart, trailing, max_mode, 0.7)
            assert got.shape == ref.shape and got.flags.c_contiguous
            assert np.array_equal(got, ref)

    def test_point_chart(self):
        chart = TorusChart(0)
        got = band_limited_field(np.random.default_rng(3), chart, (2, 2), 2, 0.5)
        ref = per_mode_field(np.random.default_rng(3), chart, (2, 2), 2, 0.5)
        assert np.array_equal(got, ref)

    def test_draws_the_same_random_numbers(self):
        chart = TorusChart(2, 8)
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        band_limited_field(rng, chart, (2, 2), 1)
        per_mode_field(ref_rng, chart, (2, 2), 1, 1.0)
        assert rng.standard_normal() == ref_rng.standard_normal()

    def test_mutating_a_field_leaves_the_next_call_unchanged(self):
        chart = TorusChart(3, 8)
        first = band_limited_field(np.random.default_rng(5), chart, (), 1)
        first[...] = 0.0
        first_entries = band_limited_field(np.random.default_rng(5), chart, (2, 2), 1)
        first_entries += 1.0
        again = band_limited_field(np.random.default_rng(5), chart, (), 1)
        assert np.array_equal(again, per_mode_field(np.random.default_rng(5), chart, (), 1, 1.0))
        tables = scenes._phase_tables(3, 8, 1)
        with pytest.raises(ValueError):
            tables[0, 0, 0, 0] = 0.0
