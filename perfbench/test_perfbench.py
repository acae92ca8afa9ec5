"""Tests of the benchmark itself: complete wrapping, exact node counts, and
agreement between BENCHMARK.json and the metrics the benchmark prints."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from superchern import scenes, suites, transgression
from superchern.errors import SuperchernError
from superchern.forms import Grading, TorusChart
from tracer import ETA, EXP, LAYERS, Tracer, _layer_functions, _superchern_modules

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _count(tracer, layer):
    return sum(1 for span in tracer.spans if span[0] == layer)


@pytest.fixture
def tracer():
    t = Tracer().install([workloads])
    try:
        yield t
    finally:
        t.uninstall()


def test_every_reference_is_wrapped_and_restored():
    originals = [fn for _, _, _, fn in _layer_functions()]
    holders = [
        (mod, attr)
        for mod in _superchern_modules()
        for attr, value in vars(mod).items()
        if any(value is fn for fn in originals)
    ]
    # names imported into other modules, e.g. transgression.algebra_exp
    assert len(holders) > len(originals)
    t = Tracer().install([workloads])
    try:
        assert Tracer.unwrapped(_superchern_modules(), originals) == []
        assert all(getattr(mod, attr) not in originals for mod, attr in holders)
    finally:
        t.uninstall()
    assert all(any(getattr(mod, attr) is fn for fn in originals) for mod, attr in holders)


def _pair(seed=3):
    rng = np.random.default_rng(seed)
    chart = TorusChart(2, 8)
    grading = Grading.balanced(1, 1)
    mk = lambda: scenes.random_superconnection(rng, chart, grading, 0.22, 0.16, 1)
    return mk(), mk()


def test_eta_node_counts(tracer):
    a0, a1 = _pair()
    transgression.eta_between(a0, a1)
    assert _count(tracer, EXP) == 8 * 16 + 8 * 8 == 192
    gapped = scenes.gapped_superconnection(
        np.random.default_rng(1), TorusChart(2, 8), gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
    )
    transgression.eta_infinity(gapped, tol=1e-10)
    assert _count(tracer, EXP) == 192 + 193
    transgression.eta_between(a0, a1, transgression.QuadratureConfig(panels=4, order=2))
    assert _count(tracer, EXP) == 192 + 193 + 12
    metrics = tracer.metrics(1.0)
    assert metrics[f"{ETA}.nodes"][0] == 397
    assert metrics[f"{ETA}.calls"][0] == 3
    assert metrics[f"{EXP}.max_rel_dev"][0] < run.MAX_REL_DEV


def test_eta_identities_exponential_count(tracer):
    # the count depends on the quadrature settings, not on the grid, so a
    # coarse grid keeps the test quick; at seed 42 it matches the default grid
    with tracer.unit("suites.run_suite.eta-identities"):
        suites.run_suite(suites.SuiteConfig("eta-identities", seed=42, grid=8))
    metrics = tracer.metrics(1.0, workloads.SUITES)
    assert metrics[f"{EXP}.calls"][0] == 1385
    assert metrics[f"{ETA}.nodes"][0] == 1385 - 3  # three Chern characters
    assert metrics["trace.layer_share"][0] >= 0.95


def test_benchmark_json_names_match_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS == workloads.WORKLOADS
    per_layer = set(Tracer().metrics(1.0, workloads.SUITES))
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s",
        "setup_s",
        "peak_rss_mb",
        "tol_margin_digits",
    }
    assert all(any(name.startswith(layer + ".") for name in per_layer) for layer in LAYERS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", "odd-suspension"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


def _judged(seed, *checks):
    units = [{"name": "u", "digest": "d", "checks": list(checks)}]
    return run.judge([{"units": units}], seed)


def test_failing_checks_are_problems_unless_known_defects():
    ok = workloads._check("eta-additivity", 1e-12, 1e-8, True)
    assert _judged(42, ok) == (1, 0, [], [])
    # a check that fails at seed 42, where none is known to fail
    bad = workloads._check("eta-additivity", 1e-6, 1e-8, False)
    assert _judged(42, ok, bad)[3]
    # a known defect fails only at its listed seeds within the scanned range
    prefix, (seeds, worst) = next(iter(run.KNOWN_DEFECTS.items()))
    known = workloads._check(prefix + "0", worst * 0.1, 0.1, False)
    assert _judged(min(seeds), known)[1:] == (1, [prefix + "0"], [])
    assert _judged(42, known)[3]
    # outside the scanned range, only within the headroom over the worst ratio
    unscanned = max(run.SCANNED_SEEDS) + 1
    ceiling = run.DEFECT_HEADROOM * worst * 0.1
    assert _judged(unscanned, dict(known, residual=ceiling))[3] == []
    assert _judged(unscanned, dict(known, residual=1.01 * ceiling))[3]


def test_a_raising_unit_is_a_problem():
    def boom():
        raise SuperchernError("no gap")

    checks, digest = workloads.run_unit("suites.run_suite.odd", boom)
    attempted, failed, failing, problems = _judged(3, *checks)
    assert (attempted, failed, failing) == (1, 1, ["suites.run_suite.odd"])
    assert problems and "raised" in problems[0]
