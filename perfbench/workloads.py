"""The benchmark's workloads, built from a seed and run through the public API.

A workload pass is a list of units; each unit is one suite run through
``run_suite`` (never ``run_many``, so load comes from one process) or one
scene, and returns its check records plus a digest of its outputs.

- ``eta-quadrature``: the ``eta-identities`` and ``odd`` suites at their
  default grids.  Nearly all of the time is inside eta forms, so this
  workload shows cuts in quadrature nodes per eta and per-call overhead.
- ``field-batches``: ``chern-identities``, ``relative``, ``twisted`` and
  ``spectral-lemmas``.  A few large exponential batches (the T^2 N256 index
  character has F0 = 0 at every point); eta quadrature is a minor share.
- ``odd-suspension``: the suspension of a mode-shift family on T^1, whose
  curvature class is one exponential at D = 392 (rank 98 on T^2): the only
  large-D, BLAS-bound case, with no quadrature.  The seed picks the winding.

The ``dk-relations`` suite is not run: a pass with it takes about 63 s on
two cores, too long for the benchmark's time budget.
"""

from __future__ import annotations

import hashlib
import math

from superchern import dk, oddk, scenes, suites
from superchern.errors import SuperchernError
from superchern.forms import GradedMatrixForm, Grading, TorusChart, integrate

SUITE_WORKLOADS = {
    "eta-quadrature": ("eta-identities", "odd"),
    "field-batches": ("chern-identities", "relative", "twisted", "spectral-lemmas"),
}
WORKLOADS = (*SUITE_WORKLOADS, "odd-suspension")
SUITES = tuple(s for names in SUITE_WORKLOADS.values() for s in names)

# T^1 grid of the suspended family; the suspension keeps it on both axes
SUSPENSION_GRID = 8
# |ratio - (-2i sqrt(pi))| bound pinned by test_winding_consistency_unit
SUSPENSION_TOL = 1e-3


def _check(name, residual, tolerance, passed, error=None):
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(passed),
        "error": error,
    }


def _suite_unit(suite, seed):
    def run():
        report = suites.run_suite(suites.SuiteConfig(suite, seed=seed))
        checks = [
            _check(r.name, r.residual, r.tolerance, r.passed)
            for r in sorted(report.records, key=lambda r: r.name)
        ]
        return checks, report.content_hash()

    return f"suites.run_suite.{suite}", run


def _suspension_unit(seed):
    k = 1 + seed % 2

    def run():
        chart = TorusChart(1, SUSPENSION_GRID)
        cocycle = oddk.OddCocycle(
            scenes.dirac_twist_superconnection(chart, k, modes=3, scale=2.0),
            GradedMatrixForm.zeros(chart, Grading.trivial(1)),
        )
        even = oddk.suspend(cocycle, fiber_modes=3, grid_size=SUSPENSION_GRID)
        ratio = integrate(dk.curvature_class(even), (0, 1)) / integrate(
            oddk.odd_curvature_class(cocycle), (0,)
        )
        residual = abs(ratio - (-2j * math.sqrt(math.pi)))
        digest = hashlib.sha256(repr(complex(ratio)).encode()).hexdigest()
        name = f"suspension-unit-k{k}"
        return [_check(name, residual, SUSPENSION_TOL, residual < SUSPENSION_TOL)], digest

    return f"oddk.suspension-winding-k{k}", run


def units(workload: str, seed: int):
    """(unit name, callable) pairs making up one pass of the workload."""
    if workload == "odd-suspension":
        return [_suspension_unit(seed)]
    return [_suite_unit(s, seed) for s in SUITE_WORKLOADS[workload]]


def run_unit(name, fn):
    """Run one unit; a SuperchernError becomes one failed check carrying the
    error, and the pass goes on with the next unit (run.py marks the run
    incorrect, since the unit's remaining checks never ran)."""
    try:
        return fn()
    except SuperchernError as exc:
        error = f"{type(exc).__name__}: {exc}"
        return [_check(name, math.nan, math.nan, False, error)], "error"
