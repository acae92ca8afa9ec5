"""In-memory span tracer for the superchern benchmark.

The tracer rebinds every ``superchern.*`` module attribute that holds one of
the traced layer functions, so calls made through ``from .forms import
algebra_exp`` style imports are recorded too, and then asserts that no
attribute (and no default argument) still holds an unwrapped original.

Each wrapped call records a span ``[layer, start, end, parent, unit]``; the
benchmark opens one top-level span per workload unit (a suite or a scene),
and every span inside it carries that unit's id.  Spans stay in memory and
are written out by the caller when the pass ends.  The tracer assumes a
single thread, which holds because workloads call ``run_suite`` directly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from types import SimpleNamespace

import numpy as np
import scipy.linalg

import superchern
from superchern import forms

ETA = "transgression.eta"
EXP = "forms.algebra_exp"
SUITE_PREFIX = "suites.run_suite."
SPAN_FIELDS = ["name", "start", "end", "parent", "unit"]

# layer name -> (module, public function names)
LAYERS = {
    EXP: ("forms", ["algebra_exp"]),
    "forms.wedge_mul": ("forms", ["wedge_mul"]),
    "forms.exterior_d": ("forms", ["exterior_d"]),
    "superconn.curvature": ("superconn", ["curvature"]),
    "superconn.chern_character": ("superconn", ["chern_character"]),
    "superconn.min_gap": ("superconn", ["min_gap"]),
    ETA: ("transgression", ["eta_between", "eta_infinity", "eta_along_path"]),
    "oddk.odd_eta": ("oddk", ["odd_eta_between", "odd_eta_infinity"]),
    "oddk.suspend": ("oddk", ["suspend"]),
    "relative.index_character": ("relative", ["index_character"]),
    "relative.cor2_defect": ("relative", ["cor2_defect"]),
    "relative.spectral_flow": ("relative", ["spectral_flow"]),
    "twisted.twisted_chern": ("twisted", ["twisted_chern"]),
    "twisted.d_H": ("twisted", ["d_H"]),
    "spectral": ("spectral", None),  # every public function of the module
    "scenes": ("scenes", None),
}

# algebra_exp shapes reported on their own, keyed d<dim>n<grid>m<rank>
SHAPES = ("d2n32m2", "d2n32m4", "d2n256m4", "d3n32m2", "d1n64m2", "d2n8m98")

def _superchern_modules():
    for info in pkgutil.iter_modules(superchern.__path__):
        importlib.import_module(f"superchern.{info.name}")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "superchern" or name.startswith("superchern."))
    ]


def _layer_functions():
    """(layer, module name, attribute, function) for every traced function."""
    out = []
    for layer, (modname, names) in LAYERS.items():
        mod = importlib.import_module(f"superchern.{modname}")
        if names is None:
            names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
        out.extend((layer, modname, n, getattr(mod, n)) for n in names)
    return out


def shape_key(dim: int, grid: int, rank: int) -> str:
    return f"d{dim}n{grid if dim else 1}m{rank}"


class Tracer:
    """Wraps the layer functions while installed and collects spans and counts."""

    def __init__(self):
        self.spans = []
        self.exp_stats = {}  # span index -> (points, D, f0_zero_points, max_rel_dev, shape)
        self.eta_errors = []
        self._stack = []
        self._unit = None
        self._units = 0
        self._unit_spans = []  # span indices of the top-level unit spans
        self._rebound = []  # (module, attribute, original)
        self.check_seconds = 0.0

    # -- installation ------------------------------------------------------

    def install(self, extra_modules=()):
        """Rebind the layer functions in superchern and in ``extra_modules``."""
        modules = _superchern_modules() + list(extra_modules)
        originals = {}
        for layer, _, _, fn in _layer_functions():
            originals[id(fn)] = (fn, self._wrap(layer, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._rebound.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        left = self.unwrapped(modules, [fn for fn, _ in originals.values()])
        if left:
            self.uninstall()
            raise RuntimeError(f"tracer left unwrapped references: {', '.join(left)}")
        return self

    def uninstall(self):
        for mod, attr, orig in reversed(self._rebound):
            setattr(mod, attr, orig)
        self._rebound.clear()

    @staticmethod
    def unwrapped(modules, functions):
        """Names of module attributes or default arguments still holding an original."""
        targets = {id(f) for f in functions}
        left = []
        for mod in modules:
            for attr, value in vars(mod).items():
                if id(value) in targets:
                    left.append(f"{mod.__name__}.{attr}")
                members = [value]
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    members = [m for m in vars(value).values() if inspect.isfunction(m)]
                for fn in members:
                    if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                        continue
                    defaults = list(fn.__defaults__ or ()) + list(
                        (fn.__kwdefaults__ or {}).values()
                    )
                    if any(id(d) in targets for d in defaults):
                        left.append(f"{mod.__name__}.{fn.__qualname__} (default argument)")
        return left

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [layer, time.perf_counter(), None, parent, self._unit]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if layer == EXP:
                self._record_exp(idx, args[0], result)
            elif layer == ETA:
                self.eta_errors.append(float(result.est_error))
            return result

        return traced

    @contextlib.contextmanager
    def unit(self, name):
        """Top-level span around one suite or scene; its spans share its id."""
        self._unit = self._units
        self._units += 1
        idx = len(self.spans)
        span = [name, time.perf_counter(), None, None, self._unit]
        self.spans.append(span)
        self._unit_spans.append(idx)
        self._stack.append(idx)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._unit = None

    # -- algebra_exp counts and accuracy -------------------------------------

    def _record_exp(self, idx, a, result):
        t0 = time.perf_counter()
        chart, m = a.chart, a.rank
        nc = chart.n_components
        points = int(np.prod(chart.shape)) if chart.dim else 1
        f0 = a.data[0].reshape(points, -1)
        f0_zero = int(points - np.count_nonzero(f0.any(axis=1)))
        dev = 0.0
        if m:  # compare two grid points per call against scipy.linalg.expm
            picks = sorted({points // 2, points - 1})
            flat_in = a.data.reshape((nc, points, m, m))[:, picks]
            sample = SimpleNamespace(
                chart=SimpleNamespace(dim=chart.dim, n_components=nc, shape=(len(picks),)),
                rank=m,
                grading=a.grading,
                data=flat_in,
            )
            rho = forms.left_regular_matrix(sample)
            got = result.data.reshape((nc, points, m, m))[:, picks]
            for k in range(len(picks)):
                ref = scipy.linalg.expm(rho[k])[:, :m].reshape(nc, m, m)
                scale = max(float(np.abs(ref).max()), 1e-300)
                dev = max(dev, float(np.abs(got[:, k] - ref).max()) / scale)
        key = shape_key(chart.dim, chart.grid_size, m)
        self.exp_stats[idx] = (points, nc * m, f0_zero, dev, key)
        self.check_seconds += time.perf_counter() - t0

    # -- aggregation -----------------------------------------------------------

    def metrics(self, traced_wall_s: float, suites=()) -> dict:
        """Per-layer metrics as name -> (value, unit)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        outermost = [True] * len(spans)
        in_eta = [False] * len(spans)
        for i, (layer, start, end, parent, _) in enumerate(spans):
            if parent is not None:
                child_time[parent] += end - start
            p = parent
            while p is not None:
                if spans[p][0] == layer:
                    outermost[i] = False
                if spans[p][0] == ETA:
                    in_eta[i] = True
                p = spans[p][3]

        calls, busy, self_s = {}, {}, {}
        for i, (layer, start, end, _, _) in enumerate(spans):
            dur = end - start
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + dur - child_time[i]
            if outermost[i]:
                busy[layer] = busy.get(layer, 0.0) + dur

        points = work = f0_zero = 0
        peak_batch = dev = 0.0
        shape_busy = dict.fromkeys(SHAPES, 0.0)
        nodes = 0
        for i, (pts, d, zero, err, key) in self.exp_stats.items():
            points += pts
            work += pts * d**3
            f0_zero += zero
            peak_batch = max(peak_batch, pts * d * d * 16 / 2**20)
            dev = max(dev, err)
            if key in shape_busy:
                shape_busy[key] += spans[i][2] - spans[i][1]
            nodes += in_eta[i]
        eta_calls = calls.get(ETA, 0)
        unit_busy = sum(spans[i][2] - spans[i][1] for i in self._unit_spans)
        unit_self = sum(spans[i][2] - spans[i][1] - child_time[i] for i in self._unit_spans)

        out = {
            f"{EXP}.calls": (calls.get(EXP, 0), "count"),
            f"{EXP}.busy_s": (busy.get(EXP, 0.0), "s"),
            f"{EXP}.points": (points, "count"),
            f"{EXP}.work_bd3": (work, "count"),
            f"{EXP}.f0_zero_share": (f0_zero / points if points else 0.0, "ratio"),
            f"{EXP}.peak_batch_mb": (peak_batch, "MB"),
            f"{EXP}.max_rel_dev": (dev, "ratio"),
        }
        for key, value in shape_busy.items():
            out[f"{EXP}.{key}.busy_s"] = (value, "s")
        for layer in ("forms.wedge_mul", "forms.exterior_d", "superconn.curvature"):
            out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        for layer in ("forms.wedge_mul", "forms.exterior_d"):
            out[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        out["superconn.curvature.self_s"] = (self_s.get("superconn.curvature", 0.0), "s")
        out[f"{ETA}.calls"] = (eta_calls, "count")
        out[f"{ETA}.busy_s"] = (busy.get(ETA, 0.0), "s")
        out[f"{ETA}.self_s"] = (self_s.get(ETA, 0.0), "s")
        out[f"{ETA}.nodes"] = (nodes, "count")
        out[f"{ETA}.nodes_per_call"] = (nodes / eta_calls if eta_calls else 0.0, "count")
        out[f"{ETA}.est_error_max"] = (max(self.eta_errors, default=0.0), "abs")
        for layer in (
            "superconn.chern_character",
            "superconn.min_gap",
            "oddk.odd_eta",
            "oddk.suspend",
            "relative.index_character",
            "relative.cor2_defect",
            "relative.spectral_flow",
            "twisted.twisted_chern",
            "twisted.d_H",
            "spectral",
            "scenes",
        ):
            out[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        out["relative.index_character.self_s"] = (
            self_s.get("relative.index_character", 0.0),
            "s",
        )
        for suite in suites:
            out[f"{SUITE_PREFIX}{suite}.busy_s"] = (busy.get(SUITE_PREFIX + suite, 0.0), "s")
        out["suites.self_s"] = (
            sum(v for k, v in self_s.items() if k.startswith(SUITE_PREFIX)),
            "s",
        )
        # share of unit time spent inside wrapped layer calls
        out["trace.layer_share"] = (1.0 - unit_self / unit_busy if unit_busy else 0.0, "ratio")
        out["trace.check_s"] = (self.check_seconds, "s")
        # the reference comparisons are the known tracing cost; the wrappers'
        # own cost (about 2 us per span) is left out
        rest = traced_wall_s - self.check_seconds
        out["trace.overhead_share"] = (self.check_seconds / rest if rest > 0 else 0.0, "ratio")
        return out
