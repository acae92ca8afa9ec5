"""Benchmark for the superchern verifier; run from the repository root.

    python3 perfbench/run.py --workload eta-quadrature --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Every workload pass runs in a fresh worker process (perfbench/worker.py)
that imports superchern from ./src.  With ``--trace 0`` the run starts a
few set-up probes, then passes until ``--seconds`` are used (at least one),
and reports the end-to-end metrics as medians over them.  With
``--trace 1`` it runs one untraced and one traced pass, which must agree
on every output, and reports the per-layer metrics of the traced one.
Human-readable lines come first; the last line of standard output is one
JSON object.  Result files, with the environment and every pass, go to
.perfbench-out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench-out"
WORKLOADS = ("eta-quadrature", "field-batches", "odd-suspension")

# a run must end within 180 s; leave room for the last pass to be cut short
DEADLINE_S = 170.0
# set-up probes per untraced run; each pass adds one more set-up sample
SETUP_PROBES = 8
# algebra_exp against scipy.linalg.expm at sampled grid points (traced runs)
MAX_REL_DEV = 1e-10
# seeds at which every check below was scanned for failures (NOTES.md)
SCANNED_SEEDS = range(0, 100)
# Program defects, not benchmark bugs: check name prefix -> (seeds in
# SCANNED_SEEDS at which it fails, largest residual / tolerance seen over those
# seeds and 240-800 random ones; scan_defects.py makes both).  Each residual
# is the truncation error of a suite's default grid, spread over three to
# four decades with a heavy tail across seeds.  A failure is accepted only at
# a listed seed, or at an unscanned seed up to DEFECT_HEADROOM times that
# worst ratio; any other failing or raising check makes a run incorrect.
KNOWN_DEFECTS = {
    "chern-closed-ramp-": (
        frozenset({0, 1, 5, 7, 17, 19, 27, 29, 37, 39, 43, 44, 45, 46, 48, 50, 58,
                   60, 62, 64, 66, 69, 71, 73, 85, 87, 93, 95, 96, 98}),
        49.3,
    ),
    "chern-gauge-invariant": (frozenset({40}), 11.4),
    "twisted-chern-closed": (frozenset({8, 17, 22, 26}), 24.7),
    "relative-pair-closed": (frozenset(), 0.130),
    "eta-transgression": (frozenset(), 1.67),
    "eta-invertible-collapse": (frozenset({14, 50, 56, 60, 65}), 27.3),
    "odd-transgression": (frozenset({22, 26, 55, 62, 82}), 227.0),
}
DEFECT_HEADROOM = 100


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root):
        self.src = os.path.join(root, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, env.get("PYTHONPATH")) if p
        )
        self.env = env
        self.deadline = None

    def spawn(self, *args):
        """Run the worker once; returns (result, spawn time on CLOCK_MONOTONIC)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next worker")
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, WORKER, "--src", self.src, *args],
                stdout=subprocess.PIPE,
                env=self.env,
                timeout=timeout,
                text=True,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(args)} did not finish in {timeout:.0f} s")
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), start

    def passes(self, workload, seed, seconds):
        setups = []
        for _ in range(SETUP_PROBES):
            out, start = self.spawn("--setup-only")
            setups.append(out["ready"] - start)
        passes = []
        first = time.monotonic()
        while True:
            out, start = self.spawn("--workload", workload, "--seed", str(seed))
            setups.append(out["ready"] - start)
            passes.append(out)
            used = time.monotonic() - first
            per_pass = used / len(passes)
            if used + per_pass > seconds or time.monotonic() + per_pass > self.deadline:
                return passes, setups

    def traced(self, workload, seed, spans_path):
        plain, _ = self.spawn("--workload", workload, "--seed", str(seed))
        traced, _ = self.spawn(
            "--workload", workload, "--seed", str(seed), "--trace", spans_path
        )
        return plain, traced


def margins(checks):
    """log10(tolerance / residual) of every evaluated check with a nonzero residual."""
    return [
        math.log10(c["tolerance"] / c["residual"])
        for c in checks
        if c["error"] is None and c["residual"] > 0
    ]


def known_defect(check, seed):
    """True if a failing (not raising) check is one of KNOWN_DEFECTS at this seed."""
    for prefix, (seeds, worst) in KNOWN_DEFECTS.items():
        if check["name"].startswith(prefix):
            if seed in SCANNED_SEEDS:
                return seed in seeds
            return check["residual"] <= DEFECT_HEADROOM * worst * check["tolerance"]
    return False


def judge(passes, seed):
    """attempted and failed checks, failing check names, and output problems.

    Every failed or raising check counts in ``failed``.  A problem means the
    outputs cannot be trusted and makes the run incorrect: a unit that raised
    (its remaining checks never ran), a failing check that is not a known
    program defect at this seed, or passes of one seed that disagree.
    """
    checks = [c for p in passes for u in p["units"] for c in u["checks"]]
    failing = sorted({c["name"] for c in checks if not c["passed"]})
    problems = sorted(
        {f"{c['name']} raised {c['error']}" for c in checks if c["error"] is not None}
    )
    unknown = sorted(
        {
            c["name"]
            for c in checks
            if not c["passed"] and c["error"] is None and not known_defect(c, seed)
        }
    )
    if unknown:
        problems.append(f"checks failed that are not known defects: {', '.join(unknown)}")
    if len({tuple(u["digest"] for u in p["units"]) for p in passes}) > 1:
        problems.append("passes of one seed produced different outputs")
    return len(checks), sum(not c["passed"] for c in checks), failing, problems


def run_workload(runner, workload, seed, seconds, trace):
    runner.deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}")
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    if trace:
        plain, traced = runner.traced(workload, seed, stem + "-spans.json")
        passes = [plain, traced]
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        record["spans"] = stem + "-spans.json"
    else:
        passes, setups = runner.passes(workload, seed, seconds)
        digits = margins([c for u in passes[0]["units"] for c in u["checks"]])
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            "tol_margin_digits": (statistics.mean(digits) if digits else 0.0, "digits"),
        }
        record["setup_samples_s"] = setups
        record["tol_margin_min_digits"] = min(digits, default=None)
    attempted, failed, failing, problems = judge(passes, seed)
    if not trace and not digits:
        problems.append("no check produced a residual")
    if trace and metrics["forms.algebra_exp.max_rel_dev"][0] > MAX_REL_DEV:
        problems.append("algebra_exp deviates from scipy.linalg.expm")
    record.update(
        environment=passes[0]["environment"],
        passes=[
            {k: p[k] for k in ("wall_s", "peak_rss_mb", "units")}
            for p in passes
        ],
        attempted=attempted,
        failed=failed,
        check_fail_share=failed / attempted,
        failing_checks=failing,
        problems=problems,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{workload}  seed {seed}  trace {int(trace)}  passes {len(passes)}  -> {stem}.json")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  {'check_fail_share':42s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    if not trace and digits:
        print(f"  {'tol_margin_min_digits':42s} {min(digits):.6g} digits")
    for name in failing:
        print(f"  failed check: {name}")
    for problem in problems:
        print(f"  INCORRECT: {problem}")
    return not problems, attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "superchern", "__init__.py")):
        print("run.py: ./src/superchern not found; run from the repository root", file=sys.stderr)
        return 2
    runner = Runner(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            ok, a, f, m = run_workload(runner, name, args.seed, args.seconds, bool(args.trace))
            correct, attempted, failed = correct and ok, attempted + a, failed + f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
