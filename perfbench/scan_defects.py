"""Scan the known program defects (run.KNOWN_DEFECTS) over seeds.

    PYTHONPATH=src python3 perfbench/scan_defects.py 0 100 > scan.jsonl
    PYTHONPATH=src python3 perfbench/scan_defects.py --random 800 > scan.jsonl

Prints one JSON line per seed with residual / tolerance of every check that
run.KNOWN_DEFECTS names.  The ``odd`` and ``chern-identities`` suites run
through ``run_suite``; the checks of ``eta-identities``, ``relative`` and
``twisted`` are recomputed on their own from the inputs those suites draw,
which saves about 70 s per seed.  ``--random N`` takes N seeds drawn at
random from [100, 2**32), the range the benchmark's seeds come from; the
draw is fixed, so a scan repeats.
"""

import argparse
import json
import random
import sys

import numpy as np

from superchern import scenes, suites
from superchern.forms import Grading, TorusChart, exterior_d, sup_norm
from superchern.superconn import chern_character
from superchern.relative import OpenSet, relative_chern_pair, relative_d, relative_sup_norm
from superchern.transgression import eta_between, eta_infinity
from superchern.twisted import d_H, twisted_chern


def eta_checks(seed):
    # the inputs of _suite_eta: three random superconnections, then a gapped one
    chart = TorusChart(2, 32)
    rng = np.random.default_rng(seed)
    grading = Grading.balanced(1, 1)
    a0, a1, _ = (
        scenes.random_superconnection(rng, chart, grading, amp0=0.22, amp1=0.16, max_mode=1)
        for _ in range(3)
    )
    gapped = scenes.gapped_superconnection(
        rng, chart, gap=1.0, wiggle=0.06, phase_amp=0.2, amp1=0.15
    )
    eta01 = eta_between(a0, a1)
    transgression = sup_norm(
        chern_character(a1) - chern_character(a0) + exterior_d(eta01.form)
    )
    etai = eta_infinity(gapped, tol=1e-10)
    collapse = sup_norm(chern_character(gapped) - exterior_d(etai.form))
    return {
        "eta-transgression": transgression / 1e-8,
        "eta-invertible-collapse": collapse / (1e-8 + etai.est_error),
    }


def relative_pair_closed(seed):
    # the inputs of _suite_relative: two random scalar forms, then a gapped one
    chart = TorusChart(2, 32)
    rng = np.random.default_rng(seed)
    scenes.random_scalar_form(rng, chart, {0, 1, 2}, 0.8)
    scenes.random_scalar_form(rng, chart, {0, 1}, 0.8)
    gapped = scenes.gapped_superconnection(
        rng, chart, gap=1.0, wiggle=0.05, phase_amp=0.15, amp1=0.12
    )
    whole = OpenSet.whole(chart)
    pair = relative_chern_pair(gapped, whole)
    return relative_sup_norm(relative_d(pair, whole), whole) / 1e-8


def twisted_chern_closed(seed):
    # the inputs of _suite_twisted's d_H closedness check on T^3 N32
    chart = TorusChart(3, 32)
    rng = np.random.default_rng(seed)
    a = scenes.random_superconnection(
        rng, chart, Grading.balanced(1, 1), amp0=0.2, amp1=0.12, max_mode=1, with_higher=False
    )
    kappa = scenes.random_scalar_form(rng, chart, {2}, amp=0.25, max_mode=1)
    return sup_norm(d_H(twisted_chern(a, kappa), exterior_d(kappa))) / 1e-8


def scan(seed):
    ratios = {}
    for suite in ("odd", "chern-identities"):
        for r in suites.run_suite(suites.SuiteConfig(suite, seed=seed)).records:
            if r.name.startswith(("odd-transgression", "chern-closed-ramp-", "chern-gauge-")):
                ratios[r.name] = r.residual / r.tolerance
    ratios.update(eta_checks(seed))
    ratios["relative-pair-closed"] = relative_pair_closed(seed)
    ratios["twisted-chern-closed"] = twisted_chern_closed(seed)
    return ratios


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("start", type=int, nargs="?", default=0)
    parser.add_argument("stop", type=int, nargs="?", default=100)
    parser.add_argument("--random", type=int, metavar="N")
    args = parser.parse_args()
    if args.random:
        seeds = random.Random(20261018).sample(range(100, 2**32), args.random)
    else:
        seeds = range(args.start, args.stop)
    for seed in seeds:
        print(json.dumps({"seed": seed, **scan(seed)}), flush=True)


if __name__ == "__main__":
    sys.exit(main())
