"""Compare check outcomes of two source trees over a range of seeds.

    PYTHONPATH=base/src python check_outcomes.py run --seeds 0-19 --out base.json
    PYTHONPATH=src python check_outcomes.py run --seeds 0-19 --out head.json
    python check_outcomes.py compare base.json head.json

``run`` executes the benchmark's six suites and ``dk-relations`` (the only
suite that reaches ``dk.kernel_reduce``) at their default grids through
``run_suite``, one seed after another, and writes every record's residual
and outcome.  ``compare`` prints every record whose residual changed and
exits 1 if a (seed, check) pair passes on the first tree and fails on the
second, or if a record name appears or disappears.
"""

from __future__ import annotations

import argparse
import json
import sys

SUITES = (
    "eta-identities",
    "odd",
    "chern-identities",
    "relative",
    "twisted",
    "spectral-lemmas",
    "dk-relations",
)


def seed_list(text: str) -> list:
    """Seeds from "0-19", "7" or "0-99,1418082623"."""
    seeds = []
    for item in text.split(","):
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(seeds) -> dict:
    from superchern.suites import SuiteConfig, run_suite

    out = {}
    for seed in seeds:
        for suite in SUITES:
            report = run_suite(SuiteConfig(suite, seed=seed))
            out[f"{suite} {seed}"] = {
                "hash": report.content_hash(),
                "records": {r.name: [r.residual, r.passed] for r in report.records},
            }
            print(f"{suite} seed {seed}: {report.content_hash()[:12]}", file=sys.stderr)
    return out


def compare(base: dict, head: dict) -> list:
    """Printable changes, and the problems among them."""
    problems = []
    for key in sorted(base.keys() | head.keys()):
        if key not in base or key not in head:
            problems.append(f"{key}: run on one side only")
            continue
        old, new = base[key]["records"], head[key]["records"]
        for name in sorted(old.keys() ^ new.keys()):
            side = "head" if name in new else "base"
            problems.append(f"{key} {name}: record only at the {side}")
        for name in sorted(old.keys() & new.keys()):
            (r0, p0), (r1, p1) = old[name], new[name]
            if r0 != r1:
                print(f"{key} {name}: residual {r0!r} -> {r1!r}")
            if p0 and not p1:
                problems.append(f"{key} {name}: passes at the base, fails at the head")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--seeds", default="0-19")
    p_run.add_argument("--out", required=True)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("base")
    p_cmp.add_argument("head")
    args = parser.parse_args(argv)
    if args.command == "run":
        with open(args.out, "w") as fh:
            json.dump(run(seed_list(args.seeds)), fh, indent=1, sort_keys=True)
        return 0
    with open(args.base) as fh_base, open(args.head) as fh_head:
        base, head = json.load(fh_base), json.load(fh_head)
    problems = compare(base, head)
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{len(base)} (suite, seed) runs compared, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
