"""Command-line batch runner.

Subcommands::

    superchern verify <suite> [--grid N] [--tol SCALE] [--seed S] [--out F]
    superchern dk apply-chain --cocycle scene.json --chain chain.json [--out F]
    superchern relative index --scene scene.json --open-set sets.json [--out F]
    superchern spectral table [--cutoffs 8,16,32,64] [--out F]
    superchern twisted verify [--seed S] [--out F]

Exit codes: 0 all checks pass, 1 at least one check failed, 2 input error.
Reports are JSON (schema 1) with a content hash over the timing-free payload;
CSV output is available for norm/convergence tables.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from .errors import SceneError, SuperchernError
from .serialize import (
    chain_from_dict,
    cocycle_from_dict,
    cocycle_to_dict,
    load_scene,
    open_set_from_dict,
    oracle_boxes_from_dict,
    save_scene,
    stabilizer_from_dict,
    superconnection_from_dict,
)
from .suites import SUITES, Report, SuiteConfig, run_suite

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _write_report(report: Report, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        rows = list(report.to_csv_rows())
        if out:
            with open(out, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        else:
            csv.writer(sys.stdout).writerows(rows)
        return
    text = report.to_json()
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class _InputError(SuperchernError):
    """A flag or config value is out of range."""


def _integer(name, value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise _InputError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise _InputError(f"{name} must be an integer, got {value!r}") from None


def _suite_config(suite, seed, grid, tol) -> SuiteConfig:
    """SuiteConfig from flag or config values, checked before any suite runs."""
    seed = _integer("seed", seed)
    if seed < 0:
        raise _InputError(f"seed must be nonnegative, got {seed}")
    if grid is not None:
        grid = _integer("grid", grid)
        if grid < 4 or grid & (grid - 1):
            raise _InputError(f"grid must be a power of two, at least 4, got {grid}")
    try:
        tol = float(tol)
    except (TypeError, ValueError):
        raise _InputError(f"tolerance scale must be a number, got {tol!r}") from None
    if not (math.isfinite(tol) and tol >= 0):
        raise _InputError(f"tolerance scale must be finite and nonnegative, got {tol}")
    return SuiteConfig(suite=suite, seed=seed, grid=grid, tol_scale=tol)


def _suite_configs(args) -> list:
    """SuiteConfigs of a verify command: flags, overridden by the --config file."""
    overrides = load_scene(args.config) if getattr(args, "config", None) else {}
    if args.suite == "all":
        if "suite" in overrides:
            raise _InputError("verify all runs every suite; its config cannot set suite")
        names = sorted(SUITES)
    else:
        names = [overrides.get("suite", args.suite)]
    return [
        _suite_config(
            name,
            overrides.get("seed", args.seed),
            overrides.get("grid", args.grid),
            overrides.get("tol_scale", args.tol),
        )
        for name in names
    ]


def _cmd_verify(args) -> int:
    configs = _suite_configs(args)
    if args.suite == "all":
        from .suites import run_many

        worst = EXIT_PASS
        for report in run_many(configs):
            out = None
            if args.out:
                stem, dot, ext = args.out.rpartition(".")
                out = f"{stem}-{report.suite}.{ext}" if dot else f"{args.out}-{report.suite}"
            _write_report(report, out, args.format)
            if not report.passed:
                worst = EXIT_FAIL
        return worst
    try:
        report = run_suite(configs[0])
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _write_report(report, args.out, args.format)
    for rec in sorted(report.records, key=lambda r: r.name):
        status = "pass" if rec.passed else "FAIL"
        print(
            f"[{status}] {rec.name}: residual {rec.residual:.3e} "
            f"(tol {rec.tolerance:.1e})",
            file=sys.stderr,
        )
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_dk_chain(args) -> int:
    from .dk import (
        cocycle_add,
        collapse_invertible,
        kernel_reduce,
        normalize_q,
        product_cocycle,
        shift_superconnection,
        stabilize,
    )

    try:
        cocycle = cocycle_from_dict(load_scene(args.cocycle))
        ops = chain_from_dict(load_scene(args.chain))
    except SceneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    trail = []
    op = None
    try:
        for step in ops:
            op = step.get("op")
            if op == "add":
                other = cocycle_from_dict(load_scene(step["with"]))
                cocycle = cocycle_add(cocycle, other)
            elif op == "collapse":
                cocycle = collapse_invertible(cocycle, tol=step.get("tol", 1e-10))
            elif op == "shift":
                target = superconnection_from_dict(step["superconnection"])
                cocycle = shift_superconnection(cocycle, target)
            elif op == "stabilize":
                st = stabilizer_from_dict(step["stabilizer"], cocycle.chart)
                cocycle = stabilize(cocycle, st)
            elif op == "kernel-reduce":
                cocycle = kernel_reduce(cocycle, rank_tol=step.get("rank_tol", 1e-8))
            elif op == "normalize":
                st = stabilizer_from_dict(step["stabilizer"], cocycle.chart)
                cocycle = normalize_q(cocycle, st)
            elif op == "product":
                other = cocycle_from_dict(load_scene(step["with"]))
                cocycle = product_cocycle(cocycle, other)
            else:
                print(f"error: unknown chain op {op!r}", file=sys.stderr)
                return EXIT_INPUT
            trail.append({"op": op, "rank": cocycle.rank})
    except KeyError as exc:
        print(f"error: chain step {len(trail) + 1} ({op}) lacks key {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SceneError as exc:
        print(f"error: chain step {len(trail) + 1} ({op}): {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SuperchernError as exc:
        print(f"error applying chain: {exc}", file=sys.stderr)
        return EXIT_FAIL
    payload = cocycle_to_dict(cocycle)
    payload["chain_trail"] = trail
    if args.out:
        save_scene(args.out, payload)
    else:
        json.dump(trail, sys.stdout, indent=1)
        print()
    return EXIT_PASS


def _positive(name, value) -> float:
    if not (math.isfinite(value) and value > 0):
        raise _InputError(f"{name} must be finite and positive, got {value}")
    return value


def _cmd_relative_index(args) -> int:
    from .forms import integrate
    from .relative import box_integral, index_character, winding_number_box
    from .serialize import form_to_dict

    alpha = _positive("alpha", args.alpha)
    c_frac = _positive("c-frac", args.c_frac)
    try:
        scene = load_scene(args.scene)
        a = superconnection_from_dict(scene["superconnection"])
        u = open_set_from_dict(load_scene(args.open_set), a.chart)
        boxes = oracle_boxes_from_dict(scene)
    except (SceneError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if a.chart.dim and not u.core.any():
        print(
            "error: the open set's core is empty, so --c-frac times the core gap "
            "defines no parametrix window",
            file=sys.stderr,
        )
        return EXIT_INPUT
    xi_shape = ("gauss", alpha) if args.xi == "gauss" else "bump"
    try:
        from .relative import core_min_gap

        gap = core_min_gap(a, u)
        chi = index_character(a, u, c=c_frac * gap, xi_shape=xi_shape)
    except SuperchernError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    out = {
        "schema": 1,
        "type": "relative_index_report",
        "character": form_to_dict(chi.omega),
        "core_sup": float(np.abs(chi.omega.data[:, u.core]).max())
        if u.core.any()
        else 0.0,
    }
    if a.chart.dim == 2:
        out["total_period_over_2pii"] = repr(
            integrate(chi.omega, (0, 1)) / (2j * np.pi)
        )
        oracle = []
        for center, radius in boxes:
            per = box_integral(chi.omega, (0, 1), (center, radius)) / (2j * np.pi)
            t0 = a.term0_field()
            field = t0[..., 1, 0] if a.rank >= 2 else t0[..., 0, 0]
            w = winding_number_box(field, a.chart, (center, radius))
            oracle.append(
                {"center": center, "period_over_2pii": repr(per), "winding": w}
            )
        out["oracle_boxes"] = oracle
    if args.out:
        save_scene(args.out, out)
    else:
        print(json.dumps({k: v for k, v in out.items() if k != "character"}, indent=1))
    return EXIT_PASS


def _cutoffs(text: str) -> tuple:
    """Comma-separated cutoffs of spectral table, each an integer >= 1."""
    values = []
    for item in text.split(","):
        try:
            n = int(item)
        except ValueError:
            raise _InputError(f"cutoffs must be integers, got {item!r}") from None
        if n < 1:
            raise _InputError(f"cutoffs must be at least 1, got {n}")
        values.append(n)
    return tuple(values)


def _cmd_spectral_table(args) -> int:
    from .spectral import DiracModel, TruncatedOperator, parametrix_test

    cutoffs = _cutoffs(args.cutoffs)
    if not 0.0 <= args.twist < 2.0 * math.pi:
        raise _InputError(f"twist must lie in [0, 2 pi), got {args.twist}")

    def factory(n):
        ref = DiracModel(n, twist=args.twist)
        p = TruncatedOperator(ref.matrix(), ref)
        w = ref.spectrum
        fw = np.where(np.abs(w) > 0.25, 1.0 / np.where(w == 0, 1.0, w), 0.0)
        q = TruncatedOperator(np.diag(fw.astype(complex)), ref)
        return p, q

    report = parametrix_test(factory, cutoffs=cutoffs)
    rows = [("table", "N", "k", "s", "norm")]
    for name, table in report["tables"].items():
        for n, k, s, v in table:
            rows.append((name, n, k, s, f"{v:.6e}"))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)
    print(
        json.dumps({k: v["classification"] for k, v in report["trends"].items()}),
        file=sys.stderr,
    )
    return EXIT_PASS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="superchern",
        description="verification suites for the superconnection calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p_verify.add_argument("--grid", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=1.0, help="tolerance scale")
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--config", default=None, help="JSON config overriding flags")

    p_dk = sub.add_parser("dk", help="differential K-cocycle tools")
    dk_sub = p_dk.add_subparsers(dest="dk_command", required=True)
    p_chain = dk_sub.add_parser("apply-chain", help="apply a relation chain")
    p_chain.add_argument("--cocycle", required=True)
    p_chain.add_argument("--chain", required=True)
    p_chain.add_argument("--out", default=None)

    p_rel = sub.add_parser("relative", help="relative index tools")
    rel_sub = p_rel.add_subparsers(dest="rel_command", required=True)
    p_idx = rel_sub.add_parser("index", help="emit the relative index character")
    p_idx.add_argument("--scene", required=True)
    p_idx.add_argument("--open-set", required=True, dest="open_set")
    p_idx.add_argument("--xi", choices=("bump", "gauss"), default="gauss")
    p_idx.add_argument("--alpha", type=float, default=10.5)
    p_idx.add_argument("--c-frac", type=float, default=0.75, dest="c_frac",
                       help="parametrix window as a fraction of the core gap")
    p_idx.add_argument("--out", default=None)

    p_spec = sub.add_parser("spectral", help="spectral-scale diagnostics")
    spec_sub = p_spec.add_subparsers(dest="spec_command", required=True)
    p_table = spec_sub.add_parser("table", help="norm tables across cutoffs")
    p_table.add_argument("--cutoffs", default="8,16,32,64")
    p_table.add_argument("--twist", type=float, default=0.5)
    p_table.add_argument("--out", default=None)

    p_tw = sub.add_parser("twisted", help="gerbe and twisted-calculus checks")
    tw_sub = p_tw.add_subparsers(dest="tw_command", required=True)
    p_twv = tw_sub.add_parser("verify", help="run the twisted suite")
    p_twv.add_argument("--grid", type=int, default=None)
    p_twv.add_argument("--tol", type=float, default=1.0)
    p_twv.add_argument("--seed", type=int, default=42)
    p_twv.add_argument("--out", default=None)
    p_twv.add_argument("--format", choices=("json", "csv"), default="json")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "dk":
            return _cmd_dk_chain(args)
        if args.command == "relative":
            return _cmd_relative_index(args)
        if args.command == "spectral":
            return _cmd_spectral_table(args)
        if args.command == "twisted":
            args.suite = "twisted"
            args.format = getattr(args, "format", "json")
            return _cmd_verify(args)
    except (SceneError, _InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
