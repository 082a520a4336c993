"""Command line driver.

Subcommands:

  curve-info   point counts, trace, Picard structures, zeta numerator
  characters   character table diagnostics at a level
  straighten   normal form of a term-language expression
  verify-all   the full verification suite

Configuration comes from an optional key=value curve file plus flags
(flags win), given before or after the subcommand.  All numeric output
is exact; reports are deterministic for a fixed seed and configuration
(timings are only included on request).

Exit codes: 0 all checks passed or were skipped, 1 any check failed,
2 configuration, usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, field, fields

from .curve import BudgetExceeded, CurveData, all_characters, character_orbits, \
    primitive_orbits
from .elliptic_hall import EllipticHallAlgebra
from .exprlang import parse_expression
from .ratfunc import FORMAL
from .verification import CheckResult, run_verify_all

SCHEMA_VERSION = 1

CURVE_KEYS = ("q", "a1", "a2", "a3", "a4", "a6")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    curve_params: dict = field(default_factory=lambda: {"q": 2, "a3": 1})
    n: int = 1
    order: int = 8
    budget_degree: int | None = None
    seed: int = 1234
    out_format: str = "text"
    with_timings: bool = False

    def validate(self):
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.order < 0:
            raise ConfigError("order must be >= 0")
        if self.budget_degree is not None and self.budget_degree < 1:
            raise ConfigError("budget-degree must be >= 1")
        if self.out_format not in ("json", "csv", "text"):
            raise ConfigError(f"unknown format {self.out_format!r}")


def load_curve_file(path: str) -> dict:
    params = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in CURVE_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                params[key] = int(val)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {val!r} is not an integer")
    if "q" not in params:
        raise ConfigError(f"{path}: missing q")
    return params


def build_curve(config: RunConfig) -> CurveData:
    params = dict(config.curve_params)
    q = params.pop("q")
    try:
        return CurveData(q, **params)
    except (ValueError, BudgetExceeded) as exc:
        raise ConfigError(str(exc))


# -- report assembly ---------------------------------------------------------


def make_report(command: str, config: RunConfig, checks: list[CheckResult]) -> dict:
    rows = []
    for c in checks:
        row = {"name": c.name, "status": c.status,
               "detail": {k: str(v) for k, v in sorted(c.detail.items())}}
        if config.with_timings:
            row["elapsed_s"] = c.elapsed
        rows.append(row)
    summary = {status: sum(1 for c in checks if c.status == status)
               for status in ("pass", "fail", "skip")}
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": {
            "curve": dict(sorted(config.curve_params.items())),
            "n": config.n,
            "order": config.order,
            "budget_degree": config.budget_degree,
            "seed": config.seed,
        },
        "checks": rows,
        "summary": summary,
    }


def emit_report(report: dict, out_format: str, stream) -> None:
    if out_format == "json":
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")
    elif out_format == "csv":
        writer = csv.writer(stream)
        writer.writerow(["name", "status", "detail"])
        for row in report["checks"]:
            detail = "; ".join(f"{k}={v}" for k, v in row["detail"].items())
            writer.writerow([row["name"], row["status"], detail])
    else:
        stream.write(f"# {report['command']} (schema v{report['schema_version']})\n")
        for row in report["checks"]:
            stream.write(f"[{row['status'].upper():4s}] {row['name']}\n")
            for k, v in row["detail"].items():
                stream.write(f"         {k}: {v}\n")
        s = report["summary"]
        stream.write(f"summary: {s['pass']} pass, {s['fail']} fail, {s['skip']} skip\n")


def exit_code(report: dict) -> int:
    return 1 if report["summary"]["fail"] else 0


# -- subcommands -------------------------------------------------------------


def cmd_curve_info(config: RunConfig) -> dict:
    curve = build_curve(config)
    checks = []
    detail = {"q": str(curve.q), "trace": str(curve.trace)}
    nmax = config.budget_degree or 6
    ok = True
    counts = []
    for n in range(1, nmax + 1):
        try:
            enum = curve.count_points(n)
        except BudgetExceeded:
            break
        counts.append(enum)
        if enum != curve.count_via_trace(n):
            ok = False
    detail["point counts"] = str(counts)
    checks.append(CheckResult("counts-match-trace-recursion",
                              "pass" if ok else "fail", detail))
    structures = {}
    for n in range(1, min(nmax, 4) + 1):
        if curve.q ** n > 10 ** 4:
            break
        pic = curve.picard(n)
        structures[f"level {n}"] = " x ".join(f"Z/{d}" for d in pic.divisors)
    checks.append(CheckResult("picard-structures", "pass", structures))
    num, den = curve.zeta_rational(1)
    zrow = {"zeta numerator": str(num), "zeta denominator": str(den)}
    series = curve.zeta_series(1, max(2, config.order))
    zrow["zeta series"] = str([str(c) for c in series[:6]])
    ok = series[1] == curve.count_points(1)
    checks.append(CheckResult("zeta-log-derivative", "pass" if ok else "fail", zrow))
    return make_report("curve-info", config, checks)


def cmd_characters(config: RunConfig) -> dict:
    curve = build_curve(config)
    n = config.n
    checks = []
    try:
        orbits = character_orbits(curve, n)
        prim = primitive_orbits(curve, n)  # includes the norm-exclusion cross-check
    except (AssertionError, BudgetExceeded) as exc:
        checks.append(CheckResult("character-table", "fail", {"error": str(exc)}))
        return make_report("characters", config, checks)
    fixed = sum(1 for chi in all_characters(curve, n) if chi.frobenius() == chi)
    detail = {
        "characters": str(len(all_characters(curve, n))),
        "orbits": str(len(orbits)),
        "primitive orbits": str(len(prim)),
        "frobenius-fixed": str(fixed),
        "primitive reps": str([list(o.rep.exps) for o in prim]),
    }
    ok = True
    if n > 1:
        triv = next(o for o in orbits if o.rep.is_trivial())
        if triv.is_primitive():
            ok = False
            detail["trivial"] = "trivial orbit wrongly primitive"
    if n == 1 and len(prim) != len(orbits):
        ok = False
    checks.append(CheckResult("character-table", "pass" if ok else "fail", detail))
    return make_report("characters", config, checks)


def cmd_straighten(config: RunConfig, expression: str) -> dict:
    algebra = EllipticHallAlgebra(config.n, FORMAL)
    element = parse_expression(expression, algebra)
    terms = {json.dumps([list(v) for v in path]): str(coeff)
             for path, coeff in sorted(element.terms.items())}
    checks = [CheckResult("straighten", "pass",
                          {"expression": expression, "terms": json.dumps(terms, sort_keys=True)})]
    report = make_report("straighten", config, checks)
    report["normal_form"] = terms
    return report


def cmd_verify_all(config: RunConfig) -> dict:
    checks = run_verify_all(budget_degree=config.budget_degree, seed=config.seed)
    return make_report("verify-all", config, checks)


# -- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    # Options every subcommand takes, before or after its name.  None has a
    # parser default: an option given in neither place keeps its RunConfig
    # default, and the copy after the subcommand cannot overwrite a value
    # given before it.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--curve", metavar="FILE", help="curve config file (key=value)")
    common.add_argument("--n", type=int, help="twist level / character level")
    common.add_argument("--order", type=int, help="series truncation order")
    common.add_argument("--budget-degree", type=int,
                        help="reduce check budgets to this degree bound")
    common.add_argument("--seed", type=int, help="seed for randomized checks")
    common.add_argument("--format", dest="out_format", choices=("json", "csv", "text"))
    common.add_argument("--with-timings", action="store_true",
                        help="include elapsed times (reports stop being byte-stable)")
    parser = argparse.ArgumentParser(
        prog="ellhall", parents=[common],
        description="Exact loop-algebra and curve-side verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("curve-info", parents=[common])
    sub.add_parser("characters", parents=[common])
    p_str = sub.add_parser("straighten", parents=[common])
    p_str.add_argument("expression")
    sub.add_parser("verify-all", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = vars(args)
    config = RunConfig(**{f.name: given[f.name] for f in fields(RunConfig)
                          if f.name in given})
    try:
        if "curve" in given:
            config.curve_params = load_curve_file(args.curve)
        config.validate()
        if args.command == "curve-info":
            report = cmd_curve_info(config)
        elif args.command == "characters":
            report = cmd_characters(config)
        elif args.command == "straighten":
            try:
                report = cmd_straighten(config, args.expression)
            except (ValueError, ZeroDivisionError) as exc:
                # bad input (a parse error is a ValueError too), not a failed check
                print(f"error: {exc}", file=sys.stderr)
                return 2
        elif args.command == "verify-all":
            report = cmd_verify_all(config)
        else:  # pragma: no cover
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    emit_report(report, config.out_format, buf)
    sys.stdout.write(buf.getvalue())
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
