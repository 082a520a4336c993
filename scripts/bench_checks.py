#!/usr/bin/env python3
"""Time every full-scale ``verify-all`` check, median of 3 runs.

Each run is a fresh ``python -m ellhall --format json --with-timings
verify-all`` process (default seed 1234, full budgets), so every module
cache starts cold, as in one real run.  The script keeps each check's
elapsed time per run and its median, requires the reports of all runs to
agree once the timings are dropped, and writes ``BENCH_<label>.json``
with the commit, the machine, the Python version, the per-check medians,
their sum and the SHA-256 of the report as plain ``--format json
verify-all`` writes it (equal digests mean byte-identical reports).

    python3 scripts/bench_checks.py --label 3
    python3 scripts/bench_checks.py --label 2 --src ../parent/src --commit 98b27a7
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

REPEATS = 3


def describe_commit(src):
    """``git describe --always --dirty`` of the checkout holding src; a dirty
    tree also gets a short SHA-256 of ``git diff HEAD`` (tracked files), so
    benches of two uncommitted edits of one commit stay apart."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=src, capture_output=True,
                              check=True).stdout
    try:
        described = git("describe", "--always", "--dirty").decode().strip()
        if described.endswith("-dirty"):
            described += "-" + hashlib.sha256(git("diff", "HEAD")).hexdigest()[:12]
        return described
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_once(src):
    """(report without timings, {check: elapsed_s}) of one verify-all process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "ellhall", "--format", "json",
                           "--with-timings", "verify-all"],
                          env=env, capture_output=True, text=True, check=True)
    report = json.loads(proc.stdout)
    times = {row["name"]: row.pop("elapsed_s") for row in report["checks"]}
    return report, times


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="0", help="writes BENCH_<label>.json")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory whose ellhall is timed")
    ap.add_argument("--commit", help="recorded commit (default: git describe of --src)")
    args = ap.parse_args()
    src = Path(args.src).resolve()

    reference = None
    runs = {}
    for k in range(REPEATS):
        report, times = run_once(src)
        if reference is None:
            reference = report
        elif report != reference:
            raise SystemExit(f"run {k + 1}: report differs from run 1")
        for name, t in times.items():
            runs.setdefault(name, []).append(t)
        print(f"run {k + 1}: {sum(times.values()):.2f} s")
    checks = [{"name": row["name"], "status": row["status"], "runs_s": runs[row["name"]],
               "median_s": statistics.median(runs[row["name"]])}
              for row in reference["checks"]]
    for row in checks:
        print(f"{row['name']:32s} {row['status']:5s} {row['median_s']:8.3f} s")
    # the bytes of the default report (no timings), as the CLI writes them
    canonical = (json.dumps(reference, indent=2, sort_keys=True) + "\n").encode()
    out = {
        "label": args.label,
        "commit": args.commit or describe_commit(src),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "command": "python -m ellhall --format json --with-timings verify-all",
        "repeats": REPEATS,
        "summary": reference["summary"],
        "report_sha256": hashlib.sha256(canonical).hexdigest(),
        "checks": checks,
        "sum_median_s": round(sum(row["median_s"] for row in checks), 3),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"sum of medians {out['sum_median_s']:.3f} s -> {path.name}")


if __name__ == "__main__":
    main()
