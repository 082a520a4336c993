#!/usr/bin/env python3
"""Time the slow tail of the criterion-4 associativity triples.

``check_straightening`` (verify-all criterion 4) draws 100 triples of
generators in [-3, 3]^2 per twist n = 1, 2 from ``Random(1234 + n)``; a
few of them take most of its time.  This script times the 10 slowest of
each twist (``TAIL``, indices into that corpus), each as
``(a b) c == a (b c)`` on a cold ``EllipticHallAlgebra``, and keeps the
median of 3 runs.  It writes ``BENCH_<label>.json`` with the
commit, the machine, the Python version, the per-triple medians and their
sum.

    python3 scripts/bench_tail.py --label 1
    python3 scripts/bench_tail.py --label 0 --src ../parent/src --commit e4a1e45
    python3 scripts/bench_tail.py --rank          # re-derive TAIL (one run each)
"""

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEED = 1234
TRIPLES_PER_TWIST = 100
COORD_BOUND = 3
REPEATS = 3

# The 10 slowest corpus indices per twist, slowest first (--rank at e4a1e45).
TAIL = {
    1: (48, 78, 53, 28, 57, 11, 79, 1, 9, 15),
    2: (75, 78, 94, 23, 81, 34, 82, 40, 77, 84),
}


def corpus(n, seed=SEED):
    """The triples check_straightening draws at twist n, in its order."""
    rng = random.Random(seed + n)
    out = []
    while len(out) < TRIPLES_PER_TWIST:
        vs = [(rng.randint(-COORD_BOUND, COORD_BOUND), rng.randint(-COORD_BOUND, COORD_BOUND))
              for _ in range(3)]
        if (0, 0) not in vs:
            out.append(vs)
    return out


def time_triple(n, vs):
    """Seconds for one associativity check on a fresh algebra."""
    from ellhall.elliptic_hall import EllipticHallAlgebra
    from ellhall.ratfunc import FORMAL

    t0 = time.perf_counter()
    alg = EllipticHallAlgebra(n, FORMAL)
    a, b, c = (alg.generator(v) for v in vs)
    if (a * b) * c != a * (b * c):
        raise SystemExit(f"not associative: n={n} {vs}")
    return time.perf_counter() - t0


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


def rank():
    for n in sorted(TAIL):
        times = [(time_triple(n, vs), i, vs) for i, vs in enumerate(corpus(n))]
        times.sort(reverse=True)
        total = sum(t for t, _, _ in times)
        print(f"n={n}: all {len(times)} triples {total:.2f} s; 10 slowest "
              f"{sum(t for t, _, _ in times[:10]):.2f} s")
        for t, i, vs in times[:10]:
            print(f"  #{i:3d} {vs}  {t:.3f} s")
        print(f"  indices: {tuple(i for _, i, _ in times[:10])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="0", help="writes BENCH_<label>.json")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the src/ directory whose ellhall is timed")
    ap.add_argument("--commit", help="recorded commit (default: git describe of --src)")
    ap.add_argument("--rank", action="store_true",
                    help="time every corpus triple once and print the slowest 10")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.rank:
        rank()
        return

    rows = []
    for n in sorted(TAIL):
        draws = corpus(n)
        for i in TAIL[n]:
            rows.append({"n": n, "index": i, "triple": draws[i], "runs_s": []})
    for _ in range(REPEATS):
        for row in rows:
            row["runs_s"].append(round(time_triple(row["n"], row["triple"]), 4))
    for row in rows:
        row["median_s"] = statistics.median(row["runs_s"])
        print(f"n={row['n']} #{row['index']:3d} {row['triple']}  {row['median_s']:.3f} s")
    by_twist = {str(n): round(sum(r["median_s"] for r in rows if r["n"] == n), 4)
                for n in sorted(TAIL)}
    report = {
        "label": args.label,
        "commit": args.commit or describe_commit(args.src),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "corpus": {"seed": SEED, "triples_per_twist": TRIPLES_PER_TWIST,
                   "coord_bound": COORD_BOUND},
        "repeats": REPEATS,
        "triples": rows,
        "sum_median_s": round(sum(r["median_s"] for r in rows), 4),
        "sum_median_s_by_twist": by_twist,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"sum of medians {report['sum_median_s']:.3f} s -> {out.name}")


if __name__ == "__main__":
    main()
