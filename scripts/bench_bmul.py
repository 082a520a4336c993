#!/usr/bin/env python3
"""Replay the ``ratfunc.bmul`` products of one workload pass, by size bucket.

One cold pass of a ``perfbench`` workload (default ``assoc-triples``, seed
1234) runs in this process with ``ratfunc.bmul`` wrapped, so every operand
pair it multiplies is recorded.  The pairs are then sorted into buckets by
their number of term pairs, len(a) * len(b), and each bucket is replayed
through the term-by-term product (``_bmul_dict``), the packed product
forced (``_kronecker``) and ``bmul`` as it dispatches, taking the median of
the repeats.  Every replayed product is first checked equal on all three
paths.  These numbers are the measurement behind
``ratfunc._KRONECKER_MIN_PAIRS``.

    python3 scripts/bench_bmul.py --out scratch.json
    python3 scripts/bench_bmul.py --workload relation-sweep --repeats 7
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/, read only)
from ellhall import ratfunc  # noqa: E402

# Bucket edges in term pairs, len(a) * len(b).
EDGES = (1, 32, 64, 96, 112, 128, 144, 160, 192, 256, 512, 1024, 4096, 32768)


def record(workload, seed):
    """The operand pairs of one pass, the shorter operand first; and the pass."""
    pairs = []
    inner = ratfunc.bmul

    def recording(a, b):
        pairs.append((dict(a), dict(b)) if len(a) <= len(b) else (dict(b), dict(a)))
        return inner(a, b)

    ops = workloads.permute(workloads.build(workload), workload, seed, 0)
    ratfunc.bmul = recording
    t0 = time.perf_counter()
    try:
        results, failed = [], 0
        for label, fn in ops:
            ok, payload = fn()
            failed += not ok
            results.append((label, payload))
    finally:
        ratfunc.bmul = inner
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    return pairs, {"pass_s": time.perf_counter() - t0, "ops": len(ops), "failed": failed,
                   "digest_ok": workloads.digest(results) == reference[workload]}


def replay(pairs, fn, repeats):
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="assoc-triples", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="write the JSON here (default: standard output)")
    args = ap.parse_args()

    pairs, run = record(args.workload, args.seed)
    buckets = []
    edges = EDGES + (None,)
    for lo, hi in zip(edges, edges[1:]):
        sized = [(a, b) for a, b in pairs
                 if len(a) * len(b) >= lo and (hi is None or len(a) * len(b) < hi)]
        if not sized:
            continue
        declined = 0
        for a, b in sized:
            k, r = ratfunc._kronecker(a, b), ratfunc._bmul_dict(a, b)
            declined += k is None
            if ratfunc.bmul(a, b) != r or k not in (None, r):
                raise SystemExit(f"products differ on {a!r} * {b!r}")
        row = {"pairs_from": lo, "pairs_to": hi, "calls": len(sized), "declined": declined,
               "term_pairs": sum(len(a) * len(b) for a, b in sized)}
        for name, fn in (("dict_s", ratfunc._bmul_dict), ("kronecker_s", ratfunc._kronecker),
                         ("bmul_s", ratfunc.bmul)):
            row[name] = round(replay(sized, fn, args.repeats), 6)
        buckets.append(row)
        print(f"[{lo}, {hi}) {len(sized):6d} calls  dict {row['dict_s']:.4f}  "
              f"kronecker {row['kronecker_s']:.4f}  bmul {row['bmul_s']:.4f} s",
              file=sys.stderr)
    out = {
        "workload": args.workload, "seed": args.seed, "repeats": args.repeats,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "kronecker_min_pairs": ratfunc._KRONECKER_MIN_PAIRS,
        "pass": run, "calls": len(pairs), "buckets": buckets,
        "total_s": {k: round(sum(row[k] for row in buckets), 6)
                    for k in ("dict_s", "kronecker_s", "bmul_s")},
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
