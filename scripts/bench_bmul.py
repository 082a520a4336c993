#!/usr/bin/env python3
"""Replay the ``ratfunc.bmul`` products and the sums of products of one
workload pass, by size bucket.

One cold pass of a ``perfbench`` workload (default ``assoc-triples``, seed
1234) runs in this process with ``ratfunc.bmul`` and
``FormalRing.sum_of_products`` wrapped, so every operand pair it multiplies
and every sum of two or more products it forms is recorded.

Products are sorted into buckets by their number of term pairs,
len(a) * len(b), and each bucket is replayed through the term-by-term
product (``_bmul_dict``), the packed product forced (``_kronecker``) and
``bmul`` as it dispatches.  Sums are sorted by their term pairs in all, and
each bucket is replayed through products and sums one by one (``*`` and
``+``, without the engine's product table), the multiply-accumulate kernel
forced (``_packed_sum`` with no threshold, products and sums where it
declines) and ``sum_of_products`` as it dispatches.  Each time is the median
of the repeats, and every replayed value is first checked equal on all
three paths.  These numbers are the measurement behind
``ratfunc._KRONECKER_MIN_PAIRS``, which both dispatches share.

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
from contextlib import contextmanager
from operator import mul
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (perfbench/, read only)
from ellhall import ratfunc  # noqa: E402

# Bucket edges in term pairs, len(a) * len(b).
EDGES = (1, 32, 64, 96, 112, 128, 144, 160, 192, 256, 512, 1024, 4096, 32768)


def record(workload, seed):
    """The operand pairs of one pass, the shorter operand first; its sums of
    two or more products, as (pairs, negated); and the pass."""
    pairs, sums = [], []
    inner, inner_sum = ratfunc.bmul, ratfunc.FormalRing.sum_of_products

    def recording(a, b, *summaries):
        pairs.append((dict(a), dict(b)) if len(a) <= len(b) else (dict(b), dict(a)))
        return inner(a, b, *summaries)

    def recording_sum(products, negated=(), times=mul):
        if len(products) + len(negated) > 1:
            sums.append((list(products), list(negated)))
        return inner_sum(products, negated, times)

    ops = workloads.permute(workloads.build(workload), workload, seed, 0)
    ratfunc.bmul = recording
    ratfunc.FormalRing.sum_of_products = staticmethod(recording_sum)
    t0 = time.perf_counter()
    try:
        results, failed = [], 0
        for label, fn in ops:
            ok, payload = fn()
            failed += not ok
            results.append((label, payload))
    finally:
        ratfunc.bmul = inner
        ratfunc.FormalRing.sum_of_products = staticmethod(inner_sum)
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    return pairs, sums, {"pass_s": time.perf_counter() - t0, "ops": len(ops), "failed": failed,
                         "digest_ok": workloads.digest(results) == reference[workload]}


def replay(pairs, fn, repeats):
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def one_by_one(products, negated):
    """The sum of products, each product and each sum formed on its own."""
    total = ratfunc.FORMAL.zero
    for a, b in products:
        total = total + a * b
    for a, b in negated:
        total = total - a * b
    return total


@contextmanager
def no_threshold():
    """``_packed_sum`` takes sums of any size meanwhile."""
    threshold = ratfunc._KRONECKER_MIN_PAIRS
    ratfunc._KRONECKER_MIN_PAIRS = 0
    try:
        yield
    finally:
        ratfunc._KRONECKER_MIN_PAIRS = threshold


def packed(products, negated):
    """The kernel (under ``no_threshold``), one by one where it declines."""
    r = ratfunc._packed_sum(products, negated)
    return one_by_one(products, negated) if r is None else r


def term_pairs(products, negated):
    return sum(len(a.num) * len(b.num) for a, b in products + negated)


def sum_buckets(sums, repeats):
    """The replay of the recorded sums by bucket of term pairs in all."""
    buckets = []
    edges = EDGES + (None,)
    for lo, hi in zip(edges, edges[1:]):
        sized = [(p, n) for p, n in sums
                 if term_pairs(p, n) >= lo and (hi is None or term_pairs(p, n) < hi)]
        if not sized:
            continue
        declined = 0
        for p, n in sized:
            with no_threshold():
                k = ratfunc._packed_sum(p, n)
            r = one_by_one(p, n)
            declined += k is None
            if ratfunc.FORMAL.sum_of_products(p, n) != r or k not in (None, r):
                raise SystemExit(f"sums differ on {p!r} - {n!r}")
        row = {"pairs_from": lo, "pairs_to": hi, "calls": len(sized), "declined": declined,
               "products": sum(len(p) + len(n) for p, n in sized),
               "term_pairs": sum(term_pairs(p, n) for p, n in sized)}
        row["one_by_one_s"] = round(replay(sized, one_by_one, repeats), 6)
        with no_threshold():
            row["packed_s"] = round(replay(sized, packed, repeats), 6)
        row["dispatch_s"] = round(replay(sized, ratfunc.FORMAL.sum_of_products, repeats), 6)
        buckets.append(row)
        print(f"sums [{lo}, {hi}) {len(sized):6d} calls  one by one {row['one_by_one_s']:.4f}  "
              f"packed {row['packed_s']:.4f}  dispatch {row['dispatch_s']:.4f} s",
              file=sys.stderr)
    return buckets


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="assoc-triples", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out", help="write the JSON here (default: standard output)")
    args = ap.parse_args()

    pairs, sums, run = record(args.workload, args.seed)
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
    sum_rows = sum_buckets(sums, args.repeats)
    out = {
        "workload": args.workload, "seed": args.seed, "repeats": args.repeats,
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "kronecker_min_pairs": ratfunc._KRONECKER_MIN_PAIRS,
        "pass": run, "calls": len(pairs), "buckets": buckets,
        "total_s": {k: round(sum(row[k] for row in buckets), 6)
                    for k in ("dict_s", "kronecker_s", "bmul_s")},
        "sum_calls": len(sums), "sum_buckets": sum_rows,
        "sum_total_s": {k: round(sum(row[k] for row in sum_rows), 6)
                        for k in ("one_by_one_s", "packed_s", "dispatch_s")},
    }
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
