"""The ellhall benchmark: exact workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload assoc-triples --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

A run is a closed loop of cold passes, one after another: each pass is a
fresh single-threaded process (worker.py) that builds the workload's
inputs, then issues its ops one at a time.  The first pass's duration sets
how many passes fit in ``--seconds``; pass k orders the ops by its own
seeded shuffle.  Module and engine caches start cold in every pass, as in a
user's ``ellhall verify-all``.

``--trace 0`` reports the end-to-end metrics: medians over passes of
``wall_s``, ``cpu_s`` and ``peak_rss_mb``; ``op_p50_ms`` and ``op_p90_ms``
over the ops of all passes; ``setup_s``, the median over passes and extra
set-up-only processes of the CPU time from process start to built inputs.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass, with ``trace.overhead_ratio``.

Every op checks its exact identity; a pass's result digest must match
``reference.json``.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"

WORKLOADS = ("assoc-triples", "relation-sweep", "curve-side")
SELF_TEST_SEED = 1234
MIN_SETUP_SAMPLES = 9
MAX_PASSES = 50
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(workload, seed, pass_index=0, mode="pass", trace_out=None, size="full",
          timeout=RUN_DEADLINE_S):
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Let workers cache bytecode in the checkout: set-up then measures
    # imports and inputs, not compiling the sources again in every pass.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--pass-index", str(pass_index), "--mode", mode, "--size", size]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise BenchError(f"worker {mode} pass {pass_index} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def check_digests(workload, passes, size="full"):
    """All passes agree, and with the stored reference at full size."""
    digests = {p["digest"] for p in passes}
    problems = []
    if len(digests) != 1:
        problems.append(f"passes disagree on the result digest: {sorted(digests)}")
    if size == "full":
        want = json.loads(REFERENCE.read_text())[workload]
        if digests != {want}:
            problems.append(f"result digest {sorted(digests)} != reference {want}")
    return problems


def run_untraced(workload, seed, seconds, started):
    """As many passes as fit in ``seconds`` by the first one's duration."""
    passes = [spawn(workload, seed, 0)]
    first = time.monotonic() - started
    planned = min(MAX_PASSES, max(1, round(seconds / first)))
    while len(passes) < planned:
        used = time.monotonic() - started
        if used + first > RUN_DEADLINE_S - 10:
            break
        passes.append(spawn(workload, seed, len(passes), timeout=RUN_DEADLINE_S - used))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(spawn(workload, seed, len(setups), mode="setup")["setup_s"])
    latencies_ms = [t * 1000 for p in passes for t in p["latencies_s"]]
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "op_p50_ms": (percentile(latencies_ms, 0.5), "ms"),
        "op_p90_ms": (percentile(latencies_ms, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    info = (f"passes={len(passes)} ops/pass={passes[0]['attempted']} "
            f"op latency samples={len(latencies_ms)} setup samples={len(setups)}")
    return passes, metrics, info


def run_traced(workload, seed, started):
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    plain = spawn(workload, seed, 0)
    remaining = RUN_DEADLINE_S - (time.monotonic() - started)
    traced = spawn(workload, seed, 0, trace_out=trace_file, timeout=remaining)
    units = {"self_s": "s", "certificate_s": "s"}
    metrics = {}
    for name, value in traced["layers"].items():
        suffix = name.split(".", 1)[1]
        unit = units.get(suffix, "ratio" if suffix.endswith(("reuse", "ratio")) else "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    info = (f"traced wall_s={traced['wall_s']:.3f} untraced wall_s={plain['wall_s']:.3f} "
            f"spans in {trace_file.relative_to(ROOT)}")
    return [plain, traced], metrics, info


def self_test():
    """Two traced passes at the small size give identical counts and digests."""
    ok = True
    for workload in WORKLOADS:
        runs = [spawn(workload, SELF_TEST_SEED, 0, size="small",
                      trace_out=OUT / f"selftest-{workload}-{i}.json") for i in (0, 1)]
        plain = spawn(workload, SELF_TEST_SEED, 0, size="small")
        same_counts = runs[0]["counts"] == runs[1]["counts"]
        problems = check_digests(workload, runs + [plain], size="small")
        failed = sum(r["failed"] for r in runs + [plain])
        good = same_counts and not problems and not failed
        ok = ok and good
        print(f"{workload}: counts {'identical' if same_counts else 'DIFFER'}, "
              f"{len(runs[0]['counts'])} names, failed ops {failed}, "
              f"digests {'agree' if not problems else problems}")
    print("self-test", "passed" if ok else "FAILED")
    return ok


def write_reference():
    """Record the digest of each workload; only for a deliberate change of answers."""
    digests = {}
    for workload in WORKLOADS:
        result = spawn(workload, SELF_TEST_SEED, 0)
        if result["failed"]:
            raise BenchError(f"{workload}: failed ops {result['failures']}")
        digests[workload] = result["digest"]
    REFERENCE.write_text(json.dumps(digests, indent=2) + "\n")
    print(json.dumps(digests, indent=2))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=SELF_TEST_SEED)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-reference", action="store_true",
                    help="store the digests of one full pass per workload")
    args = ap.parse_args(argv)
    started = time.monotonic()
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: the identity asserts would be stripped")
    if not (ROOT / "src" / "ellhall" / "__init__.py").is_file():
        sys.exit(f"no ellhall sources under {ROOT / 'src'}")
    if args.self_test:
        OUT.mkdir(exist_ok=True)
        sys.exit(0 if self_test() else 1)
    if args.write_reference:
        write_reference()
        return
    if args.workload is None:
        ap.error("--workload is required")

    if args.trace:
        passes, metrics, info = run_traced(args.workload, args.seed, started)
    else:
        passes, metrics, info = run_untraced(args.workload, args.seed, args.seconds, started)
    problems = check_digests(args.workload, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for p in passes:
        problems += [f"failed op: {label}" for label in p["failures"]]
    print(f"workload={args.workload} seed={args.seed} {info} "
          f"fail_ratio={failed}/{attempted} digest={passes[0]['digest'][:16]}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        sys.exit(f"benchmark error: {exc}")
