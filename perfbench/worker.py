"""One cold pass of a workload in a fresh process; prints one JSON line.

Usage (started by run.py, one process per pass):

    python3 perfbench/worker.py --workload W --seed N --pass-index K
        [--mode pass|setup] [--trace-out FILE] [--size full|small]

Set-up is the CPU time of this process from its start through imports and
built inputs.  ``--mode setup`` stops after set-up.  With ``--trace-out``
the layers are wrapped by the tracer before the workload is built, and the
spans and per-name aggregates are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_ellhall():
    """Import the package from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ellhall
    if SRC.resolve() not in Path(ellhall.__file__).resolve().parents:
        raise ImportError(f"ellhall imported from {ellhall.__file__}, not from {SRC}")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--mode", choices=("pass", "setup"), default="pass")
    ap.add_argument("--trace-out")
    ap.add_argument("--size", choices=("full", "small"), default="full")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        sys.exit("refusing to run under python -O: the identity asserts would be stripped")

    import_ellhall()
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin_op(-1)
    t_setup = time.perf_counter()
    import workloads
    ops = workloads.permute(workloads.build(args.workload, args.size),
                            args.workload, args.seed, args.pass_index)
    setup_s = time.process_time()
    if tracer is not None:
        tracer.end_op("setup", t_setup, time.perf_counter())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    latencies = []
    cpu_times = []
    results = []
    failures = []
    for i, (label, fn) in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            ok, payload = fn()
        except Exception as exc:  # an identity assert or engine guard tripped
            ok, payload = False, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cpu_times.append(time.process_time() - c0)
        if tracer is not None:
            tracer.end_op(label, t0, t1)
        latencies.append(t1 - t0)
        results.append((label, payload))
        if not ok:
            failures.append(label)

    out = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "cpu_s": sum(cpu_times),
        "latencies_s": latencies,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "digest": workloads.digest(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["counts"] = tracer.counts()
        tracer.write(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
