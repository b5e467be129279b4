"""One benchmark round in a fresh process.

Builds and runs every scheme of one workload, checks each flow, and
prints one JSON object: set-up time, host time per scheme, behaviour
digests, per-slice host times, layer work counters and, with
``--trace 1``, the per-layer span accounting of :mod:`tracer`.

    PYTHONPATH=src python3 perfbench/round.py --workload bulk-wlan-n --seed 1
"""

import argparse
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracer as tracing
        tracing.self_test()
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    import workloads

    # CPU seconds since process start: set-up time counts interpreter
    # start-up, imports and building every scheme's simulation, up to
    # the first simulated event.  The window is the build and run time.
    cpu, wall = time.process_time, time.perf_counter
    began, began_wall = cpu(), wall()
    cases = [workloads.Case(args.workload, scheme, args.seed)
             for scheme in workloads.SCHEMES]
    setup_s = cpu()
    workloads.run_interleaved(cases)
    window_s, window_wall_s = cpu() - began, wall() - began_wall
    outcomes = [case.outcome() for case in cases]

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "window_s": window_s,
        "window_wall_s": window_wall_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cases": outcomes,
    }
    if tracer is not None:
        counts = workloads.connection_counts(tracer.connections)
        for case in cases:
            for key, value in case.counts().items():
                counts[key] = counts.get(key, 0) + value
        doc["counts"] = counts
        doc["trace"] = {
            "self_s": tracer.layer_self_s(),
            "by_name": tracer.by_name(),
            "root_s": tracer.root_s,
            "spans": tracer.span_count,
            "schedules": tracer.schedules,
            "telemetry_bytes": tracer.telemetry_bytes,
        }
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
        os.makedirs(out, exist_ok=True)
        tracer.write_spans(os.path.join(
            out, f"spans-{args.workload}-{args.seed}.jsonl"))
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
