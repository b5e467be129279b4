"""Profiling / bench-history CLI: ``python -m repro.profile <cmd>``.

Host-side tooling (wall-clock reads are its whole job; the exempt
globs carve this package out of the determinism lint).

Subcommands::

    top      profile a canned workload, print the hottest handlers,
             optionally write the JSON report and a flamegraph-ready
             collapsed-stack file
    record   append BenchRecords to the history (explicit metric or
             every numeric metric of a BENCH_*.json document)
    compare  latest-vs-window table for every recorded series
    gate     like compare but exits 1 when any series regressed
             beyond the noise band — the CI perf gate

Exit codes follow the reprolint/telemetry convention: 0 success (for
``gate``: no regression), 1 regression found (``gate`` only), 2 usage
or file errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.bench import (
    BenchRecord,
    append_records,
    compare_series,
    filter_history,
    gate_history,
    load_history,
)
from repro.bench.history import (
    DEFAULT_MIN_RECORDS,
    DEFAULT_NOISE_PCT,
    DEFAULT_WINDOW,
)
from repro.profile.profiler import Profiler
from repro.profile.report import render_top

#: Environment override for the history root.
HISTORY_ENV = "REPRO_BENCH_HISTORY"


class _UsageError(Exception):
    """Mapped to exit code 2 in main()."""


def default_history_dir(start: Optional[str] = None) -> str:
    """Resolve the bench-history root.

    ``REPRO_BENCH_HISTORY`` wins; otherwise walk upward from *start*
    (default cwd) looking for a ``benchmarks/results`` directory and
    use its ``history/`` child; fall back to
    ``benchmarks/results/history`` under the cwd.
    """
    env = os.environ.get(HISTORY_ENV)
    if env:
        return env
    node = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(node, "benchmarks", "results")
        if os.path.isdir(candidate):
            return os.path.join(candidate, "history")
        parent = os.path.dirname(node)
        if parent == node:
            break
        node = parent
    return os.path.join("benchmarks", "results", "history")


def infer_better(metric: str) -> Optional[str]:
    """Guess the improvement direction from a metric name.

    Wall/overhead metrics (``*_s``, ``*_pct``) improve downward;
    rate metrics (``*_per_s``, ``*_bps``, ``*_hz``) improve upward.
    Unknown shapes return ``None`` and are exempt from the gate.
    """
    if metric.endswith(("_per_s", "_bps", "_hz", "_pps")):
        return "higher"
    if metric.endswith(("_s", "_ms", "_us", "_pct")):
        return "lower"
    return None


# ----------------------------------------------------------------------
# record
# ----------------------------------------------------------------------

def _records_from_bench_json(path: str,
                             name: Optional[str]) -> List[BenchRecord]:
    """One record per numeric metric of a ``BENCH_*.json`` document
    (the repo bench schema: ``{bench, config, metrics, timestamp}``)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise _UsageError(f"error: no such file: {path}")
    except json.JSONDecodeError as exc:
        raise _UsageError(f"error: {path}: not JSON: {exc}")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise _UsageError(
            f"error: {path}: missing 'metrics' table (bench schema)")
    bench = name or doc.get("bench")
    if not bench:
        raise _UsageError(
            f"error: {path}: no 'bench' name; pass --name")
    meta = {"source": os.path.basename(path)}
    config = doc.get("config")
    if isinstance(config, dict):
        meta["config"] = config
    out = []
    for metric, value in sorted(metrics.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        unit = "s" if metric.endswith("_s") else (
            "pct" if metric.endswith("_pct") else "")
        out.append(BenchRecord.make(bench, metric, float(value), unit,
                                    better=infer_better(metric), meta=meta))
    if not out:
        raise _UsageError(f"error: {path}: no numeric metrics to record")
    return out


def cmd_record(args: argparse.Namespace) -> int:
    history = args.history or default_history_dir()
    if args.from_json:
        records = _records_from_bench_json(args.from_json, args.name)
    else:
        missing = [flag for flag, value in (("--name", args.name),
                                            ("--metric", args.metric),
                                            ("--value", args.value))
                   if value is None]
        if missing:
            raise _UsageError(
                f"error: record needs {', '.join(missing)} "
                "(or --from-json FILE)")
        meta: Dict[str, Any] = {}
        for pair in args.meta or []:
            key, sep, value = pair.partition("=")
            if not sep:
                raise _UsageError(f"error: bad --meta {pair!r} (want k=v)")
            meta[key] = value
        records = [BenchRecord.make(
            args.name, args.metric, args.value, args.unit or "",
            better=args.better, meta=meta)]
    n = append_records(history, records)
    print(f"{history}: appended {n} record(s)")
    for rec in records:
        print(f"  {rec.name}/{rec.metric} = {rec.value:g} {rec.unit}".rstrip())
    return 0


# ----------------------------------------------------------------------
# compare / gate
# ----------------------------------------------------------------------

def _only_patterns(args: argparse.Namespace) -> List[str]:
    return [p.strip() for p in (args.only or "").split(",") if p.strip()]


def _load_findings(args: argparse.Namespace):
    history_dir = args.history or default_history_dir()
    history = filter_history(load_history(history_dir),
                             _only_patterns(args))
    if not history.records:
        raise _UsageError(
            f"error: no bench history under {history_dir} "
            "matching the filters "
            "(run the micro-benches or `record` first)")
    findings = compare_series(
        history, window=args.window, min_records=args.min_records,
        noise_pct=args.noise_pct, same_machine=not args.any_machine)
    return history, findings


def _emit_findings(args, history, findings, gate: bool,
                   passed: bool = True) -> None:
    if args.json:
        print(json.dumps({
            "version": 1,
            "history": history.root,
            "records": len(history.records),
            "skipped_lines": history.skipped,
            "window": args.window,
            "noise_pct": args.noise_pct,
            "passed": passed if gate else None,
            "series": [f.to_dict() for f in findings],
        }, indent=2))
        return
    print(f"history: {history.root} ({len(history.records)} records"
          + (f", {history.skipped} unreadable lines skipped" if history.skipped
             else "") + ")")
    for f in findings:
        print("  " + f.render())
    if gate:
        regressed = [f for f in findings if f.failed]
        if regressed:
            print(f"gate: FAIL ({len(regressed)} regressed series)")
        else:
            print("gate: ok")


def cmd_compare(args: argparse.Namespace) -> int:
    history, findings = _load_findings(args)
    _emit_findings(args, history, findings, gate=False)
    return 0


def cmd_gate(args: argparse.Namespace) -> int:
    history_dir = args.history or default_history_dir()
    history = filter_history(load_history(history_dir),
                             _only_patterns(args))
    if not history.records:
        # An empty trajectory is the bootstrap state, not an error:
        # the gate must be safe to wire into CI before any records
        # exist.  (A *missing metrics table* etc. still exits 2.)
        print(f"gate: no bench history under {history_dir}; "
              "nothing to gate (pass)")
        return 0
    findings, passed = gate_history(
        history, window=args.window, min_records=args.min_records,
        noise_pct=args.noise_pct, same_machine=not args.any_machine)
    _emit_findings(args, history, findings, gate=True, passed=passed)
    if not passed and args.warn_only:
        print("gate: --warn-only set; reporting regression without "
              "failing")
        return 0
    return 0 if passed else 1


# ----------------------------------------------------------------------
# top
# ----------------------------------------------------------------------

def _profiled_workload(args: argparse.Namespace) -> Profiler:
    """Run the canned bulk-transfer workload under a profiler."""
    from repro.core.flavors import make_connection
    from repro.netsim.engine import Simulator
    from repro.netsim.paths import wired_path

    with Profiler(label=f"top:{args.scheme}", memory=args.memory) as prof:
        sim = Simulator(seed=args.seed)
        path = wired_path(sim, args.rate_mbps * 1e6, args.rtt_ms / 1e3)
        conn = make_connection(sim, args.scheme,
                               initial_rtt_s=args.rtt_ms / 1e3)
        conn.wire(path.forward, path.reverse)
        conn.start_bulk()
        sim.run(until=args.duration_s)
    return prof


def cmd_top(args: argparse.Namespace) -> int:
    prof = _profiled_workload(args)
    report = prof.report()
    print(f"workload: {args.scheme} bulk, {args.rate_mbps:g} Mbps, "
          f"{args.rtt_ms:g} ms RTT, {args.duration_s:g} simulated s")
    print(render_top(report, args.top))
    if args.json_out:
        from repro.profile.report import write_profile
        write_profile(args.json_out, report)
        print(f"report: {args.json_out}")
    if args.flamegraph:
        parent = os.path.dirname(args.flamegraph)
        if parent:
            os.makedirs(parent, exist_ok=True)
        n = prof.write_collapsed(args.flamegraph)
        print(f"flamegraph: {args.flamegraph} ({n} stacks)")
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def _add_history_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--history", default=None,
                   help="history root (default: benchmarks/results/history"
                        f" or ${HISTORY_ENV})")
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW,
                   help="baseline records per series (default %(default)s)")
    p.add_argument("--min-records", type=int, default=DEFAULT_MIN_RECORDS,
                   help="baseline points required before a series can "
                        "fail (default %(default)s)")
    p.add_argument("--noise-pct", type=float, default=DEFAULT_NOISE_PCT,
                   help="relative noise band in percent "
                        "(default %(default)s)")
    p.add_argument("--any-machine", action="store_true",
                   help="compare across machine fingerprints (noisy)")
    p.add_argument("--only", default=None, metavar="PAT[,PAT...]",
                   help="restrict to bench series whose name contains "
                        "any of the comma-separated substrings")
    p.add_argument("--json", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Simulator profiling and benchmark-history gating.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("top", help="profile a canned workload and print "
                                   "the hottest handlers")
    p.add_argument("--scheme", default="tcp-tack")
    p.add_argument("--duration-s", type=float, default=1.0)
    p.add_argument("--rate-mbps", type=float, default=50.0)
    p.add_argument("--rtt-ms", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-n", "--top", type=int, default=12)
    p.add_argument("--memory", action="store_true",
                   help="include a tracemalloc snapshot")
    p.add_argument("--flamegraph", default=None, metavar="PATH",
                   help="write collapsed stacks for flamegraph tooling")
    p.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                   help="write the JSON report")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("record", help="append BenchRecords to the history")
    p.add_argument("--history", default=None)
    p.add_argument("--from-json", default=None, metavar="BENCH_JSON",
                   help="record every numeric metric of a BENCH_*.json doc")
    p.add_argument("--name", default=None)
    p.add_argument("--metric", default=None)
    p.add_argument("--value", type=float, default=None)
    p.add_argument("--unit", default="")
    p.add_argument("--better", choices=("higher", "lower"), default=None)
    p.add_argument("--meta", action="append", metavar="K=V")
    p.set_defaults(fn=cmd_record)

    p = sub.add_parser("compare",
                       help="latest-vs-window table for recorded series")
    _add_history_options(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("gate",
                       help="exit 1 when any series regressed beyond "
                            "the noise band")
    _add_history_options(p)
    p.add_argument("--warn-only", action="store_true",
                   help="report regressions but always exit 0")
    p.set_defaults(fn=cmd_gate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
