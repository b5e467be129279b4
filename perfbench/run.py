"""The repository benchmark: host cost of the simulator per workload.

Runs one workload (see ``workloads.py`` and ``README.md``) as a series
of rounds, each in a fresh Python process, until ``--seconds`` of host
time are used, and prints every end-to-end metric as the median over
the rounds.  Every flow is checked: it must complete, deliver its
bytes, and reproduce its behaviour digest -- the stored one for the
default seed, the first round's for any other seed.

With ``--trace 1`` it instead runs one untraced and one traced round
of the same inputs and prints the per-layer metrics; the traced
round's digests must equal the untraced round's.

    python3 perfbench/run.py --workload bulk-wlan-n --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
DEADLINE_S = 170.0
MIN_ROUNDS = 2

UNITS = {"setup_s": "s", "sim_speed": "flow-s/s", "flows_per_s": "1/s",
         "peak_rss_mb": "MB", "host_s_per_sim_s": "s/s"}


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, trace: int, deadline: float) -> dict:
    """One round in a fresh process; returns its JSON document."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "round.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"round timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RoundFailed(f"round exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests() -> dict:
    """Stored digests of the default seed: workload -> scheme -> digest."""
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_rounds(rounds: list, reference: dict) -> tuple:
    """Count attempted and failed flows; print each failure.

    ``reference`` maps scheme -> expected digest; missing schemes take
    the first round's digest, so later rounds must reproduce it.
    """
    attempted = failed = 0
    reference = dict(reference)
    for i, rnd in enumerate(rounds):
        for case in rnd["cases"]:
            attempted += case["flows"]
            scheme, problems = case["scheme"], list(case["problems"])
            expected = reference.setdefault(scheme, case["digest"])
            bad = case["failed"]
            if case["digest"] != expected:
                problems.append(f"digest {case['digest']} != {expected}")
                bad = case["flows"]
            if problems:
                print(f"FAILED round {i} {scheme}: {'; '.join(problems)}")
                failed += max(bad, 1)
    return attempted, failed


def end_to_end(rnd: dict) -> dict:
    cases = rnd["cases"]
    host = {c["scheme"]: math.fsum(c["slices_s"]) for c in cases}
    host_s = math.fsum(host.values())
    metrics = {
        "setup_s": rnd["setup_s"],
        "sim_speed": math.fsum(c["flow_s"] for c in cases) / host_s,
        "flows_per_s": sum(c["completed"] for c in cases) / host_s,
        "peak_rss_mb": rnd["peak_rss_mb"],
    }
    for c in cases:
        metrics[f"host_s_per_sim_s.{c['scheme']}"] = (host[c["scheme"]]
                                                     / c["sim_s"])
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: dict, traced: dict) -> dict:
    tr, cnt = traced["trace"], traced["counts"]
    self_s, by_name = tr["self_s"], tr["by_name"]

    def incl(name: str) -> float:
        return by_name.get(name, {}).get("incl_s", 0.0)

    def calls(pred) -> int:
        return sum(v["calls"] for k, v in by_name.items() if pred(k, v))

    slices_ms = sorted(1e3 * s for c in plain["cases"] for s in c["slices_s"])
    cuts = statistics.quantiles(slices_ms, n=100, method="inclusive")
    txops, collisions = cnt.get("txops", 0), cnt.get("collisions", 0)
    cancelled = tr["schedules"] - cnt["events"] - cnt["pending"]
    sender_s = self_s["transport.sender"]
    receiver_s = self_s["transport.receiver"]
    m = {
        "netsim.self_s": (self_s["netsim"], "s"),
        "netsim.events": (cnt["events"], "count"),
        "netsim.schedules": (tr["schedules"], "count"),
        "netsim.cancelled_ratio": (_ratio(cancelled, tr["schedules"]),
                                   "ratio"),
        "netsim.link_drops": (cnt["link_drops"], "count"),
        "netsim.slice_ms.p50": (cuts[49], "ms"),
        "netsim.slice_ms.p99": (cuts[98], "ms"),
        "wlan.self_s": (self_s["wlan"], "s"),
        "wlan.txops": (txops, "count"),
        "wlan.collision_ratio": (_ratio(collisions, txops), "ratio"),
        "wlan.mpdus_per_txop": (_ratio(cnt.get("mpdus", 0),
                                       txops - collisions), "ratio"),
        "transport.sender.self_s": (sender_s, "s"),
        "transport.sender.feedback_frames": (cnt["feedback_frames"], "count"),
        "transport.sender.us_per_feedback": (
            1e6 * _ratio(sender_s, cnt["feedback_frames"]), "us"),
        "transport.sender.retx_ratio": (
            _ratio(cnt["retransmissions"], cnt["data_sent"]), "ratio"),
        "transport.receiver.self_s": (receiver_s, "s"),
        "transport.receiver.us_per_packet": (
            1e6 * _ratio(receiver_s, cnt["data_received"]), "us"),
        "transport.receiver.build_feedback_s": (
            incl("TransportReceiver.build_feedback"), "s"),
        "transport.guard.self_s": (self_s["transport.guard"], "s"),
        "transport.guard.frames": (cnt["guard_frames"], "count"),
        "ack.self_s": (self_s["ack"], "s"),
        "ack.feedback_per_data": (
            _ratio(cnt["feedback_sent"], cnt["data_received"]), "ratio"),
        "cc.self_s": (self_s["cc"], "s"),
        "cc.calls": (calls(lambda k, v: v["layer"] == "cc"), "count"),
        "core.self_s": (self_s["core"], "s"),
        "core.gap_events": (cnt["gap_events"], "count"),
        "telemetry.self_s": (self_s["telemetry"], "s"),
        "telemetry.events": (cnt.get("telemetry_events", 0), "count"),
        "telemetry.bytes": (tr["telemetry_bytes"], "bytes"),
        "diagnose.self_s": (self_s["diagnose"], "s"),
        "diagnose.observations": (
            calls(lambda k, v: k == "FlowDoctor.observe"), "count"),
        "energy.self_s": (self_s["energy"], "s"),
        "energy.packets": (cnt.get("energy_packets", 0), "count"),
        "fleet.self_s": (self_s["fleet"], "s"),
        "fleet.connect_s": (incl("make_connection"), "s"),
        "fleet.flows": (cnt.get("fleet_flows", 0), "count"),
        "trace.overhead_ratio": (traced["window_s"] / plain["window_s"],
                                 "ratio"),
        "trace.coverage": (_ratio(math.fsum(self_s.values()),
                                  traced["window_wall_s"]), "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def span_arithmetic_ok(traced: dict) -> bool:
    """Self times sum to the root spans' duration, and self times plus
    the untraced residual sum to the traced host time."""
    tr, window = traced["trace"], traced["window_wall_s"]
    total_self = math.fsum(tr["self_s"].values())
    residual = window - tr["root_s"]
    tol = 1e-6 * max(1.0, window)
    ok = (abs(total_self - tr["root_s"]) <= tol and residual >= -tol
          and abs(total_self + residual - window) <= tol)
    print(f"trace: self {total_self:.6f} s + residual {residual:.6f} s = "
          f"{total_self + residual:.6f} s of {window:.6f} s traced host "
          f"time ({'ok' if ok else 'MISMATCH'}); {tr['spans']} spans")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the one whose "
                        "digests are stored)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall seconds of rounds to run (at least "
                        f"{MIN_ROUNDS} rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: one untraced and one traced round, "
                        "per-layer metrics")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's digests as the reference "
                        "for the default seed")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {', '.join(workloads.WORKLOADS)}")
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.record_digests and args.seed != workloads.DEFAULT_SEED:
        parser.error("--record-digests needs the default seed")

    started = time.monotonic()
    deadline = started + DEADLINE_S
    stored = load_digests()
    reference = (stored.get(args.workload, {})
                 if args.seed == workloads.DEFAULT_SEED
                 and not args.record_digests else {})
    try:
        if args.trace:
            rounds = [run_round(args.workload, args.seed, 0, deadline),
                      run_round(args.workload, args.seed, 1, deadline)]
        else:
            rounds = []
            while True:
                rounds.append(run_round(args.workload, args.seed, 0, deadline))
                used = time.monotonic() - started
                if (len(rounds) >= MIN_ROUNDS
                        and used * (len(rounds) + 1) / len(rounds)
                        > args.seconds):
                    break
    except RoundFailed as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = check_rounds(rounds, reference)
    correct = failed == 0
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} flows attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.6f})")
    for case in rounds[0]["cases"]:
        print(f"  digest {case['scheme']}: {case['digest']}")

    if args.record_digests:
        if not correct:
            print("perfbench: not recording digests of a failed run",
                  file=sys.stderr)
            return 1
        stored[args.workload] = {
            c["scheme"]: c["digest"] for c in rounds[0]["cases"]}
        with open(DIGESTS, "w") as f:
            json.dump(stored, f, indent=2, sort_keys=True)
            f.write("\n")

    if args.trace:
        correct = span_arithmetic_ok(rounds[1]) and correct
        metrics = per_layer(rounds[0], rounds[1])
        for name, m in metrics.items():
            print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    else:
        per_round = [end_to_end(r) for r in rounds]
        metrics = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round]
            unit = UNITS[name.split(".")[0]]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            spread = ", ".join(f"{v:.4g}" for v in values)
            print(f"  {name:34s} {metrics[name]['value']:12.6g} {unit:9s}"
                  f" rounds: {spread}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
