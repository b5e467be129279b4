"""Profiler overhead benchmark.

Mirrors ``bench_telemetry_overhead.py`` for the second observability
plane: the same bulk TCP-TACK connection-second is simulated with no
profiler and inside a ``with Profiler():`` block.  The unprofiled run
is the acceptance number — the profiler patches classes only while its
block is open, so outside it the engine and endpoints run their
original methods and no simulation code tests for a profiler.

Results land in ``benchmarks/results/BENCH_profile.json`` (repo bench
schema ``{bench, config, metrics, timestamp}``) and the wall metrics
are appended to the bench history for the CI gate.  Timing assertions
are deliberately absent (CI machines are noisy); the assertions here
check the runs did real work, the profiler captured the workload, and
profiling did not perturb the simulation.
"""

from __future__ import annotations

import contextlib
import json
import os
import time

from conftest import RESULTS_DIR, record_bench_history

from repro.core.flavors import make_connection
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.profile import Profiler

_RATE_BPS = 50e6
_RTT_S = 0.04
_DURATION_S = 1.0
_ROUNDS = 3


def _connection_second(profiler=None) -> int:
    with profiler or contextlib.nullcontext():
        sim = Simulator(seed=2)
        path = wired_path(sim, _RATE_BPS, _RTT_S)
        conn = make_connection(sim, "tcp-tack", initial_rtt_s=_RTT_S)
        conn.wire(path.forward, path.reverse)
        conn.start_bulk()
        sim.run(until=_DURATION_S)
    return conn.receiver.stats.bytes_delivered


def _timed(make_profiler) -> tuple[float, int, object]:
    """(best wall seconds, bytes delivered, last profiler)."""
    best = float("inf")
    delivered = 0
    prof = None
    for _ in range(_ROUNDS):
        prof = make_profiler()
        started = time.perf_counter()  # reprolint: disable=REP001
        delivered = _connection_second(prof)
        elapsed = time.perf_counter() - started  # reprolint: disable=REP001
        best = min(best, elapsed)
    return best, delivered, prof


def test_profiler_overhead():
    off_s, off_bytes, _ = _timed(lambda: None)
    on_s, on_bytes, prof = _timed(lambda: Profiler(label="bench"))
    lean_s, lean_bytes, _ = _timed(lambda: Profiler(histogram=False))

    # Same simulation either way: profiling must not perturb results.
    assert off_bytes == on_bytes == lean_bytes
    assert off_bytes > 2e6
    assert prof.events_fired > 1000
    assert prof._spans  # subsystem spans were bound

    doc = {
        "bench": "profile_overhead",
        "config": {
            "scheme": "tcp-tack",
            "rate_bps": _RATE_BPS,
            "rtt_s": _RTT_S,
            "duration_s": _DURATION_S,
            "rounds": _ROUNDS,
        },
        "metrics": {
            "off_s": off_s,
            "profiled_s": on_s,
            "profiled_lean_s": lean_s,
            "profiled_overhead_pct": 100.0 * (on_s - off_s) / off_s,
            "lean_overhead_pct": 100.0 * (lean_s - off_s) / off_s,
            "events_per_connection_second": prof.events_fired,
            "bytes_delivered": off_bytes,
        },
        "timestamp": time.time(),  # reprolint: disable=REP001
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "BENCH_profile.json")
    with open(out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    record_bench_history("profile_overhead", doc["metrics"],
                         config=doc["config"])
    print(f"\nprofiler overhead: off={off_s:.3f}s "
          f"on={on_s:.3f}s (+{doc['metrics']['profiled_overhead_pct']:.1f}%) "
          f"lean={lean_s:.3f}s (+{doc['metrics']['lean_overhead_pct']:.1f}%)")


def test_disabled_profiler_registers_nowhere():
    """Outside a profiler block the simulator schedules the callbacks
    it is given and the endpoints keep their original bound methods
    (the profiler patches classes only while its block is open)."""
    sim = Simulator(seed=2)

    def callback():
        pass

    assert sim.call_in(0.01, callback).fn is callback
    conn = make_connection(sim, "tcp-tack", initial_rtt_s=_RTT_S)
    assert "profiled" not in repr(conn.receiver.on_packet)
    assert conn.receiver.on_packet.__func__ is type(
        conn.receiver).on_packet
