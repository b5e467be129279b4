"""Host-side simulator performance profiling.

This is the second observability plane next to :mod:`repro.telemetry`:
telemetry watches the *simulated protocol* (ACK cadence, cwnd moves);
this package watches the *simulator itself* — where the host CPU goes
while events fire, how deep the calendar queue grows, how many events
per wall-second the engine sustains, and (optionally, via
``tracemalloc``) where the memory is.

The profiler attaches from outside, like :class:`cProfile.Profile`:
build and run the simulation inside its ``with`` block::

    with Profiler() as prof:
        sim = Simulator(seed=1)
        ... build, run ...
    prof.report()                 # JSON-ready dict
    prof.write_json("run.profile.json")
    prof.write_collapsed("run.folded")       # flamegraph.pl compatible

On entry it patches ``Simulator.call_at`` and the hot methods listed in
:data:`repro.profile.profiler.SPANS`; on exit it restores every
original.  The simulation packages hold no profiler reference at all
(reprolint REP007 keeps them from importing this package), so a run
without a profiler pays nothing.

The CLI (``python -m repro.profile``) adds ``top`` (profile a canned
workload and print the hottest handlers) plus the benchmark-history
commands ``record | compare | gate`` backed by :mod:`repro.bench`.
"""

from repro.profile.profiler import Profiler
from repro.profile.report import (
    PROFILE_SCHEMA,
    PROFILE_VERSION,
    parse_collapsed,
    read_profile,
    top_handlers,
    top_spans,
)

__all__ = [
    "Profiler",
    "PROFILE_SCHEMA", "PROFILE_VERSION",
    "read_profile", "parse_collapsed", "top_handlers", "top_spans",
]
