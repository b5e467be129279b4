"""The :class:`Profiler`: wall-CPU accounting for a running simulation.

All wall-clock reads live *here*, on the host side of the fence.  The
simulation modules know nothing about profiling: the profiler attaches
from outside, the way :class:`cProfile.Profile` does, by patching
classes for the duration of a ``with`` block and restoring every
original on exit (reprolint REP007 keeps sim code from importing this
package or growing a profiler hook again).

Two kinds of accounting share one frame stack:

* **engine events** — :meth:`Simulator.call_at` is wrapped so every
  callback scheduled inside the block runs in an ``Owner.method``
  event frame.  This gives per-handler-class inclusive latency
  histograms (percentiles via :func:`repro.stats.percentile`), the
  events/second rate, and the calendar-queue high-water mark;
* **subsystem spans** — the hot methods listed in :data:`SPANS`
  (sender feedback path, receiver ingress, congestion-controller
  update, ACK policy) are wrapped at class level so their wall time is
  attributed to a named span, nested under whatever event fired it.

Because spans nest inside events on one stack, exclusive ("self") time
is exact: a parent's self time never double-counts its children, and
the accumulated ``(stack path -> self seconds)`` map exports directly
as collapsed stacks for standard flamegraph tooling.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_perf = time.perf_counter

#: Latency samples kept per handler class before decimation kicks in.
_MAX_SAMPLES = 1 << 16

#: The subsystem spans: ``(module, class, method, span name)``.  The
#: method is wrapped on the class and on every subclass that overrides
#: it.  ``{name}`` in a span name is the instance's ``name`` attribute
#: at call time: the controller's or the ACK policy's own name.
SPANS = (
    ("repro.transport.sender", "TransportSender", "_on_feedback",
     "sender.feedback"),
    ("repro.transport.sender", "TransportSender", "_try_send",
     "sender.try_send"),
    ("repro.transport.receiver", "TransportReceiver", "on_packet",
     "receiver.packet"),
    ("repro.cc", "CongestionController", "on_feedback", "cc.{name}"),
    ("repro.ack", "AckPolicy", "on_data", "ack.{name}.on_data"),
    ("repro.ack", "AckPolicy", "on_gap", "ack.{name}.on_gap"),
)


class _Agg:
    """Streaming aggregate of one handler class or span."""

    __slots__ = ("count", "total_s", "self_s", "max_s",
                 "samples", "stride")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.max_s = 0.0
        self.samples: List[float] = []
        self.stride = 1

    def add(self, elapsed: float, self_s: float, keep_sample: bool) -> None:
        self.count += 1
        self.total_s += elapsed
        self.self_s += self_s
        if elapsed > self.max_s:
            self.max_s = elapsed
        if not keep_sample:
            return
        if self.count % self.stride == 0:
            self.samples.append(elapsed)
            if len(self.samples) >= _MAX_SAMPLES:
                # Decimate: keep every other sample, double the stride.
                # Percentiles stay representative at bounded memory.
                self.samples = self.samples[::2]
                self.stride *= 2


class _Frame:
    """One open entry on the profile stack."""

    __slots__ = ("kind", "name", "t0", "child_s", "path")

    def __init__(self, kind: str, name: str, t0: float,
                 path: Tuple[str, ...]):
        self.kind = kind          # "event" | "span"
        self.name = name
        self.t0 = t0
        self.child_s = 0.0
        self.path = path


def _classify(fn: Callable) -> str:
    """Handler-class label for a scheduled callback.

    Bound methods become ``Owner.method`` (the common case: timers and
    deliveries are methods on senders, receivers, links); bare
    functions and closures fall back to their qualname.
    """
    owner = getattr(fn, "__self__", None)
    if owner is not None:
        name = getattr(fn, "__name__", "?")
        return f"{type(owner).__name__}.{name}"
    return getattr(fn, "__qualname__", None) or type(fn).__name__


def _class_tree(base: type) -> List[type]:
    """*base* and every subclass defined so far."""
    tree = [base]
    for cls in tree:
        tree.extend(cls.__subclasses__())
    return tree


def _safe_frame(name: str) -> str:
    """Collapsed-stack frames may not contain ';' or whitespace."""
    return (name.replace(";", ":").replace(" ", "_")
            .replace("\n", "_").replace("\t", "_"))


class Profiler:
    """Accumulates wall-CPU accounting for the simulations built and
    run inside its ``with`` block (callbacks scheduled before it are
    not timed).

    Parameters
    ----------
    label:
        Free-form run label stored in the report metadata.
    memory:
        Start :mod:`tracemalloc` on entry and include a heap snapshot
        (current/peak bytes plus the top allocation sites) in the
        report.  Costs real overhead; off by default.
    histogram:
        Keep per-handler latency samples for percentile computation.
        Disabling drops the per-event list append, for minimum-
        overhead runs where only totals matter.
    """

    def __init__(self, label: str = "", memory: bool = False,
                 histogram: bool = True):
        self.label = label
        self._histogram = histogram
        self._stack: List[_Frame] = []
        self._handlers: Dict[str, _Agg] = {}
        self._spans: Dict[str, _Agg] = {}
        self._folded: Dict[Tuple[str, ...], float] = {}
        self.events_fired = 0
        self.dispatch_s = 0.0          # wall time inside event callbacks
        self.queue_high_water = 0
        self._sim_t0: Optional[float] = None
        self._sim_t1: Optional[float] = None
        self._memory = memory
        self._mem_started = False
        self._mem_stats: Optional[Dict[str, Any]] = None
        self._patches: List[Tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Profiler":
        if self._patches:
            raise RuntimeError("profiler is already enabled")
        from repro.netsim.engine import Simulator
        self._patch(Simulator, "call_at", self._timed_call_at)
        for module, base, method, name in SPANS:
            for cls in _class_tree(
                    getattr(importlib.import_module(module), base)):
                if method in vars(cls):
                    self._patch(cls, method, self._timed_method, method, name)
        if self._memory and not self._mem_started:
            import tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._mem_started = True
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            cls, method, original = self._patches.pop()
            setattr(cls, method, original)
        self.close()

    def _patch(self, cls: type, method: str,
               make_wrapper: Callable[..., Callable], *args: Any) -> None:
        original = vars(cls)[method]
        self._patches.append((cls, method, original))
        setattr(cls, method, make_wrapper(original, *args))

    def close(self) -> None:
        """Snapshot and stop memory tracing, if this profiler owns it."""
        if self._mem_started:
            self._snapshot_memory()
            import tracemalloc
            tracemalloc.stop()
            self._mem_started = False

    def _snapshot_memory(self) -> None:
        import tracemalloc
        if not tracemalloc.is_tracing():
            return
        current, peak = tracemalloc.get_traced_memory()
        top = tracemalloc.take_snapshot().statistics("lineno")[:15]
        self._mem_stats = {
            "current_bytes": current,
            "peak_bytes": peak,
            "top": [{"site": str(stat.traceback),
                     "bytes": stat.size, "count": stat.count}
                    for stat in top],
        }

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _timed_call_at(self, call_at: Callable) -> Callable:
        """``Simulator.call_at`` scheduling a timed event instead."""
        fire = self._fire

        @functools.wraps(call_at)
        def timed_call_at(sim, t, fn):
            if type(sim).call_at is timed_call_at:  # else: block exited
                fn = functools.partial(fire, sim, fn)
            return call_at(sim, t, fn)
        return timed_call_at

    def _fire(self, sim, fn: Callable) -> None:
        """Run *fn* in an event frame named after its handler class."""
        if not self._patches:          # the block has exited
            fn()
            return
        depth = len(sim._queue)        # this event is already popped
        if depth > self.queue_high_water:
            self.queue_high_water = depth
        self._push("event", _classify(fn))
        if self._sim_t0 is None:
            self._sim_t0 = sim.clock.now()
        try:
            fn()
        finally:
            self._pop()
            self.events_fired += 1
            self._sim_t1 = sim.clock.now()

    def _timed_method(self, original: Callable, method: str,
                      name: str) -> Callable:
        """Class-level wrapper timing *original* as span *name*.

        Only the wrapper the instance's class resolves *method* to
        times the call, so a ``super()`` chain is one span and a bound
        method kept after the block exits runs the original untimed.
        """
        push, pop = self._push, self._pop
        per_instance = "{name}" in name
        # Formatting and hashing a fresh name on every call would cost
        # more than the span itself; keep one string per name.
        names: Dict[str, str] = {}

        @functools.wraps(original)
        def timed(obj, *args, **kwargs):
            if getattr(type(obj), method) is not timed:
                return original(obj, *args, **kwargs)
            span = name
            if per_instance:
                span = names.get(obj.name)
                if span is None:
                    span = names[obj.name] = name.format(name=obj.name)
            push("span", span)
            try:
                return original(obj, *args, **kwargs)
            finally:
                pop()
        return timed

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return *fn* wrapped in a span called *name* (an ad-hoc span
        around host code that :data:`SPANS` does not cover)."""
        @functools.wraps(fn)
        def profiled(*args, **kwargs):
            self._push("span", name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._pop()
        return profiled

    # ------------------------------------------------------------------
    # frame stack
    # ------------------------------------------------------------------
    def _push(self, kind: str, name: str) -> None:
        parent = self._stack[-1].path if self._stack else ()
        self._stack.append(_Frame(kind, name, _perf(), parent + (name,)))

    def _pop(self) -> None:
        if not self._stack:
            return
        frame = self._stack.pop()
        elapsed = _perf() - frame.t0
        self_s = elapsed - frame.child_s
        if self_s < 0.0:
            self_s = 0.0  # clock granularity can make child > parent
        if self._stack:
            self._stack[-1].child_s += elapsed
        self._folded[frame.path] = self._folded.get(frame.path, 0.0) + self_s
        if frame.kind == "event":
            agg = self._handlers.get(frame.name)
            if agg is None:
                agg = self._handlers[frame.name] = _Agg()
            agg.add(elapsed, self_s, self._histogram)
            self.dispatch_s += elapsed
        else:
            agg = self._spans.get(frame.name)
            if agg is None:
                agg = self._spans[frame.name] = _Agg()
            agg.add(elapsed, self_s, self._histogram)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """JSON-ready profile document (schema ``repro-profile`` v1)."""
        from repro.profile.report import build_report
        if self._memory and self._mem_stats is None:
            self._snapshot_memory()
        return build_report(self)

    def write_json(self, path: str) -> Dict[str, Any]:
        """Write the report to *path*; returns the document."""
        from repro.profile.report import write_profile
        return write_profile(path, self.report())

    def collapsed_stacks(self) -> List[str]:
        """Flamegraph-compatible lines: ``frame;frame;... <microsec>``.

        Values are integer self-microseconds; zero-self frames are
        dropped (flamegraph tooling requires positive sample counts).
        """
        lines: List[str] = []
        for path in sorted(self._folded):
            us = round(self._folded[path] * 1e6)
            if us <= 0:
                continue
            lines.append(";".join(_safe_frame(f) for f in path) + f" {us}")
        return lines

    def write_collapsed(self, path: str) -> int:
        """Write collapsed stacks to *path*; returns the line count."""
        lines = self.collapsed_stacks()
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        return len(lines)

    # ------------------------------------------------------------------
    @property
    def sim_elapsed_s(self) -> float:
        """Simulated seconds covered while profiling (0 before run)."""
        if self._sim_t0 is None or self._sim_t1 is None:
            return 0.0
        return max(self._sim_t1 - self._sim_t0, 0.0)

    def __repr__(self) -> str:
        return (f"Profiler(events={self.events_fired}, "
                f"dispatch={self.dispatch_s:.3f}s, "
                f"handlers={len(self._handlers)}, "
                f"spans={len(self._spans)})")
