"""Host-time attribution for the traced benchmark run.

The tracer times each layer from outside the program.  Before any
simulation object is built, :func:`instrument` replaces the public
entry points of the layer classes (port ``send``s, endpoint
``on_packet``s, ACK policies, congestion controllers, ``core``
trackers, the feedback guard, WLAN stations, the observation planes,
the fleet shard's callbacks, connection set-up) with timing wrappers,
and wraps ``Simulator.call_at`` so every scheduled callback -- pacing, RTO and
TACK timers, DCF rounds, link deliveries, the shard reaper -- runs in
a span of the layer whose module owns it.  Each ``Simulator.run``
call is a root span of ``netsim``.  Patching happens in the traced
process only; no source file changes.

A span's self time is its duration minus the durations of its child
spans, accumulated online on a stack, so the sum of all self times
equals the summed duration of the root spans exactly.  The first
``span_limit`` spans are also kept in memory as ``(name, start, end,
parent, flow id)`` records and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from typing import Any, Callable, Dict, List, Optional

LAYERS = ("netsim", "wlan", "transport.sender", "transport.receiver",
          "transport.guard", "ack", "cc", "core", "telemetry", "diagnose",
          "energy", "fleet", "connect", "other")

_MODULE_LAYERS = (
    ("repro.netsim", "netsim"),
    ("repro.wlan", "wlan"),
    ("repro.transport.sender", "transport.sender"),
    ("repro.transport.receiver", "transport.receiver"),
    ("repro.transport.guard", "transport.guard"),
    ("repro.ack", "ack"),
    ("repro.cc", "cc"),
    ("repro.core", "core"),
    ("repro.telemetry", "telemetry"),
    ("repro.diagnose", "diagnose"),
    ("repro.energy", "energy"),
    ("repro.fleet", "fleet"),
)

#: (module, class, methods, layer): the entry points wrapped by name.
ENTRY_POINTS = (
    ("repro.netsim.engine", "Simulator", ("run",), "netsim"),
    ("repro.netsim.link", "Link", ("send",), "netsim"),
    ("repro.netsim.demux", "SharedPort", ("send",), "netsim"),
    ("repro.netsim.pipe", "Pipe", ("send",), "netsim"),
    ("repro.wlan.station", "Station",
     ("send", "deliver", "begin_txop", "txop_succeeded", "txop_collided"),
     "wlan"),
    ("repro.wlan.medium", "WirelessMedium", ("notify_backlog",), "wlan"),
    ("repro.transport.sender", "TransportSender",
     ("on_packet", "start", "write", "close"), "transport.sender"),
    ("repro.transport.receiver", "TransportReceiver",
     ("on_packet", "build_feedback", "emit_feedback", "read", "close"),
     "transport.receiver"),
    ("repro.transport.guard", "FeedbackValidator",
     ("admit", "on_data_sent", "note_withheld"), "transport.guard"),
    ("repro.telemetry.collector", "TraceCollector",
     ("gate", "emit", "emit_kept"), "telemetry"),
    ("repro.diagnose.live", "FlowDoctor",
     ("observe", "pop_flow", "finalize"), "diagnose"),
    ("repro.energy.ledger", "EnergyLedger",
     ("on_tx", "on_rx", "flow_opened", "flow_closed", "on_feedback_emitted",
      "pop_flow"), "energy"),
    ("repro.fleet.shard", "_ShardRun",
     ("_on_arrival", "_admit", "_reap", "_retire", "_reaper_tick"), "fleet"),
)

#: (modules, layer): every public method of every class defined there.
PUBLIC_METHODS = (
    (("repro.ack.base", "repro.ack.bytecount", "repro.ack.delayed",
      "repro.ack.periodic", "repro.ack.perpacket", "repro.ack.tack"), "ack"),
    (("repro.cc.base", "repro.cc.bbr", "repro.cc.compound", "repro.cc.cubic",
      "repro.cc.pacing", "repro.cc.rack", "repro.cc.reno", "repro.cc.vegas"),
     "cc"),
    (("repro.core.loss_detect", "repro.core.owd_timing",
      "repro.core.rate_sync"), "core"),
)

_NOT_ENTRY = frozenset({"attach", "detach", "attach_profiler",
                        "attach_telemetry", "attach_diagnosis"})


def layer_of_module(module: Optional[str]) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or (module or "").startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span stack with online self-time accounting."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 span_limit: int = 50_000):
        self.clock = clock
        self.span_limit = span_limit
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.incl_s: List[float] = []
        self.calls: List[int] = []
        self.self_s = [0.0] * len(LAYERS)
        self.span_count = 0
        self.spans: List[tuple] = []
        self.schedules = 0
        self.telemetry_bytes = 0
        self.connections: list = []
        # The base frame collects the summed duration of root spans.
        self._base = [0.0, -1]
        self._stack = [self._base]
        self._ids: Dict[Any, int] = {}

    @property
    def root_s(self) -> float:
        return self._base[0]

    def name_id(self, layer: str, name: str, key: Any = None) -> int:
        key = (layer, name) if key is None else key
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.incl_s.append(0.0)
            self.calls.append(0)
        return nid

    def wrap(self, nid: int, fn: Callable, flow: Any = None) -> Callable:
        """``fn`` timed as one span of name ``nid`` per call."""
        tracer, stack, clock = self, self._stack, self.clock
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        layer = self.name_layer[nid]

        def traced(*args, **kwargs):
            sid = tracer.span_count
            tracer.span_count = sid + 1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[0]
                incl_s[nid] += duration
                calls[nid] += 1
                parent = stack[-1]
                parent[0] += duration
                if sid < tracer.span_limit:
                    fid = flow
                    if fid is None and args:
                        fid = getattr(args[0], "flow_id", None)
                    tracer.spans.append((nid, start, end, parent[1], fid))
        return traced

    def wrap_event(self, fn: Callable) -> Callable:
        """A scheduled callback, attributed to its owner's module."""
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            key = (type(owner), fn.__name__)
        else:
            key = getattr(fn, "__code__", fn)
        nid = self._ids.get(key)
        if nid is None:
            if owner is not None:
                module = type(owner).__module__
                name = f"{type(owner).__name__}.{fn.__name__}"
            else:
                module = getattr(fn, "__module__", None)
                name = getattr(fn, "__qualname__", repr(fn))
            nid = self.name_id(layer_of_module(module), f"event:{name}", key)
        return self.wrap(nid, fn, getattr(owner, "flow_id", None))

    def wrap_method(self, cls: type, method: str, layer: str) -> None:
        fn = cls.__dict__[method]
        nid = self.name_id(layer, f"{cls.__name__}.{method}")
        setattr(cls, method, self.wrap(nid, fn))

    # -- results -------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        return dict(zip(LAYERS, self.self_s))

    def by_name(self) -> Dict[str, Dict[str, float]]:
        return {name: {"layer": LAYERS[self.name_layer[i]],
                       "incl_s": self.incl_s[i], "calls": self.calls[i]}
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            for nid, start, end, parent, flow in self.spans:
                f.write(json.dumps([self.names[nid], start, end, parent,
                                    flow]) + "\n")


def instrument(tracer: Tracer) -> None:
    """Wrap every layer entry point for the rest of this process."""
    for module, cls_name, methods, layer in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            tracer.wrap_method(cls, method, layer)
    for modules, layer in PUBLIC_METHODS:
        for module in modules:
            mod = importlib.import_module(module)
            for cls in vars(mod).values():
                if not (isinstance(cls, type) and cls.__module__ == module):
                    continue
                for method, fn in list(vars(cls).items()):
                    if (isinstance(fn, types.FunctionType)
                            and not method.startswith("_")
                            and method not in _NOT_ENTRY):
                        tracer.wrap_method(cls, method, layer)

    from repro.netsim.engine import Simulator
    call_at = Simulator.call_at

    def traced_call_at(sim, t, fn):
        tracer.schedules += 1
        return call_at(sim, t, tracer.wrap_event(fn))
    Simulator.call_at = traced_call_at

    from repro.telemetry.binlog.sinks import BinaryRingSink
    append = BinaryRingSink.append

    def counted_append(sink, event):
        append(sink, event)
        tracer.telemetry_bytes += sink._lens[-1]
    BinaryRingSink.append = counted_append

    # Connections are built through these module globals (the fleet
    # shard and the benchmark import the name): the wrapper times
    # connection set-up and keeps each connection so its counters can
    # be read after the run.
    from repro.core import flavors
    from repro.fleet import shard
    connect = tracer.wrap(tracer.name_id("connect", "make_connection"),
                          flavors.make_connection)

    def make_connection(*args, **kwargs):
        conn = connect(*args, **kwargs)
        tracer.connections.append(conn)
        return conn
    flavors.make_connection = shard.make_connection = make_connection


def self_test() -> None:
    """Check the span arithmetic on a scripted clock: nested spans'
    self times plus the untraced residual sum to the window."""
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    window_start = tracer.clock()                       # 0
    inner = tracer.wrap(tracer.name_id("cc", "inner"), lambda: None)

    def outer_body():
        tracer.clock()                                  # 3: outer's own work
        inner()                                         # spans 4 .. 7
    outer = tracer.wrap(tracer.name_id("netsim", "outer"), outer_body)
    outer()                                             # spans 1 .. 8
    window_end = tracer.clock()                         # 10
    selfs = tracer.layer_self_s()
    residual = (window_end - window_start) - tracer.root_s
    expected = {"netsim": 4.0, "cc": 3.0}
    for layer, value in expected.items():
        if selfs[layer] != value:
            raise AssertionError(f"self time of {layer}: {selfs[layer]} "
                                 f"!= {value}")
    if sum(selfs.values()) + residual != window_end - window_start:
        raise AssertionError("self times plus residual != window")
    if [s[3] for s in tracer.spans] != [0, -1]:
        raise AssertionError(f"span parents wrong: {tracer.spans}")
