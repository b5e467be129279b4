"""The benchmark's four workloads: inputs from a seed, build, run, check.

Every workload is a closed batch with no wall-clock pacing.  Its
inputs are generated here from the workload seed and handed to the
program as plain objects: the loss pattern of each link (the exact
packet indices to drop, one drop per block of ``1/rate`` packets at a
seed-chosen offset) and the fleet's flow list (arrival times and
sizes).  Stratifying the draws keeps the offered work nearly equal
across seeds, so the host-cost figures vary with the code, not with
how many losses or bytes a seed happened to draw.  Injected losses
start only after the first ``loss_from`` packets of a link: every
scheme then leaves slow start on queue overflow, the same way for
every seed, instead of on a random early drop that decides how long a
CUBIC flow crawls.

Each scheme runs in its own :class:`~repro.netsim.engine.Simulator`.
Simulation advances in ``SLICE_S`` slices so the host cost of every
100 ms of simulated time is observable; slicing fires exactly the
events one long ``run`` would.  The schemes of a workload take turns
of half a simulated second (:func:`run_interleaved`).  Host time is
CPU time, so time the operating system gives to other processes is not
counted.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.core.flavors import make_connection
from repro.diagnose.live import FlowDoctor
from repro.energy import EnergyLedger
from repro.fleet.report import aggregate, aggregate_digest
from repro.fleet.shard import ShardSpec, _ShardRun
from repro.fleet.workload import FlowSpec, WorkloadConfig
from repro.netsim.engine import Simulator
from repro.netsim.loss import PatternLoss
from repro.netsim.packet import MSS
from repro.netsim.paths import wired_path, wlan_path
from repro.telemetry import BinaryRingSink, TraceCollector

SCHEMES = ("tcp-tack", "tcp-bbr", "tcp-cubic", "tcp-bbr-perpacket")
DEFAULT_SEED = 1
SLICE_S = 0.1
#: Slices per turn: long enough that a scheme runs on warm caches, short
#: enough that every scheme's turns spread over the whole round.
TURN_SLICES = 5

#: Bulk workloads: one fixed-size transfer per scheme.
BULK = {
    "bulk-wired-loss": dict(rate_bps=50e6, rtt_s=0.04, data_loss=0.001,
                            ack_loss=0.01, loss_from=3000,
                            size_bytes=16_000_000, deadline_s=30.0),
    "bulk-wlan-n": dict(phy="802.11n", extra_rtt_s=0.01,
                        size_bytes=40_000_000, deadline_s=10.0),
    "bulk-wired-observed": dict(rate_bps=50e6, rtt_s=0.04, observed=True,
                                size_bytes=8_000_000, deadline_s=10.0),
}

#: fleet-churn: one shard per scheme on the asymmetric AP bottleneck.
FLEET = dict(arrival_hz=50.0, duration_s=4.0, drain_s=2.0,
             size_median_bytes=50_000, size_sigma=1.2)

WORKLOADS = ("bulk-wired-loss", "bulk-wlan-n", "fleet-churn",
             "bulk-wired-observed")


def derive_seed(seed: int, *labels: str) -> int:
    """A 32-bit seed for one scheme, shard or input stream."""
    text = "/".join([str(seed), *labels]).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def digest(doc: Any) -> str:
    """Short sha256 of a JSON-able behaviour record."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def loss_pattern(rate: float, first: int, n_packets: int,
                 rng: random.Random) -> list:
    """One dropped index per block of ``round(1/rate)`` packets, from
    packet ``first`` on."""
    block = round(1.0 / rate)
    return [start + rng.randrange(block)
            for start in range(first, n_packets, block)]


def fleet_flows(seed: int, scheme: str) -> List[FlowSpec]:
    """The fleet's flow list: Poisson arrivals conditioned on their
    count (uniform order statistics over the arrival window) and
    log-normal sizes taken at evenly spaced quantiles, shuffled."""
    rng = random.Random(derive_seed(seed, "fleet-churn", scheme, "flows"))
    n = round(FLEET["arrival_hz"] * FLEET["duration_s"])
    starts = sorted(rng.uniform(0.0, FLEET["duration_s"]) for _ in range(n))
    normal = statistics.NormalDist()
    sizes = [max(MSS, round(FLEET["size_median_bytes"] * math.exp(
        FLEET["size_sigma"] * normal.inv_cdf((i + 0.5) / n))))
        for i in range(n)]
    rng.shuffle(sizes)
    return [FlowSpec(i, t, s) for i, (t, s) in enumerate(zip(starts, sizes))]


def run_sliced(sim: Simulator, until: float, slices: list,
               pass_turn: Callable[[], None],
               stop: Optional[Callable[[], bool]] = None) -> None:
    """Advance ``sim`` to ``until`` in ``SLICE_S`` steps, appending the
    CPU seconds of each step to ``slices`` and calling ``pass_turn``
    every ``TURN_SLICES`` steps; ``stop`` ends it early at a slice
    boundary."""
    clock = time.thread_time
    k = round(sim.now() / SLICE_S)
    while sim.now() < until and not (stop is not None and stop()):
        k += 1
        started = clock()
        Simulator.run(sim, until=min(k * SLICE_S, until))
        slices.append(clock() - started)
        if k % TURN_SLICES == 0:
            pass_turn()


class _Turn:
    """Lets one case's thread run only while it holds the turn."""

    def __init__(self):
        self._go = threading.Event()
        self._done = threading.Event()
        self.over = False
        self.error: Optional[BaseException] = None

    def play(self, run: Callable[[Callable[[], None]], None]) -> None:
        """Thread body: wait for the first turn, then run the case."""
        self._go.wait()
        self._go.clear()
        try:
            run(self.pass_turn)
        except BaseException as exc:  # re-raised by run_interleaved
            self.error = exc
        finally:
            self.over = True
            self._done.set()

    def pass_turn(self) -> None:
        self._done.set()
        self._go.wait()
        self._go.clear()

    def give(self) -> None:
        self._go.set()
        self._done.wait()
        self._done.clear()


def run_interleaved(cases: List["Case"]) -> None:
    """Run every case to its end, ``TURN_SLICES`` slices of each in turn.

    Each case runs in its own thread, but only the thread holding the
    turn runs: it advances one turn's slices and hands the turn on.  Every
    scheme's slices thus spread over the same stretch of host time, so
    a slow or fast spell of the host is shared by all schemes instead of
    landing on whichever one happened to run then.
    """
    turns = [_Turn() for _ in cases]
    threads = [threading.Thread(target=turn.play, args=(case.run,))
               for turn, case in zip(turns, cases)]
    for thread in threads:
        thread.start()
    active = list(turns)
    while active:
        for turn in list(active):
            turn.give()
            if turn.over:
                active.remove(turn)
    for thread in threads:
        thread.join()
    for turn in turns:
        if turn.error is not None:
            raise turn.error


class Case:
    """One scheme's simulation within a workload."""

    def __init__(self, workload: str, scheme: str, seed: int):
        self.workload = workload
        self.scheme = scheme
        self.slices: List[float] = []
        self.conn = None
        self.shard = None
        self.links: list = []
        self.medium = None
        self.stations: tuple = ()
        self.collector = None
        self.doctor = None
        self.ledger = None
        if workload == "fleet-churn":
            self._build_fleet(seed)
        else:
            self._build_bulk(seed)

    # -- build ---------------------------------------------------------
    def _build_bulk(self, seed: int) -> None:
        cfg = BULK[self.workload]
        self.size_bytes = cfg["size_bytes"]
        self.deadline_s = cfg["deadline_s"]
        if cfg.get("observed"):
            self.collector = TraceCollector(BinaryRingSink())
            self.doctor = FlowDoctor()
            self.ledger = EnergyLedger()
        sim = self.sim = Simulator(
            seed=derive_seed(seed, self.workload, self.scheme),
            telemetry=self.collector, diagnosis=self.doctor,
            energy=self.ledger)
        if "phy" in cfg:
            path = wlan_path(sim, cfg["phy"], extra_rtt_s=cfg["extra_rtt_s"])
            self.medium, self.stations = path.medium, path.stations
            initial_rtt_s = cfg["extra_rtt_s"]
        else:
            losses = {}
            n_packets = 4 * self.size_bytes // MSS
            for side in ("data_loss", "ack_loss"):
                rate = cfg.get(side, 0.0)
                if rate:
                    rng = random.Random(derive_seed(
                        seed, self.workload, self.scheme, side))
                    losses[side] = PatternLoss(loss_pattern(
                        rate, cfg["loss_from"], n_packets, rng))
            path = wired_path(sim, cfg["rate_bps"], cfg["rtt_s"],
                              forward_loss=losses.get("data_loss"),
                              reverse_loss=losses.get("ack_loss"))
            self.links = [path.wan.forward, path.wan.reverse]
            initial_rtt_s = cfg["rtt_s"]
        self.conn = make_connection(sim, self.scheme,
                                    initial_rtt_s=initial_rtt_s)
        self.conn.wire(path.forward, path.reverse)
        self.conn.start_transfer(self.size_bytes)

    def _build_fleet(self, seed: int) -> None:
        spec = ShardSpec(
            shard_id=SCHEMES.index(self.scheme), scheme=self.scheme,
            seed=derive_seed(seed, self.workload, self.scheme),
            workload=WorkloadConfig(
                mean_arrival_hz=FLEET["arrival_hz"],
                duration_s=FLEET["duration_s"],
                size_median_bytes=FLEET["size_median_bytes"],
                size_sigma=FLEET["size_sigma"]),
            drain_s=FLEET["drain_s"])
        # What repro.fleet.shard.run_shard does, with the shard's flow
        # stream replaced by the benchmark's generated flow list.
        shard = self.shard = _ShardRun(spec)
        shard.flows = iter(fleet_flows(seed, self.scheme))
        self.sim = shard.sim
        self.links = [shard.wan.forward, shard.wan.reverse]
        self.doctor, self.ledger = shard.doctor, shard.energy

    # -- run -------------------------------------------------------------
    def run(self, pass_turn: Callable[[], None]) -> None:
        if self.shard is not None:
            sim, slices = self.sim, self.slices
            sim.run = lambda until=None, max_events=None: run_sliced(
                sim, until, slices, pass_turn)
            self.summary = self.shard.run()
        else:
            conn = self.conn
            run_sliced(self.sim, self.deadline_s, self.slices, pass_turn,
                       stop=lambda: conn.completed or conn.aborted is not None)

    # -- check -----------------------------------------------------------
    def outcome(self) -> Dict[str, Any]:
        """Flow checks, the behaviour digest and the work done."""
        if self.shard is not None:
            return self._fleet_outcome()
        conn, sim = self.conn, self.sim
        s, r = conn.sender.stats, conn.receiver.stats
        problems = []
        if conn.aborted is not None:
            problems.append(f"aborted ({conn.aborted.reason})")
        elif not conn.completed:
            problems.append(f"unfinished after {self.deadline_s:g} sim-s")
        if r.bytes_delivered != self.size_bytes:
            problems.append(f"delivered {r.bytes_delivered} of "
                            f"{self.size_bytes} bytes")
        # A flow's simulated seconds end at its completion, not at the
        # slice boundary after it.
        sim_s = conn.sender.completed_at if conn.completed else sim.now()
        record = {
            "bytes_delivered": r.bytes_delivered,
            "completed_at": repr(conn.sender.completed_at),
            "events_fired": sim.events_fired,
            "feedback": {"ack": r.acks_sent, "tack": r.tacks_sent,
                         "iack": r.iacks_sent},
            "retransmissions": s.retransmissions,
        }
        return {"scheme": self.scheme, "digest": digest(record),
                "problems": problems, "flows": 1,
                "failed": 1 if problems else 0,
                "completed": 1 if conn.completed else 0,
                "sim_s": sim_s, "flow_s": sim_s, "slices_s": self.slices}

    def _fleet_outcome(self) -> Dict[str, Any]:
        summary = self.summary
        flows = summary["flows"]
        problems = []
        if flows["aborted"]:
            problems.append(f"{flows['aborted']} flows aborted")
        if flows["unfinished"]:
            problems.append(f"{flows['unfinished']} flows unfinished")
        if summary["bytes"]["delivered"] != summary["bytes"]["offered"]:
            problems.append("delivered bytes differ from offered bytes")
        record = {"summary": summary,
                  "aggregate_digest": aggregate_digest(aggregate([summary]))}
        fct = summary["digests"]["fct_s"]
        return {"scheme": self.scheme, "digest": digest(record),
                "problems": problems, "flows": flows["started"],
                "failed": flows["aborted"] + flows["unfinished"],
                "completed": flows["completed"],
                "sim_s": summary["elapsed_s"],
                "flow_s": math.fsum(fct["sum_partials"]),
                "slices_s": self.slices}

    # -- per-layer work counts -------------------------------------------
    def counts(self) -> Dict[str, float]:
        """Work counters of the simulator-wide layers, read after the run."""
        sim = self.sim
        c: Dict[str, float] = {
            "events": sim.events_fired,
            "pending": sim.pending(),
            "link_drops": sum(link.packets_lost for link in self.links),
        }
        if self.medium is not None:
            c["txops"] = self.medium.transmissions
            c["collisions"] = self.medium.collisions
            c["mpdus"] = sum(st.frames_sent for st in self.stations)
        if self.collector is not None:
            c["telemetry_events"] = self.collector.events_emitted
        if self.ledger is not None:
            en = self.ledger.summary()
            c["energy_packets"] = en["data_pkts"] + en["ack_pkts"]
        if self.shard is not None:
            c["fleet_flows"] = self.summary["flows"]["started"]
        return c


def connection_counts(connections: list) -> Dict[str, int]:
    """Transport, ACK and guard work counters summed over connections."""
    c: Dict[str, int] = {}
    for conn in connections:
        s, r = conn.sender.stats, conn.receiver.stats
        for key, value in (
                ("feedback_frames", s.feedback_received),
                ("data_sent", s.data_packets_sent),
                ("retransmissions", s.retransmissions),
                ("data_received", r.data_packets),
                ("feedback_sent", r.total_feedback()),
                ("gap_events", r.gap_events),
                ("guard_frames", conn.sender.guard.frames
                 if conn.sender.guard is not None else 0)):
            c[key] = c.get(key, 0) + value
    return c
