"""Tests for the repro.telemetry subsystem (collector, sinks, metrics)."""

import sys

import pytest

sys.path.insert(0, "tests")
from conftest import build_wired_connection, run_bulk  # noqa: E402

from repro.netsim.engine import Simulator  # noqa: E402
from repro.telemetry import (  # noqa: E402
    CAT_ACK,
    CATEGORIES,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    TraceCollector,
    TraceEvent,
    read_header,
    read_trace,
    trace_digest,
)


def _traced_run(tmp_path=None, seed=42, duration=2.0, **conn_kwargs):
    """One bulk tcp-tack run with telemetry; returns (collector, conn)."""
    sink = (JsonlSink(str(tmp_path / "run.jsonl"))
            if tmp_path is not None else MemorySink())
    collector = TraceCollector(sink=sink)
    sim = Simulator(seed=seed, telemetry=collector)
    conn, _ = build_wired_connection(sim, "tcp-tack", **conn_kwargs)
    run_bulk(sim, conn, duration)
    collector.close()
    return collector, conn


class TestTraceEvent:
    def test_round_trip(self):
        event = TraceEvent(1.25, "ack", "tack", 3,
                           {"reason": "periodic", "cum_ack": 96000})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_wire_keys_are_compact(self):
        d = TraceEvent(0.0, "cc", "update", 0, {"cwnd_bytes": 1}).to_dict()
        assert set(d) == {"t", "cat", "name", "flow", "data"}

    def test_missing_optional_keys_default(self):
        event = TraceEvent.from_dict({"t": 1.0, "cat": "netsim", "name": "x"})
        assert event.flow_id == 0
        assert event.fields == {}


class TestCollector:
    def test_category_filter(self):
        collector = TraceCollector(categories=["ack"])
        assert collector.emit("netsim", "drop") is None
        assert collector.emit("ack", "tack") is not None
        assert collector.events_dropped == 1
        assert [e.category for e in collector.events()] == ["ack"]

    def test_sampling_keeps_one_in_n(self):
        collector = TraceCollector(sampling={"netsim": 4})
        kept = [collector.emit("netsim", "enqueue", i) for i in range(12)]
        assert sum(e is not None for e in kept) == 3
        # ...and the kept ones are deterministic: every 4th, from the first.
        assert [e is not None for e in kept[:4]] == [True, False, False, False]

    def test_listener_sees_every_kept_event(self):
        seen = []
        collector = TraceCollector()
        collector.add_listener(seen.append)
        collector.emit("cc", "update", 1, cwnd_bytes=10)
        assert len(seen) == 1 and seen[0].fields["cwnd_bytes"] == 10

    def test_subscriber_sees_events_the_sink_drops(self):
        subscribed, listened = [], []
        collector = TraceCollector(categories=["ack", "cc"],
                                   sampling={"ack": 2})
        collector.subscribe(subscribed.append, ["ack", "timing"])
        collector.add_listener(listened.append)
        kept = [collector.emit("ack", "tack", i) for i in range(4)]
        collector.emit("timing", "rtt_sample", 9, rtt_s=0.1)
        collector.emit("cc", "update")
        assert [e.flow_id for e in subscribed] == [0, 1, 2, 3, 9]
        assert [e.flow_id for e in collector.events()] == [0, 2, 0]
        assert listened == collector.events()
        # a kept event reaches sink and subscriber as one object
        assert subscribed[0] is kept[0] is collector.events()[0]
        assert kept[1] is None

    def test_unattached_collector_stamps_zero(self):
        collector = TraceCollector()
        assert collector.emit("cc", "update").time == 0.0

    def test_events_raises_for_file_sink(self, tmp_path):
        collector = TraceCollector(JsonlSink(str(tmp_path / "t.jsonl")))
        with pytest.raises(TypeError):
            collector.events()
        collector.close()


class TestMemorySink:
    def test_ring_buffer_evicts_oldest(self):
        sink = MemorySink(max_events=3)
        for i in range(5):
            sink.append(TraceEvent(float(i), "cc", "update", 0))
        assert len(sink) == 3
        assert sink.evicted == 2
        assert [e.time for e in sink.events()] == [2.0, 3.0, 4.0]


class TestJsonlSink:
    def test_header_and_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = JsonlSink(path, meta={"seed": 7})
        events = [TraceEvent(0.1 * i, "ack", "tack", 0, {"reason": "periodic"})
                  for i in range(5)]
        for e in events:
            sink.append(e)
        digest = sink.digest()
        sink.close()
        header, loaded = read_trace(path)
        assert header["schema"] == "repro-telemetry"
        assert header["version"] == 1
        assert header["meta"] == {"seed": 7}
        assert loaded == events
        assert trace_digest(path) == digest

    def test_append_after_close_raises(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError):
            sink.append(TraceEvent(0.0, "cc", "update"))


class TestLiveRun:
    def test_event_times_are_monotonic_sim_time(self):
        collector, conn = _traced_run()
        events = collector.events()
        assert len(events) > 100
        times = [e.time for e in events]
        assert times == sorted(times)
        assert times[-1] <= 2.0 + 1e-9

    def test_all_categories_fire_on_a_bulk_run(self):
        collector, _ = _traced_run()
        seen = {e.category for e in collector.events()}
        # "chaos" only fires when a fault schedule is armed and
        # "guard" only on feedback violations; an unimpaired bulk run
        # with a well-behaved peer exercises every other category.
        assert seen == set(CATEGORIES) - {"chaos", "guard"}

    def test_chaos_category_fires_when_armed(self):
        from repro.chaos import Blackout, ChaosInjector, FaultSchedule
        sim = Simulator(seed=5, telemetry=TraceCollector())
        conn, path = build_wired_connection(sim, "tcp-tack")
        schedule = FaultSchedule().add(
            Blackout(start_s=0.5, duration_s=0.2))
        ChaosInjector(sim, path, schedule).arm()
        run_bulk(sim, conn, 2.0)
        seen = {e.category for e in sim.telemetry.events()}
        assert "chaos" in seen

    def test_telemetry_does_not_perturb_the_simulation(self):
        collector, traced = _traced_run()
        sim = Simulator(seed=42)
        conn, _ = build_wired_connection(sim, "tcp-tack")
        run_bulk(sim, conn, 2.0)
        assert (traced.receiver.stats.bytes_delivered
                == conn.receiver.stats.bytes_delivered)
        assert traced.receiver.stats.tacks_sent == conn.receiver.stats.tacks_sent

    def test_identical_runs_produce_identical_events(self):
        first, _ = _traced_run(seed=7)
        second, _ = _traced_run(seed=7)
        assert first.events() == second.events()

    def test_sampling_is_deterministic_across_runs(self):
        def sampled():
            collector = TraceCollector(MemorySink(), sampling={"netsim": 8})
            sim = Simulator(seed=9, telemetry=collector)
            conn, _ = build_wired_connection(sim, "tcp-tack")
            run_bulk(sim, conn, 1.0)
            return collector.events()

        assert sampled() == sampled()

    def test_lossy_run_emits_loss_reason_iacks(self):
        collector, conn = _traced_run(seed=11, duration=4.0, data_loss=0.02)
        acks = [e for e in collector.events() if e.category == CAT_ACK]
        reasons = {e.fields.get("reason") for e in acks}
        assert "loss" in reasons          # IACK pulls for the gaps
        assert "periodic" in reasons      # the Eq. (3) clock kept running
        iacks = [e for e in acks if e.name == "iack"
                 and e.fields.get("reason") == "loss"]
        assert len(iacks) > 0
        assert conn.receiver.stats.iacks_sent >= len(iacks)

    def test_drop_events_carry_reason(self):
        collector, _ = _traced_run(seed=11, duration=4.0, data_loss=0.02)
        drops = [e for e in collector.events()
                 if e.category == "netsim" and e.name == "drop"]
        assert drops
        assert {e.fields["reason"] for e in drops} <= {"loss", "queue"}


class TestMetricsRegistry:
    def test_live_and_offline_agree(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        sink = JsonlSink(path)
        collector = TraceCollector(sink=sink)
        live = MetricsRegistry(cadence_s=0.25).attach(collector)
        sim = Simulator(seed=5, telemetry=collector)
        conn, _ = build_wired_connection(sim, "tcp-tack")
        run_bulk(sim, conn, 2.0)
        collector.close()

        offline = MetricsRegistry.from_trace(path, cadence_s=0.25)
        assert live.flows() == offline.flows()
        flow = live.flows()[0]
        for metric in ("goodput_bps", "ack_hz", "inflight_bytes", "srtt_s"):
            assert live.series(flow, metric) == offline.series(flow, metric)
        assert live.summary(flow) == offline.summary(flow)

    def test_goodput_matches_receiver_stats(self):
        collector = TraceCollector()
        registry = MetricsRegistry(cadence_s=0.5).attach(collector)
        sim = Simulator(seed=5, telemetry=collector)
        conn, _ = build_wired_connection(sim, "tcp-tack")
        run_bulk(sim, conn, 2.0)
        flow = registry.flows()[0]
        assert (registry.summary(flow)["bytes_delivered"]
                == conn.receiver.stats.bytes_delivered)

    def test_unknown_metric_raises(self):
        registry = MetricsRegistry()
        registry.feed(TraceEvent(0.0, "ack", "tack", 1))
        with pytest.raises(KeyError):
            registry.series(1, "nope")

    def test_bad_cadence_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry(cadence_s=0.0)


class TestTraceIo:
    def test_read_header_only(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        JsonlSink(path, meta={"x": 1}).close()
        assert read_header(path)["meta"] == {"x": 1}

    def test_rejects_non_trace_file(self, tmp_path):
        from repro.telemetry import TraceFormatError
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"not": "a trace"}\n')
        with pytest.raises(TraceFormatError):
            read_header(str(path))
