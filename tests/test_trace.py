"""Link-level traffic seen through the ``netsim`` telemetry events."""

from repro.netsim.engine import Simulator
from repro.netsim.packet import PacketType
from repro.telemetry import TraceCollector

from conftest import build_wired_connection


def delivered(collector, link, kind):
    return sum(1 for e in collector.events()
               if e.category == "netsim" and e.name == "delivered"
               and e.fields["link"] == link and e.fields["kind"] == kind)


class TestLinkEvents:
    def test_tacks_on_reverse_link_match_receiver(self):
        collector = TraceCollector(categories=("netsim",))
        sim = Simulator(seed=42, telemetry=collector)
        conn, path = build_wired_connection(sim, "tcp-tack", rate_bps=10e6,
                                            rtt_s=0.05)
        conn.start_transfer(50 * 1500)
        sim.run(until=5.0)
        assert conn.completed
        tacks = delivered(collector, path.wan.reverse.name,
                          PacketType.TACK.value)
        assert tacks > 0
        assert tacks == conn.receiver.stats.tacks_sent

    def test_forward_link_delivers_every_data_packet(self):
        collector = TraceCollector(categories=("netsim",))
        sim = Simulator(seed=42, telemetry=collector)
        conn, path = build_wired_connection(sim, "tcp-tack", rate_bps=10e6,
                                            rtt_s=0.02)
        conn.start_transfer(30 * 1500)
        sim.run(until=3.0)
        assert conn.completed
        data = delivered(collector, path.wan.forward.name,
                         PacketType.DATA.value)
        assert data >= 30
        assert data == conn.receiver.stats.data_packets
