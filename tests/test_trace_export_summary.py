"""Tests for the connection summary API."""

import pytest

from conftest import build_wired_connection


class TestConnectionSummary:
    def test_summary_fields(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-tack", rate_bps=10e6,
                                         rtt_s=0.02)
        conn.start_transfer(50 * 1500)
        sim.run(until=3.0)
        s = conn.summary()
        assert s["completed"] is True
        assert s["bytes_delivered"] == 50 * 1500
        assert s["acks_by_kind"]["tack"] > 0
        assert s["acks_by_kind"]["ack"] == 0
        assert 0 < s["ack_per_data"] < 1
        assert s["rtt_min_s"] == pytest.approx(0.02, rel=0.5)

    def test_summary_before_start(self, sim):
        conn, _ = build_wired_connection(sim, "tcp-bbr")
        s = conn.summary()
        assert s["bytes_delivered"] == 0
        assert s["completed"] is False
        assert s["ack_per_data"] == 0.0
