"""Live diagnosis plane: the flow doctor as a trace-collector subscriber.

:class:`FlowDoctor` is the only simulation-side piece of the package:
it subscribes to the simulation's
:class:`~repro.telemetry.TraceCollector` and forwards each
diagnosis-category event into the pure
:class:`~repro.diagnose.engine.DiagnosisEngine`.  Components emit each
diagnosis event once, to the collector; subscribers see every
:meth:`~repro.telemetry.TraceCollector.emit` before the sink's
filtering and sampling, so the doctor's input does not depend on what
the trace keeps.

The doctor and the trace receive the same event object, with the time
the collector stamped on it, so replaying an unsampled trace offline
through the same engine reproduces this doctor's report byte-for-byte.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.diagnose.engine import (
    VOCAB_CATEGORIES, DiagnosisConfig, DiagnosisEngine)

__all__ = ["FlowDoctor"]


class FlowDoctor:
    """Per-simulation diagnosis collector.

    Pass it as the ``diagnosis=`` argument of
    :class:`~repro.netsim.engine.Simulator`, which subscribes it to the
    simulation's trace collector, and read the report after the run::

        doctor = FlowDoctor()
        sim = Simulator(seed=1, diagnosis=doctor)
        ...  # build path + connection, run
        doctor.finalize()
        report = doctor.report()
    """

    def __init__(self, config: Optional[DiagnosisConfig] = None):
        self.engine = DiagnosisEngine(config)

    def attach(self, collector) -> "FlowDoctor":
        """Subscribe to *collector*'s diagnosis categories."""
        collector.subscribe(self.observe, VOCAB_CATEGORIES)
        return self

    # -- subscriber entry point (one call per emitted event) ----------
    def observe(self, event) -> None:
        self.engine.observe(event.time, event.category, event.name,
                            event.flow_id, event.fields)

    # -- extraction ---------------------------------------------------
    def finalize(self, end_s: Optional[float] = None) -> None:
        self.engine.finalize(end_s)

    def pop_flow(self, flow_id: int) -> Optional[Dict[str, Any]]:
        return self.engine.pop_flow(flow_id)

    def flows(self) -> Dict[str, Dict[str, Any]]:
        return self.engine.flows()

    def report(self) -> Dict[str, Any]:
        return self.engine.report()
