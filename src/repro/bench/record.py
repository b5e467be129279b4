"""The ``BenchRecord`` schema: one measured metric of one bench run.

This module is host-side tooling (exempt from the determinism lint's
wall-clock rules): records are *about* wall time, stamped at append
time, and never read from inside a simulation — reprolint REP007
enforces that sim-side packages cannot import it.

Schema (version 1), one JSON object per line in a history file::

    {"schema": "repro-bench", "version": 1,
     "name": "engine_micro", "metric": "events_per_s",
     "value": 812345.6, "unit": "1/s", "better": "higher",
     "recorded_unix": 1700000000.0,
     "machine": {"fingerprint": "9f2c…", "hostname": ..., "platform": ...,
                 "python": "3.11.8", "cpus": 8},
     "git_rev": "ad3ac78", "meta": {...}}

``better`` states the improvement direction (``"higher"`` |
``"lower"`` | ``null``); the regression gate skips metrics whose
direction is unknown rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

SCHEMA_NAME = "repro-bench"
SCHEMA_VERSION = 1

#: Valid improvement directions.
BETTER_VALUES = ("higher", "lower")


def machine_fingerprint(host: Optional[Dict[str, Any]] = None) -> str:
    """Short stable hash of the measuring machine.

    Records from different machines are never compared by the gate —
    a laptop's events/sec says nothing about a CI runner's — so every
    record carries this fingerprint and series are filtered by it.
    """
    if host is None:
        # Deferred: importing repro.bench should not load the whole
        # repro.runner package.
        from repro.runner.manifest import host_metadata
        host = host_metadata()
    blob = json.dumps(host, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def git_revision(start: Optional[str] = None) -> str:
    """Current git commit (short hex) by reading ``.git`` directly.

    No subprocess: benches run inside pytest workers where spawning
    ``git`` is slow and may be unavailable.  Walks upward from *start*
    (default: this file) to the repository root; returns ``"unknown"``
    outside a checkout or on any parse problem.
    """
    node = os.path.abspath(start or os.path.dirname(__file__))
    while True:
        git_dir = os.path.join(node, ".git")
        if os.path.isdir(git_dir):
            break
        parent = os.path.dirname(node)
        if parent == node:
            return "unknown"
        node = parent
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref:"):
            ref = head.split(None, 1)[1]
            ref_path = os.path.join(git_dir, *ref.split("/"))
            if os.path.isfile(ref_path):
                with open(ref_path) as fh:
                    return fh.read().strip()[:12]
            packed = os.path.join(git_dir, "packed-refs")
            if os.path.isfile(packed):
                with open(packed) as fh:
                    for line in fh:
                        if line.strip().endswith(ref):
                            return line.split()[0][:12]
            return "unknown"
        return head[:12]
    except OSError:
        return "unknown"


def file_sha256(path: str) -> str:
    """SHA-256 hex digest of a file's bytes (profile/trace artifacts)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class BenchRecord:
    """One measured metric of one benchmark run."""

    name: str                       # bench identity, e.g. "engine_micro"
    metric: str                     # e.g. "events_per_s"
    value: float
    unit: str                       # "s", "1/s", "pct", "bytes", ...
    better: Optional[str] = None    # "higher" | "lower" | None (no gate)
    recorded_unix: float = 0.0
    machine: Dict[str, Any] = field(default_factory=dict)
    git_rev: str = "unknown"
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.better is not None and self.better not in BETTER_VALUES:
            raise ValueError(
                f"better must be one of {BETTER_VALUES} or None, "
                f"got {self.better!r}")

    # ------------------------------------------------------------------
    @classmethod
    def make(cls, name: str, metric: str, value: float, unit: str,
             better: Optional[str] = None,
             meta: Optional[Dict[str, Any]] = None) -> "BenchRecord":
        """Construct a record stamped with the current run context."""
        from repro.runner.manifest import host_metadata
        host = host_metadata()
        return cls(
            name=name, metric=metric, value=float(value), unit=unit,
            better=better,
            recorded_unix=time.time(),
            machine={"fingerprint": machine_fingerprint(host), **host},
            git_rev=git_revision(),
            meta=dict(meta) if meta else {},
        )

    @property
    def fingerprint(self) -> str:
        """The measuring machine's fingerprint (``""`` if unstamped)."""
        return self.machine.get("fingerprint", "")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_NAME,
            "version": SCHEMA_VERSION,
            "name": self.name,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "better": self.better,
            "recorded_unix": self.recorded_unix,
            "machine": self.machine,
            "git_rev": self.git_rev,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "BenchRecord":
        if doc.get("schema") != SCHEMA_NAME:
            raise ValueError(
                f"not a {SCHEMA_NAME} record: schema={doc.get('schema')!r}")
        return cls(
            name=doc["name"], metric=doc["metric"],
            value=float(doc["value"]), unit=doc.get("unit", ""),
            better=doc.get("better"),
            recorded_unix=float(doc.get("recorded_unix", 0.0)),
            machine=dict(doc.get("machine") or {}),
            git_rev=doc.get("git_rev", "unknown"),
            meta=dict(doc.get("meta") or {}),
        )

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
