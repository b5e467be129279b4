"""Golden lock: behaviour digests pinned as literals.

Each value below was recorded once and is compared exactly.  A
refactor that keeps behaviour keeps every value; a change that moves
one must edit the literal here and say in CHANGES.md which value moved
and why.  There is deliberately no flag that rewrites them.

Pinned per scheme and path:

* ``trace`` / ``doctor`` -- sha256 of an unsampled JSONL trace and the
  live flow doctor's report digest from the same run;
* ``always_on_trace`` / ``always_on_doctor`` -- the same two values
  with the always-on sampling table;
* ``doctor_only`` -- the doctor digest with no trace collector (the
  configuration fleet shards run in).

Plus one small fleet shard per scheme (its ``aggregate_digest``).

The values are floating-point trajectories recorded on CPython 3.11,
the version CI runs.
"""

import sys

import pytest

from repro.core.flavors import make_connection
from repro.diagnose.live import FlowDoctor
from repro.fleet import ShardSpec, WorkloadConfig, aggregate, aggregate_digest
from repro.fleet.shard import run_shard
from repro.netsim.engine import Simulator
from repro.netsim.paths import wired_path
from repro.telemetry import ALWAYS_ON_SAMPLING, JsonlSink, TraceCollector

pytestmark = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="golden digests are pinned to CPython 3.11")

SCHEMES = ("tcp-tack", "tcp-bbr", "tcp-cubic", "tcp-bbr-perpacket")
PATHS = {
    "clean": {},
    "lossy": {"data_loss": 0.01, "ack_loss": 0.01},
}
RATE_BPS = 20e6
RTT_S = 0.04
TRANSFER_BYTES = 500_000
RUN_S = 3.0
SEED = 7


def run_flow(scheme, path, mode, tmp_path):
    """One short transfer; returns ``(trace sha256 or None, doctor digest)``."""
    collector = None
    if mode != "doctor_only":
        sampling = ALWAYS_ON_SAMPLING if mode == "always_on" else None
        collector = TraceCollector(
            JsonlSink(str(tmp_path / f"{scheme}-{path}-{mode}.jsonl")),
            sampling=sampling)
    doctor = FlowDoctor()
    sim = Simulator(seed=SEED, telemetry=collector, diagnosis=doctor)
    wan = wired_path(sim, RATE_BPS, RTT_S, **PATHS[path])
    conn = make_connection(sim, scheme, initial_rtt_s=RTT_S)
    conn.wire(wan.forward, wan.reverse)
    conn.start_transfer(TRANSFER_BYTES)
    sim.run(until=RUN_S)
    assert conn.completed
    conn.close()
    sim.run(until=RUN_S + 1.0)
    doctor.finalize()
    trace = None
    if collector is not None:
        collector.close()
        trace = collector.sink.digest()
    return trace, doctor.report()["digest"]


def run_fleet_shard(scheme):
    spec = ShardSpec(
        shard_id=0, scheme=scheme, seed=11,
        workload=WorkloadConfig(arrival="poisson", mean_arrival_hz=3.0,
                                duration_s=2.0, size_median_bytes=20_000,
                                size_sigma=0.8, max_bytes=200_000),
        drain_s=3.0)
    return aggregate_digest(aggregate([run_shard(spec.to_dict())]))


GOLDEN = {
    ('tcp-tack', 'clean'): {
        'trace':
            '84290efdbc67b6ef6bd46e462fb12c5d47c8d86ab1a6ac64a4b9df611951b860',
        'doctor':
            '99692c32f7179f918c8fe88b3149cc4c10224ba6a810a2f86daedebe314ab8a5',
        'always_on_trace':
            '7f4ae30b9e321d5b245e8cd8a4ee53cf53e72c3fe1d8774f6009195aaffef9e2',
        'always_on_doctor':
            '99692c32f7179f918c8fe88b3149cc4c10224ba6a810a2f86daedebe314ab8a5',
        'doctor_only':
            '99692c32f7179f918c8fe88b3149cc4c10224ba6a810a2f86daedebe314ab8a5',
    },
    ('tcp-tack', 'lossy'): {
        'trace':
            '5ab9ffcaaefc85365ed6909c86b76edadf895ef37e549caee7a1c1bedbce1d3a',
        'doctor':
            '760f5d5447f23e658cff6b2df84a906c5f98406f75c1b76df1721377a5b91f82',
        'always_on_trace':
            '644a1813688a8aa71c15d581e70218f60ca2bc75a0d2e14de57555936b8b4ee6',
        'always_on_doctor':
            '760f5d5447f23e658cff6b2df84a906c5f98406f75c1b76df1721377a5b91f82',
        'doctor_only':
            '760f5d5447f23e658cff6b2df84a906c5f98406f75c1b76df1721377a5b91f82',
    },
    ('tcp-bbr', 'clean'): {
        'trace':
            'bddb7d35cbe843d2847fad65060f3df0daba667fa33b538f228ad00c7b1018ee',
        'doctor':
            '15bc6891d72cb14af608c38855a81a23117597a534a83dc390bee0ea3cb17cf7',
        'always_on_trace':
            '856b5f0707c7b0c697f57f8fb193ce30e9b6e8a82aeafe60ae4ca01b14e59e5e',
        'always_on_doctor':
            '15bc6891d72cb14af608c38855a81a23117597a534a83dc390bee0ea3cb17cf7',
        'doctor_only':
            '15bc6891d72cb14af608c38855a81a23117597a534a83dc390bee0ea3cb17cf7',
    },
    ('tcp-bbr', 'lossy'): {
        'trace':
            '6180b3fd7384b2625ba6aa352c7ac452d7dbdddf56ab660f57495ae6295649d3',
        'doctor':
            '8767ad6a814f10a43eb2c93e8c306ddce9e53361455d0ab9286966b7b463fdbd',
        'always_on_trace':
            '257a5fc481b75fe96613604a6b0bb835fcc36615032752c0a403b4ec2499ee96',
        'always_on_doctor':
            '8767ad6a814f10a43eb2c93e8c306ddce9e53361455d0ab9286966b7b463fdbd',
        'doctor_only':
            '8767ad6a814f10a43eb2c93e8c306ddce9e53361455d0ab9286966b7b463fdbd',
    },
    ('tcp-cubic', 'clean'): {
        'trace':
            '14afc885c74576a4a106f12c7794b3a2e4cb73756f276a57747e44dcace26bef',
        'doctor':
            'c6e6dfe3697b796065817826b1f1f4c601d39e71c46d09638f86fe78d8928fa3',
        'always_on_trace':
            '21c7952ddd6118717976514804a340d23cbaf22fee66fd74d7fe91e35b979eb7',
        'always_on_doctor':
            'c6e6dfe3697b796065817826b1f1f4c601d39e71c46d09638f86fe78d8928fa3',
        'doctor_only':
            'c6e6dfe3697b796065817826b1f1f4c601d39e71c46d09638f86fe78d8928fa3',
    },
    ('tcp-cubic', 'lossy'): {
        'trace':
            '2e999d48e9e7813ed0b2700509eec756d697ece449871a6edaa3b35bd4ad2bf1',
        'doctor':
            '22784650c8c8bcd0e69d4b82adde88e5a9cfbf2c77a0c119998ff336e74fd69d',
        'always_on_trace':
            'f191bcd79fad6cbeb7ef9c1a4499dd104bead181ffcf18ff12675f60dd2f9de7',
        'always_on_doctor':
            '22784650c8c8bcd0e69d4b82adde88e5a9cfbf2c77a0c119998ff336e74fd69d',
        'doctor_only':
            '22784650c8c8bcd0e69d4b82adde88e5a9cfbf2c77a0c119998ff336e74fd69d',
    },
    ('tcp-bbr-perpacket', 'clean'): {
        'trace':
            '3d83df31740988c41ddf4fc3efa4e6737b0d2755ec0d7f6537b5d8c5a75fc993',
        'doctor':
            '75a2e6e6dbf927eb8f076367a7a32ef5fbcf9395014265f9643b3c74fd7d4ba9',
        'always_on_trace':
            '579abd51cd2277da1cd8e4700b0be47a83179fcb7ab91fa2b8e80f80f226f571',
        'always_on_doctor':
            '75a2e6e6dbf927eb8f076367a7a32ef5fbcf9395014265f9643b3c74fd7d4ba9',
        'doctor_only':
            '75a2e6e6dbf927eb8f076367a7a32ef5fbcf9395014265f9643b3c74fd7d4ba9',
    },
    ('tcp-bbr-perpacket', 'lossy'): {
        'trace':
            '188c48600944bddc1ad7267e72391ebd36a68b4167507e10fd9adeec7db1ec39',
        'doctor':
            '1f73fa680d74ae133ca56b3ab64a16be232bd6965ec5e59e8cf4d5cc7f2de55f',
        'always_on_trace':
            'cea952aa8f1dc1da90d5978d242cd67e7facc2731c5601e79467944ce7dbf463',
        'always_on_doctor':
            '1f73fa680d74ae133ca56b3ab64a16be232bd6965ec5e59e8cf4d5cc7f2de55f',
        'doctor_only':
            '1f73fa680d74ae133ca56b3ab64a16be232bd6965ec5e59e8cf4d5cc7f2de55f',
    },
}

FLEET_GOLDEN = {
    'tcp-tack':
        '287189612a1608353a3a82a80302e927284834a324e109bed2a2467a5e7e9b03',
    'tcp-bbr':
        '39f6be303b736fdaf0807c5096d65ed144dcd8d6570c74767e34b8d561cd4d18',
    'tcp-cubic':
        'aaeecd264b36fa1c1a4aaa8cfc1862909d8e91e5c58c3c6d166a99937b587b0c',
    'tcp-bbr-perpacket':
        '61954b2690c61902b1c1d32bf955960396419315cdcb6ba1db86a622ab13892a',
}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_flow_digests(tmp_path, scheme, path):
    trace, doctor = run_flow(scheme, path, "full", tmp_path)
    always_on_trace, always_on_doctor = run_flow(scheme, path, "always_on",
                                                 tmp_path)
    _, doctor_only = run_flow(scheme, path, "doctor_only", tmp_path)
    assert {
        "trace": trace,
        "doctor": doctor,
        "always_on_trace": always_on_trace,
        "always_on_doctor": always_on_doctor,
        "doctor_only": doctor_only,
    } == GOLDEN[scheme, path]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fleet_shard_digest(scheme):
    assert run_fleet_shard(scheme) == FLEET_GOLDEN[scheme]
