"""Pins: every sink's output on runs that raise the fault and policy events.

Two CLI cells and two scripted fault runs, each hashed byte for byte:

* ``trace`` and ``exposure`` of hplajw under MTTDL_1e6 on RAID 1/0 — the
  policy reverts to RAID 5 mode and resumes AFRAID twice, so the trace
  carries its ``policy.*`` instants and the registry ``mode_switches_total``;
* a RAID 5 and a RAID 1/0 replay with all four sinks attached, in which
  an injector fails a member, plants a latent sector and loses the NVRAM
  marks, a second strike is refused (RAID 5) or absorbed (RAID 1/0), a
  paritypoint commits, a recovery scan runs and the failed member is
  rebuilt onto a spare.  The Chrome JSON, the Prometheus text and both
  histogram payloads are pinned.

The digests were recorded before the sinks moved behind one observer,
and two reruns there were byte-identical.  The attach-order test attaches
the sinks only after the injector and the rebuild manager are built, and
must still produce the pinned bytes.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.array.factory import build_array
from repro.cli import main
from repro.disk import toy_disk
from repro.ext.rebuild import RebuildManager
from repro.faults import FaultInjector
from repro.harness.replay import replay_trace
from repro.obs import ExposureMonitor, HistogramSet, MetricsRegistry, Tracer, prometheus_text
from repro.policy import BaselineAfraidPolicy
from repro.sim import Simulator
from repro.traces import make_trace

CLI_PINS = {
    "trace.json": "044bc1571550462be92952cc6faf259249ffd1a930ff80ed7cb9de1bdbb5daf7",
    "trace.jsonl": "7f87424a91cc2c85bc96937679cdaf91cc43091e09d1d594bef6c2379b34b365",
    "exposure.json": "130a8f85acd9808063ecea00073141a90d9ac0b39627564289086df662534eb2",
    "exposure.jsonl": "7be9e349d9a269fabbfcf8b80ba78a97f3d5bcdb7638f8e4c7deece534fbbfcc",
}

MTTDL_CELL = [
    "hplajw", "--policy", "mttdl", "--mttdl-target", "1e6",
    "--organization", "raid10", "--duration", "5",
]

RUN_PINS = {
    "raid5": {
        "chrome": "86c45d22b5687b1639e007e289cb4d08031f9758bd16483db8c4d656a22fe33e",
        "prometheus": "736b61470834840a3955241af7fa0c8dfc2a3082e77e546f1c43f59bfd9187b0",
        "latency_hists": "8763f7f9c14420f1c2fbf776fae799cb2f34b8ef1fc46b95130d78a2edb959a7",
        "exposure_hists": "0223c715ad885eab36e34fc3205e10a598b8708c2e0b0c9cd589ba8f04c30e24",
    },
    "raid10": {
        "chrome": "862f850bc9223e48fac7b016a3ea6ed2878f8b065d16dcf871581ec131abf1d2",
        "prometheus": "290b7612fed4a7d85e256f4edf0c06f40a8735d380476c080c73fe6baa8fd8f5",
        "latency_hists": "77eb4def8c3f3406f40c28426800fd343b15dbf84e0952aa5f9479efa5076100",
        "exposure_hists": "b198279bc8a67811da1e9751ac0b7c59fb185aafaaeec2df95aea095eff3e5f5",
    },
}

NDISKS = {"raid5": 5, "raid10": 6}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_mttdl_trace_matches_its_pins(tmp_path, capsys):
    out, jsonl = tmp_path / "trace.json", tmp_path / "trace.jsonl"
    assert main(["trace", *MTTDL_CELL, "--out", str(out), "--jsonl", str(jsonl)]) == 0
    capsys.readouterr()
    names = [event["name"] for event in json.loads(out.read_text())["traceEvents"]]
    assert names.count("policy.revert_raid5") == names.count("policy.resume_afraid") == 2
    assert _sha256(out.read_bytes()) == CLI_PINS["trace.json"]
    assert _sha256(jsonl.read_bytes()) == CLI_PINS["trace.jsonl"]


def test_mttdl_exposure_matches_its_pins(tmp_path, capsys):
    jsonl = tmp_path / "exposure.jsonl"
    assert main(["exposure", *MTTDL_CELL, "--json", "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["metrics"]["mode_switches_total"] == 4
    assert _sha256(out.encode()) == CLI_PINS["exposure.json"]
    assert _sha256(jsonl.read_bytes()) == CLI_PINS["exposure.jsonl"]


class _Script:
    """The run's operator: a paritypoint, a recovery scan and a spare rebuild."""

    def __init__(self, sim: Simulator, array) -> None:
        self.sim = sim
        self.array = array
        self.manager = RebuildManager(sim, array, yield_to_foreground=False)
        self.commit = self.rebuilt = None
        sim.timeout(1.0).callbacks.append(self._commit)
        sim.timeout(3.0).callbacks.append(self._scan)
        sim.timeout(5.5).callbacks.append(self._rebuild)

    def _commit(self, _event) -> None:
        self.commit = self.array.commit(0, self.array.layout.total_data_sectors)

    def _scan(self, _event) -> None:
        self.array.recovery_scan()

    def _rebuild(self, _event) -> None:
        self.rebuilt = self.manager.rebuild_onto(1, toy_disk(self.sim, name="spare"))


def _observed_run(organization: str, attach_first: bool = True) -> dict[str, str]:
    sim = Simulator()
    array = build_array(
        sim, BaselineAfraidPolicy(), ndisks=NDISKS[organization], organization=organization,
        disk_factory=toy_disk,
    )
    tracer, hists, registry = Tracer(sim), HistogramSet(), MetricsRegistry()
    exposure = ExposureMonitor()
    sinks = {"tracer": tracer, "histograms": hists, "registry": registry, "exposure": exposure}
    if attach_first:
        array.attach_observability(**sinks)
    injector = FaultInjector(sim, array)
    script = _Script(sim, array)
    if not attach_first:
        array.attach_observability(**sinks)
    injector.inject_latent_error_at(disk=2, lba=2, at_time=2.0)
    injector.fail_mark_memory_at(at_time=2.0)
    injector.fail_disk_at(disk=1, at_time=5.0)
    # Refused on RAID 5 (already degraded), absorbed on RAID 1/0 (4 is not 1's partner).
    injector.fail_disk_at(disk=4, at_time=6.0)
    trace = make_trace(
        "ATT", duration_s=20.0, seed=3, address_space_sectors=array.layout.total_data_sectors
    )
    outcome = replay_trace(sim, array, trace)
    assert not outcome.failures
    assert script.commit.ok and script.rebuilt.ok
    assert array.latent_sectors_repaired == 1
    assert len(injector.reports) == (1 if organization == "raid5" else 2)
    assert len(injector.skipped) == (1 if organization == "raid5" else 0)
    return {
        "chrome": _sha256(json.dumps(tracer.chrome_trace()).encode()),
        "prometheus": _sha256(prometheus_text(registry).encode()),
        "latency_hists": _sha256(json.dumps(hists.to_payload()).encode()),
        "exposure_hists": _sha256(json.dumps(exposure.hists.to_payload()).encode()),
    }


@pytest.mark.parametrize("organization", sorted(RUN_PINS))
def test_observed_fault_run_matches_its_pins(organization):
    assert _observed_run(organization) == RUN_PINS[organization]


@pytest.mark.parametrize("organization", sorted(RUN_PINS))
def test_sinks_attached_after_the_injector_and_manager_still_hear_every_event(organization):
    assert _observed_run(organization, attach_first=False) == RUN_PINS[organization]
