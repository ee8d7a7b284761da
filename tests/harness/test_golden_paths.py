"""Golden-equivalence gate for the request paths the other fixtures miss.

:mod:`tests.harness.test_golden_replay` pins healthy write-through RAID 5
arrays and :mod:`tests.harness.test_golden_organizations` pins the AFRAID
policy on the mirrored and declustered organizations.  This fixture pins
the remaining request life cycles:

* **write-back** (ack at NVRAM time, flush in the background) on every
  organization, including the §3.4 NVRAM-dirty integral;
* **synchronous mirrored writes** (the RAID 5 policy on RAID 1, 1/0 and
  1+5), where both copies land inline;
* **mode switching** (the MTTDL-target policy on every organization), so
  synchronous writes meet stripes an earlier deferred write left dirty:
  RAID 5 reconstruct-writes, inline mirror catch-up, RAID 1+5 parity
  reconstruction;
* **degraded write-through**: one member fails mid-trace on every
  organization, so in-flight commands fail, reads reconstruct (parity or
  mirror partner) and writes take the degraded path.

Regenerate (only when *intentionally* changing simulated behaviour)::

    PYTHONPATH=src python tests/harness/test_golden_paths.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import struct

from repro.array.factory import build_array
from repro.faults import FaultInjector
from repro.harness.replay import replay_trace
from repro.obs import HistogramSet
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, MttdlTargetPolicy
from repro.sim import Simulator
from repro.traces import make_trace

FIXTURE = pathlib.Path(__file__).with_name("golden_paths.json")

#: The write-heavy ATT mix keeps the write paths, the staging area and the
#: host queue busy; the whole gate replays in a few seconds.
SCENARIO = {"workload": "ATT", "duration_s": 20.0, "seed": 11}
NDISKS = {"raid5": 5, "raid5d": 6, "raid1": 2, "raid10": 6, "raid15": 6}
POLICIES = {"afraid": BaselineAfraidPolicy, "raid5": AlwaysRaid5Policy, "mttdl": MttdlTargetPolicy}
#: MTTDL targets (hours) this trace misses part of the time under each
#: organization's own model, so the policy flips between deferred and
#: synchronous writes throughout the run.  Mirroring raises the model's
#: MTTDL by orders of magnitude: 1e6 h is never missed on RAID 1 or 1+5.
MTTDL_TARGETS_H = {"raid5": 1e6, "raid5d": 1e6, "raid1": 1e7, "raid10": 1e6, "raid15": 1e11}
#: Degraded cells lose this member at this simulated time, inside a burst
#: (commands in flight on it fail their client requests).
FAILED_DISK = 1
FAIL_AT_S = 1.0

#: (case, organization, policy, write policy, fail a member?)
CELLS = [
    *(("writeback", org, "afraid", "writeback", False) for org in NDISKS),
    *(("mirror-sync", org, "raid5", "writethrough", False)
      for org in ("raid1", "raid10", "raid15")),
    *(("mode-switch", org, "mttdl", "writethrough", False) for org in NDISKS),
    *(("degraded", org, "afraid", "writethrough", True) for org in NDISKS),
]


def _digest(values: list[float]) -> str:
    """An order-sensitive exact digest of a float stream."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _integrals(tracker) -> dict:
    return {
        "unprotected_fraction": tracker.unprotected_fraction,
        "mean_parity_lag_bytes": tracker.mean_parity_lag_bytes,
        "peak_parity_lag_bytes": tracker.peak_parity_lag_bytes,
        "total_time": tracker.total_time,
    }


def capture(organization: str, policy: str, write_policy: str, fail: bool) -> dict:
    """Replay one cell and capture everything observable."""
    sim = Simulator()
    args = (MTTDL_TARGETS_H[organization],) if policy == "mttdl" else ()
    array = build_array(
        sim,
        POLICIES[policy](*args),
        ndisks=NDISKS[organization],
        organization=organization,
        write_policy=write_policy,
    )
    hists = HistogramSet()
    array.attach_observability(histograms=hists)
    if fail:
        FaultInjector(sim, array).fail_disk_at(disk=FAILED_DISK, at_time=FAIL_AT_S)
    trace = make_trace(
        SCENARIO["workload"],
        duration_s=SCENARIO["duration_s"],
        address_space_sectors=array.layout.total_data_sectors,
        seed=SCENARIO["seed"],
    )
    outcome = replay_trace(sim, array, trace)
    stats = dataclasses.asdict(array.stats)
    io_times = stats.pop("io_times")
    return {
        "stats": stats,
        "io_times_digest": _digest(io_times),
        "io_times_count": len(io_times),
        "failures": sorted(type(exc).__name__ for exc in outcome.failures),
        "latency_hists": hists.to_payload(),
        "parity_lag": _integrals(array.lag_tracker),
        "nvram_dirty": _integrals(array.nvram_dirty_tracker),
        "disk_stats": [
            [d.stats.busy_time, d.stats.seek_time, d.stats.rotational_latency,
             d.stats.transfer_time, d.stats.reads, d.stats.writes,
             d.stats.sectors_read, d.stats.sectors_written]
            for d in array.disks
        ],
        "horizon_s": outcome.horizon_s,
    }


def capture_all() -> dict:
    results = {}
    for case, organization, policy, write_policy, fail in CELLS:
        key = f"{case}/{organization}/{policy}"
        results[key] = capture(organization, policy, write_policy, fail)
    return {"scenario": SCENARIO, "results": results}


def test_paths_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fresh = capture_all()
    assert set(fresh["results"]) == set(golden["results"])
    for key, expected in golden["results"].items():
        actual = fresh["results"][key]
        for field in expected:
            assert actual[field] == expected[field], f"{key}: {field} diverged"


def test_every_path_is_exercised():
    """The fixture must keep covering what its docstring claims."""
    results = json.loads(FIXTURE.read_text(encoding="utf-8"))["results"]
    for key, cell in results.items():
        assert cell["io_times_count"] > 0, key
        if key.startswith("writeback/"):
            assert cell["nvram_dirty"]["peak_parity_lag_bytes"] > 0, key
        if key.startswith("mirror-sync/"):
            assert cell["stats"]["foreground_data_writes"] > cell["stats"]["writes_completed"], key
        if key.startswith("mode-switch/"):
            assert cell["stats"]["reconstruct_reads"] > 0, key
        if key.startswith("degraded/"):
            assert cell["latency_hists"]["classes"].get("degraded_write"), key
    assert any(cell["failures"] for cell in results.values())


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1), encoding="utf-8")
    print(f"wrote {FIXTURE}")
