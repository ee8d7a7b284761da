"""Golden-equivalence gate for the mirrored and declustered organizations.

The companion to :mod:`tests.harness.test_golden_replay`, which pins the
original RAID 0/5/AFRAID paths bit-identically.  This fixture pins the
*new* organizations introduced with :class:`~repro.layout.ArrayOrganization`:
one mirrored scenario per mirror flavour (RAID 1, RAID 1/0, RAID 1+5) and
one declustered RAID 5 scenario, all under the deferring AFRAID policy so
the deferral machinery (mirror-copy deferral for RAID 1/1/0, parity
deferral for RAID 1+5 and declustered RAID 5) is exercised end to end.

Regenerate (only when *intentionally* changing simulated behaviour)::

    PYTHONPATH=src python tests/harness/test_golden_organizations.py --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import struct

from repro.array.factory import build_array
from repro.harness.replay import replay_trace
from repro.obs import HistogramSet
from repro.policy import BaselineAfraidPolicy
from repro.sim import Simulator
from repro.traces import make_trace

FIXTURE = pathlib.Path(__file__).with_name("golden_organizations.json")

#: (organization, ndisks) cells replayed under the AFRAID policy.  The
#: write-heavy ATT mix keeps the deferral queues busy; cello-usr covers a
#: read-dominated mix on the two organizations whose read path differs
#: most from rotated RAID 5 (mirror read-balancing, declustered mapping).
SCENARIOS = [
    {"workload": "ATT", "duration_s": 20.0, "seed": 11},
    {"workload": "cello-usr", "duration_s": 40.0, "seed": 7},
]
ORGANIZATIONS = {
    "raid1": 2,
    "raid10": 6,
    "raid15": 6,
    "raid5d": 6,
}
#: Keep the gate fast: every organization runs the write-heavy trace, the
#: read-heavy trace runs on the representative mirrored + declustered pair.
CELLS = [
    ("ATT", "raid1"),
    ("ATT", "raid10"),
    ("ATT", "raid15"),
    ("ATT", "raid5d"),
    ("cello-usr", "raid10"),
    ("cello-usr", "raid5d"),
]


def _digest(values: list[float]) -> str:
    """An order-sensitive exact digest of a float stream."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def capture(workload: str, duration_s: float, seed: int, organization: str) -> dict:
    """Replay one (workload, organization) cell and capture everything observable."""
    sim = Simulator()
    array = build_array(
        sim,
        BaselineAfraidPolicy(),
        ndisks=ORGANIZATIONS[organization],
        organization=organization,
    )
    hists = HistogramSet()
    array.attach_observability(histograms=hists)
    trace = make_trace(
        workload,
        duration_s=duration_s,
        address_space_sectors=array.layout.total_data_sectors,
        seed=seed,
    )
    outcome = replay_trace(sim, array, trace)
    assert not outcome.failures
    stats = dataclasses.asdict(array.stats)
    io_times = stats.pop("io_times")
    tracker = array.lag_tracker
    return {
        "stats": stats,
        "io_times_digest": _digest(io_times),
        "io_times_count": len(io_times),
        "latency_hists": hists.to_payload(),
        "parity_lag": {
            "unprotected_fraction": tracker.unprotected_fraction,
            "mean_parity_lag_bytes": tracker.mean_parity_lag_bytes,
            "peak_parity_lag_bytes": tracker.peak_parity_lag_bytes,
            "total_time": tracker.total_time,
        },
        "horizon_s": outcome.horizon_s,
    }


def capture_all() -> dict:
    scenarios = {s["workload"]: s for s in SCENARIOS}
    results = {}
    for workload, organization in CELLS:
        scenario = scenarios[workload]
        key = f"{workload}/{organization}"
        results[key] = capture(
            workload, scenario["duration_s"], scenario["seed"], organization
        )
    return {"scenarios": SCENARIOS, "results": results}


def test_organizations_match_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fresh = capture_all()
    assert set(fresh["results"]) == set(golden["results"])
    for key, expected in golden["results"].items():
        actual = fresh["results"][key]
        assert actual["stats"] == expected["stats"], f"{key}: ArrayStats diverged"
        assert actual["io_times_count"] == expected["io_times_count"], key
        assert actual["io_times_digest"] == expected["io_times_digest"], (
            f"{key}: per-request latency stream diverged"
        )
        assert actual["latency_hists"] == expected["latency_hists"], (
            f"{key}: latency histograms diverged"
        )
        assert actual["parity_lag"] == expected["parity_lag"], (
            f"{key}: parity-lag integral diverged"
        )
        assert actual["horizon_s"] == expected["horizon_s"], key


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1), encoding="utf-8")
    print(f"wrote {FIXTURE}")
