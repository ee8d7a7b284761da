"""Golden-equivalence gate for the trace-replay fast path.

A fixed-seed replay of the paper-trace mix must produce *identical*
simulated results no matter how the data plane is implemented: the fast
path (layout tables + extent caching, the seek lookup table, the timeout
freelist, the flattened controller loops) is pure mechanical sympathy and
must not move a single float.

The committed fixture (``golden_replay.json``) was captured from the
pre-fast-path implementation; this test replays the same scenarios and
compares:

* every :class:`~repro.array.controller.ArrayStats` counter,
* the per-class latency histograms (exact bucket payloads),
* the parity-lag integral (unprotected fraction / mean / peak lag),
* a digest of the raw per-request latency stream.

Regenerate (only when *intentionally* changing simulated behaviour)::

    PYTHONPATH=src python tests/harness/test_golden_replay.py --regen
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
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator
from repro.traces import make_trace

FIXTURE = pathlib.Path(__file__).with_name("golden_replay.json")

#: One write-light and one write-heavy workload; short enough to keep the
#: gate fast, long enough to exercise every write mode, the scrubber, the
#: read cache, and the C-LOOK host queue.
SCENARIOS = [
    {"workload": "cello-usr", "duration_s": 40.0, "seed": 7},
    {"workload": "ATT", "duration_s": 20.0, "seed": 11},
]
POLICIES = {
    "raid0": NeverScrubPolicy,
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
}


def _digest(values: list[float]) -> str:
    """An order-sensitive exact digest of a float stream."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def capture(workload: str, duration_s: float, seed: int, policy_name: str) -> dict:
    """Replay one (workload, policy) cell and capture everything observable."""
    sim = Simulator()
    array = build_array(sim, POLICIES[policy_name]())
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
    results = {}
    for scenario in SCENARIOS:
        for policy_name in POLICIES:
            key = f"{scenario['workload']}/{policy_name}"
            results[key] = capture(
                scenario["workload"], scenario["duration_s"], scenario["seed"], policy_name
            )
    return {"scenarios": SCENARIOS, "results": results}


def test_replay_matches_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fresh = capture_all()
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
