"""Golden-equivalence gate for the background scrub.

The other fixtures run the idle-time scrub (§4.1) only with one marker
bit per stripe and only as the idle scrubber.  This fixture pins the
scrub's remaining configurations on every organization:

* **marker bits** 2 and 4 per stripe (§5), so each scrub rebuilds one
  horizontal slice of the stripe's redundancy;
* **paritypoints**: ``DiskArray.commit`` over recently written extents,
  racing the idle scrubber, with 1 and 4 marker bits;
* **latent sector errors** planted in dirty stripes, which the scrub's
  reads hit and heal;
* **a horizon that cuts a scrub mid-write**: the first 150 snake requests
  at seed 0 on raid5 and raid5d, the repo benchmark's request cut (its
  ``snake/raid5/afraid#0`` cell);
* **the event order of a RAID 5 scrub**: the MTTDL-target policy on the
  two cells (raid5 with 2 bits, raid5d with 4) whose results change if
  the lone parity write is joined through one more kernel event.

Each cell also records the marks left at the horizon (count and digest).

Regenerate (only when *intentionally* changing simulated behaviour)::

    PYTHONPATH=src python tests/harness/test_golden_scrub.py --regen
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
from repro.nvram import sub_unit_extent
from repro.obs import HistogramSet
from repro.policy import BaselineAfraidPolicy, MttdlTargetPolicy
from repro.sim import Simulator
from repro.traces import make_trace

FIXTURE = pathlib.Path(__file__).with_name("golden_scrub.json")

#: The write-heavy ATT mix keeps the scrubber busy between bursts.
SCENARIO = {"workload": "ATT", "duration_s": 20.0, "seed": 11}
NDISKS = {"raid5": 5, "raid5d": 6, "raid1": 2, "raid10": 6, "raid15": 6}
#: The horizon-cut cells use the benchmark's disk counts and request cut.
HORIZON = {"workload": "snake", "requests": 150, "seed": 0}
HORIZON_NDISKS = {"raid5": 5, "raid5d": 5}
#: Every COMMIT_EVERY-th write record is committed COMMIT_DELAY_S after
#: it arrives, while its stripes are usually still dirty.
COMMIT_EVERY = 8
COMMIT_DELAY_S = 0.05
#: Every LATENT_EVERY-th write record plants one latent sector at the end
#: of each marking sub-unit of every data unit of its first stripe.
LATENT_EVERY = 10
LATENT_DELAY_S = 0.001

#: (case, organization, marker bits); every case but "mttdl" runs AFRAID.
CELLS = [
    *(("bits", org, bits) for org in NDISKS for bits in (2, 4)),
    *(("commit", org, bits) for org in NDISKS for bits in (1, 4)),
    *(("latent", org, bits) for org in NDISKS for bits in (1, 4)),
    *(("horizon", org, 1) for org in HORIZON_NDISKS),
    ("mttdl", "raid5", 2),
    ("mttdl", "raid5d", 4),
]


def _digest(values: list[float]) -> str:
    """An order-sensitive exact digest of a float stream."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def _horizon_trace(space: int):
    """The first ``HORIZON["requests"]`` records, cut at the next arrival."""
    duration = 10.0
    while True:
        trace = make_trace(
            HORIZON["workload"], duration_s=duration, address_space_sectors=space,
            seed=HORIZON["seed"],
        )
        if len(trace.records) > HORIZON["requests"]:
            break
        duration *= 2
    cut = trace.records[HORIZON["requests"]].time_s
    return make_trace(
        HORIZON["workload"], duration_s=cut, address_space_sectors=space, seed=HORIZON["seed"]
    )


def _schedule_commits(sim: Simulator, array, trace) -> list[int]:
    """Commit every COMMIT_EVERY-th write's extent; count the dirty stripes met."""
    dirty_met = [0]
    writes = [record for record in trace.records if record.is_write]

    def committer():
        for record in writes[::COMMIT_EVERY]:
            yield sim.timeout(record.time_s + COMMIT_DELAY_S - sim.now)
            touched = array.layout.stripes_touched(record.offset_sectors, record.nsectors)
            dirty_met[0] += sum(array.marks.is_marked(stripe) for stripe in touched)
            array.commit(record.offset_sectors, record.nsectors)

    sim.process(committer(), name="committer")
    return dirty_met


def _plant_latent_errors(sim: Simulator, array, trace) -> None:
    layout = array.layout
    bits = array.marks.bits_per_stripe
    injector = FaultInjector(sim, array)
    writes = [record for record in trace.records if record.is_write]
    for record in writes[::LATENT_EVERY]:
        stripe = layout.map_extent(record.offset_sectors, record.nsectors)[0].stripe
        for unit in layout.data_units(stripe):
            for sub_unit in range(bits):
                start, count = sub_unit_extent(sub_unit, layout.stripe_unit_sectors, bits)
                injector.inject_latent_error_at(
                    unit.disk, unit.disk_lba + start + count - 1, record.time_s + LATENT_DELAY_S
                )


def _integrals(tracker) -> dict:
    return {
        "unprotected_fraction": tracker.unprotected_fraction,
        "mean_parity_lag_bytes": tracker.mean_parity_lag_bytes,
        "peak_parity_lag_bytes": tracker.peak_parity_lag_bytes,
        "total_time": tracker.total_time,
    }


def capture(case: str, organization: str, bits: int) -> dict:
    """Replay one cell and capture everything observable."""
    sim = Simulator()
    ndisks = (HORIZON_NDISKS if case == "horizon" else NDISKS)[organization]
    policy = MttdlTargetPolicy(target_h=1e6) if case == "mttdl" else BaselineAfraidPolicy()
    array = build_array(
        sim, policy, ndisks=ndisks, organization=organization, bits_per_stripe=bits
    )
    hists = HistogramSet()
    array.attach_observability(histograms=hists)
    space = array.layout.total_data_sectors
    if case == "horizon":
        trace = _horizon_trace(space)
    else:
        trace = make_trace(
            SCENARIO["workload"], duration_s=SCENARIO["duration_s"],
            address_space_sectors=space, seed=SCENARIO["seed"],
        )
    dirty_met = _schedule_commits(sim, array, trace) if case == "commit" else [0]
    if case == "latent":
        _plant_latent_errors(sim, array, trace)
    outcome = replay_trace(sim, array, trace)
    stats = dataclasses.asdict(array.stats)
    io_times = stats.pop("io_times")
    marks = array.marks.snapshot()
    return {
        "stats": stats,
        "io_times_digest": _digest(io_times),
        "io_times_count": len(io_times),
        "failures": sorted(type(exc).__name__ for exc in outcome.failures),
        "latency_hists": hists.to_payload(),
        "parity_lag": _integrals(array.lag_tracker),
        "disk_stats": [
            [d.stats.busy_time, d.stats.seek_time, d.stats.rotational_latency,
             d.stats.transfer_time, d.stats.reads, d.stats.writes,
             d.stats.sectors_read, d.stats.sectors_written]
            for d in array.disks
        ],
        "latent_sectors_repaired": array.latent_sectors_repaired,
        "marks_left": len(marks),
        "marks_left_digest": hashlib.sha256(json.dumps(marks).encode()).hexdigest(),
        "commit_dirty_stripes": dirty_met[0],
        "horizon_s": outcome.horizon_s,
    }


def capture_all() -> dict:
    results = {}
    for case, organization, bits in CELLS:
        results[f"{case}/{organization}/{bits}"] = capture(case, organization, bits)
    return {"scenario": SCENARIO, "horizon": HORIZON, "results": results}


def test_scrub_matches_golden_fixture():
    golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
    fresh = capture_all()
    assert set(fresh["results"]) == set(golden["results"])
    for key, expected in golden["results"].items():
        actual = fresh["results"][key]
        for field in expected:
            assert actual[field] == expected[field], f"{key}: {field} diverged"


def test_every_scrub_configuration_is_exercised():
    """The fixture must keep covering what its docstring claims."""
    results = json.loads(FIXTURE.read_text(encoding="utf-8"))["results"]
    for key, cell in results.items():
        assert cell["stats"]["stripes_scrubbed"] > 0, key
        assert cell["stats"]["scrub_parity_writes"] > 0, key
        if key.startswith("commit/"):
            assert cell["commit_dirty_stripes"] > 0, key
        if key.startswith("latent/"):
            assert cell["latent_sectors_repaired"] > 0, key
    assert any(cell["marks_left"] for key, cell in results.items() if key.startswith("horizon/"))


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("run with --regen to overwrite the committed fixture")
    FIXTURE.write_text(json.dumps(capture_all(), indent=1), encoding="utf-8")
    print(f"wrote {FIXTURE}")
