"""A fault run paused between any two events pickles and resumes exactly.

The injector's strikes, the fault run's repair, check and probe
handlers, the spare rebuild and the nemesis clock are bound methods and
callback states: no generator frame, closure or lock holds fault state.
Each run below takes the fault run's own steps, is paused at the first
event past its pause time with the named work in flight, round-tripped
through pickle and resumed; its result must equal the uninterrupted
run's.  The campaign and nemesis cells are ``golden_faults.json`` cells.
"""

from __future__ import annotations

import gc
import pickle
import threading

from repro.array.batchplan import warm_extent_cache
from repro.ext.rebuild import RebuildManager
from repro.faults import CampaignSpec, NemesisLoop, NemesisSpec, run_campaign
from repro.faults.campaign import CampaignRun
from repro.faults.injector import LatentProbe
from repro.harness import run_nemesis, write_nemesis_report
from repro.harness.checkpoint import PICKLE_PROTOCOL
from repro.harness.replay import _Feeder, feed_trace
from repro.obs.timeline import Timeline
from repro.sim import Simulator

#: ``raid5/afraid/mixed/1``: member 0 fails at 1.03 s, the box crashes at
#: 1.43 s, and the restarted segment rebuilds the member from 1.93 s to
#: 13.47 s while a latent sector struck at 2.98 s is probed.
CAMPAIGN = CampaignSpec(
    organization="raid5", ndisks=5, policy="afraid", bits_per_stripe=2,
    latent_errors=1.0, nvram_losses=1.0, crashes=0.5,
)
CAMPAIGN_SEED = 1
#: ``raid10/1``: a rebuild runs from 3.95 s to 15.85 s of the feed.
NEMESIS = NemesisSpec(duration_s=20.0, organization="raid10", ndisks=6)
NEMESIS_SEED = 1
NEMESIS_PAUSE_S = 5.0


def _live(cls, sim: Simulator, via: str = "") -> list:
    """The live objects of ``cls`` that belong to ``sim`` (through ``via``)."""
    return [
        obj for obj in gc.get_objects()
        if isinstance(obj, cls) and (getattr(obj, via) if via else obj).sim is sim
    ]


def _feed_paused(run, records, pause_s: float, in_flight):
    """Feed ``records`` into the run's segment, pausing at the first event
    past ``pause_s`` where ``in_flight(run)`` holds; the run is
    round-tripped through pickle there, and the copy is fed to the end
    and returned."""
    sim, array, requests, completions = run.replay
    warm_extent_cache(array.layout, records)
    fed = _Feeder(sim, array, records, requests, completions).start()
    while not (sim.now > pause_s and in_flight(run)):
        sim.step()
    assert not fed.triggered  # paused mid-feed
    run, fed = pickle.loads(pickle.dumps((run, fed), protocol=PICKLE_PROTOCOL))
    fed.sim.run_until_triggered(fed)
    return run


def test_a_pending_disk_failure_pickles():
    run = CampaignRun(CampaignSpec(organization="raid5", ndisks=5), 0)
    run.begin(0)  # arms the strike; no trace is fed
    (failure,) = run.events
    run = pickle.loads(pickle.dumps(run, protocol=PICKLE_PROTOCOL))
    run.sim.run(until=failure.time_s)
    assert [report.disk for report in run.injector.reports] == [failure.disk]
    assert run.array.failed_disks == (failure.disk,)


def test_a_timeline_pickles_and_keeps_its_lock():
    timeline = Timeline()
    first = timeline.fault_injected(1.0, "disk_failure", disk=3)
    copy = pickle.loads(pickle.dumps(timeline, protocol=PICKLE_PROTOCOL))
    assert isinstance(copy._lock, type(threading.Lock()))
    copy.fault_cleared(2.0, copy.by_id(first.id), resolution="rebuilt")
    assert [event.kind for event in copy.events] == ["fault.inject", "fault.clear"]
    assert copy.to_jsonl() != timeline.to_jsonl()  # the original is untouched


def test_a_paused_campaign_segment_resumes_to_the_same_report():
    run = CampaignRun(CAMPAIGN, CAMPAIGN_SEED)
    assert run.nsegments == 2
    (latent_at,) = [event.time_s for event in run.events if event.kind == "latent_error"]
    for index in range(run.nsegments):
        records = run.begin(index)
        feed_trace(run.replay, records)
        if index == 1:
            # The restarted segment's feed ends at 1.73 s; step on to the
            # first event past the latent strike with a rebuild and the
            # latent probe both in flight.
            sim = run.sim
            while not (sim.now > latent_at and _live(LatentProbe, sim, "array")):
                sim.step()
            (manager,) = _live(RebuildManager, sim)
            assert 0 < manager.stats.stripes_rebuilt < run.array.layout.nstripes
            run = pickle.loads(pickle.dumps(run, protocol=PICKLE_PROTOCOL))
        run.end()
    assert run.report().to_json() == run_campaign(CAMPAIGN, CAMPAIGN_SEED).to_json()


def test_a_paused_nemesis_run_writes_the_same_artefacts(tmp_path):
    run = NemesisLoop(NEMESIS, NEMESIS_SEED)
    records = run.begin(0)
    run = _feed_paused(run, records, NEMESIS_PAUSE_S, lambda run: bool(run.rebuilding))
    run.end()
    paused = write_nemesis_report(run.report(), tmp_path / "paused")
    whole = write_nemesis_report(run_nemesis(NEMESIS, NEMESIS_SEED), tmp_path / "whole")
    assert sorted(paused) == sorted(whole) and len(whole) == 5
    for name, path in whole.items():
        assert paused[name].read_bytes() == path.read_bytes(), name
