"""A fault run paused between any two events pickles and resumes exactly.

The injector's strikes, the campaign's and the nemesis's repair, check
and probe handlers, the spare rebuild and the nemesis clock are bound
methods and callback states: no generator frame, closure or lock holds
fault state.  Each run below is paused at the first event past its pause
time with the named work in flight, round-tripped through pickle and
resumed; its result must equal the uninterrupted run's.  The campaign
and nemesis cells are ``golden_faults.json`` cells.
"""

from __future__ import annotations

import gc
import pickle
import threading

from repro.array.batchplan import warm_extent_cache
from repro.array.factory import build_array
from repro.disk import toy_disk
from repro.ext.rebuild import RebuildManager
from repro.faults import CampaignSpec, FaultInjector, NemesisLoop, NemesisSpec, run_campaign
from repro.faults.campaign import _DISK_FACTORIES, FaultCampaign, finish_recovery
from repro.harness import run_nemesis, write_nemesis_report
from repro.harness.checkpoint import PICKLE_PROTOCOL
from repro.harness.nemesis import NemesisOutcome
from repro.harness.replay import _Feeder, close_replay, feed_trace
from repro.obs import ExposureMonitor, HistogramSet, MetricsRegistry, SloEngine
from repro.obs.timeline import LatencyWindows, Timeline
from repro.policy import POLICIES, BaselineAfraidPolicy
from repro.sim import Simulator
from repro.traces import make_trace

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


def _feed_paused(root, state, records, pause_s: float, in_flight):
    """Feed ``records`` into ``state``, pausing at the first event past
    ``pause_s`` where ``in_flight(root)`` holds; ``root`` (which holds
    ``state``) is round-tripped through pickle there, and the copy is fed
    to the end and returned."""
    sim, array = state[0], state[1]
    warm_extent_cache(array.layout, records)
    fed = _Feeder(sim, array, records, state[2], state[3]).start()
    while not (sim.now > pause_s and in_flight(root)):
        sim.step()
    assert not fed.triggered  # paused mid-feed
    root, fed = pickle.loads(pickle.dumps((root, fed), protocol=PICKLE_PROTOCOL))
    fed.sim.run_until_triggered(fed)
    return root


def test_a_pending_disk_failure_pickles():
    sim = Simulator()
    array = build_array(sim, BaselineAfraidPolicy(), ndisks=5, disk_factory=toy_disk)
    injector = FaultInjector(sim, array)
    injector.fail_disk_at(2, 1.0)
    sim, injector = pickle.loads(pickle.dumps((sim, injector), protocol=PICKLE_PROTOCOL))
    sim.run()
    assert [report.disk for report in injector.reports] == [2]
    assert injector.array.failed_disks == (2,)


def test_a_timeline_pickles_and_keeps_its_lock():
    timeline = Timeline()
    first = timeline.fault_injected(1.0, "disk_failure", disk=3)
    copy = pickle.loads(pickle.dumps(timeline, protocol=PICKLE_PROTOCOL))
    assert isinstance(copy._lock, type(threading.Lock()))
    copy.fault_cleared(2.0, copy.by_id(first.id), resolution="rebuilt")
    assert [event.kind for event in copy.events] == ["fault.inject", "fault.clear"]
    assert copy.to_jsonl() != timeline.to_jsonl()  # the original is untouched


def test_a_paused_campaign_segment_resumes_to_the_same_report():
    from repro.faults.campaign import _CampaignRun
    from repro.faults.injector import LatentProbe

    run = _CampaignRun(FaultCampaign(CAMPAIGN, CAMPAIGN_SEED))
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


def _nemesis_outcome(pause: bool) -> NemesisOutcome:
    """:func:`~repro.harness.run_nemesis`, built here so it can pause."""
    spec, seed = NEMESIS, NEMESIS_SEED
    sim = Simulator()
    registry = MetricsRegistry()
    monitor = ExposureMonitor(window_s=2.0)
    engine = SloEngine([])
    timeline = Timeline()
    hists = HistogramSet()
    array = build_array(
        sim, POLICIES[spec.policy](), ndisks=spec.ndisks,
        stripe_unit_sectors=spec.stripe_unit_sectors,
        disk_factory=_DISK_FACTORIES[spec.disk_model], organization=spec.organization,
        with_functional=True, idle_threshold_s=spec.idle_threshold_s,
        bits_per_stripe=spec.bits_per_stripe, name="nemesis",
    )
    array.attach_observability(histograms=hists, registry=registry, exposure=monitor)
    loop = NemesisLoop(
        sim, array, spec, seed, timeline=timeline, monitor=monitor, engine=engine,
        registry=registry, latency_windows=LatencyWindows(hists),
    )
    trace = make_trace(
        spec.workload, duration_s=spec.duration_s,
        address_space_sectors=array.layout.total_data_sectors, seed=seed, allow_generic=True,
    )
    loop.start()
    replay = (sim, array, [], [])
    if pause:
        root = _feed_paused(
            (replay, loop, hists), replay, list(trace), NEMESIS_PAUSE_S,
            lambda root: bool(root[1]._rebuilding),
        )
        replay, loop, hists = root
        sim, array = replay[0], replay[1]
    else:
        feed_trace(replay, list(trace))
    close_replay(replay, spec.duration_s, spec.settle_s, finalize=False)
    finish_recovery(sim, array, poll=loop.poll)
    loop.finish_engine(sim.now)
    loop.monitor.finish(sim.now)
    array.finalize()
    completions = replay[3]
    requests = {"submitted": len(completions), "completed": 0, "failed": 0}
    failure_kinds: dict[str, int] = {}
    for completion in completions:
        if completion.ok:
            requests["completed"] += 1
        else:
            requests["failed"] += 1
            name = type(completion.exception).__name__
            failure_kinds[name] = failure_kinds.get(name, 0) + 1
    requests["failure_kinds"] = dict(sorted(failure_kinds.items()))
    return NemesisOutcome(
        spec=spec, seed=seed, timeline=loop.timeline, loop=loop, engine=loop.engine,
        registry=loop.registry, hists=hists, requests=requests, horizon_s=sim.now,
    )


def test_a_paused_nemesis_run_writes_the_same_artefacts(tmp_path):
    paused = write_nemesis_report(_nemesis_outcome(pause=True), tmp_path / "paused")
    whole = write_nemesis_report(run_nemesis(NEMESIS, NEMESIS_SEED), tmp_path / "whole")
    assert sorted(paused) == sorted(whole) and len(whole) == 5
    for name, path in whole.items():
        assert paused[name].read_bytes() == path.read_bytes(), name
