"""One drain per driver: every lane issues through ``MechanicalDisk.issue``.

The driver has one drain, ``DiskDriver._step``, whether or not a tracer
is attached.  Its lanes — the idle submit, the scalar FCFS lane, the
vector batch and the generic ``execute()`` path — differ only in how the
command's timing is computed, so:

* every lane must give exactly what the generic path gives (completion
  times, breakdowns, disk and driver counters), including when a fault
  lands in the middle of a precomputed batch;
* attaching the sinks (tracer, histograms, registry and exposure
  monitor, through ``attach_observability``) must change nothing
  simulated — same replay digest, same dispatched events, no process per
  drain, for every organization under the AFRAID, RAID 5 and MTTDL_x
  policies — and the tracer must record exactly one disk span per
  completed command (an ``io_failed`` instant per failed one).
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.array.factory import build_array
from repro.disk import DiskIO, IoKind, toy_disk
from repro.disk.vector import VECTOR_MIN
from repro.faults import FaultInjector
from repro.harness.replay import replay_trace
from repro.harness.sharding import ShardReplayResult, replay_digest
from repro.obs import ExposureMonitor, HistogramSet, MetricsRegistry, Tracer
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy, MttdlTargetPolicy
from repro.sched import DiskDriver, FcfsScheduler
from repro.sim import Simulator
from repro.traces import make_trace


class _GenericFcfs(FcfsScheduler):
    """FCFS order, but not the exact type the fused lanes require: every
    command takes the generic ``MechanicalDisk.execute`` path."""


#: ``(submit time, commands submitted together)``: a deep burst (vector
#: batch), lone commands on an idle driver (idle lane) and shallow
#: bursts (idle lane, then the scalar lane).
BURSTS = [(0.0, 3 * VECTOR_MIN), (1.0, 1), (1.5, 3), (1.5001, 2), (2.0, 1), (2.5, VECTOR_MIN)]


def _lba(disk, index):
    return (index * 7919) % (disk.geometry.total_sectors - 16)


def _drain(scheduler, fault=None):
    sim = Simulator()
    disk = toy_disk(sim, cylinders=256)
    driver = DiskDriver(sim, disk, scheduler=scheduler)
    log = []
    index = 0

    def settle(tag):
        def record(event):
            if event.ok:
                breakdown = event.value
                log.append((tag, sim.now, breakdown.seek, breakdown.rotational_latency,
                            breakdown.transfer))
            else:
                log.append((tag, sim.now, type(event.exception).__name__))
        return record

    for when, count in BURSTS:
        ios = []
        for _ in range(count):
            kind = IoKind.READ if index % 3 else IoKind.WRITE
            ios.append((index, DiskIO(kind, _lba(disk, index), 1 + index % 12)))
            index += 1

        def submit(_event, ios=ios):
            for tag, io in ios:
                completion = driver.submit(io)
                completion.defused = True
                completion.add_callback(settle(tag))

        sim.timeout(when).add_callback(submit)
    if fault is not None:
        sim.timeout(0.02).add_callback(lambda _event: fault(disk))
    sim.run()
    return log, dataclasses.asdict(disk.stats), dataclasses.asdict(driver.stats)


def _fail(disk):
    disk.fail()


def _latent(disk):
    # Every fourth command's first sector: the reads among them fail.
    for index in range(0, sum(count for _when, count in BURSTS), 4):
        disk.inject_latent_error(_lba(disk, index))


@pytest.mark.parametrize("fault", [None, _fail, _latent], ids=["healthy", "fail", "latent"])
def test_every_lane_matches_execute(fault):
    fused = _drain(FcfsScheduler(), fault)
    generic = _drain(_GenericFcfs(), fault)
    assert fused == generic
    log, _disk_stats, driver_stats = fused
    assert len(log) == sum(count for _when, count in BURSTS)
    if fault is not None:
        assert driver_stats["failed"] > 0


# -- attached sinks leave the simulation untouched ----------------------------------

NDISKS = {"raid5": 5, "raid5d": 5, "raid10": 6, "raid15": 6, "raid1": 2}
POLICIES = {
    "afraid": BaselineAfraidPolicy,
    "raid5": AlwaysRaid5Policy,
    "mttdl": functools.partial(MttdlTargetPolicy, 1e6),
}


def _replay(monkeypatch, organization, policy, traced, fail):
    processes = []
    spawn = Simulator.process

    def counting(sim, generator, name=""):
        processes.append(name)
        return spawn(sim, generator, name=name)

    monkeypatch.setattr(Simulator, "process", counting)
    sim = Simulator()
    array = build_array(
        sim, POLICIES[policy](), ndisks=NDISKS[organization], organization=organization
    )
    tracer = None
    if traced:
        tracer = Tracer(sim)
        array.attach_observability(
            tracer=tracer, histograms=HistogramSet(), registry=MetricsRegistry(),
            exposure=ExposureMonitor(),
        )
    if fail:
        FaultInjector(sim, array).fail_disk_at(disk=1, at_time=1.0)
    trace = make_trace(
        "ATT", duration_s=10.0, address_space_sectors=array.layout.total_data_sectors, seed=11
    )
    outcome = replay_trace(sim, array, trace)
    digest = replay_digest(ShardReplayResult.from_array(array, outcome))
    return digest, sim.events_dispatched, len(processes), array, tracer


CELLS = [
    *((organization, policy, False) for organization in NDISKS for policy in POLICIES),
    ("raid5", "afraid", True),
    ("raid10", "raid5", True),
]


@pytest.mark.parametrize(
    "organization,policy,fail", CELLS,
    ids=[f"{o}-{p}{'-degraded' if f else ''}" for o, p, f in CELLS],
)
def test_tracing_changes_nothing_simulated(monkeypatch, organization, policy, fail):
    bare = _replay(monkeypatch, organization, policy, traced=False, fail=fail)
    digest, events, processes, array, tracer = _replay(
        monkeypatch, organization, policy, traced=True, fail=fail
    )
    assert (digest, events, processes) == bare[:3]
    failed = 0
    for driver in array.drivers:
        spans = tracer.spans_on(driver.name)
        assert len(spans) == driver.stats.completed > 0
        assert {span[3] for span in spans} <= {"read", "write"}
        assert all(span[2] > 0.0 for span in spans)
        failures = [
            instant for instant in tracer.instants_named("io_failed")
            if instant[3] == driver.name
        ]
        assert len(failures) == driver.stats.failed
        failed += driver.stats.failed
    assert (failed > 0) == fail
