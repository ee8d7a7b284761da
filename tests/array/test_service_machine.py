"""The request-service machine serves every organization and write policy.

The array never spawns a simulation process: reads, writes, write-back
early acks, the mirrored and degraded protocols, the idle scrubber and
paritypoints all run as callback states (``_ServiceCall``, the stripe
machine ``_StripeWrite``, ``_Commit``).  These tests pin that, plus the
write-back contract of the early ack: the client completes at NVRAM
time, and a flush that fails afterwards escapes the run loop rather
than failing a request that already succeeded.
"""

import ast
import pathlib

import pytest

from repro.array import controller, toy_array
from repro.array.controller import DiskArray
from repro.array.request import ArrayRequest
from repro.disk import DiskFailedError, IoKind
from repro.policy import AlwaysRaid5Policy, BaselineAfraidPolicy
from repro.sim import AllOf, Simulator

ORGANIZATIONS = {"raid5": 5, "raid5d": 6, "raid1": 2, "raid10": 6, "raid15": 6}


def _traffic(array: DiskArray) -> list[ArrayRequest]:
    limit = array.layout.total_data_sectors
    requests = []
    for i in range(40):
        offset = (i * 97) % (limit - 16)
        kind = IoKind.WRITE if i % 3 else IoKind.READ
        requests.append(ArrayRequest(kind, offset, 4 + (i % 4) * 4))
    return requests


@pytest.mark.parametrize("write_policy", ["writethrough", "writeback"])
@pytest.mark.parametrize("degraded", [False, True])
@pytest.mark.parametrize("organization", sorted(ORGANIZATIONS))
def test_no_request_spawns_a_process(monkeypatch, organization, degraded, write_policy):
    spawned = []
    original = Simulator.process

    def counting(self, generator, name=""):
        spawned.append(name)
        return original(self, generator, name=name)

    monkeypatch.setattr(Simulator, "process", counting)
    # RAID 5 updates redundancy inline; AFRAID marks, and its scrubber
    # and a paritypoint make the marked stripes redundant again.
    for policy in (AlwaysRaid5Policy, BaselineAfraidPolicy):
        sim = Simulator()
        array = toy_array(
            sim,
            policy=policy(),
            ndisks=ORGANIZATIONS[organization],
            organization=organization,
            write_policy=write_policy,
            with_functional=False,
        )
        if degraded:
            array.disks[1].fail()
            array.enter_degraded(1)
        requests = _traffic(array)
        sim.run_until_triggered(AllOf(sim, [array.submit(request) for request in requests]))
        if not degraded:
            # A paritypoint over the whole array, racing the idle scrubber.
            committed = array.commit(0, array.layout.total_data_sectors)
            sim.run_until_triggered(committed)
            assert committed.value == array.layout.nstripes
        sim.run()
        assert all(request.complete_time is not None for request in requests)
        if policy is BaselineAfraidPolicy and not degraded:
            assert array.stats.stripes_scrubbed > 0
            assert array.dirty_stripe_count == 0
    assert spawned == []


def test_the_controller_has_no_generators_and_starts_no_process():
    tree = ast.parse(pathlib.Path(controller.__file__).read_text(encoding="utf-8"))
    generators = sorted(
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Yield, ast.YieldFrom)) for inner in ast.walk(node))
    )
    assert generators == []
    processes = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    ]
    assert processes == []


@pytest.mark.parametrize("organization", sorted(ORGANIZATIONS))
def test_writeback_acks_before_the_flush_lands(organization):
    sim = Simulator()
    array = toy_array(
        sim,
        ndisks=ORGANIZATIONS[organization],
        organization=organization,
        write_policy="writeback",
        with_functional=False,
    )
    request = ArrayRequest(IoKind.WRITE, 0, 8)
    sim.run_until_triggered(array.submit(request))
    assert request.io_time == pytest.approx(array.nvram_ack_latency_s)
    assert array.stats.writes_completed == 1
    assert array.nvram_dirty_tracker.current_lag_bytes == 8 * array.sector_bytes
    sim.run()
    assert array.nvram_dirty_tracker.current_lag_bytes == 0
    assert array.staging.in_use == 0
    assert array.slots.in_use == 0
    assert array.stats.writes_completed == 1  # the flush does not complete it again


def test_failed_flush_after_ack_escapes_the_run_loop():
    sim = Simulator()
    array = toy_array(sim, write_policy="writeback", with_functional=False)
    request = ArrayRequest(IoKind.WRITE, 0, 8)
    done = array.submit(request)
    sim.run_until_triggered(done)
    assert done.ok  # acked at NVRAM time
    array.disks[array.layout.data_disk(0, 0)].fail()  # the flush is in flight on it
    with pytest.raises(DiskFailedError):
        sim.run()
    assert done.ok
    assert array.stats.writes_completed == 1
    assert array.slots.in_use == 0
    assert array.staging.in_use == 0
