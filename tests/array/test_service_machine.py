"""The request-service machine serves every organization and write policy.

Client requests never spawn simulation processes: reads, writes,
write-back early acks, mirrored and degraded protocols all run as one
callback state machine (``_ServiceCall``).  These tests pin that, plus
the write-back contract of the early ack: the client completes at NVRAM
time, and a flush that fails afterwards escapes the run loop rather
than failing a request that already succeeded.
"""

import pytest

from repro.array import toy_array
from repro.array.controller import DiskArray
from repro.array.request import ArrayRequest
from repro.disk import DiskFailedError, IoKind
from repro.policy import AlwaysRaid5Policy
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
    sim = Simulator()
    # The RAID 5 policy never marks a stripe, so no scrubber runs either.
    array = toy_array(
        sim,
        policy=AlwaysRaid5Policy(),
        ndisks=ORGANIZATIONS[organization],
        organization=organization,
        write_policy=write_policy,
        with_functional=False,
    )
    if degraded:
        array.disks[1].fail()
        array.enter_degraded(1)
    spawned = []
    original = Simulator.process

    def counting(self, generator, name=""):
        spawned.append(name)
        return original(self, generator, name=name)

    monkeypatch.setattr(Simulator, "process", counting)
    requests = _traffic(array)
    sim.run_until_triggered(AllOf(sim, [array.submit(request) for request in requests]))
    sim.run()
    assert all(request.complete_time is not None for request in requests)
    assert spawned == []


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
