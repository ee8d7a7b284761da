"""Tests for degraded-mode operation and spare rebuild."""

import pytest

from repro.array import toy_array
from repro.array.request import ArrayRequest
from repro.disk import IoKind, toy_disk
from repro.ext.rebuild import RebuildManager
from repro.policy import AlwaysRaid5Policy, NeverScrubPolicy
from repro.sim import Simulator


def write(offset, nsectors=4, data=None):
    return ArrayRequest(IoKind.WRITE, offset, nsectors, data=data)


def read(offset, nsectors=4):
    return ArrayRequest(IoKind.READ, offset, nsectors)


def payload(array, nsectors, seed=1):
    return bytes((seed * 59 + i) % 256 for i in range(nsectors * array.sector_bytes))


class TestDegradedMode:
    def test_degraded_read_reconstructs(self):
        sim = Simulator()
        # No read cache: the degraded read must hit the disks.
        array = toy_array(sim, policy=AlwaysRaid5Policy(), read_cache_bytes=0)
        data = payload(array, 4, seed=2)
        done = array.submit(write(0, 4, data=data))
        sim.run_until_triggered(done)

        victim = array.layout.data_disk(0, 0)
        array.disks[victim].fail()
        array.functional.fail_disk(victim)
        array.enter_degraded(victim)

        result = sim.run_until_triggered(array.submit(read(0, 4)))
        assert result.result_data == data
        assert array.stats.reconstruct_reads > 0

    def test_degraded_write_maintains_parity(self):
        sim = Simulator()
        array = toy_array(sim, with_functional=False)
        victim = 2
        array.disks[victim].fail()
        array.enter_degraded(victim)
        done = array.submit(write(0, 4))
        sim.run_until_triggered(done)
        # Degraded writes are reconstruct-style: pre-reads + parity write.
        assert array.stats.reconstruct_reads > 0
        assert array.stats.foreground_parity_writes >= 0  # parity disk may be the victim

    def test_double_degradation_records_data_loss(self):
        """A second concurrent failure is a data-loss *outcome*, not a crash.

        Campaign/nemesis runs must keep going after an array dies; the
        controller records a structured event instead of raising.
        """
        sim = Simulator()
        array = toy_array(sim, with_functional=False)
        assert array.enter_degraded(0) is None
        event = array.enter_degraded(1)
        assert event is not None
        assert not event.survivable  # RAID 5: second failure is fatal
        assert event.failed_disks == (0, 1)
        assert array.data_loss_events == [event]
        assert array.failed_disks == (0, 1)
        # Re-reporting the same disk is a no-op.
        assert array.enter_degraded(1) is None
        assert len(array.data_loss_events) == 1

    def test_scrubber_pauses_while_degraded(self):
        sim = Simulator()
        array = toy_array(sim, with_functional=False, idle_threshold_s=0.05)
        done = array.submit(write(0, 4))
        sim.run_until_triggered(done)
        array.enter_degraded(0)
        sim.run(until=sim.now + 2.0)
        assert array.dirty_stripe_count == 1  # nothing scrubbed while degraded

    def test_commit_rejected_while_degraded(self):
        sim = Simulator()
        array = toy_array(sim, with_functional=False)
        array.enter_degraded(0)
        with pytest.raises(RuntimeError):
            array.commit(0, 4)


class TestRebuild:
    def run_rebuild(self, sim, array, victim, yield_to_foreground=True):
        manager = RebuildManager(sim, array, yield_to_foreground=yield_to_foreground)
        spare = toy_disk(sim, name="spare")
        done = manager.fail_and_rebuild(victim, spare)
        result = sim.run_until_triggered(done)
        return manager, result

    def test_rebuild_completes_and_restores_service(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, with_functional=False)
        manager, stats = self.run_rebuild(sim, array, victim=1)
        assert array.degraded_disk is None
        assert stats.stripes_rebuilt == array.layout.nstripes
        assert stats.duration_s > 0
        # The replaced member serves I/O again.
        done = array.submit(read(0, 4))
        sim.run_until_triggered(done)

    def test_clean_data_survives_rebuild(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, policy=AlwaysRaid5Policy())
        data = payload(array, 8, seed=3)
        sim.run_until_triggered(array.submit(write(0, 8, data=data)))
        victim = array.layout.data_disk(0, 0)
        self.run_rebuild(sim, array, victim)
        result = sim.run_until_triggered(array.submit(read(0, 8)))
        assert result.result_data == data
        # The functional twin's parity is whole again everywhere.
        assert all(
            array.functional.parity_consistent(stripe)
            for stripe in range(array.layout.nstripes)
        )

    def test_dirty_data_on_victim_is_lost_but_array_recovers(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, policy=NeverScrubPolicy())
        data = payload(array, 4, seed=4)
        sim.run_until_triggered(array.submit(write(0, 4, data=data)))
        victim = array.layout.data_disk(0, 0)  # holds the dirty unit
        assert array.functional.lost_data_bytes(victim) > 0
        self.run_rebuild(sim, array, victim)
        # The unit came back zero-filled (the AFRAID exposure, realised),
        # but parity is consistent so the array tolerates future failures.
        result = sim.run_until_triggered(array.submit(read(0, 4)))
        assert result.result_data == bytes(len(data))
        assert all(
            array.functional.parity_consistent(stripe)
            for stripe in range(array.layout.nstripes)
        )

    def test_rebuild_yields_to_foreground(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, with_functional=False,
                          idle_threshold_s=0.02)
        manager = RebuildManager(sim, array, yield_to_foreground=True)
        spare = toy_disk(sim, name="spare")
        rebuilt = manager.fail_and_rebuild(0, spare)

        # Client traffic shares the array with the rebuild and completes
        # with reasonable latency (the sweep pauses while clients are active).
        latencies = []

        def client():
            for i in range(10):
                yield sim.timeout(0.05)
                request = read(64 + i * 16, 4)
                yield array.submit(request)
                latencies.append(request.io_time)

        proc = sim.process(client())
        sim.run_until_triggered(proc)
        sim.run_until_triggered(rebuilt)
        assert len(latencies) == 10
        assert max(latencies) < 0.5

    def test_small_spare_rejected(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, with_functional=False)
        manager = RebuildManager(sim, array)
        tiny = toy_disk(sim, name="tiny", cylinders=16)
        with pytest.raises(ValueError):
            manager.fail_and_rebuild(0, tiny)


class TestFailAndRebuildSurvivability:
    """``fail_and_rebuild`` fails a member the way a fault injector does."""

    def test_second_raid5_failure_is_refused_before_anything_fails(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, with_functional=False)
        first = RebuildManager(sim, array, yield_to_foreground=False)
        rebuilt = first.fail_and_rebuild(0, toy_disk(sim, name="spare0"))
        second = RebuildManager(sim, array, yield_to_foreground=False)
        with pytest.raises(ValueError, match="already degraded on disk 0"):
            second.fail_and_rebuild(1, toy_disk(sim, name="spare1"))
        assert not array.disks[1].failed
        assert array.failed_disks == (0,)
        assert array.data_loss_events == []
        stats = sim.run_until_triggered(rebuilt)
        assert stats.stripes_rebuilt == array.layout.nstripes
        assert array.failed_disks == ()

    def test_failed_member_is_refused(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, with_functional=False)
        RebuildManager(sim, array).fail_and_rebuild(2, toy_disk(sim, name="spare"))
        with pytest.raises(ValueError, match="disk 2 already failed"):
            RebuildManager(sim, array).fail_and_rebuild(2, toy_disk(sim, name="spare"))
        assert array.failed_disks == (2,)

    def test_used_manager_is_refused_before_anything_fails(self):
        sim = Simulator()
        array = toy_array(
            sim, ndisks=4, stripe_unit_sectors=4, with_functional=False, organization="raid10"
        )
        manager = RebuildManager(sim, array, yield_to_foreground=False)
        sim.run_until_triggered(manager.fail_and_rebuild(0, toy_disk(sim, name="spare0")))
        with pytest.raises(RuntimeError, match="already ran a rebuild"):
            manager.fail_and_rebuild(2, toy_disk(sim, name="spare1"))
        assert not array.disks[2].failed
        assert array.failed_disks == ()

    def test_raid10_takes_a_second_failure_off_the_first_ones_pair(self):
        sim = Simulator()
        array = toy_array(
            sim, ndisks=4, stripe_unit_sectors=4, with_functional=False, organization="raid10"
        )
        partner = array.layout.mirror_disk(0)
        other = next(disk for disk in range(4) if disk not in (0, partner))
        first = RebuildManager(sim, array, yield_to_foreground=False)
        second = RebuildManager(sim, array, yield_to_foreground=False)
        done = [
            first.fail_and_rebuild(0, toy_disk(sim, name="spare0")),
            second.fail_and_rebuild(other, toy_disk(sim, name="spare1")),
        ]
        assert array.failed_disks == (0, other)
        with pytest.raises(ValueError, match="already degraded"):
            RebuildManager(sim, array).fail_and_rebuild(partner, toy_disk(sim, name="spare2"))
        for event in done:
            sim.run_until_triggered(event)
        assert array.failed_disks == ()
