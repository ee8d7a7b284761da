"""Tests for the mechanical disk timing model."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskFailedError, DiskIO, IoKind, MechanicalDisk, hp_c3325, toy_disk
from repro.disk import models
from repro.sim import Simulator


@pytest.fixture()
def sim():
    return Simulator()


def run_io(sim, disk, io):
    """Execute one I/O and return its ServiceBreakdown."""
    done = disk.execute(io)
    return sim.run_until_triggered(done)


class TestValidation:
    def test_io_needs_positive_sectors(self):
        with pytest.raises(ValueError):
            DiskIO(IoKind.READ, lba=0, nsectors=0)

    def test_io_needs_nonnegative_lba(self):
        with pytest.raises(ValueError):
            DiskIO(IoKind.READ, lba=-1, nsectors=1)

    def test_overlapping_commands_rejected(self, sim):
        disk = toy_disk(sim)
        disk.execute(DiskIO(IoKind.READ, 0, 1))
        with pytest.raises(RuntimeError):
            disk.execute(DiskIO(IoKind.READ, 100, 1))


class TestTimingComponents:
    def test_single_sector_read_time_is_plausible(self, sim):
        disk = hp_c3325(sim)
        breakdown = run_io(sim, disk, DiskIO(IoKind.READ, 1000, 1))
        # overhead + no/short seek + up to one revolution + 1 sector
        assert 0.0 < breakdown.total < 0.040
        assert breakdown.rotational_latency <= disk.rotation_period

    def test_seek_charged_for_distant_access(self, sim):
        disk = hp_c3325(sim)
        run_io(sim, disk, DiskIO(IoKind.READ, 0, 1))
        far_lba = disk.geometry.total_sectors - 1
        breakdown = run_io(sim, disk, DiskIO(IoKind.READ, far_lba, 1))
        assert breakdown.seek == pytest.approx(0.018, rel=0.05)  # full stroke

    def test_no_seek_for_same_cylinder(self, sim):
        disk = hp_c3325(sim)
        run_io(sim, disk, DiskIO(IoKind.READ, 100, 1))
        breakdown = run_io(sim, disk, DiskIO(IoKind.READ, 102, 1))
        assert breakdown.seek == 0.0

    def test_sequential_streaming_rate_near_5mb_per_s(self, sim):
        """The paper's own figure: ~5 MB/s sustained reads."""
        disk = hp_c3325(sim)
        assert disk.sustained_read_rate() == pytest.approx(5.0e6, rel=0.15)

    def test_large_transfer_dominated_by_media_rate(self, sim):
        disk = hp_c3325(sim)
        nsectors = 4096  # 2 MB
        breakdown = run_io(sim, disk, DiskIO(IoKind.READ, 0, nsectors))
        media_time = nsectors * 512 / disk.sustained_read_rate()
        assert breakdown.total == pytest.approx(media_time, rel=0.35)
        assert breakdown.transfer > 10 * (breakdown.seek + breakdown.rotational_latency)

    def test_rotational_latency_depends_on_issue_time(self, sim):
        """Spin position is a function of absolute time."""
        disk_a = hp_c3325(sim, name="a")
        breakdown_a = run_io(sim, disk_a, DiskIO(IoKind.READ, 5000, 1))
        # Re-issue the identical I/O on a fresh disk at a different time.
        sim.run(until=sim.now + 0.0042)
        disk_b = hp_c3325(sim, name="b")
        breakdown_b = run_io(sim, disk_b, DiskIO(IoKind.READ, 5000, 1))
        assert breakdown_a.rotational_latency != pytest.approx(
            breakdown_b.rotational_latency, abs=1e-6
        )

    def test_spin_synchronised_disks_agree(self, sim):
        """Equal phase + equal time + equal target ⇒ equal latency."""
        disk_a = hp_c3325(sim, name="a")
        disk_b = hp_c3325(sim, name="b")
        ba = disk_a.compute_service(DiskIO(IoKind.READ, 7777, 4), sim.now)
        bb = disk_b.compute_service(DiskIO(IoKind.READ, 7777, 4), sim.now)
        assert ba.rotational_latency == pytest.approx(bb.rotational_latency, abs=1e-12)


class TestState:
    def test_busy_during_service(self, sim):
        disk = toy_disk(sim)
        disk.execute(DiskIO(IoKind.READ, 0, 8))
        assert disk.busy
        sim.run()
        assert not disk.busy

    def test_arm_position_updates(self, sim):
        disk = toy_disk(sim)
        target = disk.geometry.total_sectors // 2
        run_io(sim, disk, DiskIO(IoKind.READ, target, 1))
        assert disk.current_cylinder == disk.geometry.cylinder_of(target)

    def test_stats_accumulate(self, sim):
        disk = toy_disk(sim)
        run_io(sim, disk, DiskIO(IoKind.READ, 0, 4))
        run_io(sim, disk, DiskIO(IoKind.WRITE, 64, 2))
        assert disk.stats.reads == 1
        assert disk.stats.writes == 1
        assert disk.stats.sectors_read == 4
        assert disk.stats.sectors_written == 2
        assert disk.stats.busy_time > 0.0
        assert disk.stats.ios == 2


class TestFailure:
    def test_failed_disk_rejects_io(self, sim):
        disk = toy_disk(sim)
        disk.fail()
        done = disk.execute(DiskIO(IoKind.READ, 0, 1))
        done.defused = True
        sim.run()
        assert isinstance(done.exception, DiskFailedError)

    def test_mid_flight_failure(self, sim):
        disk = toy_disk(sim)
        done = disk.execute(DiskIO(IoKind.READ, 0, 64))
        done.defused = True

        def saboteur():
            yield sim.timeout(1e-4)
            disk.fail()

        sim.process(saboteur())
        sim.run()
        assert isinstance(done.exception, DiskFailedError)

    def test_repair_restores_service(self, sim):
        disk = toy_disk(sim)
        disk.fail()
        disk.repair()
        breakdown = run_io(sim, disk, DiskIO(IoKind.READ, 0, 1))
        assert breakdown.total > 0.0


class TestTimingProperties:
    @given(
        lba=st.integers(min_value=0, max_value=4000),
        nsectors=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_service_time_positive_and_bounded(self, lba, nsectors):
        sim = Simulator()
        disk = toy_disk(sim)
        breakdown = disk.compute_service(DiskIO(IoKind.READ, lba, nsectors), 0.0)
        assert breakdown.total > 0.0
        # overhead + max seek + latency + transfer with a missed-rev allowance per track
        tracks = nsectors // disk.geometry.zones[0].sectors_per_track + 2
        bound = 0.001 + 0.010 + disk.rotation_period * (1 + tracks) + nsectors * disk.rotation_period
        assert breakdown.total < bound

    @given(nsectors=st.integers(min_value=1, max_value=256))
    @settings(max_examples=50, deadline=None)
    def test_transfer_monotone_in_size(self, nsectors):
        sim = Simulator()
        disk = toy_disk(sim, cylinders=128)
        small = disk.compute_service(DiskIO(IoKind.READ, 0, nsectors), 0.0)
        large = disk.compute_service(DiskIO(IoKind.READ, 0, nsectors + 1), 0.0)
        assert large.transfer >= small.transfer


def seek_sweep(disk):
    """Service breakdowns of reads at a sweep of seek distances from cylinder 0."""
    geometry = disk.geometry
    return [
        disk.compute_service(DiskIO(IoKind.READ, geometry.physical_to_lba(cylinder, 0, 0), 8), 0.0)
        for cylinder in range(0, geometry.cylinders, 37)
    ]


class TestSharedModelState:
    def test_c3325_drives_share_geometry_and_seek_model(self, sim):
        first, second = hp_c3325(sim, name="d0"), hp_c3325(sim, name="d1")
        assert first.geometry is second.geometry
        assert first.seek_model is second.seek_model
        # A disk built from a freshly fitted curve times every I/O the same.
        fitted = models.c3325_seek_model.__wrapped__()
        assert fitted is not first.seek_model
        fresh = MechanicalDisk(
            sim,
            geometry=models.c3325_geometry.__wrapped__(),
            seek_model=fitted,
            rpm=first.rpm,
            controller_overhead_s=first.controller_overhead_s,
            head_switch_s=first.head_switch_s,
            name="fresh",
        )
        assert first._seek_table == [
            fitted.seek_time(distance) for distance in range(fresh.geometry.cylinders)
        ]
        assert seek_sweep(fresh) == seek_sweep(first) == seek_sweep(second)

    def test_round_tripped_disk_shares_the_cached_table(self, sim):
        disk = hp_c3325(sim)
        assert "_seek_table" not in disk.__getstate__()
        revived = pickle.loads(pickle.dumps(disk))
        assert revived._seek_table is disk._seek_table
        assert seek_sweep(revived) == seek_sweep(disk)
