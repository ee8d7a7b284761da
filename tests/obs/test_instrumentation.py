"""End-to-end instrumentation: spans/histograms from real simulated runs."""

import pytest

from repro.array import toy_array
from repro.array.request import ArrayRequest
from repro.disk import IoKind, toy_disk
from repro.ext.rebuild import RebuildManager
from repro.faults import FaultInjector
from repro.harness import run_experiment
from repro.obs import HistogramSet, Tracer
from repro.policy import BaselineAfraidPolicy, NeverScrubPolicy
from repro.sim import Simulator


def write(offset, nsectors=4):
    return ArrayRequest(IoKind.WRITE, offset, nsectors)


def read(offset, nsectors=4):
    return ArrayRequest(IoKind.READ, offset, nsectors)


class TestExperimentInstrumentation:
    def test_tracer_captures_every_layer(self):
        tracer = Tracer()
        result = run_experiment("hplajw", BaselineAfraidPolicy(), duration_s=8.0, tracer=tracer)
        client_spans = tracer.spans_on("client")
        assert len(client_spans) == result.reads + result.writes
        assert tracer.spans_on("scrubber")  # idle-time parity rebuilds
        assert tracer.counter_series("dirty_stripes")
        assert tracer.counter_series("parity_lag_bytes")
        # Per-disk command spans land on the back-end driver tracks.
        backend = [r for r in tracer.records if r[0] == "X" and ".be" in r[4]]
        assert backend

    def test_histograms_partition_client_requests(self):
        result = run_experiment("hplajw", BaselineAfraidPolicy(), duration_s=8.0)
        hists = result.histogram_set()
        assert hists.get("client_read").count == result.reads
        assert hists.get("client_write").count == result.writes
        assert hists.get("scrub").count == result.stripes_scrubbed
        assert hists.get("degraded_read").count == 0  # fault-free run

    def test_external_histogram_set_receives_records(self):
        mine = HistogramSet()
        result = run_experiment(
            "hplajw", BaselineAfraidPolicy(), duration_s=4.0, histograms=mine
        )
        assert mine.total_count > 0
        assert mine == result.histogram_set()

    def test_disabled_run_records_nothing_extra(self):
        """Without a tracer the run produces identical results (the
        histograms are the only always-on addition)."""
        plain = run_experiment("hplajw", BaselineAfraidPolicy(), duration_s=4.0)
        traced = run_experiment(
            "hplajw", BaselineAfraidPolicy(), duration_s=4.0, tracer=Tracer()
        )
        assert plain.io_time == traced.io_time
        assert plain.histogram_set() == traced.histogram_set()


class TestDegradedAndRebuild:
    def test_degraded_reads_classified_separately(self):
        sim = Simulator()
        array = toy_array(sim, policy=NeverScrubPolicy(), read_cache_bytes=0)
        hists = HistogramSet()
        array.attach_observability(histograms=hists)
        # The stripe must be clean: a dirty stripe on a failed disk is data
        # loss, not a degraded read.
        victim = array.layout.data_disk(0, 0)
        array.disks[victim].fail()
        array.functional.fail_disk(victim)
        array.enter_degraded(victim)
        sim.run_until_triggered(array.submit(read(0, 4)))
        assert hists.get("degraded_read").count == 1
        assert hists.get("client_read").count == 0

    def test_rebuild_spans_and_latencies(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=4, stripe_unit_sectors=4, with_functional=False)
        tracer = Tracer(sim)
        hists = HistogramSet()
        array.attach_observability(tracer=tracer, histograms=hists)
        manager = RebuildManager(sim, array, yield_to_foreground=False)
        done = manager.fail_and_rebuild(1, toy_disk(sim, name="spare"))
        stats = sim.run_until_triggered(done)

        assert tracer.instants_named("disk_failure")
        stripe_spans = [r for r in tracer.spans_on("rebuild") if r[3] == "rebuild_stripe"]
        assert len(stripe_spans) == stats.stripes_rebuilt
        (sweep,) = [r for r in tracer.spans_on("rebuild") if r[3] == "rebuild"]
        assert sweep[2] == pytest.approx(stats.duration_s)
        assert hists.get("rebuild").count == stats.stripes_rebuilt


class TestFaultInstants:
    def test_disk_failure_instant_carries_exposure(self):
        sim = Simulator()
        array = toy_array(sim, policy=NeverScrubPolicy())
        tracer = Tracer(sim)
        array.attach_observability(tracer=tracer)
        injector = FaultInjector(sim, array)
        sim.run_until_triggered(array.submit(write(0, 4)))
        injector.fail_disk_at(disk=0, at_time=sim.now + 0.5)
        sim.run(until=sim.now + 1.0)
        (instant,) = tracer.instants_named("disk_failure")
        assert instant[5]["disk"] == 0
        assert instant[5]["dirty"] == 1

    def test_nvram_failure_and_recovery_instants(self):
        sim = Simulator()
        array = toy_array(sim, ndisks=3, stripe_unit_sectors=4, with_functional=False)
        tracer = Tracer(sim)
        array.attach_observability(tracer=tracer)
        injector = FaultInjector(sim, array)
        injector.fail_mark_memory_at(at_time=1.0)
        sim.run(until=2.0)
        assert tracer.instants_named("nvram_failure")
        (recovery,) = tracer.instants_named("nvram_recovery")
        assert recovery[5]["stripes"] == array.layout.nstripes


class TestPolicyInstants:
    def test_threshold_policy_emits_force_scrub_on_transition(self):
        from repro.policy import DirtyStripeThresholdPolicy

        sim = Simulator()
        array = toy_array(
            sim,
            policy=DirtyStripeThresholdPolicy(max_dirty_stripes=2),
            with_functional=False,
            idle_threshold_s=10.0,  # never idle-scrub during the test
        )
        tracer = Tracer(sim)
        array.attach_observability(tracer=tracer)
        stride = array.layout.stripe_data_sectors
        for stripe in range(4):
            sim.run_until_triggered(array.submit(write(stripe * stride, 4)))
        instants = tracer.instants_named("policy.force_scrub")
        assert instants  # fired when the threshold was first crossed
        assert instants[0][5]["threshold"] == 2
