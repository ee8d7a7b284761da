"""Job orchestration: lifecycle, cache-first answers, backpressure, events."""

import json
import time

import pytest

from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiment import result_to_payload
from repro.harness.runner import (
    CellSpec,
    PolicySpec,
    cache_key,
    run_cell,
    run_cells,
)
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    JobManager,
    ProtocolError,
    QueueFull,
    RUNNING,
    ServiceClosed,
    cell_label,
)

#: Short simulated duration keeps pool round-trips fast but real.
QUICK = dict(duration_s=1.0, seed=11)

WAIT_S = 120.0


def quick_payload(workloads=("hplajw",), kinds=("afraid",)):
    return {
        "cells": [{"workload": w, "policy": k} for w in workloads for k in kinds],
        **QUICK,
    }


def quick_specs(workloads=("hplajw",), kinds=("afraid",)):
    return [
        CellSpec(workload=w, policy=PolicySpec(k), **QUICK)
        for w in workloads
        for k in kinds
    ]


def _explode(spec):
    """A cell function that must never be reached (warm-path proof)."""
    raise RuntimeError(f"pool should not run {spec.key}")


def _sleepy(spec):
    """Holds a worker long enough for admission/cancel tests to observe it."""
    time.sleep(1.5)
    return run_cell(spec)


@pytest.fixture
def manager(tmp_path):
    mgr = JobManager(jobs=2, cache_dir=tmp_path / "cache")
    yield mgr
    mgr.shutdown(drain=False)


class TestLifecycle:
    def test_submit_runs_to_done(self, manager):
        job = manager.submit(quick_specs(kinds=("afraid", "raid0")))
        assert job.state == RUNNING
        assert job.wait(WAIT_S) == DONE
        snapshot = job.snapshot()
        assert snapshot["cells_total"] == 2
        assert snapshot["cells_simulated"] == 2
        assert snapshot["cells_cached"] == 0
        assert snapshot["error"] is None
        payload = job.result_payload()
        assert set(payload["cells"]) == {"hplajw/afraid", "hplajw/raid0"}
        assert all(not d["from_cache"] for d in payload["details"])

    def test_accepts_prebuilt_spec_lists(self, manager):
        job = manager.submit(quick_specs())
        assert job.wait(WAIT_S) == DONE
        assert job.simulated == 1

    def test_bad_payload_creates_no_job(self, manager):
        with pytest.raises(ProtocolError):
            manager.submit([])
        assert manager.list_jobs() == []
        assert manager.metrics.jobs_submitted.value == 0

    def test_submit_after_shutdown_refused(self, tmp_path):
        mgr = JobManager(jobs=1, cache_dir=tmp_path / "cache")
        mgr.shutdown(drain=True)
        with pytest.raises(ServiceClosed):
            mgr.submit(quick_specs())

    def test_events_are_ordered_and_bracketed(self, manager):
        job = manager.submit(quick_specs(kinds=("afraid", "raid0")))
        assert job.wait(WAIT_S) == DONE
        events = job.wait_events(0, timeout=5.0)
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "submitted"
        assert events[-1]["event"] == "job_completed"
        completions = [e for e in events if e["event"] == "cell_completed"]
        assert len(completions) == 2
        for event in completions:
            assert event["latency_s"] > 0
            assert event["mean_io_time_ms"] > 0
            # Each completion embeds a live metric snapshot for dashboards.
            assert set(event["metrics"]) >= {
                "queue_depth", "cells_in_flight", "jobs_in_flight",
                "cache_hit_ratio", "worker_restarts",
            }


class TestByteIdentityWithSweep:
    def test_job_results_match_sweep_encoding_exactly(self, manager, tmp_path):
        """The acceptance bar: a job's per-cell payload is byte-identical
        to what ``afraid-sim sweep`` writes to its cache for the same spec."""
        specs = quick_specs(kinds=("afraid", "raid0"))
        sweep = run_cells(specs, cache_dir=tmp_path / "sweep-cache")

        job = manager.submit(quick_specs(kinds=("afraid", "raid0")))
        assert job.wait(WAIT_S) == DONE
        payload = job.result_payload()
        for spec in specs:
            expected = result_to_payload(sweep.results[spec.key])
            served = payload["cells"][cell_label(spec)]
            assert json.dumps(served, sort_keys=True) == json.dumps(
                expected, sort_keys=True
            )

    def test_service_cache_entries_readable_by_sweep(self, manager):
        """Cells simulated by the service land in the shared cache, so a
        later ``afraid-sim sweep`` over the same grid is a pure warm read."""
        job = manager.submit(quick_specs())
        assert job.wait(WAIT_S) == DONE
        warm = run_cells(quick_specs(), cache_dir=manager.cache.root)
        assert (warm.cached, warm.simulated) == (1, 0)


class TestWarmPath:
    def test_cached_job_done_before_submit_returns(self, tmp_path):
        """The warm path never touches the pool: with every cell cached, a
        manager whose cell function *raises* still answers correctly."""
        cache_dir = tmp_path / "cache"
        specs = quick_specs(kinds=("afraid", "raid0"))
        sweep = run_cells(specs, cache_dir=cache_dir)

        mgr = JobManager(jobs=1, cache_dir=cache_dir, cell_fn=_explode)
        try:
            job = mgr.submit(quick_specs(kinds=("afraid", "raid0")))
            # No wait: cache hits complete synchronously in the submitting
            # thread, so the job is already terminal.
            assert job.state == DONE
            assert (job.cached, job.simulated) == (2, 0)
            assert mgr.metrics.cache_hits.value == 2
            assert mgr.metrics.cache_misses.value == 0
            payload = job.result_payload()
            for spec in specs:
                assert payload["cells"][cell_label(spec)] == result_to_payload(
                    sweep.results[spec.key]
                )
        finally:
            mgr.shutdown(drain=False)

    def test_mixed_job_counts_hits_and_misses(self, manager):
        first = manager.submit(quick_specs())
        assert first.wait(WAIT_S) == DONE
        mixed = manager.submit(quick_specs(kinds=("afraid", "raid0")))
        assert mixed.wait(WAIT_S) == DONE
        assert (mixed.cached, mixed.simulated) == (1, 1)
        assert manager.metrics.cache_hit_ratio.value == pytest.approx(1 / 3)


class TestBackpressure:
    def test_queue_full_rejects_whole_job(self, tmp_path):
        mgr = JobManager(jobs=1, cache_dir=None, queue_limit=1, cell_fn=_sleepy)
        try:
            admitted = mgr.submit(quick_specs())
            assert mgr.pending_cells == 1
            with pytest.raises(QueueFull) as excinfo:
                mgr.submit(quick_specs(workloads=("ATT",)))
            assert (excinfo.value.pending, excinfo.value.limit) == (1, 1)
            assert mgr.metrics.jobs_rejected.value == 1
            # The refused job left no trace in the table or the accounting.
            assert len(mgr.list_jobs()) == 1
            assert mgr.pending_cells == 1
            mgr.cancel(admitted.id)
        finally:
            mgr.shutdown(drain=False)

    def test_cache_hits_bypass_admission(self, tmp_path):
        """Warm cells cost no queue capacity: even queue_limit=0 serves them."""
        cache_dir = tmp_path / "cache"
        run_cells(quick_specs(), cache_dir=cache_dir)
        mgr = JobManager(jobs=1, cache_dir=cache_dir, queue_limit=0, cell_fn=_explode)
        try:
            job = mgr.submit(quick_specs())
            assert job.state == DONE
            assert job.cached == 1
            with pytest.raises(QueueFull):
                mgr.submit(quick_specs(workloads=("ATT",)))
        finally:
            mgr.shutdown(drain=False)


class TestCancelAndFailure:
    def test_cancel_releases_queue_capacity(self, tmp_path):
        mgr = JobManager(jobs=1, cache_dir=None, queue_limit=2, cell_fn=_sleepy)
        try:
            job = mgr.submit(quick_specs(kinds=("afraid", "raid0")))
            assert mgr.pending_cells == 2
            cancelled = mgr.cancel(job.id)
            assert cancelled is job
            assert job.state == CANCELLED
            assert mgr.pending_cells == 0
            assert mgr.health()["jobs_active"] == 0
            assert mgr.metrics.jobs_cancelled.value == 1
            assert job.events[-1]["event"] == "job_cancelled"
        finally:
            mgr.shutdown(drain=False)

    def test_cancel_unknown_job_returns_none(self, manager):
        assert manager.cancel("job-999999") is None

    def test_cancel_terminal_job_is_a_no_op(self, manager):
        job = manager.submit(quick_specs())
        assert job.wait(WAIT_S) == DONE
        assert manager.cancel(job.id) is job
        assert job.state == DONE

    def test_cell_exception_fails_the_job(self, tmp_path):
        mgr = JobManager(jobs=1, cache_dir=None, cell_fn=_explode)
        try:
            job = mgr.submit(quick_specs())
            assert job.wait(WAIT_S) == FAILED
            assert "hplajw/afraid" in job.error
            assert "RuntimeError" in job.error
            kinds = [e["event"] for e in job.events]
            assert "cell_failed" in kinds
            assert kinds[-1] == "job_failed"
            assert mgr.metrics.jobs_failed.value == 1
            assert mgr.pending_cells == 0
        finally:
            mgr.shutdown(drain=False)


class TestHealthAndPrune:
    def test_health_shape(self, manager):
        health = manager.health()
        assert health["status"] == "ok"
        assert health["queue_limit"] == 1024
        assert health["pending_cells"] == 0
        assert health["worker_restarts"] == 0

    def test_drain_flips_health_status(self, tmp_path):
        mgr = JobManager(jobs=1, cache_dir=tmp_path / "cache")
        mgr.shutdown(drain=True)
        assert mgr.health()["status"] == "draining"

    def test_cache_pruned_at_init(self, tmp_path):
        cache_dir = tmp_path / "cache"
        stale = CheckpointStore(cache_dir)
        victim = stale.root / ("f" * 64 + ".json")
        victim.write_text("{}" + " " * (1 << 20))
        mgr = JobManager(jobs=1, cache_dir=cache_dir, cache_max_bytes=1 << 19)
        try:
            assert not victim.exists()
        finally:
            mgr.shutdown(drain=False)

    def test_cache_pruned_after_job_completion(self, tmp_path):
        cache_dir = tmp_path / "cache"
        mgr = JobManager(jobs=1, cache_dir=cache_dir, cache_max_bytes=1 << 19)
        try:
            # An oversized stale entry appears while the daemon is up; the
            # byte cap evicts it (oldest first) once the next job finishes.
            victim = mgr.cache.root / ("f" * 64 + ".json")
            victim.write_text("{}" + " " * (1 << 20))
            job = mgr.submit(quick_specs())
            assert job.wait(WAIT_S) == DONE
            # The prune runs on the dispatcher thread just after the DONE
            # notification, so give it a beat.
            deadline = time.monotonic() + 10.0
            while victim.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not victim.exists()
            # The fresh result survives: it is the newest entry.
            key = cache_key(quick_specs()[0])
            assert mgr.cache.load(key) is not None
        finally:
            mgr.shutdown(drain=False)
