"""Crash tolerance: a worker dying mid-cell must not lose the job.

The crashing cell functions kill the worker *process* with ``os._exit``
— the same failure shape as an OOM-kill or segfault — which breaks the
whole ``ProcessPoolExecutor``.  The executor must rebuild the pool,
requeue the in-flight cell, and still deliver a result whose payload is
identical to a clean run's.
"""

import json
import os
import pathlib
import time

from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiment import result_to_payload
from repro.harness.runner import (
    CellExecutor,
    cache_key,
    run_cell,
)
from repro.service import DONE, FAILED, JobManager
from tests.service.test_manager import WAIT_S, quick_specs

#: Where the crash-once marker lives; workers inherit this via fork.
_MARKER_ENV = "AFRAID_TEST_CRASH_MARKER"


def crash_once_then_run(spec):
    """First invocation kills the worker mid-cell; retries run normally."""
    marker = pathlib.Path(os.environ[_MARKER_ENV])
    if not marker.exists():
        marker.touch()
        os._exit(1)
    return run_cell(spec)


def crash_always(spec):
    os._exit(1)


class TestManagerSurvivesWorkerCrash:
    def test_job_completes_after_worker_death(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "crashed-once"))
        spec = quick_specs()[0]
        mgr = JobManager(
            jobs=1, cache_dir=tmp_path / "cache", cell_fn=crash_once_then_run
        )
        try:
            job = mgr.submit([spec])
            assert job.wait(WAIT_S) == DONE

            # The cell took more than one attempt and the pool was rebuilt.
            record = job.cells[0]
            assert record["attempts"] == 2
            assert job.retried == 1
            assert mgr.executor.worker_restarts == 1
            assert mgr.metrics.registry.value("service_worker_restarts") == 1
            assert mgr.metrics.cell_retries.value == 1
            retried = [e for e in job.events if e["event"] == "cell_completed"]
            assert retried[0]["attempts"] == 2
            assert retried[0]["metrics"]["worker_restarts"] == 1

            # Cache consistency: the post-crash result is byte-identical to
            # a clean in-process run, and it was written through to disk.
            clean = result_to_payload(run_cell(spec))
            assert json.dumps(record["result"], sort_keys=True) == json.dumps(
                clean, sort_keys=True
            )
            assert mgr.cache.load(cache_key(spec)) is not None

            # A resubmit is now a pure cache hit — no pool involved.
            warm = mgr.submit([spec])
            assert warm.state == DONE
            assert warm.cached == 1
        finally:
            mgr.shutdown(drain=False)

    def test_persistent_crasher_fails_after_max_attempts(self, tmp_path):
        mgr = JobManager(
            jobs=1, cache_dir=None, cell_fn=crash_always, max_attempts=2
        )
        try:
            job = mgr.submit(quick_specs())
            assert job.wait(WAIT_S) == FAILED
            assert "worker crashed 2 times" in job.error
            assert mgr.executor.worker_restarts >= 2
            assert mgr.pending_cells == 0  # accounting was released
        finally:
            mgr.shutdown(drain=False)


class TestExecutorLevelRequeue:
    def test_sibling_cells_survive_one_crash(self, tmp_path, monkeypatch):
        """One worker dying breaks every in-flight future; *all* of them
        must be requeued, not just the crashing cell's."""
        monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "crashed-once"))
        specs = quick_specs(kinds=("afraid", "raid0"))
        cache = CheckpointStore(tmp_path / "cache")
        executor = CellExecutor(
            jobs=2, cache=cache, cell_fn=crash_once_then_run
        ).start()
        outcomes = []
        try:
            for spec in specs:
                executor.submit(spec, outcomes.append)
            deadline = time.monotonic() + WAIT_S
            while len(outcomes) < len(specs) and time.monotonic() < deadline:
                time.sleep(0.05)
        finally:
            executor.shutdown(drain=True)
        assert len(outcomes) == len(specs)
        assert all(o.error is None for o in outcomes)
        assert executor.worker_restarts == 1
        assert max(o.attempts for o in outcomes) >= 2
        # Write-through happened for every cell despite the restart.
        for spec in specs:
            assert cache.load(cache_key(spec)) is not None
