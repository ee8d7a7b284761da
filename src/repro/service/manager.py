"""Crash-tolerant job orchestration behind the ``afraid-sim serve`` API.

A **job** is one submission: a list of cells (the same
:class:`~repro.harness.runner.CellSpec` vocabulary as ``afraid-sim
sweep``), tracked from submission to a terminal state.  The
:class:`JobManager` sits between the HTTP layer and the
:class:`~repro.harness.runner.CellExecutor`:

* **Bounded admission** — the manager refuses submissions that would
  push the number of accepted-but-unfinished *simulated* cells past
  ``queue_limit`` (:class:`QueueFull`, surfaced as HTTP 429).  Cache
  hits are free and never rejected: the warm path costs one file read.
* **Cache-first answers** — every cell is probed against the cell
  entries of the content-addressed result store
  (:class:`~repro.harness.checkpoint.CheckpointStore`) *in the
  submitting thread*; hits
  complete synchronously in microseconds without touching the worker
  pool, and a fully-cached job is DONE before ``submit`` returns.
* **Crash-tolerant execution** — misses flow through the persistent
  executor, which rebuilds the pool and requeues in-flight cells when a
  worker dies; the manager surfaces those retries in the job's events
  and in the ``service_worker_restarts`` / ``service_cell_retries``
  metrics.
* **Deterministic results** — per-cell results are encoded with
  :func:`~repro.harness.experiment.result_to_payload`, the exact
  encoding the store's cell entries use, so a job's payload for a given spec is
  byte-identical to what ``afraid-sim sweep`` produces.

Every state change appends an event to the job's ordered event log,
which the server streams as NDJSON.
"""

from __future__ import annotations

import threading
import time
import typing

from repro.harness.experiment import result_to_payload
from repro.harness.runner import (
    CellExecutor,
    CellOutcome,
    CellSpec,
    DEFAULT_CACHE_DIR,
    cell_store,
)
from repro.obs.service import ServiceMetrics
from repro.obs.timeline import Timeline, TimelineEvent
from repro.service.protocol import ProtocolError, cell_label

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.experiment import ExperimentResult
    from repro.obs import MetricsRegistry


class QueueFull(RuntimeError):
    """Admission refused: the submission queue is at capacity (HTTP 429)."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(f"submission queue full ({pending}/{limit} cells pending)")
        self.pending = pending
        self.limit = limit


class ServiceClosed(RuntimeError):
    """The manager is draining or stopped and accepts no new jobs (503)."""


#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class Job:
    """One tracked submission; thread-safe via its condition variable."""

    def __init__(self, job_id: str, specs: list[CellSpec]) -> None:
        self.id = job_id
        self.specs = specs
        self.state = QUEUED
        self.created_s = time.time()
        self.finished_s: float | None = None
        self.error: str | None = None
        self.cached = 0
        self.simulated = 0
        self.retried = 0
        #: Per-cell records in spec order; ``None`` until the cell finishes.
        self.cells: list[dict | None] = [None] * len(specs)
        self.events: list[dict] = []
        self._cond = threading.Condition()
        # Owned by the manager (under the manager lock):
        self.outstanding: set[int] = set(range(len(specs)))
        self.tickets: dict[int, object] = {}

    # -- queries (safe snapshots) ------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.specs)

    @property
    def completed(self) -> int:
        return self.cached + self.simulated

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def snapshot(self) -> dict:
        """The JSON view served by ``GET /jobs/<id>``."""
        with self._cond:
            return {
                "id": self.id,
                "state": self.state,
                "created_s": self.created_s,
                "finished_s": self.finished_s,
                "cells_total": self.total,
                "cells_completed": self.completed,
                "cells_cached": self.cached,
                "cells_simulated": self.simulated,
                "cells_retried": self.retried,
                "events": len(self.events),
                "error": self.error,
            }

    def result_payload(self) -> dict:
        """The JSON view served by ``GET /jobs/<id>/result``.

        ``cells`` maps :func:`~repro.service.protocol.cell_label` labels
        (``workload/policy``, organization-suffixed) to the exact
        ``result_to_payload`` encoding the store's cell entries hold — the
        byte-identity contract with ``afraid-sim sweep``.
        """
        with self._cond:
            cells = {}
            details = []
            for record in self.cells:
                if record is None:
                    continue
                cells[record["cell"]] = record["result"]
                details.append(
                    {key: record[key] for key in ("cell", "from_cache", "attempts")}
                )
            return {
                "id": self.id,
                "state": self.state,
                "cells": cells,
                "details": details,
                "error": self.error,
            }

    # -- waiting -----------------------------------------------------------------

    def wait(self, timeout: float | None = None) -> str:
        """Block until the job is terminal (or ``timeout``); returns state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self.state

    def wait_events(self, since: int, timeout: float | None = None) -> list[dict]:
        """Events with seq >= ``since``, blocking until at least one exists.

        Returns an empty list on timeout or when the job is terminal and
        fully consumed — the streaming loop's stop condition.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while len(self.events) <= since and not self.terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._cond.wait(remaining)
            return self.events[since:]

    # -- mutation (called by the manager) ------------------------------------------

    def add_event(self, kind: str, **fields) -> None:
        with self._cond:
            self.events.append(
                {"seq": len(self.events), "time_s": time.time(), "event": kind,
                 "job": self.id, **fields}
            )
            self._cond.notify_all()


class JobManager:
    """Owns the executor, the job table, and the admission queue."""

    def __init__(
        self,
        jobs: int = 2,
        cache_dir: str | None = DEFAULT_CACHE_DIR,
        queue_limit: int = 1024,
        max_attempts: int = 3,
        cell_fn: typing.Callable[[CellSpec], "ExperimentResult"] | None = None,
        registry: "MetricsRegistry | None" = None,
        cache_max_bytes: int | None = None,
        checkpoint_dir: str | None = None,
    ) -> None:
        self.metrics = ServiceMetrics(registry)
        self.queue_limit = queue_limit
        # The bound is the result cache's: a checkpoint store answering
        # in its place is never pruned by it.
        self.cache_max_bytes = cache_max_bytes if cache_dir is not None else None
        self.checkpoint_dir = checkpoint_dir
        # A warm service restart replays only what the checkpoint store has
        # not already simulated; partial (ordinary) functions pickle by
        # reference, so the cell function crosses the pool.
        self.cache, store_cell_fn = cell_store(cache_dir, checkpoint_dir)
        if cell_fn is None:
            cell_fn = store_cell_fn
        self.executor = CellExecutor(
            jobs=jobs,
            cache=self.cache,
            cell_fn=cell_fn,
            max_attempts=max_attempts,
            on_worker_restart=self.metrics.worker_restarts.inc,
        ).start()
        self.jobs: dict[str, Job] = {}
        # The service-wide correlation timeline (GET /timeline): every
        # job/cell state change on a "service" track, cell and terminal
        # events cause-linked to their job's submit event.  Wall-clock
        # stamped — the daemon is not under the sim determinism gate.
        self.timeline = Timeline()
        self._timeline_roots: dict[str, TimelineEvent] = {}
        self._lock = threading.Lock()
        self._pending_cells = 0
        self._next_id = 0
        self._closed = False
        self._maybe_prune()

    # -- submission ----------------------------------------------------------------

    def submit(self, specs: list[CellSpec]) -> Job:
        """Admit one job of checked specs (the server parses a body with
        :func:`~repro.service.protocol.parse_job_payload` first); raises
        :class:`ProtocolError` / :class:`QueueFull` / :class:`ServiceClosed`
        instead of partially accepting anything."""
        specs = list(specs)
        if not specs:
            raise ProtocolError("job needs at least one cell")

        # Probe the cache outside any lock: pure file reads, and the split
        # decides how much queue capacity this job actually needs.
        probes: list[tuple[str | None, "ExperimentResult | None"]] = [
            self.executor.probe_cache(spec) for spec in specs
        ]
        misses = sum(1 for _key, hit in probes if hit is None)

        with self._lock:
            if self._closed:
                raise ServiceClosed("service is draining; not accepting jobs")
            if self._pending_cells + misses > self.queue_limit:
                self.metrics.jobs_rejected.inc()
                raise QueueFull(self._pending_cells, self.queue_limit)
            self._next_id += 1
            job = Job(f"job-{self._next_id:06d}", specs)
            self.jobs[job.id] = job
            self._pending_cells += misses
            self.metrics.jobs_submitted.inc()
            self.metrics.jobs_in_flight.inc()
        job.add_event("submitted", cells=len(specs), cached=len(specs) - misses)
        self._timeline_roots[job.id] = self.timeline.record(
            "service.job_submitted", time.time(), track="service",
            job=job.id, cells=len(specs), cached=len(specs) - misses,
        )

        submitted_at = time.monotonic()
        for index, (spec, (key, hit)) in enumerate(zip(specs, probes)):
            if hit is not None:
                self.metrics.record_lookup(hit=True)
                self._record_cell(
                    job, index,
                    CellOutcome(spec=spec, result=hit, from_cache=True),
                    submitted_at,
                )
            else:
                self.metrics.record_lookup(hit=False)
                with self._lock:
                    if index not in job.outstanding:
                        continue  # the job was cancelled mid-submit
                    ticket = self.executor.submit(
                        spec,
                        lambda outcome, job=job, index=index, t0=submitted_at: (
                            self._record_cell(job, index, outcome, t0)
                        ),
                        key=key,
                        probe_cache=False,
                    )
                    job.tickets[index] = ticket
        with job._cond:
            if job.state == QUEUED and misses:
                job.state = RUNNING
        self._refresh_gauges()
        return job

    # -- completion path -------------------------------------------------------------

    def _record_cell(
        self, job: Job, index: int, outcome: CellOutcome, submitted_at: float
    ) -> None:
        with self._lock:
            if index not in job.outstanding:
                return  # cancelled (or double delivery) — already accounted
            job.outstanding.discard(index)
            job.tickets.pop(index, None)
            if not outcome.from_cache:
                self._pending_cells -= 1

        latency_s = time.monotonic() - submitted_at
        self.metrics.cell_latency.observe(max(latency_s, 1e-9))
        label = cell_label(outcome.spec)

        if outcome.error is not None:
            self.metrics.cells_completed.inc()
            job.add_event(
                "cell_failed", cell=label, attempts=outcome.attempts, error=outcome.error
            )
            self.timeline.record(
                "service.cell_failed", time.time(), track="service",
                cause=self._timeline_roots.get(job.id),
                job=job.id, cell=label, error=outcome.error,
            )
            self._fail_job(job, f"cell {label}: {outcome.error}")
            return

        record = {
            "cell": label,
            "from_cache": outcome.from_cache,
            "attempts": outcome.attempts,
            "result": result_to_payload(outcome.result),
        }
        with job._cond:
            job.cells[index] = record
            if outcome.from_cache:
                job.cached += 1
            else:
                job.simulated += 1
            if outcome.attempts > 1:
                job.retried += 1
            if job.state == QUEUED and not outcome.from_cache:
                job.state = RUNNING
        self.metrics.cells_completed.inc()
        if outcome.attempts > 1:
            self.metrics.cell_retries.inc(outcome.attempts - 1)
        result = outcome.result
        job.add_event(
            "cell_completed",
            cell=label,
            from_cache=outcome.from_cache,
            attempts=outcome.attempts,
            latency_s=latency_s,
            mean_io_time_ms=result.mean_io_time_ms,
            unprotected_fraction=result.unprotected_fraction,
            metrics=self._metric_snapshot(),
        )
        self.timeline.record(
            "service.cell_completed", time.time(), track="service",
            cause=self._timeline_roots.get(job.id),
            job=job.id, cell=label, from_cache=outcome.from_cache,
            latency_s=latency_s,
        )

        finished = False
        with job._cond:
            if not job.terminal and job.completed == job.total:
                job.state = DONE
                job.finished_s = time.time()
                finished = True
                job._cond.notify_all()
        if finished:
            self.metrics.jobs_completed.inc()
            self.metrics.jobs_in_flight.dec()
            job.add_event(
                "job_completed",
                state=DONE,
                cells=job.total,
                cached=job.cached,
                simulated=job.simulated,
                wall_s=time.time() - job.created_s,
            )
            self.timeline.record(
                "service.job_completed", time.time(), track="service",
                cause=self._timeline_roots.get(job.id),
                job=job.id, cells=job.total, cached=job.cached,
                simulated=job.simulated,
            )
            self._maybe_prune()
        self._refresh_gauges()

    def _fail_job(self, job: Job, error: str) -> None:
        self._abandon_outstanding(job)
        with job._cond:
            if job.terminal:
                return
            job.state = FAILED
            job.error = error
            job.finished_s = time.time()
            job._cond.notify_all()
        self.metrics.jobs_failed.inc()
        self.metrics.jobs_in_flight.dec()
        job.add_event("job_failed", state=FAILED, error=error)
        self.timeline.record(
            "service.job_failed", time.time(), track="service",
            cause=self._timeline_roots.get(job.id), job=job.id, error=error,
        )
        self._refresh_gauges()

    def _abandon_outstanding(self, job: Job) -> None:
        """Drop a job's unfinished cells from the executor and the accounting."""
        with self._lock:
            outstanding = list(job.outstanding)
            job.outstanding.clear()
            tickets = [job.tickets.pop(i) for i in outstanding if i in job.tickets]
            # Cells without a ticket were cache hits still being recorded;
            # ticketed ones were queued/in-flight and count against the limit.
            self._pending_cells -= len(tickets)
        for ticket in tickets:
            self.executor.cancel(ticket)

    # -- control -------------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)

    def list_jobs(self) -> list[Job]:
        return list(self.jobs.values())

    def cancel(self, job_id: str) -> Job | None:
        """Cancel a job's unfinished cells; terminal jobs are left alone."""
        job = self.jobs.get(job_id)
        if job is None:
            return None
        self._abandon_outstanding(job)
        with job._cond:
            if job.terminal:
                return job
            job.state = CANCELLED
            job.finished_s = time.time()
            job._cond.notify_all()
        self.metrics.jobs_cancelled.inc()
        self.metrics.jobs_in_flight.dec()
        job.add_event("job_cancelled", state=CANCELLED)
        self.timeline.record(
            "service.job_cancelled", time.time(), track="service",
            cause=self._timeline_roots.get(job.id), job=job.id,
        )
        self._refresh_gauges()
        return job

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        ``drain=True`` (SIGTERM path): refuse new jobs, finish everything
        already admitted, then stop the pool.  ``drain=False``: cancel
        all active jobs and abandon in-flight cells.
        """
        with self._lock:
            self._closed = True
        if not drain:
            for job in self.list_jobs():
                if not job.terminal:
                    self.cancel(job.id)
        self.executor.shutdown(drain=drain, timeout=timeout)

    @property
    def pending_cells(self) -> int:
        """Admitted cells not yet finished (the backpressure quantity)."""
        return self._pending_cells

    # -- metrics -------------------------------------------------------------------

    def _refresh_gauges(self) -> None:
        self.metrics.queue_depth.set(self.executor.queue_depth)
        self.metrics.cells_in_flight.set(self.executor.inflight)

    def _metric_snapshot(self) -> dict:
        """The compact registry excerpt embedded in per-cell events."""
        value = self.metrics.registry.value
        return {
            "queue_depth": self.executor.queue_depth,
            "cells_in_flight": self.executor.inflight,
            "jobs_in_flight": value("service_jobs_in_flight", 0.0),
            "cache_hit_ratio": value("service_cache_hit_ratio", 0.0),
            "worker_restarts": value("service_worker_restarts", 0.0),
        }

    def _maybe_prune(self) -> None:
        if self.cache is not None and self.cache_max_bytes is not None:
            self.cache.prune(self.cache_max_bytes)

    def health(self) -> dict:
        """The ``GET /healthz`` body."""
        with self._lock:
            active = sum(1 for job in self.jobs.values() if not job.terminal)
            return {
                "status": "draining" if self._closed else "ok",
                "jobs_total": len(self.jobs),
                "jobs_active": active,
                "pending_cells": self._pending_cells,
                "queue_limit": self.queue_limit,
                "queue_depth": self.executor.queue_depth,
                "worker_restarts": self.executor.worker_restarts,
            }
