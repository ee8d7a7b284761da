"""Parallel sweep engine over the content-addressed result store.

Every headline figure is a grid of independent (workload, policy, seed)
cells, each a fresh simulator — embarrassingly parallel.  This module
fans cells out over :class:`concurrent.futures.ProcessPoolExecutor` and
memoises finished cells as the cell entries of a
:class:`~repro.harness.checkpoint.CheckpointStore`, keyed by a hash of
everything that can change the answer: the cell's full configuration
plus a fingerprint of the installed ``repro`` source tree.  Re-running a
sweep after an edit re-simulates only what the edit could have affected;
re-running with no edits is pure store reads.

Cells are described by :class:`CellSpec` — plain data, picklable, and
hashable into a cache key — rather than by policy *instances* (policies
carry per-run state and closures don't cross process boundaries).
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import logging
import os
import threading
import time
import typing

from repro.array.factory import PAPER_STRIPE_UNIT_SECTORS
from repro.availability import ReliabilityParams, TABLE_1
from repro.disk import c3325_geometry
from repro.harness.checkpoint import CheckpointStore, code_fingerprint
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.metrics import PerfCounters
from repro.obs import HistogramSet
from repro.policy import POLICIES, MttdlTargetPolicy, ParityPolicy
from repro.spec import SpecError, as_str, blame, check_integer, check_number, check_organization

_log = logging.getLogger(__name__)

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traces import Trace

#: Bump when the cached payload layout (not the results) changes shape.
#: 2: results grew per-class latency histograms (``latency_hists``).
#: 3: results grew dirty-dwell exposure histograms (``exposure_hists``).
CACHE_SCHEMA = 3

#: Default cache location (gitignored).
DEFAULT_CACHE_DIR = ".repro-cache"


# -- cell specification -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class PolicySpec:
    """A picklable, hashable description of a parity policy.

    ``kind`` is one of ``raid5`` / ``afraid`` / ``raid0`` / ``mttdl``;
    ``mttdl`` additionally needs ``mttdl_target`` (hours, finite and > 0).
    """

    kind: str
    mttdl_target: float | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.kind, str) and (self.kind in POLICIES or self.kind == "mttdl")):
            raise SpecError(
                "policy",
                f"unknown policy kind {self.kind!r} (known: {', '.join([*POLICIES, 'mttdl'])})",
            )
        if self.mttdl_target is not None:
            check_number("mttdl_target", self.mttdl_target, strict=True)
        elif self.kind == "mttdl":
            raise SpecError("mttdl_target", "mttdl policy needs mttdl_target")

    def build(self, params: ReliabilityParams = TABLE_1) -> ParityPolicy:
        """A fresh policy instance (policies carry per-run state)."""
        if self.kind == "mttdl":
            return MttdlTargetPolicy(self.mttdl_target, params=params)
        return POLICIES[self.kind]()

    @property
    def label(self) -> str:
        """The ladder label used in figures and grid keys."""
        if self.kind == "mttdl":
            return f"MTTDL_{self.mttdl_target:.0e}"
        return self.kind


@dataclasses.dataclass(frozen=True)
class CellSpec:
    """One experiment cell: everything :func:`run_experiment` needs, as data.

    The spec deliberately covers only the picklable subset of
    ``run_experiment``'s signature — cells always use the default disk
    model.  Two equal specs (plus equal code) produce identical results,
    which is what makes the cache sound.  It is also the one declaration
    of a run's fields: the CLI's run flags and the service's cell keys
    coerce into these types, and ``__post_init__`` is the one check of
    their bounds (:class:`~repro.spec.SpecError` names the refused field).
    ``ndisks=None`` resolves to the organization's default disk count.
    """

    workload: str
    policy: PolicySpec
    duration_s: float = 40.0
    seed: int = 42
    ndisks: int | None = None
    stripe_unit_sectors: int = PAPER_STRIPE_UNIT_SECTORS
    idle_threshold_s: float = 0.100
    extra_settle_s: float = 0.0
    organization: str = "raid5"

    def __post_init__(self) -> None:
        as_str("workload", self.workload)
        if not isinstance(self.policy, PolicySpec):
            raise SpecError("policy", f"policy must be a PolicySpec, got {self.policy!r}")
        check_number("duration_s", self.duration_s, strict=True)
        check_integer("seed", self.seed)
        for name in ("idle_threshold_s", "extra_settle_s"):
            check_number(name, getattr(self, name))
        org, ndisks = check_organization(self.organization, self.ndisks)
        object.__setattr__(self, "ndisks", ndisks)
        check_integer("stripe_unit_sectors", self.stripe_unit_sectors)
        # The organization's own layout constructor is the geometry rule
        # the array will apply, so a spec it rejects never reaches a worker.
        with blame("stripe_unit_sectors"):
            org.build_layout(ndisks, self.stripe_unit_sectors, c3325_geometry().total_sectors)

    @property
    def key(self) -> tuple[str, str]:
        """The (workload, policy label) grid key.

        Non-default organizations suffix the label so the same policy
        over different redundancy schemes occupies distinct grid cells.
        """
        if self.organization != "raid5":
            return (self.workload, f"{self.policy.label}@{self.organization}")
        return (self.workload, self.policy.label)

    def to_config(self) -> dict:
        """The flat, JSON-stable dict hashed into the cache key."""
        config = dataclasses.asdict(self)
        config["policy"] = dataclasses.asdict(self.policy)
        if config["organization"] == "raid5":
            # Keep the default-organization config byte-identical to what
            # was hashed before the knob existed.
            del config["organization"]
        return config


# -- cache keys -------------------------------------------------------------------


def cache_key(spec: CellSpec) -> str:
    """Content address of one cell: config + schema + code fingerprint."""
    payload = {
        "schema": CACHE_SCHEMA,
        "code": code_fingerprint(),
        "cell": spec.to_config(),
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


# -- execution --------------------------------------------------------------------


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C landed mid-sweep; pending cells were cancelled cleanly.

    Subclasses :class:`KeyboardInterrupt` so callers that don't care still
    unwind the usual way, while the CLI can report how far the sweep got
    instead of dumping a traceback.  Cells completed before the interrupt
    were already written through to the cache, so a rerun resumes there.
    """

    def __init__(self, completed: int, total: int) -> None:
        super().__init__(f"interrupted after {completed}/{total} cells")
        self.completed = completed
        self.total = total


@dataclasses.dataclass
class CellOutcome:
    """What :class:`CellExecutor` hands the per-cell callback.

    Exactly one of ``result`` / ``error`` is set.  ``attempts`` counts
    pool submissions (> 1 means the cell survived a worker crash);
    ``from_cache`` marks cells answered by the content-addressed cache
    without ever reaching a worker.
    """

    spec: CellSpec
    result: ExperimentResult | None = None
    error: str | None = None
    from_cache: bool = False
    attempts: int = 0


class _CellTicket:
    """One submitted cell's handle: cancellation flag + retry count."""

    __slots__ = ("spec", "key", "callback", "attempts", "cancelled")

    def __init__(self, spec: CellSpec, key: str | None, callback) -> None:
        self.spec = spec
        self.key = key
        self.callback = callback
        self.attempts = 0
        self.cancelled = False


class CellExecutor:
    """A persistent worker pool executing cells one callback at a time.

    This is ``run_cells``'s engine, factored out so long-lived callers
    (the ``afraid-sim serve`` job manager) can drive cells incrementally:
    submit whenever work arrives, observe each completion the moment it
    happens, and keep the pool warm across submissions instead of paying
    process startup per sweep.

    Guarantees:

    * **Cache write-through** — a finished cell is written to the store
      before its callback fires, so identical future cells are cache
      hits.  The write is best effort: a failed one (a full disk) is a
      later miss, never a lost callback.
    * **Crash-safe requeue** — a worker dying mid-cell (``os._exit``,
      OOM-kill, segfault) breaks the whole ``ProcessPoolExecutor``; the
      executor rebuilds the pool and resubmits every in-flight cell, up
      to ``max_attempts`` tries each, before reporting failure.
    * **Ordinary exceptions stay fatal** — a cell that *raises* is
      deterministic (fresh simulator, explicit seed) and would fail again,
      so it is reported immediately rather than retried.
    * **A raising callback stops nothing** — it is logged, and the
      dispatcher goes on serving every later cell.

    Callbacks run on the dispatcher thread; keep them short.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: CheckpointStore | None = None,
        cell_fn: typing.Callable[[CellSpec], ExperimentResult] | None = None,
        max_attempts: int = 3,
        on_worker_restart: typing.Callable[[], None] | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.jobs = jobs
        self.cache = cache
        self.cell_fn = cell_fn if cell_fn is not None else run_cell
        self.max_attempts = max_attempts
        self.on_worker_restart = on_worker_restart
        self.worker_restarts = 0
        self._queue: collections.deque[_CellTicket] = collections.deque()
        self._wake = threading.Condition()
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._discard = False
        self._inflight_count = 0

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "CellExecutor":
        """Start the dispatcher thread (idempotent); returns self."""
        with self._wake:
            if self._thread is None:
                self._stopping = False
                self._thread = threading.Thread(
                    target=self._dispatch_loop, name="cell-executor", daemon=True
                )
                self._thread.start()
        return self

    def shutdown(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the dispatcher.

        ``drain=True`` finishes every queued and in-flight cell first
        (callbacks included); ``drain=False`` discards the queue and
        abandons in-flight work without waiting for it.
        """
        with self._wake:
            self._stopping = True
            self._discard = not drain
            if self._discard:
                for ticket in self._queue:
                    ticket.cancelled = True
                self._queue.clear()
            self._wake.notify_all()
            thread = self._thread
        if thread is not None:
            thread.join(timeout)
        pool = self._pool
        if pool is not None:
            pool.shutdown(wait=drain, cancel_futures=not drain)
            self._pool = None

    # -- submission --------------------------------------------------------------

    def probe_cache(self, spec: CellSpec) -> tuple[str | None, ExperimentResult | None]:
        """The cell's cache key and its cached result, if any."""
        if self.cache is None:
            return None, None
        key = cache_key(spec)
        return key, self.cache.load(key)

    def submit(
        self,
        spec: CellSpec,
        callback: typing.Callable[[CellOutcome], None],
        key: str | None = None,
        probe_cache: bool = True,
    ) -> _CellTicket:
        """Queue one cell; ``callback`` fires exactly once with its outcome.

        When ``probe_cache`` is true and the cell is already cached, the
        callback fires synchronously on the *calling* thread with
        ``from_cache=True`` — the warm path never touches the queue, the
        dispatcher, or the worker pool.
        """
        if probe_cache and self.cache is not None:
            if key is None:
                key = cache_key(spec)
            hit = self.cache.load(key)
            if hit is not None:
                ticket = _CellTicket(spec, key, callback)
                callback(CellOutcome(spec=spec, result=hit, from_cache=True))
                return ticket
        ticket = _CellTicket(spec, key, callback)
        with self._wake:
            if self._stopping:
                raise RuntimeError("CellExecutor is shut down")
            self._queue.append(ticket)
            self._wake.notify_all()
        return ticket

    def cancel(self, ticket: _CellTicket) -> None:
        """Drop a queued cell; an already-running cell finishes silently."""
        ticket.cancelled = True

    @property
    def queue_depth(self) -> int:
        """Cells waiting for a worker (in-flight cells not included)."""
        return len(self._queue)

    @property
    def inflight(self) -> int:
        """Cells currently running on a worker."""
        return self._inflight_count

    # -- dispatcher --------------------------------------------------------------

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _restart_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            self.worker_restarts += 1
            if self.on_worker_restart is not None:
                self.on_worker_restart()

    def _finish(self, ticket: _CellTicket, outcome: CellOutcome) -> None:
        if outcome.result is not None and self.cache is not None and ticket.key is not None:
            self.cache.store(ticket.key, outcome.result)
        if not ticket.cancelled:
            try:
                ticket.callback(outcome)
            except Exception:
                # The dispatcher serves every later cell: a raising
                # callback is reported, not fatal.
                _log.exception("callback for cell %s raised", ticket.spec.key)

    def _dispatch_loop(self) -> None:
        try:
            self._dispatch()
        finally:
            with self._wake:
                self._thread = None  # start() may revive the dispatcher

    def _dispatch(self) -> None:
        inflight: dict[concurrent.futures.Future, _CellTicket] = {}
        while True:
            with self._wake:
                while not self._stopping and not self._queue and not inflight:
                    self._wake.wait()
                if self._stopping and self._discard:
                    # Abandon in-flight work: tickets are cancelled so their
                    # callbacks never fire; the workers' current cells finish
                    # in the background and are discarded.
                    for ticket in inflight.values():
                        ticket.cancelled = True
                    break
                if self._stopping and not inflight and not self._queue:
                    break
                while self._queue and len(inflight) < self.jobs:
                    ticket = self._queue.popleft()
                    if ticket.cancelled:
                        continue
                    ticket.attempts += 1
                    try:
                        future = self._ensure_pool().submit(self.cell_fn, ticket.spec)
                    except concurrent.futures.BrokenExecutor:
                        self._restart_pool()
                        ticket.attempts -= 1
                        self._queue.appendleft(ticket)
                        continue
                    inflight[future] = ticket
                self._inflight_count = len(inflight)
            if not inflight:
                continue
            done, _not_done = concurrent.futures.wait(
                inflight, timeout=0.5, return_when=concurrent.futures.FIRST_COMPLETED
            )
            requeue: list[_CellTicket] = []
            for future in done:
                ticket = inflight.pop(future)
                try:
                    result = future.result()
                except concurrent.futures.BrokenExecutor:
                    # The worker died (os._exit / kill / segfault): the pool
                    # is unusable and every sibling future will fail the same
                    # way as it drains through `done` on later iterations.
                    self._restart_pool()
                    if ticket.cancelled:
                        continue
                    if ticket.attempts >= self.max_attempts:
                        self._finish(
                            ticket,
                            CellOutcome(
                                spec=ticket.spec,
                                error=(
                                    f"worker crashed {ticket.attempts} times running "
                                    f"{ticket.spec.key}"
                                ),
                                attempts=ticket.attempts,
                            ),
                        )
                    else:
                        requeue.append(ticket)
                except Exception as exc:
                    self._finish(
                        ticket,
                        CellOutcome(
                            spec=ticket.spec,
                            error=f"{type(exc).__name__}: {exc}",
                            attempts=ticket.attempts,
                        ),
                    )
                else:
                    self._finish(
                        ticket,
                        CellOutcome(spec=ticket.spec, result=result, attempts=ticket.attempts),
                    )
            with self._wake:
                self._inflight_count = len(inflight)
                if requeue and not self._discard:
                    self._queue.extendleft(reversed(requeue))
                self._wake.notify_all()


@dataclasses.dataclass
class SweepOutcome:
    """A finished sweep: the grid plus where each cell came from."""

    results: dict[tuple[str, str], ExperimentResult]
    simulated: int
    cached: int
    wall_s: float

    def __getitem__(self, key: tuple[str, str]) -> ExperimentResult:
        return self.results[key]


def run_cell(spec: CellSpec, checkpoint_dir: str | None = None) -> ExperimentResult:
    """Simulate one cell (the process-pool work function).

    ``checkpoint_dir`` names a :class:`~repro.harness.checkpoint.
    CheckpointStore` and answers the cell from its first rung that hits:
    the cell entry under :func:`cache_key` (one keyed read, before any
    array is built or trace synthesised), then the stored final of an
    identical replay, then the deepest stored cut matching the trace
    (a longer-``duration_s`` variant pays only the un-simulated suffix),
    then a cold replay.  A miss writes the cell entry.  The store is
    deliberately *not* part of the cell's key — it changes where the work
    happens, never the result.  Thread it into a :class:`CellExecutor`
    with ``functools.partial(run_cell, checkpoint_dir=...)`` (picklable,
    so it crosses the process pool).
    """
    if checkpoint_dir is None:
        return run_spec(spec)
    store = CheckpointStore(checkpoint_dir)
    key = cache_key(spec)
    result = store.load(key)
    if result is None:
        result = run_spec(spec, checkpoint_dir=checkpoint_dir)
        store.store(key, result)
    return result


def run_spec(spec: CellSpec, workload: "Trace | None" = None, **kwargs) -> ExperimentResult:
    """Run one cell in this process, with no result store.

    ``workload`` (a :class:`~repro.traces.Trace`) stands in for the trace
    the spec names, as the CLI's generic workloads do.  ``kwargs`` go to
    :func:`run_experiment`: observers, counters, or a ``checkpoint_dir``
    whose finals and cuts the replay resumes from.
    """
    return run_experiment(
        spec.workload if workload is None else workload,
        spec.policy.build(),
        duration_s=spec.duration_s,
        seed=spec.seed,
        ndisks=spec.ndisks,
        stripe_unit_sectors=spec.stripe_unit_sectors,
        organization=spec.organization,
        idle_threshold_s=spec.idle_threshold_s,
        extra_settle_s=spec.extra_settle_s,
        **kwargs,
    )


def cell_store(
    cache_dir: str | os.PathLike | None, checkpoint_dir: str | os.PathLike | None
) -> tuple[CheckpointStore | None, typing.Callable[[CellSpec], ExperimentResult]]:
    """The store whose cell entries answer cells up front, and the cell function for misses.

    ``cache_dir``'s store answers when given, and a miss runs ``run_cell``
    with ``checkpoint_dir``.  Without ``cache_dir``, ``checkpoint_dir``'s
    own cell entries answer instead, so a warm cell counts as cached: it
    is one read, and a cold cell only replays through the store's finals
    and cuts (:func:`run_spec`) before the caller writes its one cell entry.
    """
    if checkpoint_dir is None:
        return (None if cache_dir is None else CheckpointStore(cache_dir)), run_cell
    checkpoint_dir = os.fspath(checkpoint_dir)
    if cache_dir is None:
        return (
            CheckpointStore(checkpoint_dir),
            functools.partial(run_spec, checkpoint_dir=checkpoint_dir),
        )
    return CheckpointStore(cache_dir), functools.partial(run_cell, checkpoint_dir=checkpoint_dir)


def run_cells(
    specs: typing.Sequence[CellSpec],
    jobs: int = 1,
    cache_dir: str | os.PathLike | None = None,
    counters: PerfCounters | None = None,
    checkpoint_dir: str | None = None,
) -> SweepOutcome:
    """Run every cell, in parallel when ``jobs > 1``, through the store.

    Results are keyed by ``(workload, policy label)``.  ``jobs`` counts
    worker processes.  ``cache_dir`` names a
    :class:`~repro.harness.checkpoint.CheckpointStore` whose cell entries
    answer finished cells before any reaches a worker, so a warm rerun is
    pure I/O; every simulated cell is written back.  ``checkpoint_dir``
    hands each remaining cell to ``run_cell(spec, checkpoint_dir=...)``,
    which answers it from that store's first rung that hits; with no
    ``cache_dir``, that store's cell entries answer up front instead (see
    :func:`cell_store`).  Cell order never affects results — each cell
    is a fresh simulator with its own explicitly-seeded RNG.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    started = time.perf_counter()
    cache, cell_fn = cell_store(cache_dir, checkpoint_dir)
    results: dict[tuple[str, str], ExperimentResult] = {}
    pending: list[tuple[CellSpec, str | None]] = []

    for spec in specs:
        key = cache_key(spec) if cache is not None else None
        hit = cache.load(key) if cache is not None else None
        if hit is not None:
            results[spec.key] = hit
        else:
            pending.append((spec, key))

    cached = len(results)
    if counters is not None:
        counters.count("cells_cached", cached)

    if pending:
        completed = 0
        if jobs == 1:
            try:
                for spec, key in pending:
                    result = cell_fn(spec)
                    results[spec.key] = result
                    if cache is not None and key is not None:
                        cache.store(key, result)
                    completed += 1
            except KeyboardInterrupt:
                raise SweepInterrupted(cached + completed, len(specs)) from None
        else:
            executor = CellExecutor(jobs=jobs, cache=cache, cell_fn=cell_fn).start()
            outcomes: list[CellOutcome] = []
            done = threading.Event()

            def collect(outcome: CellOutcome) -> None:
                outcomes.append(outcome)
                if len(outcomes) == len(pending):
                    done.set()

            try:
                for spec, key in pending:
                    executor.submit(spec, collect, key=key, probe_cache=False)
                while not done.wait(0.2):
                    pass
            except KeyboardInterrupt:
                executor.shutdown(drain=False)
                raise SweepInterrupted(cached + len(outcomes), len(specs)) from None
            executor.shutdown(drain=True)
            for outcome in outcomes:
                if outcome.error is not None:
                    raise RuntimeError(
                        f"cell {outcome.spec.key} failed: {outcome.error}"
                    )
            # Completion order is nondeterministic; key the grid in spec order.
            by_spec = {id(outcome.spec): outcome.result for outcome in outcomes}
            for spec, _key in pending:
                results[spec.key] = by_spec[id(spec)]

    if counters is not None:
        counters.count("cells_simulated", len(pending))
        counters.count("ios_serviced", sum(r.reads + r.writes for r in results.values()))
    return SweepOutcome(
        results=results,
        simulated=len(pending),
        cached=cached,
        wall_s=time.perf_counter() - started,
    )


def merged_histograms(results: typing.Iterable[ExperimentResult]) -> HistogramSet:
    """Merge every result's latency histograms into one set.

    Merging is *exact*: bucket counts add elementwise, so the percentiles
    of the merged set equal those of a single-process run over the same
    cells — the property that makes ``jobs=4`` results trustworthy.
    Results without histograms (pre-observability cache entries) are
    skipped.
    """
    merged = HistogramSet()
    for result in results:
        hists = result.histogram_set()
        if hists is not None:
            merged.merge(hists)
    return merged


def merged_exposure_histograms(results: typing.Iterable[ExperimentResult]) -> HistogramSet:
    """Merge every result's dirty-dwell exposure histograms into one set.

    Same exact-merge guarantee as :func:`merged_histograms`, applied to
    the ``dirty_dwell*`` classes the per-worker
    :class:`~repro.obs.ExposureMonitor` recorded.  Results without
    exposure histograms (pre-exposure cache entries) are skipped.
    """
    merged = HistogramSet()
    for result in results:
        hists = result.exposure_histogram_set()
        if hists is not None:
            merged.merge(hists)
    return merged


def ladder_specs(
    workloads: typing.Sequence[str],
    targets: typing.Sequence[float],
    include_raid5: bool = True,
    include_raid0: bool = True,
    **cell_kwargs,
) -> list[CellSpec]:
    """The full (workload × policy ladder) grid as cell specs.

    Mirrors :func:`repro.harness.sweeps.policy_ladder`'s ordering: RAID 5,
    MTTDL_x targets tight to loose, baseline AFRAID, RAID 0.
    """
    policies: list[PolicySpec] = []
    if include_raid5:
        policies.append(PolicySpec("raid5"))
    for target in sorted(targets, reverse=True):
        policies.append(PolicySpec("mttdl", mttdl_target=target))
    policies.append(PolicySpec("afraid"))
    if include_raid0:
        policies.append(PolicySpec("raid0"))
    return [
        CellSpec(workload=workload, policy=policy, **cell_kwargs)
        for workload in workloads
        for policy in policies
    ]
