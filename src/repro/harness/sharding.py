"""Time-sliced trace replay with deterministic shard handoff.

A long trace is replayed as consecutive time slices ("shards"); the
complete simulation state at each slice boundary — disk head positions,
NVRAM mark memory, parity-lag integrals, caches, the event kernel itself
— is serialised and handed to the next shard, which resumes bit-exactly
where the previous one stopped.  The handoff payload is a pickle, so a
shard can run in a different worker process than its predecessor
(``submit`` below plugs into the sweep pool of :mod:`repro.harness.runner`).

Correctness contract: the sharded replay is **byte-identical** to
:func:`repro.harness.replay.replay_trace` on the same inputs, for any
shard count.  Three properties make that hold:

* **Quiescent cuts.**  A shard may only end when the simulator is
  completely empty — no heap entries, no current-instant bucket — and
  strictly before the next shard's first effective arrival.  Everything
  the drain dispatched (completions, idle declarations, scrub passes) is
  exactly what the unsharded run would have dispatched before that
  arrival, in the same order.  If the drain overruns the next arrival
  (e.g. the ATT trace's scarce idle windows), the cut is invalid and the
  slice is *extended* — in the limit a trace with no usable gap
  degenerates to one shard, which is trivially identical.
* **Arrival-chain replication.**  The open-loop feeder realises record
  ``k`` at ``A_k = A_{k-1} + (t_k - A_{k-1})`` — floating-point addition
  is not associative, so a resumed shard must not recompute the arrival
  from its own restore time.  The handoff carries ``last_arrival_s`` and
  the resumed feeder's first timer is scheduled at that exact chained
  instant (and with the same sequence-number budget: one timer, no
  bootstrap kick), so every later ``(time, seq)`` tie-break is unchanged.
* **Snapshot fidelity.**  The pickle round-trip preserves value state
  bit-for-bit (floats, dict/deque order, the pending-value sentinel —
  see ``_PendingType.__reduce__`` in :mod:`repro.sim.events`).  At a
  quiescent cut no generator frames are live, so the graph contains no
  unpicklable objects.

Sharding assumes a healthy run (no fault injection mid-trace) and no
attached observability sinks holding OS handles; ``replay_digest``
fingerprints the observable results for N-vs-1 determinism checks.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import os
import pickle
import struct
import typing

from repro.array.controller import DiskArray
from repro.array.batchplan import warm_extent_cache
from repro.harness.replay import ReplayOutcome, _Feeder, gather
from repro.sim import Event, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.checkpoint import CheckpointScope
    from repro.traces import Trace

#: Pickle protocol for every shard handoff and checkpoint payload.
#: Pinned explicitly (not ``HIGHEST_PROTOCOL``) so payloads written by
#: one Python version are readable by another, and so the checkpoint
#: store can name the exact protocol it expects when rejecting entries
#: from a different repro build (see :mod:`repro.harness.checkpoint`).
PICKLE_PROTOCOL = 5


@dataclasses.dataclass
class ShardReplayResult:
    """Everything a sharded replay reports, as plain picklable values.

    The final shard may stop at the measurement horizon with background
    machinery (the scrub generator) suspended mid-flight, so the live
    simulator cannot cross the process boundary back to the caller —
    the counters, latency stream, and parity-lag integrals can.
    """

    outcome: ReplayOutcome
    stats: typing.Any  # repro.array.controller.ArrayStats
    disk_stats: list  # repro.disk.disk.DiskStats per member, in order
    #: (unprotected_fraction, mean_lag_bytes, peak_lag_bytes, total_time)
    parity_lag: tuple[float, float, float, float]
    #: Events dispatched by *this* run (not the whole simulated history):
    #: a checkpoint-resumed replay reports only its delta, and a full
    #: store hit reports 0.  Excluded from :func:`replay_digest` — it
    #: describes the run, not the simulated results.
    events_simulated: int = 0
    #: Extra per-run values collected by ``finish_shard``'s ``extras_fn``
    #: (e.g. histogram payloads for :func:`repro.harness.experiment`).
    extras: dict | None = None

    @classmethod
    def from_array(cls, array: DiskArray, outcome: ReplayOutcome) -> "ShardReplayResult":
        tracker = array.lag_tracker
        return cls(
            outcome=outcome,
            stats=array.stats,
            disk_stats=[disk.stats for disk in array.disks],
            parity_lag=(
                tracker.unprotected_fraction,
                tracker.mean_parity_lag_bytes,
                tracker.peak_parity_lag_bytes,
                tracker.total_time,
            ),
        )


@dataclasses.dataclass
class ShardHandoff:
    """Boundary state between consecutive shards.

    A handoff without a ``payload`` reports a cut search that found no
    valid cut: only its ``events`` are meaningful.
    """

    #: Pickle of ``(sim, array, requests, completions)`` at quiescence,
    #: or ``None`` when no valid cut exists (see :func:`advance_shard`).
    payload: bytes | None
    #: Records consumed from the slice this shard was given (≥ the
    #: tentative count when an invalid cut forced an extension).
    consumed: int = 0
    #: Effective arrival instant of the last submitted record (the
    #: feeder's float chain value, not the nominal record timestamp).
    last_arrival_s: float = 0.0
    #: Simulated time at the quiescent cut.
    cut_time_s: float = 0.0
    #: Events this shard step dispatched, extension retries included.
    events: int = 0


@contextlib.contextmanager
def _gc_paused():
    """Suspend cyclic GC for a bounded replay burst (see replay_trace)."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        yield
    finally:
        if paused:
            gc.enable()


def _snapshot(sim, array, requests, completions) -> bytes:
    return pickle.dumps(
        (sim, array, requests, completions), protocol=PICKLE_PROTOCOL
    )


def _arm_feeder(sim, array, records, requests, completions, first_shard, last_arrival_s):
    """Start the slice's feeder; returns its done event.

    The first shard boots exactly like :func:`replay_trace` (bootstrap
    kick, one sequence number).  A resumed shard instead schedules the
    inter-arrival timer the unsharded feeder would have armed at the
    previous record's wake: same chained fire time, same single sequence
    number, no kick.
    """
    warm_extent_cache(array.layout, records)
    feeder = _Feeder(sim, array, records, requests, completions)
    if first_shard:
        return feeder.start()
    target = last_arrival_s + (records[0].time_s - last_arrival_s)
    timer = Event(sim)
    timer.add_callback(feeder._fire)
    sim.trigger_at(timer, target)
    return feeder.done


def advance_shard(
    payload: bytes,
    remaining: list,
    tentative: int,
    first_shard: bool,
    last_arrival_s: float,
) -> ShardHandoff:
    """Replay a prefix of ``remaining`` records and cut at quiescence.

    ``tentative`` is the requested slice length; the actual cut extends
    past it whenever draining to quiescence would overrun the next
    arrival (the validity condition above).  Runs from — and, on an
    invalid cut, retries from — the ``payload`` snapshot, so the final
    attempt is the only one that leaves a trace in the returned state.

    Returns a handoff without a payload when the extension consumes
    every remaining record without finding a valid cut — i.e. from this
    start there is no quiescent gap at all; its ``events`` still count
    the simulation the search spent.  The caller must then fold the whole
    tail into the final shard: a cut may only land *between* arrivals,
    never past the trace's end, because the closing flow
    (:func:`finish_shard`) clamps at the measurement horizon whereas a
    quiescence drain would run trailing background work (the AFRAID
    scrub) to exhaustion — beyond what the horizon admits.
    """
    total = len(remaining)
    stop = tentative
    events = 0
    with _gc_paused():
        while stop < total:
            sim, array, requests, completions = pickle.loads(payload)
            base = sim.events_dispatched
            done = _arm_feeder(
                sim, array, remaining[:stop], requests, completions, first_shard, last_arrival_s
            )
            sim.run_until_triggered(done)
            arrival = sim._now
            sim.run()  # drain to complete quiescence
            events += sim.events_dispatched - base
            target = arrival + (remaining[stop].time_s - arrival)
            if sim._now < target:
                return ShardHandoff(
                    _snapshot(sim, array, requests, completions), stop, arrival, sim._now,
                    events,
                )
            # The tail (idle declaration, scrub pass) ran past the next
            # arrival: the unsharded run would have interleaved them.  Extend
            # the slice beyond everything the drain overlapped and retry.
            extended = stop + 1
            while extended < total and remaining[extended].time_s <= sim._now:
                extended += 1
            stop = extended
    return ShardHandoff(payload=None, events=events)


def finish_shard(
    payload: bytes,
    remaining: list,
    first_shard: bool,
    last_arrival_s: float,
    duration_s: float,
    extra_settle_s: float,
    finalize: bool,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> bytes:
    """Replay the final slice and close the books like ``replay_trace``.

    ``extras_fn(sim, array)`` — a module-level (picklable) callable —
    runs after finalisation and its return value lands in
    ``ShardReplayResult.extras``; callers that need more than the
    counters (histogram payloads, end-state gauges) collect them here,
    on whichever side of the process boundary the final shard ran.

    Returns a pickle of the :class:`ShardReplayResult`.
    """
    sim, array, requests, completions = pickle.loads(payload)
    base = sim.events_dispatched
    with _gc_paused():
        if remaining:
            done = _arm_feeder(
                sim, array, remaining, requests, completions, first_shard, last_arrival_s
            )
            sim.run_until_triggered(done)
        outcomes = sim.run_until_triggered(gather(sim, completions))
        failures = [value for ok, value in outcomes if not ok]
        horizon = max(duration_s, sim.now) + extra_settle_s
        sim.run(until=horizon)
    if finalize:
        array.finalize()
    outcome = ReplayOutcome(requests=requests, failures=failures, horizon_s=horizon)
    result = ShardReplayResult.from_array(array, outcome)
    result.events_simulated = sim.events_dispatched - base
    if extras_fn is not None:
        result.extras = extras_fn(sim, array)
    return pickle.dumps(result, protocol=PICKLE_PROTOCOL)


def replay_trace_sharded(
    sim: Simulator,
    array: DiskArray,
    trace: "Trace",
    shards: int = 1,
    extra_settle_s: float = 0.0,
    finalize: bool = True,
    submit: typing.Callable[..., typing.Any] | None = None,
    checkpoint: "CheckpointScope | None" = None,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> ShardReplayResult:
    """Replay ``trace`` in ``shards`` consecutive time slices.

    ``sim``/``array`` must be freshly built (nothing scheduled, nothing
    submitted).  ``submit(fn, *args)`` runs one shard step and returns its
    result — pass a pool adapter (e.g. ``lambda fn, *a:
    pool.submit(fn, *a).result()``) to execute each shard in a worker
    process; the default runs in-process.  Either way the handoff is the
    same pickled payload, so the in-process mode exercises (and proves)
    snapshot fidelity too.

    ``checkpoint`` — a :class:`repro.harness.checkpoint.CheckpointScope`
    — turns the replay incremental: the run resumes from the deepest
    stored quiescent cut whose record prefix matches this trace, every
    new cut (and the final result) is persisted as it is produced, and a
    byte-identical re-run returns the stored result without simulating
    at all.  The returned result is bit-identical to a cold replay for
    any store state; ``events_simulated`` reports how much simulation
    this particular run actually paid.

    Returns the :class:`ShardReplayResult` — byte-identical (see
    :func:`replay_digest`) to ``replay_trace`` on the same inputs for any
    ``shards`` ≥ 1.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if submit is None:
        def submit(fn, *args):
            return fn(*args)
    records = list(trace)
    duration_s = trace.duration_s
    if checkpoint is not None:
        stored = checkpoint.lookup_final(records, duration_s, extra_settle_s, finalize)
        if stored is not None:
            result = pickle.loads(stored)
            result.events_simulated = 0
            return result
    payload = _snapshot(sim, array, [], [])

    # Tentative cut indices at equal time slices of the nominal duration.
    cuts: list[int] = []
    total = len(records)
    for i in range(1, shards):
        t = duration_s * i / shards
        index = 0
        while index < total and records[index].time_s < t:
            index += 1
        if 0 < index < total:
            cuts.append(index)
    cuts = sorted(set(cuts))

    start = 0
    first_shard = True
    last_arrival = 0.0
    events = 0
    if checkpoint is not None:
        resumed = checkpoint.lookup_cut(records)
        if resumed is not None:
            payload = resumed.payload
            start = resumed.consumed
            last_arrival = resumed.last_arrival_s
            first_shard = False
    for cut in cuts:
        if cut <= start:  # an earlier extension (or a resume) covered this cut
            continue
        handoff = submit(
            advance_shard, payload, records[start:], cut - start, first_shard, last_arrival
        )
        events += handoff.events
        if handoff.payload is None:
            # No quiescent gap anywhere past this point; the rest of the
            # trace runs as one final shard.
            break
        payload = handoff.payload
        start += handoff.consumed
        last_arrival = handoff.last_arrival_s
        first_shard = False
        if checkpoint is not None:
            checkpoint.store_cut(records, start, handoff)
    final_payload = submit(
        finish_shard,
        payload,
        records[start:],
        first_shard,
        last_arrival,
        duration_s,
        extra_settle_s,
        finalize,
        extras_fn,
    )
    if checkpoint is not None:
        checkpoint.store_final(records, duration_s, extra_settle_s, finalize, final_payload)
    result = pickle.loads(final_payload)
    result.events_simulated += events
    return result


#: Policies a sharded replay can be parameterised with by name (the
#: spec-string surface used by the CLI and CI determinism checks; the
#: registry idiom matches repro.faults.campaign).
_POLICIES: dict[str, type] = {}


def _policy_registry() -> dict[str, type]:
    if not _POLICIES:
        from repro.policy import (
            AlwaysRaid5Policy,
            BaselineAfraidPolicy,
            NeverScrubPolicy,
        )

        _POLICIES.update(
            afraid=BaselineAfraidPolicy, raid5=AlwaysRaid5Policy, raid0=NeverScrubPolicy
        )
    return _POLICIES


def run_sharded_replay(
    workload: str,
    policy: str = "afraid",
    duration_s: float = 30.0,
    seed: int = 42,
    shards: int = 1,
    workers: int | None = None,
    checkpoint_dir: str | None = None,
    checkpoint_max_bytes: int | None = None,
) -> tuple[ShardReplayResult, str]:
    """Build a fresh paper-configuration array and replay ``workload`` sharded.

    ``workers > 0`` runs each shard step in a process pool (the handoff
    travels through real pickled IPC); ``workers == 0`` runs in-process,
    still pickling between shards.  ``workers=None`` (the default) picks
    ``min(shards, os.cpu_count())`` — a multi-shard replay uses the pool
    automatically — except for the single-shard case, which stays
    in-process.  Returns the result and its :func:`replay_digest`
    fingerprint — byte-identical for every ``(shards, workers)``
    combination.

    ``checkpoint_dir`` names an on-disk :class:`~repro.harness.checkpoint.
    CheckpointStore`: quiescent cuts and the final result are persisted
    there and re-runs resume from the deepest matching prefix.
    ``checkpoint_max_bytes`` prunes the store's oldest entries past that
    size after the run (mirroring the sweep cache's ``--cache-max-bytes``).
    """
    from repro.array.factory import build_array
    from repro.traces.catalog import make_trace

    policy_cls = _policy_registry().get(policy)
    if policy_cls is None:
        raise ValueError(
            f"unknown policy {policy!r}; choose from {sorted(_policy_registry())}"
        )
    if workers is None:
        workers = min(shards, os.cpu_count() or 1) if shards > 1 else 0
    sim = Simulator()
    array = build_array(sim, policy_cls())
    trace = make_trace(
        workload,
        duration_s=duration_s,
        seed=seed,
        address_space_sectors=array.layout.total_data_sectors,
    )
    scope = None
    store = None
    if checkpoint_dir is not None:
        from repro.harness.checkpoint import CheckpointStore

        store = CheckpointStore(checkpoint_dir)
        scope = store.scope(
            {
                "surface": "run_sharded_replay",
                "workload": workload,
                "seed": seed,
                "policy": policy,
                "array": "paper-default",
            }
        )
    if workers > 0:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            result = replay_trace_sharded(
                sim, array, trace, shards=shards,
                submit=lambda fn, *fnargs: pool.submit(fn, *fnargs).result(),
                checkpoint=scope,
            )
    else:
        result = replay_trace_sharded(sim, array, trace, shards=shards, checkpoint=scope)
    if store is not None and checkpoint_max_bytes is not None:
        store.prune(checkpoint_max_bytes)
    return result, replay_digest(result)


def replay_digest(result: ShardReplayResult) -> str:
    """Order-sensitive fingerprint of a replay's observable results.

    Covers the per-request latency stream (exact doubles, in completion
    order), every controller counter, each member disk's mechanical
    integrals, the parity-lag integrals, and the horizon — the same
    surface the golden-replay gate asserts on.  Equal digests mean the
    runs were byte-identical as far as any consumer can tell.
    """
    digest = hashlib.sha256()
    stats = dataclasses.asdict(result.stats)
    io_times = stats.pop("io_times")
    digest.update(struct.pack(f"<{len(io_times)}d", *io_times))
    for key in sorted(stats):
        digest.update(f"{key}={stats[key]};".encode())
    for d in result.disk_stats:
        digest.update(
            struct.pack(
                "<4d4q",
                d.busy_time, d.seek_time, d.rotational_latency, d.transfer_time,
                d.reads, d.writes, d.sectors_read, d.sectors_written,
            )
        )
    digest.update(struct.pack("<4d", *result.parity_lag))
    digest.update(struct.pack("<d", result.outcome.horizon_s))
    return digest.hexdigest()
