"""Time-sliced trace replay with deterministic shard handoff.

A long trace is replayed as consecutive time slices ("shards"); the
complete simulation state at each slice boundary — disk head positions,
NVRAM mark memory, parity-lag integrals, caches, the event kernel itself
— is handed to the next shard, which resumes bit-exactly where the
previous one stopped.  The steps run one after another in one live
simulation, each needing the state the previous one left, so a shard
count only says where to look for cuts; it buys no parallelism (that
lives across cells, in :mod:`repro.harness.runner`).  The handoff is the
live ``(sim, array, requests, completions)`` tuple, and a checkpoint
store (:mod:`repro.harness.checkpoint`) pickles it to disk so a later
run resumes from it.  A shard step runs the replay driver's two steps
on that state: :func:`~repro.harness.replay.feed_trace` up to its cut, and
:func:`~repro.harness.replay.close_replay` once the trace is fed, so a
one-shard replay is exactly :func:`~repro.harness.replay.replay_trace`.

Correctness contract: the sharded replay is **byte-identical** to
:func:`repro.harness.replay.replay_trace` on the same inputs, for any
shard count.  Three properties make that hold:

* **Quiescent cuts.**  A shard step ends at an arrival, never between
  events: the feeder pauses at the first arrival of a record at or past
  the step's tentative cut index that finds the simulator otherwise
  empty — no heap entries, no current-instant bucket — before submitting
  that record.  Cuts are found online, in the one live simulation: the
  paused state *is* the unsharded run's state at that arrival, so every
  pause is a valid cut and nothing is simulated twice.  A trace with no
  such arrival past the cut index (e.g. the ATT trace's scarce idle
  windows) simply runs on, and the step that reaches the end of the
  trace closes the books in the same simulation.
* **Arrival-chain replication.**  The open-loop feeder realises record
  ``k`` at ``A_k = A_{k-1} + (t_k - A_{k-1})`` — floating-point addition
  is not associative, so a resumed shard must not recompute an arrival.
  It does not have to: the clock of a paused state already reads the
  chained instant of the paused record, and the next shard resumes by
  firing the feeder in place at that instant (no timer, no sequence
  number, no dispatched event), so every later ``(time, seq)``
  tie-break is unchanged.
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

import dataclasses
import hashlib
import struct
import typing

from repro.array.controller import DiskArray
from repro.array.factory import PAPER_NDISKS, build_array
# Unused here (feed_trace warms the cache): the repo benchmark's ledger
# wraps the name in this module.
from repro.array.batchplan import warm_extent_cache  # noqa: F401
from repro.harness.replay import ReplayOutcome, close_replay, feed_trace, gc_paused
from repro.sim import Simulator
from repro.spec import check_organization

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.harness.checkpoint import CheckpointScope
    from repro.traces import Trace


@dataclasses.dataclass
class ShardReplayResult:
    """Everything a sharded replay reports, as plain picklable values.

    The final shard may stop at the measurement horizon with background
    machinery (the scrub generator) suspended mid-flight, so the live
    simulator cannot be pickled into a stored final — the counters,
    latency stream, and parity-lag integrals can.
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
    #: Extra per-run values collected by the closing step's ``extras_fn``
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
    """A shard step paused at a quiescent cut."""

    #: ``(sim, array, requests, completions)``, paused at the arrival of
    #: record ``consumed``.
    state: tuple
    #: Index of the record the step paused at: the records before it
    #: are submitted, it is not.
    consumed: int
    #: Events this shard step dispatched.
    events: int


def _close(
    state: tuple, base: int, closing: tuple, extras_fn: typing.Callable[..., dict] | None
) -> ShardReplayResult:
    """Close a fully fed replay (:func:`close_replay`) and build the result."""
    sim, array = state[0], state[1]
    result = ShardReplayResult.from_array(array, close_replay(state, *closing))
    result.events_simulated = sim.events_dispatched - base
    if extras_fn is not None:
        result.extras = extras_fn(sim, array)
    return result


def advance_shard(
    state: tuple,
    records: list,
    start: int,
    cut: int,
    duration_s: float,
    extra_settle_s: float,
    finalize: bool,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> "ShardHandoff | ShardReplayResult":
    """Replay ``records`` from ``start`` to the first quiescent cut at or past ``cut``.

    ``state`` is ``(sim, array, requests, completions)``, freshly built
    for ``start == 0`` and otherwise paused at the arrival of record
    ``start``.  Returns the :class:`ShardHandoff` of the pause.  A search
    that reaches the end of the trace without one closes the books in the
    same simulation instead and returns :func:`finish_shard`'s result.
    """
    sim = state[0]
    base = sim.events_dispatched
    with gc_paused():
        consumed = feed_trace(state, records, start, cut)
        if consumed == len(records):
            return _close(state, base, (duration_s, extra_settle_s, finalize), extras_fn)
    return ShardHandoff(state, consumed, sim.events_dispatched - base)


def finish_shard(
    state: tuple,
    records: list,
    start: int,
    duration_s: float,
    extra_settle_s: float,
    finalize: bool,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> ShardReplayResult:
    """Replay ``records`` from ``start`` and close the books like ``replay_trace``.

    ``extras_fn(sim, array)`` runs after finalisation and its return
    value lands in ``ShardReplayResult.extras``; callers that need more
    than the counters (histogram payloads, end-state gauges) collect them
    here.
    """
    base = state[0].events_dispatched
    with gc_paused():
        feed_trace(state, records, start)
        return _close(state, base, (duration_s, extra_settle_s, finalize), extras_fn)


def replay_trace_sharded(
    sim: Simulator,
    array: DiskArray,
    trace: "Trace",
    shards: int = 1,
    extra_settle_s: float = 0.0,
    finalize: bool = True,
    checkpoint: "CheckpointScope | None" = None,
    extras_fn: typing.Callable[..., dict] | None = None,
) -> ShardReplayResult:
    """Replay ``trace`` in ``shards`` consecutive time slices.

    ``sim``/``array`` must be freshly built (nothing scheduled, nothing
    submitted).  Every step runs in-process on the one live simulation:
    ``shards`` only says where to look for quiescent cuts (equal slices
    of the nominal duration), which is where a ``checkpoint`` stores
    them.

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
    records = list(trace)
    duration_s = trace.duration_s
    #: What closes the books, and keys a stored final result.
    closing = (duration_s, extra_settle_s, finalize)
    if checkpoint is not None:
        stored = checkpoint.lookup_final(records, *closing)
        if stored is not None:
            stored.events_simulated = 0
            return stored

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

    state = (sim, array, [], [])
    start = 0
    if checkpoint is not None:
        resumed = checkpoint.lookup_cut(records)
        if resumed is not None:
            start, state = resumed
    events = 0
    result = None
    for cut in cuts:
        if cut <= start:  # an earlier pause (or a resume) covered this cut
            continue
        step = advance_shard(state, records, start, cut, *closing, extras_fn)
        if isinstance(step, ShardReplayResult):
            # No quiescent arrival anywhere past this point: the step ran
            # the rest of the trace and closed the books.
            result = step
            break
        events += step.events
        state, start = step.state, step.consumed
        if checkpoint is not None:
            checkpoint.store_cut(records, start, state)
    if result is None:
        result = finish_shard(state, records, start, *closing, extras_fn)
    if checkpoint is not None:
        checkpoint.store_final(records, *closing, result)
    result.events_simulated += events
    return result


def run_sharded_replay(
    workload: str,
    policy: str = "afraid",
    duration_s: float = 30.0,
    seed: int = 42,
    shards: int = 1,
    checkpoint_dir: str | None = None,
    checkpoint_max_bytes: int | None = None,
    organization: str = "raid5",
    ndisks: int | None = None,
) -> tuple[ShardReplayResult, str]:
    """Build a fresh array and replay ``workload`` in ``shards`` slices.

    The array is ``organization`` over ``ndisks`` disks (``None``: the
    organization's default count), the paper's 5-disk RAID 5 by default.
    Returns the result and its :func:`replay_digest` fingerprint —
    byte-identical for every shard count, which only says where to look
    for cuts.

    ``checkpoint_dir`` names an on-disk :class:`~repro.harness.checkpoint.
    CheckpointStore`: quiescent cuts and the final result are persisted
    there and re-runs resume from the deepest matching prefix.
    ``checkpoint_max_bytes`` prunes the store's oldest entries past that
    size after the run (mirroring the sweep cache's ``--cache-max-bytes``).
    """
    from repro.harness.runner import PolicySpec  # the runner imports this module
    from repro.traces.catalog import make_trace

    _org, ndisks = check_organization(organization, ndisks)
    sim = Simulator()
    array = build_array(sim, PolicySpec(policy).build(), ndisks=ndisks, organization=organization)
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
                # The paper's array keeps the key it had before the
                # organization knob, so its stores still resume.
                "array": (
                    "paper-default"
                    if (organization, ndisks) == ("raid5", PAPER_NDISKS)
                    else {"organization": organization, "ndisks": ndisks}
                ),
            }
        )
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
