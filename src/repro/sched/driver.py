"""The back-end device driver: a queue pump in front of one disk.

The driver accepts :class:`~repro.disk.DiskIO` submissions at any time,
orders them with its queue discipline (FCFS in the paper's configuration),
and keeps the disk busy with one command at a time.  Completion events
carry the :class:`~repro.disk.ServiceBreakdown`; if the disk fails, queued
and in-flight commands fail with :class:`~repro.disk.DiskFailedError`.
"""

from __future__ import annotations

import dataclasses
import typing
from collections import deque

from repro.disk import DiskIO, MechanicalDisk
from repro.disk.vector import VECTOR_MIN, batch_service_parts
from repro.sched.queues import FcfsScheduler, IoScheduler
from repro.sim import Event, Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - optional observability
    from repro.obs.observer import Observer


@dataclasses.dataclass
class DriverStats:
    """Cumulative per-driver counters."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    queue_time: float = 0.0  # time spent waiting in the driver queue

    @property
    def mean_queue_time(self) -> float:
        done = self.completed + self.failed
        return self.queue_time / done if done else 0.0


class DiskDriver:
    """Serialises :class:`DiskIO` commands onto one mechanical disk.

    The drain is a chain of callbacks, not a process: it parks on one
    event at a time — the command in service's completion, or a busy-wait
    timeout while an immediately reported write finishes on the media —
    and :meth:`_step` runs as that event's callback.
    """

    def __init__(
        self,
        sim: Simulator,
        disk: MechanicalDisk,
        scheduler: IoScheduler | None = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.disk = disk
        self.scheduler: IoScheduler = scheduler if scheduler is not None else FcfsScheduler()
        self.name = name or f"driver({disk.name})"
        self._ev_done = f"{self.name}.done"
        self.stats = DriverStats()
        self._pumping = False
        #: The drain callback, bound once: it is appended to every disk
        #: completion, and each ``self._step`` reference would allocate a
        #: fresh bound-method object.
        self._step_cb = self._step
        #: The array's observer while it has a tracer (set by
        #: ``DiskArray.attach_observability``): a span per command.
        #: ``None`` (the default) keeps the drain's disabled path to one
        #: attribute load per command.
        self.traced_obs: "Observer | None" = None
        #: ``(completion, io, issue time)`` of the last command issued
        #: while a tracer was attached: its span opens at the issue.
        self._issued: tuple[Event, DiskIO, float] | None = None
        #: The event the drain is parked on, and whether it is a command
        #: completion (rather than a busy-wait timeout).
        self._wait: Event | None = None
        self._wait_is_completion = False
        #: Precomputed drain run: ``(io, completion, submit_time, timing)``
        #: entries popped from the scheduler whose service timings were
        #: computed in one vectorised pass (see repro.disk.vector).  Still
        #: logically queued — issued one per completion wake.
        self._batch: deque = deque()

    @property
    def queued(self) -> int:
        """Commands waiting in the driver queue (excludes the one in service).

        Counts the precomputed batch too: those commands are still queued
        as far as any observer (telemetry samplers) is concerned.
        """
        return len(self.scheduler) + len(self._batch)

    @property
    def busy(self) -> bool:
        """True while the drain is running or a command is in service."""
        return self._pumping

    def submit(self, io: DiskIO) -> Event:
        """Queue ``io``; the returned event fires at completion.

        The event's value is the :class:`~repro.disk.ServiceBreakdown`; it
        fails with :class:`~repro.disk.DiskFailedError` if the disk dies
        first.
        """
        sim = self.sim
        completion = Event(sim, self._ev_done)
        self.stats.submitted += 1
        now = sim._now
        disk = self.disk
        if self._pumping:
            self.scheduler.push((io, completion, now), io.lba)
        elif (
            type(self.scheduler) is FcfsScheduler
            and not disk.immediate_report
            and disk.readahead_segments == 0
            and not disk._failed
            and not disk._latent_errors
            and disk._busy_until <= now
        ):
            # Idle lane: the drain this submit would start takes _step's
            # scalar lane and issues this very command (an idle driver
            # has nothing queued), so skip the scheduler round trip and
            # the drain preamble.  The command's queue time is 0.0 and
            # the accumulator is never -0.0, so skipping that addition
            # is bit-identical.
            self._pumping = True
            timing = disk._service_parts(io.lba, io.nsectors, now)
            self._park(io, disk.issue(io, completion, timing))
        else:
            self.scheduler.push((io, completion, now), io.lba)
            self._pumping = True
            # The first drain step runs synchronously (no kick event): it
            # either issues this very command or parks on a busy-wait
            # timeout, neither of which interleaves with other
            # same-instant events.
            self._step(None)
        return completion

    def _step(self, event: Event | None) -> None:
        """One drain step: settle what the drain was parked on, then issue."""
        sim = self.sim
        disk = self.disk
        stats = self.stats
        wait = self._wait
        if wait is not None:
            if event is not wait:
                return  # stale wakeup (defensive; should not occur)
            self._wait = None
            if self._wait_is_completion:
                if event._exception is None:
                    stats.completed += 1
                else:
                    # The disk already failed the completion (whole-disk
                    # or latent-sector error); the command is accounted
                    # and the drive keeps serving the queue.
                    stats.failed += 1
                if self.traced_obs is not None:
                    self._trace_settled(event)
        now = sim._now
        # With immediate reporting the completion fires at the buffer
        # ack; wait out the mechanism before issuing the next command.
        if disk._busy_until > now:
            timeout = sim.timeout(disk._busy_until - now)
            timeout.callbacks.append(self._step_cb)
            self._wait = timeout
            self._wait_is_completion = False
            return
        scheduler = self.scheduler
        batch = self._batch
        if batch and (disk._failed or disk._latent_errors):
            # A mid-run fault invalidates the precomputed chain (the
            # timings assumed a healthy disk).  Hand the tail back to the
            # queue front — reverse pop order restores FCFS — and drain
            # through execute() below.
            while batch:
                io, completion, submit_time, _timing = batch.pop()
                scheduler.push_front((io, completion, submit_time), io.lba)
        if batch:
            io, completion, submit_time, timing = batch.popleft()
        elif not scheduler:
            # Nothing queued (the common completion wake): stop pumping.
            self._pumping = False
            return
        elif (
            type(scheduler) is FcfsScheduler
            and not disk.immediate_report
            and disk.readahead_segments == 0
            and not disk._failed
            and not disk._latent_errors
        ):
            # Fast lanes: eligibility pins down the execute() success
            # path exactly — no drive cache (readahead off), report at
            # media completion (immediate_report off), healthy disk — so
            # service timings are a pure function of the state right now
            # and the command goes straight to MechanicalDisk.issue.
            queue = scheduler._queue
            depth = len(queue)
            if depth >= VECTOR_MIN:
                # Vectorised: every queued command will be issued back to
                # back under FCFS; precompute the whole run's timings in
                # one pass (repro.disk.vector) and issue from the batch
                # one completion wake at a time.
                entries = [queue.popleft()[0] for _ in range(depth)]
                timings = batch_service_parts(disk, [entry[0] for entry in entries], now)
                batch.extend(
                    (entry[0], entry[1], entry[2], timing)
                    for entry, timing in zip(entries, timings)
                )
                io, completion, submit_time, timing = batch.popleft()
            else:
                # Scalar: shallow queues (light traces rarely go deeper
                # than 4) skip the array-op and batch bookkeeping.
                io, completion, submit_time = queue.popleft()[0]
                timing = disk._service_parts(io.lba, io.nsectors, now)
        else:
            head = (
                disk.geometry.physical_to_lba(disk.current_cylinder, 0, 0)
                if scheduler.uses_position
                else 0
            )
            (io, completion, submit_time), _position = scheduler.pop(head)
            stats.queue_time += now - submit_time
            # execute() takes every drive-level branch: a failed disk,
            # latent errors, the drive caches.
            self._park(io, disk.execute(io, completion))
            return
        stats.queue_time += now - submit_time
        self._park(io, disk.issue(io, completion, timing))

    def _park(self, io: DiskIO, completion: Event) -> None:
        """Park the drain on the completion of the command just issued."""
        if self.traced_obs is not None:
            self._issued = (completion, io, self.sim._now)
        completion.callbacks.append(self._step_cb)
        self._wait = completion
        self._wait_is_completion = True

    def _trace_settled(self, completion: Event) -> None:
        """Record a settled command: a disk span, or an ``io_failed`` instant."""
        issued = self._issued
        if issued is None or issued[0] is not completion:
            return  # issued before the tracer was attached
        self.traced_obs.disk_command(
            self.name, issued[1], issued[2], completion._exception is not None
        )
