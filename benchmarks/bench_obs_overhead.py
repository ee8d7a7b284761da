"""The disabled-observability paths must be near-free.

The driver's span hooks sit in its drain — :meth:`DiskDriver._step`
settles each command and :meth:`DiskDriver._park` parks on the next, once
per disk command, the hottest loop in the simulator.  The first bench
times the stock driver (no observer: ``traced_obs`` is ``None``) against
a control subclass whose drain is the same code with the observer
branches deleted outright; the second does the same for the array's
mark and parity-lag hooks.  Each asserts the disabled path costs < 3% —
the bar the hooks were designed to (one attribute load and one
``is not None`` test per site).  Control
and stock rounds alternate, so host drift hits both alike, and each
control counts its own calls to prove the override really ran.

Run explicitly with ``pytest benchmarks/bench_obs_overhead.py``; CI runs it
as part of the bench smoke.
"""

import time

from repro.array import toy_array
from repro.array.controller import DiskArray
from repro.array.request import ArrayRequest
from repro.disk import DiskIO, IoKind, toy_disk
from repro.disk.vector import VECTOR_MIN, batch_service_parts
from repro.sched import DiskDriver, FcfsScheduler
from repro.sim import AllOf, Simulator

#: Generous vs the design target (~1.00x): absorbs timer noise in CI while
#: still catching anything that puts real work on the disabled path.
MAX_OVERHEAD_RATIO = 1.03

N_IOS = 4000
ROUNDS = 7


def best_pair(control, stock, rounds=ROUNDS):
    """Minimum wall-clock of ``control()`` and of ``stock()`` over
    ``rounds`` alternating rounds — the minimum is the standard estimator
    for 'how fast can this go', immune to one-sided scheduling noise."""
    runs = (control, stock)
    best = [float("inf"), float("inf")]
    for round_ in range(rounds):
        for index in (0, 1) if round_ % 2 == 0 else (1, 0):
            start = time.perf_counter()
            runs[index]()
            best[index] = min(best[index], time.perf_counter() - start)
    return best[0], best[1]


class UninstrumentedDriver(DiskDriver):
    """The stock drain with its observer branches deleted, as the control.

    ``park_calls`` proves every command really went through the override.
    """

    park_calls = 0

    def _step(self, event):
        sim = self.sim
        disk = self.disk
        stats = self.stats
        wait = self._wait
        if wait is not None:
            if event is not wait:
                return
            self._wait = None
            if self._wait_is_completion:
                if event._exception is None:
                    stats.completed += 1
                else:
                    stats.failed += 1
        now = sim._now
        if disk._busy_until > now:
            timeout = sim.timeout(disk._busy_until - now)
            timeout.callbacks.append(self._step_cb)
            self._wait = timeout
            self._wait_is_completion = False
            return
        scheduler = self.scheduler
        batch = self._batch
        if batch and (disk._failed or disk._latent_errors):
            while batch:
                io, completion, submit_time, _timing = batch.pop()
                scheduler.push_front((io, completion, submit_time), io.lba)
        if batch:
            io, completion, submit_time, timing = batch.popleft()
        elif not scheduler:
            self._pumping = False
            return
        elif (
            type(scheduler) is FcfsScheduler
            and not disk.immediate_report
            and disk.readahead_segments == 0
            and not disk._failed
            and not disk._latent_errors
        ):
            queue = scheduler._queue
            depth = len(queue)
            if depth >= VECTOR_MIN:
                entries = [queue.popleft()[0] for _ in range(depth)]
                timings = batch_service_parts(disk, [entry[0] for entry in entries], now)
                batch.extend(
                    (entry[0], entry[1], entry[2], timing)
                    for entry, timing in zip(entries, timings)
                )
                io, completion, submit_time, timing = batch.popleft()
            else:
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
            self._park(io, disk.execute(io, completion))
            return
        stats.queue_time += now - submit_time
        self._park(io, disk.issue(io, completion, timing))

    def _park(self, io, completion):
        self.park_calls += 1
        completion.callbacks.append(self._step_cb)
        self._wait = completion
        self._wait_is_completion = True


def io_storm(driver_cls):
    sim = Simulator()
    disk = toy_disk(sim, cylinders=256)
    driver = driver_cls(sim, disk)
    events = [
        driver.submit(DiskIO(IoKind.READ, (i * 37) % (disk.geometry.total_sectors - 8), 8))
        for i in range(N_IOS)
    ]
    sim.run_until_triggered(AllOf(sim, events))
    assert driver.stats.completed == N_IOS
    if driver_cls is UninstrumentedDriver:
        assert driver.park_calls == N_IOS, "the control skipped its drain"


def test_disabled_tracer_overhead_is_under_three_percent():
    # Warm up each variant so JIT-less CPython cache effects (bytecode,
    # allocator arenas) hit both equally.
    io_storm(UninstrumentedDriver)
    io_storm(DiskDriver)
    control, stock = best_pair(
        lambda: io_storm(UninstrumentedDriver), lambda: io_storm(DiskDriver)
    )
    ratio = stock / control
    print(f"\ndisabled-path overhead: {ratio:.4f}x "
          f"(stock {stock * 1e3:.1f} ms vs control {control * 1e3:.1f} ms)")
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"disabled observability path costs {ratio:.3f}x "
        f"(allowed < {MAX_OVERHEAD_RATIO}x)"
    )


# -- observer branches on the array write path ------------------------------------------

N_WRITES = 900


class UninstrumentedArray(DiskArray):
    """The stock mark loop and lag bookkeeping without observer, as the control.

    Identical to the stock methods with the ``self.obs`` branches deleted
    outright.  Timing this against a stock array with no observer
    (``obs`` is ``None``) isolates what the observer hooks cost when
    disabled.  ``mark_runs_calls`` proves the write path really runs the
    override.
    """

    mark_runs_calls = 0

    def _mark_runs(self, stripe_items, mark_targets=None):
        self.mark_runs_calls += 1
        newly_marked = False
        marks = self.marks
        if mark_targets is not None:
            for stripe, sub_unit in mark_targets:
                newly_marked |= marks.mark(stripe, sub_unit)
        elif marks.bits_per_stripe == 1:
            for stripe, runs in stripe_items:
                for _run in runs:
                    newly_marked |= marks.mark(stripe, 0)
        else:
            for stripe, runs in stripe_items:
                for run in runs:
                    for sub_unit in self._sub_units_of(run):
                        newly_marked |= marks.mark(stripe, sub_unit)
        if newly_marked:
            self._lag_changed()

    def _lag_changed(self):
        if not self._finished:
            lag = self.parity_lag_bytes
            now = self.sim.now
            self.lag_tracker.record(now, lag)


def write_storm(control: bool):
    sim = Simulator()
    array = toy_array(sim, with_functional=False)
    if control:
        array.__class__ = UninstrumentedArray
    limit = array.layout.total_data_sectors - 8
    for i in range(N_WRITES):
        sim.run_until_triggered(
            array.submit(ArrayRequest(IoKind.WRITE, (i * 37) % limit, 8))
        )
    assert array.stats.writes_completed == N_WRITES
    if control:
        assert array.mark_runs_calls == N_WRITES, "the control skipped its mark loop"


def test_disabled_exposure_registry_overhead_is_under_three_percent():
    write_storm(control=True)
    write_storm(control=False)
    control, stock = best_pair(
        lambda: write_storm(control=True), lambda: write_storm(control=False)
    )
    ratio = stock / control
    print(f"\ndisabled observer overhead on writes: {ratio:.4f}x "
          f"(stock {stock * 1e3:.1f} ms vs control {control * 1e3:.1f} ms)")
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"disabled observer path on writes costs {ratio:.3f}x "
        f"(allowed < {MAX_OVERHEAD_RATIO}x)"
    )
