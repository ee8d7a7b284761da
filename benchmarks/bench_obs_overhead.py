"""The disabled-observability path must be near-free.

The tracer hooks sit inside :meth:`DiskDriver._pump`, the hottest loop in
the simulator.  This bench times the stock driver (``tracer=None``) against
a control subclass whose pump has the tracer branches deleted outright, and
asserts the disabled path costs < 3% — the bar the hooks were designed to
(one attribute load and one ``is not None`` test per command).

Run explicitly with ``pytest benchmarks/bench_obs_overhead.py``; CI runs it
as part of the bench smoke.
"""

import time

from repro.array import toy_array
from repro.array.controller import DiskArray
from repro.array.request import ArrayRequest
from repro.disk import DiskIO, IoKind, toy_disk
from repro.sched import DiskDriver
from repro.sim import AllOf, Simulator

#: Generous vs the design target (~1.00x): absorbs timer noise in CI while
#: still catching anything that puts real work on the disabled path.
MAX_OVERHEAD_RATIO = 1.03

N_IOS = 4000
ROUNDS = 7


class UninstrumentedDriver(DiskDriver):
    """The pre-observability pump, kept verbatim as the timing control."""

    def _pump(self):
        try:
            while self.scheduler:
                head = self.disk.geometry.physical_to_lba(self.disk.current_cylinder, 0, 0)
                (io, completion, submit_time), _position = self.scheduler.pop(head)
                self.stats.queue_time += self.sim.now - submit_time
                try:
                    breakdown = yield self.disk.execute(io)
                except Exception as exc:  # mirrors DiskFailedError handling
                    self.stats.failed += 1
                    completion.fail(exc)
                else:
                    self.stats.completed += 1
                    completion.succeed(breakdown)
                    while self.disk.busy:
                        yield self.sim.timeout(self.disk.busy_until - self.sim.now)
        finally:
            self._pumping = False


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


def best_of(driver_cls, rounds=ROUNDS):
    """Minimum wall-clock over ``rounds`` runs — the standard estimator
    for 'how fast can this go', immune to one-sided scheduling noise."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        io_storm(driver_cls)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_tracer_overhead_is_under_three_percent():
    # Interleave a warm-up of each so JIT-less CPython cache effects
    # (bytecode, allocator arenas) hit both variants equally.
    io_storm(UninstrumentedDriver)
    io_storm(DiskDriver)
    control = best_of(UninstrumentedDriver)
    stock = best_of(DiskDriver)
    ratio = stock / control
    print(f"\ndisabled-path overhead: {ratio:.4f}x "
          f"(stock {stock * 1e3:.1f} ms vs control {control * 1e3:.1f} ms)")
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"disabled observability path costs {ratio:.3f}x "
        f"(allowed < {MAX_OVERHEAD_RATIO}x)"
    )


# -- registry / exposure-monitor branches on the array write path ----------------------

N_WRITES = 900


class UninstrumentedArray(DiskArray):
    """The pre-exposure mark loop and lag bookkeeping, as the control.

    Identical to the stock methods with the ``self.exposure`` branches
    deleted outright (the tracer branch stays: it belongs to the test
    above).  Timing this against a stock array whose ``exposure`` is
    ``None`` isolates what the exposure/registry hooks cost when disabled.
    ``mark_runs_calls`` proves the write path really runs the override.
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
            self.lag_tracker.record(self.sim.now, lag)
            if self.tracer is not None:
                self.tracer.counter("dirty_stripes", float(len(self.marks.marked_stripes)))
                self.tracer.counter("parity_lag_bytes", lag)


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


def best_of_storm(control: bool, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        write_storm(control)
        best = min(best, time.perf_counter() - start)
    return best


def test_disabled_exposure_registry_overhead_is_under_three_percent():
    write_storm(control=True)
    write_storm(control=False)
    control = best_of_storm(control=True)
    stock = best_of_storm(control=False)
    ratio = stock / control
    print(f"\ndisabled registry/exposure overhead: {ratio:.4f}x "
          f"(stock {stock * 1e3:.1f} ms vs control {control * 1e3:.1f} ms)")
    assert ratio < MAX_OVERHEAD_RATIO, (
        f"disabled exposure/registry path costs {ratio:.3f}x "
        f"(allowed < {MAX_OVERHEAD_RATIO}x)"
    )
