"""The traced run's layer ledger: spans recorded from outside the program.

Installing a :class:`Ledger` replaces a fixed set of the program's public
functions and methods with timing wrappers; :meth:`Installation.restore`
puts every original back, and :meth:`Installation.verify` proves by
identity that it did, so the untraced runs measure the unmodified program.

Each wrapper call records one span ``(name, start, end, parent)`` into
flat in-memory arrays.  A layer's self time is its spans' duration minus
the part of each span that its child spans cover (:func:`self_times`).
Some wrappers also count work the span alone cannot show: events
dispatched inside the kernel's run loops, commands timed through the
vectorised disk path, extents warmed, and the simulated stats of every
array at ``finalize``.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import inspect
import math
import pkgutil
import time
import typing

#: (span name, module, attribute path) of every wrapped callable.  Module
#: names are the ones the program looks the function up through, so a
#: name imported into another module is wrapped where it is called.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.core", "Simulator.run"),
    ("sim.run", "repro.sim.core", "Simulator.run_until_triggered"),
    ("sim.process", "repro.sim.core", "Simulator.process"),
    ("sched.submit", "repro.sched.driver", "DiskDriver.submit"),
    ("disk.batch", "repro.sched.driver", "batch_service_parts"),
    ("layout.warm", "repro.harness.replay", "warm_extent_cache"),
    ("layout.warm", "repro.harness.sharding", "warm_extent_cache"),
    ("array.submit", "repro.array.controller", "DiskArray.submit"),
    ("array.finalize", "repro.array.controller", "DiskArray.finalize"),
    ("array.plan", "repro.array.controller", "plan_host_batch"),
    ("harness.advance_shard", "repro.harness.sharding", "advance_shard"),
    ("harness.finish_shard", "repro.harness.sharding", "finish_shard"),
    ("harness.checkpoint_io", "repro.harness.checkpoint", "CheckpointScope.store_cut"),
    ("harness.checkpoint_io", "repro.harness.checkpoint", "CheckpointScope.lookup_cut"),
    ("harness.checkpoint_io", "repro.harness.checkpoint", "CheckpointScope.store_final"),
    ("harness.checkpoint_io", "repro.harness.checkpoint", "CheckpointScope.lookup_final"),
    ("obs.record", "repro.obs.hist", "HistogramSet.record"),
    ("obs.exposure", "repro.obs.exposure", "ExposureMonitor.on_lag_change"),
    ("obs.exposure", "repro.obs.exposure", "ExposureMonitor.stripe_dirtied"),
    ("obs.exposure", "repro.obs.exposure", "ExposureMonitor.stripe_cleaned"),
    ("traces.make", "repro.traces", "make_trace"),
    ("traces.make", "repro.harness.experiment", "make_trace"),
)

#: Every layout class that defines ``map_extent`` is wrapped as this span.
MAP_EXTENT_SPAN = "layout.map_extent"


def map_extent_targets() -> list[tuple[str, str, str]]:
    """``(span, module, Class.map_extent)`` for each layout class defining it."""
    import repro.layout

    found = []
    for info in pkgutil.iter_modules(repro.layout.__path__):
        module_name = f"repro.layout.{info.name}"
        module = importlib.import_module(module_name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module_name and "map_extent" in cls.__dict__:
                found.append((MAP_EXTENT_SPAN, module_name, f"{name}.map_extent"))
    return sorted(found)


# -- span storage --------------------------------------------------------------


class SpanLog:
    """Spans in flat arrays: name id, start, end, parent index (-1: root).

    Spans are appended when they open, so indices are in start order and
    a parent always precedes its children.
    """

    def __init__(self, clock: typing.Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def open(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(math.nan)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span directly (for tests: any shape of spans)."""
        index = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        return index

    def save(self, path: str) -> None:
        """Write the spans out (called once, when the benchmark ends)."""
        import numpy

        numpy.savez(
            path,
            names=numpy.array(self.names),
            name_id=numpy.frombuffer(self.name_id, dtype=numpy.int32),
            start=numpy.frombuffer(self.start, dtype=numpy.float64),
            end=numpy.frombuffer(self.end, dtype=numpy.float64),
            parent=numpy.frombuffer(self.parent, dtype=numpy.int64),
        )


def self_times(log: SpanLog, first: int = 0, stop: int | None = None) -> list[float]:
    """Self time of spans ``first..stop``: duration minus child coverage.

    Coverage is the union of the children's intervals clipped to the
    parent, so overlapping siblings are not counted twice.  Every child
    of a span in the range must lie in the range too (true for any
    range that starts and ends with an empty call stack).
    """
    stop = len(log) if stop is None else stop
    start, end, parent = log.start, log.end, log.parent
    covered = [0.0] * (stop - first)
    frontier: dict[int, float] = {}
    for index in sorted(range(first, stop), key=start.__getitem__):
        owner = parent[index]
        if owner < 0:
            continue
        lo = max(start[index], start[owner], frontier.get(owner, -math.inf))
        hi = min(end[index], end[owner])
        if hi > lo:
            covered[owner - first] += hi - lo
            frontier[owner] = hi
    return [end[i] - start[i] - covered[i - first] for i in range(first, stop)]


# -- installation ----------------------------------------------------------------


@dataclasses.dataclass
class _Patch:
    owner: typing.Any
    attr: str
    original: typing.Any
    label: str


class Installation:
    """The wrappers in place; :meth:`restore` undoes every one."""

    def __init__(self) -> None:
        self.patches: list[_Patch] = []

    def patch(self, owner, attr: str, replacement, label: str) -> None:
        original = owner.__dict__[attr]
        self.patches.append(_Patch(owner, attr, original, label))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for patch in reversed(self.patches):
            setattr(patch.owner, patch.attr, patch.original)

    def verify(self) -> list[str]:
        """Labels of attributes that are not their original object again."""
        return [
            patch.label
            for patch in self.patches
            if patch.owner.__dict__.get(patch.attr) is not patch.original
        ]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def wrap(fn, name_id: int, log: SpanLog, hook=None):
    """``fn`` inside a span; ``hook(args)`` may return a ``finish(result)``."""
    open_span = log.open
    close_span = log.close
    if hook is None:

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            index = open_span(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return spanned

    @functools.wraps(fn)
    def hooked(*args, **kwargs):
        finish = hook(args)
        index = open_span(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            close_span(index)
        if finish is not None:
            finish(result)
        return result

    return hooked


# -- the ledger ---------------------------------------------------------------------


#: Simulated per-array stats summed at ``DiskArray.finalize``.
SIM_STATS = (
    "completed",
    "disk_ios",
    "busy_sim_s",
    "queue_sim_s",
    "stripes_scrubbed",
    "cache_hits",
    "cache_lookups",
)


class Ledger:
    """Spans plus counters, split into passes."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counters: dict[str, float] = {}
        self.sim_stats = dict.fromkeys(SIM_STATS, 0)
        #: ``(first span, stop span, counters, sim stats)`` per closed pass.
        self.passes: list[tuple[int, int, dict, dict]] = []
        self._pass_start = 0

    # -- hooks ---------------------------------------------------------------

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _events_hook(self, args):
        sim = args[0]
        base = sim.events_dispatched
        return lambda _result: self._count("sim.events", sim.events_dispatched - base)

    def _batch_hook(self, args):
        count = len(args[1])
        return lambda _result: self._count("disk.vector_commands", count)

    def _warm_hook(self, _args):
        return lambda filled: self._count("layout.warm_extents", filled)

    def _finalize_hook(self, args):
        # Every replay path finalizes its array exactly once, at the end.
        array_ = args[0]

        def collect(_result):
            stats = self.sim_stats
            stats["completed"] += array_.stats.completed
            stats["stripes_scrubbed"] += array_.stats.stripes_scrubbed
            stats["cache_hits"] += array_.read_cache.stats.hits
            stats["cache_lookups"] += array_.read_cache.stats.lookups
            for disk in array_.disks:
                stats["disk_ios"] += disk.stats.ios
                stats["busy_sim_s"] += disk.stats.busy_time
            for driver in array_.drivers:
                stats["queue_sim_s"] += driver.stats.queue_time

        return collect

    def install(self) -> Installation:
        hooks = {
            "Simulator.run": self._events_hook,
            "Simulator.run_until_triggered": self._events_hook,
            "batch_service_parts": self._batch_hook,
            "warm_extent_cache": self._warm_hook,
            "DiskArray.finalize": self._finalize_hook,
        }
        installation = Installation()
        for span, module_name, path in (*TARGETS, *map_extent_targets()):
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            replacement = wrap(original, self.log.intern(span), self.log, hooks.get(path))
            installation.patch(owner, attr, replacement, f"{module_name}.{path}")
        return installation

    # -- passes ------------------------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.log)
        self.counters = {}
        self.sim_stats = dict.fromkeys(SIM_STATS, 0)

    def end_pass(self) -> None:
        self.passes.append((self._pass_start, len(self.log), self.counters, self.sim_stats))

    def pass_summary(self, index: int) -> "PassLedger":
        first, stop, counters, sim_stats = self.passes[index]
        selfs = self_times(self.log, first, stop)
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        names = self.log.names
        name_id = self.log.name_id
        for offset, value in enumerate(selfs):
            name = names[name_id[first + offset]]
            seconds[name] = seconds.get(name, 0.0) + value
            calls[name] = calls.get(name, 0) + 1
        return PassLedger(seconds=seconds, calls=calls, counters=dict(counters),
                          sim_stats=dict(sim_stats))


@dataclasses.dataclass
class PassLedger:
    """One traced pass: self seconds and calls per span, counters, sim stats."""

    seconds: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, float]
    sim_stats: dict[str, float]

    def exact(self) -> dict[str, float]:
        """Everything that must repeat exactly from pass to pass."""
        out = {f"calls.{name}": count for name, count in self.calls.items()}
        out.update({f"counter.{name}": value for name, value in self.counters.items()})
        out.update({f"sim.{name}": value for name, value in self.sim_stats.items()})
        return dict(sorted(out.items()))
