"""Ban: code outside ``repro.sim`` must not touch kernel privates.

The kernel's schedule lives in ``Simulator._bucket`` (the current
instant), ``Simulator._queue`` (the future heap) and ``_sequence`` (the
tie-break counter); a pending event holds the ``_PENDING`` sentinel, and
an event's state is its ``_value``, ``_exception``, ``_scheduled``,
``_handled`` and ``callbacks`` slots.  Code outside the kernel builds
events with ``Event(...)``, schedules them through the public surface —
``Event.succeed``/``fail``, ``Simulator.timeout``, ``Simulator.call_soon``,
``Simulator.trigger_at`` — and asks ``Simulator.quiet()`` before eliding
an event.  It settles events through the kernel too, never by writing
their slots: ``Event.complete`` (in place when nobody listens),
``Event.complete_inline`` (listeners in place under a quiet kernel) and
``Event.fail_scheduled`` (a scheduled completion turned into a failure).
"""

from __future__ import annotations

import pathlib
import re

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent
PRIVATE_PEEK = re.compile(
    r"\bsim\._(bucket|queue|sequence)\b|\bEvent\.__new__\b|\b_PENDING\b"
    # An assignment to an event's state slot (``==`` is a comparison).
    r"|\.(_value|_exception|_scheduled|_handled|callbacks)\s*=(?!=)"
)

#: Modules (relative to ``src/repro``) allowed to touch kernel privates.
ALLOWED: set[str] = set()


def _peeking_modules() -> set[str]:
    found = set()
    for path in SRC.rglob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        if relative.startswith("sim/"):
            continue
        if PRIVATE_PEEK.search(path.read_text(encoding="utf-8")):
            found.add(relative)
    return found


def test_no_new_module_reads_kernel_privates():
    new = _peeking_modules() - ALLOWED
    assert not new, (
        f"{sorted(new)} touch sim._bucket/_queue/_sequence, Event.__new__, _PENDING "
        "or an event's state slots; use Event(...), Simulator.call_soon, "
        "Simulator.trigger_at, Simulator.quiet or the Event API "
        "(complete, complete_inline, fail_scheduled) instead"
    )


def test_allow_list_only_shrinks():
    assert not ALLOWED, "the allow-list is empty and stays empty: fix the module instead"


def test_controller_is_off_the_list():
    assert "array/controller.py" not in ALLOWED
    assert "array/controller.py" not in _peeking_modules()


@pytest.mark.parametrize(
    "line",
    [
        "sim._bucket.append(event)",
        "_heappush(sim._queue, (when, sim._sequence, event))",
        "done = Event.__new__(Event)",
        "from repro.sim.events import _PENDING",
        "done._value = _PENDING",
        "done._value = request",
        "done._scheduled = True",
        "done._handled = True",
        "done.callbacks = None",
        "inflight._exception = DiskFailedError('failed mid-flight')",
        "done._value=None",
    ],
)
def test_pattern_catches_each_private(line):
    assert PRIVATE_PEEK.search(line)


@pytest.mark.parametrize(
    "line",
    [
        "if event._exception is None:",
        "callbacks = event.callbacks",
        "if done.callbacks == []:",
        "event.callbacks.append(self._fire)",
    ],
)
def test_pattern_lets_reads_through(line):
    assert not PRIVATE_PEEK.search(line)
