"""Ratchet: code outside ``repro.sim`` must not grow new kernel-private peeks.

The kernel's schedule lives in ``Simulator._bucket`` (the current
instant), ``Simulator._queue`` (the future heap) and ``_sequence`` (the
tie-break counter).  Code outside the kernel schedules through the public
surface — ``Event.succeed``/``fail``, ``Simulator.timeout``,
``Simulator.call_soon`` — and asks ``Simulator.quiet()`` before eliding
an event.  The modules below still reach in on their hot paths; the list
may only shrink: a module that stops matching must leave it.
"""

from __future__ import annotations

import pathlib
import re

import repro

SRC = pathlib.Path(repro.__file__).parent
PRIVATE_PEEK = re.compile(r"\bsim\._(bucket|queue|sequence)\b")

#: Modules (relative to ``src/repro``) allowed to read kernel privates.
ALLOWED = {
    "array/cache.py",
    "disk/disk.py",
    "harness/sharding.py",
    "sched/driver.py",
}


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
        f"{sorted(new)} read sim._bucket/_queue/_sequence; use Simulator.call_soon, "
        "Simulator.quiet or the Event API instead"
    )


def test_allow_list_only_shrinks():
    stale = ALLOWED - _peeking_modules()
    assert not stale, f"{sorted(stale)} no longer read kernel privates: drop them from ALLOWED"


def test_controller_is_off_the_list():
    assert "array/controller.py" not in ALLOWED
    assert "array/controller.py" not in _peeking_modules()
