"""Ban: background work runs as callback states, not simulation processes.

Client requests, scrubs and paritypoints (the controller), the spare
rebuild, the fault drivers' strikes, repairs and latent probes, the
nemesis loop and the telemetry pollers all run as callback states: a
``call_soon`` kick, timeout and completion callbacks, and the periodic
:class:`~repro.sim.Clock`.  Only the two §5 mini-controllers still start
``Simulator.process`` bodies.  The allow-list may only shrink, and the
rebuild and fault modules hold no generator at all.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Modules (relative to ``src/repro``) allowed to call ``Simulator.process``.
ALLOWED = {"ext/parity_logging.py", "ext/raid6_afraid.py"}
#: Where no function may be a generator.
NO_GENERATORS = ["ext/rebuild.py", *sorted(
    path.relative_to(SRC).as_posix() for path in (SRC / "faults").glob("*.py")
)]


def _tree(relative: str) -> ast.AST:
    return ast.parse((SRC / relative).read_text(encoding="utf-8"))


def _process_calls(tree: ast.AST) -> list[int]:
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "process"
    ]


def _spawning_modules() -> set[str]:
    found = set()
    for path in SRC.rglob("*.py"):
        relative = path.relative_to(SRC).as_posix()
        if not relative.startswith("sim/") and _process_calls(_tree(relative)):
            found.add(relative)
    return found


def test_only_the_mini_controllers_start_processes():
    assert _spawning_modules() <= ALLOWED, (
        "run background work as callback states (Simulator.call_soon, timeout "
        "callbacks, Simulator.every) instead of Simulator.process"
    )


def test_allow_list_only_shrinks():
    assert ALLOWED <= {"ext/parity_logging.py", "ext/raid6_afraid.py"}
    stale = ALLOWED - _spawning_modules()
    assert not stale, f"{sorted(stale)} start no process any more: drop them from ALLOWED"


def test_rebuild_and_fault_modules_hold_no_generator():
    generators = sorted(
        f"{relative}:{node.name}"
        for relative in NO_GENERATORS
        for node in ast.walk(_tree(relative))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(inner, (ast.Yield, ast.YieldFrom)) for inner in ast.walk(node))
    )
    assert generators == []
