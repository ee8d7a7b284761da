"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import math
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import ledger  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _selfs(spans):
    log = ledger.SpanLog()
    for name, start, end, parent in spans:
        log.add(name, start, end, parent)
    return ledger.self_times(log)


# -- self time ----------------------------------------------------------------


def test_self_time_nested_spans():
    selfs = _selfs([("a", 0.0, 10.0, -1), ("b", 2.0, 5.0, 0), ("c", 3.0, 4.0, 1)])
    assert selfs == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_sibling_spans():
    selfs = _selfs([("a", 0.0, 10.0, -1), ("b", 1.0, 3.0, 0), ("b", 5.0, 6.0, 0)])
    assert selfs == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_counts_overlapping_siblings_once():
    selfs = _selfs([("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 3.0, 6.0, 0)])
    assert selfs[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_the_parent():
    selfs = _selfs([("a", 0.0, 4.0, -1), ("b", 3.0, 6.0, 0)])
    assert selfs[0] == pytest.approx(3.0)


def test_self_time_of_a_range_ignores_spans_outside_it():
    log = ledger.SpanLog()
    log.add("a", 0.0, 1.0)
    log.add("a", 2.0, 5.0)
    log.add("b", 3.0, 4.0, 1)
    assert ledger.self_times(log, 1, 3) == pytest.approx([2.0, 1.0])


def test_span_log_records_parents_from_the_call_stack():
    ticks = iter(range(100))
    log = ledger.SpanLog(clock=lambda: float(next(ticks)))
    outer = log.open(log.intern("outer"))
    inner = log.open(log.intern("inner"))
    log.close(inner)
    log.close(outer)
    sibling = log.open(log.intern("inner"))
    log.close(sibling)
    assert list(log.parent) == [-1, 0, -1]
    assert ledger.self_times(log) == pytest.approx([2.0, 1.0, 1.0])


# -- percentile rule --------------------------------------------------------------


def test_percentile_is_nearest_rank_with_its_tail():
    samples = [float(value) for value in range(1, 101)]
    assert run.percentile(samples, 0.9) == (90.0, 10)
    assert run.percentile(samples, 0.5) == (50.0, 50)


def test_p90_needs_forty_samples():
    assert run.tail_ok([1.0] * 40, 0.9)
    assert not run.tail_ok([1.0] * 39, 0.9)
    assert not run.tail_ok([], 0.9)
    assert run.tail_ok([1.0] * 20, 0.5)


# -- correctness check ----------------------------------------------------------------


def _pass(*digests, error=None):
    cells = [
        workloads.CellRun(f"cell{index}", 0.1, 10, digest, error if index == 0 else None)
        for index, digest in enumerate(digests)
    ]
    return workloads.PassRun(cells=cells)


def test_matching_digests_pass():
    assert run.check_cells([_pass("x1", "y1"), _pass("x1", "y1")], ["x", "y"]) == (4, 0, [])


def test_reference_mismatch_counts_as_failure():
    attempted, failed, problems = run.check_cells([_pass("x1", "z1")], ["x", "y"])
    assert (attempted, failed) == (2, 1)
    assert "committed reference" in problems[0]


def test_pass_to_pass_mismatch_counts_as_failure():
    attempted, failed, problems = run.check_cells([_pass("x"), _pass("w")], None)
    assert (attempted, failed) == (2, 1)
    assert "first pass" in problems[0]


def test_raising_cell_counts_as_failure():
    assert run.check_cells([_pass(None, error="boom")], None)[:2] == (1, 1)


def test_failed_warm_cell_counts_as_failure():
    bad = workloads.CellRun("cell0", 0.01, 10, "x", "warm digest differs from the cold pass")
    passes = [workloads.PassRun(cells=_pass("x").cells, warm=[bad])]
    assert run.check_cells(passes, None)[:2] == (2, 1)


# -- wrappers ---------------------------------------------------------------------


def _targets():
    return [*ledger.TARGETS, *ledger.map_extent_targets()]


def _originals():
    return {
        (module, path): ledger._resolve(module, path)[0].__dict__[ledger._resolve(module, path)[1]]
        for _span, module, path in _targets()
    }


def _tiny_workload():
    cells = (workloads.Cell("cello-usr", "raid5", "afraid"),)
    workload = workloads.ReplayWorkload("tiny", cells, requests=200, seed=3)
    workload.make_inputs()
    return workload


def test_install_wraps_and_restore_puts_back_every_original():
    before = _originals()
    book = ledger.Ledger()
    installation = book.install()
    try:
        for (module, path), original in before.items():
            owner, attr = ledger._resolve(module, path)
            assert owner.__dict__[attr] is not original, path
        assert len(installation.patches) == len(before)
    finally:
        installation.restore()
    assert installation.verify() == []
    assert _originals() == before
    for key, original in _originals().items():
        assert original is before[key]


def test_verify_names_an_attribute_left_wrapped():
    installation = ledger.Ledger().install()
    installation.restore()
    patch = installation.patches[0]
    setattr(patch.owner, patch.attr, lambda *args: None)
    try:
        assert installation.verify() == [patch.label]
    finally:
        setattr(patch.owner, patch.attr, patch.original)


def test_traced_passes_repeat_exactly_and_keep_results():
    workload = _tiny_workload()
    plain = workload.run_pass()
    book = ledger.Ledger()
    installation = book.install()
    traced = []
    try:
        for _ in range(2):
            book.begin_pass()
            traced.append(workload.run_pass())
            book.end_pass()
    finally:
        installation.restore()
    first, second = (book.pass_summary(index) for index in range(2))
    assert first.exact() == second.exact()
    assert first.calls["array.submit"] == plain.requests
    assert first.counters["sim.events"] > 0
    assert first.sim_stats["completed"] == plain.requests
    assert all(math.isfinite(value) and value >= 0 for value in first.seconds.values())
    assert [cell.digest for cell in traced[0].cells] == [cell.digest for cell in plain.cells]
