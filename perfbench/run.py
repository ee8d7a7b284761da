"""The repository benchmark: host time to replay traces through the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 55 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed in
the program.  ``--trace 1`` is the separate traced run: half its time
untraced, half with the ledger's timing wrappers installed, and it prints
the per-layer metrics.  Every cell's result is checked against the
committed reference digests; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Set-up, and the imports, are repeated this many times; ``setup_s`` adds
#: the median of each.  The imports are the larger and noisier part, and a
#: process imports only once, so they are repeated in fresh interpreters.
SETUP_REPEATS = 5
#: Every cell is timed at least this many times; its time is the best.
MIN_PASSES = 3
#: A reported percentile needs at least this many samples beyond it.
MIN_TAIL = 4
#: Measuring stops here even if ``MIN_PASSES`` is not yet reached.
HARD_CAP_S = 120.0


# -- statistics ---------------------------------------------------------------


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail_ok(samples: list[float], q: float) -> bool:
    """True when the ``q``-quantile has at least ``MIN_TAIL`` samples beyond it."""
    return bool(samples) and percentile(samples, q)[1] >= MIN_TAIL


def best_of(passes, warm: bool = False) -> list[float]:
    """Each cell's fastest time over ``passes``, in grid order.

    The host is shared: a neighbour's burst slows every cell it overlaps,
    for seconds at a time.  A cell's best time over several passes is its
    cost with the least interference, while the spread *across* cells —
    traces, organizations, policies — is kept for the percentiles.
    """
    columns = zip(*([cell.seconds for cell in (run.warm if warm else run.cells)] for run in passes))
    return [min(column) for column in columns]


# -- correctness ----------------------------------------------------------------


def check_cells(passes, expected: list[str] | None) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every cell of ``passes``.

    A cell fails when it raised, had request failures, its digest does not
    start with the committed (truncated) reference digest, or it differs
    from the same cell in the first pass.
    """
    attempted = failed = 0
    problems: list[str] = []
    first = [cell.digest for cell in passes[0].cells] if passes else []
    for run in passes:
        for index, cell in enumerate(run.cells):
            attempted += 1
            reason = cell.error
            if reason is None and expected is not None:
                if not cell.digest.startswith(expected[index]):
                    reason = "digest differs from the committed reference"
            if reason is None and cell.digest != first[index]:
                reason = "digest differs from the first pass"
            if reason is not None:
                failed += 1
                problems.append(f"{cell.label}: {reason}")
        for cell in run.warm:
            attempted += 1
            if cell.error is not None:
                failed += 1
                problems.append(f"{cell.label} (warm): {cell.error}")
    return attempted, failed, problems


# -- measurement -----------------------------------------------------------------


def measure(workload, seconds: float, min_passes: int = MIN_PASSES) -> list:
    """Run passes until ``seconds`` elapse and ``min_passes`` are done."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(passes) >= min_passes):
            return passes


def set_up(workload) -> list[float]:
    """Make inputs and warm up ``SETUP_REPEATS`` times; seconds of each."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.make_inputs()
        workload.warm_up()
        times.append(time.perf_counter() - start)
    return times


def time_imports(repeats: int) -> list[float]:
    """Seconds to import the program and the benchmark in ``repeats`` fresh interpreters."""
    code = (
        "import sys, time\n"
        "start = time.perf_counter()\n"
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]\n"
        "import reference, workloads\n"
        "print(time.perf_counter() - start)\n"
    )
    return [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(repeats)
    ]


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, import_times: list[float], setup_times: list[float]) -> tuple[dict, list, list]:
    cold = best_of(passes)
    warm = best_of(passes, warm=True)
    p50, p50_beyond = percentile(cold, 0.5)
    p90, p90_beyond = percentile(cold, 0.9)
    # Without a result store a repeated cell is simulated again, so on the
    # bare-replay workloads a warm cell costs what a cold one does.
    warm_p50, warm_beyond = percentile(warm or cold, 0.5)
    setup = statistics.median(import_times) + statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best = f"best of {len(passes)} passes"
    metrics = {
        "requests_per_s": metric(passes[0].requests / sum(cold), "1/s"),
        "cell_s_p50": metric(p50, "s"),
        "cell_s_p90": metric(p90, "s"),
        "warm_cell_s_p50": metric(warm_p50, "s"),
        "setup_s": metric(setup, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    samples = {
        "requests_per_s": f"{passes[0].requests} requests over {len(cold)} cells, {best}",
        "cell_s_p50": f"n={len(cold)} cells, {p50_beyond} beyond, {best}",
        "cell_s_p90": f"n={len(cold)} cells, {p90_beyond} beyond, {best}",
        "warm_cell_s_p50": (
            f"n={len(warm)} cells, {warm_beyond} beyond, {best}"
            if warm else "no result store: cold cells"
        ),
        "setup_s": (
            f"median of {len(import_times)} imports + median of {len(setup_times)} set-ups"
        ),
        "peak_rss_mb": "process peak",
    }
    problems = []
    if not tail_ok(cold, 0.9):
        problems.append(f"cell_s_p90 has only {p90_beyond} samples beyond it")
    lines = [
        f"  {name:18} {entry['value']:14.6g} {entry['unit']:5} ({samples[name]})"
        for name, entry in metrics.items()
    ]
    return metrics, lines, problems


def per_layer(summaries, traced, untraced) -> dict:
    """The per-layer metrics from the traced passes (see README.md).

    Host times are each span's best (smallest) self time per pass over
    the traced passes; counts and simulated values are the first pass's.
    """
    first = summaries[0]

    def best_seconds(span: str) -> float:
        return min(s.seconds.get(span, 0.0) for s in summaries)

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    calls, counters, sim = first.calls, first.counters, first.sim_stats
    events = counters.get("sim.events", 0)
    vector_commands = counters.get("disk.vector_commands", 0)
    cache_hit_rate = ratio(sim["cache_hits"], sim["cache_lookups"])
    commands = calls.get("sched.submit", 0)
    submits = calls.get("array.submit", 0)
    untraced_s = sum(best_of(untraced))
    traced_s = sum(best_of(traced))
    return {
        "sim.events": metric(events, "count"),
        "sim.ns_per_event": metric(ratio(untraced_s * 1e9, events), "ns"),
        "sim.run_self_s": metric(best_seconds("sim.run"), "s"),
        "sched.commands": metric(commands, "count"),
        "sched.submit_s": metric(best_seconds("sched.submit"), "s"),
        "sched.queue_sim_s": metric(sim["queue_sim_s"], "s"),
        "disk.ios": metric(sim["disk_ios"], "count"),
        "disk.vector_share": metric(ratio(vector_commands, commands), "ratio"),
        "disk.batch_s": metric(best_seconds("disk.batch"), "s"),
        "disk.busy_sim_s": metric(sim["busy_sim_s"], "s"),
        "layout.map_extent_calls": metric(calls.get("layout.map_extent", 0), "count"),
        "layout.map_extent_s": metric(best_seconds("layout.map_extent"), "s"),
        "layout.warm_s": metric(best_seconds("layout.warm"), "s"),
        "layout.warm_extents": metric(counters.get("layout.warm_extents", 0), "count"),
        "array.submit_s": metric(best_seconds("array.submit"), "s"),
        "array.processes_per_request": metric(ratio(calls.get("sim.process", 0), submits), "ratio"),
        "array.plan_calls": metric(calls.get("array.plan", 0), "count"),
        "array.plan_s": metric(best_seconds("array.plan"), "s"),
        "array.disk_ios_per_request": metric(ratio(sim["disk_ios"], sim["completed"]), "ratio"),
        "array.read_cache_hit_rate": metric(cache_hit_rate, "ratio"),
        "array.stripes_scrubbed": metric(sim["stripes_scrubbed"], "count"),
        "harness.resubmit_ratio": metric(ratio(submits, traced[0].requests), "ratio"),
        "harness.advance_shard_s": metric(best_seconds("harness.advance_shard"), "s"),
        "harness.finish_shard_s": metric(best_seconds("harness.finish_shard"), "s"),
        "harness.checkpoint_io_s": metric(best_seconds("harness.checkpoint_io"), "s"),
        "harness.checkpoint_bytes": metric(traced[0].checkpoint_bytes, "bytes"),
        "obs.hist_records": metric(calls.get("obs.record", 0), "count"),
        "obs.record_s": metric(best_seconds("obs.record"), "s"),
        "obs.exposure_s": metric(best_seconds("obs.exposure"), "s"),
        "traces.make_s": metric(best_seconds("traces.make"), "s"),
        "tracing.overhead": metric(ratio(traced_s, untraced_s), "x"),
    }


def traced_run(workload, seconds: float):
    """Untraced passes, then traced ones.

    Returns ``(untraced, traced, summaries, exact, problems)``: the two
    pass lists, the ledger of each traced pass, the exact counts of the
    first traced pass, and every count that did not repeat.
    """
    import ledger as ledger_mod

    untraced = measure(workload, seconds / 2, min_passes=2)
    ledger = ledger_mod.Ledger()
    installation = ledger.install()
    traced = []
    try:
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < seconds / 2:
            ledger.begin_pass()
            workload.make_inputs()
            traced.append(workload.run_pass())
            ledger.end_pass()
            if time.perf_counter() - start >= HARD_CAP_S:
                break
    finally:
        installation.restore()
    problems = [f"wrapper not restored: {label}" for label in installation.verify()]
    summaries = [ledger.pass_summary(index) for index in range(len(ledger.passes))]
    exact = [
        {**summary.exact(), "checkpoint_bytes": run.checkpoint_bytes, "requests": run.requests}
        for summary, run in zip(summaries, traced)
    ]
    for index, values in enumerate(exact[1:], start=1):
        for key in sorted(set(values) | set(exact[0])):
            if values.get(key) != exact[0].get(key):
                problems.append(
                    f"{key} is {values.get(key)!r} in traced pass {index}, "
                    f"{exact[0].get(key)!r} in pass 0"
                )
    OUT_DIR.mkdir(exist_ok=True)
    ledger.log.save(str(OUT_DIR / f"spans-{workload.name}.npz"))
    return untraced, traced, summaries, exact[0], problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import reference
    import workloads

    import_s = time.perf_counter() - started
    if args.workload not in workloads.NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.NAMES)}",
            file=sys.stderr,
        )
        return 2
    fingerprint = workloads.config_fingerprint()
    expected = reference.load(args.workload, args.seed, fingerprint)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workload = workloads.build(args.workload, args.seed, str(workdir))
    problems: list[str] = []
    try:
        setup_times = set_up(workload)
        if args.trace:
            untraced, traced, summaries, exact, problems = traced_run(workload, args.seconds)
            passes = untraced + traced
            metrics = per_layer(summaries, traced, untraced)
            lines = [f"  {name:28} {entry['value']:14.6g} {entry['unit']}"
                     for name, entry in metrics.items()]
            seen_section, seen_values = "counts", exact
        else:
            import_times = [import_s, *time_imports(SETUP_REPEATS - 1)]
            passes = measure(workload, args.seconds)
            metrics, lines, problems = end_to_end(passes, import_times, setup_times)
            seen_section = "digests"
            seen_values = {cell.label: cell.digest for cell in passes[0].cells}
    finally:
        workload.close()
    attempted, failed, cell_problems = check_cells(passes, expected)
    problems += cell_problems
    # Records are kept per version of the benchmark and of the program.
    version = hashlib.sha256(
        b"".join(path.read_bytes() for path in sorted(HERE.glob("*.py")))
        + workloads.code_fingerprint().encode()
    ).hexdigest()[:16]
    seen_path = OUT_DIR / f"seen-{args.workload}-seed{args.seed}-{version}.json"
    problems += [f"not repeated across runs: {p}" for p in
                 reference.check_seen(seen_path, seen_section, seen_values)]

    where = "committed reference" if expected is not None else "no committed reference"
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(passes)} passes, {attempted} cells, {failed} failed "
        f"(error_rate {failed / attempted:.4f}; digests vs {where})"
    )
    print("\n".join(lines))
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
