"""Command-line interface: run experiments and print paper-style tables.

Installed as ``afraid-sim``::

    afraid-sim workloads                     # list the trace catalog
    afraid-sim run cello-usr --policy afraid --duration 30
    afraid-sim compare ATT --duration 20     # RAID 0 / AFRAID / RAID 5
    afraid-sim sweep --jobs 4                # Figure 3/4 grid, in parallel
    afraid-sim availability --fraction 0.05  # Section 3 calculator
    afraid-sim trace snake --policy afraid --out trace.json  # Perfetto trace
    afraid-sim report snake --policy afraid  # per-class latency percentiles
    afraid-sim exposure cello-usr --slo "parity_lag_bytes < 5e6"  # live telemetry
    afraid-sim profile cello-usr --policy raid5 --top 15  # hot-path table
    afraid-sim nemesis --duration 60 --report nemesis-run  # SLO-gated chaos
    afraid-sim serve --port 8642 --jobs 4   # simulation-as-a-service daemon
    afraid-sim submit hplajw --url http://127.0.0.1:8642 --wait  # client
    afraid-sim status --url http://127.0.0.1:8642  # job table
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.availability import (
    CONSERVATIVE_SUPPORT,
    TABLE_1,
    afraid_mttdl,
    loss_probability,
    combine_mttdl,
)
from repro.harness import DEFAULT_CACHE_DIR, format_quantity, format_table, run_experiment
from repro.metrics import PerfCounters
from repro.obs import (
    ExposureMonitor,
    HistogramSet,
    MetricsRegistry,
    SloEngine,
    SloRule,
    start_exposure_poller,
)
from repro.policy import POLICIES, MttdlTargetPolicy, ParityPolicy
from repro.traces import CATALOG, workload_names


def _make_policy(name: str, mttdl_target: float | None) -> ParityPolicy:
    if name == "mttdl":
        if mttdl_target is None:
            raise SystemExit("--policy mttdl requires --mttdl-target HOURS")
        return MttdlTargetPolicy(mttdl_target)
    if name not in POLICIES:
        raise SystemExit(f"unknown policy {name!r}")
    return POLICIES[name]()


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (durations, periods, targets)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _int_at_least(minimum: int):
    """An argparse type accepting integers >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


#: Redundancy schemes the CLI can build (see repro.layout.organization).
ORGANIZATION_CHOICES = ("raid5", "raid5d", "raid1", "raid10", "raid15")

#: Disk counts used when --ndisks is omitted: the paper's 5 for the
#: RAID 5 family, each mirrored scheme's smallest sensible array.
_ORGANIZATION_DEFAULT_NDISKS = {
    "raid5": 5,
    "raid5d": 5,
    "raid1": 2,
    "raid10": 6,
    "raid15": 6,
}


def _resolve_organization(args: argparse.Namespace) -> tuple[str, int]:
    """(organization, ndisks) from the common CLI knobs, validated early."""
    from repro.layout import get_organization

    organization = getattr(args, "organization", "raid5") or "raid5"
    ndisks = getattr(args, "ndisks", None)
    if ndisks is None:
        ndisks = _ORGANIZATION_DEFAULT_NDISKS[organization]
    try:
        get_organization(organization).validate(ndisks)
    except ValueError as exc:
        raise SystemExit(f"--ndisks: {exc}") from None
    return organization, ndisks


def _result_rows(result) -> list[list[str]]:
    return [
        ["requests", str(result.nrequests)],
        ["mean I/O time", f"{result.mean_io_time_ms:.2f} ms"],
        ["95th percentile", f"{result.io_time.p95 * 1e3:.2f} ms"],
        ["unprotected time", f"{result.unprotected_fraction:.1%}"],
        ["mean parity lag", f"{result.mean_parity_lag_bytes / 1024:.1f} KB"],
        ["stripes scrubbed", str(result.stripes_scrubbed)],
        ["disk MTTDL", format_quantity(result.mttdl_disk_h, " h")],
        ["overall MTTDL", format_quantity(result.mttdl_overall_h, " h")],
        ["MDLR (unprotected)", f"{result.mdlr_unprotected_bytes_per_h:.3f} B/h"],
        ["MDLR (overall)", format_quantity(result.mdlr_overall_bytes_per_h, " B/h")],
    ]


def cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [name, f"{CATALOG[name].write_fraction:.0%}", CATALOG[name].description]
        for name in workload_names()
    ]
    print(format_table(["workload", "writes", "description"], rows))
    return 0


def _resolve_workload(name: str, duration_s: float, seed: int):
    """A catalog name passes through; anything else synthesises a generic
    bursty trace under that name (with a note), so ad-hoc labels work."""
    if name in CATALOG:
        return name
    from repro.traces import make_trace

    print(
        f"note: {name!r} is not in the workload catalog; "
        "synthesising a generic bursty workload under that name",
        file=sys.stderr,
    )
    return make_trace(name, duration_s=duration_s, seed=seed, allow_generic=True)


def _parse_slo_rules(texts) -> list[SloRule]:
    """``--slo`` strings to rules; a bad rule is a usage error, not a crash."""
    try:
        return [SloRule.parse(text) for text in texts or ()]
    except ValueError as exc:
        raise SystemExit(f"--slo: {exc}") from None


def _run_with_slo(
    workload,
    policy: ParityPolicy,
    duration_s: float,
    seed: int,
    rules: list[SloRule],
    window_s: float = 5.0,
    period_s: float = 0.050,
    counters: PerfCounters | None = None,
    **experiment_kwargs,
):
    """One experiment with live exposure telemetry and SLO evaluation.

    Returns (result, registry, engine, snapshotter) — the registry holds
    the final metric values, the engine the breach/recovery history.
    """
    from repro.obs import RegistrySnapshotter

    registry = MetricsRegistry()
    monitor = ExposureMonitor(window_s=window_s, params=TABLE_1)
    engine = SloEngine(rules)
    snapshotter = RegistrySnapshotter(registry)

    def instrument(sim, array) -> None:
        start_exposure_poller(
            sim,
            monitor,
            period_s=period_s,
            engine=engine,
            snapshotter=snapshotter,
            until=duration_s,
        )

    result = run_experiment(
        workload,
        policy,
        duration_s=duration_s,
        seed=seed,
        counters=counters,
        registry=registry,
        exposure=monitor,
        on_array=instrument,
        **experiment_kwargs,
    )
    engine.finish(result.horizon_s)
    return result, registry, engine, snapshotter


def _slo_report(engine: SloEngine) -> str:
    """The SLO summary table plus the breach/recovery timeline."""
    lines = [format_table(SloEngine.table_header(), engine.summary_rows(), title="SLOs")]
    if engine.events:
        lines.append("")
        for event in engine.events:
            lines.append(
                f"  {event.time_s:10.3f}s  {event.kind.upper():9}  "
                f"{event.rule.describe()}  (value {format_quantity(event.value)})"
            )
    return "\n".join(lines)


def cmd_run(args: argparse.Namespace) -> int:
    policy = _make_policy(args.policy, args.mttdl_target)
    organization, ndisks = _resolve_organization(args)
    counters = PerfCounters() if args.stats else None
    rules = _parse_slo_rules(getattr(args, "slo", None))
    engine = None
    if rules:
        result, _registry, engine, _snaps = _run_with_slo(
            args.workload, policy, args.duration, args.seed, rules, counters=counters,
            organization=organization, ndisks=ndisks,
        )
    else:
        result = run_experiment(
            args.workload, policy, duration_s=args.duration, seed=args.seed,
            counters=counters, organization=organization, ndisks=ndisks,
        )
    if args.json:
        import json

        payload = result.to_dict()
        if counters is not None:
            payload["perf"] = counters.snapshot()
        if engine is not None:
            payload["slo"] = {
                "rules": [rule.describe() for rule in rules],
                "breached": engine.any_breached_ever,
                "events": [
                    {"time_s": e.time_s, "kind": e.kind, "rule": e.rule.describe()}
                    for e in engine.events
                ],
            }
        print(json.dumps(payload, indent=2))
        return 0
    title = f"{args.workload} under {policy.describe()} ({args.duration:g}s, seed {args.seed})"
    if organization != "raid5":
        title += f" [{organization}, {ndisks} disks]"
    print(format_table(["metric", "value"], _result_rows(result), title=title))
    if engine is not None:
        print()
        print(_slo_report(engine))
    if counters is not None:
        print()
        print(format_table(["counter", "value"], counters.rows(), title="perf counters"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = []
    results = {}
    organization, ndisks = _resolve_organization(args)
    rules = _parse_slo_rules(getattr(args, "slo", None))
    engines = {}
    for name in ("raid0", "afraid", "raid5"):
        if rules:
            results[name], _reg, engines[name], _snaps = _run_with_slo(
                args.workload, _make_policy(name, None), args.duration, args.seed, rules,
                organization=organization, ndisks=ndisks,
            )
        else:
            results[name] = run_experiment(
                args.workload, _make_policy(name, None), duration_s=args.duration,
                seed=args.seed, organization=organization, ndisks=ndisks,
            )
    raid5_mean = results["raid5"].io_time.mean
    header = ["model", "mean I/O (ms)", "vs RAID5", "unprot time", "disk MTTDL (h)"]
    if rules:
        header.append("SLO breaches")
    for name in ("raid0", "afraid", "raid5"):
        result = results[name]
        row = [
            name,
            f"{result.mean_io_time_ms:.2f}",
            f"{raid5_mean / result.io_time.mean:.2f}x",
            f"{result.unprotected_fraction:.1%}",
            format_quantity(result.mttdl_disk_h),
        ]
        if rules:
            row.append(str(sum(engines[name].breach_count(rule) for rule in rules)))
        rows.append(row)
    print(
        format_table(
            header,
            rows,
            title=f"{args.workload}, {args.duration:g}s, seed {args.seed}",
        )
    )
    if rules:
        for name in ("raid0", "afraid", "raid5"):
            print(f"\n{name}:")
            print(_slo_report(engines[name]))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.traces import analyze, make_trace, read_trace_csv

    if args.workload.endswith(".csv"):
        trace = read_trace_csv(args.workload)
    else:
        trace = make_trace(args.workload, duration_s=args.duration, seed=args.seed)
    report = analyze(trace, gap_threshold_s=args.gap)
    print(format_table(["property", "value"], report.rows(), title=f"trace: {report.name}"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf import dump_pstats, format_hot_path, profile_call

    policy = _make_policy(args.policy, args.mttdl_target)
    result, profile = profile_call(
        run_experiment, args.workload, policy, duration_s=args.duration, seed=args.seed
    )
    print(
        f"profile: {args.workload} under {policy.describe()} "
        f"({args.duration:g}s, seed {args.seed}, {result.nrequests} requests)"
    )
    print(format_hot_path(profile, top=args.top, sort=args.sort))
    if args.dump:
        dump_pstats(profile, args.dump)
        print(f"wrote pstats dump to {args.dump}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness import (
        DEFAULT_MTTDL_TARGETS,
        CheckpointStore,
        SweepInterrupted,
        ladder_specs,
        run_cells,
        tradeoff_curve,
    )

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    workloads = args.workloads or workload_names()
    for workload in workloads:
        if workload not in CATALOG:
            raise SystemExit(f"unknown workload {workload!r}; choose from {workload_names()}")
    targets = args.targets if args.targets else list(DEFAULT_MTTDL_TARGETS)
    organization, ndisks = _resolve_organization(args)
    specs = ladder_specs(
        workloads,
        targets,
        duration_s=args.duration,
        seed=args.seed,
        organization=organization,
        ndisks=ndisks,
    )
    labels = []
    for spec in specs:
        label = spec.key[1]  # policy label, organization-suffixed if non-default
        if label not in labels:
            labels.append(label)
    cache_dir = None if args.no_cache else args.cache_dir
    counters = PerfCounters() if args.stats else None
    try:
        outcome = run_cells(
            specs,
            jobs=args.jobs,
            cache_dir=cache_dir,
            counters=counters,
            checkpoint_dir=args.checkpoint_dir,
        )
    except SweepInterrupted as interrupted:
        print(
            f"\ninterrupted: {interrupted.completed}/{interrupted.total} cells "
            "completed (finished cells are cached; rerun to resume)",
            file=sys.stderr,
        )
        return 130
    if cache_dir is not None and args.cache_max_bytes is not None:
        removed, freed = CheckpointStore(cache_dir).prune(args.cache_max_bytes)
        if removed and not args.json:
            print(
                f"cache pruned: {removed} entries, {freed / 1024:.0f} KB freed",
                file=sys.stderr,
            )
    baseline_label = "raid5" if organization == "raid5" else f"raid5@{organization}"
    points = tradeoff_curve(outcome.results, workloads, labels, baseline_label=baseline_label)

    if args.json:
        import json

        payload = {
            "workloads": list(workloads),
            "cells": {f"{w}/{p}": r.to_dict() for (w, p), r in sorted(outcome.results.items())},
            "tradeoff": [
                {
                    "policy": point.label,
                    "relative_performance": point.relative_performance,
                    "relative_availability": point.relative_availability,
                }
                for point in points
            ],
            "simulated": outcome.simulated,
            "cached": outcome.cached,
            "wall_s": outcome.wall_s,
        }
        if counters is not None:
            payload["perf"] = counters.snapshot()
        print(json.dumps(payload, indent=2))
        return 0

    rows = [
        [
            point.label,
            f"{point.relative_performance:.2f}",
            f"{point.relative_availability:.2f}",
        ]
        for point in points
    ]
    print(
        format_table(
            ["policy", "rel. perf", "rel. avail"],
            rows,
            title=(
                f"{len(specs)} cells over {len(workloads)} workloads "
                f"({args.duration:g}s, seed {args.seed}); both axes relative to RAID 5"
            ),
        )
    )
    print(
        f"\n{outcome.simulated} simulated, {outcome.cached} from cache, "
        f"{outcome.wall_s:.1f}s wall-clock with --jobs {args.jobs}"
    )
    if counters is not None:
        print()
        print(format_table(["counter", "value"], counters.rows(), title="perf counters"))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs import PeriodicSampler, Tracer, attach_array_probes

    policy = _make_policy(args.policy, args.mttdl_target)
    tracer = Tracer(max_records=args.max_records)
    workload = _resolve_workload(args.workload, args.duration, args.seed)

    def instrument(sim, array) -> None:
        if args.kernel:
            tracer.attach_kernel(sim)
        sampler = PeriodicSampler(sim, period_s=args.sample_period, tracer=tracer)
        attach_array_probes(sampler, array)
        sampler.start()

    result = run_experiment(
        workload,
        policy,
        duration_s=args.duration,
        seed=args.seed,
        tracer=tracer,
        on_array=instrument,
    )
    tracer.write_chrome(args.out)
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)
    if args.hist_out:
        with open(args.hist_out, "w") as handle:
            json.dump(
                {
                    "workload": result.workload,
                    "policy": result.policy,
                    "histograms": result.latency_hists,
                },
                handle,
                indent=2,
            )

    hists = result.histogram_set()
    assert hists is not None  # run_experiment always collects
    title = f"{result.workload} under {result.policy} ({args.duration:g}s, seed {args.seed})"
    print(format_table(HistogramSet.table_header(), hists.rows(), title=title))
    dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
    print(f"\n{len(tracer)} trace records{dropped} -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _hists_from_event_log(text: str, path: str, expected: str) -> HistogramSet:
    """Cell-latency histograms from a service NDJSON event log.

    Accepts the stream ``GET /jobs/<id>/events`` (or ``GET /timeline``
    filtered to job events) produces: one JSON object per line with an
    ``event`` key.  ``cell_completed`` events contribute their
    ``latency_s`` under their cell label.
    """
    import json

    hists = HistogramSet()
    hists.hists.clear()  # only the classes the log actually names
    events = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            raise SystemExit(
                f"--from: {path}: line {lineno} is not valid JSON; {expected}"
            ) from None
        if not isinstance(entry, dict) or ("event" not in entry and "kind" not in entry):
            raise SystemExit(
                f"--from: {path}: line {lineno} is not a service event "
                f"(no 'event' key); {expected}"
            )
        events += 1
        if entry.get("event") == "cell_completed" and "latency_s" in entry:
            hists.record(str(entry.get("cell", "cell")), float(entry["latency_s"]))
    if not events:
        raise SystemExit(f"--from: {path}: no events in file; {expected}")
    return hists


def cmd_report(args: argparse.Namespace) -> int:
    if args.from_file is not None:
        import json

        expected = (
            "accepted formats: histogram JSON with keys min_latency_s, "
            "buckets_per_decade, classes as written by `afraid-sim trace "
            "--hist-out FILE`, or a service NDJSON event log as streamed by "
            "`GET /jobs/<id>/events`"
        )
        try:
            with open(args.from_file) as handle:
                text = handle.read()
        except FileNotFoundError:
            raise SystemExit(f"--from: {args.from_file}: no such file; {expected}") from None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            payload = None
        if payload is None or (isinstance(payload, dict) and "event" in payload):
            # Not a single JSON document (or a single event line): treat
            # it as an NDJSON service event log.
            hists = _hists_from_event_log(text, args.from_file, expected)
            title = f"cell latencies from service event log {args.from_file}"
        else:
            try:
                hists = HistogramSet.from_payload(payload.get("histograms", payload))
            except (KeyError, TypeError, AttributeError):
                raise SystemExit(
                    f"--from: {args.from_file}: JSON has the wrong shape; {expected}"
                ) from None
            title = f"latency percentiles from {args.from_file}"
    else:
        if args.workload is None:
            raise SystemExit("report needs a workload name or --from FILE")
        policy = _make_policy(args.policy, args.mttdl_target)
        workload = _resolve_workload(args.workload, args.duration, args.seed)
        result = run_experiment(workload, policy, duration_s=args.duration, seed=args.seed)
        hists = result.histogram_set()
        assert hists is not None
        title = f"{result.workload} under {result.policy} ({args.duration:g}s, seed {args.seed})"
    rows = hists.rows()
    if not rows:
        print("no latencies recorded")
        return 0
    print(format_table(HistogramSet.table_header(), rows, title=title))
    return 0


def cmd_availability(args: argparse.Namespace) -> int:
    from repro.availability import organization_mttdl
    from repro.layout import get_organization

    params = TABLE_1
    organization = getattr(args, "organization", "raid5") or "raid5"
    org = get_organization(organization)
    ndisks = (
        args.ndisks if args.ndisks is not None else _ORGANIZATION_DEFAULT_NDISKS[organization]
    )
    try:
        org.validate(ndisks)
    except ValueError as exc:
        raise SystemExit(f"--ndisks: {exc}") from None
    # Zero exposure gives the organization's catastrophic-only MTTDL
    # (for RAID 5 that is exactly eq. (1)).
    sync = organization_mttdl(organization, ndisks, params.mttf_disk_h, params.mttr_h, 0.0)
    deferred = organization_mttdl(
        organization, ndisks, params.mttf_disk_h, params.mttr_h, args.fraction
    )
    overall = combine_mttdl(deferred, CONSERVATIVE_SUPPORT.mttdl_h)
    lifetime_h = args.years * 24 * 365.25
    p_loss = loss_probability(overall, lifetime_h)
    if args.format == "json":
        import json

        def jsonable(value):
            if isinstance(value, float) and value == float("inf"):
                return "inf"
            return value

        payload = {
            "ndisks": ndisks,
            "organization": organization,
            "unprotected_fraction": args.fraction,
            "years": args.years,
            # Historical key names: "raid5" = the catastrophic-only term,
            # "afraid" = with deferred-update exposure folded in.
            "raid5_mttdl_h": sync,
            "afraid_mttdl_h": deferred,
            "support_mttdl_h": CONSERVATIVE_SUPPORT.mttdl_h,
            "overall_mttdl_h": overall,
            "loss_probability": p_loss,
        }
        print(json.dumps({key: jsonable(value) for key, value in payload.items()}, indent=2))
        return 0
    rows = [
        [f"{org.display} disk MTTDL (catastrophic)", format_quantity(sync, " h")],
        [
            f"deferred {org.display} disk MTTDL @ {args.fraction:.1%} exposure",
            format_quantity(deferred, " h"),
        ],
        ["support MTTDL (Table 1)", format_quantity(CONSERVATIVE_SUPPORT.mttdl_h, " h")],
        ["overall MTTDL", format_quantity(overall, " h")],
        [
            f"P(loss in {args.years:g} years)",
            f"{loss_probability(overall, lifetime_h):.2%}",
        ],
    ]
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"{ndisks}-disk {org.display} array",
        )
    )
    return 0


def cmd_exposure(args: argparse.Namespace) -> int:
    """Live redundancy-exposure telemetry for one run.

    Runs the workload with a :class:`~repro.obs.MetricsRegistry` attached,
    a periodic poller refreshing the windowed achieved-MTTDL/MDLR
    estimators, and (optionally) SLO rules evaluated at every tick.  The
    final registry state can be exported in Prometheus text exposition
    format (``--prom``) and the full sampled time series as JSON lines
    (``--jsonl``).
    """
    policy = _make_policy(args.policy, args.mttdl_target)
    rules = _parse_slo_rules(args.slo)
    workload = _resolve_workload(args.workload, args.duration, args.seed)
    result, registry, engine, snapshotter = _run_with_slo(
        workload,
        policy,
        args.duration,
        args.seed,
        rules,
        window_s=args.window,
        period_s=args.period,
    )
    exposure_hists = result.exposure_histogram_set()

    analytic_mttdl = afraid_mttdl(
        result.ndisks, result.params.mttf_disk_h, result.params.mttr_h,
        result.unprotected_fraction,
    )

    if args.prom:
        from repro.obs import write_prometheus

        write_prometheus(registry, args.prom)
    if args.jsonl:
        snapshotter.write_jsonl(args.jsonl)

    if args.json:
        import json

        def jsonable(value):
            if isinstance(value, float) and value == float("inf"):
                return "inf"
            return value

        payload = {
            "result": result.to_dict(),
            "metrics": {k: jsonable(v) for k, v in registry.snapshot().items()},
            "slo": {
                "rules": [rule.describe() for rule in rules],
                "breached": engine.any_breached_ever,
                "events": [
                    {"time_s": e.time_s, "kind": e.kind, "rule": e.rule.describe()}
                    for e in engine.events
                ],
            },
            "snapshots": len(snapshotter.snaps),
        }
        print(json.dumps(payload, indent=2))
    else:
        title = (
            f"{result.workload} under {result.policy} "
            f"({args.duration:g}s, seed {args.seed}, window {args.window:g}s)"
        )
        metric_rows = [
            [name, format_quantity(value)]
            for name, value in sorted(registry.snapshot().items())
        ]
        print(format_table(["metric", "value"], metric_rows, title=title))
        print()
        print(
            format_table(
                ["quantity", "windowed", "whole-run analytic"],
                [
                    [
                        "achieved MTTDL",
                        format_quantity(registry.value("windowed_mttdl_h", float("inf")), " h"),
                        format_quantity(analytic_mttdl, " h"),
                    ],
                    [
                        "unprotected fraction",
                        f"{registry.value('windowed_unprotected_fraction', 0.0):.2%}",
                        f"{result.unprotected_fraction:.2%}",
                    ],
                ],
                title="windowed estimators vs eq. (2c)",
            )
        )
        if exposure_hists is not None and exposure_hists.rows():
            print()
            print(
                format_table(
                    HistogramSet.table_header(),
                    exposure_hists.rows(),
                    title="dirty-stripe dwell times",
                )
            )
        if rules:
            print()
            print(_slo_report(engine))
        if args.prom:
            print(f"\nPrometheus metrics -> {args.prom}")
        if args.jsonl:
            print(f"{len(snapshotter.snaps)} registry snapshots -> {args.jsonl}")
    if args.fail_on_breach and engine.any_breached_ever:
        return 1
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    import json

    from repro.harness.sharding import run_sharded_replay

    result, digest = run_sharded_replay(
        args.workload,
        policy=args.policy,
        duration_s=args.duration,
        seed=args.seed,
        shards=args.shards,
        workers=args.workers,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_max_bytes=args.checkpoint_max_bytes,
    )
    if args.report_json:
        report = {
            "workload": args.workload,
            "policy": args.policy,
            "duration_s": args.duration,
            "seed": args.seed,
            "shards": args.shards,
            "digest": digest,
            "events_simulated": result.events_simulated,
            "requests": len(result.outcome.requests),
        }
        with open(args.report_json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
    if args.digest:
        print(digest)
        return 0
    outcome = result.outcome
    io_times = outcome.io_times
    mean_ms = (sum(io_times) / len(io_times) * 1e3) if io_times else 0.0
    rows = [
        ["requests", str(len(outcome.requests))],
        ["shards", str(args.shards)],
        ["mean I/O time", f"{mean_ms:.2f} ms"],
        ["events simulated", str(result.events_simulated)],
        ["unprotected time", f"{result.parity_lag[0]:.1%}"],
        ["stripes scrubbed", str(result.stats.stripes_scrubbed)],
        ["horizon", f"{outcome.horizon_s:g} s"],
        ["digest", digest],
    ]
    title = (
        f"{args.workload} under {args.policy} "
        f"({args.duration:g}s, seed {args.seed}, {args.shards} shard(s))"
    )
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a deterministic fault campaign (or a multi-seed suite).

    The default spec exercises every fault type lightly; ``--campaign``
    loads a JSON :class:`~repro.faults.CampaignSpec` instead.  Reports
    are byte-stable for a given (spec, seed) — rerunning and diffing is
    the determinism check CI performs.
    """
    import json

    from repro.faults import CampaignSpec
    from repro.harness import run_campaign_suite, write_campaign_reports

    if args.campaign:
        try:
            spec = CampaignSpec.from_file(args.campaign)
        except FileNotFoundError:
            raise SystemExit(f"--campaign: {args.campaign}: no such file") from None
        except (ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"--campaign: {args.campaign}: {exc}") from None
    else:
        organization, ndisks = _resolve_organization(args)
        spec = CampaignSpec(
            disk_failures=1.0, nvram_losses=0.5, latent_errors=1.0, crashes=0.5,
            organization=organization, ndisks=ndisks,
        )
    seeds = list(range(args.seeds)) if args.seeds else [args.seed]
    outcome = run_campaign_suite(spec, seeds)

    if args.out:
        paths = write_campaign_reports(outcome, args.out)
        if not args.json:
            print(f"{len(paths)} report file(s) -> {args.out}")
    if args.json:
        if len(outcome.reports) == 1:
            print(outcome.reports[0].to_json(), end="")
        else:
            print(outcome.to_json(), end="")
    else:
        rows = []
        for report in outcome.reports:
            summary = report.payload["summary"]
            rows.append(
                [
                    str(report.seed),
                    str(summary["segments"]),
                    str(summary["disk_failures"]),
                    format_quantity(float(summary["predicted_loss_bytes"]), " B"),
                    format_quantity(float(summary["actual_loss_bytes"]), " B"),
                    str(summary["latent_sectors_repaired"]),
                    str(summary["spares_used"]),
                    "ok" if report.ok else f"{len(report.violations)} VIOLATIONS",
                ]
            )
        print(
            format_table(
                [
                    "seed", "segments", "failures", "predicted loss",
                    "actual loss", "LSE repairs", "spares", "invariants",
                ],
                rows,
                title=(
                    f"fault campaign: {spec.workload} under {spec.policy} "
                    f"({spec.duration_s:g}s, {len(seeds)} seed(s))"
                ),
            )
        )
        if not outcome.ok:
            for report in outcome.reports:
                for violation in report.violations:
                    print(
                        f"seed {report.seed}: {violation['name']} "
                        f"at t={violation['time_s']:.3f}: "
                        f"{json.dumps(violation['detail'], sort_keys=True)}"
                    )
    if args.fail_on_invariant and not outcome.ok:
        return 1
    return 0


#: Gate rules a nemesis run uses when no ``--slo`` is given: both are
#: provably fault-caused (a member death, a §3.1 remark flood) and both
#: genuinely recover (spare rebuild, scrub drain), so a default run
#: exhibits the full breach → hold → recovery → resume cycle.
DEFAULT_NEMESIS_SLOS = ("degraded_disks < 1", "scrub_backlog_marks <= 64")


def cmd_nemesis(args: argparse.Namespace) -> int:
    """Continuous chaos against live traffic, SLO-gated, fully correlated.

    Draws faults from the campaign distributions while the workload runs,
    holds injections while an exposure SLO is breached, and merges every
    stream — faults, breaches, rebuilds, exposure samples, latency
    windows, hold/resume decisions — into one correlated timeline.
    ``--report DIR`` writes the artefacts (timeline JSONL, Chrome trace,
    Prometheus text, markdown incident report, JSON summary), all
    byte-stable for a given (spec, seed).
    """
    import json

    from repro.faults.nemesis import NemesisSpec
    from repro.harness.nemesis import run_nemesis, write_nemesis_report

    rules = _parse_slo_rules(args.slo)
    if not rules:
        rules = [SloRule.parse(text) for text in DEFAULT_NEMESIS_SLOS]
    organization, ndisks = _resolve_organization(args)
    try:
        spec = NemesisSpec(
            workload=args.workload,
            duration_s=args.duration,
            ndisks=ndisks,
            organization=organization,
            policy=args.policy,
            disk_model=args.disk_model,
            disk_failures=args.disk_failures,
            nvram_losses=args.nvram_losses,
            latent_errors=args.latent_errors,
            spare_pool=args.spares,
            repair_delay_s=args.repair_delay,
            period_s=args.period,
            sample_period_s=args.sample_period,
            mttdl_floor_h=args.mttdl_floor,
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    outcome = run_nemesis(spec, seed=args.seed, rules=rules, window_s=args.window)

    if args.report:
        paths = write_nemesis_report(outcome, args.report)
        if not args.json:
            print(f"{len(paths)} artefact(s) -> {args.report}")
    if args.json:
        print(json.dumps(outcome.summary_payload(), indent=2, sort_keys=True))
    else:
        tracker = outcome.loop.tracker
        rows = [
            [kind, str(count)] for kind, count in sorted(tracker.counts().items())
        ] or [["(none)", "0"]]
        print(
            format_table(
                ["fault kind", "injected"],
                rows,
                title=(
                    f"nemesis: {spec.workload} under {spec.policy} "
                    f"({spec.duration_s:g}s, seed {args.seed})"
                ),
            )
        )
        print()
        print(_slo_report(outcome.engine))
        print()
        holds = outcome.loop.holds
        print(
            f"injection gate: {holds} hold(s), {outcome.loop.resumes} resume(s), "
            f"{len(outcome.loop.dropped)} fault(s) dropped at the horizon"
        )
        open_rows = tracker.inventory_rows(outcome.horizon_s)
        if open_rows:
            print(format_table(["id", "kind", "disk", "open (s)"], open_rows, title="still open"))
        kinds = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(outcome.timeline.kinds().items())
        )
        print(f"timeline: {len(outcome.timeline)} events ({kinds})")
        for violation in outcome.violations:
            print(f"INVARIANT VIOLATION: {violation}")
    if args.fail_on_violation and not outcome.ok:
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation-as-a-service daemon until SIGTERM/SIGINT."""
    from repro.service import JobManager, run_server

    if args.jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {args.jobs}")
    if args.queue_limit < 1:
        raise SystemExit(f"--queue-limit must be >= 1, got {args.queue_limit}")
    manager = JobManager(
        jobs=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        queue_limit=args.queue_limit,
        max_attempts=args.max_attempts,
        cache_max_bytes=args.cache_max_bytes,
        checkpoint_dir=args.checkpoint_dir,
    )

    def banner(server) -> None:
        host, port = server.server_address[:2]
        print(
            f"afraid-sim serve: listening on http://{host}:{port} "
            f"({args.jobs} worker(s), queue limit {args.queue_limit} cells)"
        )
        print("endpoints: POST /jobs  GET /jobs[/<id>[/events|/result]]  "
              "GET /healthz  GET /metrics")

    run_server(
        manager,
        host=args.host,
        port=args.port,
        quiet=not args.verbose,
        on_ready=banner,
    )
    print("drained; bye")
    return 0


def _submit_payload(args: argparse.Namespace) -> dict:
    payload: dict = {"duration_s": args.duration, "seed": args.seed}
    if args.policy:
        payload["cells"] = [
            {"workload": workload, "policy": policy}
            for workload in args.workloads
            for policy in args.policy
        ]
    else:
        payload["workloads"] = list(args.workloads)
        if args.targets:
            payload["targets"] = args.targets
    return payload


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a job to a running daemon; optionally wait / stream events."""
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        snapshot = client.submit_with_backoff(_submit_payload(args))
    except ServiceError as exc:
        raise SystemExit(f"submit failed: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.url}: {exc}") from None
    job_id = snapshot["id"]
    if args.stream:
        for event in client.stream_events(job_id):
            print(json.dumps(event), flush=True)
        snapshot = client.job(job_id)
    elif args.wait:
        snapshot = client.wait(job_id, timeout=args.timeout)
    if args.json and not args.stream:
        print(json.dumps(snapshot, indent=2))
    elif not args.stream:
        print(
            f"{job_id}: {snapshot['state']} "
            f"({snapshot['cells_completed']}/{snapshot['cells_total']} cells, "
            f"{snapshot['cells_cached']} cached)"
        )
    if snapshot["state"] == "failed":
        print(f"{job_id} failed: {snapshot.get('error')}", file=sys.stderr)
        return 3
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show one job (or the whole job table) of a running daemon."""
    import json

    from repro.service import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        if args.job_id:
            payload = client.result(args.job_id) if args.result else client.job(args.job_id)
            if args.json or args.result:
                print(json.dumps(payload, indent=2))
            else:
                print(
                    f"{payload['id']}: {payload['state']} "
                    f"({payload['cells_completed']}/{payload['cells_total']} cells, "
                    f"{payload['cells_cached']} cached, "
                    f"{payload['cells_retried']} retried)"
                )
            return 0
        jobs = client.jobs()
        health = client.health()
    except ServiceError as exc:
        raise SystemExit(f"status failed: {exc}") from None
    except OSError as exc:
        raise SystemExit(f"cannot reach {args.url}: {exc}") from None
    if args.json:
        print(json.dumps({"health": health, "jobs": jobs}, indent=2))
        return 0
    rows = [
        [
            job["id"], job["state"],
            f"{job['cells_completed']}/{job['cells_total']}",
            str(job["cells_cached"]), str(job["cells_retried"]),
        ]
        for job in jobs
    ]
    title = (
        f"{args.url}: {health['status']}, {health['jobs_active']} active job(s), "
        f"{health['pending_cells']}/{health['queue_limit']} cells pending"
    )
    print(format_table(["job", "state", "cells", "cached", "retried"], rows, title=title))
    return 0


def _package_version() -> str:
    """The installed distribution version, falling back to the source tree."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afraid-sim",
        description="AFRAID (USENIX 1996) reproduction: trace-driven array simulation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("workloads", help="list the workload catalog").set_defaults(
        handler=cmd_workloads
    )

    run_parser = commands.add_parser("run", help="run one workload under one policy")
    run_parser.add_argument("workload", choices=workload_names())
    run_parser.add_argument("--policy", default="afraid", choices=[*POLICIES, "mttdl"])
    run_parser.add_argument("--mttdl-target", type=_positive_float, default=None, help="hours, for --policy mttdl")
    run_parser.add_argument(
        "--organization", default="raid5", choices=ORGANIZATION_CHOICES,
        help="redundancy scheme (default: the paper's RAID 5)",
    )
    run_parser.add_argument(
        "--ndisks", type=int, default=None,
        help="member disks (default: organization-appropriate count)",
    )
    run_parser.add_argument("--duration", type=_positive_float, default=30.0, help="trace duration (simulated s)")
    run_parser.add_argument("--seed", type=int, default=42)
    run_parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    run_parser.add_argument(
        "--stats", action="store_true", help="also print simulator perf counters"
    )
    run_parser.add_argument(
        "--slo", action="append", default=None, metavar="RULE",
        help='SLO rule like "parity_lag_bytes < 5e6"; repeatable',
    )
    run_parser.set_defaults(handler=cmd_run)

    compare_parser = commands.add_parser("compare", help="RAID 0 vs AFRAID vs RAID 5 on one workload")
    compare_parser.add_argument("workload", choices=workload_names())
    compare_parser.add_argument(
        "--organization", default="raid5", choices=ORGANIZATION_CHOICES,
        help="redundancy scheme the three policies run over",
    )
    compare_parser.add_argument(
        "--ndisks", type=int, default=None,
        help="member disks (default: organization-appropriate count)",
    )
    compare_parser.add_argument("--duration", type=_positive_float, default=20.0)
    compare_parser.add_argument("--seed", type=int, default=42)
    compare_parser.add_argument(
        "--slo", action="append", default=None, metavar="RULE",
        help='SLO rule like "parity_lag_bytes < 5e6"; repeatable, checked per model',
    )
    compare_parser.set_defaults(handler=cmd_compare)

    analyze_parser = commands.add_parser("analyze", help="characterise a workload (catalog name or trace CSV)")
    analyze_parser.add_argument("workload", help="catalog name, or a path ending in .csv")
    analyze_parser.add_argument("--duration", type=_positive_float, default=60.0)
    analyze_parser.add_argument("--seed", type=int, default=42)
    analyze_parser.add_argument("--gap", type=float, default=0.1, help="burst-splitting gap (s)")
    analyze_parser.set_defaults(handler=cmd_analyze)

    profile_parser = commands.add_parser(
        "profile", help="cProfile one replay and print the hot-path table"
    )
    profile_parser.add_argument("workload", choices=workload_names())
    profile_parser.add_argument(
        "--policy", default="afraid", choices=[*POLICIES, "mttdl"]
    )
    profile_parser.add_argument(
        "--mttdl-target", type=_positive_float, default=None, help="hours, for --policy mttdl"
    )
    profile_parser.add_argument("--duration", type=_positive_float, default=10.0)
    profile_parser.add_argument("--seed", type=int, default=42)
    profile_parser.add_argument("--top", type=int, default=20, help="rows in the hot-path table")
    profile_parser.add_argument(
        "--sort", default="cumulative", choices=["cumulative", "tottime"]
    )
    profile_parser.add_argument(
        "--dump", metavar="PATH", default=None, help="also write a raw pstats dump"
    )
    profile_parser.set_defaults(handler=cmd_profile)

    sweep_parser = commands.add_parser(
        "sweep", help="run the Figure 3/4 policy-ladder grid via the parallel sweep engine"
    )
    sweep_parser.add_argument(
        "workloads", nargs="*", help="workload names (default: the full catalog)"
    )
    sweep_parser.add_argument(
        "--targets", type=_positive_float, nargs="+", default=None, help="MTTDL_x targets in hours"
    )
    sweep_parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep_parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="always re-simulate, never touch the cache"
    )
    sweep_parser.add_argument(
        "--cache-max-bytes", type=_nonnegative_int, default=None, metavar="N",
        help="after the sweep, evict oldest cache entries until the cache fits N bytes",
    )
    sweep_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="replay checkpoint store: simulated cells resume from the deepest "
        "stored quiescent cut (composes with the result cache)",
    )
    sweep_parser.add_argument(
        "--organization", default="raid5", choices=ORGANIZATION_CHOICES,
        help="redundancy scheme every cell runs over",
    )
    sweep_parser.add_argument(
        "--ndisks", type=int, default=None,
        help="member disks (default: organization-appropriate count)",
    )
    sweep_parser.add_argument("--duration", type=_positive_float, default=30.0)
    sweep_parser.add_argument("--seed", type=int, default=42)
    sweep_parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    sweep_parser.add_argument(
        "--stats", action="store_true", help="also print sweep perf counters"
    )
    sweep_parser.set_defaults(handler=cmd_sweep)

    trace_parser = commands.add_parser(
        "trace", help="run one workload and export a Perfetto-loadable trace"
    )
    trace_parser.add_argument(
        "workload", help="catalog name (unknown names synthesise a generic workload)"
    )
    trace_parser.add_argument("--policy", default="afraid", choices=[*POLICIES, "mttdl"])
    trace_parser.add_argument("--mttdl-target", type=_positive_float, default=None, help="hours, for --policy mttdl")
    trace_parser.add_argument("--duration", type=_positive_float, default=30.0, help="trace duration (simulated s)")
    trace_parser.add_argument("--seed", type=int, default=42)
    trace_parser.add_argument("--out", default="trace.json", help="Chrome trace-event JSON output path")
    trace_parser.add_argument("--jsonl", default=None, help="also write raw records as JSON lines")
    trace_parser.add_argument("--hist-out", default=None, help="write latency histograms as JSON")
    trace_parser.add_argument(
        "--sample-period", type=_positive_float, default=0.010, help="sampler period (simulated s)"
    )
    trace_parser.add_argument(
        "--max-records", type=_positive_int, default=1_000_000, help="tracer memory bound (records)"
    )
    trace_parser.add_argument(
        "--kernel", action="store_true", help="also record per-event kernel dispatch instants (verbose)"
    )
    trace_parser.set_defaults(handler=cmd_trace)

    report_parser = commands.add_parser(
        "report", help="per-request-class latency percentile table"
    )
    report_parser.add_argument(
        "workload", nargs="?", default=None, help="catalog name (or use --from)"
    )
    report_parser.add_argument("--policy", default="afraid", choices=[*POLICIES, "mttdl"])
    report_parser.add_argument("--mttdl-target", type=_positive_float, default=None, help="hours, for --policy mttdl")
    report_parser.add_argument("--duration", type=_positive_float, default=30.0)
    report_parser.add_argument("--seed", type=int, default=42)
    report_parser.add_argument(
        "--from", dest="from_file", default=None, metavar="FILE",
        help="report from a histogram JSON written by `trace --hist-out`",
    )
    report_parser.set_defaults(handler=cmd_report)

    avail_parser = commands.add_parser("availability", help="Section 3 analytic calculator")
    avail_parser.add_argument("--ndisks", type=int, default=None)
    avail_parser.add_argument(
        "--organization", default="raid5", choices=ORGANIZATION_CHOICES,
        help="redundancy scheme the models describe",
    )
    avail_parser.add_argument("--fraction", type=float, default=0.05, help="unprotected-time fraction")
    avail_parser.add_argument("--years", type=float, default=3.0)
    avail_parser.add_argument(
        "--format", choices=["table", "json"], default="table", help="output format"
    )
    avail_parser.set_defaults(handler=cmd_availability)

    exposure_parser = commands.add_parser(
        "exposure", help="live redundancy-exposure telemetry, SLO checks, and metric export"
    )
    exposure_parser.add_argument(
        "workload", help="catalog name (unknown names synthesise a generic workload)"
    )
    exposure_parser.add_argument("--policy", default="afraid", choices=[*POLICIES, "mttdl"])
    exposure_parser.add_argument("--mttdl-target", type=_positive_float, default=None, help="hours, for --policy mttdl")
    exposure_parser.add_argument("--duration", type=_positive_float, default=30.0, help="trace duration (simulated s)")
    exposure_parser.add_argument("--seed", type=int, default=42)
    exposure_parser.add_argument(
        "--window", type=_positive_float, default=5.0, help="estimator sliding window (simulated s)"
    )
    exposure_parser.add_argument(
        "--period", type=_positive_float, default=0.050, help="poller/snapshot period (simulated s)"
    )
    exposure_parser.add_argument(
        "--slo", action="append", default=None, metavar="RULE",
        help='SLO rule like "parity_lag_bytes < 5e6"; repeatable',
    )
    exposure_parser.add_argument(
        "--prom", default=None, metavar="FILE",
        help="write final registry state in Prometheus text exposition format",
    )
    exposure_parser.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="write the sampled registry time series as JSON lines",
    )
    exposure_parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    exposure_parser.add_argument(
        "--fail-on-breach", action="store_true",
        help="exit 1 if any SLO rule was ever breached",
    )
    exposure_parser.set_defaults(handler=cmd_exposure)

    replay_parser = commands.add_parser(
        "replay",
        help="time-sliced (sharded) trace replay with deterministic handoff",
    )
    replay_parser.add_argument("workload", choices=workload_names())
    replay_parser.add_argument(
        "--policy", default="afraid", choices=list(POLICIES)
    )
    replay_parser.add_argument("--duration", type=_positive_float, default=30.0, help="trace duration (simulated s)")
    replay_parser.add_argument("--seed", type=int, default=42)
    replay_parser.add_argument(
        "--shards", type=_positive_int, default=1,
        help="number of consecutive time slices (results are byte-identical for any value)",
    )
    replay_parser.add_argument(
        "--workers", type=_nonnegative_int, default=None,
        help="run shard steps in a process pool of this size "
        "(0 = in-process; default: min(shards, CPU count) when --shards > 1, "
        "else in-process)",
    )
    replay_parser.add_argument(
        "--digest", action="store_true",
        help="print only the result fingerprint (for determinism checks)",
    )
    replay_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist quiescent-cut checkpoints (and the final result) in DIR; "
        "re-runs resume from the deepest matching trace prefix",
    )
    replay_parser.add_argument(
        "--checkpoint-max-bytes", type=_nonnegative_int, default=None, metavar="N",
        help="bound checkpoint-store growth: prune oldest entries past N bytes",
    )
    replay_parser.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write digest/events-simulated run metadata as JSON",
    )
    replay_parser.set_defaults(handler=cmd_replay)

    faults_parser = commands.add_parser(
        "faults",
        help="run a seeded fault campaign with crash-recovery invariant checks",
    )
    faults_parser.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    faults_parser.add_argument(
        "--seeds", type=_nonnegative_int, default=0, metavar="K",
        help="run seeds 0..K-1 as a suite instead of a single --seed",
    )
    faults_parser.add_argument(
        "--campaign", default=None, metavar="SPEC.json",
        help="JSON campaign spec (defaults to a light all-fault-types campaign)",
    )
    faults_parser.add_argument(
        "--organization", default="raid5", choices=ORGANIZATION_CHOICES,
        help="redundancy organization for the default campaign spec "
        "(ignored with --campaign; default raid5)",
    )
    faults_parser.add_argument(
        "--ndisks", type=int, default=None,
        help="member disks for the default campaign spec "
        "(default: the organization's natural size)",
    )
    faults_parser.add_argument(
        "--out", default=None, metavar="DIR",
        help="write per-seed JSON reports (plus suite.json) into DIR",
    )
    faults_parser.add_argument("--json", action="store_true", help="print the report as JSON")
    faults_parser.add_argument(
        "--fail-on-invariant", action="store_true",
        help="exit 1 if any loss invariant was violated",
    )
    faults_parser.set_defaults(handler=cmd_faults)

    nemesis_parser = commands.add_parser(
        "nemesis",
        help="continuous SLO-gated chaos with a correlated incident timeline",
    )
    nemesis_parser.add_argument(
        "workload", nargs="?", default="snake", help="catalog workload (default snake)"
    )
    nemesis_parser.add_argument(
        "--duration", type=_positive_float, default=30.0, help="injection window, seconds (default 30)"
    )
    nemesis_parser.add_argument("--seed", type=int, default=0, help="schedule seed (default 0)")
    nemesis_parser.add_argument(
        "--policy", default="afraid", choices=list(POLICIES)
    )
    nemesis_parser.add_argument(
        "--ndisks", type=int, default=None,
        help="member disks (default: the organization's natural size)",
    )
    nemesis_parser.add_argument(
        "--organization", default="raid5", choices=ORGANIZATION_CHOICES,
        help="redundancy organization under chaos (default raid5)",
    )
    nemesis_parser.add_argument("--disk-model", default="toy", choices=["toy", "hp_c3325"])
    nemesis_parser.add_argument(
        "--disk-failures", type=float, default=2.0, metavar="N",
        help="expected member deaths over the run (default 2)",
    )
    nemesis_parser.add_argument(
        "--nvram-losses", type=float, default=1.0, metavar="N",
        help="expected marking-memory losses (default 1)",
    )
    nemesis_parser.add_argument(
        "--latent-errors", type=float, default=2.0, metavar="N",
        help="expected latent sector errors (default 2)",
    )
    nemesis_parser.add_argument(
        "--spares", type=_nonnegative_int, default=16, help="spare-disk pool (default 16)"
    )
    nemesis_parser.add_argument(
        "--repair-delay", type=float, default=0.5, metavar="S",
        help="technician delay before a spare rebuild starts (default 0.5)",
    )
    nemesis_parser.add_argument(
        "--period", type=_positive_float, default=0.05, metavar="S",
        help="gate/telemetry tick (default 0.05)",
    )
    nemesis_parser.add_argument(
        "--sample-period", type=_positive_float, default=0.5, metavar="S",
        help="exposure/latency timeline sample period (default 0.5)",
    )
    nemesis_parser.add_argument(
        "--window", type=_positive_float, default=2.0, metavar="S",
        help="sliding exposure window (default 2)",
    )
    nemesis_parser.add_argument(
        "--slo", action="append", metavar="RULE",
        help=(
            "gate rule, e.g. 'degraded_disks < 1' (repeatable; defaults to "
            + " and ".join(repr(text) for text in DEFAULT_NEMESIS_SLOS)
            + ")"
        ),
    )
    nemesis_parser.add_argument(
        "--mttdl-floor", type=float, default=None, metavar="HOURS",
        help="also hold injections while windowed achieved MTTDL is below this",
    )
    nemesis_parser.add_argument(
        "--report", default=None, metavar="DIR",
        help="write timeline.jsonl, trace.json, metrics.prom, incident.md, summary.json",
    )
    nemesis_parser.add_argument("--json", action="store_true", help="print the JSON summary")
    nemesis_parser.add_argument(
        "--fail-on-violation", action="store_true",
        help="exit 1 if the timeline violates a correlation invariant",
    )
    nemesis_parser.set_defaults(handler=cmd_nemesis)

    serve_parser = commands.add_parser(
        "serve", help="run the simulation-as-a-service daemon (HTTP/JSON API)"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8642)
    serve_parser.add_argument("--jobs", type=int, default=2, help="worker processes")
    serve_parser.add_argument(
        "--queue-limit", type=int, default=1024, metavar="CELLS",
        help="max admitted-but-unfinished cells before submissions get 429",
    )
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="pool submissions per cell before a crashing cell fails the job",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help=f"result cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true", help="simulate every cell, never touch the cache"
    )
    serve_parser.add_argument(
        "--cache-max-bytes", type=_nonnegative_int, default=None, metavar="N",
        help="bound on-disk cache growth: prune oldest entries past N bytes",
    )
    serve_parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="replay checkpoint store: cache-miss cells resume from the deepest "
        "stored quiescent cut instead of simulating from t=0",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = commands.add_parser(
        "submit", help="submit a job to a running serve daemon"
    )
    submit_parser.add_argument(
        "workloads", nargs="+", help="workload names (the ladder grid, like sweep)"
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8642", help="daemon base URL"
    )
    submit_parser.add_argument(
        "--targets", type=_positive_float, nargs="+", default=None, help="MTTDL_x targets in hours"
    )
    submit_parser.add_argument(
        "--policy", action="append", default=None, metavar="KIND",
        help="submit explicit (workload x policy) cells instead of the full ladder; repeatable",
    )
    submit_parser.add_argument("--duration", type=_positive_float, default=30.0)
    submit_parser.add_argument("--seed", type=int, default=42)
    submit_parser.add_argument(
        "--wait", action="store_true", help="block until the job is terminal"
    )
    submit_parser.add_argument(
        "--stream", action="store_true",
        help="stream the job's NDJSON events to stdout until it finishes",
    )
    submit_parser.add_argument("--timeout", type=_positive_float, default=600.0)
    submit_parser.add_argument("--json", action="store_true", help="print the job snapshot as JSON")
    submit_parser.set_defaults(handler=cmd_submit)

    status_parser = commands.add_parser(
        "status", help="job table (or one job) of a running serve daemon"
    )
    status_parser.add_argument("job_id", nargs="?", default=None)
    status_parser.add_argument(
        "--url", default="http://127.0.0.1:8642", help="daemon base URL"
    )
    status_parser.add_argument(
        "--result", action="store_true",
        help="with a job id: print the job's full per-cell result payload",
    )
    status_parser.add_argument("--timeout", type=_positive_float, default=30.0)
    status_parser.add_argument("--json", action="store_true", help="machine-readable output")
    status_parser.set_defaults(handler=cmd_status)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; silence the stack trace.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
