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

Every simulating command builds a spec from its flags — a
:class:`~repro.harness.runner.CellSpec`, a campaign or a nemesis spec —
runs it and renders it.  The run flags they share are declared once, in
:data:`_SHARED_FLAGS`; a flag's text is parsed by its spec field's declared
type, and the spec checks the bounds.  A value the spec refuses exits 2
as a usage error of its flag, carrying the message the service's HTTP 400
carries for the same value.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from repro.availability import (
    CONSERVATIVE_SUPPORT,
    TABLE_1,
    combine_mttdl,
    loss_probability,
    organization_mttdl,
)
from repro.disk import c3325_geometry
from repro.faults import CampaignSpec
from repro.faults.nemesis import NemesisSpec
from repro.harness import DEFAULT_CACHE_DIR, format_quantity, format_table
from repro.harness.runner import CellSpec, PolicySpec, run_spec
from repro.layout import ORGANIZATIONS
from repro.metrics import PerfCounters
from repro.obs import (
    ExposureMonitor,
    HistogramSet,
    MetricsRegistry,
    SloEngine,
    SloRule,
    start_exposure_poller,
)
from repro.policy import POLICIES
from repro.spec import SpecError, check_number, check_organization, coerce
from repro.traces import CATALOG, workload_names


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0 (windows, periods, timeouts)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _finite_float(low: float, high: float | None = None):
    """An argparse type accepting finite numbers in ``[low, high]``."""
    bounds = f">= {low:g}" if high is None else f"in [{low:g}, {high:g}]"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (math.isfinite(value) and value >= low and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be a finite number {bounds}, got {text!r}")
        return value

    return parse


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


def _field_type(cls, name: str):
    """An argparse type reading flag text as field ``name`` of spec ``cls``.

    The field's declared type does the coercion (:func:`repro.spec.coerce`),
    so flag text and a service JSON value fail with the same message.
    """
    field = {field.name: field for field in dataclasses.fields(cls)}[name]

    def parse(text: str):
        try:
            return coerce(field, text)
        except SpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


#: The flags commands share, each declared once: flag -> (the spec field
#: it sets, argparse options).  The first seven are the run flags of every
#: simulating command.  A command lists the ones it takes in
#: :func:`_command` and sets its own defaults.
_SHARED_FLAGS = {
    "--duration": ("duration_s", dict(
        type=_field_type(CellSpec, "duration_s"), metavar="S",
        help="simulated seconds of workload (default %(default)s)",
    )),
    "--seed": ("seed", dict(
        type=_field_type(CellSpec, "seed"), help="workload and fault seed (default %(default)s)",
    )),
    "--organization": ("organization", dict(
        default="raid5", metavar="ORG",
        help=f"redundancy scheme: {', '.join(ORGANIZATIONS)} (default: the paper's raid5)",
    )),
    "--ndisks": ("ndisks", dict(
        type=_field_type(CellSpec, "ndisks"),
        help="member disks (default: the organization's own, "
        + ", ".join(f"{name} {org.default_disks}" for name, org in ORGANIZATIONS.items())
        + ")",
    )),
    "--policy": ("policy", dict(
        action="append", metavar="KIND",
        help=f"parity policy: {', '.join([*POLICIES, 'mttdl'])} (default afraid; the last "
        "one given counts, except for submit, which sends one cell per --policy)",
    )),
    "--mttdl-target": ("mttdl_target", dict(
        type=_field_type(PolicySpec, "mttdl_target"), metavar="HOURS",
        help="hours, for --policy mttdl",
    )),
    "--slo": (None, dict(
        action="append", metavar="RULE",
        help='SLO rule like "parity_lag_bytes < 5e6"; repeatable',
    )),
    "--json": (None, dict(action="store_true", help="print machine-readable JSON")),
    "--cache-dir": (None, dict(
        default=DEFAULT_CACHE_DIR, help="result cache directory (default %(default)s)"
    )),
    "--no-cache": (None, dict(
        action="store_true", help="simulate every cell, never touch the cache"
    )),
    "--cache-max-bytes": (None, dict(
        type=_nonnegative_int, metavar="N",
        help="bound the cache: prune its oldest entries past N bytes",
    )),
    "--checkpoint-dir": (None, dict(
        metavar="DIR",
        help="replay checkpoint store: a run resumes from the deepest stored quiescent "
        "cut of a matching trace prefix",
    )),
    "--url": (None, dict(default="http://127.0.0.1:8642", help="daemon base URL")),
    "--timeout": (None, dict(type=_positive_float, help="seconds (default %(default)s)")),
}

#: The nemesis knobs: flag -> (NemesisSpec field, metavar, help).  Each
#: parses by the field's type and defaults to the spec's own default.
_NEMESIS_FLAGS = {
    "--disk-model": ("disk_model", "MODEL", "member disk model: toy or hp_c3325"),
    "--disk-failures": ("disk_failures", "N", "expected member deaths over the run"),
    "--nvram-losses": ("nvram_losses", "N", "expected marking-memory losses"),
    "--latent-errors": ("latent_errors", "N", "expected latent sector errors"),
    "--spares": ("spare_pool", "N", "spare-disk pool"),
    "--repair-delay": ("repair_delay_s", "S", "technician delay before a spare rebuild starts"),
    "--period": ("period_s", "S", "gate/telemetry tick"),
    "--sample-period": ("sample_period_s", "S", "exposure/latency timeline sample period"),
    "--mttdl-floor": (
        "mttdl_floor_h", "HOURS",
        "also hold injections while windowed achieved MTTDL is below this",
    ),
}


def _cell_spec(
    args: argparse.Namespace, policy: PolicySpec | None = None, workload: str | None = None
) -> CellSpec:
    """The command's cell: its workload and run flags, checked by CellSpec.

    ``policy`` and ``workload`` stand in for the ``--policy`` and
    ``--mttdl-target`` flags and for the workload argument.
    """
    if policy is None:
        kind = args.policy[-1] if args.policy else "afraid"
        policy = PolicySpec(kind, getattr(args, "mttdl_target", None))
    return CellSpec(
        args.workload if workload is None else workload,
        policy,
        duration_s=args.duration,
        seed=args.seed,
        ndisks=args.ndisks,
        organization=args.organization,
    )


def _catalog_workloads(args: argparse.Namespace, names) -> list[str]:
    """``names``, each a catalog workload; any other is a usage error."""
    for name in names:
        if name not in CATALOG:
            args.parser.error(
                f"argument workloads: unknown workload {name!r}; choose from {workload_names()}"
            )
    return list(names)


def _title(spec: CellSpec, policy: str, extra: str = "") -> str:
    """``workload under policy (duration, seed...)``, naming a non-default array."""
    title = f"{spec.workload} under {policy} ({spec.duration_s:g}s, seed {spec.seed}{extra})"
    if spec.organization != "raid5":
        title += f" [{spec.organization}, {spec.ndisks} disks]"
    return title


def _generic_trace(spec: CellSpec):
    """``None`` for a catalog workload; any other name synthesises a generic
    bursty trace under that name (with a note), so ad-hoc labels work."""
    if spec.workload in CATALOG:
        return None
    from repro.traces import make_trace

    print(
        f"note: {spec.workload!r} is not in the workload catalog; "
        "synthesising a generic bursty workload under that name",
        file=sys.stderr,
    )
    org, _ndisks = check_organization(spec.organization, spec.ndisks)
    layout = org.build_layout(spec.ndisks, spec.stripe_unit_sectors, c3325_geometry().total_sectors)
    return make_trace(
        spec.workload,
        duration_s=spec.duration_s,
        address_space_sectors=layout.total_data_sectors,
        seed=spec.seed,
        allow_generic=True,
    )


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


def _jsonable(value):
    return "inf" if isinstance(value, float) and value == float("inf") else value


def cmd_workloads(_args: argparse.Namespace) -> int:
    rows = [
        [name, f"{CATALOG[name].write_fraction:.0%}", CATALOG[name].description]
        for name in workload_names()
    ]
    print(format_table(["workload", "writes", "description"], rows))
    return 0


def _parse_slo_rules(texts) -> list[SloRule]:
    """``--slo`` strings to rules; a bad rule is a usage error, not a crash."""
    try:
        return [SloRule.parse(text) for text in texts or ()]
    except ValueError as exc:
        raise SystemExit(f"--slo: {exc}") from None


def _run_with_slo(
    spec: CellSpec,
    rules: list[SloRule],
    window_s: float = 5.0,
    period_s: float = 0.050,
    **run_kwargs,
):
    """One cell with live exposure telemetry and SLO evaluation.

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
            until=spec.duration_s,
        )

    result = run_spec(
        spec, registry=registry, exposure=monitor, on_array=instrument, **run_kwargs
    )
    engine.finish(result.horizon_s)
    return result, registry, engine, snapshotter


def _slo_payload(engine: SloEngine, rules: list[SloRule]) -> dict:
    return {
        "rules": [rule.describe() for rule in rules],
        "breached": engine.any_breached_ever,
        "events": [
            {"time_s": e.time_s, "kind": e.kind, "rule": e.rule.describe()}
            for e in engine.events
        ],
    }


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
    spec = _cell_spec(args)
    counters = PerfCounters() if args.stats else None
    rules = _parse_slo_rules(args.slo)
    engine = None
    if rules:
        result, _registry, engine, _snaps = _run_with_slo(spec, rules, counters=counters)
    else:
        result = run_spec(spec, counters=counters)
    if args.json:
        payload = result.to_dict()
        if counters is not None:
            payload["perf"] = counters.snapshot()
        if engine is not None:
            payload["slo"] = _slo_payload(engine, rules)
        print(json.dumps(payload, indent=2))
        return 0
    title = _title(spec, result.policy)
    print(format_table(["metric", "value"], _result_rows(result), title=title))
    if engine is not None:
        print()
        print(_slo_report(engine))
    if counters is not None:
        print()
        print(format_table(["counter", "value"], counters.rows(), title="perf counters"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = ("raid0", "afraid", "raid5")
    specs = {name: _cell_spec(args, PolicySpec(name)) for name in names}
    rules = _parse_slo_rules(args.slo)
    results = {}
    engines = {}
    for name, spec in specs.items():
        if rules:
            results[name], _reg, engines[name], _snaps = _run_with_slo(spec, rules)
        else:
            results[name] = run_spec(spec)
    raid5_mean = results["raid5"].io_time.mean
    header = ["model", "mean I/O (ms)", "vs RAID5", "unprot time", "disk MTTDL (h)"]
    if rules:
        header.append("SLO breaches")
    rows = []
    for name in names:
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
    spec = specs["raid5"]
    title = f"{spec.workload}, {spec.duration_s:g}s, seed {spec.seed}"
    if spec.organization != "raid5":
        title += f" [{spec.organization}, {spec.ndisks} disks]"
    print(format_table(header, rows, title=title))
    if rules:
        for name in names:
            print(f"\n{name}:")
            print(_slo_report(engines[name]))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.traces import analyze, make_trace, read_trace_csv

    check_number("duration_s", args.duration, strict=True)
    if args.workload.endswith(".csv"):
        trace = read_trace_csv(args.workload)
    else:
        trace = make_trace(args.workload, duration_s=args.duration, seed=args.seed)
    report = analyze(trace, gap_threshold_s=args.gap)
    print(format_table(["property", "value"], report.rows(), title=f"trace: {report.name}"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.perf import dump_pstats, format_hot_path, profile_call

    spec = _cell_spec(args)
    result, profile = profile_call(run_spec, spec)
    print("profile: " + _title(spec, result.policy, f", {result.nrequests} requests"))
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

    workloads = _catalog_workloads(args, args.workloads or workload_names())
    targets = args.targets if args.targets else list(DEFAULT_MTTDL_TARGETS)
    specs = ladder_specs(
        workloads,
        targets,
        duration_s=args.duration,
        seed=args.seed,
        organization=args.organization,
        ndisks=args.ndisks,
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
    baseline_label = dataclasses.replace(specs[0], policy=PolicySpec("raid5")).key[1]
    points = tradeoff_curve(outcome.results, workloads, labels, baseline_label=baseline_label)

    if args.json:
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
    from repro.obs import PeriodicSampler, Tracer, attach_array_probes

    spec = _cell_spec(args)
    tracer = Tracer(max_records=args.max_records)

    def instrument(sim, array) -> None:
        if args.kernel:
            tracer.attach_kernel(sim)
        sampler = PeriodicSampler(sim, period_s=args.sample_period, tracer=tracer)
        attach_array_probes(sampler, array)
        sampler.start()

    result = run_spec(spec, _generic_trace(spec), tracer=tracer, on_array=instrument)
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
    title = _title(spec, result.policy)
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
        spec = _cell_spec(args)
        result = run_spec(spec, _generic_trace(spec))
        hists = result.histogram_set()
        assert hists is not None
        title = _title(spec, result.policy)
    rows = hists.rows()
    if not rows:
        print("no latencies recorded")
        return 0
    print(format_table(HistogramSet.table_header(), rows, title=title))
    return 0


def cmd_availability(args: argparse.Namespace) -> int:
    params = TABLE_1
    org, ndisks = check_organization(args.organization, args.ndisks)
    # Zero exposure gives the organization's catastrophic-only MTTDL
    # (for RAID 5 that is exactly eq. (1)).
    sync = organization_mttdl(org.name, ndisks, params.mttf_disk_h, params.mttr_h, 0.0)
    deferred = organization_mttdl(
        org.name, ndisks, params.mttf_disk_h, params.mttr_h, args.fraction
    )
    overall = combine_mttdl(deferred, CONSERVATIVE_SUPPORT.mttdl_h)
    lifetime_h = args.years * 24 * 365.25
    p_loss = loss_probability(overall, lifetime_h)
    if args.format == "json":
        payload = {
            "ndisks": ndisks,
            "organization": org.name,
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
        print(json.dumps({key: _jsonable(value) for key, value in payload.items()}, indent=2))
        return 0
    rows = [
        [f"{org.display} disk MTTDL (catastrophic)", format_quantity(sync, " h")],
        [
            f"deferred {org.display} disk MTTDL @ {args.fraction:.1%} exposure",
            format_quantity(deferred, " h"),
        ],
        ["support MTTDL (Table 1)", format_quantity(CONSERVATIVE_SUPPORT.mttdl_h, " h")],
        ["overall MTTDL", format_quantity(overall, " h")],
        [f"P(loss in {args.years:g} years)", f"{p_loss:.2%}"],
    ]
    print(format_table(["quantity", "value"], rows, title=f"{ndisks}-disk {org.display} array"))
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
    spec = _cell_spec(args)
    rules = _parse_slo_rules(args.slo)
    result, registry, engine, snapshotter = _run_with_slo(
        spec, rules, window_s=args.window, period_s=args.period, workload=_generic_trace(spec)
    )
    exposure_hists = result.exposure_histogram_set()
    analytic_mttdl = organization_mttdl(
        result.organization, result.ndisks, result.params.mttf_disk_h, result.params.mttr_h,
        result.unprotected_fraction,
    )

    if args.prom:
        from repro.obs import write_prometheus

        write_prometheus(registry, args.prom)
    if args.jsonl:
        snapshotter.write_jsonl(args.jsonl)

    if args.json:
        payload = {
            "result": result.to_dict(),
            "metrics": {k: _jsonable(v) for k, v in registry.snapshot().items()},
            "slo": _slo_payload(engine, rules),
            "snapshots": len(snapshotter.snaps),
        }
        print(json.dumps(payload, indent=2))
    else:
        metric_rows = [
            [name, format_quantity(value)]
            for name, value in sorted(registry.snapshot().items())
        ]
        title = _title(spec, result.policy, f", window {args.window:g}s")
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
    from repro.harness.sharding import run_sharded_replay

    spec = _cell_spec(args)
    result, digest = run_sharded_replay(
        spec.workload,
        policy=spec.policy.kind,
        duration_s=spec.duration_s,
        seed=spec.seed,
        shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_max_bytes=args.checkpoint_max_bytes,
        organization=spec.organization,
        ndisks=spec.ndisks,
    )
    if args.report_json:
        report = {
            "workload": spec.workload,
            "policy": spec.policy.label,
            "organization": spec.organization,
            "ndisks": spec.ndisks,
            "duration_s": spec.duration_s,
            "seed": spec.seed,
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
    title = _title(spec, spec.policy.label, f", {args.shards} shard(s)")
    print(format_table(["metric", "value"], rows, title=title))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Run a deterministic fault campaign (or a multi-seed suite).

    The default spec exercises every fault type lightly; ``--campaign``
    loads a JSON :class:`~repro.faults.CampaignSpec` instead.  Reports
    are byte-stable for a given (spec, seed) — rerunning and diffing is
    the determinism check CI performs.
    """
    from repro.harness import run_campaign_suite, write_campaign_reports

    if args.campaign:
        try:
            spec = CampaignSpec.from_file(args.campaign)
        except FileNotFoundError:
            raise SystemExit(f"--campaign: {args.campaign}: no such file") from None
        except (ValueError, json.JSONDecodeError) as exc:
            raise SystemExit(f"--campaign: {args.campaign}: {exc}") from None
    else:
        spec = CampaignSpec(
            disk_failures=1.0, nvram_losses=0.5, latent_errors=1.0, crashes=0.5,
            organization=args.organization, ndisks=args.ndisks,
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
    from repro.harness.nemesis import run_nemesis, write_nemesis_report

    rules = _parse_slo_rules(args.slo or DEFAULT_NEMESIS_SLOS)
    spec = NemesisSpec(
        workload=args.workload,
        duration_s=args.duration,
        ndisks=args.ndisks,
        organization=args.organization,
        policy=args.policy[-1] if args.policy else "afraid",
        **{field: getattr(args, field) for field, _metavar, _help in _NEMESIS_FLAGS.values()},
    )
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
    """The job's cells, built and checked here as ``sweep`` would build them."""
    from repro.harness import ladder_specs
    from repro.service import spec_to_payload

    workloads = _catalog_workloads(args, args.workloads)
    if args.policy:
        # ``--targets`` gives an mttdl policy its targets: one cell each.
        specs = [
            _cell_spec(args, PolicySpec(kind, target), workload)
            for workload in workloads
            for kind in args.policy
            for target in ((args.targets or [None]) if kind == "mttdl" else [None])
        ]
    else:
        specs = ladder_specs(
            workloads,
            args.targets or [],
            duration_s=args.duration,
            seed=args.seed,
            organization=args.organization,
            ndisks=args.ndisks,
        )
    return {"cells": [spec_to_payload(spec) for spec in specs]}


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a job to a running daemon; optionally wait / stream events."""
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


def _command(commands, name: str, handler, help: str, flags=(), fields=None, **defaults):
    """A subcommand taking the shared run ``flags``, with its own defaults.

    ``fields`` maps each further spec field the command sets to the flag
    that sets it, so :func:`main` can blame a refused value on its flag.
    """
    parser = commands.add_parser(name, help=help)
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag][1])
    parser.set_defaults(
        handler=handler,
        parser=parser,
        spec_flags={
            **{_SHARED_FLAGS[flag][0]: flag for flag in flags if _SHARED_FLAGS[flag][0]},
            **(fields or {}),
        },
        **defaults,
    )
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afraid-sim",
        description="AFRAID (USENIX 1996) reproduction: trace-driven array simulation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    cell = ("--duration", "--seed", "--organization", "--ndisks")
    one_policy = (*cell, "--policy", "--mttdl-target")
    store = ("--cache-dir", "--no-cache", "--cache-max-bytes", "--checkpoint-dir")
    client = ("--url", "--timeout", "--json")

    _command(commands, "workloads", cmd_workloads, "list the workload catalog")

    run = _command(
        commands, "run", cmd_run, "run one workload under one policy",
        (*one_policy, "--slo", "--json"), duration=30.0, seed=42,
    )
    run.add_argument("workload", choices=workload_names())
    run.add_argument("--stats", action="store_true", help="also print simulator perf counters")

    compare = _command(
        commands, "compare", cmd_compare, "RAID 0 vs AFRAID vs RAID 5 on one workload",
        (*cell, "--slo"), duration=20.0, seed=42,
    )
    compare.add_argument("workload", choices=workload_names())

    analyze = _command(
        commands, "analyze", cmd_analyze, "characterise a workload (catalog name or trace CSV)",
        ("--duration", "--seed"), duration=60.0, seed=42,
    )
    analyze.add_argument("workload", help="catalog name, or a path ending in .csv")
    analyze.add_argument(
        "--gap", type=_finite_float(0.0), default=0.1, help="burst-splitting gap (s)"
    )

    profile = _command(
        commands, "profile", cmd_profile, "cProfile one replay and print the hot-path table",
        one_policy, duration=10.0, seed=42,
    )
    profile.add_argument("workload", choices=workload_names())
    profile.add_argument(
        "--top", type=_positive_int, default=20, help="rows in the hot-path table"
    )
    profile.add_argument("--sort", default="cumulative", choices=["cumulative", "tottime"])
    profile.add_argument("--dump", metavar="PATH", help="also write a raw pstats dump")

    sweep = _command(
        commands, "sweep", cmd_sweep,
        "run the Figure 3/4 policy-ladder grid via the parallel sweep engine",
        (*cell, *store, "--json"), fields={"mttdl_target": "--targets"}, duration=30.0, seed=42,
    )
    sweep.add_argument("workloads", nargs="*", help="workload names (default: the full catalog)")
    sweep.add_argument(
        "--targets", type=_field_type(PolicySpec, "mttdl_target"), nargs="+", default=None,
        help="MTTDL_x targets in hours",
    )
    sweep.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")
    sweep.add_argument("--stats", action="store_true", help="also print sweep perf counters")

    trace = _command(
        commands, "trace", cmd_trace, "run one workload and export a Perfetto-loadable trace",
        one_policy, duration=30.0, seed=42,
    )
    trace.add_argument(
        "workload", help="catalog name (unknown names synthesise a generic workload)"
    )
    trace.add_argument("--out", default="trace.json", help="Chrome trace-event JSON output path")
    trace.add_argument("--jsonl", default=None, help="also write raw records as JSON lines")
    trace.add_argument("--hist-out", default=None, help="write latency histograms as JSON")
    trace.add_argument(
        "--sample-period", type=_positive_float, default=0.010, help="sampler period (simulated s)"
    )
    trace.add_argument(
        "--max-records", type=_positive_int, default=1_000_000, help="tracer memory bound (records)"
    )
    trace.add_argument(
        "--kernel", action="store_true",
        help="also record per-event kernel dispatch instants (verbose)",
    )

    report = _command(
        commands, "report", cmd_report, "per-request-class latency percentile table",
        one_policy, duration=30.0, seed=42,
    )
    report.add_argument("workload", nargs="?", default=None, help="catalog name (or use --from)")
    report.add_argument(
        "--from", dest="from_file", default=None, metavar="FILE",
        help="report from a histogram JSON written by `trace --hist-out`",
    )

    availability = _command(
        commands, "availability", cmd_availability, "Section 3 analytic calculator",
        ("--organization", "--ndisks"),
    )
    availability.add_argument(
        "--fraction", type=_finite_float(0.0, 1.0), default=0.05,
        help="unprotected-time fraction",
    )
    availability.add_argument("--years", type=_finite_float(0.0), default=3.0)
    availability.add_argument(
        "--format", choices=["table", "json"], default="table", help="output format"
    )

    exposure = _command(
        commands, "exposure", cmd_exposure,
        "live redundancy-exposure telemetry, SLO checks, and metric export",
        (*one_policy, "--slo", "--json"), duration=30.0, seed=42,
    )
    exposure.add_argument(
        "workload", help="catalog name (unknown names synthesise a generic workload)"
    )
    exposure.add_argument(
        "--window", type=_positive_float, default=5.0, help="estimator sliding window (simulated s)"
    )
    exposure.add_argument(
        "--period", type=_positive_float, default=0.050, help="poller/snapshot period (simulated s)"
    )
    exposure.add_argument(
        "--prom", default=None, metavar="FILE",
        help="write final registry state in Prometheus text exposition format",
    )
    exposure.add_argument(
        "--jsonl", default=None, metavar="FILE",
        help="write the sampled registry time series as JSON lines",
    )
    exposure.add_argument(
        "--fail-on-breach", action="store_true", help="exit 1 if any SLO rule was ever breached",
    )

    replay = _command(
        commands, "replay", cmd_replay,
        "time-sliced (sharded) trace replay with deterministic handoff",
        (*cell, "--policy", "--checkpoint-dir"), fields={"mttdl_target": "--policy"},
        duration=30.0, seed=42,
    )
    replay.add_argument("workload", choices=workload_names())
    replay.add_argument(
        "--shards", type=_positive_int, default=1,
        help="look for quiescent cuts at this many equal time slices; the steps run one "
        "after another in one simulation, and results are byte-identical for any value",
    )
    replay.add_argument(
        "--digest", action="store_true",
        help="print only the result fingerprint (for determinism checks)",
    )
    replay.add_argument(
        "--checkpoint-max-bytes", type=_nonnegative_int, default=None, metavar="N",
        help="bound checkpoint-store growth: prune oldest entries past N bytes",
    )
    replay.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write digest/events-simulated run metadata as JSON",
    )

    faults = _command(
        commands, "faults", cmd_faults,
        "run a seeded fault campaign with crash-recovery invariant checks",
        ("--seed", "--organization", "--ndisks", "--json"), seed=0,
    )
    faults.add_argument(
        "--seeds", type=_nonnegative_int, default=0, metavar="K",
        help="run seeds 0..K-1 as a suite instead of a single --seed",
    )
    faults.add_argument(
        "--campaign", default=None, metavar="SPEC.json",
        help="JSON campaign spec (defaults to a light all-fault-types campaign over "
        "--organization and --ndisks, which it ignores)",
    )
    faults.add_argument(
        "--out", default=None, metavar="DIR",
        help="write per-seed JSON reports (plus suite.json) into DIR",
    )
    faults.add_argument(
        "--fail-on-invariant", action="store_true",
        help="exit 1 if any loss invariant was violated",
    )

    nemesis_defaults = {field.name: field.default for field in dataclasses.fields(NemesisSpec)}
    nemesis = _command(
        commands, "nemesis", cmd_nemesis,
        "continuous SLO-gated chaos with a correlated incident timeline",
        (*cell, "--policy", "--slo", "--json"),
        fields={field: flag for flag, (field, _metavar, _help) in _NEMESIS_FLAGS.items()},
        duration=30.0, seed=0,
    )
    nemesis.description = "--slo rules gate injections; without any, the gate is " + " and ".join(
        repr(text) for text in DEFAULT_NEMESIS_SLOS
    )
    nemesis.add_argument(
        "workload", nargs="?", default="snake", help="catalog workload (default snake)"
    )
    for flag, (field, metavar, text) in _NEMESIS_FLAGS.items():
        nemesis.add_argument(
            flag, dest=field, type=_field_type(NemesisSpec, field),
            default=nemesis_defaults[field], metavar=metavar, help=f"{text} (default %(default)s)",
        )
    nemesis.add_argument(
        "--window", type=_positive_float, default=2.0, metavar="S",
        help="sliding exposure window (default 2)",
    )
    nemesis.add_argument(
        "--report", default=None, metavar="DIR",
        help="write timeline.jsonl, trace.json, metrics.prom, incident.md, summary.json",
    )
    nemesis.add_argument(
        "--fail-on-violation", action="store_true",
        help="exit 1 if the timeline violates a correlation invariant",
    )

    serve = _command(
        commands, "serve", cmd_serve, "run the simulation-as-a-service daemon (HTTP/JSON API)",
        store,
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument("--jobs", type=_positive_int, default=2, help="worker processes")
    serve.add_argument(
        "--queue-limit", type=_positive_int, default=1024, metavar="CELLS",
        help="max admitted-but-unfinished cells before submissions get 429",
    )
    serve.add_argument(
        "--max-attempts", type=_positive_int, default=3, metavar="N",
        help="pool submissions per cell before a crashing cell fails the job",
    )
    serve.add_argument("--verbose", action="store_true", help="log every HTTP request to stderr")

    submit = _command(
        commands, "submit", cmd_submit, "submit a job to a running serve daemon",
        (*cell, "--policy", *client), fields={"mttdl_target": "--targets"},
        duration=30.0, seed=42, timeout=600.0,
    )
    submit.add_argument(
        "workloads", nargs="+", help="workload names (the ladder grid, like sweep)"
    )
    submit.add_argument(
        "--targets", type=_field_type(PolicySpec, "mttdl_target"), nargs="+", default=None,
        help="MTTDL_x targets in hours: the ladder grid, or the cells of --policy mttdl",
    )
    submit.add_argument("--wait", action="store_true", help="block until the job is terminal")
    submit.add_argument(
        "--stream", action="store_true",
        help="stream the job's NDJSON events to stdout until it finishes",
    )

    status = _command(
        commands, "status", cmd_status, "job table (or one job) of a running serve daemon",
        client, timeout=30.0,
    )
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument(
        "--result", action="store_true",
        help="with a job id: print the job's full per-cell result payload",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SpecError as exc:
        # A value the command's spec refused: a usage error of the flag
        # (or argument) that set it, exit 2.
        flag = args.spec_flags.get(exc.field, exc.field)
        args.parser.error(f"argument {flag}: {exc}")
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; silence the stack trace.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
