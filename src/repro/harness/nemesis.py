"""Drive live traffic under a continuous nemesis and write its artefacts.

:func:`run_nemesis` is the workload side of the
:class:`~repro.faults.nemesis.NemesisLoop`: it builds a fresh array with
the full telemetry stack attached (registry, exposure monitor, SLO
engine, latency histograms, correlation timeline), and feeds the seeded
workload through the replay driver
(:func:`~repro.harness.replay.feed_trace`, then
:func:`~repro.harness.replay.close_replay` without finalizing) while the
nemesis ticks alongside it.  It then runs the campaigns' post-horizon
recovery drain (:func:`~repro.faults.campaign.finish_recovery`: an
in-flight rebuild is allowed to finish, parity debt is force-scrubbed)
with :meth:`~repro.faults.nemesis.NemesisLoop.poll` as its per-step
poll, so recoveries that happen during the drain are real timeline
events rather than horizon artifacts.

Everything in the resulting :class:`NemesisOutcome` derives from the
(spec, seed) pair — no wall clocks anywhere — so
:func:`write_nemesis_report` emits byte-identical files across reruns,
the property CI's soak job enforces with a binary diff.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import typing

from repro.array.factory import build_array
from repro.faults.campaign import _DISK_FACTORIES, finish_recovery
from repro.faults.nemesis import NemesisLoop, NemesisSpec
from repro.harness.replay import close_replay, feed_trace
from repro.obs import (
    ExposureMonitor,
    HistogramSet,
    MetricsRegistry,
    SloEngine,
    SloRule,
    prometheus_text,
)
from repro.obs.timeline import LatencyWindows, Timeline
from repro.policy import POLICIES
from repro.sim import Simulator
from repro.traces import make_trace


@dataclasses.dataclass
class NemesisOutcome:
    """Everything one seeded nemesis run produced."""

    spec: NemesisSpec
    seed: int
    timeline: Timeline
    loop: NemesisLoop
    engine: SloEngine
    registry: MetricsRegistry
    hists: HistogramSet
    requests: dict
    horizon_s: float

    @property
    def violations(self) -> list[str]:
        return self.timeline.check_invariants()

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_payload(self) -> dict:
        """The byte-stable JSON summary (everything sim/seed-derived)."""
        tracker = self.loop.tracker
        return {
            "nemesis": {"seed": self.seed, "spec": self.spec.to_dict()},
            "horizon_s": self.horizon_s,
            "requests": self.requests,
            "faults": {
                "injected": tracker.counts(),
                "open_at_end": [fault.event.id for fault in tracker.open_faults()],
                "holds": self.loop.holds,
                "resumes": self.loop.resumes,
                "dropped": len(self.loop.dropped),
                "spares_used": self.spec.spare_pool - self.loop.spares_left,
            },
            "slo": {
                "rules": [rule.describe() for rule in self.engine.rules],
                "rows": self.engine.summary_rows(),
            },
            "timeline": {
                "events": len(self.timeline),
                "kinds": dict(sorted(self.timeline.kinds().items())),
                "dropped": self.timeline.dropped,
            },
            "invariants": {"ok": self.ok, "violations": self.violations},
        }


def run_nemesis(
    spec: NemesisSpec,
    seed: int,
    rules: typing.Sequence[SloRule | str] = (),
    *,
    window_s: float = 2.0,
) -> NemesisOutcome:
    """Run one seeded continuous-nemesis soak; deterministic per (spec, seed)."""
    sim = Simulator()
    registry = MetricsRegistry()
    monitor = ExposureMonitor(window_s=window_s)
    engine = SloEngine(
        [rule if isinstance(rule, SloRule) else SloRule.parse(rule) for rule in rules]
    )
    timeline = Timeline()
    hists = HistogramSet()

    array = build_array(
        sim,
        POLICIES[spec.policy](),
        ndisks=spec.ndisks,
        stripe_unit_sectors=spec.stripe_unit_sectors,
        disk_factory=_DISK_FACTORIES[spec.disk_model],
        organization=spec.organization,
        with_functional=True,
        idle_threshold_s=spec.idle_threshold_s,
        bits_per_stripe=spec.bits_per_stripe,
        name="nemesis",
    )
    array.attach_observability(histograms=hists, registry=registry, exposure=monitor)

    loop = NemesisLoop(
        sim,
        array,
        spec,
        seed,
        timeline=timeline,
        monitor=monitor,
        engine=engine,
        registry=registry,
        latency_windows=LatencyWindows(hists),
    )

    trace = make_trace(
        spec.workload,
        duration_s=spec.duration_s,
        address_space_sectors=array.layout.total_data_sectors,
        seed=seed,
        allow_generic=True,
    )
    loop.start()
    # Failures are data, not errors, under continuous chaos: the feed
    # defuses every completion and the close collects them.
    replay = (sim, array, [], [])
    feed_trace(replay, list(trace))
    close_replay(replay, spec.duration_s, spec.settle_s, finalize=False)
    # ---- drain, with the telemetry pass still ticking: still-open NVRAM
    # faults clear and backlog SLOs genuinely recover before the close.
    finish_recovery(sim, array, poll=loop.poll)

    loop.finish_engine(sim.now)
    monitor.finish(sim.now)
    array.finalize()

    completions = replay[3]
    failure_kinds: dict[str, int] = {}
    requests = {"submitted": len(completions), "completed": 0, "failed": 0}
    for completion in completions:
        if completion.ok:
            requests["completed"] += 1
        else:
            requests["failed"] += 1
            name = type(completion.exception).__name__
            failure_kinds[name] = failure_kinds.get(name, 0) + 1
    requests["failure_kinds"] = dict(sorted(failure_kinds.items()))

    return NemesisOutcome(
        spec=spec,
        seed=seed,
        timeline=timeline,
        loop=loop,
        engine=engine,
        registry=registry,
        hists=hists,
        requests=requests,
        horizon_s=sim.now,
    )


def write_nemesis_report(outcome: NemesisOutcome, directory) -> dict[str, pathlib.Path]:
    """Write the run's artefacts into ``directory``; returns name -> path.

    ``timeline.jsonl`` (the byte-diffed artefact), ``trace.json`` (Chrome
    trace-event), ``metrics.prom`` (final registry + timeline counters),
    ``incident.md`` (the rendered report), ``summary.json``.
    """
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "timeline": directory / "timeline.jsonl",
        "trace": directory / "trace.json",
        "metrics": directory / "metrics.prom",
        "incident": directory / "incident.md",
        "summary": directory / "summary.json",
    }
    outcome.timeline.write_jsonl(paths["timeline"])
    outcome.timeline.write_chrome(paths["trace"])
    with open(paths["metrics"], "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(outcome.registry))
        handle.write(outcome.timeline.prometheus_text())
    with open(paths["incident"], "w", encoding="utf-8") as handle:
        handle.write(
            outcome.timeline.render_report(
                title=f"Nemesis incident report (seed {outcome.seed})"
            )
        )
    with open(paths["summary"], "w", encoding="utf-8") as handle:
        handle.write(json.dumps(outcome.summary_payload(), indent=2, sort_keys=True) + "\n")
    return paths
