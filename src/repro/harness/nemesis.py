"""Run a continuous nemesis and write its artefacts.

:func:`run_nemesis` takes every step of the nemesis case of a fault run
(:class:`~repro.faults.nemesis.NemesisLoop`): one segment with the full
telemetry stack attached (registry, exposure monitor, SLO engine,
latency histograms, correlation timeline), fed through the replay driver
(:func:`~repro.harness.replay.feed_trace`) while the nemesis ticks
alongside it, closed at the horizon
(:func:`~repro.harness.replay.close_replay` without finalizing), and
drained by the post-horizon recovery
(:func:`~repro.faults.campaign.finish_recovery`: an in-flight rebuild is
allowed to finish, parity debt is force-scrubbed) with
:meth:`~repro.faults.nemesis.NemesisLoop.poll` as its per-step poll, so
recoveries that happen during the drain are real timeline events rather
than horizon artifacts.

Everything in the resulting :class:`NemesisOutcome` derives from the
(spec, seed) pair — no wall clocks anywhere — so
:func:`write_nemesis_report` emits byte-identical files across reruns,
the property CI's soak job enforces with a binary diff.
"""

from __future__ import annotations

import json
import pathlib
import typing

from repro.faults.nemesis import NemesisLoop, NemesisOutcome, NemesisSpec
from repro.obs import SloRule, prometheus_text


def run_nemesis(
    spec: NemesisSpec,
    seed: int,
    rules: typing.Sequence[SloRule | str] = (),
    *,
    window_s: float = 2.0,
) -> NemesisOutcome:
    """Run one seeded continuous-nemesis soak; deterministic per (spec, seed)."""
    return NemesisLoop(spec, seed, rules, window_s=window_s).run()


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
