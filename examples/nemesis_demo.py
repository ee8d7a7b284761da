#!/usr/bin/env python3
"""Continuous chaos: a nemesis loop with live SLO gating.

Runs live traffic against an AFRAID array while a nemesis injects disk
deaths, NVRAM losses, and latent sector errors drawn from seeded
distributions — but *holds* injection whenever an SLO rule is breached,
resuming only after the array recovers.  Everything lands on one
correlated timeline: each breach is cause-linked to the fault that
provoked it, every rebuild is a closed span, and the same seed replays
the exact same byte-for-byte event log.

Usage: nemesis_demo.py [duration_s] [seed]
"""

import sys

from repro.faults import NemesisSpec
from repro.harness import run_nemesis


def main() -> None:
    duration = float(sys.argv[1]) if len(sys.argv) > 1 else 12.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    spec = NemesisSpec(
        workload="snake",
        duration_s=duration,
        disk_failures=2.0,
        nvram_losses=1.0,
        latent_errors=2.0,
    )
    rules = ("degraded_disks < 1", "scrub_backlog_marks <= 64")
    outcome = run_nemesis(spec, seed=seed, rules=rules)
    timeline = outcome.timeline

    print(f"nemesis soak: {duration:g}s of {spec.workload}, seed {seed}")
    print(f"  requests: {outcome.requests['completed']} completed, "
          f"{outcome.requests['failed']} failed")
    counts = timeline.fault_counts()
    injected = ", ".join(f"{kind}×{n}" for kind, n in sorted(counts.items()))
    print(f"  faults injected: {injected or '(none)'}")
    print(f"  injection gate: {outcome.loop.holds} hold(s), "
          f"{outcome.loop.resumes} resume(s)")

    # The timeline answers "why": walk each breach back to its fault.
    for breach in timeline.events_of("slo.breach"):
        chain = " <- ".join(
            f"{event.kind}[{event.id}]" for event in timeline.cause_chain(breach)
        )
        print(f"  breach of `{breach.attrs['rule']}` at t={breach.time_s:.2f}s: {chain}")
    for finish in timeline.events_of("rebuild.finish"):
        print(f"  rebuild of disk {finish.attrs['disk']} closed in "
              f"{finish.duration_s:.2f}s ({finish.attrs.get('stripes', '?')} stripes)")

    violations = timeline.check_invariants()
    print(f"  timeline: {len(timeline)} events, "
          f"{len(violations)} invariant violation(s)")

    # Same seed, same story — the soak CI diffs these bytes across reruns.
    rerun = run_nemesis(spec, seed=seed, rules=rules)
    identical = rerun.timeline.to_jsonl() == timeline.to_jsonl()
    print(f"  same-seed rerun byte-identical: {identical}")


if __name__ == "__main__":
    main()
