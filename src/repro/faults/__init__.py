"""Fault injection, seeded fault runs, and loss-invariant checking.

``repro.faults`` grew from a single injector module into a subsystem:

* :mod:`repro.faults.injector` — point faults (disk deaths, NVRAM loss,
  latent sector errors) against a live array, plus the eq.-(4) loss
  predictor;
* :mod:`repro.faults.invariants` — the paper's §3 loss claims as
  machine-checked assertions against the functional twin;
* :mod:`repro.faults.campaign` — the fault run (``FaultRun``): one spec
  base, one set-up, one spare pool and repair, one reader of the
  injector's strikes and one request tally, with the deterministic seeded
  campaign as its first case (crash/power-loss segments, invariant
  checks, byte-stable JSON reports);
* :mod:`repro.faults.nemesis` — its second case, the continuous
  SLO-gated nemesis, whose open faults are its timeline's.
"""

from repro.faults.campaign import (
    CampaignReport,
    CampaignSpec,
    FaultEvent,
    draw_fault_schedule,
    run_campaign,
)
from repro.faults.nemesis import (
    NemesisLoop,
    NemesisSpec,
)
from repro.faults.injector import (
    DiskFailureReport,
    FaultInjector,
    SkippedStrike,
    predicted_loss_bytes,
)
from repro.faults.invariants import (
    InvariantChecker,
    InvariantResult,
    InvariantViolation,
)

__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "DiskFailureReport",
    "FaultEvent",
    "FaultInjector",
    "InvariantChecker",
    "InvariantResult",
    "InvariantViolation",
    "NemesisLoop",
    "NemesisSpec",
    "SkippedStrike",
    "draw_fault_schedule",
    "predicted_loss_bytes",
    "run_campaign",
]
