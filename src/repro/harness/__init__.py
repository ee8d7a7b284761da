"""The experiment harness: trace replay, experiments, sweeps, tables.

This is the layer every benchmark drives: it assembles a fresh simulator +
array + policy, replays a workload open-loop (§4.1), and reduces the run
to the paper's metrics — mean I/O time, parity-lag statistics, and the
derived MTTDL / MDLR figures.
"""

from repro.harness.campaign import (
    CampaignSuiteOutcome,
    run_campaign_suite,
    write_campaign_reports,
)
from repro.harness.checkpoint import CheckpointStore
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.figures import ascii_bars, ascii_scatter, ascii_series
from repro.harness.nemesis import NemesisOutcome, run_nemesis, write_nemesis_report
from repro.harness.replay import gather, replay_trace
from repro.harness.runner import (
    DEFAULT_CACHE_DIR,
    CellExecutor,
    CellOutcome,
    CellSpec,
    PolicySpec,
    SweepInterrupted,
    SweepOutcome,
    cache_key,
    ladder_specs,
    merged_exposure_histograms,
    merged_histograms,
    run_cells,
)
from repro.harness.sweeps import (
    DEFAULT_MTTDL_TARGETS,
    PolicyLadderEntry,
    policy_ladder,
    run_policy_grid,
    tradeoff_curve,
)
from repro.harness.tables import format_quantity, format_table

__all__ = [
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MTTDL_TARGETS",
    "CampaignSuiteOutcome",
    "CellExecutor",
    "CellOutcome",
    "CellSpec",
    "CheckpointStore",
    "ExperimentResult",
    "NemesisOutcome",
    "PolicyLadderEntry",
    "PolicySpec",
    "SweepInterrupted",
    "SweepOutcome",
    "ascii_bars",
    "ascii_scatter",
    "ascii_series",
    "cache_key",
    "format_quantity",
    "format_table",
    "gather",
    "ladder_specs",
    "merged_exposure_histograms",
    "merged_histograms",
    "policy_ladder",
    "replay_trace",
    "run_campaign_suite",
    "run_cells",
    "run_experiment",
    "run_nemesis",
    "run_policy_grid",
    "tradeoff_curve",
    "write_campaign_reports",
    "write_nemesis_report",
]
