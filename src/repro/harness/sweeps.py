"""Parameter sweeps: the MTTDL_x ladder and the Figure 3 trade-off curve."""

from __future__ import annotations

import dataclasses
import typing

from repro.availability import ReliabilityParams, TABLE_1
from repro.harness.experiment import ExperimentResult, run_experiment
from repro.harness.runner import CellSpec, PolicySpec, run_cells
from repro.metrics import geometric_mean
from repro.policy import (
    AlwaysRaid5Policy,
    BaselineAfraidPolicy,
    MttdlTargetPolicy,
    NeverScrubPolicy,
    ParityPolicy,
)

#: The MTTDL_x targets swept for Figures 3 and 4.  The interesting band
#: for *disk-related* MTTDL lies between pure AFRAID under a busy trace
#: (~4×10⁵ h: always exposed) and pure RAID 5 (eq. (1): ~4×10⁹ h); targets
#: above what a workload's idle time can deliver push the policy towards
#: RAID 5 duty-cycling, targets below it leave pure-AFRAID behaviour.
DEFAULT_MTTDL_TARGETS: tuple[float, ...] = (1.0e9, 1.0e8, 3.0e7, 1.0e7, 3.0e6, 1.0e6)


@dataclasses.dataclass(frozen=True)
class PolicyLadderEntry:
    """A labelled policy constructor (policies are stateful: one per run).

    ``spec`` is the picklable description of the same policy; entries that
    carry one can run through the parallel sweep engine.  Custom entries
    built around arbitrary factories leave it ``None`` and run serially.
    """

    label: str
    factory: typing.Callable[[], ParityPolicy]
    spec: PolicySpec | None = None


def policy_ladder(
    targets: typing.Sequence[float] = DEFAULT_MTTDL_TARGETS,
    params: ReliabilityParams = TABLE_1,
    include_raid5: bool = True,
    include_raid0: bool = True,
) -> list[PolicyLadderEntry]:
    """RAID 5 → MTTDL_x (tight to loose) → baseline AFRAID → RAID 0.

    This is the x-axis of Figures 3 and 4: availability decreasing,
    expected performance increasing.
    """
    ladder: list[PolicyLadderEntry] = []
    if include_raid5:
        ladder.append(PolicyLadderEntry("raid5", AlwaysRaid5Policy, PolicySpec("raid5")))
    for target in sorted(targets, reverse=True):
        ladder.append(
            PolicyLadderEntry(
                f"MTTDL_{target:.0e}",
                lambda target=target: MttdlTargetPolicy(target, params=params),
                # The spec only captures the target; non-default params
                # would make the cell unrepresentable, so skip it then.
                PolicySpec("mttdl", mttdl_target=target) if params is TABLE_1 else None,
            )
        )
    ladder.append(PolicyLadderEntry("afraid", BaselineAfraidPolicy, PolicySpec("afraid")))
    if include_raid0:
        ladder.append(PolicyLadderEntry("raid0", NeverScrubPolicy, PolicySpec("raid0")))
    return ladder


#: run_experiment kwargs a CellSpec can represent: its fields past the
#: workload and policy (everything else forces the serial path: e.g. a
#: custom disk_factory can't cross a process).
_CELL_KWARGS = frozenset(field.name for field in dataclasses.fields(CellSpec)) - {
    "workload", "policy",
}


def run_policy_grid(
    workloads: typing.Sequence[str],
    ladder: typing.Sequence[PolicyLadderEntry],
    jobs: int = 1,
    cache_dir: str | None = None,
    **experiment_kwargs,
) -> dict[tuple[str, str], ExperimentResult]:
    """Run every (workload, policy) cell; keys are (workload, label).

    With ``jobs > 1`` or a ``cache_dir``, cells go through the parallel
    sweep engine (:mod:`repro.harness.runner`) — results are bit-identical
    to the serial path because every cell is an isolated simulator with
    explicit seeding.  Entries without a :class:`PolicySpec`, or kwargs a
    :class:`CellSpec` can't carry, fall back to the in-process loop.
    """
    engine_eligible = (
        (jobs > 1 or cache_dir is not None)
        and all(entry.spec is not None for entry in ladder)
        and set(experiment_kwargs) <= _CELL_KWARGS
    )
    if engine_eligible:
        specs = [
            CellSpec(workload=workload, policy=entry.spec, **experiment_kwargs)
            for workload in workloads
            for entry in ladder
        ]
        return run_cells(specs, jobs=jobs, cache_dir=cache_dir).results
    grid: dict[tuple[str, str], ExperimentResult] = {}
    for workload in workloads:
        for entry in ladder:
            grid[(workload, entry.label)] = run_experiment(
                workload, entry.factory(), **experiment_kwargs
            )
    return grid


@dataclasses.dataclass(frozen=True)
class TradeoffPoint:
    """One point of Figure 3 (both axes relative to RAID 5 = 1.0)."""

    label: str
    relative_performance: float  # geo-mean of RAID5_mean_io / this_mean_io
    relative_availability: float  # geo-mean of this_MTTDL / RAID5_MTTDL


def tradeoff_curve(
    grid: dict[tuple[str, str], ExperimentResult],
    workloads: typing.Sequence[str],
    labels: typing.Sequence[str],
    baseline_label: str = "raid5",
) -> list[TradeoffPoint]:
    """Reduce a policy grid to Figure 3's relative perf/availability points.

    Availability ratios use the *overall* MTTDL (disk-related combined
    with the 2M-hour support limit), as the paper's Table 4 and Figure 3
    do — "the dominant factor in overall MTTDL comes from the support
    components" (§4.3).  This is what makes AFRAID's availability loss
    modest: the disk-related exposure is diluted by a bound the array
    could never exceed anyway.
    """
    if not workloads:
        raise ValueError("tradeoff_curve needs at least one workload")
    if not labels:
        raise ValueError("tradeoff_curve needs at least one policy label")
    points = []
    for label in labels:
        speedups = []
        availability_ratios = []
        for workload in workloads:
            this = grid[(workload, label)]
            base = grid[(workload, baseline_label)]
            if this.io_time.count == 0 or base.io_time.count == 0:
                empty = label if this.io_time.count == 0 else baseline_label
                raise ValueError(
                    f"cell ({workload!r}, {empty!r}) completed no requests; "
                    "latency ratios are undefined for an empty run"
                )
            speedups.append(base.io_time.mean / this.io_time.mean)
            availability_ratios.append(this.mttdl_overall_h / base.mttdl_overall_h)
        points.append(
            TradeoffPoint(
                label=label,
                relative_performance=geometric_mean(speedups),
                relative_availability=geometric_mean(availability_ratios),
            )
        )
    return points


#: Organizations compared by :func:`run_organization_grid`, in the order
#: they appear on the curve.  RAID 1 is omitted by default: its fixed
#: 2-disk geometry is not comparable to an N-disk array.
DEFAULT_ORGANIZATIONS: tuple[str, ...] = ("raid5", "raid5d", "raid10", "raid15")


def run_organization_grid(
    workloads: typing.Sequence[str],
    organizations: typing.Sequence[str] = DEFAULT_ORGANIZATIONS,
    ndisks: int = 6,
    jobs: int = 1,
    cache_dir: str | None = None,
    **experiment_kwargs,
) -> dict[tuple[str, str], ExperimentResult]:
    """Run the baseline AFRAID policy over every (workload, organization).

    The organization analogue of :func:`run_policy_grid`: same workloads,
    same deferred-update policy, but the redundancy scheme varies — RAID 5
    against declustered RAID 5, RAID 1/0, and hybrid RAID 1+5.  Keys are
    ``(workload, organization_name)``.  ``ndisks`` applies to every
    organization (pick one that satisfies all their geometry constraints;
    the default 6 does), except organizations that fix their disk count
    (RAID 1) which use their own.
    """
    from repro.layout import get_organization

    def disks_for(name: str) -> int:
        org = get_organization(name)
        return org.exact_disks if org.exact_disks is not None else ndisks

    engine_eligible = (jobs > 1 or cache_dir is not None) and set(
        experiment_kwargs
    ) <= (_CELL_KWARGS - {"organization", "ndisks"})
    if engine_eligible:
        specs = [
            CellSpec(
                workload=workload,
                policy=PolicySpec("afraid"),
                ndisks=disks_for(organization),
                organization=organization,
                **experiment_kwargs,
            )
            for workload in workloads
            for organization in organizations
        ]
        results = run_cells(specs, jobs=jobs, cache_dir=cache_dir).results
        # run_cells keys by (workload, policy label); re-key by organization.
        return {
            (spec.workload, spec.organization): results[spec.key]
            for spec in specs
        }
    grid: dict[tuple[str, str], ExperimentResult] = {}
    for workload in workloads:
        for organization in organizations:
            grid[(workload, organization)] = run_experiment(
                workload,
                BaselineAfraidPolicy(),
                ndisks=disks_for(organization),
                organization=organization,
                **experiment_kwargs,
            )
    return grid


def organization_tradeoff_curve(
    grid: dict[tuple[str, str], ExperimentResult],
    workloads: typing.Sequence[str],
    organizations: typing.Sequence[str] = DEFAULT_ORGANIZATIONS,
    baseline: str = "raid5",
) -> list[TradeoffPoint]:
    """Reduce an organization grid to relative perf/availability points.

    Same reduction as :func:`tradeoff_curve` (both axes relative to the
    baseline organization = 1.0), so the points drop straight onto the
    Figure 3 axes next to the policy-ladder curve.
    """
    return tradeoff_curve(grid, workloads, list(organizations), baseline_label=baseline)
