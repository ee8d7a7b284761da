"""One experiment = one (workload, policy) cell of the paper's tables."""

from __future__ import annotations

import dataclasses
import typing

from repro.array.factory import PAPER_NDISKS, PAPER_STRIPE_UNIT_SECTORS, build_array
from repro.availability import (
    CONSERVATIVE_SUPPORT,
    ReliabilityParams,
    TABLE_1,
    afraid_mttdl,
    combine_mttdl,
    mdlr_raid_catastrophic,
    mdlr_unprotected,
    organization_mdlr,
    organization_mttdl,
    raid5_mttdl_catastrophic,
)
from repro.disk import hp_c3325
from repro.harness.sharding import replay_trace_sharded
from repro.metrics import PerfCounters, Summary
from repro.obs import ExposureMonitor, HistogramSet
from repro.policy import ParityPolicy
from repro.sim import Simulator
from repro.traces import Trace, make_trace

if typing.TYPE_CHECKING:  # pragma: no cover - optional observability
    from repro.array.controller import DiskArray
    from repro.obs import MetricsRegistry, Tracer


def _encode(value):
    """``value`` with every infinite float (nested in dicts too) as ``"inf"``."""
    if isinstance(value, float) and value == float("inf"):
        return "inf"
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    return value


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Everything one run contributes to the paper's tables and figures."""

    workload: str
    policy: str
    ndisks: int
    nrequests: int
    reads: int
    writes: int
    io_time: Summary
    horizon_s: float
    # Scrubbing activity:
    stripes_scrubbed: int
    dirty_at_end: int
    # Exposure (inputs to §3's equations):
    unprotected_fraction: float
    mean_parity_lag_bytes: float
    peak_parity_lag_bytes: float
    # Derived availability:
    params: ReliabilityParams
    mttdl_disk_h: float
    mdlr_unprotected_bytes_per_h: float
    mdlr_disk_bytes_per_h: float
    mttdl_overall_h: float
    mdlr_overall_bytes_per_h: float
    #: Per-request-class latency histograms (``HistogramSet.to_payload``
    #: form, so results stay picklable and JSON-safe).  ``None`` only for
    #: results revived from pre-observability cache payloads.
    latency_hists: dict | None = None
    #: Per-stripe dirty-dwell histograms from the run's
    #: :class:`~repro.obs.ExposureMonitor` (same payload form; classes
    #: ``dirty_dwell`` plus ``dirty_dwell_<cause>``).  ``None`` only for
    #: results revived from pre-exposure cache payloads.
    exposure_hists: dict | None = None
    #: Redundancy scheme the run was built over ("raid5", "raid5d",
    #: "raid1", "raid10", "raid15"); results revived from caches written
    #: before the knob existed default to "raid5".
    organization: str = "raid5"

    def histogram_set(self) -> HistogramSet | None:
        """The latency histograms revived into a mergeable object."""
        if self.latency_hists is None:
            return None
        return HistogramSet.from_payload(self.latency_hists)

    def exposure_histogram_set(self) -> HistogramSet | None:
        """The dirty-dwell histograms revived into a mergeable object."""
        if self.exposure_hists is None:
            return None
        return HistogramSet.from_payload(self.exposure_hists)

    @property
    def mean_io_time_ms(self) -> float:
        return self.io_time.mean * 1e3

    def speedup_over(self, other: "ExperimentResult") -> float:
        """How much faster this run's mean I/O time is than ``other``'s."""
        if self.io_time.count == 0 or other.io_time.count == 0:
            raise ValueError("speedup undefined: one of the runs completed no requests")
        return other.io_time.mean / self.io_time.mean

    def availability_ratio_to(self, other: "ExperimentResult") -> float:
        """Disk-related MTTDL relative to ``other`` (1.0 = equal)."""
        if other.mttdl_disk_h == float("inf"):
            return 0.0 if self.mttdl_disk_h != float("inf") else 1.0
        return self.mttdl_disk_h / other.mttdl_disk_h

    def to_dict(self) -> dict:
        """A JSON-serialisable flat view of the result.

        Infinities are rendered as the string ``"inf"`` so the output is
        strict-JSON safe; everything else is plain numbers/strings.
        """
        payload = {
            "workload": self.workload,
            "policy": self.policy,
            "organization": getattr(self, "organization", "raid5"),
            "ndisks": self.ndisks,
            "nrequests": self.nrequests,
            "reads": self.reads,
            "writes": self.writes,
            "horizon_s": self.horizon_s,
            "mean_io_time_s": self.io_time.mean,
            "median_io_time_s": self.io_time.median,
            "p95_io_time_s": self.io_time.p95,
            "max_io_time_s": self.io_time.maximum,
            "stripes_scrubbed": self.stripes_scrubbed,
            "dirty_at_end": self.dirty_at_end,
            "unprotected_fraction": self.unprotected_fraction,
            "mean_parity_lag_bytes": self.mean_parity_lag_bytes,
            "peak_parity_lag_bytes": self.peak_parity_lag_bytes,
            "mttdl_disk_h": self.mttdl_disk_h,
            "mdlr_unprotected_bytes_per_h": self.mdlr_unprotected_bytes_per_h,
            "mdlr_disk_bytes_per_h": self.mdlr_disk_bytes_per_h,
            "mttdl_overall_h": self.mttdl_overall_h,
            "mdlr_overall_bytes_per_h": self.mdlr_overall_bytes_per_h,
        }
        return {key: _encode(value) for key, value in payload.items()}


def result_to_payload(result: ExperimentResult) -> dict:
    """A JSON-shaped dict that round-trips through :func:`result_from_payload`.

    Infinities become the string ``"inf"`` so the files are strict JSON.
    The histogram payloads are strict JSON already and pass through
    uncopied; only ``io_time`` and ``params`` are converted to dicts.
    """
    payload = {}
    for field in dataclasses.fields(result):
        value = getattr(result, field.name)
        if field.name in ("io_time", "params"):
            value = _encode(dataclasses.asdict(value))
        elif field.name not in ("latency_hists", "exposure_hists"):
            value = _encode(value)
        payload[field.name] = value
    return payload


def result_from_payload(payload: dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from a stored payload."""

    def revive(value):
        if value == "inf":
            return float("inf")
        if isinstance(value, dict):
            return {key: revive(item) for key, item in value.items()}
        return value

    data = {key: revive(value) for key, value in payload.items()}
    data["io_time"] = Summary(**data["io_time"])
    data["params"] = ReliabilityParams(**data["params"])
    return ExperimentResult(**data)


def derive_availability(
    ndisks: int,
    unprotected_fraction: float,
    mean_parity_lag_bytes: float,
    params: ReliabilityParams,
    organization: str = "raid5",
) -> tuple[float, float, float, float, float]:
    """Reduce measured exposure to (MTTDL_disk, MDLR_unprot, MDLR_disk,
    MTTDL_overall, MDLR_overall) via eqs. (2c), (4), (5) + support.

    The single eq.-(2c) formula covers all three array models: a RAID 5
    run measures zero exposure (the unprotected term drops out, leaving
    eq. (1)); a never-scrubbed RAID 0 run measures exposure near 1.
    Other organizations substitute their own catastrophic/unprotected
    terms (mirrored pairs, hybrid pairs-under-parity, declustered
    rebuild speedup) via the ``organization_*`` dispatchers.
    """
    if organization == "raid5":
        mttdl_disk = afraid_mttdl(
            ndisks, params.mttf_disk_h, params.mttr_h, unprotected_fraction
        )
        raid_mttdl = raid5_mttdl_catastrophic(ndisks, params.mttf_disk_h, params.mttr_h)
        mdlr_unprot = mdlr_unprotected(ndisks, mean_parity_lag_bytes, params.mttf_disk_h)
        mdlr_disk = mdlr_raid_catastrophic(ndisks, params.disk_bytes, raid_mttdl) + mdlr_unprot
    else:
        mttdl_disk = organization_mttdl(
            organization, ndisks, params.mttf_disk_h, params.mttr_h, unprotected_fraction
        )
        mdlr_disk = organization_mdlr(
            organization,
            ndisks,
            params.disk_bytes,
            params.mttf_disk_h,
            params.mttr_h,
            mean_parity_lag_bytes,
        )
        # The deferred-update component alone: total minus the lag-free rate.
        mdlr_unprot = mdlr_disk - organization_mdlr(
            organization, ndisks, params.disk_bytes, params.mttf_disk_h, params.mttr_h, 0.0
        )
    mttdl_overall = combine_mttdl(mttdl_disk, CONSERVATIVE_SUPPORT.mttdl_h)
    mdlr_overall = mdlr_disk + CONSERVATIVE_SUPPORT.mdlr(ndisks, params.disk_bytes)
    return mttdl_disk, mdlr_unprot, mdlr_disk, mttdl_overall, mdlr_overall


#: Time slices of a checkpointed :func:`run_experiment` replay.
CHECKPOINT_SHARDS = 4


def _checkpoint_extras(sim, array) -> dict:
    """Everything ``run_experiment`` reads off the live array after the
    replay that is not already in the
    :class:`~repro.harness.sharding.ShardReplayResult` counters
    (collected on the final shard)."""
    return {
        "dirty_at_end": array.dirty_stripe_count,
        "latency_hists": array.hists.to_payload() if array.hists is not None else None,
        "exposure_hists": (
            array.exposure.hists.to_payload() if array.exposure is not None else None
        ),
    }


def run_experiment(
    workload: str | Trace,
    policy: ParityPolicy,
    duration_s: float = 40.0,
    seed: int = 42,
    ndisks: int = PAPER_NDISKS,
    stripe_unit_sectors: int = PAPER_STRIPE_UNIT_SECTORS,
    disk_factory=hp_c3325,
    organization: str = "raid5",
    idle_threshold_s: float = 0.100,
    params: ReliabilityParams = TABLE_1,
    extra_settle_s: float = 0.0,
    counters: PerfCounters | None = None,
    tracer: "Tracer | None" = None,
    histograms: HistogramSet | None = None,
    registry: "MetricsRegistry | None" = None,
    exposure: "ExposureMonitor | None" = None,
    exposure_window_s: float = 5.0,
    on_array: "typing.Callable[[Simulator, DiskArray], None] | None" = None,
    checkpoint_dir: str | None = None,
) -> ExperimentResult:
    """Run one (workload, policy) experiment from a clean simulator.

    ``workload`` is a catalog name (a trace is generated to fit the
    array's data capacity) or a pre-built :class:`Trace`.  ``policy`` must
    be a fresh instance — policies carry per-run state.  Pass a
    :class:`~repro.metrics.PerfCounters` to observe where the run spent
    wall-clock and how much kernel work it did.

    Observability: per-class latency histograms are always collected (they
    are O(1) per request and land in ``ExperimentResult.latency_hists``);
    pass ``histograms`` to record into an existing set instead.  An
    :class:`~repro.obs.ExposureMonitor` is likewise always attached (its
    dirty-dwell histograms land in ``ExperimentResult.exposure_hists``);
    pass ``exposure`` to use a pre-configured one, ``registry`` to have
    the run publish live gauges/counters into a
    :class:`~repro.obs.MetricsRegistry`.  Pass a :class:`~repro.obs.Tracer`
    to capture structured spans, and ``on_array`` to hook the built array
    before replay starts (e.g. to attach a
    :class:`~repro.obs.PeriodicSampler`, an SLO poller, or a fault
    injector).

    The replay always runs through
    :func:`~repro.harness.sharding.replay_trace_sharded`.
    ``checkpoint_dir`` names an on-disk
    :class:`~repro.harness.checkpoint.CheckpointStore`: the replay then
    runs in ``CHECKPOINT_SHARDS`` slices, resumes from the deepest stored
    quiescent cut matching this cell, and a byte-identical re-run
    returns the stored result without simulating at all.  Otherwise it
    is one shard with no store.  The result is bit-identical either way.
    The store is only used when no live observer is attached
    (``tracer``/``registry``/``on_array`` and caller-owned
    ``histograms``/``exposure`` must all be ``None``): a checkpointed
    replay crosses pickle boundaries, so in-place mutation of caller
    objects cannot be honoured, and such a run ignores
    ``checkpoint_dir``.
    """
    if counters is None:
        counters = PerfCounters()  # throwaway: keeps the body branch-free
    checkpointable = (
        checkpoint_dir is not None
        and tracer is None
        and registry is None
        and on_array is None
        and histograms is None
        and exposure is None
    )
    if histograms is None:
        histograms = HistogramSet()
    if exposure is None:
        exposure = ExposureMonitor(window_s=exposure_window_s, params=params)
    sim = Simulator()
    if tracer is not None:
        tracer.bind(sim)
    with counters.phase("setup"):
        array = build_array(
            sim,
            policy,
            ndisks=ndisks,
            stripe_unit_sectors=stripe_unit_sectors,
            disk_factory=disk_factory,
            organization=organization,
            idle_threshold_s=idle_threshold_s,
            params=params,
            name=policy.describe(),
        )
        array.attach_observability(
            tracer=tracer, histograms=histograms, registry=registry, exposure=exposure
        )
        if on_array is not None:
            on_array(sim, array)
        if isinstance(workload, Trace):
            trace = workload
        else:
            trace = make_trace(
                workload,
                duration_s=duration_s,
                address_space_sectors=array.layout.total_data_sectors,
                seed=seed,
            )
    scope = None
    if checkpointable:
        from repro.harness.checkpoint import CheckpointStore

        scope = CheckpointStore(checkpoint_dir).scope(
            {
                "surface": "run_experiment",
                "workload": trace.name,
                "seed": seed,
                "policy": [type(policy).__name__, policy.describe()],
                "ndisks": ndisks,
                "stripe_unit_sectors": stripe_unit_sectors,
                "disk_factory": disk_factory.__name__,
                "idle_threshold_s": idle_threshold_s,
                "params": dataclasses.asdict(params),
                "exposure_window_s": exposure_window_s,
                "organization": organization,
            }
        )
    with counters.phase("replay"):
        replayed = replay_trace_sharded(
            sim,
            array,
            trace,
            shards=1 if scope is None else CHECKPOINT_SHARDS,
            extra_settle_s=extra_settle_s,
            checkpoint=scope,
            extras_fn=_checkpoint_extras,
        )
    counters.count("events_dispatched", replayed.events_simulated)
    stats = replayed.stats
    counters.count("ios_serviced", stats.reads_completed + stats.writes_completed)
    outcome = replayed.outcome
    if outcome.failures:
        raise RuntimeError(
            f"{len(outcome.failures)} requests failed during a fault-free run: "
            f"{outcome.failures[0]!r}"
        )
    unprotected, mean_lag, peak_lag, _total = replayed.parity_lag
    extras = replayed.extras or {}
    with counters.phase("reduce"):
        mttdl_disk, mdlr_unprot, mdlr_disk, mttdl_overall, mdlr_overall = derive_availability(
            ndisks=ndisks,
            unprotected_fraction=unprotected,
            mean_parity_lag_bytes=mean_lag,
            params=params,
            organization=organization,
        )
    return ExperimentResult(
        workload=trace.name,
        policy=policy.describe(),
        ndisks=ndisks,
        nrequests=len(outcome.requests),
        reads=stats.reads_completed,
        writes=stats.writes_completed,
        io_time=Summary.of(outcome.io_times),
        horizon_s=outcome.horizon_s,
        stripes_scrubbed=stats.stripes_scrubbed,
        dirty_at_end=extras.get("dirty_at_end", 0),
        unprotected_fraction=unprotected,
        mean_parity_lag_bytes=mean_lag,
        peak_parity_lag_bytes=peak_lag,
        params=params,
        mttdl_disk_h=mttdl_disk,
        mdlr_unprotected_bytes_per_h=mdlr_unprot,
        mdlr_disk_bytes_per_h=mdlr_disk,
        mttdl_overall_h=mttdl_overall,
        mdlr_overall_bytes_per_h=mdlr_overall,
        latency_hists=extras.get("latency_hists"),
        exposure_hists=extras.get("exposure_hists"),
        organization=organization,
    )
