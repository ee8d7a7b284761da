"""One observer: where a simulated array's sinks attach.

:meth:`DiskArray.attach_observability
<repro.array.controller.DiskArray.attach_observability>` puts up to four
sinks — a :class:`~repro.obs.Tracer`, a :class:`~repro.obs.HistogramSet`,
a :class:`~repro.obs.MetricsRegistry` and an
:class:`~repro.obs.ExposureMonitor` — behind one :class:`Observer`.  Every
simulated component (the controller, its drivers, its policy, a rebuild
manager, a fault injector) reaches it through its array when an event
happens, so sinks attached after those components were built still hear
them.  With nothing attached the array holds no observer, and an
instrumentation site costs one attribute load and one ``is not None``
test.

Each event is one call.  :data:`EVENTS` maps an event's name to what it
records: the tracer record (an instant at the event, or a span ending at
it) on its track and category, the histogram class a span's duration
lands in, and the registry counter it bumps.  Counters register at first
use, so a Prometheus export lists them in the order events first happen.
"""

from __future__ import annotations

import typing

from repro.obs.exposure import ExposureMonitor

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.array.controller import DiskArray
    from repro.array.request import ArrayRequest
    from repro.disk import DiskIO
    from repro.obs.hist import HistogramSet
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracer import Tracer
    from repro.sim import Simulator


class Record(typing.NamedTuple):
    """What one event records: see :data:`EVENTS`."""

    track: str | None
    category: str | None = None
    hist_class: str | None = None
    counter: str | None = None
    help_text: str = ""


_FAULT = ("faults", "fault")
_MODE_SWITCH = Record("policy", "policy", None, "mode_switches_total",
                      "AFRAID/RAID 5 write-mode transitions")
_SCRUB = Record("scrubber", "scrub", "scrub")

#: Every fault, policy, scrub and rebuild event by name: the tracer track
#: and category of its record (an instant at the event, or a span ending
#: at it; no track, no record), the histogram class a span's duration
#: lands in, and the registry counter it bumps, with its help text.
EVENTS: dict[str, Record] = {
    # Instants.
    "disk_failure": Record(*_FAULT, None, "disk_failures_total",
                           "injected member-disk failures"),
    "disk_failure_skipped": Record(*_FAULT, None, "disk_failures_skipped_total",
                                   "disk-failure injections dropped on an unhealthy target"),
    "multi_disk_failure": Record(*_FAULT, None, "multi_disk_failures_total",
                                 "disk failures beyond the first concurrent one"),
    "data_loss": Record(None, None, None, "data_loss_events_total",
                        "recorded unsurvivable failure combinations"),
    "nvram_failure": Record(*_FAULT, None, "nvram_failures_total",
                            "injected marking-memory failures"),
    "nvram_recovery": Record(*_FAULT),
    "recovery_scan": Record(*_FAULT, None, "recovery_scans_total",
                            "crash-restart recovery scans"),
    "latent_error": Record(*_FAULT, None, "latent_errors_total", "injected latent sector errors"),
    "latent_error_skipped": Record(*_FAULT),
    "latent_repair": Record(*_FAULT),
    "latent_sectors_repaired": Record(None, None, None, "latent_sectors_repaired_total",
                                      "latent sectors healed by rewrite"),
    "policy.force_scrub": Record("policy", "policy"),
    "policy.revert_raid5": _MODE_SWITCH,
    "policy.resume_afraid": _MODE_SWITCH,
    # Spans.
    "scrub_stripe": _SCRUB,
    "scrub_sub_unit": _SCRUB,
    "scrub_stripe_mirror": _SCRUB,
    "commit": Record("scrubber", "commit"),
    "rebuild_stripe": Record("rebuild", "rebuild", "rebuild", "rebuild_stripes_total",
                             "stripes regenerated onto a spare"),
    "rebuild": Record("rebuild", "rebuild"),
}


class Observer:
    """The sinks attached to one array, and the one call per event into them.

    Any sink may be ``None``; the observer records into those present.
    It pickles with its array (sinks included), so a checkpointed or
    paused run resumes observed.
    """

    __slots__ = ("sim", "tracer", "hists", "registry", "exposure")

    def __init__(self, sim: "Simulator", tracer, hists, registry, exposure) -> None:
        self.sim = sim
        self.tracer: "Tracer | None" = tracer
        self.hists: "HistogramSet | None" = hists
        self.registry: "MetricsRegistry | None" = registry
        self.exposure: ExposureMonitor | None = exposure

    @classmethod
    def build(cls, array: "DiskArray", tracer, hists, registry, exposure) -> "Observer | None":
        """The observer of ``array`` over these sinks; None if all are None.

        A ``registry`` without an ``exposure`` monitor gets a default
        :class:`~repro.obs.ExposureMonitor` (window and reliability
        parameters from ``array.params``), since the registry's
        availability gauges are its publications.  The monitor is bound
        to ``array`` here.
        """
        if registry is not None and exposure is None:
            exposure = ExposureMonitor(params=array.params)
        if exposure is not None:
            exposure.attach(array, registry)
        if tracer is None and hists is None and exposure is None:  # a registry brings a monitor
            return None
        return cls(array.sim, tracer, hists, registry, exposure)

    @property
    def traced(self) -> "Observer | None":
        """This observer if it has a tracer, else None.

        The handle of the sites only the tracer listens to (per-command
        disk spans, the commit span, latent repairs): with histograms and
        a monitor but no tracer attached, they do not call in at all.
        """
        return self if self.tracer is not None else None

    # -- events ----------------------------------------------------------------------

    def event(self, name: str, /, count: int = 1, **fields) -> None:
        """Event ``name`` happened now: its instant with ``fields``, its counter by ``count``."""
        record = EVENTS[name]
        if record.track is not None and self.tracer is not None:
            self.tracer.instant(name, track=record.track, category=record.category, **fields)
        self._count(record, count)

    def span(self, name: str, /, started: float, **fields) -> None:
        """Span ``name`` ran from ``started`` until now: its record, histogram and counter."""
        record = EVENTS[name]
        duration = self.sim.now - started
        if record.hist_class is not None and self.hists is not None:
            self.hists.record(record.hist_class, duration)
        if self.tracer is not None:
            self.tracer.complete(
                name, start_s=started, duration_s=duration,
                track=record.track, category=record.category, **fields,
            )
        self._count(record, 1)

    def _count(self, record: Record, count: int) -> None:
        if record.counter is not None and self.registry is not None:
            self.registry.counter(record.counter, record.help_text).inc(count)

    def client(self, request: "ArrayRequest", degraded: bool) -> None:
        """A client request completed: its latency class and its span."""
        if self.hists is not None:
            if request.is_write:
                request_class = "degraded_write" if degraded else "client_write"
            else:
                request_class = "degraded_read" if degraded else "client_read"
            self.hists.record(request_class, request.io_time)
        if self.tracer is not None:
            self.tracer.complete(
                "write" if request.is_write else "read", start_s=request.submit_time,
                duration_s=request.io_time, track="client", category="client",
                offset=request.offset_sectors, nsectors=request.nsectors,
            )

    def disk_command(self, track: str, io: "DiskIO", started: float, failed: bool) -> None:
        """A disk command issued at ``started`` settled now (tracer only)."""
        if failed:
            self.tracer.instant(
                "io_failed", track=track, category="disk", lba=io.lba, nsectors=io.nsectors
            )
        else:
            self.tracer.complete(
                io.kind.value, start_s=started, duration_s=self.sim.now - started,
                track=track, category="disk", lba=io.lba, nsectors=io.nsectors,
            )

    def scrubbed(self, name: str, started: float, stripe: int, cleaned: bool) -> None:
        """A scrub of ``stripe`` settled; ``cleaned``: the stripe is redundant again."""
        if cleaned and self.exposure is not None:
            self.exposure.stripe_cleaned(stripe, self.sim.now, cause="scrub")
        self.span(name, started, stripe=stripe)

    # -- exposure ----------------------------------------------------------------------

    def lag_changed(self, now: float, lag_bytes: float, dirty_stripes: int, marks: int) -> None:
        """The parity lag changed: the monitor's gauges and the tracer's counters."""
        if self.exposure is not None:
            self.exposure.on_lag_change(now, lag_bytes, dirty_stripes, marks)
        if self.tracer is not None:
            self.tracer.counter("dirty_stripes", float(dirty_stripes))
            self.tracer.counter("parity_lag_bytes", lag_bytes)

    def stripes_dirtied(self, stripes: typing.Iterable[int], now: float) -> None:
        """Each of ``stripes`` is dirty now (the monitor keeps the first time)."""
        exposure = self.exposure
        if exposure is not None:
            for stripe in stripes:
                exposure.stripe_dirtied(stripe, now)

    def stripe_cleaned(self, stripe: int, now: float, cause: str) -> None:
        """``stripe`` regained full redundancy by ``cause`` other than a scrub."""
        if self.exposure is not None:
            self.exposure.stripe_cleaned(stripe, now, cause=cause)

    def forced_scrub(self) -> None:
        """A scrub was forced despite client load."""
        if self.exposure is not None:
            self.exposure.forced_scrub()

    def finish(self, now: float) -> None:
        """The run closed its books at ``now``."""
        if self.exposure is not None:
            self.exposure.finish(now)
