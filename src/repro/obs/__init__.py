"""Observability: structured tracing, latency histograms, time-series sampling.

The third pillar next to :mod:`repro.sim` and :mod:`repro.harness`.  The
paper's claims are distributions over time — small-write latency CDFs,
parity-lag exposure while stripes sit unredundant, scrubber behaviour in
idle periods — and this package makes every simulated request observable
at that granularity:

* :class:`Tracer` — bounded-memory span/instant/counter records,
  exported as Chrome trace-event JSON (Perfetto-loadable) or JSONL;
* :class:`LatencyHistogram` / :class:`HistogramSet` — O(1) recording,
  percentile queries, and *exact* merging across sweep workers, keyed by
  request class (client read/write, degraded read, scrub, rebuild);
* :class:`PeriodicSampler` — simulated-time sampling of queue depth,
  dirty stripes, parity lag, and per-disk utilisation;
* :class:`MetricsRegistry` — named gauges/counters/histograms the sim
  actors publish their live state into;
* :class:`ExposureMonitor` / :class:`WindowedExposureEstimator` — the
  availability side of the story: windowed *achieved* MTTDL/MDLR and
  per-stripe dirty-dwell distributions, computed online from the
  controller's dirty-stripe events;
* :class:`SloEngine` / :class:`SloRule` — declarative thresholds on
  registry metrics, with breach/recovery instants on the tracer;
* :func:`prometheus_text` / :class:`RegistrySnapshotter` — Prometheus
  text-exposition and JSONL exports of the registry;
* :class:`Observer` — the one place an array's tracer, histograms,
  registry and exposure monitor attach.

Everything is opt-in: ``DiskArray.attach_observability`` puts the sinks
behind one :class:`Observer` in ``array.obs`` (``None`` by default),
which every simulated component reaches through its array when an event
happens, and every instrumentation site costs one ``is not None`` check
when disabled.
"""

from repro.obs.exposure import (
    ExposureMonitor,
    WindowedExposureEstimator,
    lag_integral,
    start_exposure_poller,
    unprotected_time,
)
from repro.obs.export import (
    RegistrySnapshotter,
    parse_prometheus_text,
    prometheus_text,
    read_jsonl_snapshots,
    write_prometheus,
)
from repro.obs.hist import REQUEST_CLASSES, HistogramSet, LatencyHistogram
from repro.obs.observer import Observer
from repro.obs.registry import Counter, Gauge, HistogramMetric, MetricsRegistry
from repro.obs.samplers import PeriodicSampler, SampleSeries, attach_array_probes
from repro.obs.service import ServiceMetrics
from repro.obs.slo import SloEngine, SloEvent, SloRule
from repro.obs.timeline import LatencyWindows, Timeline, TimelineEvent
from repro.obs.tracer import SpanToken, Tracer

__all__ = [
    "REQUEST_CLASSES",
    "Counter",
    "ExposureMonitor",
    "Gauge",
    "HistogramMetric",
    "HistogramSet",
    "LatencyHistogram",
    "LatencyWindows",
    "MetricsRegistry",
    "Observer",
    "PeriodicSampler",
    "RegistrySnapshotter",
    "SampleSeries",
    "ServiceMetrics",
    "SloEngine",
    "SloEvent",
    "SloRule",
    "SpanToken",
    "Timeline",
    "TimelineEvent",
    "Tracer",
    "WindowedExposureEstimator",
    "attach_array_probes",
    "lag_integral",
    "parse_prometheus_text",
    "prometheus_text",
    "read_jsonl_snapshots",
    "start_exposure_poller",
    "unprotected_time",
    "write_prometheus",
]
