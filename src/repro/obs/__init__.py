"""Engine-wide observability: metrics, tracing, history, post-mortems.

``repro.obs`` is the instrumentation trunk the engine's layers hang
measurements on:

* :mod:`repro.obs.metrics` — the :class:`MetricsRegistry` behind
  ``Database.metrics`` (counters, gauges, fixed-bucket histograms with
  interpolated quantiles), mirrored into a process-wide
  :func:`global_registry`;
* :mod:`repro.obs.trace` — per-statement span trees
  (``Database.last_trace()``) and cross-thread span attachment for
  worker-pool trace propagation;
* :mod:`repro.obs.history` — the always-on query history store
  (``Database.history``): per-statement records with estimated vs
  observed per-operator cardinalities, the per-fingerprint index,
  and the slow-query log;
* :mod:`repro.obs.flight` — the flight recorder (``Database.flight``):
  self-contained diagnostic bundles dumped when statements die, with
  ``python -m repro.obs.dump`` to render them;
* :mod:`repro.obs.timeline` — Chrome-trace / Perfetto export of span
  trees (``python -m repro.obs.export --chrome-trace``);
* :mod:`repro.obs.export` — Prometheus text exposition (with
  p50/p95/p99 summary series), JSON dump, and the ``make obs-smoke``
  battery, runnable as ``python -m repro.obs.export``.

See ``docs/observability.md`` for metric names and the span model.
"""

from .flight import FlightRecorder, load_bundle
from .history import QueryHistory, QueryRecord, load_jsonl
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from .timeline import export_chrome_trace, spans_to_chrome_trace
from .trace import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "global_registry",
    "Span",
    "Tracer",
    "QueryHistory",
    "QueryRecord",
    "load_jsonl",
    "FlightRecorder",
    "load_bundle",
    "export_chrome_trace",
    "spans_to_chrome_trace",
]
