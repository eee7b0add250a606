"""Feeding span aggregates into the metrics registry.

Tracing answers "why was *this* query slow"; metrics answer "how is the
service doing".  :class:`TraceSink` bridges them: attach one to a
:class:`~repro.trace.Tracer` (or pass ``tracing=True`` to
:class:`~repro.service.QueryEngine`) and every finished trace feeds
per-stage latency histograms and counter totals into the existing
:class:`~repro.service.MetricsRegistry` — the service dashboard gets
stage-level breakdowns for free, without a second telemetry pipeline.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .spans import Tracer

#: Numeric span attributes rolled up into registry counters by default.
DEFAULT_COUNTER_ATTRS: Sequence[str] = (
    "pages_read",
    "pois_fetched",
    "pois_verified",
    "subregions_examined",
    "subregions_pruned",
)


class TraceSink:
    """Aggregates finished traces into a ``MetricsRegistry``.

    For every span named ``a.b`` the sink observes its duration in the
    histogram ``span_a_b_seconds`` and, for each attribute listed in
    ``counter_attrs`` present on the span, increments the counter
    ``span_a_b_<attr>_total``.  The registry is duck-typed (anything with
    ``histogram(name).observe`` and ``counter(name).increment``), so the
    sink has no import-time dependency on :mod:`repro.service`.
    """

    def __init__(self, registry,
                 counter_attrs: Optional[Sequence[str]] = None) -> None:
        self.registry = registry
        self.counter_attrs = (tuple(counter_attrs)
                              if counter_attrs is not None
                              else tuple(DEFAULT_COUNTER_ATTRS))
        self.traces_observed = 0

    def observe(self, tracer: Tracer) -> None:
        """Roll one finished tracer's spans into the registry."""
        self.traces_observed += 1
        for span in tracer.walk():
            stem = "span_" + span.name.replace(".", "_").replace("-", "_")
            self.registry.histogram(f"{stem}_seconds").observe(span.seconds)
            for attr in self.counter_attrs:
                value = span.attrs.get(attr)
                if isinstance(value, bool) or not isinstance(value, int):
                    continue
                if value > 0:
                    self.registry.counter(
                        f"{stem}_{attr}_total").increment(value)
