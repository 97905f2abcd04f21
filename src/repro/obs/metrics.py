"""Prometheus text exposition of the service's telemetry and latencies.

The service's ``GET /metrics`` endpoint renders, in one
:func:`render_prometheus` call, the Prometheus text exposition format
(version 0.0.4) of:

* the service gauges (worker count, ``repro_pool_*`` pool counters);
* the nine uniform telemetry layers (:mod:`repro.telemetry`) pooled
  across workers -- every numeric counter becomes a
  ``repro_<key>{layer="<layer>"}`` gauge sample;
* the latency series, one ``summary`` per metric name, from the mergeable
  quantile sketches of :mod:`repro.obs.analytics` (pooled across workers
  and the HTTP front-end): ``quantile="0.5|0.95|0.99"`` samples plus
  ``_sum`` and ``_count``.

Everything here is plain stdlib; no client library is required to scrape
it -- ``curl host:port/metrics`` works.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .analytics import QuantileSketch, merge_analytics_states

__all__ = ["render_prometheus"]

#: The quantiles every latency summary reports.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


def sanitize_metric_name(name: str) -> str:
    """A Prometheus-legal metric name for *name* (telemetry keys are already
    ``snake_case``; this guards against future keys with odd characters)."""
    if _NAME_OK.match(name):
        return name
    cleaned = _NAME_BAD_CHARS.sub("_", name)
    if not cleaned or not _NAME_OK.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition-format rules."""
    return "".join(_LABEL_ESCAPES.get(ch, ch) for ch in str(value))


def format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{sanitize_metric_name(key)}="{escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def format_value(value: float) -> str:
    """Render a sample value (integers without a trailing ``.0``)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_float = float(value)
    if as_float != as_float:  # NaN
        return "NaN"
    if as_float in (float("inf"), float("-inf")):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _telemetry_lines(
    layers: Mapping[str, Mapping[str, object]], prefix: str
) -> List[str]:
    """Gauge samples for the pooled cache-telemetry layers.

    Samples of one metric name must be contiguous in the exposition, so
    the per-layer dicts are first pivoted into per-key sample lists.
    """
    by_metric: Dict[str, List[Tuple[str, float]]] = {}
    for layer, stats in sorted(layers.items()):
        for key, value in sorted(stats.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metric = f"{prefix}_{sanitize_metric_name(str(key))}"
            by_metric.setdefault(metric, []).append((str(layer), value))
    lines: List[str] = []
    for metric, samples in sorted(by_metric.items()):
        lines.append(f"# HELP {metric} repro cache-telemetry counter (pooled)")
        lines.append(f"# TYPE {metric} gauge")
        for layer, value in samples:
            lines.append(
                f'{metric}{{layer="{escape_label_value(layer)}"}} {format_value(value)}'
            )
    return lines


def _summary_lines(
    latency_states: Iterable[Optional[Mapping]], prefix: str
) -> List[str]:
    """One ``summary`` family per latency metric name.

    Merges the latency sketches of the given analytics states; a family
    renders each label value's quantile samples followed by its ``_sum``
    and ``_count``::

        repro_endpoint_latency_seconds{endpoint="/compile",quantile="0.5"} 0.0021
        repro_endpoint_latency_seconds_sum{endpoint="/compile"} 0.0105
        repro_endpoint_latency_seconds_count{endpoint="/compile"} 5
    """
    merged = merge_analytics_states(latency_states)
    by_name: Dict[str, List[Tuple[str, str, QuantileSketch]]] = {}
    for entry in merged.get("latency") or ():
        sketch = QuantileSketch.from_state(entry["sketch"])
        if sketch.count:
            by_name.setdefault(entry["name"], []).append(
                (entry["label"], str(entry["value"]), sketch)
            )
    lines: List[str] = []
    for name, series in sorted(by_name.items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# HELP {metric} latency in seconds (mergeable quantile sketch)")
        lines.append(f"# TYPE {metric} summary")
        for label_key, label_value, sketch in sorted(series, key=lambda s: s[1]):
            labels = {label_key: label_value}
            for q in SUMMARY_QUANTILES:
                quantile = format_labels({**labels, "quantile": f"{q:g}"})
                lines.append(f"{metric}{quantile} {format_value(sketch.quantile(q))}")
            lines.append(f"{metric}_sum{format_labels(labels)} {format_value(sketch.sum)}")
            lines.append(f"{metric}_count{format_labels(labels)} {sketch.count}")
    return lines


def render_prometheus(
    cache_layers: Optional[Mapping[str, Mapping[str, object]]] = None,
    extra_gauges: Optional[Mapping[str, float]] = None,
    latency_states: Sequence[Optional[Mapping]] = (),
    prefix: str = "repro",
) -> str:
    """The full ``/metrics`` body: gauges, telemetry layers, latencies.

    *cache_layers* is the pooled per-layer dict of ``executor.stats()``
    (the ``"caches"`` entry; scalar entries render as standalone gauges,
    like *extra_gauges*).  *latency_states* are analytics states
    (``WorkloadAnalytics.state()``) whose latency sketches merge into the
    summaries.  Returns text ending in a newline, as the exposition
    format requires.
    """
    cache_layers = cache_layers or {}
    gauges = dict(extra_gauges or {})
    layers = {}
    for name, value in cache_layers.items():
        if isinstance(value, Mapping):
            layers[name] = value
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            gauges[name] = value
    lines: List[str] = []
    for name, value in sorted(gauges.items()):
        metric = f"{prefix}_{sanitize_metric_name(name)}"
        lines.append(f"# HELP {metric} repro service gauge")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {format_value(value)}")
    lines.extend(_telemetry_lines(layers, prefix))
    lines.extend(_summary_lines(latency_states, prefix))
    return "\n".join(lines) + "\n"
