"""Workload analytics: mergeable streaming sketches over service traffic.

Three stdlib-only sketch structures, all **mergeable** so the worker pool
can aggregate worker-local state through the existing
:func:`repro.telemetry.aggregate` path (the ``"analytics"`` telemetry
layer) exactly like :mod:`repro.persist.snapshot` merges cache state:

* :class:`SpaceSavingSketch` -- the Space-Saving heavy-hitter algorithm
  (Metwally, Agrawal, El Abbadi 2005) over name-abstracted request
  signatures: a bounded set of ``(count, error)`` counters whose top-k is
  provably a superset of every key with frequency above ``N/capacity``.
  Entries carry auxiliary aggregates (plan-cache hits, summed latency) so
  ``GET /analytics`` can report per-signature plan-hit rates and mean
  latency -- the direct input for the ROADMAP's hot-signature promotion.
* :class:`QuantileSketch` -- a fixed-relative-accuracy log-bucket quantile
  sketch in the DDSketch family: bucket ``i`` covers
  ``(gamma^(i-1), gamma^i]`` with ``gamma = (1+alpha)/(1-alpha)``, so any
  reported quantile is within relative error *alpha* of the true value and
  two sketches merge by bucket-wise addition.  It is the service's only
  latency instrument: :mod:`repro.obs.metrics` renders each latency
  series as a ``repro_*_latency_seconds`` summary on ``/metrics``.
* :class:`CounterRing` -- a wall-clock-aligned ring of counter slots
  (configurable resolution/retention) behind ``GET /timeseries``.  Slots
  are keyed by the **absolute** slot index ``int(now / resolution)``, so
  rings recorded in different processes merge by slot alignment.

:class:`WorkloadAnalytics` bundles one of each behind a lock; two
process-global instances exist per process: :func:`workload_analytics`
(the worker-side view, recorded at ``execute_request`` time and shipped
inside the telemetry snapshot) and :func:`service_analytics` (the HTTP
front-end's endpoint and ``/execute`` phase latencies and its
429/validation-failure rings, which must not double-count when the
executor runs in-process).

The layer is always-on but cheap: a served request is one deque append,
folded into the sketches in batches of :data:`RECORD_BATCH` (and before
every read); ``scripts/ci_overhead_check.py`` gates warm serve
throughput within a few percent of
:func:`analytics_disabled`.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "SpaceSavingSketch",
    "QuantileSketch",
    "CounterRing",
    "WorkloadAnalytics",
    "workload_analytics",
    "service_analytics",
    "analytics_enabled",
    "set_analytics_enabled",
    "analytics_disabled",
    "merge_analytics_states",
    "analytics_report",
    "timeseries_report",
]

#: Default bound on tracked heavy-hitter entries (error <= N/capacity).
DEFAULT_TOP_CAPACITY = 64

#: Default relative accuracy of the quantile sketches (1%).
DEFAULT_ALPHA = 0.01

#: Default time-series resolution (seconds per slot) and retention (slots).
DEFAULT_RING_RESOLUTION_S = 5.0
DEFAULT_RING_SLOTS = 120

#: Served requests queued before :meth:`WorkloadAnalytics.record_request`
#: folds them into the sketches (reads fold the queue first).
RECORD_BATCH = 64

#: Values at or below this collapse into the quantile sketch's zero bucket
#: (sub-nanosecond latencies carry no information at alpha ~ 1%).
_ZERO_THRESHOLD = 1e-9


def signature_digest(signature: str) -> str:
    """A short process-stable digest naming one signature string."""
    return hashlib.sha1(signature.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Space-Saving heavy hitters.
# ---------------------------------------------------------------------------

class SpaceSavingSketch:
    """Bounded heavy-hitter counters with per-entry auxiliary aggregates.

    ``observe`` either increments a tracked entry, claims a free slot, or
    -- at capacity -- evicts the minimum-count entry and inherits its count
    as the new entry's ``error`` bound (the classic Space-Saving update:
    every tracked count overestimates the true frequency by at most its
    ``error``, and every key with true frequency above ``total/capacity``
    is guaranteed to be tracked).

    Auxiliary aggregates (``plan_hits``, ``latency_sum``) are exact for the
    tracked span of an entry's life; an entry that took over an evicted
    slot starts its aggregates fresh, so rates/means are reported over the
    tracked observations only.
    """

    def __init__(self, capacity: int = DEFAULT_TOP_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.total = 0
        self._entries: Dict[str, Dict[str, float]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def observe(
        self, key: str, *, plan_hit: bool = False, latency_s: float = 0.0
    ) -> None:
        self.total += 1
        entry = self._entries.get(key)
        if entry is None:
            if len(self._entries) < self.capacity:
                entry = {"count": 0, "error": 0, "plan_hits": 0, "latency_sum": 0.0}
            else:
                victim = min(self._entries, key=lambda k: self._entries[k]["count"])
                floor = self._entries.pop(victim)["count"]
                entry = {
                    "count": floor,
                    "error": floor,
                    "plan_hits": 0,
                    "latency_sum": 0.0,
                }
            self._entries[key] = entry
        entry["count"] += 1
        if plan_hit:
            entry["plan_hits"] += 1
        entry["latency_sum"] += float(latency_s)

    def top(self, k: int = 10) -> List[Dict[str, Any]]:
        """The *k* largest tracked entries, largest count first."""
        ranked = sorted(
            self._entries.items(), key=lambda item: (-item[1]["count"], item[0])
        )
        out: List[Dict[str, Any]] = []
        for key, entry in ranked[: max(0, k)]:
            tracked = entry["count"] - entry["error"]
            out.append(
                {
                    "signature": key,
                    "digest": signature_digest(key),
                    "count": int(entry["count"]),
                    "error": int(entry["error"]),
                    "plan_hits": int(entry["plan_hits"]),
                    "plan_hit_rate": (
                        entry["plan_hits"] / tracked if tracked > 0 else 0.0
                    ),
                    "mean_latency_s": (
                        entry["latency_sum"] / tracked if tracked > 0 else 0.0
                    ),
                }
            )
        return out

    # ----------------------------------------------------------------- state
    def to_state(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "total": self.total,
            "entries": {key: dict(entry) for key, entry in self._entries.items()},
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "SpaceSavingSketch":
        sketch = cls(capacity=int(state.get("capacity", DEFAULT_TOP_CAPACITY)))
        sketch.total = int(state.get("total", 0))
        for key, entry in (state.get("entries") or {}).items():
            sketch._entries[str(key)] = {
                "count": int(entry.get("count", 0)),
                "error": int(entry.get("error", 0)),
                "plan_hits": int(entry.get("plan_hits", 0)),
                "latency_sum": float(entry.get("latency_sum", 0.0)),
            }
        return sketch

    def merge(self, state: Mapping) -> None:
        """Fold another sketch's state into this one.

        Counts, error bounds and auxiliary aggregates add per key; when the
        union exceeds capacity the smallest-count entries are dropped
        (their mass stays in ``total``).  When the union of the key sets
        fits in capacity -- the usual case for the pool's workers, which
        each see a share of every signature -- the merge is exact.
        """
        self.total += int(state.get("total", 0))
        for key, entry in (state.get("entries") or {}).items():
            key = str(key)
            mine = self._entries.get(key)
            if mine is None:
                self._entries[key] = {
                    "count": int(entry.get("count", 0)),
                    "error": int(entry.get("error", 0)),
                    "plan_hits": int(entry.get("plan_hits", 0)),
                    "latency_sum": float(entry.get("latency_sum", 0.0)),
                }
            else:
                mine["count"] += int(entry.get("count", 0))
                mine["error"] += int(entry.get("error", 0))
                mine["plan_hits"] += int(entry.get("plan_hits", 0))
                mine["latency_sum"] += float(entry.get("latency_sum", 0.0))
        if len(self._entries) > self.capacity:
            ranked = sorted(
                self._entries.items(), key=lambda item: (-item[1]["count"], item[0])
            )
            self._entries = dict(ranked[: self.capacity])


# ---------------------------------------------------------------------------
# Log-bucket quantile sketch (DDSketch-style, fixed gamma).
# ---------------------------------------------------------------------------

class QuantileSketch:
    """Mergeable streaming quantiles with fixed relative accuracy *alpha*.

    Bucket ``i`` covers ``(gamma^(i-1), gamma^i]`` with
    ``gamma = (1+alpha)/(1-alpha)``; a value maps to
    ``ceil(log(v)/log(gamma))`` and is reported as the bucket midpoint
    ``2*gamma^i/(gamma+1)``, which is within relative error *alpha* of any
    value in the bucket.  Non-positive/tiny values land in a zero bucket.
    Merging adds bucket counts, so worker-local sketches pool exactly.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.alpha = alpha
        self.gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self.gamma)
        self._buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value <= _ZERO_THRESHOLD:
            self.zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> Optional[float]:
        """The *q*-quantile estimate (``None`` on an empty sketch)."""
        if self.count == 0:
            return None
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = q * (self.count - 1)
        cumulative = self.zero_count
        estimate = 0.0
        if rank >= cumulative:
            for index in sorted(self._buckets):
                cumulative += self._buckets[index]
                if rank < cumulative:
                    estimate = 2.0 * self.gamma**index / (self.gamma + 1.0)
                    break
            else:
                estimate = self.max if self.max is not None else 0.0
        # Clamp into the observed range: the bucket midpoint of a
        # single-sample sketch must never report outside [min, max].
        if self.min is not None:
            estimate = min(max(estimate, self.min), self.max)
        return estimate

    def summary(self) -> Dict[str, float]:
        """Count plus the dashboard quantiles, for ``GET /analytics``."""
        if self.count == 0:
            return {"count": 0}
        return {
            "count": self.count,
            "mean_s": self.sum / self.count,
            "p50_s": self.quantile(0.5),
            "p95_s": self.quantile(0.95),
            "p99_s": self.quantile(0.99),
            "max_s": self.max,
        }

    # ----------------------------------------------------------------- state
    def to_state(self) -> Dict[str, Any]:
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": self.sum,
            "zero": self.zero_count,
            "min": self.min,
            "max": self.max,
            "buckets": dict(self._buckets),
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "QuantileSketch":
        sketch = cls(alpha=float(state.get("alpha", DEFAULT_ALPHA)))
        sketch.merge(state)
        return sketch

    def merge(self, state: Mapping) -> None:
        """Bucket-wise addition of another sketch's state.

        Bucket keys may arrive as strings (the state travels through JSON
        on ``GET /stats``, which stringifies integer dict keys).
        """
        alpha = float(state.get("alpha", self.alpha))
        if not math.isclose(alpha, self.alpha, rel_tol=1e-9):
            raise ValueError(
                f"cannot merge quantile sketches with different accuracy "
                f"({alpha} vs {self.alpha})"
            )
        self.count += int(state.get("count", 0))
        self.sum += float(state.get("sum", 0.0))
        self.zero_count += int(state.get("zero", 0))
        for bound, mine in (("min", min), ("max", max)):
            theirs = state.get(bound)
            if theirs is not None:
                ours = getattr(self, bound)
                setattr(
                    self,
                    bound,
                    float(theirs) if ours is None else mine(ours, float(theirs)),
                )
        for index, count in (state.get("buckets") or {}).items():
            index = int(index)
            self._buckets[index] = self._buckets.get(index, 0) + int(count)


# ---------------------------------------------------------------------------
# Wall-clock-aligned counter rings.
# ---------------------------------------------------------------------------

class CounterRing:
    """A bounded time series of counter increments.

    Slots are keyed by the absolute index ``int(now / resolution_s)`` --
    wall clock, not a per-process epoch -- so rings recorded in different
    worker processes merge by aligning slot indexes and summing.  At most
    *slots* slots are retained (older ones are dropped on record/merge),
    bounding memory like a ring buffer regardless of process lifetime.
    """

    def __init__(
        self,
        resolution_s: float = DEFAULT_RING_RESOLUTION_S,
        slots: int = DEFAULT_RING_SLOTS,
    ) -> None:
        if resolution_s <= 0:
            raise ValueError(f"resolution_s must be positive, got {resolution_s!r}")
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots!r}")
        self.resolution_s = float(resolution_s)
        self.slots = int(slots)
        self._values: Dict[int, float] = {}

    def record(self, value: float = 1.0, now: Optional[float] = None) -> None:
        now = time.time() if now is None else now
        self.add(int(now // self.resolution_s), value)

    def add(self, slot: int, value: float = 1.0) -> None:
        """Add *value* to the absolute slot index *slot*."""
        values = self._values
        if slot in values:
            # Hot path: incrementing the current slot cannot move the
            # retention horizon, so skip the O(slots) prune scan.
            values[slot] += float(value)
        else:
            values[slot] = float(value)
            self._prune(slot)

    def _prune(self, latest: int) -> None:
        horizon = latest - self.slots + 1
        if len(self._values) > self.slots or min(self._values, default=horizon) < horizon:
            self._values = {
                slot: value for slot, value in self._values.items() if slot >= horizon
            }

    def points(self) -> List[List[float]]:
        """``[[epoch_seconds, value], ...]`` in time order."""
        return [
            [slot * self.resolution_s, value]
            for slot, value in sorted(self._values.items())
        ]

    def total(self) -> float:
        return sum(self._values.values())

    # ----------------------------------------------------------------- state
    def to_state(self) -> Dict[str, Any]:
        return {
            "resolution_s": self.resolution_s,
            "slots": self.slots,
            "values": dict(self._values),
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "CounterRing":
        ring = cls(
            resolution_s=float(state.get("resolution_s", DEFAULT_RING_RESOLUTION_S)),
            slots=int(state.get("slots", DEFAULT_RING_SLOTS)),
        )
        ring.merge(state)
        return ring

    def merge(self, state: Mapping) -> None:
        """Sum another ring's slots into this one by absolute slot index."""
        for slot, value in (state.get("values") or {}).items():
            slot = int(slot)
            self._values[slot] = self._values.get(slot, 0.0) + float(value)
        if self._values:
            self._prune(max(self._values))


# ---------------------------------------------------------------------------
# The per-process bundle.
# ---------------------------------------------------------------------------

class WorkloadAnalytics:
    """One process's workload-analytics state: heavy hitters, latency
    quantile sketches keyed by ``(metric name, label key, label value)``
    and time-series counter rings.  Thread-safe; serializes to one plain
    ``state()`` dict whose numeric top-level keys double as ``/metrics``
    gauges for the ``analytics`` telemetry layer."""

    def __init__(
        self,
        top_capacity: int = DEFAULT_TOP_CAPACITY,
        alpha: float = DEFAULT_ALPHA,
        ring_resolution_s: float = DEFAULT_RING_RESOLUTION_S,
        ring_slots: int = DEFAULT_RING_SLOTS,
    ) -> None:
        self.alpha = alpha
        self.ring_resolution_s = ring_resolution_s
        self.ring_slots = ring_slots
        self._lock = threading.Lock()
        self.signatures = SpaceSavingSketch(top_capacity)
        self._latency: Dict[Tuple[str, str, str], QuantileSketch] = {}
        self._rings: Dict[str, CounterRing] = {}
        self._pending: "deque[Tuple[str, bool, float, float]]" = deque()
        self.requests = 0
        self.plan_hits = 0

    # -------------------------------------------------------------- recording
    def record_request(
        self,
        signature: str,
        *,
        plan_hit: bool,
        latency_s: float,
        now: Optional[float] = None,
    ) -> None:
        """One served compile request: heavy-hitter + counters + rings.

        The request is queued (one thread-safe deque append) and folded
        into the sketches, in arrival order, once :data:`RECORD_BATCH` are
        waiting or when the state is next read, so the warm serve path (a
        program-cache hit) pays no per-request sketch update.
        """
        now = time.time() if now is None else now
        pending = self._pending
        pending.append((signature, plan_hit, latency_s, now))
        if len(pending) >= RECORD_BATCH:
            with self._lock:
                self._fold_pending()

    def _fold_pending(self) -> None:
        """Fold the queued requests into the sketches (caller holds the
        lock).  The heavy-hitter sketch sees them one by one in arrival
        order; ring increments are summed per time slot first."""
        pending = self._pending
        if not pending:
            return
        observe = self.signatures.observe
        resolution = self.ring_resolution_s
        requests: Dict[int, int] = {}
        plan_hits: Dict[int, int] = {}
        while pending:
            signature, plan_hit, latency_s, now = pending.popleft()
            observe(signature, plan_hit=plan_hit, latency_s=latency_s)
            slot = int(now // resolution)
            requests[slot] = requests.get(slot, 0) + 1
            if plan_hit:
                plan_hits[slot] = plan_hits.get(slot, 0) + 1
        for key, counts in (("requests", requests), ("plan_hits", plan_hits)):
            for slot, count in counts.items():
                self._ring(key).add(slot, count)
        self.requests += sum(requests.values())
        self.plan_hits += sum(plan_hits.values())

    def observe_latency(
        self, name: str, label_key: str, label_value: str, seconds: float
    ) -> None:
        """One latency sample for ``repro_<name>{<label_key>=<label_value>}``."""
        key = (name, label_key, str(label_value))
        with self._lock:
            sketch = self._latency.get(key)
            if sketch is None:
                sketch = self._latency[key] = QuantileSketch(self.alpha)
            sketch.observe(seconds)

    def observe_latencies(
        self,
        name: str,
        label_key: str,
        samples: Sequence[Tuple[str, float]],
    ) -> None:
        """Several ``(label_value, seconds)`` samples under one lock
        acquisition (the per-request hot path records every compile phase
        at once)."""
        with self._lock:
            for label_value, seconds in samples:
                key = (name, label_key, str(label_value))
                sketch = self._latency.get(key)
                if sketch is None:
                    sketch = self._latency[key] = QuantileSketch(self.alpha)
                sketch.observe(seconds)

    def record_point(
        self, key: str, value: float = 1.0, now: Optional[float] = None
    ) -> None:
        """One time-series increment (e.g. a 429 or a validation failure)."""
        with self._lock:
            self._ring(key).record(value, now=now)

    def _ring(self, key: str) -> CounterRing:
        ring = self._rings.get(key)
        if ring is None:
            ring = self._rings[key] = CounterRing(
                self.ring_resolution_s, self.ring_slots
            )
        return ring

    # ----------------------------------------------------------------- state
    def state(self) -> Dict[str, Any]:
        """The mergeable snapshot shipped as the ``analytics`` telemetry
        layer (numeric top-level keys render as layer gauges)."""
        with self._lock:
            self._fold_pending()
            return {
                "layer": "analytics",
                "requests": self.requests,
                "plan_hits": self.plan_hits,
                "tracked_signatures": len(self.signatures),
                "signatures": self.signatures.to_state(),
                "latency": [
                    {
                        "name": name,
                        "label": label_key,
                        "value": label_value,
                        "sketch": sketch.to_state(),
                    }
                    for (name, label_key, label_value), sketch in sorted(
                        self._latency.items()
                    )
                ],
                "rings": {key: ring.to_state() for key, ring in self._rings.items()},
            }

    def merge_state(self, state: Mapping) -> None:
        """Fold another process's ``state()`` into this instance."""
        with self._lock:
            self._fold_pending()
            self.requests += int(state.get("requests", 0))
            self.plan_hits += int(state.get("plan_hits", 0))
            if state.get("signatures"):
                self.signatures.merge(state["signatures"])
            for entry in state.get("latency") or ():
                key = (entry["name"], entry["label"], str(entry["value"]))
                sketch = self._latency.get(key)
                if sketch is None:
                    sketch = self._latency[key] = QuantileSketch(
                        alpha=float(entry["sketch"].get("alpha", self.alpha))
                    )
                sketch.merge(entry["sketch"])
            for key, ring_state in (state.get("rings") or {}).items():
                ring = self._rings.get(key)
                if ring is None:
                    ring = self._rings[key] = CounterRing.from_state(ring_state)
                else:
                    ring.merge(ring_state)

    def reset(self) -> None:
        """Drop every sketch (the analytics half of ``telemetry.reset``)."""
        with self._lock:
            self._pending.clear()
            self.signatures = SpaceSavingSketch(self.signatures.capacity)
            self._latency = {}
            self._rings = {}
            self.requests = 0
            self.plan_hits = 0


# ---------------------------------------------------------------------------
# Process globals and the enable gate.
# ---------------------------------------------------------------------------

#: Worker-side analytics: signatures + compile-phase latencies, recorded by
#: ``execute_request`` and shipped inside ``telemetry.snapshot()``.
_WORKLOAD = WorkloadAnalytics()

#: Front-end analytics: per-endpoint latencies and 429/validation rings,
#: recorded by the HTTP layer.  Kept separate from the worker-side instance
#: so the in-process executor (one process doing both jobs) never
#: double-counts when the two views are merged for ``/timeseries``.
_SERVICE = WorkloadAnalytics()

_ENABLED = True


def workload_analytics() -> WorkloadAnalytics:
    """The process-global worker-side analytics instance."""
    return _WORKLOAD


def service_analytics() -> WorkloadAnalytics:
    """The process-global HTTP front-end analytics instance."""
    return _SERVICE


def analytics_enabled() -> bool:
    """Whether recording is on (it is by default)."""
    return _ENABLED


def set_analytics_enabled(enabled: bool) -> bool:
    """Toggle recording process-wide; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    return previous


@contextmanager
def analytics_disabled():
    """``with analytics_disabled():`` -- the bench's analytics-off arm."""
    previous = set_analytics_enabled(False)
    try:
        yield
    finally:
        set_analytics_enabled(previous)


# ---------------------------------------------------------------------------
# Merging and reporting.
# ---------------------------------------------------------------------------

def merge_analytics_states(states: Iterable[Mapping]) -> Dict[str, Any]:
    """Pool several ``WorkloadAnalytics.state()`` dicts into one.

    The ``telemetry.aggregate`` hook for the ``analytics`` layer: sketches
    merge sketch-wise (never summed like plain counters).  An empty input
    yields an empty state, so a pool with no usable workers still reports
    the layer.
    """
    merged = WorkloadAnalytics()
    seeded = False
    for state in states:
        if not isinstance(state, Mapping):
            continue
        if not seeded and state.get("signatures"):
            # Adopt the first real state's shape parameters so capacities
            # and ring resolutions survive the round trip.
            merged.signatures = SpaceSavingSketch(
                int(state["signatures"].get("capacity", DEFAULT_TOP_CAPACITY))
            )
            seeded = True
        merged.merge_state(state)
    return merged.state()


def analytics_report(
    state: Optional[Mapping],
    service_state: Optional[Mapping] = None,
    top: int = 10,
) -> Dict[str, Any]:
    """The ``GET /analytics`` body: top-k signatures + latency summaries.

    *state* is the pooled worker-side layer (from ``executor.stats()``),
    *service_state* the front-end instance's view; the two hold disjoint
    metric names, so merging them is lossless.
    """
    merged = merge_analytics_states(
        [s for s in (state, service_state) if isinstance(s, Mapping)]
    )
    sketch = SpaceSavingSketch.from_state(merged.get("signatures") or {})
    requests = int(merged.get("requests", 0))
    plan_hits = int(merged.get("plan_hits", 0))
    latency: Dict[str, Dict[str, Dict[str, float]]] = {}
    for entry in merged.get("latency") or ():
        summary = QuantileSketch.from_state(entry["sketch"]).summary()
        latency.setdefault(entry["name"], {})[str(entry["value"])] = summary
    return {
        "requests": requests,
        "plan_hits": plan_hits,
        "plan_hit_rate": plan_hits / requests if requests else 0.0,
        "signatures": {
            "capacity": sketch.capacity,
            "tracked": len(sketch),
            "total": sketch.total,
            "top": sketch.top(top),
        },
        "latency": latency,
    }


def timeseries_report(state: Mapping) -> Dict[str, Any]:
    """The ``GET /timeseries`` body: per-counter ``[[t, value], ...]``."""
    rings = state.get("rings") or {}
    series: Dict[str, List[List[float]]] = {}
    resolution = DEFAULT_RING_RESOLUTION_S
    slots = DEFAULT_RING_SLOTS
    for key, ring_state in sorted(rings.items()):
        ring = CounterRing.from_state(ring_state)
        resolution = ring.resolution_s
        slots = ring.slots
        series[key] = ring.points()
    return {"resolution_s": resolution, "slots": slots, "series": series}
