"""Tests for the uniform cache-stats protocol and bounded eviction policies.

Every cache layer of the pipeline -- property-inference memo,
signature-keyed match cache and kernel-cost LRU -- exposes ``stats()``
(plain dict with ``size``/``max_entries``/``hits``/``misses``/``hit_rate``/
``evictions``) and ``reset_stats()``, which is what the service telemetry
aggregates across workers.
"""

from __future__ import annotations

import pytest

from repro.algebra import Matrix, Property
from repro.algebra.inference import PropertyInference, inference_engine
from repro.algebra.operators import Times
from repro.cost.metrics import FlopCount
from repro.core import GMCAlgorithm
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro import telemetry
from repro.options import CompileOptions

REQUIRED_KEYS = {"layer", "size", "max_entries", "hits", "misses", "hit_rate", "evictions"}


def chain(prefix: str, count: int = 4):
    mats = [Matrix(f"{prefix}{i}", 8, 8) for i in range(count)]
    return Times(*mats)


class TestUniformProtocol:
    def test_every_cache_layer_speaks_the_protocol(self):
        catalog = KernelCatalog(build_default_kernels(), name="stats-test")
        metric = FlopCount()
        GMCAlgorithm(CompileOptions(catalog=catalog, metric=metric)).solve(chain("U"))
        layers = [
            catalog.match_cache,
            inference_engine(),
            metric,
        ]
        for layer in layers:
            stats = layer.stats()
            assert REQUIRED_KEYS <= set(stats), stats.get("layer")
            total = stats["hits"] + stats["misses"]
            expected = stats["hits"] / total if total else 0.0
            assert stats["hit_rate"] == pytest.approx(expected)
            layer.reset_stats()
            after = layer.stats()
            assert after["hits"] == after["misses"] == after["evictions"] == 0

    def test_telemetry_snapshot_and_aggregate(self):
        catalog = KernelCatalog(build_default_kernels(), name="stats-test-2")
        metric = FlopCount()
        GMCAlgorithm(CompileOptions(catalog=catalog, metric=metric)).solve(chain("V"))
        snap = telemetry.snapshot(catalog, {"flops": metric})
        assert set(telemetry.CACHE_LAYERS) <= set(snap)
        pooled = telemetry.aggregate([snap, snap])
        assert pooled["workers"] == 2
        for layer in telemetry.CACHE_LAYERS:
            if layer == "analytics":
                # The analytics layer aggregates by sketch merging, not by
                # counter summing (see repro.obs.analytics); covered in
                # tests/test_analytics.py.
                assert pooled[layer]["requests"] == 2 * snap[layer]["requests"]
                continue
            if layer == "solver":
                # Raw DP work counters, not a cache: no hits/misses.
                assert pooled[layer]["solves"] == 2 * snap[layer]["solves"] > 0
                assert pooled[layer]["cells_evaluated"] == (
                    2 * snap[layer]["cells_evaluated"]
                )
                continue
            assert pooled[layer]["hits"] == 2 * snap[layer]["hits"]
            assert pooled[layer]["misses"] == 2 * snap[layer]["misses"]
        # Pooled rate is recomputed from pooled counters, never averaged.
        match = pooled["match_cache"]
        total = match["hits"] + match["misses"]
        assert match["hit_rate"] == pytest.approx(
            match["hits"] / total if total else 0.0
        )


class TestInferenceMemoEviction:
    def test_memo_is_bounded_with_partial_eviction(self):
        engine = PropertyInference(max_entries=32)
        for index in range(200):
            engine.infer(chain(f"M{index}_", 3))
        stats = engine.stats()
        assert stats["size"] <= 32 + 16  # one walk may overshoot by its tree
        assert stats["evictions"] > 0
        assert stats["inferred_size"] <= 32 + 16

    def test_eviction_preserves_results(self):
        engine = PropertyInference(max_entries=16)
        spd = Matrix("S", 8, 8, {Property.SPD})
        reference = engine.infer(spd)
        for index in range(100):
            engine.infer(chain(f"N{index}_", 3))
        assert engine.infer(spd) == reference

    def test_version_change_still_clears_wholesale(self):
        from repro.algebra.inference import PREDICATES, is_zero

        engine = PropertyInference(max_entries=1000)
        engine.infer(chain("VC", 3))
        assert engine.stats()["size"] > 0
        PREDICATES[Property.ZERO] = is_zero  # bump the registry version
        try:
            engine.infer(chain("VD", 3))
            assert engine._registry_version == PREDICATES.version
        finally:
            del PREDICATES[Property.ZERO]
            PREDICATES[Property.ZERO] = is_zero


class TestKernelCostStats:
    def test_cost_cache_counts_hits_and_evictions(self):
        metric = FlopCount()
        metric.cost_cache_size = 4
        algorithm = GMCAlgorithm(CompileOptions(metric=metric))
        algorithm.solve(chain("C", 5))
        stats = metric.stats()
        assert stats["misses"] > 0
        assert stats["size"] <= 4
        assert stats["evictions"] >= stats["misses"] - 4
        metric.reset_stats()
        assert metric.stats()["hits"] == 0
