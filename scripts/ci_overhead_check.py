#!/usr/bin/env python
"""CI gate on the cost of the observability layers (the ``bench-smoke`` job).

Two wall-clock gates, each failing the run at or above a 3% overhead:

* **trace overhead** (:mod:`repro.obs.trace`): warm repeated solves on a
  never-traced solver against the same untraced path on a solver that ran
  one traced solve first.  Instrumentation the traced fill failed to clean
  up would slow every later DP cell.  The traced-on cost is printed but
  not gated, and the traced solve must equal the untraced one.
* **analytics overhead** (:mod:`repro.obs.analytics`): warm serve requests
  through one shared session, alternating per request between workload
  analytics recording (the always-on default) and ``analytics_disabled()``;
  the gate reads the median of paired per-repeat CPU-time ratios.

The deterministic gates (solution identity, cache hit rates, emitted-module
identity) are tier-1 tests; the end-to-end service numbers come from
``perfbench/run.py``.  Usage::

    PYTHONPATH=src python scripts/ci_overhead_check.py
"""

from __future__ import annotations

import gc
import math
import re
import statistics
import sys
import time

from repro.core import GMCAlgorithm
from repro.cost import FlopCount
from repro.experiments.workload import ChainGenerator
from repro.kernels.catalog import KernelCatalog, build_default_kernels
from repro.options import CompileOptions

#: Workload seed of both gates.
SEED = 2018
#: Chain lengths the trace gate solves.
TRACE_LENGTHS = (10, 12)
#: Paired repeats of the analytics gate.
ANALYTICS_REPEATS = 9
#: The untraced hot path must stay below this overhead.
MAX_TRACE_OVERHEAD = 0.03
#: Analytics recording must stay below this overhead.
MAX_ANALYTICS_OVERHEAD = 0.03


def make_problems(length: int, count: int, seed: int):
    """Random well-formed chains of exactly *length* factors."""
    generator = ChainGenerator(
        min_length=length,
        max_length=length,
        size_choices=tuple(range(50, 301, 50)),
        vector_probability=0.10,
        square_probability=0.40,
        transpose_probability=0.25,
        inverse_probability=0.25,
        property_probability=0.60,
        seed=seed,
    )
    return generator.generate_many(count)


def problem_source(problem, tag):
    """*problem* as DSL text with every operand name suffixed by *tag*."""
    lines = [
        f"Matrix {operand.name}_{tag} ({operand.rows}, {operand.columns}) "
        f"<{', '.join(sorted(p.value for p in operand.properties))}>"
        for operand in problem.operands
    ]
    names = sorted((operand.name for operand in problem.operands), key=len, reverse=True)
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    expression = pattern.sub(rf"\g<1>_{tag}", str(problem.expression))
    return "\n".join(lines + [f"X := {expression}"]) + "\n"


def _solutions_differ(reference, candidate) -> bool:
    """True when two solutions of the same chain are not identical."""
    if reference.computable != candidate.computable:
        return True
    if not reference.computable:
        return False
    return not (
        math.isclose(
            float(reference.optimal_cost),
            float(candidate.optimal_cost),
            rel_tol=1e-9,
            abs_tol=1e-9,
        )
        and reference.parenthesization() == candidate.parenthesization()
    )


def run_trace_overhead(lengths, seed, repeats=11, solves_per_sample=20):
    """The untraced hot path's overhead after a traced solve.

    Three solver instances run warm repeated solves of the same chain,
    interleaved within every repeat so scheduler drift hits all arms
    equally (best-of-*repeats* per arm, *solves_per_sample* solves per
    timing sample so sub-millisecond warm solves stay measurable):

    * **baseline** -- tracing disabled, the solver never traced;
    * **post-traced** -- tracing disabled *now*, but the solver ran one
      traced solve first.  The traced serial fill installs per-cell
      instance-attribute timing wrappers and must remove them in its
      ``try/finally``; if that cleanup ever leaks, this arm pays the
      wrapper cost on every subsequent cell;
    * **traced on** -- a live tracer (printed, not gated: per-diagonal
      spans and per-cell timing wrappers are real, opted-in work).

    Returns ``(untraced_overhead, mismatches)`` over all *lengths*.
    """
    from repro.obs.trace import Tracer

    arms = ("baseline", "post_traced", "traced_on")
    totals = {arm: 0.0 for arm in arms}
    mismatches = []
    for length in lengths:
        problem = make_problems(length, 1, seed + 31_000 + length)[0]
        algorithms = {}
        for arm in arms:
            catalog = KernelCatalog(build_default_kernels(), name=f"overhead-{arm}")
            algorithms[arm] = GMCAlgorithm(
                CompileOptions(catalog=catalog, metric=FlopCount())
            )
        # Warm-up solve per arm (fills each arm's private caches equally);
        # the post-traced arm's warm-up runs traced, then drops the tracer.
        reference = algorithms["baseline"].solve(problem.expression)
        algorithms["post_traced"].tracer = Tracer()
        traced_solution = algorithms["post_traced"].solve(problem.expression)
        algorithms["post_traced"].tracer = None
        algorithms["traced_on"].tracer = Tracer()
        algorithms["traced_on"].solve(problem.expression)
        if _solutions_differ(reference, traced_solution):
            mismatches.append(f"length {length}")

        best = {arm: math.inf for arm in arms}
        for _ in range(repeats):
            for arm in arms:
                algorithm = algorithms[arm]
                if arm == "traced_on":
                    algorithm.tracer = Tracer()  # fresh tree, bounded memory
                start = time.perf_counter()
                for _ in range(solves_per_sample):
                    algorithm.solve(problem.expression)
                best[arm] = min(best[arm], time.perf_counter() - start)
        for arm in arms:
            totals[arm] += best[arm]
        print(
            f"length {length:2d}: baseline {best['baseline'] * 1e3:8.2f} ms, "
            f"post-traced {best['post_traced'] * 1e3:8.2f} ms "
            f"({(best['post_traced'] / best['baseline'] - 1) * 100:+6.2f}%), "
            f"traced on {best['traced_on'] * 1e3:8.2f} ms "
            f"({(best['traced_on'] / best['baseline'] - 1) * 100:+6.2f}%)"
        )

    untraced = totals["post_traced"] / totals["baseline"] - 1.0
    traced = totals["traced_on"] / totals["baseline"] - 1.0
    print(
        f"trace overhead: untraced {untraced * 100:+6.2f}% (gated), "
        f"traced on {traced * 100:+6.2f}% (informational)"
    )
    return untraced, mismatches


def run_analytics_overhead(seed, repeats, requests_per_sample=40, length=8):
    """Warm-serve CPU-time overhead of workload analytics recording.

    One warm in-process serve session runs a signature-equal request
    stream through :func:`repro.service.api.execute_request`, alternating
    *per request* between analytics recording and
    :func:`repro.obs.analytics.analytics_disabled`.  A single shared
    session is essential: two separate sessions differ by several percent
    on identical work (allocator layout, dict insertion order), a bias
    larger than the effect under test.  Each repeat yields a paired on/off
    CPU-time ratio -- ``time.process_time`` so other tenants' scheduler
    preemption does not count against either arm, the cyclic GC paused so
    collection cadence does not alias with the arm pattern -- and the
    result is the **median** of the per-repeat ratios.
    """
    from repro.frontend.compiler import Compiler
    from repro.obs.analytics import analytics_disabled, workload_analytics
    from repro.service.api import CompileRequest, execute_request

    problems = make_problems(length, 3, seed + 47_000)
    requests = [
        CompileRequest(source=problem_source(problem, "an")) for problem in problems
    ]
    session = Compiler()

    workload_analytics().reset()
    # Warm-up: fill the caches so the timed samples measure the warm serve
    # path (where per-request analytics cost is proportionally largest),
    # not cold DP solves.
    for request in requests:
        response = execute_request(request, compiler=session)
        assert response.ok, response.error

    clock = time.process_time
    passes = max(1, requests_per_sample // len(requests))
    ratios = []
    totals = {"on": 0.0, "off": 0.0}
    for repeat in range(repeats):
        on_s = off_s = 0.0
        gc.collect()
        gc.disable()
        try:
            for index in range(passes):
                # Alternate which arm goes first so within-pass drift
                # cancels instead of consistently taxing one arm.
                on_first = (index + repeat) % 2 == 0
                for request in requests:
                    if on_first:
                        start = clock()
                        execute_request(request, compiler=session)
                        on_s += clock() - start
                    with analytics_disabled():
                        start = clock()
                        execute_request(request, compiler=session)
                        off_s += clock() - start
                    if not on_first:
                        start = clock()
                        execute_request(request, compiler=session)
                        on_s += clock() - start
        finally:
            gc.enable()
        totals["on"] += on_s
        totals["off"] += off_s
        ratios.append(on_s / off_s - 1.0 if off_s > 0 else math.inf)

    workload_analytics().reset()
    overhead = statistics.median(ratios)
    print(
        f"analytics overhead: on {totals['on'] * 1e3:8.2f} ms, "
        f"off {totals['off'] * 1e3:8.2f} ms CPU "
        f"({overhead * 100:+6.2f}% median of {repeats} paired repeats, "
        f"{passes * len(requests)} warm requests per arm per repeat)"
    )
    return overhead


def main() -> int:
    print("== trace overhead: untraced hot path vs never-traced baseline ==")
    trace_overhead, mismatches = run_trace_overhead(TRACE_LENGTHS, SEED)
    print("\n== analytics overhead: warm serve path, recording on vs off ==")
    analytics_overhead = run_analytics_overhead(SEED, ANALYTICS_REPEATS)

    failures = []
    if mismatches:
        failures.append(
            "traced solves diverged from untraced solves: " + ", ".join(mismatches)
        )
    if trace_overhead >= MAX_TRACE_OVERHEAD:
        failures.append(
            f"untraced hot-path overhead {trace_overhead * 100:.2f}% not below "
            f"{MAX_TRACE_OVERHEAD * 100:.2f}%"
        )
    if analytics_overhead >= MAX_ANALYTICS_OVERHEAD:
        failures.append(
            f"warm-serve analytics overhead {analytics_overhead * 100:.2f}% not "
            f"below {MAX_ANALYTICS_OVERHEAD * 100:.2f}%"
        )
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
