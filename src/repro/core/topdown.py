"""Top-down (memoized) variant of the Generalized Matrix Chain algorithm.

Section 2 of the paper notes that the classic matrix chain problem "can be
elegantly solved with a dynamic programming approach, both in a top-down and
a bottom-up fashion"; the paper then presents the bottom-up generalization
(Fig. 4), which :class:`repro.core.gmc.GMCAlgorithm` implements.  This module
provides the equivalent *top-down memoized* formulation of the generalized
algorithm.  It computes exactly the same optimal cost and kernel sequence --
the tests assert this on random chains -- but explores sub-chains lazily,
which can skip work when large parts of the chain are forced by
uncomputability (infinite-cost sub-chains) and which some users find easier
to extend.

The implementation intentionally shares the kernel-selection and
property-inference machinery with the bottom-up algorithm so that the two can
only differ in traversal order, never in modelling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from ..algebra.expression import Expression, Matrix, Temporary
from ..algebra.inference import infer_properties
from ..algebra.operators import Times
from ..cost.metrics import CostMetric
from ..kernels.catalog import KernelCatalog
from ..kernels.kernel import Kernel, KernelCall, Program
from ..matching.patterns import Substitution
from ..options import CompileOptions
from .gmc import (
    ChainLike,
    DeadlineChecker,
    UncomputableChainError,
    WorkCounters,
    _coerce_chain,
    _uncomputable_message,
    coerce_solver_options,
    solver_work_telemetry,
)


@dataclass
class _SubChain:
    """Memoized solution of one sub-chain ``M[i..j]``.

    ``operand`` is ``None`` for uncomputable cells: a dead cell never
    materializes a temporary (nor pays its property inference).
    """

    cost: object
    split: int
    kernel: Optional[Kernel]
    substitution: Optional[Substitution]
    expression: Optional[Expression]
    kernel_cost: object
    operand: Optional[Matrix]


@dataclass
class TopDownSolution:
    """Result of the top-down solver (a lighter cousin of ``GMCSolution``)."""

    factors: Tuple[Expression, ...]
    expression: Expression
    metric: CostMetric
    catalog: KernelCatalog
    table: Dict[Tuple[int, int], _SubChain]
    #: ``False`` when the per-request deadline expired mid-solve (the table
    #: holds the best-so-far exploration state).
    complete: bool = True
    #: Solver work counters (see :class:`repro.core.gmc.WorkCounters`): DP
    #: cells whose split loop ran to completion, split candidates skipped by
    #: the lower-bound prune, and anti-diagonals entered (always 0: the lazy
    #: recursion has no diagonal structure).
    cells_evaluated: int = 0
    cells_pruned: int = 0
    diagonals: int = 0

    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def optimal_cost(self) -> object:
        if self.length == 1:
            return self.metric.zero
        return self.table[(0, self.length - 1)].cost

    @property
    def computable(self) -> bool:
        return not self.metric.is_infinite(self.optimal_cost)

    def kernel_calls(self) -> List[KernelCall]:
        """The optimal kernel-call list, materialized once and reused."""
        calls = getattr(self, "_calls_cache", None)
        if calls is None:
            calls = list(self.construct_solution())
            self._calls_cache = calls
        return calls

    def construct_solution(self, i: int = 0, j: Optional[int] = None) -> Iterator[KernelCall]:
        """Yield the kernel calls of the optimal solution (Fig. 7 order)."""
        if j is None:
            j = self.length - 1
        if i == j:
            return
        if not self.computable:
            raise UncomputableChainError(
                _uncomputable_message(self),
                signature=self.expression.signature(),
            )
        cell = self.table[(i, j)]
        yield from self.construct_solution(i, cell.split)
        yield from self.construct_solution(cell.split + 1, j)
        yield KernelCall(
            kernel=cell.kernel,
            substitution=cell.substitution,
            output=cell.operand,
            expression=cell.expression,
            flops=cell.kernel.flops(cell.substitution),
            cost=cell.kernel_cost,
        )

    def program(self, strategy_name: str = "GMC (top-down)") -> Program:
        calls = list(self.kernel_calls())
        output = calls[-1].output if calls else (
            self.factors[0] if isinstance(self.factors[0], Matrix) else None
        )
        return Program(
            calls=calls,
            output=output,
            expression=self.expression,
            strategy=strategy_name,
        )

    @property
    def total_flops(self) -> float:
        return sum(call.flops for call in self.kernel_calls())

    def kernel_sequence(self) -> List[str]:
        return [call.kernel.display_name for call in self.kernel_calls()]

    def parenthesization(self) -> str:
        def render(i: int, j: int) -> str:
            if i == j:
                return str(self.factors[i])
            cell = self.table[(i, j)]
            if cell.kernel is None:
                return "<uncomputable>"
            return f"({render(i, cell.split)} * {render(cell.split + 1, j)})"

        if self.length == 1:
            return str(self.factors[0])
        return render(0, self.length - 1)


class TopDownGMC:
    """Top-down memoized formulation of the GMC algorithm.

    Produces the same optimal solutions as :class:`GMCAlgorithm`; see the
    module docstring for when the traversal order matters.  Configured by
    one :class:`~repro.options.CompileOptions` value exactly like
    :class:`GMCAlgorithm`.
    """

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        self.options = coerce_solver_options(options)
        self.catalog: KernelCatalog = self.options.resolve_catalog()
        self.metric: CostMetric = self.options.resolve_metric()
        self.prune: bool = self.options.prune
        self.use_match_cache: bool = self.options.match_cache
        self.deadline_s = self.options.deadline_s
        #: Optional :class:`repro.obs.trace.Tracer` (see GMCAlgorithm.tracer):
        #: ``None`` keeps the memoized recursion untouched.
        self.tracer = None

    def solve(self, chain: ChainLike) -> TopDownSolution:
        tracer = self.tracer
        if tracer is None:
            return self._solve(chain)
        tracer.begin("solve", solver="topdown")
        try:
            solution = self._solve(chain)
        except BaseException:
            tracer.end()
            raise
        tracer.end(
            n=solution.length,
            metric=self.metric.name,
            complete=solution.complete,
            computable=solution.computable,
            cells_evaluated=solution.cells_evaluated,
            cells_pruned=solution.cells_pruned,
            diagonals=solution.diagonals,
        )
        return solution

    def _solve(self, chain: ChainLike) -> TopDownSolution:
        factors, expression = _coerce_chain(chain)
        checker = DeadlineChecker(self.deadline_s)
        work = WorkCounters()
        table: Dict[Tuple[int, int], _SubChain] = {}
        operands: Dict[Tuple[int, int], Matrix] = {}
        state = {"expired": False}

        def operand_for(i: int, j: int) -> Matrix:
            """The symbolic operand representing M[i..j] (leaf or temporary)."""
            if i == j:
                return factors[i]  # type: ignore[return-value]
            key = (i, j)
            if key not in operands:
                sub_chain = Times(*factors[i : j + 1])
                operands[key] = Temporary(
                    rows=sub_chain.rows,
                    columns=sub_chain.columns,
                    properties=infer_properties(sub_chain),
                    origin=sub_chain,
                )
            return operands[key]

        def lookup(i: int, j: int) -> object:
            """Minimal cost of computing M[i..j] (memoized)."""
            if i == j:
                return self.metric.zero
            key = (i, j)
            if key in table:
                return table[key].cost
            best = _SubChain(
                cost=self.metric.infinity,
                split=-1,
                kernel=None,
                substitution=None,
                expression=None,
                kernel_cost=self.metric.infinity,
                # Lazily filled below: dead cells never create a temporary.
                operand=None,
            )
            for k in range(i, j):
                # Deadline enforcement (``options.deadline_s``): checked at
                # every cell boundary of the memoized recursion (strided
                # clock reads, see DeadlineChecker); once the budget expires
                # every in-flight cell keeps its best-so-far decision and no
                # further split is explored.
                if state["expired"]:
                    break
                if checker.expired():
                    state["expired"] = True
                    break
                left_cost = lookup(i, k)
                right_cost = lookup(k + 1, j)
                # Uncomputability propagation: dead sub-chains never reach
                # kernel matching.
                if self.metric.is_infinite(left_cost) or self.metric.is_infinite(right_cost):
                    continue
                if self.prune and best.kernel is not None:
                    # Lower-bound pruning (see GMCAlgorithm): a split whose
                    # bound cannot beat the best-so-far is skipped before
                    # matching.
                    bound = self.metric.lower_bound(left_cost, right_cost)
                    if bound is not None and not bound < best.cost:
                        work.cells_pruned += 1
                        continue
                expr = Times(operand_for(i, k), operand_for(k + 1, j))
                choice = self._best_kernel(expr)
                if choice is None:
                    continue
                kernel, substitution, kernel_cost = choice
                cost = self.metric.combine(
                    self.metric.combine(left_cost, right_cost), kernel_cost
                )
                if cost < best.cost:
                    best = _SubChain(
                        cost=cost,
                        split=k,
                        kernel=kernel,
                        substitution=substitution,
                        expression=expr,
                        kernel_cost=kernel_cost,
                        operand=operand_for(i, j),
                    )
            table[key] = best
            work.cells_evaluated += 1
            return best.cost

        if self.tracer is None:
            lookup(0, len(factors) - 1)
        else:
            # The lazy recursion has no diagonal structure; one aggregate
            # span covers the whole memoized exploration.
            with self.tracer.span("memoized_recursion", n=len(factors)) as span:
                lookup(0, len(factors) - 1)
                span.attrs["cells_evaluated"] = work.cells_evaluated
                span.attrs["cells_pruned"] = work.cells_pruned
        solver_work_telemetry().record(work)
        return TopDownSolution(
            factors=factors,
            expression=expression,
            metric=self.metric,
            catalog=self.catalog,
            table=table,
            complete=not state["expired"],
            cells_evaluated=work.cells_evaluated,
            cells_pruned=work.cells_pruned,
            diagonals=work.diagonals,
        )

    def _best_kernel(
        self, expr: Expression
    ) -> Optional[Tuple[Kernel, Substitution, object]]:
        best: Optional[Tuple[Kernel, Substitution, object]] = None
        best_key: Optional[Tuple] = None
        for kernel, substitution in self.catalog.match(
            expr, use_cache=self.use_match_cache
        ):
            kernel_cost = self.metric.kernel_cost_cached(kernel, substitution)
            key = (kernel_cost, -len(kernel.pattern.constraints), kernel.id)
            if best_key is None or key < best_key:
                best_key = key
                best = (kernel, substitution, kernel_cost)
        return best
