"""The Generalized Matrix Chain (GMC) algorithm -- the paper's contribution.

The GMC algorithm (paper Section 3, Fig. 4) extends the classic matrix chain
dynamic program to chains whose factors may be transposed and/or inverted and
whose operands carry structural properties.  Instead of a single scalar cost
per product, every candidate split is mapped -- by syntactic pattern matching
against the kernel catalog -- to the set of kernels that can compute it, and
the metric-minimal kernel is chosen.  Properties are inferred symbolically
for every intermediate result so that specialized kernels remain applicable
deeper in the chain.

The implementation follows the pseudocode of Fig. 4 closely.  The DP tables
are:

``tmps[i][j]``
    The symbolic operand representing the sub-chain ``M[i..j]``: the wrapped
    input factor when ``i == j``, otherwise a
    :class:`~repro.algebra.expression.Temporary` annotated with the inferred
    properties of the sub-chain (``None`` for uncomputable cells, which
    never materialize a temporary).
``costs[i][j]``
    The minimal accumulated metric value for computing ``M[i..j]``.
``choices[i][j]``
    The kernel (and its substitution) chosen for the top-level operation of
    the optimal computation of ``M[i..j]``.
``splits[i][j]``
    The optimal split point ``k`` (the role of the ``s`` table in CLRS).

Deviations from the pseudocode, all discussed in the paper:

* property inference runs once per ``(i, j)`` cell (on the sub-chain
  expression) instead of once per split, realizing the ``O(n^3 + n^2 p)``
  refinement of Section 3.4; cells with no computable split skip it
  entirely (no temporary is materialized for a provably dead cell);
* the metric is arbitrary (Section 3.3), not hard-wired to FLOPs;
* when no kernel matches a split the split simply gets infinite cost; the
  chain as a whole is still solved when another parenthesization is
  computable (completeness discussion of Section 3.4);
* splits whose accumulated lower bound (:meth:`CostMetric.lower_bound` over
  the already-known sub-chain costs) cannot beat the cell's best-so-far are
  pruned before kernel matching -- a Hu/Shing-flavoured dominance reduction
  generalized to property-dependent kernel costs (disable with
  ``GMCAlgorithm(CompileOptions(prune=False))`` to force the exhaustive
  reference loop).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..algebra.expression import Expression, Matrix, Temporary, signature_digest
from ..algebra.inference import infer_properties
from ..algebra.operators import Times
from ..algebra.simplify import as_chain, unary_decomposition
from ..cost.metrics import CostMetric
from ..kernels.catalog import KernelCatalog
from ..kernels.kernel import Kernel, KernelCall, Program
from ..matching.patterns import Substitution
from ..options import CompileOptions


class DeadlineChecker:
    """A strided ``time.monotonic`` gate for ``deadline_s``.

    One checker is created per solve and polled at every DP cell boundary.
    To keep the poll cheap, the clock is only read every *stride* calls;
    the stride adapts to the observed time between clock reads so cheap
    cells amortize the syscall while expensive cells keep the truncation
    point tight (target: one clock read every ~``_TARGET_S`` seconds,
    stride clamped to [1, ``_MAX_STRIDE``]).  The very first call always
    reads the clock, so an already-expired budget truncates before any work
    happens (the truncation-point tests rely on this).  Expiry is sticky.
    """

    __slots__ = ("deadline", "_stride", "_budget", "_expired", "_last_check")

    _MAX_STRIDE = 64
    _TARGET_S = 0.002

    def __init__(self, deadline_s: Optional[float]) -> None:
        self.deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self._stride = 1
        self._budget = 0  # calls left before the next real clock read
        self._expired = False
        self._last_check: Optional[float] = None

    def expired(self) -> bool:
        """Whether the budget has run out (strided clock reads)."""
        if self.deadline is None:
            return False
        if self._expired:
            return True
        if self._budget > 0:
            self._budget -= 1
            return False
        now = time.monotonic()
        if now > self.deadline:
            self._expired = True
            return True
        last = self._last_check
        self._last_check = now
        if last is not None:
            elapsed = now - last
            if elapsed < self._TARGET_S / 4 and self._stride < self._MAX_STRIDE:
                self._stride *= 2
            elif elapsed > self._TARGET_S and self._stride > 1:
                self._stride //= 2
        self._budget = self._stride - 1
        return False


class WorkCounters:
    """Per-solve work counters surfaced on the solution objects.

    ``cells_evaluated`` counts DP cells whose split loop ran to completion;
    ``cells_pruned`` counts split *candidates* skipped by the lower-bound
    prune inside those cells; ``diagonals`` counts anti-diagonals entered.
    """

    __slots__ = ("cells_evaluated", "cells_pruned", "diagonals")

    def __init__(self) -> None:
        self.cells_evaluated = 0
        self.cells_pruned = 0
        self.diagonals = 0


class SolverWorkTelemetry:
    """Process-global accumulator behind the ``solver`` telemetry layer.

    Follows the uniform ``stats()`` / ``reset_stats()`` protocol of the
    cache layers (:mod:`repro.telemetry`), so solver work aggregates across
    pool workers exactly like cache counters do.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset_stats()

    def record(self, counters: WorkCounters) -> None:
        with self._lock:
            self.solves += 1
            self.cells_evaluated += counters.cells_evaluated
            self.cells_pruned += counters.cells_pruned
            self.diagonals += counters.diagonals

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "layer": "solver",
                "solves": self.solves,
                "cells_evaluated": self.cells_evaluated,
                "cells_pruned": self.cells_pruned,
                "diagonals": self.diagonals,
            }

    def reset_stats(self) -> None:
        self.solves = 0
        self.cells_evaluated = 0
        self.cells_pruned = 0
        self.diagonals = 0


_WORK_TELEMETRY = SolverWorkTelemetry()


def solver_work_telemetry() -> SolverWorkTelemetry:
    """The process-wide solver work accumulator (telemetry layer ``solver``)."""
    return _WORK_TELEMETRY


def coerce_solver_options(options: Optional[CompileOptions]) -> CompileOptions:
    """The options of a solver constructor (``None`` selects the defaults)."""
    if options is None:
        return CompileOptions()
    if not isinstance(options, CompileOptions):
        raise TypeError(f"expected CompileOptions, got {options!r}")
    return options


class UncomputableChainError(RuntimeError):
    """Raised when no parenthesization of the chain maps onto the catalog.

    Carries structured context alongside the message: ``segment`` names the
    chain segment of the enclosing program that failed (``None`` outside the
    DAG pipeline) and ``signature`` is the name-abstracted signature of the
    sub-expression that could not be computed, so callers can report *what*
    failed rather than a bare ``(i, j)`` cell index.
    """

    def __init__(
        self,
        message: str,
        *,
        segment: Optional[str] = None,
        signature: object = None,
    ) -> None:
        super().__init__(message)
        self.segment = segment
        self.signature = signature


def _uncomputable_message(solution) -> str:
    """Why a solution has no kernel sequence (catalog gap vs deadline).

    A deadline-truncated solve may be uncomputable merely because the
    budget expired before the top cell was reached (the bottom-up DP fills
    it last); blaming the catalog would mislead the caller into dropping a
    perfectly computable chain.
    """
    if not getattr(solution, "complete", True):
        return (
            f"deadline expired before a complete kernel sequence for "
            f"{solution.expression} was found (best-so-far tables returned, "
            f"complete=False); retry with a larger deadline_s"
        )
    return (
        f"no kernel sequence computes {solution.expression} (signature "
        f"{signature_digest(solution.expression)}) with catalog "
        f"{solution.catalog.name}"
    )


@dataclass
class _CellChoice:
    """The kernel decision recorded for one DP cell."""

    kernel: Kernel
    substitution: Substitution
    expression: Expression
    split: int
    kernel_cost: object


@dataclass
class GMCSolution:
    """The result of running the GMC algorithm on a chain.

    The solution gives access to the optimal cost, the chosen
    parenthesization, the kernel sequence (as a :class:`Program`) and the raw
    DP tables for inspection.
    """

    factors: Tuple[Expression, ...]
    expression: Expression
    metric: CostMetric
    catalog: KernelCatalog
    costs: List[List[object]] = field(repr=False)
    splits: List[List[int]] = field(repr=False)
    choices: List[List[Optional[_CellChoice]]] = field(repr=False)
    tmps: List[List[Optional[Matrix]]] = field(repr=False)
    generation_time: float = 0.0
    #: ``False`` when the per-request deadline (``options.deadline_s``)
    #: expired mid-solve: the tables hold the best-so-far state and cells
    #: past the cutoff were never evaluated.
    complete: bool = True
    #: Solver work counters (see :class:`WorkCounters`): DP cells whose
    #: split loop ran to completion, split candidates skipped by the
    #: lower-bound prune, and anti-diagonals entered.
    cells_evaluated: int = 0
    cells_pruned: int = 0
    diagonals: int = 0

    # ------------------------------------------------------------------ info
    @property
    def length(self) -> int:
        return len(self.factors)

    @property
    def optimal_cost(self) -> object:
        """The metric value of the optimal solution (``inf`` if uncomputable)."""
        if self.length == 1:
            return self.metric.zero
        return self.costs[0][self.length - 1]

    @property
    def computable(self) -> bool:
        """Whether at least one parenthesization mapped onto the catalog."""
        return not self.metric.is_infinite(self.optimal_cost)

    @property
    def output(self) -> Optional[Matrix]:
        return self.tmps[0][self.length - 1]

    # ------------------------------------------------------- solution access
    def kernel_calls(self) -> List[KernelCall]:
        """The kernel calls of the optimal solution, in dependency order.

        The list is materialized from :meth:`construct_solution` once and
        reused by every consumer (:meth:`program`, :attr:`total_flops`,
        :meth:`kernel_sequence`), which previously each re-ran the recursion.
        """
        calls = getattr(self, "_calls_cache", None)
        if calls is None:
            calls = list(self.construct_solution())
            self._calls_cache = calls
        return calls

    def construct_solution(self, i: int = 0, j: Optional[int] = None) -> Iterator[KernelCall]:
        """Yield the kernel calls of the optimal solution in dependency order.

        This is the recursive generator of Fig. 7 of the paper; kernels for
        sub-chains are emitted before the kernel that consumes them.  Callers
        that only need the full list should prefer :meth:`kernel_calls`.
        """
        if j is None:
            j = self.length - 1
        if i == j:
            return
        if not self.computable:
            raise UncomputableChainError(
                _uncomputable_message(self),
                signature=self.expression.signature(),
            )
        choice = self.choices[i][j]
        if choice is None:  # pragma: no cover - guarded by ``computable``
            sub = Times(*self.factors[i : j + 1])
            raise UncomputableChainError(
                f"sub-chain M[{i}..{j}] = {sub} (signature "
                f"{signature_digest(sub)}) is not computable",
                signature=sub.signature(),
            )
        k = choice.split
        yield from self.construct_solution(i, k)
        yield from self.construct_solution(k + 1, j)
        yield KernelCall(
            kernel=choice.kernel,
            substitution=choice.substitution,
            output=self.tmps[i][j],
            expression=choice.expression,
            flops=choice.kernel.flops(choice.substitution),
            cost=choice.kernel_cost,
        )

    def program(self, strategy_name: str = "GMC") -> Program:
        """Materialize the optimal kernel sequence as a :class:`Program`."""
        return Program(
            calls=list(self.kernel_calls()),
            output=self.output,
            expression=self.expression,
            strategy=strategy_name,
        )

    @property
    def total_flops(self) -> float:
        """FLOP count of the chosen solution (regardless of the metric)."""
        return sum(call.flops for call in self.kernel_calls())

    def kernel_sequence(self) -> List[str]:
        """The kernel family names of the solution, in execution order."""
        return [call.kernel.display_name for call in self.kernel_calls()]

    def parenthesization(self) -> str:
        """Render the chosen parenthesization, e.g. ``(A^-1 * (B * C^T))``."""

        def render(i: int, j: int) -> str:
            if i == j:
                return str(self.factors[i])
            choice = self.choices[i][j]
            if choice is None:
                return "<uncomputable>"
            k = choice.split
            return f"({render(i, k)} * {render(k + 1, j)})"

        if self.length == 1:
            return str(self.factors[0])
        return render(0, self.length - 1)

    def __str__(self) -> str:
        lines = [
            f"GMC solution for {self.expression}",
            f"  metric:           {self.metric.name}",
            f"  computable:       {self.computable}",
            f"  optimal cost:     {self.optimal_cost}",
            f"  parenthesization: {self.parenthesization()}",
        ]
        if self.computable:
            lines.append(f"  kernels:          {' -> '.join(self.kernel_sequence())}")
        return "\n".join(lines)


ChainLike = Union[Expression, Sequence[Expression]]


class GMCAlgorithm:
    """The Generalized Matrix Chain algorithm (paper Fig. 4).

    The constructor takes one :class:`~repro.options.CompileOptions` value
    naming the catalog, metric, pruning and match-cache policy and the
    deadline budget; ``GMCAlgorithm()`` uses the defaults.

    ``options.prune`` skips splits whose lower-bounded accumulated cost
    (:meth:`CostMetric.lower_bound`) already meets or exceeds the cell's
    best-so-far, avoiding their kernel matching entirely.  The optimum is
    unaffected (the bound is sound for every metric that reports one);
    disable it to time or differentially test the exhaustive loop.
    ``options.match_cache`` controls whether ``catalog.match`` is served
    through the signature-keyed match cache.

    Example
    -------
    >>> from repro.algebra import Matrix, Property
    >>> A = Matrix("A", 10, 10, {Property.SPD})
    >>> B = Matrix("B", 10, 4)
    >>> gmc = GMCAlgorithm()
    >>> solution = gmc.solve(A.I * B)
    >>> solution.kernel_sequence()
    ['POSV']
    """

    def __init__(self, options: Optional[CompileOptions] = None) -> None:
        self.options = coerce_solver_options(options)
        self.catalog: KernelCatalog = self.options.resolve_catalog()
        self.metric: CostMetric = self.options.resolve_metric()
        self.prune: bool = self.options.prune
        self.use_match_cache: bool = self.options.match_cache
        self.deadline_s = self.options.deadline_s
        #: Optional :class:`repro.obs.trace.Tracer` recording per-phase spans
        #: of every solve.  ``None`` (the default) keeps the DP loops on the
        #: untraced reference path -- the traced-off overhead the bench gate
        #: measures is one ``is None`` test per solve, never per cell.
        self.tracer = None

    # ------------------------------------------------------------------ API
    def solve(self, chain: ChainLike) -> GMCSolution:
        """Run the dynamic program on a chain and return its solution.

        The input may be an expression (it is normalized into chain form
        first) or an already-normalized sequence of chain factors.
        """
        factors, expression = _coerce_chain(chain)
        start = time.perf_counter()
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(
                "solve",
                solver="gmc",
                n=len(factors),
                metric=self.metric.name,
            )
        solution = self._solve_factors(factors, expression)
        solution.generation_time = time.perf_counter() - start
        if tracer is not None:
            tracer.end(
                complete=solution.complete,
                computable=solution.computable,
                cells_evaluated=solution.cells_evaluated,
                cells_pruned=solution.cells_pruned,
                diagonals=solution.diagonals,
            )
        return solution

    def generate(self, chain: ChainLike, strategy_name: str = "GMC") -> Program:
        """Solve the chain and return the optimal kernel program.

        Raises :class:`UncomputableChainError` when the chain cannot be
        mapped onto the catalog.
        """
        solution = self.solve(chain)
        if not solution.computable:
            raise UncomputableChainError(
                _uncomputable_message(solution),
                signature=solution.expression.signature(),
            )
        return solution.program(strategy_name)

    # ------------------------------------------------------------ internals
    def _solve_factors(
        self, factors: Tuple[Expression, ...], expression: Expression
    ) -> GMCSolution:
        n = len(factors)
        metric = self.metric
        costs: List[List[object]] = [
            [metric.zero if i == j else metric.infinity for j in range(n)] for i in range(n)
        ]
        splits = [[-1 for _ in range(n)] for _ in range(n)]
        choices: List[List[Optional[_CellChoice]]] = [[None for _ in range(n)] for _ in range(n)]
        tmps: List[List[Optional[Matrix]]] = [[None for _ in range(n)] for _ in range(n)]

        for i, factor in enumerate(factors):
            tmps[i][i] = factor  # type: ignore[assignment]

        checker = DeadlineChecker(self.deadline_s)
        work = WorkCounters()
        tracer = self.tracer
        if tracer is None:
            complete = self._fill_serial(
                factors, n, costs, splits, choices, tmps, checker, work
            )
        else:
            # Traced solves run the identical reference loop one diagonal at
            # a time so each anti-diagonal gets its own span; the untraced
            # branch above never pays for this.
            complete = self._fill_serial_traced(
                factors, n, costs, splits, choices, tmps, checker, work, tracer
            )
        solver_work_telemetry().record(work)

        return GMCSolution(
            factors=factors,
            expression=expression,
            metric=metric,
            catalog=self.catalog,
            costs=costs,
            splits=splits,
            choices=choices,
            tmps=tmps,
            complete=complete,
            cells_evaluated=work.cells_evaluated,
            cells_pruned=work.cells_pruned,
            diagonals=work.diagonals,
        )

    def _fill_serial(
        self, factors, n, costs, splits, choices, tmps, checker, work, lengths=None
    ) -> bool:
        """The bottom-up reference loop of paper Fig. 4.

        *lengths* restricts the fill to the given anti-diagonals (the traced
        wrapper runs one at a time); ``None`` fills all of them.
        """
        metric = self.metric
        prune = self.prune
        complete = True
        for length in range(1, n) if lengths is None else lengths:
            if not complete:
                break
            # Anti-diagonal ``length``: the independent cells (i, i + length),
            # filled in ascending i.
            work.diagonals += 1
            for i in range(0, n - length):
                # Deadline enforcement (``options.deadline_s``): checked at
                # every cell boundary (strided clock reads, see
                # DeadlineChecker), so an expired budget abandons the
                # remaining cells and returns the best-so-far tables marked
                # ``complete=False`` instead of silently ignoring the budget.
                if checker.expired():
                    complete = False
                    break
                j = i + length
                work.cells_evaluated += 1
                best_cost = costs[i][j]
                best_choice: Optional[_CellChoice] = None
                for k in range(i, j):
                    left_cost = costs[i][k]
                    right_cost = costs[k + 1][j]
                    # Uncomputability propagation: a split over a dead
                    # sub-chain is dead; it never reaches kernel matching.
                    if metric.is_infinite(left_cost) or metric.is_infinite(right_cost):
                        continue
                    if prune and best_choice is not None:
                        # The accumulated cost of this split is at least the
                        # lower bound; when that already fails to beat the
                        # best-so-far, matching cannot change the outcome.
                        bound = metric.lower_bound(left_cost, right_cost)
                        if bound is not None and not bound < best_cost:
                            work.cells_pruned += 1
                            continue
                    expr = Times(tmps[i][k], tmps[k + 1][j])
                    matched = self._best_kernel(expr)
                    if matched is None:
                        continue
                    kernel, substitution, kernel_cost = matched
                    cost = metric.combine(metric.combine(left_cost, right_cost), kernel_cost)
                    if cost < best_cost:
                        best_cost = cost
                        best_choice = _CellChoice(
                            kernel=kernel,
                            substitution=substitution,
                            expression=expr,
                            split=k,
                            kernel_cost=kernel_cost,
                        )
                if best_choice is not None:
                    self._commit_cell(
                        factors, costs, splits, choices, tmps, i, j, best_cost, best_choice
                    )
        return complete

    def _fill_serial_traced(
        self, factors, n, costs, splits, choices, tmps, checker, work, tracer
    ) -> bool:
        """Traced serial fill: the reference loop, one diagonal per span.

        Each anti-diagonal gets a ``diagonal`` span carrying the
        cells-evaluated / cells-pruned deltas, plus aggregate
        ``kernel_matching`` and ``inference`` child phases accumulated from
        per-cell timing wrappers (installed as instance attributes for the
        duration of this fill only, so untraced solves never see them).
        """
        phase = {"match": 0.0, "infer": 0.0}
        base_best = self._best_kernel
        base_commit = self._commit_cell
        clock = time.perf_counter

        def timed_best(expr):
            started = clock()
            try:
                return base_best(expr)
            finally:
                phase["match"] += clock() - started

        def timed_commit(*args):
            started = clock()
            try:
                return base_commit(*args)
            finally:
                phase["infer"] += clock() - started

        self._best_kernel = timed_best  # type: ignore[method-assign]
        self._commit_cell = timed_commit  # type: ignore[method-assign]
        complete = True
        try:
            with tracer.span("dp_fill", n=n):
                for length in range(1, n):
                    cells0 = work.cells_evaluated
                    pruned0 = work.cells_pruned
                    phase["match"] = phase["infer"] = 0.0
                    span = tracer.begin("diagonal", length=length)
                    complete = self._fill_serial(
                        factors,
                        n,
                        costs,
                        splits,
                        choices,
                        tmps,
                        checker,
                        work,
                        lengths=(length,),
                    )
                    tracer.end(
                        cells_evaluated=work.cells_evaluated - cells0,
                        cells_pruned=work.cells_pruned - pruned0,
                    )
                    tracer.add_phase(
                        span, "kernel_matching", span.start, phase["match"]
                    )
                    tracer.add_phase(
                        span, "inference", span.start + phase["match"], phase["infer"]
                    )
                    if not complete:
                        break
        finally:
            del self._best_kernel
            del self._commit_cell
        return complete

    def _commit_cell(
        self, factors, costs, splits, choices, tmps, i, j, best_cost, best_choice
    ) -> None:
        # Properties of M[i..j] do not depend on the split, so the
        # temporary (and its property inference) is created once per
        # *computable* cell -- the O(n^2 p) refinement of Section 3.4;
        # dead cells never pay inference.
        sub_chain = Times(*factors[i : j + 1])
        costs[i][j] = best_cost
        splits[i][j] = best_choice.split
        choices[i][j] = best_choice
        tmps[i][j] = Temporary(
            rows=sub_chain.rows,
            columns=sub_chain.columns,
            properties=infer_properties(sub_chain),
            origin=sub_chain,
        )

    def _best_kernel(
        self, expr: Expression
    ) -> Optional[Tuple[Kernel, Substitution, object]]:
        """All kernels matching *expr*, reduced to the metric-minimal one.

        Ties are broken in favour of the kernel with more constraints (the
        more specialized routine) and then by identifier for determinism.
        """
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


def _coerce_chain(chain: ChainLike) -> Tuple[Tuple[Expression, ...], Expression]:
    """Normalize the user input into ``(factors, expression)``."""
    if isinstance(chain, Expression):
        factors = as_chain(chain)
    else:
        factors = tuple(chain)
        for factor in factors:
            if not isinstance(factor, Expression):
                raise TypeError(f"chain factor {factor!r} is not an Expression")
        factors = as_chain(Times(*factors)) if len(factors) > 1 else as_chain(factors[0])
    if not factors:
        raise ValueError("empty chain")
    for factor in factors:
        # ``as_chain`` has already validated the shape of every factor, but a
        # defensive decomposition surfaces unexpected nodes early.
        unary_decomposition(factor)
    expression = Times(*factors) if len(factors) > 1 else factors[0]
    return factors, expression
