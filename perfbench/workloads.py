"""Seeded request streams of the three service workloads, and their checks.

Each workload is an endless, deterministic sequence of HTTP request bodies
drawn from ``--seed``: the same seed yields byte-identical bodies in the
same order, another seed yields different ones.  The server only ever sees
the bodies; everything needed to check a response (the reference plan, the
operand seed) stays on the benchmark side.

``cold_paper``
    ``POST /compile`` with ``emit: ["numpy"]`` over fresh random chains of
    :func:`repro.experiments.workload.paper_generator` (lengths 3-10, mixed
    properties, inverses, transposes).  Nearly every request has a new
    name-abstracted signature, so the plan cache only misses and stores and
    the dynamic program runs on every request.
``jacobian_warm``
    ``POST /compile`` without emit over sibling Jacobian DAG programs of
    :func:`repro.experiments.workload.jacobian_workload` from three fixed
    model families (different block counts and operand sizes), interleaved
    by the seed.  After each family's first model every segment is a
    plan-cache hit: the cost is parse, decomposition, plan rebind, routing
    and transport.
``execute_mix``
    ``POST /execute`` (engine ``module``, validation on) over the paper's
    named example chains plus a Kalman-gain DAG, with fresh operand names
    and a fresh operand seed per request.  The only workload that runs the
    execution tier.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("cold_paper", "jacobian_warm", "execute_mix")

#: The Jacobian model families: (blocks, outputs, gram, latent, states).
#: Fixed, so routing of the three affinity keys onto the two workers is the
#: same for every seed; the seed interleaves the families and names the
#: operands.
JACOBIAN_FAMILIES: Tuple[Tuple[int, int, int, int, int], ...] = (
    (6, 70, 50, 90, 40),
    (8, 60, 40, 80, 30),
    (10, 90, 60, 120, 50),
)

#: The Kalman-gain DAG of ``execute_mix``: ``G`` is a plain chain, ``K``
#: needs a synthetic segment for the inner product under the inverse.
KALMAN_DAG = """Matrix H (50, 90) <>
Matrix P (90, 90) <SPD>

G := H * P * H^T
K := P * H^T * (H * P^-1 * H^T)^-1
"""

#: The service's default validation tolerances (``POST /execute``).
DEFAULT_RTOL = 1e-6
DEFAULT_ATOL = 1e-9

#: Per-program validation tolerance of ``execute_mix``, sent as both
#: ``rtol`` and ``atol`` only for the programs listed here (the others use
#: the service defaults).  Both programs draw random lower-triangular
#: operands (``repro.runtime.operands``), whose condition number grows
#: exponentially with n, so the explicit-inverse reference differs from the
#: triangular solves by more than the defaults allow.  Measured over 1000
#: draws each (largest error relative to the largest reference entry):
#: ``L^-1 A L^-T`` (150x150) fails 21% of draws at the defaults, worst
#: error 1.5e-4; the blocked triangular inversion (120x120) fails 0.6%,
#: worst error 9.5e-7, on near-zero entries that the default ``atol``
#: (1e-9 of the scale) does not cover.  Each tolerance is about ten times
#: the worst error, which keeps validation on without turning that operand
#: defect into request failures.
EXECUTE_TOLERANCE = {"generalized_eigenproblem": 1e-3, "triangular_inversion": 1e-5}

_DECLARATION = re.compile(r"^\s*(?:Matrix|Vector)\s+([A-Za-z_]\w*)", re.MULTILINE)


@dataclass(frozen=True)
class Request:
    """One request of a workload stream.

    ``body`` is exactly what goes on the wire.  ``template`` names the
    operand-name-free problem the request was made from (requests with
    equal templates have equal reference plans); ``source`` and
    ``operand_seed`` let the benchmark recompute the expected result.
    """

    index: int
    request_id: str
    path: str
    body: bytes
    template: str
    source: str
    operand_seed: Optional[int] = None
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL


def rename_operands(source: str, tag: str) -> str:
    """*source* with every declared operand renamed ``<name>_<tag>``.

    Assignment targets keep their names; only declared operands change, so
    the renamed program has the same name-abstracted signature.
    """
    names = sorted(set(_DECLARATION.findall(source)), key=len, reverse=True)
    if not names:
        return source
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
    return pattern.sub(lambda match: f"{match.group(1)}_{tag}", source)


def chain_source(problem) -> str:
    """A generated or named chain problem as single-assignment DSL text."""
    lines = []
    seen = set()
    for operand in problem.operands:
        if operand.name in seen:
            continue
        seen.add(operand.name)
        properties = ", ".join(sorted(p.value for p in operand.properties))
        lines.append(
            f"Matrix {operand.name} ({operand.rows}, {operand.columns}) <{properties}>"
        )
    lines.append(f"X := {problem.expression}")
    return "\n".join(lines) + "\n"


def _body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _rounds(items: List[str], rng: random.Random) -> Iterator[str]:
    """*items* in rounds, each round a seeded shuffle of all of them: the
    interleaving follows the seed while every item keeps an equal share of
    any window, so the mix does not drift between seeds."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def _cold_paper(seed: int) -> Iterator[Request]:
    from repro.experiments.workload import paper_generator

    generator = paper_generator(seed)
    index = 0
    while True:
        template = chain_source(generator.generate())
        request_id = f"cold_paper-{seed}-{index}"
        source = rename_operands(template, f"r{index}")
        payload = {
            "request_id": request_id,
            "source": source,
            "options": {"emit": ["numpy"]},
        }
        yield Request(index, request_id, "/compile", _body(payload), template, source)
        index += 1


def jacobian_family_source(family: int) -> str:
    """The DSL text of one model of Jacobian family *family*."""
    from repro.experiments.workload import jacobian_workload

    blocks, outputs, gram, latent, states = JACOBIAN_FAMILIES[family]
    (problem,) = jacobian_workload(
        1, blocks, outputs=outputs, gram=gram, latent=latent, states=states
    )
    return problem.source


def _jacobian_warm(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    templates = [jacobian_family_source(f) for f in range(len(JACOBIAN_FAMILIES))]
    index = 0
    for template in _rounds(templates, rng):
        request_id = f"jacobian_warm-{seed}-{index}"
        source = rename_operands(template, f"r{index}")
        payload = {"request_id": request_id, "source": source, "options": {}}
        yield Request(index, request_id, "/compile", _body(payload), template, source)
        index += 1


def execute_programs() -> Dict[str, str]:
    """The fixed program set of ``execute_mix``: named chains + Kalman DAG."""
    from repro.experiments.workload import named_examples

    programs = {name: chain_source(p) for name, p in named_examples().items()}
    programs["kalman_gain_dag"] = KALMAN_DAG
    return programs


def _execute_mix(seed: int) -> Iterator[Request]:
    rng = random.Random(seed)
    programs = execute_programs()
    index = 0
    for name in _rounds(list(programs), rng):
        template = programs[name]
        operand_seed = rng.randrange(2**31)
        request_id = f"execute_mix-{seed}-{index}"
        source = rename_operands(template, f"r{index}")
        execute = {"engine": "module", "validate": True, "seed": operand_seed}
        tolerance = EXECUTE_TOLERANCE.get(name)
        if tolerance is not None:
            execute.update(rtol=tolerance, atol=tolerance)
        payload = {
            "request_id": request_id,
            "source": source,
            "options": {},
            "execute": execute,
        }
        yield Request(
            index, request_id, "/execute", _body(payload), template, source,
            operand_seed, tolerance or DEFAULT_RTOL, tolerance or DEFAULT_ATOL,
        )
        index += 1


_STREAMS: Dict[str, Callable[[int], Iterator[Request]]] = {
    "cold_paper": _cold_paper,
    "jacobian_warm": _jacobian_warm,
    "execute_mix": _execute_mix,
}


def request_stream(workload: str, seed: int) -> Iterator[Request]:
    """The endless request sequence of *workload* for *seed*."""
    return _STREAMS[workload](seed)


# ---------------------------------------------------------------------------
# Output checks (run in the benchmark process, outside the timed window).
# ---------------------------------------------------------------------------

class ReferenceChecker:
    """Checks responses against references computed without the service.

    ``/compile`` responses must equal the serial dynamic program with
    pruning, plan cache and match cache all off, assignment by assignment,
    on kernel sequence and cost.  ``/execute`` responses must be ``ok`` and
    validated; for a sample of them the benchmark draws the same seeded
    operands and evaluates the program with
    :func:`repro.runtime.reference.evaluate`, independently of the compiler,
    and compares the result's shape, Frobenius norm, minimum and maximum
    within the bounds that the service's own entrywise check (``rtol``
    relative, ``atol`` times the largest reference entry, at least 1)
    implies for them.  The summary cannot tell
    a square result from its transpose or a permutation of its entries;
    the service's own validation compares every entry.
    """

    def __init__(self) -> None:
        from repro.frontend import Compiler
        from repro.options import CompileOptions

        self._compiler = Compiler(
            CompileOptions(prune=False, plan_cache=False, match_cache=False)
        )
        self._plans: Dict[str, List[Tuple[str, List[str], float]]] = {}

    def reference_plan(self, template: str) -> List[Tuple[str, List[str], float]]:
        """``[(target, kernels, cost), ...]`` of the reference solve."""
        plan = self._plans.get(template)
        if plan is None:
            result = self._compiler.compile(template)
            plan = [
                (
                    entry.target,
                    list(entry.program.kernel_names),
                    float(entry.solution.optimal_cost),
                )
                for entry in result
            ]
            self._plans[template] = plan
        return plan

    def check_compile(self, request: Request, response: dict) -> Optional[str]:
        """``None`` when *response* matches the reference, else why not."""
        if not response.get("ok"):
            return f"ok=false: {response.get('error')}"
        got = [
            (a["target"], list(a["kernels"]), float(a["cost"]))
            for a in response.get("assignments", ())
        ]
        expected = self.reference_plan(request.template)
        if [(t, k) for t, k, _ in got] != [(t, k) for t, k, _ in expected]:
            return f"kernel sequences differ: got {got}, expected {expected}"
        for (target, _, cost), (_, _, ref_cost) in zip(got, expected):
            if cost != ref_cost:
                return f"{target}: cost {cost!r} != reference {ref_cost!r}"
        emit = json.loads(request.body)["options"].get("emit", [])
        for assignment in response["assignments"]:
            if sorted(assignment.get("code") or {}) != sorted(emit) or not all(
                assignment["code"].values()
            ):
                return f"{assignment['target']}: emitted code is not {emit}"
        return None

    def check_execute(self, request: Request, response: dict, recheck: bool) -> Optional[str]:
        """``None`` when *response* is ok and validated (and, with
        *recheck*, matches the benchmark's own evaluation), else why not."""
        if not response.get("ok") or response.get("validated") is not True:
            return (
                f"ok={response.get('ok')} validated={response.get('validated')} "
                f"phase={response.get('phase')}: {response.get('error')}"
            )
        if not recheck:
            return None
        import numpy as np

        from repro.algebra.dsl import parse_program
        from repro.runtime.operands import random_environment
        from repro.runtime.reference import evaluate

        program = parse_program(request.source)
        environment = random_environment(program, seed=request.operand_seed)
        value = None
        for target, expression in program.assignments:
            value = evaluate(expression, environment)
            environment[target] = value
        (summary,) = response["results"]
        value = np.atleast_2d(np.asarray(value, dtype=float))
        if value.shape != (summary["rows"], summary["columns"]):
            return f"shape {summary['rows']}x{summary['columns']} != reference {value.shape}"
        scale = max(1.0, float(np.max(np.abs(value))))
        norm = float(np.linalg.norm(value))
        bounds = (
            ("fro_norm", norm,
             request.rtol * norm + request.atol * scale * math.sqrt(value.size)),
            ("min", float(value.min()), (request.rtol + request.atol) * scale),
            ("max", float(value.max()), (request.rtol + request.atol) * scale),
        )
        for key, expected, bound in bounds:
            if abs(summary[key] - expected) > bound:
                return f"{key} {summary[key]!r} != reference {expected!r}"
        return None
