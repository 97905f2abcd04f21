"""The service's name-abstracted program cache and what it relies on.

Covers the canonical token stream of
:func:`repro.algebra.dsl.abstract_operand_names`, a differential test
(a program-cache hit under random renamings equals a fresh caches-off
compile), the cache's bypass, error and invalidation rules, per-program
temporary numbering in the numpy and julia emitters, and the
well-conditioned triangular operands ``POST /execute`` validates with.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.dsl import abstract_operand_names
from repro.algebra.expression import Temporary
from repro.exec.api import ExecuteRequest, run_execute_request
from repro.experiments.workload import named_examples
from repro.frontend.compiler import Compiler
from repro.options import CompileOptions
from repro.persist import program_cache
from repro.persist.program_cache import ProgramCache
from repro.service.api import CompileRequest, execute_request

#: Program templates over operand slots ``{0}``, ``{1}``, ...; targets are
#: fixed.  The second is a DAG: a reference to an earlier target, a
#: synthetic segment from ``inv(...)``, the ``trans(...)`` spelling and
#: comments.
TEMPLATES = (
    (
        "Matrix {0} (60, 60) <SPD>\n"
        "Matrix {1} (60, 40) <>\n"
        "Matrix {2} (40, 40) <LowerTriangular, NonSingular>\n"
        "X := {0}^-1 * {1} * {2}^T\n",
        3,
    ),
    (
        "Matrix {0} (30, 50) <>\n"
        "Matrix {1} (50, 50) <SPD>\n"
        "Matrix {2} (30, 30) <SPD>\n"
        "# the Kalman gain\n"
        "G := {0} * {1} * {0}^T  # innovation\n"
        "K := {1} * {0}^T * inv({0} * {1}^-1 * {0}^T) * trans({2})\n"
        "Y := G * K^T\n",
        3,
    ),
    (
        "Matrix {0} (40, 40) <UpperTriangular, NonSingular>\n"
        "Matrix {1} (40, 25) <>\n"
        "Matrix {2} (25, 40) <>\n"
        "Matrix {3} (40, 40) <Diagonal, NonSingular>\n"
        "X := {0}^-T * {1} * {2} * {3}^-1 * {0}\n",
        4,
    ),
)

CHAIN = TEMPLATES[0][0]

TARGETS = {"X", "G", "K", "Y"}

#: Operand names chosen to trip a text-level renaming: property, keyword
#: and function words, names that prefix one another, names the compiler
#: generates itself, and Python/NumPy identifiers the emitters use.
SPECIAL_NAMES = (
    "SPD", "Matrix", "Vector", "inv", "trans", "A", "AB", "ABC", "T1", "T2",
    "_s1", "np", "lower", "__op0__", "P", "P0", "P10",
)

NAMES = st.one_of(
    st.sampled_from(SPECIAL_NAMES),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True),
).filter(lambda name: name not in TARGETS)

OPTIONS = CompileOptions(emit=("numpy", "julia"))

#: One warm session for the whole module, as a pool worker holds.
SESSION = Compiler()


def render(template: str, names, comments: bool = False) -> str:
    source = template.format(*names)
    if comments:
        lines = source.splitlines()
        source = "# renamed copy\n\n" + "\n".join(
            f"  {line}   # note {index}" for index, line in enumerate(lines)
        ) + "\n"
    return source


def serve(source: str, compiler: Compiler, options: CompileOptions = OPTIONS):
    return execute_request(CompileRequest(source=source, options=options), compiler=compiler)


def comparable(response) -> dict:
    """A response as a dict, without the fields allowed to differ."""
    payload = response.to_dict()
    for key in ("timing", "worker", "request_id"):
        payload.pop(key)
    for assignment in payload["assignments"]:
        assignment.pop("generation_time_s")
    return payload


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(
    template=st.sampled_from(TEMPLATES),
    names=st.lists(NAMES, min_size=4, max_size=4, unique=True),
    reverse=st.booleans(),
    comments=st.booleans(),
)
def test_hit_equals_fresh_caches_off_compile(template, names, reverse, comments):
    text, slots = template
    names = sorted(names, reverse=True) if reverse else names
    names = names[:slots]
    source = render(text, names, comments)
    # Warm the session's program cache under other names, then ask again.
    warm = serve(render(text, [f"W{i}" for i in range(slots)]), SESSION)
    assert warm.ok, warm.error
    hits = SESSION.program_cache.hits
    response = serve(source, SESSION)
    SESSION.clear_name_memos()
    if abstract_operand_names(source) is not None:
        assert SESSION.program_cache.hits == hits + 1
    fresh = serve(source, Compiler(), OPTIONS.replace(plan_cache=False))
    assert comparable(response) == comparable(fresh)
    # A miss on a cold session is the same substitution of the same entry.
    assert comparable(serve(source, Compiler())) == comparable(fresh)


# ---------------------------------------------------------------------------
# The name-abstracted key
# ---------------------------------------------------------------------------

class TestAbstractOperandNames:
    def test_names_become_declaration_positions(self):
        canonical, names = abstract_operand_names(render(CHAIN, ["B", "A", "C"]))
        assert names == ("B", "A", "C")
        assert "X := __op0__ ^-1 * __op1__ * __op2__ ^T" in canonical

    def test_whitespace_and_comments_do_not_change_the_key(self):
        plain = render(TEMPLATES[1][0], ["H", "P", "R"])
        noisy = render(TEMPLATES[1][0], ["Q", "S", "U"], comments=True)
        assert abstract_operand_names(plain)[0] == abstract_operand_names(noisy)[0]

    def test_property_words_are_not_renamed(self):
        # An operand named SPD must not make "<SPD>" match "<Q>".
        spd = abstract_operand_names("Matrix SPD (5, 5) <SPD>\nX := SPD * SPD\n")
        other = abstract_operand_names("Matrix Q (5, 5) <Q>\nX := Q * Q\n")
        assert spd[0] != other[0]
        assert "<SPD>" in spd[0].replace(" ", "")

    def test_function_spellings_stay_verbatim(self):
        canonical, _ = abstract_operand_names(
            "Matrix inv (5, 5) <SPD>\nX := inv(inv) * inv\n"
        )
        assert "X := inv ( __op0__ ) * __op0__" in canonical

    @pytest.mark.parametrize(
        "source",
        [
            "Matrix A (5, 5) <>\nX := A = A\n",  # a character the DSL rejects
            "Matrix __op1__ (5, 5) <>\nX := __op1__\n",  # placeholder-shaped
            "Matrix A (5, 5) <>\nA := A * A\n",  # assigns to an operand
            "Matrix T3 (5, 5) <>\nX := T3 * T3\n",  # a generated name
            "Matrix _s2 (5, 5) <>\nX := _s2 * _s2\n",
        ],
    )
    def test_unsafe_programs_are_not_abstracted(self, source):
        assert abstract_operand_names(source) is None


# ---------------------------------------------------------------------------
# Cache rules
# ---------------------------------------------------------------------------


def test_errors_name_the_request_operands_and_are_not_stored():
    session = Compiler()
    response = serve(
        "Matrix Left (10, 10) <>\nMatrix Right (20, 20) <>\nX := Left * Right\n",
        session,
    )
    assert not response.ok
    assert "Left" in response.error and "__op" not in response.error
    assert len(session.program_cache) == 0


@pytest.mark.parametrize(
    "options",
    [
        CompileOptions(plan_cache=False),
        CompileOptions(trace=True),
        CompileOptions(profile=True),
    ],
    ids=["plan_cache_off", "trace", "profile"],
)
def test_diagnostic_and_uncached_requests_bypass(options):
    session = Compiler()
    for tag in ("a", "b"):
        response = serve(render(CHAIN, [f"{tag}{i}" for i in range(3)]), session, options)
        assert response.ok
    stats = session.program_cache.stats()
    assert (stats["hits"], stats["misses"], stats["size"]) == (0, 0, 0)
    assert stats["bypasses"] == 2


def test_emit_targets_and_options_key_separate_entries():
    session = Compiler()
    for options in (
        CompileOptions(),
        CompileOptions(emit=("numpy",)),
        CompileOptions(solver="topdown"),
    ):
        assert serve(render(CHAIN, ["A", "B", "C"]), session, options).ok
    assert session.program_cache.misses == 3 and len(session.program_cache) == 3


def test_plan_cache_flush_flushes_programs():
    session = Compiler()
    source = render(CHAIN, ["A", "B", "C"])
    serve(source, session)
    session.plan_cache.clear()  # what a catalog or registry change does
    serve(source, session)
    assert session.program_cache.hits == 0 and session.program_cache.misses == 2


def test_lru_bound(monkeypatch):
    monkeypatch.setattr(program_cache, "MAX_PROGRAMS", 2)
    cache = ProgramCache(Compiler().plan_cache)
    for key in "abc":
        cache.store(key, key)
    assert cache.lookup("a") is None and cache.lookup("c") == "c"
    assert cache.evictions == 1 and len(cache) == 2


def test_hit_responses_do_not_share_state_with_the_entry():
    session = Compiler()
    first = serve(render(CHAIN, ["A", "B", "C"]), session)
    first.assignments[0].kernels.append("MUTATED")
    second = serve(render(CHAIN, ["D", "E", "F"]), session)
    assert "MUTATED" not in second.assignments[0].kernels


# ---------------------------------------------------------------------------
# Deterministic temporaries in emitted code
# ---------------------------------------------------------------------------

def _assigned_names(code: str):
    """Variables the emitted function body assigns (inlined helpers skipped)."""
    body = code[code.rindex("def compute_"):]
    return re.findall(r"^    (\w+) = ", body, flags=re.MULTILINE)


def test_temporaries_are_numbered_per_program():
    source = render(TEMPLATES[2][0], ["U", "B", "C", "D"])
    first = Compiler().compile(source).assignment("X")
    next(Temporary._counter)  # the global counter moves between compiles
    for _ in range(5):
        Temporary(3, 3)
    second = Compiler().compile(source).assignment("X")
    assert first.numpy() == second.numpy() and first.julia() == second.julia()
    calls = len(first.program.calls)
    assert _assigned_names(first.numpy()) == [f"T{i}" for i in range(1, calls + 1)]


def test_temporary_numbering_skips_operand_names():
    # T1 and T2 would collide with the operands, so the calls write T3, T4, ...
    source = (
        "Matrix T1 (30, 30) <SPD>\nMatrix T2 (30, 20) <>\nMatrix C (20, 20) <>\n"
        "X := T1^-1 * T2 * C\n"
    )
    compiled = Compiler().compile(source).assignment("X")
    assigned = _assigned_names(compiled.numpy())
    assert assigned and not {"T1", "T2"} & set(assigned)
    assert assigned == [f"T{i}" for i in range(3, 3 + len(assigned))]


# ---------------------------------------------------------------------------
# Well-conditioned triangular operands
# ---------------------------------------------------------------------------

def _chain_source(problem) -> str:
    lines, seen = [], set()
    for operand in problem.operands:
        if operand.name not in seen:
            seen.add(operand.name)
            properties = ", ".join(sorted(p.value for p in operand.properties))
            lines.append(
                f"Matrix {operand.name} ({operand.rows}, {operand.columns}) <{properties}>"
            )
    lines.append(f"X := {problem.expression}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["generalized_eigenproblem", "triangular_inversion"])
def test_triangular_programs_validate_at_default_tolerances(name):
    source = _chain_source(named_examples()[name])
    session = Compiler()
    failures = []
    for seed in range(200):
        response = run_execute_request(
            ExecuteRequest(compile=CompileRequest(source=source), seed=seed),
            compiler=session,
        )
        if not (response.ok and response.validated):
            failures.append((seed, response.max_rel_error, response.error))
    assert failures == []
