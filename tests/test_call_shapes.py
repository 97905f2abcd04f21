"""Each entry point has exactly one call shape: options travel in CompileOptions.

The solvers, the frontend helpers, :class:`CompileRequest` and
:func:`execute_request` take their pipeline configuration only as a
:class:`~repro.options.CompileOptions`.  The pre-options spellings
(loose ``metric=``/``prune=``/``catalog=`` keywords, flat wire keys, a
catalog or metrics dict passed to ``execute_request``) are rejected
outright, and the canonical spellings raise no warning.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro import CompileOptions, Compiler, compile_source
from repro.algebra.dsl import parse_program
from repro.core import GMCAlgorithm, TopDownGMC
from repro.cost import FlopCount
from repro.frontend.compiler import compile_program
from repro.kernels import default_catalog
from repro.service.api import CompileRequest, RequestError, execute_request

SOURCE = """
Matrix A (200, 200) <SPD>
Matrix B (200, 100) <>
Matrix C (100, 100) <LowerTriangular, NonSingular>
X := A^-1 * B * C^T
"""

CHAIN = parse_program(SOURCE).expression("X")

#: The pre-options keyword spelling of each solver/frontend option.
LEGACY_KEYWORDS = {
    "metric": "flops",
    "prune": False,
    "catalog": default_catalog(),
}

#: The pre-options flat spelling of each request option, with the nested
#: ``options`` key it became.
FLAT_REQUEST_KEYS = {
    "metric": ("metric", "flops"),
    "solver": ("solver", "topdown"),
    "emit": ("emit", ["julia"]),
    "prune": ("prune", False),
    "use_match_cache": ("match_cache", False),
}


def without_deprecations(func):
    """Run *func*, assert it raised no DeprecationWarning, return its result."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = func()
    deprecations = [
        entry for entry in record if issubclass(entry.category, DeprecationWarning)
    ]
    assert not deprecations, [str(entry.message) for entry in deprecations]
    return result


class TestSolverCallShape:
    @pytest.mark.parametrize("keyword", sorted(LEGACY_KEYWORDS))
    @pytest.mark.parametrize("solver_cls", [GMCAlgorithm, TopDownGMC])
    def test_loose_option_keywords_are_rejected(self, solver_cls, keyword):
        with pytest.raises(TypeError):
            solver_cls(**{keyword: LEGACY_KEYWORDS[keyword]})

    @pytest.mark.parametrize("solver_cls", [GMCAlgorithm, TopDownGMC])
    def test_bare_constructor_does_not_warn(self, solver_cls):
        solver = without_deprecations(solver_cls)
        assert solver.catalog is default_catalog()

    def test_both_solvers_honour_the_same_options(self):
        options = CompileOptions(metric=FlopCount(), prune=False)
        bottom_up = without_deprecations(lambda: GMCAlgorithm(options).solve(CHAIN))
        top_down = without_deprecations(lambda: TopDownGMC(options).solve(CHAIN))
        assert bottom_up.kernel_sequence() == top_down.kernel_sequence()
        assert float(bottom_up.optimal_cost) == float(top_down.optimal_cost)


class TestFrontendCallShape:
    @pytest.mark.parametrize("keyword", ["metric", "catalog"])
    def test_compile_source_rejects_loose_option_keywords(self, keyword):
        with pytest.raises(TypeError):
            compile_source(SOURCE, **{keyword: LEGACY_KEYWORDS[keyword]})

    @pytest.mark.parametrize("keyword", ["metric", "catalog"])
    def test_compile_program_rejects_loose_option_keywords(self, keyword):
        program = parse_program(SOURCE)
        with pytest.raises(TypeError):
            compile_program(program, **{keyword: LEGACY_KEYWORDS[keyword]})

    def test_bare_call_does_not_warn(self):
        result = without_deprecations(lambda: compile_source(SOURCE))
        assert result.assignment("X").kernel_sequence == ["TRMM", "POSV"]

    def test_options_keyword_does_not_warn_and_is_honoured(self):
        result = without_deprecations(
            lambda: compile_source(SOURCE, options=CompileOptions(solver="topdown"))
        )
        assert result.assignment("X").kernel_sequence == ["TRMM", "POSV"]

    def test_one_shot_helpers_match_a_compiler_session(self):
        options = CompileOptions(metric="time")
        session = Compiler(options).compile(SOURCE)
        via_source = compile_source(SOURCE, options=options)
        via_program = compile_program(parse_program(SOURCE), options=options)
        expected = session.assignment("X").kernel_sequence
        assert via_source.assignment("X").kernel_sequence == expected
        assert via_program.assignment("X").kernel_sequence == expected


class TestRequestCallShape:
    @pytest.mark.parametrize("keyword", sorted(FLAT_REQUEST_KEYS))
    def test_constructor_rejects_flat_option_keywords(self, keyword):
        _, value = FLAT_REQUEST_KEYS[keyword]
        with pytest.raises(TypeError):
            CompileRequest(source=SOURCE, **{keyword: value})

    @pytest.mark.parametrize("keyword", sorted(FLAT_REQUEST_KEYS))
    def test_wire_rejects_flat_option_keys(self, keyword):
        _, value = FLAT_REQUEST_KEYS[keyword]
        with pytest.raises(RequestError, match="unknown request fields"):
            CompileRequest.from_dict({"source": SOURCE, keyword: value})

    def test_nested_options_carry_every_former_flat_key(self):
        nested = {name: value for name, value in FLAT_REQUEST_KEYS.values()}
        request = without_deprecations(
            lambda: CompileRequest.from_dict({"source": SOURCE, "options": nested})
        )
        assert request.options == CompileOptions(
            metric="flops",
            solver="topdown",
            emit=("julia",),
            prune=False,
            match_cache=False,
        )
        response = execute_request(request)
        assert response.ok, response.error
        assert response.assignment("X").kernels == ["TRMM", "POSV"]
        assert "julia" in response.assignment("X").code

    def test_roundtrip_emits_nested_options_only(self):
        request = CompileRequest(
            source=SOURCE, options=CompileOptions(metric="flops", solver="topdown")
        )
        payload = json.loads(json.dumps(request.to_dict()))
        assert "options" in payload
        assert not set(FLAT_REQUEST_KEYS) & set(payload)
        assert CompileRequest.from_dict(payload) == request

    def test_new_format_requests_do_not_warn(self):
        without_deprecations(
            lambda: CompileRequest.from_dict(
                {"source": SOURCE, "options": {"solver": "gmc"}}
            )
        )
        without_deprecations(lambda: CompileRequest.from_dict({"source": SOURCE}))
        without_deprecations(lambda: CompileRequest(source=SOURCE))


class TestExecuteRequestCallShape:
    def test_positional_catalog_is_rejected(self):
        with pytest.raises(TypeError):
            execute_request(CompileRequest(source=SOURCE), default_catalog())

    def test_metrics_keyword_is_rejected(self):
        with pytest.raises(TypeError):
            execute_request(CompileRequest(source=SOURCE), metrics={})

    def test_session_keyword_is_the_way_to_share_a_catalog(self):
        compiler = Compiler(CompileOptions(catalog=default_catalog()))
        response = execute_request(CompileRequest(source=SOURCE), compiler=compiler)
        assert response.ok, response.error
        assert response.assignment("X").kernels == ["TRMM", "POSV"]
