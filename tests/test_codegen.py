"""Tests for the Julia and NumPy code generators (paper Section 3.5, Table 2)."""

import numpy as np

from repro.algebra import Inverse, Matrix, Property, Times, Transpose
from repro.codegen import (
    generate_julia,
    generate_numpy,
    julia_call_sequence,
    numpy_statement_sequence,
)
from repro.core import generate_program
from repro.runtime import instantiate_expression, evaluate


def _table2_program():
    a = Matrix("A", 12, 12, {Property.SPD})
    b = Matrix("B", 12, 9)
    c = Matrix("C", 9, 9, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})
    expr = Times(Inverse(a), b, Transpose(c))
    return expr, generate_program(expr)


class TestJuliaGeneration:
    def test_function_wrapper(self):
        _, program = _table2_program()
        code = generate_julia(program, function_name="solve_chain")
        assert code.startswith("function solve_chain(")
        assert code.rstrip().endswith("end")

    def test_contains_blas_style_calls(self):
        _, program = _table2_program()
        code = generate_julia(program)
        assert "trmm!" in code
        assert "posv!" in code

    def test_call_sequence_matches_program_length(self):
        _, program = _table2_program()
        assert len(julia_call_sequence(program)) == len(program.calls)

    def test_input_operands_appear_in_signature(self):
        _, program = _table2_program()
        header = generate_julia(program).splitlines()[0]
        for name in ("A", "B", "C"):
            assert name in header

    def test_return_statement_references_output(self):
        # Temporaries are numbered per program in definition order, so the
        # second (last) call's output is T2, whatever the global counter.
        _, program = _table2_program()
        code = generate_julia(program)
        assert program.output is program.calls[-1].output
        assert "return T2" in code

    def test_comments_carry_symbolic_expressions(self):
        _, program = _table2_program()
        code = generate_julia(program)
        assert "B * C^T" in code


class TestNumpyGeneration:
    def test_generated_source_is_executable_and_correct(self):
        expr, program = _table2_program()
        source = generate_numpy(program, function_name="compute_chain")
        namespace = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        compute = namespace["compute_chain"]
        env = instantiate_expression(expr, seed=7)
        # Argument order follows first-use order in the program.
        import inspect

        arguments = [env[name] for name in inspect.signature(compute).parameters]
        result = compute(*arguments)
        np.testing.assert_allclose(result, evaluate(expr, env), rtol=1e-8, atol=1e-8)

    def test_statement_sequence_matches_program(self):
        _, program = _table2_program()
        statements = numpy_statement_sequence(program)
        assert len(statements) == len(program.calls)
        assert any("cholesky_solve" in statement for statement in statements)

    def test_docstring_mentions_expression(self):
        expr, program = _table2_program()
        assert str(expr) in generate_numpy(program)

    def test_plain_product_generated_code(self):
        expr = Times(Matrix("A", 6, 5), Matrix("B", 5, 4))
        program = generate_program(expr)
        source = generate_numpy(program)
        assert "A @ B" in source

    def test_transposed_operand_spelled_with_dot_t(self):
        expr = Times(Transpose(Matrix("A", 5, 6)), Matrix("B", 5, 4))
        program = generate_program(expr)
        assert "A.T @ B" in generate_numpy(program)

    def test_generated_functions_for_various_chains_execute(self):
        chains = [
            Times(Matrix("A", 7, 6), Matrix("B", 6, 5), Matrix("C", 5, 4)),
            Times(
                Inverse(Matrix("L", 6, 6, {Property.LOWER_TRIANGULAR, Property.NON_SINGULAR})),
                Matrix("B", 6, 5),
            ),
            Times(Matrix("B", 5, 6), Inverse(Matrix("G", 6, 6, {Property.NON_SINGULAR}))),
        ]
        import inspect

        for expr in chains:
            program = generate_program(expr)
            source = generate_numpy(program, function_name="f")
            namespace = {}
            exec(compile(source, "<generated>", "exec"), namespace)
            env = instantiate_expression(expr, seed=11)
            arguments = [env[name] for name in inspect.signature(namespace["f"]).parameters]
            np.testing.assert_allclose(
                namespace["f"](*arguments), evaluate(expr, env), rtol=1e-7, atol=1e-7
            )
