"""NumPy code generation.

Renders a :class:`~repro.kernels.kernel.Program` as executable Python source
built on NumPy/SciPy.  The generated function takes the input operands as
keyword arguments and returns the chain result; the helper routines it calls
(``solve_triangular``, ``cholesky_solve``, ...) are **inlined** into the
emitted source (:mod:`repro.codegen.runtime_inline`) -- extracted verbatim
from :mod:`repro.runtime.kernels_numpy`, so generated code and the
interpreter share a single kernel implementation while the generated source
stays standalone (no ``repro`` import required to run it).
"""

from __future__ import annotations

from typing import List

from ..algebra.expression import Matrix
from ..kernels.kernel import Program
from .julia import _input_operands, render_call, temporary_renaming
from .runtime_inline import standalone_preamble


def generate_numpy(program: Program, function_name: str = "compute") -> str:
    """Render a program as a standalone Python function using NumPy/SciPy."""
    operands = _input_operands(program)
    arguments = ", ".join(operand.name for operand in operands)
    rename = temporary_renaming(program)
    rendered = [
        render_call(call, call.kernel.numpy_call, rename) for call in program.calls
    ]
    # Helpers are found from the kernels' templates, not the rendered
    # statements, so an operand named like a helper inlines nothing.
    templates = [call.kernel.numpy_template for call in program.calls]
    lines: List[str] = [standalone_preamble(templates), ""]
    lines.append(f"def {function_name}({arguments}):")
    if program.expression is not None:
        lines.append(f'    """Computes {program.expression}."""')
    if not program.calls:
        output = program.output.name if program.output is not None else arguments
        lines.append(f"    return {output}")
        return "\n".join(lines)
    lines.extend(f"    {statement}{comment}" for statement, comment in rendered)
    if program.output is not None:
        lines.append(f"    return {rename(program.output.name)}")
    return "\n".join(lines)


def numpy_statement_sequence(program: Program) -> List[str]:
    """Just the NumPy statements, one per program step."""
    return [call.numpy() for call in program.calls]
