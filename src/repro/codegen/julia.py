"""Julia-flavoured code generation.

The paper's reference implementation emits Julia code that calls BLAS and
LAPACK wrappers (Section 4, Table 2).  This generator renders a
:class:`~repro.kernels.kernel.Program` in the same spirit: one in-place
BLAS/LAPACK-style call per kernel, wrapped in a function over the input
operands.  The exact Julia syntax of operand set-up is not reproduced (this
repository executes programs with the NumPy runtime instead); the generated
text is meant to be read, compared against Table 2, and embedded in reports.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, List, Tuple

from ..algebra.expression import Matrix, Temporary
from ..kernels.kernel import KernelCall, Program

_TEMPORARY = re.compile(r"T\d+")
_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def _input_operands(program: Program) -> List[Matrix]:
    """The distinct leaf operands consumed by the program, in first-use order."""
    seen = {}
    produced = {call.output.name for call in program.calls}
    for call in program.calls:
        for expr in call.substitution.values():
            for leaf in expr.leaves():
                if isinstance(leaf, Matrix) and leaf.name not in produced:
                    seen.setdefault(leaf.name, leaf)
    return list(seen.values())


def temporary_renaming(program: Program) -> Callable[[str], str]:
    """A renaming of *program*'s temporaries to ``T1..Tk``, in definition order.

    Temporaries take their names from a process-global counter, so without
    the renaming one plan would render differently depending on what the
    process compiled before it.  Names the program's operands already use
    are skipped.  The returned function applies the renaming to any text
    (a name, a rendered expression).
    """
    generated = [
        call.output.name
        for call in program.calls
        if isinstance(call.output, Temporary) and _TEMPORARY.fullmatch(call.output.name)
    ]
    taken = set()
    leaves = [expr for call in program.calls for expr in call.substitution.values()]
    if program.expression is not None:
        leaves.append(program.expression)
    for expr in leaves:
        taken.update(leaf.name for leaf in expr.leaves() if isinstance(leaf, Matrix))
    taken.difference_update(generated)
    numbers = itertools.count(1)
    mapping = {}
    for name in generated:
        if name not in mapping:
            renamed = f"T{next(numbers)}"
            while renamed in taken:
                renamed = f"T{next(numbers)}"
            mapping[name] = renamed
    return lambda text: _IDENTIFIER.sub(
        lambda match: mapping.get(match.group(), match.group()), text
    )


def render_call(
    call: KernelCall, template: Callable[..., str], rename: Callable[[str], str]
) -> Tuple[str, str]:
    """One kernel call rendered through *template* (a kernel's
    ``julia_call``/``numpy_call``) under *rename*: the statement and its
    ``  # out := expression`` comment (empty without an expression)."""
    output = rename(call.output.name)
    names = {wildcard: rename(name) for wildcard, name in call.operand_names.items()}
    comment = (
        f"  # {output} := {rename(str(call.expression))}" if call.expression else ""
    )
    return template(names, output), comment


def generate_julia(program: Program, function_name: str = "compute") -> str:
    """Render a program as a Julia-like function."""
    operands = _input_operands(program)
    arguments = ", ".join(operand.name for operand in operands)
    rename = temporary_renaming(program)
    lines: List[str] = []
    lines.append(f"function {function_name}({arguments})")
    if program.expression is not None:
        lines.append(f"    # computes {program.expression}")
    for call in program.calls:
        statement, comment = render_call(call, call.kernel.julia_call, rename)
        lines.append(f"    {statement}{comment}")
    if program.output is not None:
        lines.append(f"    return {rename(program.output.name)}")
    lines.append("end")
    return "\n".join(lines)


def julia_call_sequence(program: Program) -> List[str]:
    """Just the kernel call strings, one per program step (Table 2 style)."""
    return [call.julia() for call in program.calls]
