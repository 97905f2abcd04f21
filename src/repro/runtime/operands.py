"""Random instantiation of operands that honour their declared properties.

The experiments execute generated programs on concrete data; this module
produces NumPy arrays matching a symbolic operand's shape and structural
properties (diagonal, triangular, symmetric, SPD, ...).  Inverted operands
are made safely non-singular by diagonal dominance so that solves and
explicit inversions are well-conditioned.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from ..algebra.expression import Expression, Matrix
from ..algebra.properties import Property


def instantiate_matrix(
    operand: Matrix, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Create a random NumPy array with the operand's shape and properties."""
    rng = rng or np.random.default_rng()
    rows, columns = operand.rows, operand.columns
    properties = operand.properties
    if Property.ZERO in properties:
        return np.zeros((rows, columns))
    if Property.IDENTITY in properties:
        return np.eye(rows)
    base = rng.standard_normal((rows, columns))
    if Property.DIAGONAL in properties:
        diagonal = rng.standard_normal(rows)
        # Keep diagonal entries away from zero so the operand stays invertible.
        diagonal = np.sign(diagonal) * (np.abs(diagonal) + 1.0)
        return np.diag(diagonal)
    if Property.SPD in properties:
        spd = base @ base.T
        return spd + rows * np.eye(rows)
    if Property.SYMMETRIC in properties:
        symmetric = (base + base.T) / 2.0
        return symmetric + rows * np.eye(rows)
    if Property.LOWER_TRIANGULAR in properties or Property.UPPER_TRIANGULAR in properties:
        triangle = (
            np.tril(base) if Property.LOWER_TRIANGULAR in properties else np.triu(base)
        )
        # Diagonal dominance (n + |d| on the diagonal, like the SPD and
        # non-singular branches' ``rows * I``) keeps the condition number
        # bounded; a diagonal of only ``1 + |d|`` lets it grow exponentially
        # with n.
        diagonal = 1.0 if Property.UNIT_DIAGONAL in properties else (
            rows + np.abs(np.diag(triangle))
        )
        np.fill_diagonal(triangle, diagonal)
        return triangle
    if Property.ORTHOGONAL in properties:
        q, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
        return q
    if rows == columns and Property.NON_SINGULAR in properties:
        return base + rows * np.eye(rows)
    return base


def instantiate_operands(
    operands: Iterable[Matrix], rng: Optional[np.random.Generator] = None, seed: Optional[int] = None
) -> Dict[str, np.ndarray]:
    """Instantiate a collection of operands into a name -> array environment."""
    if rng is None:
        rng = np.random.default_rng(seed)
    environment: Dict[str, np.ndarray] = {}
    for operand in operands:
        if operand.name not in environment:
            environment[operand.name] = instantiate_matrix(operand, rng)
    return environment


def chain_operands(expression: Expression) -> Dict[str, Matrix]:
    """Collect the distinct leaf operands of an expression by name."""
    operands: Dict[str, Matrix] = {}
    for leaf in expression.leaves():
        if isinstance(leaf, Matrix) and leaf.name not in operands:
            operands[leaf.name] = leaf
    return operands


def instantiate_expression(
    expression: Expression, seed: Optional[int] = None
) -> Dict[str, np.ndarray]:
    """Instantiate every leaf operand of an expression."""
    rng = np.random.default_rng(seed)
    return instantiate_operands(chain_operands(expression).values(), rng=rng)


def _collect_operands(program) -> Dict[str, Matrix]:
    """Name -> operand for whatever carries operands (see
    :func:`random_environment`)."""
    if isinstance(program, Expression):
        return chain_operands(program)
    declared = getattr(program, "operands", None)
    if isinstance(declared, Mapping):
        return {name: operand for name, operand in declared.items()}
    if isinstance(program, Mapping):
        return dict(program)
    try:
        return {
            operand.name: operand
            for operand in program
            if isinstance(operand, Matrix)
        }
    except TypeError:
        raise TypeError(
            f"cannot collect operands from {program!r}; expected an "
            f"Expression, a parsed/compiled program, a name->Matrix mapping "
            f"or an iterable of Matrix operands"
        ) from None


def random_environment(
    program,
    seed: Optional[int] = 0,
    rng: Optional[np.random.Generator] = None,
    overrides: Optional[Mapping[str, np.ndarray]] = None,
) -> Dict[str, np.ndarray]:
    """Seeded, property-respecting random operand values for *program*.

    The reproducible operand source of the execution tier: ``POST
    /execute`` (without explicit payloads), the CLI's ``--execute``, the
    tests and the benchmarks all draw operands through this helper, so one
    ``seed`` pins the numerics everywhere.

    *program* may be anything that carries operands: a parsed DSL program
    or a :class:`~repro.frontend.compiler.CompilationResult` (their
    ``operands`` mapping), a bare :class:`~repro.algebra.expression.Expression`
    (its leaves), a name -> :class:`Matrix` mapping, or an iterable of
    operands.  Draws happen in sorted-name order from one generator seeded
    with *seed*, so the environment is deterministic regardless of how the
    operands were collected.  *overrides* supplies explicit values for a
    subset of operands (shape-checked against the declaration).
    """
    operands = _collect_operands(program)
    if rng is None:
        rng = np.random.default_rng(seed)
    environment: Dict[str, np.ndarray] = {}
    for name in sorted(operands):
        environment[name] = instantiate_matrix(operands[name], rng)
    for name, value in (overrides or {}).items():
        if name not in operands:
            known = ", ".join(sorted(operands)) or "<none>"
            raise ValueError(
                f"override for undeclared operand {name!r}; declared: {known}"
            )
        array = np.asarray(value, dtype=float)
        operand = operands[name]
        if array.shape != (operand.rows, operand.columns):
            raise ValueError(
                f"operand {name!r}: payload shape {array.shape} does not "
                f"match the declared {operand.rows} x {operand.columns}"
            )
        environment[name] = array
    return environment


def scale_environment(
    environment: Mapping[str, np.ndarray], factor: float
) -> Dict[str, np.ndarray]:
    """Uniformly scale every operand (useful for conditioning experiments)."""
    return {name: value * factor for name, value in environment.items()}
