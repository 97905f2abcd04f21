"""A small textual front-end implementing the grammars of Fig. 1 and Fig. 2.

The paper's compiler (Linnea) accepts two pieces of input: operand
*definitions* (name, size and properties, Fig. 2) and *assignments* whose
right-hand sides are linear-algebra expressions (Fig. 1).  This module
provides an equivalent textual front-end so that examples, tests and the
benchmark harness can state problems the way the paper writes them::

    Matrix A (1000, 1000) <SPD>
    Matrix B (1000, 500) <>
    Matrix C (500, 500) <LowerTriangular>

    X := A^-1 * B * C^T

Grammar (informal)::

    program     ->  (definition | assignment | blank)*
    definition  ->  ("Matrix" | "Vector") NAME "(" INT ["," INT] ")" ["<" properties ">"]
    properties  ->  [NAME ("," NAME)*]
    assignment  ->  NAME ":=" expr
    expr        ->  term ("+" term)*
    term        ->  factor ("*" factor)*
    factor      ->  atom postfix*
    postfix     ->  "^T" | "^-1" | "^-T" | "'"
    atom        ->  NAME | "(" expr ")" | "trans(" expr ")" | "inv(" expr ")"

The parser produces :class:`~repro.algebra.expression.Matrix` leaves and the
operator nodes of :mod:`repro.algebra.operators`; it performs shape checking
through the expression constructors.

**Multi-assignment programs.**  A program may contain several assignments,
and the right-hand side of a later assignment may name an earlier target::

    Matrix Yb (300, 60) <>
    Matrix R (300, 300) <SPD>
    Matrix Xb (400, 60) <>
    Matrix S (60, 60) <SPD>

    W := S * Yb^T * R^-1
    K := Xb * W

Such a use parses to a :class:`~repro.algebra.expression.Reference` leaf
(name + shape of the defining expression); the segment-decomposition layer
(:mod:`repro.core.segments`) later replaces it with the producing segment's
result operand, inferred properties included.  Targets must be defined on an
earlier line than any use (use-before-definition and self-reference are
parse errors), targets may not shadow declared operands, and reassigning a
target makes later references see the latest definition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .expression import Expression, Matrix, Reference, Vector
from .operators import Inverse, InverseTranspose, Plus, Times, Transpose
from .properties import Property, PropertyError, parse_property


class ParseError(ValueError):
    """Raised on any syntax or semantic error in DSL input."""

    def __init__(self, message: str, line: Optional[int] = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_SPEC = [
    ("ASSIGN", r":="),
    ("INVTRANS", r"\^-T"),
    ("INV", r"\^-1"),
    ("TRANS", r"\^T|'"),
    ("NUMBER", r"\d+"),
    ("NAME", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("LANGLE", r"<"),
    ("RANGLE", r">"),
    ("COMMA", r","),
    ("PLUS", r"\+"),
    ("STAR", r"\*"),
    ("SKIP", r"[ \t]+"),
    ("COMMENT", r"#[^\n]*"),
    ("MISMATCH", r"."),
]

_TOKEN_RE = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def tokenize(line: str, line_number: int) -> List[Token]:
    """Tokenize a single DSL line."""
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(line):
        kind = match.lastgroup or "MISMATCH"
        text = match.group()
        if kind in ("SKIP", "COMMENT"):
            continue
        if kind == "MISMATCH":
            raise ParseError(f"unexpected character {text!r}", line_number)
        tokens.append(Token(kind, text, line_number))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@dataclass
class Program:
    """The result of parsing a DSL program."""

    operands: Dict[str, Matrix] = field(default_factory=dict)
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)

    def expression(self, name: Optional[str] = None) -> Expression:
        """Return the right-hand side of an assignment.

        Without a *name*, the single assignment of the program is returned;
        an error is raised when there are zero or multiple assignments.
        """
        if name is None:
            if len(self.assignments) != 1:
                raise ParseError(
                    f"expected exactly one assignment, found {len(self.assignments)}"
                )
            return self.assignments[0][1]
        for target, expr in self.assignments:
            if target == name:
                return expr
        raise KeyError(name)


class _LineParser:
    """Recursive-descent parser over the token list of one expression.

    *targets* maps already-assigned target names to their right-hand sides;
    a ``NAME`` that is not an operand but is a known target parses to a
    :class:`~repro.algebra.expression.Reference` leaf carrying the target's
    shape (multi-assignment programs: later assignments may use earlier
    results).  Targets assigned on *later* lines are unknown here by
    construction, so use-before-definition is a parse error.
    """

    def __init__(
        self,
        tokens: List[Token],
        operands: Dict[str, Matrix],
        line: int,
        targets: Optional[Dict[str, Expression]] = None,
    ) -> None:
        self._tokens = tokens
        self._operands = operands
        self._targets = targets if targets is not None else {}
        self._line = line
        self._position = 0

    # -- token helpers ------------------------------------------------------
    def _peek(self) -> Optional[Token]:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of line", self._line)
        self._position += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(f"expected {kind}, found {token.text!r}", self._line)
        return token

    def at_end(self) -> bool:
        return self._peek() is None

    # -- grammar ------------------------------------------------------------
    def parse_expression(self) -> Expression:
        terms = [self.parse_term()]
        while self._peek() is not None and self._peek().kind == "PLUS":
            self._next()
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        return Plus(*terms)

    def parse_term(self) -> Expression:
        factors = [self.parse_factor()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "STAR":
                self._next()
                factors.append(self.parse_factor())
            elif token is not None and token.kind in ("NAME", "LPAREN"):
                # Implicit multiplication: "A B" or "A(B + C)".
                factors.append(self.parse_factor())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Times(*factors)

    def parse_factor(self) -> Expression:
        expr = self.parse_atom()
        while True:
            token = self._peek()
            if token is None:
                break
            if token.kind == "TRANS":
                self._next()
                expr = Transpose(expr)
            elif token.kind == "INV":
                self._next()
                expr = Inverse(expr)
            elif token.kind == "INVTRANS":
                self._next()
                expr = InverseTranspose(expr)
            else:
                break
        return expr

    def parse_atom(self) -> Expression:
        token = self._next()
        if token.kind == "LPAREN":
            expr = self.parse_expression()
            self._expect("RPAREN")
            return expr
        if token.kind == "NAME":
            lowered = token.text.lower()
            if lowered in ("inv", "trans") and self._peek() is not None and self._peek().kind == "LPAREN":
                self._next()
                inner = self.parse_expression()
                self._expect("RPAREN")
                return Inverse(inner) if lowered == "inv" else Transpose(inner)
            if token.text in self._operands:
                return self._operands[token.text]
            if token.text in self._targets:
                defining = self._targets[token.text]
                return Reference(
                    token.text, defining.rows, defining.columns, origin=defining
                )
            raise ParseError(
                f"undefined operand {token.text!r} (operands must be declared "
                f"and assignment targets defined on an earlier line before "
                f"they can be referenced)",
                self._line,
            )
        raise ParseError(f"unexpected token {token.text!r}", self._line)


def parse_program(source: str) -> Program:
    """Parse a full DSL program (definitions followed by assignments)."""
    program = Program()
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = tokenize(line, line_number)
        if not tokens:
            continue
        head = tokens[0]
        if head.kind == "NAME" and head.text in ("Matrix", "Vector"):
            _parse_definition(tokens, program, line_number)
        else:
            _parse_assignment(tokens, program, line_number)
    return program


#: The stand-in name :func:`abstract_operand_names` gives the i-th declared
#: operand: ``__op<i>__``.
OPERAND_PLACEHOLDER = re.compile(r"__op(\d+)__")

#: Names the compiler generates itself (temporaries, synthetic segments).
#: Which of them a compilation uses depends on the operand names it must
#: avoid, so programs declaring such a name are not abstracted.
_GENERATED_NAME = re.compile(r"T\d+|_s\d+")


def abstract_operand_names(source: str) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """*source* with its declared operands renamed by declaration position.

    Returns ``(canonical, names)``: ``canonical`` is the program's token
    stream, one line per statement, with every operand-naming token of the
    ``i``-th declared operand replaced by ``__op<i>__``
    (:data:`OPERAND_PLACEHOLDER`); ``names`` lists the declared names in
    declaration order.  Two programs with the same canonical text parse to
    the same expressions up to that renaming (or both fail to parse), so
    the canonical text keys name-abstracted caches and parses in their
    place.  Only tokens the parser resolves as operands are replaced: the
    name of a definition, and right-hand-side names other than the
    ``inv(``/``trans(`` function spellings.  Property lists, targets and
    keywords stay verbatim, so an operand named ``SPD`` or ``Matrix``
    cannot alias a property or keyword.

    Returns ``None`` -- the program is not abstracted -- when the text has
    a character the tokenizer rejects, uses a placeholder-shaped name,
    assigns to a declared name, or declares a name the compiler itself
    generates (``T<n>``, ``_s<n>``).
    """
    lines: List[List[Tuple[str, str]]] = []
    for raw_line in source.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        tokens = []
        for match in _TOKEN_RE.finditer(line):
            kind = match.lastgroup
            if kind in ("SKIP", "COMMENT"):
                continue
            text = match.group()
            if kind == "MISMATCH" or (
                kind == "NAME" and OPERAND_PLACEHOLDER.search(text)
            ):
                return None
            tokens.append((kind, text))
        if tokens:
            lines.append(tokens)
    declared: Dict[str, int] = {}
    targets = set()
    for tokens in lines:
        if tokens[0][1] in ("Matrix", "Vector") and tokens[0][0] == "NAME":
            if len(tokens) > 1 and tokens[1][0] == "NAME":
                declared.setdefault(tokens[1][1], len(declared))
        else:
            targets.add(tokens[0][1])
    for name in declared:
        if name in targets or _GENERATED_NAME.fullmatch(name):
            return None
    canonical = []
    for tokens in lines:
        texts = [text for _, text in tokens]
        if tokens[0][1] in ("Matrix", "Vector") and tokens[0][0] == "NAME":
            if len(tokens) > 1 and tokens[1][0] == "NAME":
                texts[1] = f"__op{declared[texts[1]]}__"
        else:
            for index in range(2, len(tokens)):
                kind, text = tokens[index]
                if kind != "NAME" or text not in declared:
                    continue
                if (
                    text.lower() in ("inv", "trans")
                    and index + 1 < len(tokens)
                    and tokens[index + 1][0] == "LPAREN"
                ):
                    continue  # the function spelling, not the operand
                texts[index] = f"__op{declared[text]}__"
        canonical.append(" ".join(texts))
    return "\n".join(canonical) + "\n", tuple(declared)


def parse_expression(source: str, operands: Dict[str, Matrix]) -> Expression:
    """Parse a single expression against an existing operand dictionary."""
    tokens = tokenize(source, 1)
    parser = _LineParser(tokens, operands, 1)
    expr = parser.parse_expression()
    if not parser.at_end():
        raise ParseError("trailing input after expression", 1)
    return expr


def _parse_definition(tokens: List[Token], program: Program, line: int) -> None:
    iterator: Iterator[Token] = iter(tokens)
    kind_token = next(iterator)
    parser = _LineParser(tokens[1:], program.operands, line)
    name = parser._expect("NAME").text
    parser._expect("LPAREN")
    rows = int(parser._expect("NUMBER").text)
    columns: Optional[int] = None
    token = parser._next()
    if token.kind == "COMMA":
        columns = int(parser._expect("NUMBER").text)
        parser._expect("RPAREN")
    elif token.kind != "RPAREN":
        raise ParseError(f"expected ',' or ')', found {token.text!r}", line)
    properties = set()
    if not parser.at_end():
        parser._expect("LANGLE")
        while True:
            token = parser._next()
            if token.kind == "RANGLE":
                break
            if token.kind == "COMMA":
                continue
            if token.kind != "NAME":
                raise ParseError(f"expected property name, found {token.text!r}", line)
            if token.text.lower() in ("general", "none", "full"):
                continue
            try:
                properties.add(parse_property(token.text))
            except PropertyError as exc:
                raise ParseError(str(exc), line) from exc
        if not parser.at_end():
            raise ParseError("trailing input after property list", line)
    if name in program.operands:
        raise ParseError(f"operand {name!r} defined twice", line)
    if kind_token.text == "Vector":
        if columns is not None and columns != 1:
            operand: Matrix = Matrix(name, rows, columns, properties)
        else:
            operand = Vector(name, rows, properties)
    else:
        if columns is None:
            columns = rows
        operand = Matrix(name, rows, columns, properties)
    program.operands[name] = operand


def _parse_assignment(tokens: List[Token], program: Program, line: int) -> None:
    if len(tokens) < 3 or tokens[0].kind != "NAME" or tokens[1].kind != "ASSIGN":
        raise ParseError("expected 'name := expression' or an operand definition", line)
    target = tokens[0].text
    if target in program.operands:
        raise ParseError(
            f"assignment target {target!r} collides with an operand "
            f"definition; assignment results and declared operands share one "
            f"namespace",
            line,
        )
    # Earlier targets are referenceable from this right-hand side (for a
    # reassigned target the *latest* definition wins, matching sequential
    # assignment semantics).  The target itself is deliberately absent while
    # its own right-hand side parses, so self-references are parse errors.
    targets = {name: expr for name, expr in program.assignments}
    parser = _LineParser(tokens[2:], program.operands, line, targets=targets)
    expr = parser.parse_expression()
    if not parser.at_end():
        raise ParseError("trailing input after expression", line)
    program.assignments.append((target, expr))
