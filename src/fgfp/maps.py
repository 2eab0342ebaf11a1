"""Arithmetic map parsing and evaluation.

A map takes two vector arguments.  Variables ``a1..aM`` read coordinates
of the first argument and ``b1..bN`` coordinates of the second; the
grammar allows real literals, ``+ - * /``, unary minus, parentheses and
the functions ``abs(x)``, ``min(x, y, ...)``, ``max(x, y, ...)``.  A map
with several output coordinates is written as semicolon-separated
expressions, one per coordinate:

    "(a1 - b1)/3"            one output from two 1-d arguments
    "a1 + b2; a2 - b1"       two outputs from 2-d arguments

``parse_map`` parses each expression once, straight to a postfix list of
literals, variables and operators, and generates from those lists two
evaluation modes of straight-line Python; each is compiled on its first
use:

* the scalar mode runs on tuples of floats.  ``eval_map``, the coupled
  step behind ``iterate_pair`` and the solver evaluate single points with
  it;
* the vector mode runs on ``(n, dim)`` numpy columns.  The audit
  evaluates its sample blocks with it through ``_images``, which keeps
  non-finite images; ``eval_map_batch`` adds the finiteness check.

Both modes apply the same IEEE operations in the same order, so they
agree bit for bit; ``min`` and ``max`` follow ``np.minimum`` and
``np.maximum`` (NaN propagates, ties give the second operand).  Where
Python raises ZeroDivisionError and IEEE gives inf or nan, the scalar
mode re-evaluates that one point in the vector mode.  A non-finite
output of ``eval_map`` or ``eval_map_batch`` raises EvaluationError.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, EvaluationError, ExpressionError
from .spaces import Point

_FUNCTIONS = ("abs", "min", "max")
_VAR_RE = re.compile(r"^([ab])([1-9][0-9]*)$")

_TOKEN_RE = re.compile(
    r"""
      (?P<NUM>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
    | (?P<NAME>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<OP>[+\-*/])
    | (?P<LPAREN>\()
    | (?P<RPAREN>\))
    | (?P<COMMA>,)
    | (?P<SEMI>;)
    | (?P<WS>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "WS":
            tokens.append(Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(Token("END", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser with the usual precedence (+- < */ < unary).

    It appends each expression's items to ``out`` in postfix order:
    literals as floats, variables as ``(group, index)`` tuples and
    operators as their ``_ARITY`` names.
    """

    # Deepest nesting of parentheses, calls and unary signs.  Each level
    # takes up to five Python frames, so this stays far below the
    # interpreter's recursion limit.
    MAX_DEPTH = 100

    def __init__(self, tokens: list[Token], first_arg_dim: int, second_arg_dim: int):
        self.tokens = tokens
        self.i = 0
        self.adim = first_arg_dim
        self.bdim = second_arg_dim
        self.depth = 0
        self.out: list = []

    def nest(self, tok: Token) -> None:
        """Enter one nesting level opened by ``tok``."""
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise ExpressionError(
                f"expression nested deeper than {self.MAX_DEPTH} levels", tok.pos)

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExpressionError(f"expected {what}, found {tok.text!r}" if tok.text
                                  else f"expected {what}, found end of input", tok.pos)
        return self.advance()

    def parse_list(self) -> list[list]:
        """The postfix items of each semicolon-separated expression."""
        postfixes = []
        while True:
            self.out = []
            self.expr()
            postfixes.append(self.out)
            if self.peek().kind != "SEMI":
                break
            self.advance()
        tok = self.peek()
        if tok.kind != "END":
            raise ExpressionError(f"unexpected {tok.text!r} after expression", tok.pos)
        return postfixes

    def expr(self) -> None:
        self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            self.term()
            self.out.append(op)

    def term(self) -> None:
        self.unary()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op_tok = self.advance()
            start = len(self.out)
            self.unary()
            # a divisor that is a zero literal under unary signs only
            if op_tok.text == "/" and self.out[start] == 0.0 and all(
                    item == "neg" for item in self.out[start + 1:]):
                raise ExpressionError("division by literal zero", op_tok.pos)
            self.out.append(op_tok.text)

    def unary(self) -> None:
        tok = self.peek()
        if tok.kind == "OP" and tok.text in "+-":
            self.advance()
            self.nest(tok)
            self.unary()
            self.depth -= 1
            if tok.text == "-":
                self.out.append("neg")
        else:
            self.primary()

    def primary(self) -> None:
        tok = self.peek()
        if tok.kind == "NUM":
            self.advance()
            self.out.append(float(tok.text))
        elif tok.kind == "NAME":
            self.advance()
            if self.peek().kind == "LPAREN":
                self.call(tok)
            else:
                self.variable(tok)
        elif tok.kind == "LPAREN":
            self.advance()
            self.nest(tok)
            self.expr()
            self.expect("RPAREN", "')'")
            self.depth -= 1
        else:
            raise ExpressionError(
                f"expected expression, found {tok.text!r}" if tok.text
                else "expected expression, found end of input", tok.pos)

    def call(self, name_tok: Token) -> None:
        name = name_tok.text
        if name not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}", name_tok.pos)
        self.nest(self.expect("LPAREN", "'('"))
        self.expr()
        args = 1
        while self.peek().kind == "COMMA":
            self.advance()
            self.expr()
            self.out.append(name)  # min/max fold left: x0 x1 min x2 min ...; abs fails below
            args += 1
        self.expect("RPAREN", "')'")
        self.depth -= 1
        if name == "abs":
            if args != 1:
                raise ExpressionError("abs takes exactly one argument", name_tok.pos)
            self.out.append(name)
        elif args < 2:
            raise ExpressionError(f"{name} takes at least two arguments", name_tok.pos)

    def variable(self, tok: Token) -> None:
        m = _VAR_RE.match(tok.text)
        if m is None:
            raise ExpressionError(
                f"unknown name {tok.text!r} (variables are a1..a{self.adim}, "
                f"b1..b{self.bdim})", tok.pos)
        group, idx = m.group(1), int(m.group(2))
        limit = self.adim if group == "a" else self.bdim
        if idx > limit:
            raise ExpressionError(
                f"variable {tok.text!r} exceeds the {group!r}-argument dimension {limit}",
                tok.pos)
        self.out.append((group, idx))


# ---------------------------------------------------------------------------
# Compilation: the parser's postfix items become straight-line Python in
# two modes.  The scalar mode runs on tuples of floats, the vector mode on
# (n, dim) numpy columns; both apply the same IEEE operations in the same
# order, so they agree bit for bit.
#
# One pass over the items names each temporary after its stack depth
# (s0, s1, ...), so a slot is overwritten when the stack would pop it: no
# nested parentheses (Python rejects deep nesting) and no name per
# operation (which would keep every batch temporary alive).  Literals and
# variables are inlined as operands.

_ARITY = {"+": 2, "-": 2, "*": 2, "/": 2, "neg": 1, "abs": 1, "min": 2, "max": 2}

_TEMPLATES = {"+": "{0} + {1}", "-": "{0} - {1}", "*": "{0} * {1}",
              "/": "{0} / {1}", "neg": "-{0}", "abs": "abs({0})"}
# min/max return the second operand on ties and the first NaN operand, as
# np.minimum/np.maximum do; operands are always names or literals
_SCALAR_TEMPLATES = {**_TEMPLATES,
                     "min": "{0} if {0} < {1} or {0} != {0} else {1}",
                     "max": "{0} if {0} > {1} or {0} != {0} else {1}"}
_VECTOR_TEMPLATES = {**_TEMPLATES,
                     "min": "_minimum({0}, {1})", "max": "_maximum({0}, {1})"}


def _straight_line(postfix: list, templates: dict, const) -> tuple[list[str], str]:
    """Assignments evaluating a postfix sequence, and the name or literal
    holding its value."""
    lines: list[str] = []
    stack: list[str] = []
    for item in postfix:
        if isinstance(item, str):  # an operator
            depth = len(stack) - _ARITY[item]
            operands = stack[depth:]
            del stack[depth:]
            lines.append(f"s{depth} = " + templates[item].format(*operands))
            stack.append(f"s{depth}")
        elif isinstance(item, tuple):  # a variable
            stack.append(f"{item[0]}{item[1]}")
        else:  # a literal
            stack.append(const(item))
    return lines, stack[0]


def _literal(v: float) -> str:
    """Source text for a float: its repr, or ``_inf``/``-_inf``.  Parser
    literals are never negative (1e999 parses to inf); the solver's step
    checks also write box bounds, which may be -inf."""
    if math.isfinite(v):
        return repr(v)
    return "-_inf" if v < 0 else "_inf"


def _generate(postfixes: list[list]) -> tuple[str, str]:
    """Sources of ``scalar(a, b)`` and ``vector(A, B, out)`` for one map.

    ``scalar`` returns the output tuple, or None if a coordinate is not
    finite; it raises ZeroDivisionError where IEEE division gives inf or
    nan.  ``vector`` writes column j of ``out`` for expression j.
    """
    used = sorted({item for p in postfixes for item in p if isinstance(item, tuple)})
    consts: dict[float, str] = {}

    def vector_const(v: float) -> str:
        # numpy scalars, so that constant-only subexpressions divide by
        # zero the IEEE way instead of raising
        return consts.setdefault(v, f"k{len(consts)}")

    scalar = ["def scalar(a, b):"]
    scalar += [f"    {g}{i} = {g}[{i - 1}]" for g, i in used]
    vector = ["def vector(A, B, out):"]
    vector += [f"    {g}{i} = {g.upper()}[:, {i - 1}]" for g, i in used]
    results = []
    for j, postfix in enumerate(postfixes):
        lines, value = _straight_line(postfix, _SCALAR_TEMPLATES, _literal)
        scalar += [f"    {line}" for line in lines] + [f"    r{j} = {value}"]
        lines, value = _straight_line(postfix, _VECTOR_TEMPLATES, vector_const)
        vector += [f"    {line}" for line in lines] + [f"    out[:, {j}] = {value}"]
        results.append(f"r{j}")
    finite = " and ".join(f"_isfinite({r})" for r in results)
    scalar += [f"    return ({', '.join(results)},) if {finite} else None"]
    header = [f"k{i} = _f64({_literal(v)})" for i, v in enumerate(consts)]
    return "\n".join(scalar) + "\n", "\n".join(header + vector) + "\n"


_CODEGEN_GLOBALS = {"_inf": math.inf, "_isfinite": math.isfinite, "_f64": np.float64,
                    "_minimum": np.minimum, "_maximum": np.maximum}


@functools.lru_cache(maxsize=512)
def _compile_mode(source: str, name: str) -> Callable:
    """Compile one generated mode, or the solver's step checks.  Python's
    compile() costs far more than parsing, so it runs on a mode's first use
    and once per distinct source."""
    namespace = dict(_CODEGEN_GLOBALS)
    exec(compile(source, f"<fgfp map, {name} mode>", "exec"), namespace)
    return namespace[name]


# ---------------------------------------------------------------------------
# MapSpec and evaluation

@dataclass(frozen=True, eq=False)
class MapSpec:
    """A validated map from two vector arguments to one vector, with the
    generated source of its scalar and vector evaluation modes."""

    text: str
    first_arg_dim: int
    second_arg_dim: int
    out_dim: int
    scalar_source: str = field(repr=False)
    vector_source: str = field(repr=False)

    @functools.cached_property
    def scalar(self) -> Callable:
        return _compile_mode(self.scalar_source, "scalar")

    @functools.cached_property
    def vector(self) -> Callable:
        return _compile_mode(self.vector_source, "vector")


def parse_map(text: str, first_arg_dim: int, second_arg_dim: int, out_dim: int) -> MapSpec:
    """Parse semicolon-separated expressions into a MapSpec.

    Raises ExpressionError (with character position) on syntax errors,
    unknown variables, or an expression count differing from out_dim.
    """
    for name, value in (("first_arg_dim", first_arg_dim),
                        ("second_arg_dim", second_arg_dim),
                        ("out_dim", out_dim)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer")
    postfixes = _Parser(_tokenize(text), first_arg_dim, second_arg_dim).parse_list()
    if len(postfixes) != out_dim:
        raise ExpressionError(
            f"expected {out_dim} expression(s) separated by ';', got {len(postfixes)}")
    return MapSpec(text, first_arg_dim, second_arg_dim, out_dim, *_generate(postfixes))


_eval_rows = 0


def evaluation_count() -> int:
    """Total sample rows evaluated so far (a deterministic work measure)."""
    return _eval_rows


def _images(m: MapSpec, A, B) -> np.ndarray:
    """``eval_map_batch`` without its finiteness check, counting the rows:
    an image is inf or nan where IEEE arithmetic gives it."""
    global _eval_rows
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.ndim != 2 or B.ndim != 2 or A.shape[0] != B.shape[0]:
        raise DimensionMismatch("argument batches must be 2-d with matching row counts")
    if A.shape[1] != m.first_arg_dim or B.shape[1] != m.second_arg_dim:
        raise DimensionMismatch(
            f"map expects argument dims ({m.first_arg_dim}, {m.second_arg_dim}), "
            f"got ({A.shape[1]}, {B.shape[1]})")
    out = np.empty((A.shape[0], m.out_dim), dtype=np.float64, order="F")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m.vector(A, B, out)
    _eval_rows += A.shape[0]
    return out


def _finite(out: np.ndarray, A, B, single: bool) -> np.ndarray:
    """``out``, the images of A and B, if they are finite.  The
    EvaluationError for a non-finite one names its sample row, or only the
    inputs when the batch is a ``single`` point."""
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        where = "a={}, b={}".format(*(np.asarray(V, dtype=np.float64)[i].tolist() for V in (A, B)))
        raise EvaluationError(f"non-finite value in output coordinate {j + 1} at "
                              + (where if single else f"sample {i} (inputs {where})"))
    return out


def eval_map_batch(m: MapSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Evaluate the map over batches: A is (n, first_arg_dim), B is (n, second_arg_dim).

    Takes batches of any memory layout and returns (n, out_dim) in
    column-major order, as the vector mode writes one column per output
    coordinate.  Raises EvaluationError if any output is non-finite
    (runtime division by zero shows up here as inf/nan).
    """
    return _finite(_images(m, A, B), A, B, single=False)


def _eval_coords(m: MapSpec, a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Scalar-mode evaluation at one pair of coordinate tuples (no checks)."""
    global _eval_rows
    try:
        out = m.scalar(a, b)
    except ZeroDivisionError:
        out = None
    if out is None:
        # inf/nan on the way or at the end: one vector-mode row gives the
        # IEEE result (min(1/0, 5) is 5) or the EvaluationError, and counts it
        row = _finite(_images(m, [a], [b]), [a], [b], single=True)
        return tuple(row[0].tolist())
    _eval_rows += 1
    return out


def eval_map(m: MapSpec, a: Point, b: Point) -> Point:
    """Evaluate the map at a single pair of points."""
    if a.dim != m.first_arg_dim or b.dim != m.second_arg_dim:
        raise DimensionMismatch(
            f"map expects argument dims ({m.first_arg_dim}, {m.second_arg_dim}), "
            f"got ({a.dim}, {b.dim})")
    return Point(_eval_coords(m, a.coords, b.coords))


def coupled_step(F: MapSpec, G: MapSpec, x: tuple[float, ...],
                 y: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """One step x <- F(x, y), y <- G(y, x) on coordinate tuples (no checks)."""
    return _eval_coords(F, x, y), _eval_coords(G, y, x)


def iterate_pair(F: MapSpec, G: MapSpec, x: Point, y: Point, n: int) -> tuple[Point, Point]:
    """n-fold coupled iteration of the pair of maps.

    Starting from (x, y), repeats  x <- F(x, y),  y <- G(y, x)  in lockstep
    n times; n = 0 returns (x, y) unchanged.  Nothing in the package calls
    it: it stays as the checked public reference that recomputes orbits
    apart from any solver trace, which the tests of ``uniqueness_probe``'s
    decay checks and acceptance criterion 08 compare against.
    """
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("n must be a nonnegative integer")
    if (F.first_arg_dim != F.out_dim or G.first_arg_dim != G.out_dim
            or F.second_arg_dim != G.out_dim or G.second_arg_dim != F.out_dim):
        raise DimensionMismatch("maps do not close under coupled iteration")
    if x.dim != F.out_dim or y.dim != G.out_dim:
        raise DimensionMismatch("starting pair has wrong dimensions for these maps")
    xc, yc = x.coords, y.coords
    for _ in range(n):
        xc, yc = coupled_step(F, G, xc, yc)
    return Point(xc), Point(yc)
