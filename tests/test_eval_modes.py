"""The scalar and vector evaluation modes must agree bit for bit.

Values are compared by bit pattern, never with ``==``: ``0.0 == -0.0``.
"""

import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fgfp import EvaluationError, ExpressionError, eval_map, eval_map_batch, parse_map, point
from fgfp.maps import evaluation_count


def bits(values) -> tuple[int, ...]:
    return tuple(struct.unpack("<q", struct.pack("<d", float(v)))[0] for v in values)


def vector_row(m, a, b):
    """The vector mode on a one-row batch."""
    return eval_map_batch(m, np.asarray([a], dtype=np.float64),
                          np.asarray([b], dtype=np.float64))[0]


def both_modes(m, a, b):
    """(scalar-mode bits, vector-mode bits) at one point."""
    scalar = eval_map(m, point(*a), point(*b)).coords
    return bits(scalar), tuple(int(v) for v in vector_row(m, a, b).view(np.int64))


EXPRESSIONS = [
    "(a1 - b1)/3",
    "(4*a1 - 3*b1)/17",
    "a1/4 + 1",
    "-b1/3",
    "min(a1, b1) + max(a1, -b1, 0.5)",
    "abs(a1*b1 - a1/(b1 + 100))",
    "2*a1 - -3*b1",
    "0.1",
]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_modes_bitwise_identical(text):
    m = parse_map(text, 1, 1, 1)
    rng = np.random.default_rng(123)
    A = rng.uniform(-50, 50, (512, 1))
    B = rng.uniform(-50, 50, (512, 1))
    batch = eval_map_batch(m, A, B)
    assert batch.dtype == np.float64
    for i in range(A.shape[0]):
        row = eval_map(m, point(A[i, 0]), point(B[i, 0]))
        assert bits(row.coords) == bits(batch[i])


def test_modes_agree_on_failure():
    # the same failure; a single point is named by its inputs alone, a
    # batch row by its sample index too
    m = parse_map("a1/b1", 1, 1, 1)
    with pytest.raises(EvaluationError) as scalar:
        eval_map(m, point(1.0), point(0.0))
    with pytest.raises(EvaluationError) as vector:
        vector_row(m, (1.0,), (0.0,))
    assert str(scalar.value) == "non-finite value in output coordinate 1 at a=[1.0], b=[0.0]"
    assert str(vector.value) == ("non-finite value in output coordinate 1 at sample 0 "
                                 "(inputs a=[1.0], b=[0.0])")


def test_vector_mode_copies_bare_variable_output():
    m = parse_map("a1", 1, 1, 1)
    A = np.array([[1.0], [2.0]])
    B = np.array([[0.0], [0.0]])
    out = eval_map_batch(m, A, B)
    A[0, 0] = 99.0
    assert out[0, 0] == 1.0


def test_batches_of_any_layout_give_the_same_bits_column_major():
    m = parse_map("a1*b2 - a3; min(a2, b1)/3 + a1; abs(a3 - b2)", 3, 2, 3)
    rng = np.random.default_rng(9)
    A = rng.uniform(-5, 5, (40, 3))
    B = rng.uniform(-5, 5, (40, 2))
    wide_A, wide_B = rng.uniform(-5, 5, (80, 7)), rng.uniform(-5, 5, (80, 5))
    wide_A[::2, 1:6:2], wide_B[::2, ::3] = A, B
    layouts = {"C": (A, B), "F": (np.asfortranarray(A), np.asfortranarray(B)),
               "strided": (wide_A[::2, 1:6:2], wide_B[::2, ::3])}
    want = eval_map_batch(m, A, B)
    for name, (a, b) in layouts.items():
        out = eval_map_batch(m, a, b)
        assert out.flags.f_contiguous, name
        assert np.array_equal(out.view(np.int64), want.view(np.int64)), name


@pytest.mark.parametrize("order", ["C", "F"])
def test_the_first_non_finite_output_is_named_in_row_order(order):
    # two rows and two coordinates fail; column-major memory holds (5, 1)
    # first, row order (3, 2)
    m = parse_map("1/a1; 1/a2", 2, 1, 2)
    A = np.array(np.arange(1.0, 17.0).reshape(8, 2), order=order)
    A[5, 0] = A[3, 1] = 0.0
    with pytest.raises(EvaluationError) as err:
        eval_map_batch(m, A, np.zeros((8, 1), order=order))
    assert str(err.value) == ("non-finite value in output coordinate 2 at sample 3 "
                              "(inputs a=[7.0, 0.0], b=[0.0])")


def test_generated_source_is_pinned():
    # every operator, a unary "+", a three-argument min, a constant the
    # vector mode hoists once (k0), an infinite literal, and a2 read
    # before a10 although a10 comes first in the text
    m = parse_map("min(a10, +a2, 0.5) * 3 - abs(b1) / 1e999; max(-a2, a10 + 0.5)", 10, 1, 2)
    assert m.scalar_source == """\
def scalar(a, b):
    a2 = a[1]
    a10 = a[9]
    b1 = b[0]
    s0 = a10 if a10 < a2 or a10 != a10 else a2
    s0 = s0 if s0 < 0.5 or s0 != s0 else 0.5
    s0 = s0 * 3.0
    s1 = abs(b1)
    s1 = s1 / _inf
    s0 = s0 - s1
    r0 = s0
    s0 = -a2
    s1 = a10 + 0.5
    s0 = s0 if s0 > s1 or s0 != s0 else s1
    r1 = s0
    return (r0, r1,) if _isfinite(r0) and _isfinite(r1) else None
"""
    assert m.vector_source == """\
k0 = _f64(0.5)
k1 = _f64(3.0)
k2 = _f64(_inf)
def vector(A, B, out):
    a2 = A[:, 1]
    a10 = A[:, 9]
    b1 = B[:, 0]
    s0 = _minimum(a10, a2)
    s0 = _minimum(s0, k0)
    s0 = s0 * k1
    s1 = abs(b1)
    s1 = s1 / k2
    s0 = s0 - s1
    out[:, 0] = s0
    s0 = -a2
    s1 = a10 + k0
    s0 = _maximum(s0, s1)
    out[:, 1] = s0
"""


# ---------------------------------------------------------------------------
# IEEE corner cases

@pytest.mark.parametrize("text, expected", [
    ("min(a1, -b1)", -0.0),   # ties give the second operand
    ("min(-b1, a1)", 0.0),
    ("max(a1, -b1)", -0.0),
    ("max(-b1, a1)", 0.0),
    ("min(a1, -b1, a1)", 0.0),
])
def test_min_max_ties_return_second_operand(text, expected):
    m = parse_map(text, 1, 1, 1)
    scalar, vector = both_modes(m, (0.0,), (0.0,))
    assert scalar == vector == bits([expected])


@pytest.mark.parametrize("func", ["min", "max"])
def test_min_max_propagate_nan(func):
    nan = "(a1*1e999 - a1*1e999)"  # inf - inf, no division involved
    for text in (f"{func}({nan}, b1)", f"{func}(b1, {nan})", f"{func}(b1, {nan}, b1)"):
        m = parse_map(text, 1, 1, 1)
        assert m.scalar((1.0,), (5.0,)) is None
        with pytest.raises(EvaluationError):
            eval_map(m, point(1.0), point(5.0))
        with pytest.raises(EvaluationError):
            vector_row(m, (1.0,), (5.0,))


def test_scalar_zero_division_falls_back_to_vector_row():
    m = parse_map("min(1/(a1-a1), 5); -a1/b1", 1, 1, 2)
    before = evaluation_count()
    eval_map(m, point(2.0), point(4.0))
    assert evaluation_count() - before == 1  # the row is counted once
    scalar, vector = both_modes(m, (2.0,), (4.0,))
    assert scalar == vector == bits([5.0, -0.5])


def test_infinite_literal_is_inf():
    m = parse_map("min(a1, 1e999); max(-1e999, b1)", 1, 1, 2)
    scalar, vector = both_modes(m, (2.5,), (-0.0,))
    assert scalar == vector == bits([2.5, -0.0])
    overflow = parse_map("a1 + 1e999", 1, 1, 1)
    with pytest.raises(EvaluationError):
        eval_map(overflow, point(1.0), point(1.0))
    with pytest.raises(EvaluationError):
        vector_row(overflow, (1.0,), (1.0,))


def test_long_flat_sum():
    m = parse_map(" + ".join(["a1"] * 900), 1, 1, 1)
    scalar, vector = both_modes(m, (1.0,), (0.0,))
    assert scalar == vector == bits([900.0])


# ---------------------------------------------------------------------------
# property: random expression trees

_leaf = st.one_of(
    st.sampled_from(["0.0", "1.0", "2.5", "1e300", "1e-300", "1e999"]),
    st.floats(min_value=0, max_value=8, allow_nan=False).map(repr),
    st.sampled_from(["a1", "a2", "b1", "b2"]),
)


def _combine(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), children, children).map(
            lambda t: f"({t[1]} {t[0]} {t[2]})"),
        children.map(lambda s: f"-{s}"),
        children.map(lambda s: f"abs({s})"),
        st.tuples(st.sampled_from(["min", "max"]), st.lists(children, min_size=2, max_size=3)).map(
            lambda t: f"{t[0]}({', '.join(t[1])})"),
    )


_coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(text=st.recursive(_leaf, _combine, max_leaves=16),
       a=st.tuples(_coordinate, _coordinate), b=st.tuples(_coordinate, _coordinate))
@settings(max_examples=300, deadline=None)
def test_modes_agree_on_random_trees(text, a, b):
    try:
        m = parse_map(text, 2, 2, 1)
    except ExpressionError:
        assume(False)  # division by a literal zero
    try:
        vector = tuple(int(v) for v in vector_row(m, a, b).view(np.int64))
    except EvaluationError:
        vector = None
    # the raw scalar mode: a value, None for a non-finite value, or
    # ZeroDivisionError where IEEE division gives inf or nan
    try:
        raw = m.scalar(a, b)
    except ZeroDivisionError:
        raw = ZeroDivisionError
    if raw is None:
        assert vector is None
    elif raw is not ZeroDivisionError:
        assert bits(raw) == vector
    try:
        scalar = bits(eval_map(m, point(*a), point(*b)).coords)
    except EvaluationError:
        scalar = None
    assert scalar == vector
