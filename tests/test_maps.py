import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfp import (DimensionMismatch, EvaluationError, ExpressionError, Point,
                  eval_map, eval_map_batch, iterate_pair, parse_map, point)
from fgfp.maps import _Parser

EX1_F = parse_map("(a1 - b1)/3", 1, 1, 1)
EX1_G = parse_map("(a1 - b1)/5", 1, 1, 1)


def as_point(arr) -> Point:
    return Point(tuple(float(v) for v in arr))


# ---------------------------------------------------------------------------
# parsing

def test_parse_identity():
    m = parse_map("a1", 1, 1, 1)
    assert eval_map(m, point(3.5), point(-1.0)) == point(3.5)


def test_parse_reference_averaging_map():
    assert eval_map(EX1_F, point(-1.0), point(1.0)) == point(-2.0 / 3.0)


def test_parse_linear_pair_map():
    m = parse_map("(4*a1 - 3*b1)/17", 1, 1, 1)
    out = eval_map(m, point(-1.0), point(1.0))
    assert abs(out[0] - (-7.0 / 17.0)) < 1e-15


def test_affine_shift_fixed_point_value():
    m = parse_map("a1/4 + 1", 1, 1, 1)
    out = eval_map(m, point(4.0 / 3.0), point(9.9))
    assert abs(out[0] - 4.0 / 3.0) < 1e-15


def test_corpus_maps_fix_their_declared_points(corpus):
    for entry in corpus.values():
        fx, fy = entry.problem.declared_fixed_point
        assert eval_map(entry.problem.F, fx, fy) == fx
        assert eval_map(entry.problem.G, fy, fx) == fy


def test_multi_output_semicolon_list():
    m = parse_map("a1 + b2; a2 - b1", 2, 2, 2)
    out = eval_map(m, point(1.0, 2.0), point(10.0, 20.0))
    assert out == point(21.0, -8.0)


def test_functions_abs_min_max():
    m = parse_map("min(a1, b1) + max(a1, b1, 0) - abs(a1)", 1, 1, 1)
    out = eval_map(m, point(-2.0), point(3.0))
    assert out[0] == -2.0 + 3.0 - 2.0


# ---------------------------------------------------------------------------
# errors

def test_syntax_error_carries_position():
    with pytest.raises(ExpressionError) as err:
        parse_map("a1 +", 1, 1, 1)
    assert err.value.position == 4


def test_unexpected_character_position():
    with pytest.raises(ExpressionError) as err:
        parse_map("a1 @ b1", 1, 1, 1)
    assert err.value.position == 3


@pytest.mark.parametrize("text, message, position", [
    ("foo(a1)", "unknown function 'foo'", 0),
    ("abs(a1, b1)", "abs takes exactly one argument", 0),
    ("max(a1)", "max takes at least two arguments", 0),
    ("a1 b1", "unexpected 'b1' after expression", 3),
    ("(a1", "expected ')', found end of input", 3),
])
def test_parser_rejections_name_the_token(text, message, position):
    with pytest.raises(ExpressionError) as err:
        parse_map(text, 1, 1, 1)
    assert err.value.position == position
    assert str(err.value) == f"{message} (at position {position})"


def test_unknown_variable_rejected():
    with pytest.raises(ExpressionError):
        parse_map("c1", 1, 1, 1)
    with pytest.raises(ExpressionError):
        parse_map("a3", 2, 1, 1)  # index beyond first-argument dimension
    with pytest.raises(ExpressionError):
        parse_map("a0", 1, 1, 1)  # indices are 1-based


def test_expression_count_must_match_out_dim():
    with pytest.raises(ExpressionError):
        parse_map("a1; a2", 2, 1, 1)
    with pytest.raises(ExpressionError):
        parse_map("a1", 1, 1, 2)


LIMIT = _Parser.MAX_DEPTH


# opener, closer, levels per opener (each sign, parenthesis and call is
# one), offset in the opener of the token that goes one level too deep
@pytest.mark.parametrize("open_, close, levels, offset", [
    ("(", ")", 1, 0), ("-", "", 1, 0), ("+", "", 1, 0), ("abs(", ")", 1, 3),
    ("max(b1, ", ")", 1, 3), ("-(", ")", 2, 0)])
def test_nesting_limit(open_, close, levels, offset):
    n = LIMIT // levels
    m = parse_map(open_ * n + "a1" + close * n, 1, 1, 1)
    assert abs(eval_map(m, point(0.5), point(-1.0))[0]) == 0.5
    with pytest.raises(ExpressionError, match="nested deeper than") as err:
        parse_map(open_ * (n + 1) + "a1" + close * (n + 1), 1, 1, 1)
    assert err.value.position == len(open_) * n + offset


@pytest.mark.parametrize("text", ["(" * 3000 + "a1" + ")" * 3000, "-" * 3000 + "a1",
                                  "abs(" * 2000 + "a1" + ")" * 2000])
def test_deep_nesting_is_an_expression_error(text):
    with pytest.raises(ExpressionError):
        parse_map(text, 1, 1, 1)


def test_long_flat_sums_are_not_nesting():
    m = parse_map(" + ".join(["(a1)"] * 3 * LIMIT), 1, 1, 1)
    assert eval_map(m, point(1.0), point(0.0)) == point(3.0 * LIMIT)


def test_repr_of_a_long_flat_sum_returns():
    # a MapSpec keeps only its text and generated code, so its repr takes
    # no frame per term of a long "+" chain
    m = parse_map("+".join(["a1"] * 2000), 1, 1, 1)
    assert repr(m).startswith("MapSpec(text='a1+a1+")
    assert eval_map(m, point(1.0), point(0.0)) == point(2000.0)


def test_literal_zero_division_rejected_at_parse():
    with pytest.raises(ExpressionError):
        parse_map("a1/0", 1, 1, 1)
    with pytest.raises(ExpressionError):
        parse_map("a1/-0.0", 1, 1, 1)
    # a zero literal under unary signs and parentheses is still literal zero
    for text in ("a1/(-(0))", "a1/+0", "a1 / -(-0e0)"):
        with pytest.raises(ExpressionError, match="division by literal zero"):
            parse_map(text, 1, 1, 1)
    # a sum of zeros is not: it parses and fails when evaluated
    m = parse_map("a1/(0+0)", 1, 1, 1)
    with pytest.raises(EvaluationError):
        eval_map(m, point(1.0), point(0.0))


def test_runtime_division_by_zero():
    m = parse_map("a1/b1", 1, 1, 1)
    with pytest.raises(EvaluationError):
        eval_map(m, point(1.0), point(0.0))


def test_overflow_to_non_finite():
    m = parse_map("a1*a1", 1, 1, 1)
    with pytest.raises(EvaluationError):
        eval_map(m, point(1e200), point(0.0))


def test_eval_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        eval_map(EX1_F, point(0.0, 0.0), point(1.0))


# ---------------------------------------------------------------------------
# iteration

def test_iterate_zero_steps_returns_start():
    x, y = iterate_pair(EX1_F, EX1_G, point(-1.0), point(1.0), 0)
    assert (x, y) == (point(-1.0), point(1.0))


def test_iterate_one_step_unrolls():
    x, y = iterate_pair(EX1_F, EX1_G, point(-1.0), point(1.0), 1)
    assert x == eval_map(EX1_F, point(-1.0), point(1.0))
    assert y == eval_map(EX1_G, point(1.0), point(-1.0))


def test_iterate_two_steps_hand_value():
    # from (-1, 1): step one gives (-2/3, 2/5); step two
    # F = (-2/3 - 2/5)/3 = -16/45 and G = (2/5 + 2/3)/5 = 16/75
    x, y = iterate_pair(EX1_F, EX1_G, point(-1.0), point(1.0), 2)
    assert abs(x[0] - (-16.0 / 45.0)) < 1e-15
    assert abs(y[0] - 16.0 / 75.0) < 1e-15


def test_iterate_rejects_negative_count():
    with pytest.raises(ValueError):
        iterate_pair(EX1_F, EX1_G, point(0.0), point(0.0), -1)


@given(m=st.integers(0, 6), n=st.integers(0, 6),
       x0=st.floats(-3, 3, allow_nan=False), y0=st.floats(-3, 3, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_iteration_semigroup_property(m, n, x0, y0):
    px, py = point(x0), point(y0)
    whole = iterate_pair(EX1_F, EX1_G, px, py, m + n)
    mid = iterate_pair(EX1_F, EX1_G, px, py, n)
    composed = iterate_pair(EX1_F, EX1_G, mid[0], mid[1], m)
    assert abs(whole[0][0] - composed[0][0]) <= 1e-12
    assert abs(whole[1][0] - composed[1][0]) <= 1e-12


# ---------------------------------------------------------------------------
# linear-map oracle: expression evaluation vs direct matrix arithmetic

def _affine_expr(a_row, b_row, const):
    terms = [f"{float(c)!r}*a{j + 1}" for j, c in enumerate(a_row)]
    terms += [f"{float(c)!r}*b{j + 1}" for j, c in enumerate(b_row)]
    terms.append(repr(float(const)))
    return " + ".join(terms)


def test_affine_maps_match_matrix_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        da, db = rng.integers(1, 4), rng.integers(1, 4)
        A = rng.uniform(-1, 1, (2, da))
        B = rng.uniform(-1, 1, (2, db))
        c = rng.uniform(-1, 1, 2)
        text = "; ".join(_affine_expr(A[i], B[i], c[i]) for i in range(2))
        m = parse_map(text, int(da), int(db), 2)
        a = rng.uniform(-2, 2, da)
        b = rng.uniform(-2, 2, db)
        got = eval_map(m, as_point(a), as_point(b))
        want = A @ a + B @ b + c
        assert np.max(np.abs(np.asarray(got.coords) - want)) < 1e-14


# ---------------------------------------------------------------------------
# batch evaluation

def test_batch_matches_scalar_bitwise():
    m = parse_map("(4*a1 - 3*b1)/17; min(a1, b1)", 1, 1, 2)
    rng = np.random.default_rng(5)
    A = rng.uniform(-10, 10, (64, 1))
    B = rng.uniform(-10, 10, (64, 1))
    out = eval_map_batch(m, A, B)
    for i in range(A.shape[0]):
        row = eval_map(m, as_point(A[i]), as_point(B[i]))
        assert tuple(out[i]) == row.coords
