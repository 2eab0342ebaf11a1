"""Property test on affine mixed-monotone pairs with known constants.

F(x, y) = a x - b y + c and G(y, x) = a2 y - b2 x + c2 on 1-d boxes are
mixed monotone for a, b, a2, b2 >= 0, satisfy the SYM_HALF inequality with
k = 2 max(a, b), l = 2 max(a2, b2), and the LIN_ASYM one with
k = max(a, a2), l = max(b, b2).  Their coupled fixed point solves a 2x2
linear system, so the solve can be checked against it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fgfp import (ContractionFamily, FamilyKind, ProblemSpec, audit, box_space,
                  parse_map, point, solve)
from fgfp.probfile import parse_problem_dict, problem_to_dict

coefficient = st.floats(0.0, 0.45)
shift = st.floats(-3.0, 3.0)


def affine_map(a, b, c):
    # numpy 2 writes np.float64(...), which the parser rejects
    return parse_map(f"{float(a)!r}*a1 - {float(b)!r}*b1 + {float(c)!r}", 1, 1, 1)


def check_affine_pair(kind, a, b, a2, b2, c, c2, t):
    if kind is FamilyKind.SYM_HALF:
        k, l = 2.0 * max(a, b), 2.0 * max(a2, b2)
    else:
        k, l = max(a, a2), max(b, b2)
    # x = a x - b y + c and y = a2 y - b2 x + c2
    det = (1.0 - a) * (1.0 - a2) - b * b2
    xs = (c * (1.0 - a2) - b * c2) / det
    ys = ((1.0 - a) * c2 - b2 * c) / det
    problem = ProblemSpec(
        X=box_space((xs - 5.0,), (xs + 5.0,)), Y=box_space((ys - 5.0,), (ys + 5.0,)),
        F=affine_map(a, b, c), G=affine_map(a2, b2, c2),
        family=ContractionFamily(kind, k, l), seed=(point(xs - t), point(ys + t)))

    rep = audit(problem.F, problem.G, problem.X, problem.Y, problem.family,
                *problem.seed, with_estimates=True)
    assert rep.passed
    est = rep.estimated_constants
    if kind is FamilyKind.SYM_HALF:
        assert est["k"] <= k + 1e-12 and est["l"] <= l + 1e-12
    else:
        assert est["k"] + est["l"] <= k + l + 1e-12

    _, result = solve(problem)
    assert result.converged and result.bound_violations == ()
    assert abs(result.x_star.coords[0] - xs) <= 1e-8
    assert abs(result.y_star.coords[0] - ys) <= 1e-8

    doc = problem_to_dict(problem)
    assert problem_to_dict(parse_problem_dict(doc)[0]) == doc


@settings(max_examples=40, deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, shift, shift,
       st.floats(0.1, 4.0))
def test_affine_sym_half_pair(a, b, a2, b2, c, c2, t):
    check_affine_pair(FamilyKind.SYM_HALF, a, b, a2, b2, c, c2, t)


@settings(max_examples=40, deadline=None)
@given(st.data(), shift, shift, st.floats(0.1, 4.0))
def test_affine_lin_asym_pair(data, c, c2, t):
    a, a2 = data.draw(st.floats(0.0, 0.95)), data.draw(st.floats(0.0, 0.95))
    # b, b2 <= 0.95 - max(a, a2), so that k + l <= 0.95
    b_max = 0.95 - max(a, a2)
    b, b2 = data.draw(st.floats(0.0, b_max)), data.draw(st.floats(0.0, b_max))
    check_affine_pair(FamilyKind.LIN_ASYM, a, b, a2, b2, c, c2, t)
