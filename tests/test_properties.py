"""Property test on affine mixed-monotone pairs with known constants.

F(x, y) = a x - b y + c and G(y, x) = a2 y - b2 x + c2 on 1-d boxes are
mixed monotone for a, b, a2, b2 >= 0, satisfy the SYM_HALF inequality with
k = 2 max(a, b), l = 2 max(a2, b2), and the LIN_ASYM one with
k = max(a, a2), l = max(b, b2).  Their coupled fixed point solves a 2x2
linear system, so the solve can be checked against it.

The coordinatewise lift to 2 or 3 dimensions, output i = a x_i - b y_i +
c_i (and likewise for G), keeps mixed monotonicity and both families'
constants under unit L1 metrics and componentwise orders, and when X and
Y carry one WEIGHTED_L1 weight vector and both orders are
COMPONENTWISE_REVERSED: on comparable pairs every coordinate of x - u has
one sign and every coordinate of y - v the other, so
d_X(F(x, y), F(u, v)) = a d_X(x, u) + b d_Y(y, v), which is at most
max(a, b) (d_X(x, u) + d_Y(y, v)) for SYM_HALF.  The reversed orders send
the seed the other way, to (xs + t, ys - t).

The displacement families get the contractions F(x, y) = s x + c and
G(y, x) = t y + d with s, t in (0, 1/3) and m = max(s, t).  With
x* = c/(1 - s), d(x, F(x)) = (1 - s) |x - x*|, so the triangle inequality
through x* gives s |x - u| <= s/(1 - s) (d(x, F(x)) + d(u, F(u))): KANNAN
holds on all of R with k = l = m/(1 - m).  And d(x, F(u)) + d(u, F(x)) >=
(1 + s) |x - u|, so CHATTERJEA holds with the same constants.  Both
envelope ratios are then m/(1 - 2m) >= m, the true step ratio.  The fixed
point is (x*, y*) = (c/(1 - s), d/(1 - t)); seeds with x0 < x* and
y0 > y* meet the launch condition.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fgfp import (ContractionFamily, FamilyKind, MetricKind, MetricSpec, OrderKind,
                  OrderSpec, ProblemSpec, audit, box_space, parse_map, point, solve)
from fgfp.probfile import parse_problem_dict, problem_to_dict

coefficient = st.floats(0.0, 0.45)
shift = st.floats(-3.0, 3.0)


def affine_map(a, b, c):
    """Output i is a a_i - b b_i + c[i]."""
    # numpy 2 writes np.float64(...), which the parser rejects
    return parse_map("; ".join(f"{float(a)!r}*a{i} - {float(b)!r}*b{i} + {float(ci)!r}"
                               for i, ci in enumerate(c, 1)), len(c), len(c), len(c))


def check_affine_pair(kind, a, b, a2, b2, c, c2, t, weights=None):
    """``c`` and ``c2`` hold one shift per coordinate.  With ``weights``, X
    and Y carry that WEIGHTED_L1 metric and reversed componentwise orders."""
    if kind is FamilyKind.SYM_HALF:
        k, l = 2.0 * max(a, b), 2.0 * max(a2, b2)
    else:
        k, l = max(a, a2), max(b, b2)
    # per coordinate, x = a x - b y + c and y = a2 y - b2 x + c2
    det = (1.0 - a) * (1.0 - a2) - b * b2
    xs = [(ci * (1.0 - a2) - b * c2i) / det for ci, c2i in zip(c, c2)]
    ys = [((1.0 - a) * c2i - b2 * ci) / det for ci, c2i in zip(c, c2)]
    metric = order = None
    step = -t
    if weights is not None:
        metric = MetricSpec(MetricKind.WEIGHTED_L1, tuple(weights))
        order = OrderSpec(OrderKind.COMPONENTWISE_REVERSED)
        step = t

    def space(centre):
        return box_space([v - 5.0 for v in centre], [v + 5.0 for v in centre],
                         metric=metric, order=order)

    problem = ProblemSpec(
        X=space(xs), Y=space(ys), F=affine_map(a, b, c), G=affine_map(a2, b2, c2),
        family=ContractionFamily(kind, k, l),
        seed=(point(*(v + step for v in xs)), point(*(v - step for v in ys))))

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
    assert all(abs(got - want) <= 1e-8 for got, want in zip(result.x_star.coords, xs))
    assert all(abs(got - want) <= 1e-8 for got, want in zip(result.y_star.coords, ys))

    doc = problem_to_dict(problem)
    assert problem_to_dict(parse_problem_dict(doc)[0]) == doc


@settings(max_examples=40, deadline=None)
@given(coefficient, coefficient, coefficient, coefficient, shift, shift,
       st.floats(0.1, 4.0))
def test_affine_sym_half_pair(a, b, a2, b2, c, c2, t):
    check_affine_pair(FamilyKind.SYM_HALF, a, b, a2, b2, (c,), (c2,), t)


@settings(max_examples=40, deadline=None)
@given(st.data(), coefficient, coefficient, coefficient, coefficient, st.floats(0.1, 4.0),
       st.sampled_from([2, 3]), st.booleans())
def test_affine_sym_half_pair_lifted_to_2d_and_3d(data, a, b, a2, b2, t, dim, weighted):
    c, c2 = (data.draw(st.tuples(*[shift] * dim)) for _ in range(2))
    weights = data.draw(st.tuples(*[st.floats(0.5, 2.0)] * dim)) if weighted else None
    check_affine_pair(FamilyKind.SYM_HALF, a, b, a2, b2, c, c2, t, weights)


def lin_asym_coefficients(data):
    a, a2 = data.draw(st.floats(0.0, 0.95)), data.draw(st.floats(0.0, 0.95))
    # b, b2 <= 0.95 - max(a, a2), so that k + l <= 0.95
    b_max = 0.95 - max(a, a2)
    b, b2 = data.draw(st.floats(0.0, b_max)), data.draw(st.floats(0.0, b_max))
    return a, b, a2, b2


@settings(max_examples=40, deadline=None)
@given(st.data(), shift, shift, st.floats(0.1, 4.0))
def test_affine_lin_asym_pair(data, c, c2, t):
    check_affine_pair(FamilyKind.LIN_ASYM, *lin_asym_coefficients(data), (c,), (c2,), t)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.tuples(shift, shift), st.tuples(shift, shift), st.floats(0.1, 4.0),
       st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)))
def test_affine_lin_asym_pair_lifted_to_2d(data, c, c2, t, weights):
    check_affine_pair(FamilyKind.LIN_ASYM, *lin_asym_coefficients(data), c, c2, t, weights)


# below 1/3 with room, so that k = m/(1 - m) stays below 1/2 after rounding
displacement_rate = st.floats(0.0, 0.33, exclude_min=True)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([FamilyKind.KANNAN, FamilyKind.CHATTERJEA]),
       displacement_rate, displacement_rate, shift, shift, st.floats(0.1, 4.0))
def test_displacement_families_on_contractions(kind, s, t, c, d, step):
    m = max(s, t)
    k = l = m / (1.0 - m)
    xs, ys = c / (1.0 - s), d / (1.0 - t)
    family = ContractionFamily(kind, k, l)
    assert family.envelope_x.ratio >= s and family.envelope_y.ratio >= t
    problem = ProblemSpec(
        X=box_space([xs - 5.0], [xs + 5.0]), Y=box_space([ys - 5.0], [ys + 5.0]),
        F=parse_map(f"{float(s)!r}*a1 + {float(c)!r}", 1, 1, 1),
        G=parse_map(f"{float(t)!r}*a1 + {float(d)!r}", 1, 1, 1),
        family=family, seed=(point(xs - step), point(ys + step)))

    rep = audit(problem.F, problem.G, problem.X, problem.Y, problem.family,
                *problem.seed, with_estimates=True)
    assert rep.passed
    est = rep.estimated_constants
    assert est["k"] + est["l"] <= 2.0 * m / (1.0 - m) + 1e-12

    _, result = solve(problem)
    assert result.converged and result.bound_violations == ()
    assert abs(result.x_star[0] - xs) <= 1e-8 and abs(result.y_star[0] - ys) <= 1e-8
