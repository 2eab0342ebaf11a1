import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfp import (DimensionMismatch, MetricKind, SampleError, MetricSpec, OrderKind,
                  OrderSpec, Point, box_space, leq, point, product_leq)
from fgfp.spaces import (DOMAIN_TOL, common_bounds_batch, distance_batch, leq_batch,
                         metric_distance, ordered_pairs, product_metric_distance,
                         sample_points)

INF = float("inf")

R1 = box_space((-INF,), (INF,))
R2 = box_space((-INF, -INF), (INF, INF))


# ---------------------------------------------------------------------------
# Point

def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        point(float("nan"))
    with pytest.raises(ValueError):
        point(1.0, INF)


def test_point_requires_a_coordinate():
    with pytest.raises(ValueError):
        Point(())


# ---------------------------------------------------------------------------
# metric_distance

def test_distance_1d_l1():
    assert metric_distance(R1, point(-1.0), point(0.0)) == 1.0


def test_distance_identical_points_is_zero():
    space = box_space((-1.0, -1.0), (1.0, 1.0))
    p = point(0.5, -0.5)
    assert metric_distance(space, p, p) == 0.0


def test_distance_weighted_l1_hand_value():
    # weights (2, 3): 2*|0-1| + 3*|0-1| = 5
    space = box_space((-5.0, -5.0), (5.0, 5.0),
                      metric=MetricSpec(MetricKind.WEIGHTED_L1, (2.0, 3.0)))
    assert metric_distance(space, point(0.0, 0.0), point(1.0, 1.0)) == 5.0


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        metric_distance(R1, point(0.0), point(0.0, 1.0))


def test_contains_rejects_points_outside_the_box():
    space = box_space((0.0,), (1.0,))
    assert space.contains(point(1.0 + DOMAIN_TOL / 2))
    assert not space.contains(point(2.0))
    with pytest.raises(DimensionMismatch):
        space.contains(point(0.5, 0.5))


# ---------------------------------------------------------------------------
# leq, and comparability as leq either way

def test_leq_componentwise_usual_order():
    assert leq(R1, point(-1.0), point(0.0))
    assert not leq(R1, point(0.0), point(-1.0))


def test_leq_discrete_plus_pairs_directional():
    order = OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
                      extra_pairs=((point(-1.0), point(0.0)),))
    space = box_space((-1.0,), (0.0,), order=order)
    assert leq(space, point(-1.0), point(0.0))
    assert not leq(space, point(0.0), point(-1.0))
    assert leq(space, point(-0.5), point(-0.5))
    assert not leq(space, point(-0.5), point(0.0))


def test_leq_reflexive_on_samples():
    rng = np.random.default_rng(0)
    for space in (R2, box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE))):
        pts = sample_points(space, 50, rng)
        assert leq_batch(space, pts, pts).all()


def _comparable(space, a, b):
    return leq(space, a, b) or leq(space, b, a)


def test_comparable_total_order_1d():
    rng = np.random.default_rng(1)
    a, b = sample_points(R1, 2, rng)
    assert _comparable(R1, Point(tuple(a)), Point(tuple(b)))


def test_comparable_discrete_distinct_points():
    space = box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE))
    assert not _comparable(space, point(0.25), point(0.75))


def test_comparable_2d_antichain():
    assert not _comparable(R2, point(0.0, 1.0), point(1.0, 0.0))


def test_transitive_closure_of_listed_pairs():
    order = OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
                      extra_pairs=((point(0.0), point(1.0)),
                                   (point(1.0), point(2.0))))
    space = box_space((0.0,), (2.0,), order=order)
    assert leq(space, point(0.0), point(2.0))


def test_listed_pair_cycle_rejected():
    with pytest.raises(ValueError):
        OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
                  extra_pairs=((point(0.0), point(1.0)),
                               (point(1.0), point(0.0))))


def test_extra_pairs_only_for_discrete_plus_pairs():
    with pytest.raises(ValueError):
        OrderSpec(kind=OrderKind.COMPONENTWISE,
                  extra_pairs=((point(0.0), point(1.0)),))


# a chain of listed relations, cut to the space's dimension
LISTED_CHAIN = ((0.0, 0.0, 0.0), (1.0, 0.5, -0.5), (2.0, -1.0, 1.0))


def _listed_pairs(dim):
    points = [point(*c[:dim]) for c in LISTED_CHAIN]
    return tuple(zip(points, points[1:]))


REFERENCE_ORDERS = [
    OrderSpec(kind=OrderKind.COMPONENTWISE),
    OrderSpec(kind=OrderKind.COMPONENTWISE, slack=0.25),
    OrderSpec(kind=OrderKind.COMPONENTWISE_REVERSED, slack=0.25),
    OrderSpec(kind=OrderKind.DISCRETE, slack=0.25),
    OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS, slack=0.25, extra_pairs=_listed_pairs(2)),
]


def _reference_rows(order, dim, rng):
    """Random rows plus rows exactly at the slack and just past it, in
    each coordinate."""
    s = order.slack
    grid = rng.integers(-4, 5, (40, dim)) / 2.0  # coordinates collide on a grid
    bases = [tuple(p) for p in grid] + [c for pair in order.closure for c in pair]
    steps = (0.0, s, -s, np.nextafter(s, np.inf), -np.nextafter(s, np.inf))
    rows = [(tuple(a), tuple(b)) for a, b in zip(rng.uniform(-2, 2, (100, dim)),
                                                   rng.uniform(-2, 2, (100, dim)))]
    rows += [(tuple(a), tuple(b)) for a, b in zip(grid, grid[::-1])]
    for p in bases:
        for step in itertools.product(steps, repeat=dim):
            q = tuple(c + d for c, d in zip(p, step))
            rows += [(p, q), (q, p)]
        for lo, hi in order.closure:
            rows += [(p, hi), (lo, p)]
    return np.asarray([r[0] for r in rows]), np.asarray([r[1] for r in rows])


@pytest.mark.parametrize("order", REFERENCE_ORDERS, ids=lambda o: f"{o.kind.value}-{o.slack}")
def test_leq_matches_leq_batch_row_by_row(order):
    for dim in (1, 2, 3):
        order_d = OrderSpec(order.kind, _listed_pairs(dim) if order.extra_pairs else (),
                            order.slack)
        space = box_space((-10.0,) * dim, (10.0,) * dim, order=order_d)
        A, B = _reference_rows(order_d, dim, np.random.default_rng(17))
        batch = leq_batch(space, A, B)
        assert batch.any() and not batch.all()
        for a, b, want in zip(A, B, batch):
            assert leq(space, Point(tuple(a)), Point(tuple(b))) == bool(want)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_distance_batch_is_the_weighted_row_sum_bit_for_bit(dim):
    # the reference is metric_distance, row by row; rows of (n, dim) arrays
    # and of the (pairs, steps, dim) arrays that uniqueness_probe passes
    rng = np.random.default_rng(dim)
    weights = tuple(rng.uniform(0.1, 3.0, dim))
    for metric in (MetricSpec(), MetricSpec(MetricKind.WEIGHTED_L1, weights)):
        space = box_space((-INF,) * dim, (INF,) * dim, metric=metric)
        for shape in ((500, dim), (6, 40, dim)):
            A, B = rng.normal(size=shape) * 1e3, rng.normal(size=shape)
            got = distance_batch(space, A, B)
            assert got.shape == shape[:-1]
            want = np.array([metric_distance(space, Point(tuple(a)), Point(tuple(b)))
                             for a, b in zip(A.reshape(-1, dim), B.reshape(-1, dim))])
            assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))


# rows: comparable, an antichain, equal within the slack, a listed relation
# read backwards, and a relation through the transitive closure
BOUND_A = np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.5], [1.0, 0.5], [0.0, 0.0]])
BOUND_B = np.array([[1.0, 1.0], [1.0, 0.0], [0.5, 0.5 + 1e-13], [0.0, 0.0], [2.0, -1.0]])


@pytest.mark.parametrize("order, want", [
    (OrderSpec(kind=OrderKind.COMPONENTWISE), [True] * 5),
    (OrderSpec(kind=OrderKind.COMPONENTWISE_REVERSED), [True] * 5),
    (OrderSpec(kind=OrderKind.DISCRETE), [False, False, True, False, False]),
    (OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
               extra_pairs=((point(0.0, 0.0), point(1.0, 0.5)),
                            (point(1.0, 0.5), point(2.0, -1.0)))),
     [False, False, True, True, True]),
], ids=[kind.value for kind in OrderKind])
def test_common_bounds_batch_per_order_kind(order, want):
    space = box_space((-3.0, -3.0), (3.0, 3.0), order=order)
    assert common_bounds_batch(space, BOUND_A, BOUND_B).tolist() == want
    if order.kind in (OrderKind.COMPONENTWISE, OrderKind.COMPONENTWISE_REVERSED):
        # the rowwise min and max are the two bounds, in some order
        lo, hi = np.minimum(BOUND_A, BOUND_B), np.maximum(BOUND_A, BOUND_B)
        if order.kind is OrderKind.COMPONENTWISE_REVERSED:
            lo, hi = hi, lo
        for C in (BOUND_A, BOUND_B):
            assert leq_batch(space, lo, C).all() and leq_batch(space, C, hi).all()


@pytest.mark.parametrize("order", [
    OrderSpec(kind=OrderKind.COMPONENTWISE),
    OrderSpec(kind=OrderKind.COMPONENTWISE_REVERSED),
    OrderSpec(kind=OrderKind.DISCRETE),
    OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
              extra_pairs=((point(0.0, 0.0), point(1.0, 0.5)),)),
], ids=[kind.value for kind in OrderKind])
def test_sample_ordered_pairs_are_ordered(order):
    space = box_space((-3.0, -3.0), (3.0, 3.0), order=order)
    lo, hi = ordered_pairs(space, 50, np.random.default_rng(2))
    assert leq_batch(space, lo, hi).all()
    # only the discrete orders give equal pairs
    equal = np.all(lo == hi, axis=1)
    assert equal.any() == (order.kind in (OrderKind.DISCRETE, OrderKind.DISCRETE_PLUS_PAIRS))


# ---------------------------------------------------------------------------
# product space

def test_product_distance_zero_on_equal_pairs():
    p = (point(-1.0), point(1.0))
    assert product_metric_distance(R1, R1, p, p) == 0.0


def test_product_distance_hand_value():
    p = (point(-1.0), point(1.0))
    q = (point(0.0), point(0.0))
    assert product_metric_distance(R1, R1, p, q) == 2.0


def test_product_leq_reverses_second_component():
    p = (point(-1.0), point(1.0))
    q = (point(0.0), point(0.0))
    assert product_leq(R1, R1, p, q)       # -1 <= 0 and 0 <= 1
    assert not product_leq(R1, R1, q, p)   # 0 <= -1 fails


def test_product_leq_reflexive():
    p = (point(0.3), point(-0.7))
    assert product_leq(R1, R1, p, p)


# ---------------------------------------------------------------------------
# sampled axioms

coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(a=st.tuples(coords, coords), b=st.tuples(coords, coords),
       c=st.tuples(coords, coords))
@settings(max_examples=80, deadline=None)
def test_metric_axioms_sampled(a, b, c):
    space = box_space((-10.0, -10.0), (10.0, 10.0),
                      metric=MetricSpec(MetricKind.WEIGHTED_L1, (2.0, 0.5)))
    pa, pb, pc = Point(a), Point(b), Point(c)
    assert metric_distance(space, pa, pa) == 0.0
    assert metric_distance(space, pa, pb) == metric_distance(space, pb, pa)
    assert metric_distance(space, pa, pc) <= \
        metric_distance(space, pa, pb) + metric_distance(space, pb, pc) + 1e-12


@given(a=st.tuples(coords, coords), b=st.tuples(coords, coords))
@settings(max_examples=80, deadline=None)
def test_reversed_order_mirrors_componentwise(a, b):
    rev = box_space((-10.0, -10.0), (10.0, 10.0),
                    order=OrderSpec(kind=OrderKind.COMPONENTWISE_REVERSED))
    pa, pb = Point(a), Point(b)
    assert leq(rev, pa, pb) == leq(R2, pb, pa)


@given(a=st.tuples(coords, coords), eps=st.tuples(
    st.floats(-1e-13, 1e-13), st.floats(-1e-13, 1e-13)))
@settings(max_examples=60, deadline=None)
def test_antisymmetry_up_to_slack(a, eps):
    space = box_space((-11.0, -11.0), (11.0, 11.0))
    pa = Point(a)
    pb = Point(tuple(x + e for x, e in zip(a, eps)))
    if leq(space, pa, pb) and leq(space, pb, pa):
        slack_bound = space.dim * space.order.slack
        assert metric_distance(space, pa, pb) <= slack_bound + 1e-15


@given(a=st.tuples(coords, coords), b=st.tuples(coords, coords))
@settings(max_examples=60, deadline=None)
def test_product_ops_agree_with_components(a, b):
    pa, pb = Point(a), Point(b)
    qa, qb = Point(b), Point(a)
    assert product_metric_distance(R2, R2, (pa, pb), (qa, qb)) == \
        metric_distance(R2, pa, qa) + metric_distance(R2, pb, qb)
    assert product_leq(R2, R2, (pa, pb), (qa, qb)) == \
        (leq(R2, pa, qa) and leq(R2, qb, pb))


# ---------------------------------------------------------------------------
# boxes and sampling boxes

def test_sampling_box_derived_for_half_lines():
    X = box_space((-INF,), (0.0,))
    assert X.sampling_box == ((-10.0,), (0.0,))
    Y = box_space((0.0,), (INF,))
    assert Y.sampling_box == ((0.0,), (10.0,))
    full = box_space((-INF,), (INF,))
    assert full.sampling_box == ((-10.0,), (10.0,))


def test_sampling_box_must_sit_inside_the_box():
    with pytest.raises(ValueError):
        box_space((0.0,), (1.0,), sampling_box=((-1.0,), (1.0,)))


def test_invalid_bounds_rejected():
    with pytest.raises(ValueError):
        box_space((1.0,), (0.0,))


def test_weights_must_match_dimension():
    with pytest.raises(DimensionMismatch):
        box_space((0.0, 0.0), (1.0, 1.0),
                  metric=MetricSpec(MetricKind.WEIGHTED_L1, (1.0,)))


def test_weights_must_be_positive():
    with pytest.raises(ValueError):
        MetricSpec(MetricKind.WEIGHTED_L1, (1.0, 0.0))


def test_sampling_box_diameter_must_be_finite_under_the_metric():
    with pytest.raises(ValueError, match="diameter"):
        box_space((-INF,), (0.0,), metric=MetricSpec(MetricKind.WEIGHTED_L1, (1e308,)))
    with pytest.raises(ValueError, match="diameter"):  # finite extents, infinite sum
        box_space((-1e308, -1e308), (0.0, 0.0))
    heavy = box_space((-INF,), (0.0,), metric=MetricSpec(MetricKind.WEIGHTED_L1, (1e307,)))
    assert metric_distance(heavy, point(-10.0), point(0.0)) == 1e308


# per-column extents that differ, negative bounds and a zero-extent column
UNIFORM_BOXES = [
    ((-3.5,), (2.25,)),
    ((-10.0, 0.0), (-2.5, 1e-3)),
    ((-1.0, 4.0, -7.25), (3.0, 4.0, -0.5)),
    ((-1e6, -0.1, 0.0, 5.0), (1e6, 0.3, 0.0, 5.5)),
]


@pytest.mark.parametrize("lower, upper", UNIFORM_BOXES,
                         ids=[f"dim{len(lo)}" for lo, _ in UNIFORM_BOXES])
@pytest.mark.parametrize("n", [1, 1001])
def test_sample_points_are_numpy_uniform_bit_for_bit(lower, upper, n):
    # the bits rest on numpy's formula lo + (hi - lo) * u and on no FMA
    # contraction of it
    space = box_space(lower, upper)
    for seed in (0, 7):
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            got = sample_points(space, n, ours)
            want = numpys.uniform(lower, upper, (n, len(lower)))
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            # and the generator is left where uniform leaves it
            assert ours.bit_generator.state == numpys.bit_generator.state


def test_sample_points_reject_an_overflowing_extent():
    space = box_space((-1e308, 0.0), (1e308, 1.0))
    with pytest.raises(SampleError):
        sample_points(space, 5, np.random.default_rng(0))


def test_samples_stay_in_sampling_box():
    space = box_space((-INF,), (0.0,))
    pts = sample_points(space, 200, np.random.default_rng(3))
    assert (pts >= -10.0).all() and (pts <= 0.0).all()
