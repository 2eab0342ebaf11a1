import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfp import (ContractionFamily, FamilyKind, SampleError,
                  SamplerConfig, box_space, check_comparability,
                  check_contraction, check_mixed_monotone, check_seed,
                  estimate_constants, eval_map, parse_map, point)
from fgfp.hypotheses import (RATIO_FLOOR, ComparabilityCheck, _contraction_data,
                             _Draws, _min_sum_constants, audit)
from fgfp.maps import evaluation_count
from fgfp.spaces import (OrderKind, OrderSpec, common_bounds_batch, leq,
                         metric_distance, ordered_pairs, sample_points)

INF = float("inf")
CFG = SamplerConfig(samples_per_check=500, rng_seed=0)


def ex(corpus, eid):
    p = corpus[eid].problem
    return p.F, p.G, p.X, p.Y, p.family


# ---------------------------------------------------------------------------
# mixed monotonicity

def test_monotone_pass_on_reference_maps(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    rep = check_mixed_monotone(F, G, X, Y, CFG)
    assert rep.passed and rep.counterexamples == ()


def test_monotone_constant_maps_pass():
    X = box_space((-1.0,), (1.0,))
    F = parse_map("0.5", 1, 1, 1)
    G = parse_map("-0.5", 1, 1, 1)
    assert check_mixed_monotone(F, G, X, X, CFG).passed


def test_monotone_fail_with_reusable_witness():
    X = box_space((-INF,), (0.0,))
    Y = box_space((0.0,), (INF,))
    F = parse_map("b1", 1, 1, 1)  # increasing in the second argument: wrong way
    G = parse_map("(a1 - b1)/5", 1, 1, 1)
    rep = check_mixed_monotone(F, G, X, Y, CFG)
    assert not rep.passed
    w = next(w for w in rep.counterexamples if w["clause"] == "F_decr_second")
    # the witness must re-fail when evaluated independently
    img_lo = eval_map(F, point(*w["context"]), point(*w["low"]))
    img_hi = eval_map(F, point(*w["context"]), point(*w["high"]))
    assert not leq(X, img_hi, img_lo)


def test_monotone_pass_under_discrete_orders(corpus):
    F, G, X, Y, _ = ex(corpus, "ex4")
    assert check_mixed_monotone(F, G, X, Y, CFG).passed


# ---------------------------------------------------------------------------
# seed condition

def test_seed_check_reference_values(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    rep = check_seed(F, G, X, Y, point(-1.0), point(1.0))
    assert rep.passed
    assert rep.f_at_seed == point(-2.0 / 3.0)
    assert rep.g_at_seed == point(2.0 / 5.0)


def test_seed_check_at_fixed_point_and_failure(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    assert check_seed(F, G, X, Y, point(0.0), point(0.0)).passed
    # x0 above its image: (x-y)/3 pulls -0.1 down when y = 9
    rep = check_seed(F, G, X, Y, point(-0.1), point(9.0))
    assert not rep.passed and not rep.x_ok


# ---------------------------------------------------------------------------
# contraction inequalities

def test_contraction_pass_reference_constants(corpus):
    for eid in ("ex1", "ex2", "ex4", "coupled-reg"):
        F, G, X, Y, fam = ex(corpus, eid)
        rep = check_contraction(F, G, X, Y, fam, CFG)
        assert rep.passed, eid
        assert rep.f_side.violations == () and rep.g_side.violations == ()


def test_contraction_tight_ratio_near_one(corpus):
    F, G, X, Y, fam = ex(corpus, "ex1")
    rep = check_contraction(F, G, X, Y, fam, CFG)
    assert abs(rep.f_side.max_ratio - 1.0) < 1e-12
    assert abs(rep.g_side.max_ratio - 1.0) < 1e-12


def test_contraction_fail_for_expanding_map():
    X = box_space((-INF,), (INF,))
    F = parse_map("2*a1", 1, 1, 1)
    G = parse_map("-2*a1", 1, 1, 1)
    fam = ContractionFamily(FamilyKind.SYM_HALF, 0.99, 0.99)
    rep = check_contraction(F, G, X, X, fam, CFG)
    assert not rep.passed
    v = rep.f_side.violations[0]
    # re-evaluate the recorded violation from scratch
    lhs = metric_distance(X, eval_map(F, point(*v["x"]), point(*v["y"])),
                          eval_map(F, point(*v["u"]), point(*v["v"])))
    pts = [point(*v[r]) for r in ("x", "u", "y", "v")]
    rhs = 0.5 * fam.k * (metric_distance(X, pts[0], pts[1])
                         + metric_distance(X, pts[2], pts[3]))
    assert lhs > rhs + 1e-12
    assert abs(lhs - v["lhs"]) < 1e-12 and abs(rhs - v["rhs"]) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_ordered_pairs_on_listed_relations_match_the_row_loop(n):
    order = OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
                      extra_pairs=((point(0.0, 0.5), point(1.0, 0.25)),
                                   (point(1.0, 0.25), point(2.0, 2.0)),
                                   (point(0.5, 0.5), point(0.75, 1.5))))
    space = box_space((0.0, 0.0), (2.0, 2.0), order=order)
    lo, hi = ordered_pairs(space, partial(sample_points, space, n, np.random.default_rng(4)))
    want_lo = sample_points(space, n, np.random.default_rng(4))
    want_hi = want_lo.copy()
    closure = space.order.closure
    for i in range(1, n, 2):
        want_lo[i], want_hi[i] = closure[(i // 2) % len(closure)]
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_checkers_are_deterministic(corpus):
    F, G, X, Y, fam = ex(corpus, "ex2")
    a = check_contraction(F, G, X, Y, fam, SamplerConfig(rng_seed=11))
    b = check_contraction(F, G, X, Y, fam, SamplerConfig(rng_seed=11))
    assert a.to_dict() == b.to_dict()
    m1 = check_mixed_monotone(F, G, X, Y, SamplerConfig(rng_seed=11))
    m2 = check_mixed_monotone(F, G, X, Y, SamplerConfig(rng_seed=11))
    assert m1.to_dict() == m2.to_dict()


# ---------------------------------------------------------------------------
# constant estimation

def test_estimate_symmetric_half_reference(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    cfg = SamplerConfig(samples_per_check=2000, rng_seed=0)
    k_hat, l_hat = estimate_constants(F, G, X, Y, FamilyKind.SYM_HALF, cfg)
    assert abs(k_hat - 2.0 / 3.0) < 0.02
    assert abs(l_hat - 2.0 / 5.0) < 0.02


def test_estimate_linear_asymmetric_reference(corpus):
    F, G, X, Y, _ = ex(corpus, "ex2")
    cfg = SamplerConfig(samples_per_check=2000, rng_seed=0)
    k_hat, l_hat = estimate_constants(F, G, X, Y, FamilyKind.LIN_ASYM, cfg)
    assert abs(k_hat - 4.0 / 17.0) < 0.02
    assert abs(l_hat - 3.0 / 17.0) < 0.02


def test_estimate_constant_maps_give_zero():
    X = box_space((-1.0,), (1.0,))
    F = parse_map("0.25", 1, 1, 1)
    G = parse_map("-0.25", 1, 1, 1)
    assert estimate_constants(F, G, X, X, FamilyKind.SYM_HALF, CFG) == (0.0, 0.0)
    assert estimate_constants(F, G, X, X, FamilyKind.LIN_ASYM, CFG) == (0.0, 0.0)


def test_estimates_feed_back_into_passing_checks(corpus):
    for eid in ("ex1", "ex2", "ex3", "ex4", "coupled-reg"):
        F, G, X, Y, fam = ex(corpus, eid)
        cfg = SamplerConfig(samples_per_check=800, rng_seed=3)
        k_hat, l_hat = estimate_constants(F, G, X, Y, fam.kind, cfg)
        inflated = ContractionFamily(fam.kind, k_hat + 1e-9, l_hat + 1e-9)
        rep = check_contraction(F, G, X, Y, inflated, cfg)
        assert rep.passed, eid


def test_estimates_stable_across_sampling_seeds(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    values = [estimate_constants(F, G, X, Y, FamilyKind.SYM_HALF,
                                 SamplerConfig(samples_per_check=2000, rng_seed=s))
              for s in (1, 2)]
    for k_hat, l_hat in values:
        assert 0.60 <= k_hat <= 2.0 / 3.0 + 0.02
        assert abs(l_hat - 0.4) < 0.02


def test_estimate_degenerate_single_point_box():
    X = box_space((0.0,), (0.0,))
    F = parse_map("a1", 1, 1, 1)
    G = parse_map("b1", 1, 1, 1)
    with pytest.raises(SampleError):
        estimate_constants(F, G, X, X, FamilyKind.SYM_HALF, CFG)


def test_sym_half_estimate_ignores_left_sides_at_the_ratio_floor(corpus):
    # every left side is about 1e-20 |x - u|, at most 1e-19: below RATIO_FLOOR
    F, G, X, Y, _ = ex(corpus, "ex1")
    tiny = parse_map("1e-20*(a1 - b1)", 1, 1, 1)
    x0, y0 = corpus["ex1"].problem.seed
    fam = ContractionFamily(FamilyKind.SYM_HALF, 0.5, 0.4)
    rep = audit(tiny, G, X, Y, fam, x0, y0, SamplerConfig(), with_estimates=True)
    _, l_hat = estimate_constants(F, G, X, Y, FamilyKind.SYM_HALF, SamplerConfig())
    assert rep.estimated_constants == {"k": 0.0, "l": l_hat}


def test_sym_half_left_side_over_a_zero_right_side_admits_no_constants():
    # X = [0, 1e-11]: some pairs have (d_X + d_Y)/2 <= RATIO_FLOOR < lhs = 1000 d_X
    X = box_space((0.0,), (1e-11,))
    Y = box_space((0.0,), (0.0,))
    F = parse_map("1000*a1", 1, 1, 1)
    G = parse_map("a1", 1, 1, 1)
    cfg = SamplerConfig(samples_per_check=2000, rng_seed=0)
    for kind in (FamilyKind.SYM_HALF, FamilyKind.LIN_ASYM):
        assert estimate_constants(F, G, X, Y, kind, cfg) == (INF, INF)
    fam = ContractionFamily(FamilyKind.SYM_HALF, 0.5, 0.5)
    assert not check_contraction(F, G, X, Y, fam, cfg).passed


def _lp_reference(p, q, c):
    """min k + l over the vertices of the LP that _min_sum_constants solves.

    Rows with c at or below RATIO_FLOOR are dropped and q at or below it is
    taken as 0, as the solver does.  Every pair of constraint lines, k = 0
    and l = 0 included, is intersected, and the least k + l over the
    feasible vertices (checked against every row) is the minimum.  Row i
    reads k a_i + l b_i >= 1 with (a_i, b_i) = (p_i, q_i)/c_i, so a row whose
    point lies on or above the lower-left convex hull of the points is
    implied by the rows on it; only the hull rows are paired, which keeps
    sampled instances of thousands of rows small.
    """
    keep = c > RATIO_FLOOR
    p, q, c = p[keep], q[keep], c[keep]
    if not keep.any():
        return 0.0
    q = np.where(q > RATIO_FLOOR, q, 0.0)
    if ((p <= RATIO_FLOOR) & (q == 0.0)).any():
        return INF
    a, b = p / c, q / c
    order = np.lexsort((b, a))
    prior_min = np.minimum.accumulate(np.concatenate(([INF], b[order])))[:-1]
    rows = []
    for r in order[b[order] < prior_min]:
        while len(rows) >= 2 and ((a[rows[-1]] - a[rows[-2]]) * (b[r] - b[rows[-2]])
                                  <= (b[rows[-1]] - b[rows[-2]]) * (a[r] - a[rows[-2]])):
            rows.pop()
        rows.append(r)
    rows = np.array(rows, dtype=int)
    lp = np.concatenate((p[rows], [1.0, 0.0]))
    lq = np.concatenate((q[rows], [0.0, 1.0]))
    lc = np.concatenate((c[rows], [0.0, 0.0]))
    i, j = np.triu_indices(len(lp), 1)
    det = lp[i] * lq[j] - lp[j] * lq[i]
    i, j, det = i[det != 0.0], j[det != 0.0], det[det != 0.0]
    k = (lc[i] * lq[j] - lc[j] * lq[i]) / det
    l = (lp[i] * lc[j] - lp[j] * lc[i]) / det
    feasible = ((k >= 0.0) & (l >= 0.0)
                & (np.outer(k, p) + np.outer(l, q) >= c - 1e-12 * (1.0 + c)).all(axis=1))
    return float((k + l)[feasible].min())


def _assert_solves_the_lp(p, q, c):
    k, l = _min_sum_constants(p, q, c)
    best = _lp_reference(p, q, c)
    if best == INF:
        assert (k, l) == (INF, INF)
        return
    assert k >= 0.0 and l >= 0.0
    assert abs((k + l) - best) <= 1e-12 * best
    active = c > RATIO_FLOOR
    assert (k * p + l * q >= c - 1e-12 * (1.0 + c))[active].all()


def _lp_instances(corpus):
    for eid, entry in corpus.items():
        p = entry.problem
        for rng_seed in (0, 7):
            for kind in (FamilyKind.LIN_ASYM, FamilyKind.KANNAN, FamilyKind.CHATTERJEA):
                data = _contraction_data(p.F, p.G, p.X, p.Y, kind,
                                         _Draws(SamplerConfig(2000, rng_seed)))
                yield (np.concatenate([data.p_f, data.p_g]),
                       np.concatenate([data.q_f, data.q_g]),
                       np.concatenate([data.lhs_f, data.lhs_g]))
    # k_floor == k_hi: the row without l-leverage pins k
    yield np.array([1.0, 1.0]), np.array([0.0, 1.0]), np.array([2.0, 1.0])
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        p, q, c = rng.uniform(0.0, 2.0, (3, n)) * (rng.random((3, n)) > 0.25)
        yield p, q, c


def test_min_sum_constants_matches_vertex_enumeration(corpus):
    for p, q, c in _lp_instances(corpus):
        _assert_solves_the_lp(p, q, c)


def _lp(*rows):
    """(p, q, c) columns from (p, q, c) rows."""
    return tuple(np.array(column, dtype=float) for column in zip(*rows))


# (p, q, c) rows per case and the exact (k, l), or None to check against
# the reference alone
LP_EDGE_CASES = {
    "duplicated_rows": (_lp((2, 1, 2), (2, 1, 2), (1, 2, 2), (1, 2, 2)), None),
    "one_line_on_top_at_lo_and_hi": (_lp((0, 1, 5), (1, 1, 1)), (0.0, 5.0)),
    "k_floor_equal_to_k_hi": (_lp((1, 0, 2), (1, 1, 1)), (2.0, 0.0)),
    "collinear_rows": (_lp((2, 1, 2), (4, 2, 4), (6, 3, 6)), (1.0, 0.0)),
    "collinear_rows_with_p_equal_to_q": (_lp((1, 1, 1), (2, 2, 2)), (0.0, 1.0)),
    "p_equal_to_q_on_top_takes_the_smallest_k": (_lp((2, 1, 2), (1, 1, 1.5)), (0.5, 1.0)),
    "single_falling_row": (_lp((3, 1, 3)), (1.0, 0.0)),
    "single_rising_row": (_lp((1, 3, 3)), (0.0, 1.0)),
    "only_q_zero_rows": (_lp((1, 0, 1), (2, 0, 4)), (2.0, 0.0)),
    "only_p_zero_rows": (_lp((0, 1, 1), (0, 2, 4)), (0.0, 2.0)),
    "no_row_above_the_ratio_floor": (_lp((1, 1, 1e-15), (2, 0, 0)), (0.0, 0.0)),
    "row_without_leverage": (_lp((1e-15, 0, 1), (1, 1, 1)), (INF, INF)),
}


@pytest.mark.parametrize("case", sorted(LP_EDGE_CASES))
def test_min_sum_constants_edge_cases(case):
    (p, q, c), want = LP_EDGE_CASES[case]
    if want is not None:
        assert _min_sum_constants(p, q, c) == want
    _assert_solves_the_lp(p, q, c)


small_int = st.integers(0, 4).map(float)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(small_int, small_int, small_int), min_size=1, max_size=8))
def test_min_sum_constants_on_small_integer_rows(rows):
    _assert_solves_the_lp(*_lp(*rows))


def test_audit_takes_one_contraction_sample_for_the_estimate_and_the_check(corpus):
    F, G, X, Y, fam = ex(corpus, "ex3")
    x0, y0 = corpus["ex3"].problem.seed
    cfg = SamplerConfig(samples_per_check=700, rng_seed=5)
    before = evaluation_count()
    rep = audit(F, G, X, Y, fam, x0, y0, cfg, with_estimates=True)
    with_estimates = evaluation_count() - before
    assert rep.contraction.to_dict() == check_contraction(F, G, X, Y, fam, cfg).to_dict()
    k_hat, l_hat = estimate_constants(F, G, X, Y, fam.kind, cfg)
    assert rep.estimated_constants == {"k": k_hat, "l": l_hat}
    before = evaluation_count()
    plain = audit(F, G, X, Y, fam, x0, y0, cfg).to_dict()
    assert evaluation_count() - before == with_estimates
    assert rep.to_dict() == {**plain, "estimated_constants": {"k": k_hat, "l": l_hat}}


def _planted_problem(x_kind, y_kind, dx, dy):
    """Maps on [0, 1] boxes that break each monotonicity clause on a few
    rows near the box's upper corner; under discrete orders, on every row
    where the pair differs."""
    def order(kind, dim):
        pairs = ((point(*[0.2] * dim), point(*[0.6] * dim)),) \
            if kind is OrderKind.DISCRETE_PLUS_PAIRS else ()
        return OrderSpec(kind=kind, extra_pairs=pairs)

    X = box_space((0.0,) * dx, (1.0,) * dx, order=order(x_kind, dx))
    Y = box_space((0.0,) * dy, (1.0,) * dy, order=order(y_kind, dy))
    F = parse_map("; ".join(f"a{i}/4 - b1/4 - 3*max(a1 - 0.95, 0) + 3*max(b1 - 0.95, 0)"
                            for i in range(1, dx + 1)), dx, dy, dx)
    G = parse_map("; ".join(f"a{j}/4 - b1/4 - 3*max(a1 - 0.95, 0) + 3*max(b1 - 0.95, 0)"
                            for j in range(1, dy + 1)), dy, dx, dy)
    return F, G, X, Y


C, R, D, P = (OrderKind.COMPONENTWISE, OrderKind.COMPONENTWISE_REVERSED,
              OrderKind.DISCRETE, OrderKind.DISCRETE_PLUS_PAIRS)


@pytest.mark.parametrize("x_kind, y_kind, dx, dy", [
    (C, C, 1, 1), (R, D, 2, 1), (D, C, 1, 3), (D, P, 2, 2), (C, P, 3, 2), (P, R, 2, 3),
], ids=lambda v: v.value if isinstance(v, OrderKind) else str(v))
def test_audit_shares_its_sample_stream_invisibly(x_kind, y_kind, dx, dy):
    # audit hands the contraction sample's draws on to the monotonicity
    # check; the check must come out as if it had drawn its own stream
    F, G, X, Y = _planted_problem(x_kind, y_kind, dx, dy)
    fam = ContractionFamily(FamilyKind.LIN_ASYM, 0.2, 0.2)
    x0, y0 = point(*[0.5] * dx), point(*[0.5] * dy)
    for rng_seed in (0, 7):
        cfg = SamplerConfig(samples_per_check=40, rng_seed=rng_seed)
        alone = check_mixed_monotone(F, G, X, Y, cfg)
        assert alone.counterexamples  # witness contexts are compared too
        for with_estimates in (False, True):
            rep = audit(F, G, X, Y, fam, x0, y0, cfg, with_estimates=with_estimates)
            assert rep.mixed_monotone.to_dict() == alone.to_dict()


# ---------------------------------------------------------------------------
# comparability

def test_comparability_total_orders_pass():
    X = box_space((-INF,), (0.0,))
    Y = box_space((0.0,), (INF,))
    assert check_comparability(X, Y).passed


def test_comparability_fails_on_discrete_component():
    X = box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE))
    Y = box_space((0.0,), (1.0,))
    rep = check_comparability(X, Y)
    assert not rep.passed
    # the corners of both boxes; the X parts are incomparable
    assert rep.failures == ({"p1_x": [0.0], "p1_y": [0.0], "p2_x": [1.0], "p2_y": [1.0]},)


def test_comparability_single_point_space_passes():
    X = box_space((0.0,), (0.0,))
    assert check_comparability(X, X).passed


# ---------------------------------------------------------------------------
# cross-module: monotone hypotheses imply ordered iterate sequences

def test_iterates_are_ordered_when_hypotheses_hold(corpus, corpus_runs):
    for eid, entry in corpus.items():
        p = entry.problem
        rep = check_mixed_monotone(p.F, p.G, p.X, p.Y, CFG)
        seed_rep = check_seed(p.F, p.G, p.X, p.Y, p.seed[0], p.seed[1])
        assert rep.passed and seed_rep.passed
        trace, _ = corpus_runs[eid]
        for (xn, yn), (xn1, yn1) in zip(trace.coords, trace.coords[1:]):
            assert leq(p.X, point(*xn), point(*xn1))
            assert leq(p.Y, point(*yn1), point(*yn))


@pytest.mark.parametrize("rng_seed", range(5))
def test_comparability_box_with_a_single_point_discrete_factor_passes(rng_seed):
    # the componentwise min of the two x parts, with y = 0, lies below both
    # points; a sampled candidate search once missed it on seeds 0 and 4.
    # The rule reads no sample, so the audit's verdict is the same on every seed.
    X = box_space((0.0, 0.0), (1.0, 1.0))
    Y = box_space((0.0,), (0.0,), order=OrderSpec(kind=OrderKind.DISCRETE))
    F = parse_map("a1/2; a2/2", 2, 1, 2)
    G = parse_map("b1 + b2", 1, 2, 1)
    rep = audit(F, G, X, Y, ContractionFamily(FamilyKind.LIN_ASYM, 0.5, 0.0),
                point(0.0, 0.0), point(0.0), SamplerConfig(rng_seed=rng_seed))
    assert rep.comparability == check_comparability(X, Y)
    assert rep.comparability.passed and rep.comparability.failures == ()


def test_comparability_discrete_slack_fails_exactly_the_far_pairs():
    slack = 0.05
    X = box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE, slack=slack))
    Y = box_space((0.0, 0.0), (1.0, 1.0))
    rep = check_comparability(X, Y)
    assert not rep.passed
    assert rep.failures == ({"p1_x": [0.0], "p1_y": [0.0, 0.0],
                             "p2_x": [1.0], "p2_y": [1.0, 1.0]},)
    # the reference rejects exactly the sampled pairs farther apart than the slack
    rng = np.random.default_rng(4)
    X1, X2 = sample_points(X, 200, rng), sample_points(X, 200, rng)
    far = np.abs(X1 - X2)[:, 0] > slack
    assert far.any() and not far.all()
    assert (~common_bounds_batch(X, X1, X2)).tolist() == far.tolist()


@pytest.mark.parametrize("extent", [0.0, 0.03125, 0.0625])
def test_comparability_discrete_box_within_the_slack_passes(extent):
    # powers of two keep every extent exact in floating point
    for kind in (OrderKind.DISCRETE, OrderKind.DISCRETE_PLUS_PAIRS):
        X = box_space((0.5, 2.0), (0.5 + extent, 2.0 + extent),
                      order=OrderSpec(kind=kind, slack=0.0625))
        assert check_comparability(X, X) == ComparabilityCheck(True)


def test_comparability_box_just_above_the_slack_fails():
    slack = 0.05
    X = box_space((0.0,), (math.nextafter(slack, 1.0),),
                  order=OrderSpec(kind=OrderKind.DISCRETE, slack=slack))
    Y = box_space((0.0,), (1.0,))
    rep = check_comparability(X, Y)
    assert not rep.passed
    (w,) = rep.failures
    assert not common_bounds_batch(X, np.array([w["p1_x"]]), np.array([w["p2_x"]]))[0]
    # a sample of pairs almost never sees the failure
    rng = np.random.default_rng(0)
    assert common_bounds_batch(X, sample_points(X, 200, rng), sample_points(X, 200, rng)).all()


def test_comparability_listed_corners_fail_with_a_rejected_witness():
    Y = box_space((-1.0,), (0.0,),
                  order=OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
                                  extra_pairs=((point(-1.0), point(0.0)),)))
    corners = np.array([[-1.0]]), np.array([[0.0]])
    assert common_bounds_batch(Y, *corners)[0]
    rep = check_comparability(box_space((0.0,), (1.0,)), Y)
    assert not rep.passed
    (w,) = rep.failures
    assert w["p1_y"] == [-1.0] and w["p2_y"] != [0.0]
    assert not common_bounds_batch(Y, np.array([w["p1_y"]]), np.array([w["p2_y"]]))[0]


def test_comparability_box_the_slack_covers_fails_without_a_witness():
    # every two points of [0, 0.15] farther apart than the slack lie within
    # the slack of the listed 0 <= 0.15, so no pair is rejected; the box
    # still holds distinct points the listed relation does not order
    X = box_space((0.0,), (0.15,),
                  order=OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS, slack=0.1,
                                  extra_pairs=((point(0.0), point(0.15)),)))
    assert check_comparability(X, X) == ComparabilityCheck(False)


_DPP = OrderKind.DISCRETE_PLUS_PAIRS
COMPARABILITY_SPACES = [
    box_space((-INF,), (0.0,)),
    box_space((0.0, -1.0), (1.0, 1.0), order=OrderSpec(kind=OrderKind.COMPONENTWISE_REVERSED)),
    box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE)),
    box_space((0.0, 0.0), (0.0, 0.0), order=OrderSpec(kind=OrderKind.DISCRETE)),
    box_space((0.0,), (0.04,), order=OrderSpec(kind=OrderKind.DISCRETE, slack=0.05)),
    box_space((0.0,), (0.2,), order=OrderSpec(kind=OrderKind.DISCRETE, slack=0.05)),
    box_space((-1.0,), (0.0,),
              order=OrderSpec(kind=_DPP, extra_pairs=((point(-1.0), point(0.0)),))),
    box_space((0.0,), (1.0,), order=OrderSpec(
        kind=_DPP, extra_pairs=tuple((point(0.0), point(j / 4)) for j in range(1, 5)))),
    box_space((0.0, 0.0), (1.0, 2.0), order=OrderSpec(
        kind=_DPP, extra_pairs=((point(0.0, 0.0), point(1.0, 2.0)),
                                (point(1.0, 2.0), point(1.0, 1.0))))),
]


def _sampled_pair_rejected(space, rng) -> bool:
    """The reference: does common_bounds_batch reject any pair among the box
    corners, the listed points and a sample of the box?"""
    listed = np.reshape([p for pair in space.order.closure for p in pair], (-1, space.dim))
    pts = np.concatenate([np.asarray(space.sampling_box), listed, sample_points(space, 60, rng)])
    i, j = np.triu_indices(len(pts), 1)
    return not common_bounds_batch(space, pts[i], pts[j]).all()


@pytest.mark.parametrize("xi", range(len(COMPARABILITY_SPACES)))
@pytest.mark.parametrize("yi", range(len(COMPARABILITY_SPACES)))
def test_comparability_rule_agrees_with_sampled_reference(xi, yi):
    X, Y = COMPARABILITY_SPACES[xi], COMPARABILITY_SPACES[yi]
    rep = check_comparability(X, Y)
    rng = np.random.default_rng(xi * 100 + yi)
    # a product pair is rejected iff its X parts or its Y parts are
    if _sampled_pair_rejected(X, rng) or _sampled_pair_rejected(Y, rng):
        assert not rep.passed
    assert len(rep.failures) == (0 if rep.passed else 1)
    for w in rep.failures:
        pair = {k: np.array([v]) for k, v in w.items()}
        assert not (common_bounds_batch(X, pair["p1_x"], pair["p2_x"])
                    & common_bounds_batch(Y, pair["p1_y"], pair["p2_y"]))[0]
