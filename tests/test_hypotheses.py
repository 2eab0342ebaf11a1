import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgfp import (ContractionFamily, EvaluationError, FamilyKind, SampleError,
                  SamplerConfig, box_space, check_comparability, check_seed, eval_map,
                  parse_map, point)
from fgfp import hypotheses
from fgfp.hypotheses import (_BLOCK, _FAMILIES, CONTRACTION_SLACK, MAX_WITNESSES,
                             RATIO_FLOOR, ComparabilityCheck, _Block, _contraction_terms,
                             _min_sum_constants, _Pairs, audit)
from fgfp.maps import eval_map_batch, evaluation_count
from fgfp.spaces import (OrderKind, OrderSpec, common_bounds_batch, distance_batch, leq,
                         leq_batch, metric_distance, ordered_pairs, sample_points)

from sampled_audit import corner_audit, estimated

INF = float("inf")
CFG = SamplerConfig(samples_per_check=500, rng_seed=0)


def ex(corpus, eid):
    p = corpus[eid].problem
    return p.F, p.G, p.X, p.Y, p.family


# ---------------------------------------------------------------------------
# sampler configuration

@pytest.mark.parametrize("field, value", [
    ("samples_per_check", 0), ("samples_per_check", True), ("samples_per_check", 2.0),
    ("rng_seed", -1), ("rng_seed", 1.5), ("rng_seed", "3"), ("rng_seed", None),
])
def test_sampler_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a (positive|nonnegative) integer$"):
        SamplerConfig(**{field: value})


@pytest.mark.parametrize("rng_seed", [2**70, np.int64(3)], ids=["wide", "numpy"])
def test_sampler_config_accepts_every_nonnegative_integer_seed(rng_seed, corpus):
    p = corpus["ex1"].problem
    rep = audit(p.F, p.G, p.X, p.Y, p.family, *p.seed, SamplerConfig(5, rng_seed))
    assert rep.mixed_monotone.checked == 20


# ---------------------------------------------------------------------------
# mixed monotonicity

def test_monotone_pass_on_reference_maps(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    rep = corner_audit(F, G, X, Y, CFG).mixed_monotone
    assert rep.passed and rep.counterexamples == ()


def test_monotone_constant_maps_pass():
    X = box_space((-1.0,), (1.0,))
    F = parse_map("0.5", 1, 1, 1)
    G = parse_map("-0.5", 1, 1, 1)
    assert corner_audit(F, G, X, X, CFG).mixed_monotone.passed


def test_monotone_fail_with_reusable_witness():
    X = box_space((-INF,), (0.0,))
    Y = box_space((0.0,), (INF,))
    F = parse_map("b1", 1, 1, 1)  # increasing in the second argument: wrong way
    G = parse_map("(a1 - b1)/5", 1, 1, 1)
    rep = corner_audit(F, G, X, Y, CFG).mixed_monotone
    assert not rep.passed
    w = next(w for w in rep.counterexamples if w["clause"] == "F_decr_second")
    # the witness must re-fail when evaluated independently
    img_lo = eval_map(F, point(*w["context"]), point(*w["low"]))
    img_hi = eval_map(F, point(*w["context"]), point(*w["high"]))
    assert not leq(X, img_hi, img_lo)


def test_monotone_pass_under_discrete_orders(corpus):
    F, G, X, Y, _ = ex(corpus, "ex4")
    assert corner_audit(F, G, X, Y, CFG).mixed_monotone.passed


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
        rep = corner_audit(F, G, X, Y, CFG, fam).contraction
        assert rep.passed, eid
        assert rep.f_side.violations == () and rep.g_side.violations == ()


def test_contraction_tight_ratio_near_one(corpus):
    F, G, X, Y, fam = ex(corpus, "ex1")
    rep = corner_audit(F, G, X, Y, CFG, fam).contraction
    assert abs(rep.f_side.max_ratio - 1.0) < 1e-12
    assert abs(rep.g_side.max_ratio - 1.0) < 1e-12


def test_contraction_fail_for_expanding_map():
    X = box_space((-INF,), (INF,))
    F = parse_map("2*a1", 1, 1, 1)
    G = parse_map("-2*a1", 1, 1, 1)
    fam = ContractionFamily(FamilyKind.SYM_HALF, 0.99, 0.99)
    rep = corner_audit(F, G, X, X, CFG, fam).contraction
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


@pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
def test_an_overflowing_sampled_distance_raises_sample_error(kind):
    # the images of F stay finite, but their distance under d_X overflows;
    # warnings are errors here, so numpy must stay silent too
    X = box_space((-10.0, -10.0), (0.0, 0.0))
    Y = box_space((0.0,), (10.0,))
    F = parse_map("1.7e307*a1 - b1/100; 1.7e307*a2", 2, 1, 2)
    G = parse_map("(a1 - b1)/5", 1, 2, 1)
    fam = ContractionFamily(kind, 0.3, 0.3)
    cfg = SamplerConfig(samples_per_check=200, rng_seed=0)
    for run in (partial(corner_audit, F, G, X, Y, cfg, fam),
                partial(estimated, F, G, X, Y, kind, cfg),
                partial(audit, F, G, X, Y, fam, point(-1.0, -1.0), point(1.0), cfg,
                        with_estimates=True)):
        with pytest.raises(SampleError,
                           match="^a sampled distance overflows at contraction sample 0$"):
            run()


@pytest.mark.parametrize("kind, want", [
    (FamilyKind.SYM_HALF, (1.9999999999999933e+300, 0.39999999999999863)),
    (FamilyKind.LIN_ASYM, (0.2, 1.0000000000000314e+300)),
    (FamilyKind.KANNAN, (0.2407460551044867, 0.9907460551044941)),
    (FamilyKind.CHATTERJEA, (0.9925416285972121, 0.0)),
], ids=[kind.value for kind in FamilyKind])
def test_estimate_with_a_ratio_beyond_the_double_range_is_silent(kind, want):
    # lhs near 1e300 over p below 1e-12: some c/p overflows a double;
    # warnings are errors here, and the estimates keep their bits
    X = box_space((0.0,), (1e-12,))
    Y = box_space((0.0,), (1.0,))
    F = parse_map("-1e300*b1", 1, 1, 1)
    G = parse_map("a1/5", 1, 1, 1)
    cfg = SamplerConfig(samples_per_check=200, rng_seed=0)
    assert estimated(F, G, X, Y, kind, cfg) == want


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_ordered_pairs_on_listed_relations_match_the_row_loop(n):
    order = OrderSpec(kind=OrderKind.DISCRETE_PLUS_PAIRS,
                      extra_pairs=((point(0.0, 0.5), point(1.0, 0.25)),
                                   (point(1.0, 0.25), point(2.0, 2.0)),
                                   (point(0.5, 0.5), point(0.75, 1.5))))
    space = box_space((0.0, 0.0), (2.0, 2.0), order=order)
    lo, hi = ordered_pairs(space, n, np.random.default_rng(4))
    want_lo = sample_points(space, n, np.random.default_rng(4))
    want_hi = want_lo.copy()
    closure = space.order.closure
    for i in range(1, n, 2):
        want_lo[i], want_hi[i] = closure[(i // 2) % len(closure)]
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def test_checkers_are_deterministic(corpus):
    F, G, X, Y, fam = ex(corpus, "ex2")
    a, b = (corner_audit(F, G, X, Y, SamplerConfig(rng_seed=11), fam) for _ in range(2))
    assert a.contraction.to_dict() == b.contraction.to_dict()
    assert a.mixed_monotone.to_dict() == b.mixed_monotone.to_dict()


# ---------------------------------------------------------------------------
# constant estimation

def test_estimate_symmetric_half_reference(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    cfg = SamplerConfig(samples_per_check=2000, rng_seed=0)
    k_hat, l_hat = estimated(F, G, X, Y, FamilyKind.SYM_HALF, cfg)
    assert abs(k_hat - 2.0 / 3.0) < 0.02
    assert abs(l_hat - 2.0 / 5.0) < 0.02


def test_estimate_linear_asymmetric_reference(corpus):
    F, G, X, Y, _ = ex(corpus, "ex2")
    cfg = SamplerConfig(samples_per_check=2000, rng_seed=0)
    k_hat, l_hat = estimated(F, G, X, Y, FamilyKind.LIN_ASYM, cfg)
    assert abs(k_hat - 4.0 / 17.0) < 0.02
    assert abs(l_hat - 3.0 / 17.0) < 0.02


def test_estimate_constant_maps_give_zero():
    X = box_space((-1.0,), (1.0,))
    F = parse_map("0.25", 1, 1, 1)
    G = parse_map("-0.25", 1, 1, 1)
    assert estimated(F, G, X, X, FamilyKind.SYM_HALF, CFG) == (0.0, 0.0)
    assert estimated(F, G, X, X, FamilyKind.LIN_ASYM, CFG) == (0.0, 0.0)


def test_estimates_feed_back_into_passing_checks(corpus):
    for eid in ("ex1", "ex2", "ex3", "ex4", "coupled-reg"):
        F, G, X, Y, fam = ex(corpus, eid)
        cfg = SamplerConfig(samples_per_check=800, rng_seed=3)
        k_hat, l_hat = estimated(F, G, X, Y, fam.kind, cfg)
        inflated = ContractionFamily(fam.kind, k_hat + 1e-9, l_hat + 1e-9)
        rep = corner_audit(F, G, X, Y, cfg, inflated).contraction
        assert rep.passed, eid


def test_estimates_stable_across_sampling_seeds(corpus):
    F, G, X, Y, _ = ex(corpus, "ex1")
    values = [estimated(F, G, X, Y, FamilyKind.SYM_HALF,
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
        estimated(F, G, X, X, FamilyKind.SYM_HALF, CFG)


def test_sym_half_estimate_ignores_left_sides_at_the_ratio_floor(corpus):
    # every left side is about 1e-20 |x - u|, at most 1e-19: below RATIO_FLOOR
    F, G, X, Y, _ = ex(corpus, "ex1")
    tiny = parse_map("1e-20*(a1 - b1)", 1, 1, 1)
    x0, y0 = corpus["ex1"].problem.seed
    fam = ContractionFamily(FamilyKind.SYM_HALF, 0.5, 0.4)
    rep = audit(tiny, G, X, Y, fam, x0, y0, SamplerConfig(), with_estimates=True)
    _, l_hat = estimated(F, G, X, Y, FamilyKind.SYM_HALF, SamplerConfig())
    assert rep.estimated_constants == {"k": 0.0, "l": l_hat}


def test_sym_half_left_side_over_a_zero_right_side_admits_no_constants():
    # X = [0, 1e-11]: some pairs have (d_X + d_Y)/2 <= RATIO_FLOOR < lhs = 1000 d_X
    X = box_space((0.0,), (1e-11,))
    Y = box_space((0.0,), (0.0,))
    F = parse_map("1000*a1", 1, 1, 1)
    G = parse_map("a1", 1, 1, 1)
    cfg = SamplerConfig(samples_per_check=2000, rng_seed=0)
    for kind in (FamilyKind.SYM_HALF, FamilyKind.LIN_ASYM):
        assert estimated(F, G, X, Y, kind, cfg) == (INF, INF)
    fam = ContractionFamily(FamilyKind.SYM_HALF, 0.5, 0.5)
    assert not corner_audit(F, G, X, Y, cfg, fam).contraction.passed


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
                b = _Block(slice(0, 2000), *_whole_sample(p, SamplerConfig(2000, rng_seed)))
                f, g = _contraction_terms(p.F, p.G, p.X, p.Y, kind, b)
                yield tuple(np.concatenate(columns) for columns in zip(f, g))
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


@pytest.mark.parametrize("rows, want", [
    # c/p overflows on a row with no l-leverage: no finite k holds it
    (((1e-10, 0.0, 1e300),), (INF, INF)),
    # c/p overflows on the first row, so k_hi stops at the largest double,
    # where the walk values the lines before it takes the crossing
    (((1e-10, 1.0, 1e300), (2.0, 1.0, 1e301)), (4.5000000002250005e+300, 9.9999999955e+299)),
    # c_a q_b and p_a q_b overflow in the crossing of the two lines, which
    # looped forever on nan; the answer is the exact crossing, rounded
    (((4.210483894661367e+224, 1.730626898502785e+22, 1.9399871460462765e+179),
      (1.5723163398252519e+88, 7.273463202646366e+283, 1.1391952592918285e+188)),
     (4.607515892665116e-46, 1.5662349936373438e-96)),
    # c_a/q_a and p_a/q_a overflow too: the crossing is inf/inf, which
    # looped forever on nan; k goes to hi, here the optimum
    (((1e300, 2e-14, 1e300), (1.0, 1e20, 1e10)), (1.0, 9.999999999e-11)),
], ids=["floor", "ceiling", "crossing", "infinite_crossing"])
def test_min_sum_constants_on_rows_whose_ratios_overflow(rows, want):
    assert _min_sum_constants(*_lp(*rows)) == want


@pytest.mark.parametrize("rows", [
    ((4.7e105, 7.5e30, 1.09e244), (0.0, 1.4e89, 1.84e126)),
    ((4.712874398608217e+105, 7.46546800706458e+30, 1.079993222821809e+244),
     (0.0, 1.4e89, 1.84e126)),
], ids=["rounded", "cancelling"])
def test_min_sum_constants_on_rows_of_extreme_scale_stay_feasible(rows):
    # the rows' scales span about 1e140, so top(k) cancels: the second set
    # gets l = 2.03e197 where the optimum has l = 1.31e37, but every row
    # still holds up to rounding
    p, q, c = _lp(*rows)
    k, l = _min_sum_constants(p, q, c)
    assert k >= 0.0 and l >= 0.0
    assert (k * p + l * q >= c * (1.0 - 1e-12)).all()


def test_audit_takes_one_contraction_sample_for_the_estimate_and_the_check(corpus):
    F, G, X, Y, fam = ex(corpus, "ex3")
    x0, y0 = corpus["ex3"].problem.seed
    cfg = SamplerConfig(samples_per_check=700, rng_seed=5)
    before = evaluation_count()
    rep = audit(F, G, X, Y, fam, x0, y0, cfg, with_estimates=True)
    with_estimates = evaluation_count() - before
    # the estimate reads neither the family's constants nor the seed
    k_hat, l_hat = estimated(F, G, X, Y, fam.kind, cfg)
    assert rep.estimated_constants == {"k": k_hat, "l": l_hat}
    before = evaluation_count()
    plain = audit(F, G, X, Y, fam, x0, y0, cfg).to_dict()
    assert evaluation_count() - before == with_estimates
    assert rep.to_dict() == {**plain, "estimated_constants": {"k": k_hat, "l": l_hat}}


def _planted_problem(x_kind, y_kind, dx, dy, corner=0.95):
    """Maps on [0, 1] boxes that break each monotonicity clause on the rows
    beyond ``corner``, a few near the box's upper corner by default; under
    discrete orders, on every row where the pair differs."""
    def order(kind, dim):
        pairs = ((point(*[0.2] * dim), point(*[0.6] * dim)),
                 (point(*[0.6] * dim), point(*[0.9] * dim))) \
            if kind is OrderKind.DISCRETE_PLUS_PAIRS else ()
        return OrderSpec(kind=kind, extra_pairs=pairs)

    X = box_space((0.0,) * dx, (1.0,) * dx, order=order(x_kind, dx))
    Y = box_space((0.0,) * dy, (1.0,) * dy, order=order(y_kind, dy))
    F = parse_map("; ".join(f"a{i}/4 - b1/4 - 3*max(a1 - {corner}, 0) + 3*max(b1 - {corner}, 0)"
                            for i in range(1, dx + 1)), dx, dy, dx)
    G = parse_map("; ".join(f"a{j}/4 - b1/4 - 3*max(a1 - {corner}, 0) + 3*max(b1 - {corner}, 0)"
                            for j in range(1, dy + 1)), dy, dx, dy)
    return F, G, X, Y


C, R, D, P = (OrderKind.COMPONENTWISE, OrderKind.COMPONENTWISE_REVERSED,
              OrderKind.DISCRETE, OrderKind.DISCRETE_PLUS_PAIRS)


# (X order, Y order, X dimension, Y dimension): every order kind on each side
ORDER_PAIRS = pytest.mark.parametrize("x_kind, y_kind, dx, dy", [
    (C, C, 1, 1), (R, D, 2, 1), (D, C, 1, 3), (D, P, 2, 2), (C, P, 3, 2), (P, R, 2, 3),
], ids=lambda v: v.value if isinstance(v, OrderKind) else str(v))


@ORDER_PAIRS
def test_audit_shares_its_sample_stream_invisibly(x_kind, y_kind, dx, dy):
    # audit draws one sample of ordered pairs for all three checks; keeping
    # the estimate's terms changes neither the monotonicity section nor the
    # estimate, which reads neither the family's constants nor the seed
    F, G, X, Y = _planted_problem(x_kind, y_kind, dx, dy)
    fam = ContractionFamily(FamilyKind.LIN_ASYM, 0.2, 0.2)
    x0, y0 = point(*[0.5] * dx), point(*[0.5] * dy)
    for rng_seed in (0, 7):
        cfg = SamplerConfig(samples_per_check=40, rng_seed=rng_seed)
        plain, rep = (audit(F, G, X, Y, fam, x0, y0, cfg, with_estimates=with_estimates)
                      for with_estimates in (False, True))
        assert plain.mixed_monotone.counterexamples  # witness contexts are compared too
        assert rep.mixed_monotone.to_dict() == plain.mixed_monotone.to_dict()
        k_hat, l_hat = estimated(F, G, X, Y, fam.kind, cfg)
        assert rep.estimated_constants == {"k": k_hat, "l": l_hat}


# ---------------------------------------------------------------------------
# blocked evaluation

def _side_reference(side, lhs, rhs, roles):
    """One inequality's verdict, as a report section, from whole columns."""
    bad = np.flatnonzero(lhs > rhs + CONTRACTION_SLACK)
    usable = rhs >= RATIO_FLOOR
    return {"passed": not bad.size, "checked": len(lhs),
            "max_ratio": float((lhs[usable] / rhs[usable]).max()) if usable.any() else None,
            "violations": [{"side": side, **{r: a[i].tolist() for r, a in zip("xuyv", roles)},
                            "lhs": float(lhs[i]), "rhs": float(rhs[i])}
                           for i in bad[:MAX_WITNESSES]]}


def _uniform(S, n, rng):
    """n row-major uniform draws from S's sampling box."""
    return rng.uniform(*S.sampling_box, (n, S.dim))


def _reference_pairs(S, n, rng):
    """``ordered_pairs(S, n, rng)`` built from row-major ``uniform`` draws,
    sharing no code with ``spaces``' sampling: the rowwise min and max of
    two draws, or one draw with the listed relations on its odd rows."""
    if S.order.componentwise:
        U, V = _uniform(S, n, rng), _uniform(S, n, rng)
        lo, hi = np.minimum(U, V), np.maximum(U, V)
        return (hi, lo) if S.order.kind is OrderKind.COMPONENTWISE_REVERSED else (lo, hi)
    lo = _uniform(S, n, rng)
    hi = lo.copy()
    closure = S.order.closure
    if closure:
        for i in range(1, n, 2):
            lo[i], hi[i] = closure[(i // 2) % len(closure)]
    return lo, hi


def _whole_array_audit(F, G, X, Y, family, cfg):
    """The audit's contraction and monotonicity results, with every map
    image evaluated whole, from X pairs, Y pairs, Y contexts and X contexts
    drawn in that order with ``rng.uniform``, row-major; also the global
    rows of the contraction violations and of the monotonicity witnesses."""
    rng, n = cfg.rng(), cfg.samples_per_check
    x_lo, x_hi = _reference_pairs(X, n, rng)
    y_lo, y_hi = _reference_pairs(Y, n, rng)
    F_xy, F_uv = eval_map_batch(F, x_hi, y_lo), eval_map_batch(F, x_lo, y_hi)
    G_yx, G_vu = eval_map_batch(G, y_hi, x_lo), eval_map_batch(G, y_lo, x_hi)
    pairs = _Pairs(partial(distance_batch, X), partial(distance_batch, Y),
                   x_lo, x_hi, y_lo, y_hi, F_xy, F_uv, G_yx, G_vu)
    (p_f, q_f), (p_g, q_g) = _FAMILIES[family.kind].columns(pairs)
    lhs_f, lhs_g = distance_batch(X, F_xy, F_uv), distance_batch(Y, G_yx, G_vu)
    k, l = family.k, family.l
    rhs_f, rhs_g = k * p_f + l * q_f, k * p_g + l * q_g
    bad_rows = [np.flatnonzero(lhs > rhs + CONTRACTION_SLACK)
                for lhs, rhs in ((lhs_f, rhs_f), (lhs_g, rhs_g))]
    f_side = _side_reference("F", lhs_f, rhs_f, (x_hi, x_lo, y_lo, y_hi))
    g_side = _side_reference("G", lhs_g, rhs_g, (x_lo, x_hi, y_hi, y_lo))
    contraction = {"passed": f_side["passed"] and g_side["passed"],
                   "family": family.to_dict(), "inequality_f": f_side, "inequality_g": g_side}
    p, q = np.concatenate([p_f, p_g]), np.concatenate([q_f, q_g])
    estimates = None  # degenerate: audit raises SampleError
    if (np.maximum(p, q) >= RATIO_FLOOR).any():
        k_hat, l_hat = _min_sum_constants(p, q, np.concatenate([lhs_f, lhs_g]))
        estimates = {"k": k_hat, "l": l_hat}

    y_ctx = _uniform(Y, n, rng)
    x_ctx = _uniform(X, n, rng)
    clauses = (
        ("F_incr_first", X, x_lo, x_hi, y_ctx,
         eval_map_batch(F, x_lo, y_ctx), eval_map_batch(F, x_hi, y_ctx), False),
        ("G_decr_second", Y, x_lo, x_hi, y_ctx,
         eval_map_batch(G, y_ctx, x_lo), eval_map_batch(G, y_ctx, x_hi), True),
        ("F_decr_second", X, y_lo, y_hi, x_ctx,
         eval_map_batch(F, x_ctx, y_lo), eval_map_batch(F, x_ctx, y_hi), True),
        ("G_incr_first", Y, y_lo, y_hi, x_ctx,
         eval_map_batch(G, y_lo, x_ctx), eval_map_batch(G, y_hi, x_ctx), False),
    )
    witnesses, witness_rows, clause_rows = [], [], []
    for clause, S, lo, hi, ctx, img_lo, img_hi, decreasing in clauses:
        ok = leq_batch(S, img_hi, img_lo) if decreasing else leq_batch(S, img_lo, img_hi)
        rows = np.flatnonzero(~ok)
        clause_rows.append(rows)
        for i in rows[:MAX_WITNESSES - len(witnesses)]:
            witness_rows.append(int(i))
            witnesses.append({"clause": clause, "low": lo[i].tolist(), "high": hi[i].tolist(),
                              "context": ctx[i].tolist(), "image_low": img_lo[i].tolist(),
                              "image_high": img_hi[i].tolist()})
    monotone = {"passed": not any(r.size for r in clause_rows),
                "checked": 4 * cfg.samples_per_check, "counterexamples": witnesses}
    return contraction, monotone, estimates, bad_rows, clause_rows, witness_rows


def _rare_breaks(rate_f, rate_g):
    """Maps on [0, 1]^2 x [0, 1] whose slope in x flips sign where the
    context y passes 1 - rate: F breaks F_incr_first at about ``rate_f`` of
    the rows, G breaks G_decr_second at about ``rate_g``, and both break
    the contraction inequalities near y = 1."""
    slope = 100.0
    t_f = 1.0 - rate_f - 1.0 / (4.0 * slope)
    t_g = 1.0 - rate_g - 1.0 / (4.0 * slope)
    X = box_space((0.0, 0.0), (1.0, 1.0))
    Y = box_space((0.0,), (1.0,))
    F = parse_map(f"a1/4 - b1/4 - {slope!r}*a1*max(b1 - {t_f!r}, 0); a2/4 - b1/4", 2, 1, 2)
    G = parse_map(f"a1/4 - b1/4 + {slope!r}*b1*max(a1 - {t_g!r}, 0)", 1, 2, 1)
    return F, G, X, Y


BLOCK_FAMILIES = [
    ContractionFamily(FamilyKind.SYM_HALF, 0.6, 0.6),
    ContractionFamily(FamilyKind.LIN_ASYM, 0.3, 0.6),
    ContractionFamily(FamilyKind.KANNAN, 0.3, 0.3),
    ContractionFamily(FamilyKind.CHATTERJEA, 0.3, 0.3),
]


@pytest.mark.parametrize("n", [2 * _BLOCK + 1, 2 * _BLOCK])
@pytest.mark.parametrize("family", BLOCK_FAMILIES, ids=lambda f: f.kind.value)
def test_blocked_audit_matches_the_whole_array_reference(family, n, monkeypatch):
    F, G, X, Y = _rare_breaks(1 / 4000, 1 / 2500)
    cfg = SamplerConfig(samples_per_check=n, rng_seed=0)
    contraction, monotone, estimates, bad_rows, clause_rows, witness_rows = \
        _whole_array_audit(F, G, X, Y, family, cfg)
    # the planted breaks fall in more than one block, and the witness cap
    # is reached in a later block of the second clause
    assert all(len(set(rows // _BLOCK)) > 1 for rows in bad_rows)
    assert all(len(set(rows // _BLOCK)) > 1 for rows in clause_rows[:2])
    assert len(witness_rows) == MAX_WITNESSES
    assert monotone["counterexamples"][-1]["clause"] == "G_decr_second"
    assert witness_rows[-1] >= _BLOCK

    block_rows = []

    def counting(m, A, B):
        block_rows.append(len(A))
        return eval_map_batch(m, A, B)

    monkeypatch.setattr(hypotheses, "eval_map_batch", counting)
    got = audit(F, G, X, Y, family, point(0.5, 0.5), point(0.5), cfg,
                with_estimates=True).to_dict()
    assert got["contraction"] == contraction
    assert got["mixed_monotone"] == monotone
    assert got["estimated_constants"] == estimates
    assert max(block_rows) == _BLOCK and sum(block_rows) == 12 * n


@pytest.mark.parametrize("block", [7, _BLOCK])
@ORDER_PAIRS
def test_audit_matches_the_whole_sample_reference_at_block_edges(x_kind, y_kind, dx, dy, block,
                                                                 monkeypatch):
    # an odd block size starts every other block on an odd row: the listed
    # relations of DISCRETE_PLUS_PAIRS fall on the whole sample's odd rows
    monkeypatch.setattr(hypotheses, "_BLOCK", block)
    F, G, X, Y = _planted_problem(x_kind, y_kind, dx, dy, corner=0.6)
    x0, y0 = point(*[0.5] * dx), point(*[0.5] * dy)
    for n in (1, block - 1, block, block + 1, 2 * block + 3):
        for family in BLOCK_FAMILIES:
            cfg = SamplerConfig(samples_per_check=n, rng_seed=7)
            contraction, monotone, estimates, bad_rows, _, witness_rows = \
                _whole_array_audit(F, G, X, Y, family, cfg)
            got = audit(F, G, X, Y, family, x0, y0, cfg).to_dict()
            assert got["contraction"] == contraction
            assert got["mixed_monotone"] == monotone
            if estimates is None:
                with pytest.raises(SampleError, match="degenerate"):
                    audit(F, G, X, Y, family, x0, y0, cfg, with_estimates=True)
            else:
                rep = audit(F, G, X, Y, family, x0, y0, cfg, with_estimates=True)
                assert rep.estimated_constants == estimates
    # in the largest sample the contraction violations fall in more than one
    # block; at block size 7 the witnesses do too, and in more than one
    # clause, but under a discrete X order, where every differing Y pair
    # breaks F_decr_second
    assert all(len(set(rows // block)) > 1 for rows in bad_rows)
    if block == 7:
        clauses = {w["clause"] for w in monotone["counterexamples"]}
        assert len({r // block for r in witness_rows}) > 1
        assert len(clauses) > 1 or x_kind is D and clauses == {"F_decr_second"}


@ORDER_PAIRS
def test_the_walk_passes_contiguous_columns(x_kind, y_kind, dx, dy, monkeypatch):
    # every kernel reads its arrays one column at a time
    F, G, X, Y = _planted_problem(x_kind, y_kind, dx, dy)
    seen = []

    def spy(kernel):
        def call(*args):
            out = kernel(*args)
            seen.extend(a for a in (*args, out) if isinstance(a, np.ndarray) and a.ndim == 2)
            return out
        return call

    for name in ("eval_map_batch", "distance_batch", "leq_batch"):
        monkeypatch.setattr(hypotheses, name, spy(getattr(hypotheses, name)))
    for m in (F, G):  # the generated vector mode, which eval_map_batch runs
        object.__setattr__(m, "vector", spy(m.vector))
    cfg = SamplerConfig(samples_per_check=50, rng_seed=3)
    kannan = BLOCK_FAMILIES[2]  # its distance terms read the pairs and the images
    audit(F, G, X, Y, kannan, point(*[0.5] * dx), point(*[0.5] * dy), cfg, with_estimates=True)
    assert {a.shape[1] for a in seen} == {dx, dy}
    assert all(a.strides[0] == a.itemsize for a in seen)


def test_contraction_phase_error_names_the_first_whole_image_sample(corpus):
    # F(x_hi, y_lo) is evaluated before F(x_lo, y_hi), so its pole in block 2
    # is reported, not F(x_lo, y_hi)'s in block 0
    p = corpus["ex1"].problem
    cfg = SamplerConfig(samples_per_check=2 * _BLOCK + 1, rng_seed=0)
    x_lo, x_hi = ordered_pairs(p.X, cfg.samples_per_check, cfg.rng())
    r2, r0 = 2 * _BLOCK, 5
    v1, v2 = float(x_hi[r2, 0]), float(x_lo[r0, 0])
    F = parse_map(f"(a1 - b1)/3 + 1/((a1 - ({v1!r}))*(a1 - ({v2!r})))", 1, 1, 1)
    with pytest.raises(EvaluationError) as err:
        audit(F, p.G, p.X, p.Y, p.family, *p.seed, cfg)
    assert str(err.value) == (
        "non-finite value in output coordinate 1 at sample 16384 (inputs "
        "a=[-1.0827599853424594], b=[3.6935108193649233])")


def test_monotonicity_phase_error_names_the_first_whole_image_sample(corpus):
    # F(x_ctx, y_lo) of the third clause is the first whole image with a
    # pole, in block 2; G(y_lo, x_ctx) of the fourth clause has one in block 0
    p = corpus["ex1"].problem
    cfg = SamplerConfig(samples_per_check=2 * _BLOCK + 1, rng_seed=0)
    n, rng = cfg.samples_per_check, cfg.rng()
    ordered_pairs(p.X, n, rng)
    ordered_pairs(p.Y, n, rng)
    sample_points(p.Y, n, rng)
    x_ctx = sample_points(p.X, n, rng)
    w1, w2 = float(x_ctx[2 * _BLOCK, 0]), float(x_ctx[5, 0])
    F = parse_map(f"(a1 - b1)/3 + 1/(a1 - ({w1!r}))", 1, 1, 1)
    G = parse_map(f"(a1 - b1)/5 + 1/(b1 - ({w2!r}))", 1, 1, 1)
    with pytest.raises(EvaluationError) as err:
        audit(F, G, p.X, p.Y, p.family, *p.seed, cfg)
    assert str(err.value) == (
        "non-finite value in output coordinate 1 at sample 16384 (inputs "
        "a=[-8.757199925059268], b=[3.6935108193649233])")


def test_positioned_draws_equal_one_whole_draw():
    # the audit draws its sample block by block from SamplerConfig.rng(),
    # moved with bit_generator.advance; that holds while random takes one
    # 64-bit output per double, and a numpy change that breaks it fails here
    whole = SamplerConfig(rng_seed=11).rng().random((40, 3))
    rng, at, parts = SamplerConfig(rng_seed=11).rng(), 0, {}
    for start, stop in ((25, 40), (0, 10), (10, 25)):  # back to row 0 wraps the period
        rng.bit_generator.advance((3 * start - at) % 2**128)
        parts[start] = rng.random((stop - start, 3))
        at = 3 * stop
    assert np.array_equal(np.concatenate([parts[r] for r in sorted(parts)]), whole)


def _whole_sample(p, cfg):
    """The audit's sample drawn whole: X pairs, Y pairs, Y contexts, X contexts."""
    n, rng = cfg.samples_per_check, cfg.rng()
    return (*ordered_pairs(p.X, n, rng), *ordered_pairs(p.Y, n, rng),
            sample_points(p.Y, n, rng), sample_points(p.X, n, rng))


def _first_image_error(*images):
    """The message of the first EvaluationError among whole map images."""
    for m, A, B in images:
        try:
            eval_map_batch(m, A, B)
        except EvaluationError as exc:
            return str(exc)
    return None


def test_contraction_error_in_a_late_block_comes_before_a_monotonicity_error(corpus,
                                                                           monkeypatch):
    monkeypatch.setattr(hypotheses, "_BLOCK", 7)
    p = corpus["ex1"].problem
    cfg = SamplerConfig(samples_per_check=30, rng_seed=0)
    _, x_hi, y_lo, _, _, x_ctx = _whole_sample(p, cfg)
    # F has a pole at x_hi of row 25, in block 3; G one at the X context of
    # row 2, in block 0
    F = parse_map(f"(a1 - b1)/3 + 1/(a1 - ({float(x_hi[25, 0])!r}))", 1, 1, 1)
    G = parse_map(f"(a1 - b1)/5 + 1/(b1 - ({float(x_ctx[2, 0])!r}))", 1, 1, 1)
    want = _first_image_error((F, x_hi, y_lo))
    assert "at sample 25 " in want
    with pytest.raises(EvaluationError) as err:
        audit(F, G, p.X, p.Y, p.family, *p.seed, cfg)
    assert str(err.value) == want


def test_contraction_error_in_a_late_block_comes_before_an_early_overflow(corpus, monkeypatch):
    monkeypatch.setattr(hypotheses, "_BLOCK", 7)
    p = corpus["ex1"].problem
    cfg = SamplerConfig(samples_per_check=30, rng_seed=0)
    x_lo, x_hi, y_lo, y_hi, _, _ = _whole_sample(p, cfg)

    def bump(v):  # 1 at v, 0 at every other sampled coordinate
        return f"max(1 - 1e12*abs(a1 - ({float(v)!r})), 0)"

    # F(x_hi, y_lo) = 1.5e308 and F(x_lo, y_hi) = -1.5e308 at row 3: their
    # distance overflows
    overflowing = f"(a1 - b1)/3 + 1.5e308*{bump(x_hi[3, 0])} - 1.5e308*{bump(x_lo[3, 0])}"
    with pytest.raises(SampleError) as err:
        audit(parse_map(overflowing, 1, 1, 1), p.G, p.X, p.Y, p.family, *p.seed, cfg)
    assert str(err.value) == "a sampled distance overflows at contraction sample 3"
    # a pole of F(x_lo, y_hi) at row 25, in block 3, comes first
    F = parse_map(f"{overflowing} + 1/(a1 - ({float(x_lo[25, 0])!r}))", 1, 1, 1)
    want = _first_image_error((F, x_hi, y_lo), (F, x_lo, y_hi))
    assert "at sample 25 " in want
    with pytest.raises(EvaluationError) as err:
        audit(F, p.G, p.X, p.Y, p.family, *p.seed, cfg)
    assert str(err.value) == want


def test_estimate_terms_that_cannot_be_allocated_raise_sample_error(corpus, monkeypatch):
    # the sample's arrays can be allocated, the estimate's 6n terms cannot
    p = corpus["ex1"].problem
    empty = np.empty

    def refusing(shape, *args, **kwargs):
        if shape == (3, 2, 300):
            raise MemoryError("Unable to allocate 14.1 KiB")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refusing)
    with pytest.raises(SampleError) as err:
        audit(p.F, p.G, p.X, p.Y, p.family, *p.seed, SamplerConfig(300, 0), with_estimates=True)
    assert str(err.value) == ("cannot hold the estimate's terms of 300 samples: "
                              "Unable to allocate 14.1 KiB")
    audit(p.F, p.G, p.X, p.Y, p.family, *p.seed, SamplerConfig(300, 0))


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
        rep = corner_audit(p.F, p.G, p.X, p.Y, CFG).mixed_monotone
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
