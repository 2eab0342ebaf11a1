import numpy as np
import pytest

from fgfp import (ContractionFamily, FamilyKind, SampleError,
                  SamplerConfig, box_space, check_comparability,
                  check_contraction, check_mixed_monotone, check_seed,
                  estimate_constants, eval_map, parse_map, point)
from fgfp.hypotheses import (MAX_WITNESSES, RATIO_FLOOR, _contraction_data,
                             _min_sum_constants, audit)
from fgfp.maps import evaluation_count
from fgfp.spaces import (OrderKind, OrderSpec, leq, metric_distance,
                         sample_ordered_pairs, sample_points)

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
    lo, hi = sample_ordered_pairs(space, n, np.random.default_rng(4))
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


def _min_sum_constants_200_steps(p, q, c):
    """_min_sum_constants with its ternary search run for all 200 steps."""
    active = c > RATIO_FLOOR
    if not active.any():
        return 0.0, 0.0
    p, q, c = p[active], q[active], c[active]
    p_ok, q_ok = p > RATIO_FLOOR, q > RATIO_FLOOR
    if (~p_ok & ~q_ok).any():
        return INF, INF
    k_floor = float((c[~q_ok] / p[~q_ok]).max()) if (~q_ok).any() else 0.0
    pq, qq, cq = p[q_ok], q[q_ok], c[q_ok]

    def l_of(k):
        return max(0.0, float(((cq - k * pq) / qq).max())) if qq.size else 0.0

    k_hi = max(k_floor, float((c[p_ok] / p[p_ok]).max())) if p_ok.any() else k_floor
    lo, hi = k_floor, k_hi
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if m1 + l_of(m1) <= m2 + l_of(m2):
            hi = m2
        else:
            lo = m1
    best = min([k_floor, lo, (lo + hi) / 2.0, hi], key=lambda k: k + l_of(k))
    return best, l_of(best)


def _lp_instances(corpus):
    for eid, entry in corpus.items():
        p = entry.problem
        for rng_seed in (0, 7):
            for kind in (FamilyKind.LIN_ASYM, FamilyKind.KANNAN, FamilyKind.CHATTERJEA):
                data = _contraction_data(p.F, p.G, p.X, p.Y, kind, SamplerConfig(2000, rng_seed))
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


def test_min_sum_constants_stall_exit_returns_the_200_step_bits(corpus):
    for p, q, c in _lp_instances(corpus):
        assert _min_sum_constants(p, q, c) == _min_sum_constants_200_steps(p, q, c)


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


# ---------------------------------------------------------------------------
# comparability

def test_comparability_total_orders_pass():
    X = box_space((-INF,), (0.0,))
    Y = box_space((0.0,), (INF,))
    assert check_comparability(X, Y, CFG).passed


def test_comparability_fails_on_discrete_component():
    X = box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE))
    Y = box_space((0.0,), (1.0,))
    rep = check_comparability(X, Y, CFG)
    assert not rep.passed
    assert rep.failures


def test_comparability_single_point_space_passes():
    X = box_space((0.0,), (0.0,))
    assert check_comparability(X, X, CFG).passed


# ---------------------------------------------------------------------------
# cross-module: monotone hypotheses imply ordered iterate sequences

def test_iterates_are_ordered_when_hypotheses_hold(corpus, corpus_runs):
    for eid, entry in corpus.items():
        p = entry.problem
        rep = check_mixed_monotone(p.F, p.G, p.X, p.Y, CFG)
        seed_rep = check_seed(p.F, p.G, p.X, p.Y, p.seed[0], p.seed[1])
        assert rep.passed and seed_rep.passed
        trace, _ = corpus_runs[eid]
        for n in range(len(trace.points) - 1):
            xn, yn = trace.points[n]
            xn1, yn1 = trace.points[n + 1]
            assert leq(p.X, xn, xn1)
            assert leq(p.Y, yn1, yn)


@pytest.mark.parametrize("rng_seed", range(5))
def test_comparability_box_with_a_single_point_discrete_factor_passes(rng_seed):
    # the componentwise min of the two x parts, with y = 0, lies below both
    # points; a candidate search missed it on seeds 0 and 4
    X = box_space((0.0, 0.0), (1.0, 1.0))
    Y = box_space((0.0,), (0.0,), order=OrderSpec(kind=OrderKind.DISCRETE))
    rep = check_comparability(X, Y, SamplerConfig(rng_seed=rng_seed))
    assert rep.passed and rep.failures == ()


def test_comparability_discrete_slack_fails_exactly_the_far_pairs():
    slack = 0.05
    X = box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE, slack=slack))
    Y = box_space((0.0, 0.0), (1.0, 1.0))
    cfg = SamplerConfig(rng_seed=4)
    rep = check_comparability(X, Y, cfg)
    rng = cfg.rng()
    X1, Y1, X2, Y2 = (sample_points(S, 200, rng) for S in (X, Y, X, Y))
    far = np.flatnonzero(np.abs(X1 - X2)[:, 0] > slack)[:MAX_WITNESSES]
    assert len(far) == MAX_WITNESSES and far[-1] > MAX_WITNESSES  # near pairs skipped
    assert not rep.passed
    assert list(rep.failures) == [
        {"p1_x": list(X1[i]), "p1_y": list(Y1[i]), "p2_x": list(X2[i]), "p2_y": list(Y2[i])}
        for i in far]


@pytest.mark.parametrize("samples", [1, 50, 200, 2000])
def test_comparability_checks_at_most_200_pairs(samples):
    X = box_space((0.0,), (1.0,), order=OrderSpec(kind=OrderKind.DISCRETE))
    rep = check_comparability(X, X, SamplerConfig(samples_per_check=samples))
    assert rep.pairs_checked == min(samples, 200)
    assert len(rep.failures) == min(samples, MAX_WITNESSES)
