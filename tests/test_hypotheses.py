import numpy as np
import pytest

from fgfp import (ContractionFamily, FamilyKind, SampleError,
                  SamplerConfig, box_space, check_comparability,
                  check_contraction, check_mixed_monotone, check_seed,
                  estimate_constants, eval_map, parse_map, point)
from fgfp.hypotheses import _ordered_pairs
from fgfp.spaces import (OrderKind, OrderSpec, leq, metric_distance,
                         sample_points)

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
    lo, hi = _ordered_pairs(space, n, np.random.default_rng(4))
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
