import dataclasses
import hashlib
import io

import numpy as np
import pytest

from fgfp import (ContractionFamily, DimensionMismatch, EvaluationError,
                  FamilyKind, ProblemSpec, SeedConditionError, SolveError, box_space,
                  parse_map, point, solve, step_bound, tail_bound,
                  uniqueness_probe)
from fgfp.cli import main
from fgfp.maps import coupled_step, evaluation_count, iterate_pair
from fgfp.solver import (BOUND_SLACK, DECAY_SLACK, BoundViolation, DecayCheck,
                         trace_to_csv)
from fgfp.spaces import (MetricKind, MetricSpec, Point, coords_distance, leq,
                         product_leq, product_metric_distance)

INF = float("inf")

SYM = ContractionFamily(FamilyKind.SYM_HALF, 2.0 / 3.0, 2.0 / 5.0)
LIN = ContractionFamily(FamilyKind.LIN_ASYM, 0.25, 0.25)
KAN = ContractionFamily(FamilyKind.KANNAN, 1.0 / 3.0, 1.0 / 2.0)
CHA = ContractionFamily(FamilyKind.CHATTERJEA, 0.25, 0.25)


# ---------------------------------------------------------------------------
# family validation

def test_family_constant_ranges():
    with pytest.raises(ValueError):
        ContractionFamily(FamilyKind.SYM_HALF, 1.0, 0.2)
    with pytest.raises(ValueError):
        ContractionFamily(FamilyKind.LIN_ASYM, 0.6, 0.4)
    with pytest.raises(ValueError):
        ContractionFamily(FamilyKind.KANNAN, 0.5, 0.5)
    with pytest.raises(ValueError):
        ContractionFamily(FamilyKind.CHATTERJEA, 0.5, 0.1)
    with pytest.raises(ValueError):
        ContractionFamily(FamilyKind.SYM_HALF, -0.1, 0.1)
    ContractionFamily(FamilyKind.SYM_HALF, 0.99, 0.99)  # valid


# ---------------------------------------------------------------------------
# step bounds

def test_step_bound_hand_value_symmetric_half():
    # k=2/3, l=2/5, n=1, d1x=1/3, d1y=3/5: bx = (1/3)(1/3 + 3/5) = 14/45
    bx, by = step_bound(SYM, 1, 1.0 / 3.0, 3.0 / 5.0)
    assert abs(bx - 14.0 / 45.0) < 1e-15
    assert abs(by - (1.0 / 5.0) * (14.0 / 15.0)) < 1e-15


def test_step_bound_zero_base_distances():
    for fam in (SYM, LIN, KAN, CHA):
        assert step_bound(fam, 3, 0.0, 0.0) == (0.0, 0.0)


def test_step_bound_hand_value_self_displacement():
    # k=1/3, l=1/2, n=2, d1x=1: bx = (l/(1-k))^2 = (3/4)^2 = 9/16
    bx, _ = step_bound(KAN, 2, 1.0, 0.0)
    assert abs(bx - 9.0 / 16.0) < 1e-15


def test_step_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        step_bound(SYM, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        step_bound(SYM, 1, -1.0, 0.0)


# ---------------------------------------------------------------------------
# tail bounds

def test_tail_bound_zero_base_distances():
    for fam in (SYM, LIN, KAN, CHA):
        assert tail_bound(fam, 1, 0.0, 0.0, "x") == 0.0
        assert tail_bound(fam, 1, 0.0, 0.0, "y") == 0.0


def test_tail_bound_hand_value_linear_asymmetric():
    # ratio 1/2, n=3, base sum 1: (1/2)^3 / (1/2) = 1/4
    assert abs(tail_bound(LIN, 3, 0.5, 0.5, "x") - 0.25) < 1e-15


def test_tail_dominates_partial_sums_of_step_bounds():
    d1x, d1y = 0.7, 0.4
    for fam in (SYM, LIN, KAN, CHA):
        for n in (1, 2, 5):
            partial_x = sum(step_bound(fam, j, d1x, d1y)[0] for j in range(n, n + 200))
            partial_y = sum(step_bound(fam, j, d1x, d1y)[1] for j in range(n, n + 200))
            assert partial_x <= tail_bound(fam, n, d1x, d1y, "x") + 1e-12
            assert partial_y <= tail_bound(fam, n, d1x, d1y, "y") + 1e-12


def test_tail_bound_argument_validation():
    with pytest.raises(ValueError):
        tail_bound(SYM, 0, 1.0, 1.0)
    with pytest.raises(ValueError, match="base distances must be nonnegative"):
        tail_bound(SYM, 1, -1.0, 1.0)
    with pytest.raises(ValueError):
        tail_bound(SYM, 1, 1.0, 1.0, "z")


# ---------------------------------------------------------------------------
# solve

def test_solve_reference_problem_to_origin(corpus, corpus_runs):
    trace, result = corpus_runs["ex1"]
    assert result.converged
    assert result.iterations <= 60
    assert result.residual_x + result.residual_y < 1e-10
    assert abs(result.x_star[0]) < 1e-9 and abs(result.y_star[0]) < 1e-9


def test_solve_from_declared_fixed_point_stops_immediately(corpus):
    p = corpus["ex1"].problem.with_seed((point(0.0), point(0.0)))
    trace, result = solve(p)
    assert result.iterations == 1
    assert result.residual_x == 0.0 and result.residual_y == 0.0
    assert result.converged


def test_solve_affine_shift_problem(corpus, corpus_runs):
    _, result = corpus_runs["ex3"]
    assert result.converged
    assert abs(result.x_star[0] - 4.0 / 3.0) < 1e-8
    assert abs(result.y_star[0] + 4.0 / 3.0) < 1e-8


def test_solve_argument_validation(corpus):
    for tol in (0.0, -1.0, INF, float("nan")):
        with pytest.raises(ValueError):
            solve(corpus["ex1"].problem, tol=tol)
    for tol in (True, False, "1e-9", None):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve(corpus["ex1"].problem, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        uniqueness_probe(corpus["ex1"].problem, [], tol=True)
    with pytest.raises(ValueError):
        solve(corpus["ex1"].problem, max_iter=0)
    for max_iter in (2.5, True):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            solve(corpus["ex1"].problem, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        uniqueness_probe(corpus["ex1"].problem, [], max_iter=True)
    _, result = solve(corpus["ex1"].problem, max_iter=np.int64(3))
    assert result.iterations == 3


def test_problem_spec_rejects_mismatched_dimensions(corpus):
    p = corpus["ex1"].problem
    with pytest.raises(DimensionMismatch, match="F must map X x Y -> X"):
        dataclasses.replace(p, F=parse_map("a1; a1", 1, 1, 2))
    with pytest.raises(DimensionMismatch, match="G must map Y x X -> Y"):
        dataclasses.replace(p, G=parse_map("a1", 2, 1, 1))
    with pytest.raises(DimensionMismatch, match="declared fixed point dimensions"):
        dataclasses.replace(p, declared_fixed_point=(point(0.0, 0.0), point(0.0)))


def test_seed_condition_enforced_and_forceable():
    X = box_space((-INF,), (0.0,))
    Y = box_space((0.0,), (INF,))
    p = ProblemSpec(X=X, Y=Y,
                    F=parse_map("(a1 - b1)/3 - 1", 1, 1, 1),
                    G=parse_map("(a1 - b1)/5", 1, 1, 1),
                    family=SYM, seed=(point(0.0), point(1.0)))
    with pytest.raises(SeedConditionError, match=r"^seed violates the launch condition "
                       r"\(x0 <= F\(x0, y0\): False, G\(y0, x0\) <= y0: True\); "):
        solve(p)
    trace, result = solve(p, force=True)  # runs; convergence not promised
    assert len(trace.coords) >= 2
    assert trace.monotone_ok[0] is False


def test_solve_evaluates_each_coupled_step_once(corpus):
    # the launch condition is read off the first step, so a run evaluates
    # F and G once per iteration and once more for the residuals
    for entry in corpus.values():
        e0 = evaluation_count()
        _, result = solve(entry.problem)
        assert evaluation_count() - e0 == 2 * (result.iterations + 1)


@pytest.mark.parametrize("force", [False, True])
def test_map_not_finite_at_the_seed_names_the_seed(force):
    X = box_space((-INF,), (INF,))
    p = ProblemSpec(X=X, Y=X, F=parse_map("a1/2 + 0*(1/(a1 + 1))", 1, 1, 1),
                    G=parse_map("a1", 1, 1, 1), family=LIN,
                    seed=(point(-1.0), point(0.0)))
    with pytest.raises(EvaluationError) as err:
        solve(p, force=force)
    assert str(err.value) == ("evaluation failed at the seed x0=[-1.0], y0=[0.0]: "
                              "non-finite value in output coordinate 1 at a=[-1.0], b=[0.0]")


def test_monotone_flags_true_on_corpus(corpus_runs):
    for trace, _ in corpus_runs.values():
        assert all(trace.monotone_ok)


def test_limit_dominates_iterates_on_corpus(corpus, corpus_runs):
    # nondecreasing iterates stay below the limit, nonincreasing above
    for eid, (trace, result) in corpus_runs.items():
        X, Y = corpus[eid].problem.X, corpus[eid].problem.Y
        for xn, yn in trace.coords:
            assert leq(X, Point(xn), result.x_star)
            assert leq(Y, result.y_star, Point(yn))
        # the limit is the last stored iterate
        assert trace.coords[-1] == (result.x_star.coords, result.y_star.coords)


def test_residual_consistency_on_corpus(corpus, corpus_runs):
    for eid, (_, result) in corpus_runs.items():
        if not result.converged:
            continue
        fam = corpus[eid].problem.family
        ratio = max(fam.envelope_x.ratio, fam.envelope_y.ratio)
        budget = 1e-10 * (1.0 + ratio / (1.0 - ratio))
        assert result.residual_x + result.residual_y <= budget


# ---------------------------------------------------------------------------
# bound verification

def test_trace_bounds_hold_on_corpus(corpus, corpus_runs):
    for eid, (trace, result) in corpus_runs.items():
        assert result.bound_violations == ()


def test_trace_bounds_flag_non_contractive_map():
    X = box_space((-INF,), (INF,))
    p = ProblemSpec(X=X, Y=X,
                    F=parse_map("2*a1", 1, 1, 1),
                    G=parse_map("-2*a1", 1, 1, 1),
                    family=ContractionFamily(FamilyKind.SYM_HALF, 0.9, 0.9),
                    seed=(point(1.0), point(1.0)))
    trace, result = solve(p, force=True)
    assert not result.converged
    assert result.bound_violations


def test_range_violations_recorded_as_warnings_not_errors():
    X = box_space((0.0,), (1.0,))
    p = ProblemSpec(X=X, Y=X,
                    F=parse_map("a1 + 5", 1, 1, 1),
                    G=parse_map("a1", 1, 1, 1),
                    family=LIN, seed=(point(0.0), point(1.0)))
    trace, result = solve(p, max_iter=3, force=True)
    assert trace.range_warnings
    assert not result.converged


def test_evaluation_failure_keeps_partial_trace():
    from fgfp import SolveError
    X = box_space((-INF,), (INF,))
    p = ProblemSpec(X=X, Y=X,
                    F=parse_map("a1*a1", 1, 1, 1),
                    G=parse_map("a1", 1, 1, 1),
                    family=LIN, seed=(point(10.0), point(0.0)))
    with pytest.raises(SolveError) as err:
        solve(p, max_iter=1000, force=True)
    assert err.value.trace is not None
    assert len(err.value.trace.coords) > 1  # progress up to the failure


def test_divergence_detector_stops_early():
    X = box_space((-INF,), (INF,))
    p = ProblemSpec(X=X, Y=X,
                    F=parse_map("2*a1", 1, 1, 1),
                    G=parse_map("-2*a1", 1, 1, 1),
                    family=ContractionFamily(FamilyKind.SYM_HALF, 0.9, 0.9),
                    seed=(point(1.0), point(1.0)))
    trace, result = solve(p, max_iter=10000, force=True)
    assert not result.converged
    assert result.iterations < 100  # early stop, far below the cap


def _with_family(problem, kind, k, l):
    return dataclasses.replace(problem, family=ContractionFamily(kind, k, l))


def _bound_violating_problems(corpus):
    """Runs whose declared constants are too small for their maps: every
    envelope kind, sum-based and not, plus a divergent run."""
    X = box_space((-INF,), (INF,))
    divergent = ProblemSpec(X=X, Y=X, F=parse_map("2*a1", 1, 1, 1),
                            G=parse_map("-2*a1", 1, 1, 1),
                            family=ContractionFamily(FamilyKind.SYM_HALF, 0.9, 0.9),
                            seed=(point(1.0), point(1.0)))
    return [_with_family(corpus["ex1"].problem, FamilyKind.SYM_HALF, 0.5, 0.5),
            _with_family(corpus["ex2"].problem, FamilyKind.LIN_ASYM, 0.01, 0.01),
            _with_family(corpus["ex3"].problem, FamilyKind.KANNAN, 0.01, 0.01),
            _with_family(corpus["ex3"].problem, FamilyKind.CHATTERJEA, 0.01, 0.01),
            divergent]


def test_recorded_bounds_and_violations_match_the_public_replay(corpus, corpus_runs):
    # the loop keeps step_bound's values and derives the violations from
    # them; the test recomputes both from step_bound and BOUND_SLACK
    runs = [(corpus[eid].problem, run) for eid, run in corpus_runs.items()]
    runs += [(p, solve(p, force=True)) for p in _bound_violating_problems(corpus)]
    for p, (trace, result) in runs:
        want = []
        for n in range(1, len(trace.step_x)):
            bx, by = step_bound(p.family, n, trace.d1x, trace.d1y)
            assert (trace.bound_x[n], trace.bound_y[n]) == (bx, by)
            if trace.step_x[n] > bx + BOUND_SLACK:
                want.append(BoundViolation(n, "x", trace.step_x[n], bx))
            if trace.step_y[n] > by + BOUND_SLACK:
                want.append(BoundViolation(n, "y", trace.step_y[n], by))
        assert result.bound_violations == tuple(want)
    assert all(result.bound_violations for _, (_, result) in runs[len(corpus):])


def test_evaluation_failure_at_iteration_3_keeps_three_points():
    # x runs 0, 1, 2; at x = 2 the term 0*(1/(x - 2)) is nan
    X = box_space((-INF,), (INF,))
    p = ProblemSpec(X=X, Y=X, F=parse_map("a1 + 1 + 0*(1/(a1 - 2))", 1, 1, 1),
                    G=parse_map("a1", 1, 1, 1), family=LIN,
                    seed=(point(0.0), point(0.0)))
    with pytest.raises(SolveError, match="at iteration 3") as err:
        solve(p, force=True)
    trace = err.value.trace
    assert trace.coords == [((0.0,), (0.0,)), ((1.0,), (0.0,)), ((2.0,), (0.0,))]
    assert trace.step_x == [1.0, 1.0] and len(trace.monotone_ok) == 2


def test_residual_evaluation_failure_keeps_the_completed_step():
    # x steps from 0 to 0.5 in one step; the residual evaluates F at 0.5,
    # where 0/(a1 - 0.5) is nan
    X = box_space((0.0,), (1.0,))
    p = ProblemSpec(X=X, Y=X, F=parse_map("0.5 + 0/(a1 - 0.5)", 1, 1, 1),
                    G=parse_map("1 + 0*a1", 1, 1, 1),
                    family=ContractionFamily(FamilyKind.LIN_ASYM, 0.1, 0.1),
                    seed=(point(0.0), point(1.0)))
    with pytest.raises(SolveError, match="^residual evaluation failed: ") as err:
        solve(p, max_iter=1)
    trace = err.value.trace
    assert trace.coords == [((0.0,), (1.0,)), ((0.5,), (1.0,))]
    assert trace.step_x == [0.5] and trace.step_y == [0.0]


def test_range_warnings_keep_their_text():
    # X = [0, 1]^2, Y = [0, 1]: x leaves through its first coordinate at
    # once; y goes down by 5e-10 a step and leaves when it passes
    # -DOMAIN_TOL = -1e-9, at iteration 3
    X = box_space((0.0, 0.0), (1.0, 1.0))
    Y = box_space((0.0,), (1.0,))
    p = ProblemSpec(X=X, Y=Y, F=parse_map("a1 + 0.5; a2", 2, 1, 2),
                    G=parse_map("a1 - 5e-10", 1, 2, 1), family=LIN,
                    seed=(point(0.75, 1.0), point(0.0)))
    trace, _ = solve(p, max_iter=3, force=True)
    assert trace.range_warnings == [
        "iteration 1: F value (1.25, 1.0) left the X box",
        "iteration 2: F value (1.75, 1.0) left the X box",
        "iteration 3: F value (2.25, 1.0) left the X box",
        "iteration 3: G value (-1.5000000000000002e-09,) left the Y box",
    ]


# ---------------------------------------------------------------------------
# uniqueness probe

def test_probe_limits_coincide_for_reference_problem(corpus):
    p = corpus["ex1"].problem
    probe = uniqueness_probe(p, [(point(-5.0), point(2.0)), (point(0.0), point(0.0))])
    assert probe.passed
    for lx, ly in probe.limits:
        assert abs(lx[0]) < 1e-9 and abs(ly[0]) < 1e-9


def test_probe_single_seed_trivially_passes(corpus):
    probe = uniqueness_probe(corpus["ex2"].problem, [])
    assert probe.passed
    assert probe.pairwise == ()


def test_probe_linear_pair_decay_rate_holds(corpus):
    # the (k+l)^n envelope is sound for the linear-asymmetric family
    p = corpus["ex2"].problem
    probe = uniqueness_probe(p, [(point(-3.0), point(4.0))])
    assert probe.passed
    assert probe.decay_checks  # seeds are product-comparable
    for chk in probe.decay_checks:
        assert chk.violations == ()


def test_probe_symmetric_half_checks_the_sound_envelope(corpus):
    # the probe checks d_X + d_Y <= theta^n * D0, theta = (k+l)/2, which
    # the family inequality implies; from the comparable seeds (-1,1) and
    # (-2,2) ex1 meets it with equality, so no step is recorded
    p = corpus["ex1"].problem
    probe = uniqueness_probe(p, [(point(-2.0), point(2.0))])
    assert probe.passed
    [chk] = probe.decay_checks
    assert (chk.seed_i, chk.seed_j, chk.initial_distance) == (0, 1, 2.0)
    assert chk.steps_checked == 40
    assert chk.violations == ()
    # the paper's rate (k/2)^n + (l/2)^n is not sound: at n = 2 it allows
    # ((1/3)^2 + (1/5)^2) * 2 = 68/225, below the 128/225 the orbits reach
    k, l = p.family.k, p.family.l
    paper = ((k / 2.0) ** 2 + (l / 2.0) ** 2) * chk.initial_distance
    assert abs(paper - 68.0 / 225.0) < 1e-15
    observed = product_metric_distance(
        p.X, p.Y, iterate_pair(p.F, p.G, point(-1.0), point(1.0), 2),
        iterate_pair(p.F, p.G, point(-2.0), point(2.0), 2))
    assert abs(observed - 128.0 / 225.0) < 1e-15
    assert paper < observed


def test_probe_extends_orbits_past_the_traces(corpus):
    # ratio 0.5 is below ex1's actual 8/15, so most steps are recorded;
    # at tol 1e-3 the solves stop long before the 40 steps checked
    p = corpus["ex1"].problem
    p = ProblemSpec(p.X, p.Y, p.F, p.G,
                    ContractionFamily(FamilyKind.SYM_HALF, 0.5, 0.5), p.seed)
    extra = (point(-2.0), point(2.0))
    e0 = evaluation_count()
    probe = uniqueness_probe(p, [extra], tol=1e-3)
    evaluations = evaluation_count() - e0
    [chk] = probe.decay_checks
    assert chk.violations[0]["n"] == 1
    assert max(v["n"] for v in chk.violations) > max(probe.iterations)
    for v in chk.violations:
        observed = product_metric_distance(
            p.X, p.Y, iterate_pair(p.F, p.G, *p.seed, v["n"]),
            iterate_pair(p.F, p.G, *extra, v["n"]))
        assert v["observed"] == observed
        assert v["allowed"] == 0.5 ** v["n"] * 2.0 + 1e-10
    # each solve evaluates F and G once per iteration and at the end; the
    # probe adds one coupled step per orbit point missing
    solves = sum(2 * (n + 1) for n in probe.iterations)
    extension = sum(2 * (chk.steps_checked - n) for n in probe.iterations)
    assert evaluations == solves + extension


def test_probe_steps_no_orbit_outside_comparable_pairs(corpus):
    # (-1,1) and (-2,0.5) are not product-comparable: no decay check, and
    # the probe evaluates the maps exactly as often as its two solves
    p = corpus["ex1"].problem
    extra = (point(-2.0), point(0.5))
    e0 = evaluation_count()
    solve(p)
    solve(p.with_seed(extra))
    e1 = evaluation_count()
    probe = uniqueness_probe(p, [extra])
    assert probe.decay_checks == ()
    assert evaluation_count() - e1 == e1 - e0


def test_probe_iterate_distances_obey_mean_ratio_envelope(corpus):
    # what actually holds for the symmetric-half family: the SUM of the
    # two distances contracts by theta = (k+l)/2 per step
    p = corpus["ex1"].problem
    s1 = (point(-1.0), point(1.0))
    s2 = (point(-2.0), point(2.0))
    theta = (p.family.k + p.family.l) / 2.0
    d0 = product_metric_distance(p.X, p.Y, s1, s2)
    for n in range(1, 41):
        p1 = iterate_pair(p.F, p.G, s1[0], s1[1], n)
        p2 = iterate_pair(p.F, p.G, s2[0], s2[1], n)
        observed = product_metric_distance(p.X, p.Y, p1, p2)
        assert observed <= theta ** n * d0 + 1e-10


def _decay_reference(p, seeds, steps=40):
    """The decay replay one step and one pair at a time, in plain floats."""
    ratio = p.family.envelope_x.ratio
    checks = []
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            if not (product_leq(p.X, p.Y, seeds[i], seeds[j])
                    or product_leq(p.X, p.Y, seeds[j], seeds[i])):
                continue
            d0 = product_metric_distance(p.X, p.Y, seeds[i], seeds[j])
            (xi, yi), (xj, yj) = [(s[0].coords, s[1].coords) for s in (seeds[i], seeds[j])]
            violations = []
            for n in range(1, steps + 1):
                xi, yi = coupled_step(p.F, p.G, xi, yi)
                xj, yj = coupled_step(p.F, p.G, xj, yj)
                observed = coords_distance(p.X, xi, xj) + coords_distance(p.Y, yi, yj)
                allowed = ratio ** n * d0 + DECAY_SLACK
                if observed > allowed:
                    violations.append({"n": n, "observed": observed, "allowed": allowed})
            checks.append(DecayCheck(i, j, d0, steps, tuple(violations)))
    return tuple(checks)


def _affine_mixed_monotone(rng, dim, metric, family):
    """F(x, y) = P x - Q y + c and G(y, x) = R y - S x + e with small
    nonnegative P, Q, R, S: mixed monotone and contractive on R^dim."""
    def rows(first, second, const):
        return "; ".join(
            " + ".join([f"{float(first[i, j])!r}*a{j + 1}" for j in range(dim)]
                       + [f"{-float(second[i, j])!r}*b{j + 1}" for j in range(dim)]
                       + [repr(const[i])])
            for i in range(dim))

    P, Q, R, S = (rng.uniform(0.0, 0.3 / dim, size=(dim, dim)) for _ in range(4))
    weights = tuple(rng.uniform(0.5, 2.0, size=dim).tolist())
    space = box_space((-INF,) * dim, (INF,) * dim,
                      metric=MetricSpec(metric, weights if metric is MetricKind.WEIGHTED_L1
                                        else None))
    c = rng.uniform(-1.0, 1.0, size=(2, dim)).tolist()
    return ProblemSpec(X=space, Y=space, F=parse_map(rows(P, Q, c[0]), dim, dim, dim),
                       G=parse_map(rows(R, S, c[1]), dim, dim, dim), family=family,
                       seed=(Point(tuple(c[0])), Point(tuple(c[1]))))


@pytest.mark.parametrize("metric", [MetricKind.L1, MetricKind.WEIGHTED_L1])
@pytest.mark.parametrize("dim", [1, 9])
@pytest.mark.parametrize("family", [ContractionFamily(FamilyKind.SYM_HALF, 0.9, 0.9),
                                    ContractionFamily(FamilyKind.LIN_ASYM, 0.05, 0.05)],
                         ids=["sound", "too-small"])
def test_decay_checks_match_a_per_step_reference(metric, dim, family):
    # the probe sums each metric over whole orbits at once; its values must
    # be those of the plain per-step sum, bit for bit.  At dim 9 a matrix
    # product or numpy's pairwise row sum would round differently.
    rng = np.random.default_rng(dim)
    p = _affine_mixed_monotone(rng, dim, metric, family)
    c = rng.uniform(0.5, 1.5, size=dim)
    extra = [(Point(tuple(p.seed[0].coords - m * c)), Point(tuple(p.seed[1].coords + m * c)))
             for m in (1.0, 2.5)]
    probe = uniqueness_probe(p, extra, force_seeds=True)
    assert len(probe.decay_checks) == 3  # the seeds form a chain
    assert probe.decay_checks == _decay_reference(p, probe.seeds)
    violations = [v for chk in probe.decay_checks for v in chk.violations]
    assert bool(violations) == (family.k < 0.5)
    for v in violations:
        assert (type(v["n"]), type(v["observed"]), type(v["allowed"])) == (int, float, float)


# ---------------------------------------------------------------------------
# affine oracle: solver limit vs direct linear solve

def test_affine_solver_limits_match_linear_oracle():
    rng = np.random.default_rng(7)
    for trial in range(10):
        dx = int(rng.integers(1, 3))
        dy = int(rng.integers(1, 3))
        n = dx + dy
        M = rng.normal(size=(n, n))
        rho = max(abs(np.linalg.eigvals(M)))
        M *= (0.3 + 0.3 * rng.random()) / rho
        const = rng.normal(size=n)
        assert max(abs(np.linalg.eigvals(M))) < 0.95  # oracle-side check

        def row_text(i):
            terms = [f"{float(M[i, j])!r}*a{j + 1}" for j in range(dx)]
            terms += [f"{float(M[i, dx + j])!r}*b{j + 1}" for j in range(dy)]
            terms.append(repr(float(const[i])))
            return " + ".join(terms)

        F = parse_map("; ".join(row_text(i) for i in range(dx)), dx, dy, dx)
        # G reads (y, x): swap variable groups relative to M's layout
        def g_row_text(i):
            terms = [f"{float(M[dx + i, dx + j])!r}*a{j + 1}" for j in range(dy)]
            terms += [f"{float(M[dx + i, j])!r}*b{j + 1}" for j in range(dx)]
            terms.append(repr(float(const[dx + i])))
            return " + ".join(terms)

        G = parse_map("; ".join(g_row_text(i) for i in range(dy)), dy, dx, dy)
        X = box_space((-INF,) * dx, (INF,) * dx)
        Y = box_space((-INF,) * dy, (INF,) * dy)
        p = ProblemSpec(X=X, Y=Y, F=F, G=G, family=LIN,
                        seed=(point(*([0.0] * dx)), point(*([0.0] * dy))))
        _, result = solve(p, tol=1e-12, force=True)
        expected = np.linalg.solve(np.eye(n) - M, const)
        got = np.concatenate([result.x_star.coords, result.y_star.coords])
        assert np.max(np.abs(got - expected)) < 1e-8


# ---------------------------------------------------------------------------
# trace CSV

def test_trace_csv_layout(corpus, corpus_runs):
    trace, result = corpus_runs["ex1"]
    buf = io.StringIO()
    trace_to_csv(trace, 1, 1, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,x1,y1,step_x,step_y,bound_x,bound_y,monotone_ok"
    assert len(lines) == len(trace.coords) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == -1.0 and float(first[2]) == 1.0
    assert first[7] == "true"
    last = lines[-1].split(",")
    assert last[3] == "" and last[7] == ""  # no step out of the final iterate


# the --trace CSV of each corpus entry at the default settings, by SHA-256
TRACE_CSV_SHA256 = {
    "coupled-reg": "16bd46b96d008cbedd272fd346c8cf6b5785684b00cace3edf6a939e5e3b0c0f",
    "ex1": "57ba53ef5214022000d29939cddd17ddcb65b91dea5d2f59166589eca460ba84",
    "ex2": "33b166dbc2da63024fbe6c7fbdbe97c36048bb66c23dda93b555d26abd134960",
    "ex3": "d7d8d143ef113448aa0bbacfff2c871a433deb95bc2a57c85a57e1aca0ac52fa",
    "ex4": "43e6c1eec9191cb26bc8a4377c6243a192231c3ad90807ea9c4a895ea32d4eda",
}


@pytest.mark.parametrize("eid", sorted(TRACE_CSV_SHA256))
def test_trace_csv_bytes_are_pinned(tmp_path, eid):
    problem, csv = tmp_path / "p.json", tmp_path / "t.csv"
    assert main(["corpus", "export", eid, "--out", str(problem)]) == 0
    assert main(["solve", str(problem), "--trace", str(csv),
                 "--out", str(tmp_path / "r.json")]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == TRACE_CSV_SHA256[eid]
