import io

import numpy as np
import pytest

from fgfp import (ContractionFamily, FamilyKind, ProblemSpec,
                  SeedConditionError, box_space, parse_map, point, solve,
                  step_bound, tail_bound, uniqueness_probe,
                  verify_trace_bounds)
from fgfp.maps import evaluation_count, iterate_pair
from fgfp.solver import trace_to_csv
from fgfp.spaces import leq, product_metric_distance

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
    with pytest.raises(ValueError):
        solve(corpus["ex1"].problem, max_iter=0)


def test_seed_condition_enforced_and_forceable():
    X = box_space((-INF,), (0.0,))
    Y = box_space((0.0,), (INF,))
    p = ProblemSpec(X=X, Y=Y,
                    F=parse_map("(a1 - b1)/3 - 1", 1, 1, 1),
                    G=parse_map("(a1 - b1)/5", 1, 1, 1),
                    family=SYM, seed=(point(0.0), point(1.0)))
    with pytest.raises(SeedConditionError):
        solve(p)
    trace, result = solve(p, force=True)  # runs; convergence not promised
    assert len(trace.points) >= 2


def test_monotone_flags_true_on_corpus(corpus_runs):
    for trace, _ in corpus_runs.values():
        assert all(trace.monotone_ok)


def test_limit_dominates_iterates_on_corpus(corpus, corpus_runs):
    # nondecreasing iterates stay below the limit, nonincreasing above
    for eid, (trace, result) in corpus_runs.items():
        X, Y = corpus[eid].problem.X, corpus[eid].problem.Y
        for xn, yn in trace.points:
            assert leq(X, xn, result.x_star)
            assert leq(Y, result.y_star, yn)


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
        assert verify_trace_bounds(trace, corpus[eid].problem.family) == []
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
    assert verify_trace_bounds(trace, p.family)


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
    assert len(err.value.trace.points) > 1  # progress up to the failure


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
    # each solve evaluates F and G at the seed, once per iteration and at
    # the end; the probe adds one coupled step per orbit point missing
    solves = sum(2 * (n + 2) for n in probe.iterations)
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
    assert len(lines) == len(trace.points) + 1
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == -1.0 and float(first[2]) == 1.0
    assert first[7] == "true"
    last = lines[-1].split(",")
    assert last[3] == "" and last[7] == ""  # no step out of the final iterate
