"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines.

Criterion 8 asserts the decay envelope that the symmetric-half family
actually gives, theta^n * D0 with theta = (k+l)/2 (and the matching
per-component envelopes), not the advertised per-pair rate
((k/2)^n + (l/2)^n) * D0.  Exact arithmetic on ex1 refutes the advertised
rate at n = 2: the observed distance is 128/225 where the rate allows
68/225 (see the test docstring).  The uniqueness probe checks the sound
envelope; tests/test_solver.py::test_probe_symmetric_half_checks_the_sound_envelope
pins both that and the n = 2 counterexample to the advertised rate.
"""

import numpy as np

from fgfp import (ContractionFamily, FamilyKind, ProblemSpec, SamplerConfig,
                  audit, box_space, check_contraction, estimate_constants,
                  parse_map, point, solve, tail_bound, uniqueness_probe)
from fgfp.cli import main
from fgfp.maps import iterate_pair
from fgfp.solver import DECAY_SLACK
from fgfp.spaces import metric_distance, product_metric_distance

INF = float("inf")


def _criterion(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {status} - {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_averaging_pair_converges(corpus):
    p = corpus["ex1"].problem
    assert p.seed == (point(-1.0), point(1.0))
    trace, result = solve(p, tol=1e-10)
    ok = (result.converged
          and result.residual_x + result.residual_y < 1e-10
          and result.iterations <= 60
          and abs(result.x_star[0]) < 1e-9 and abs(result.y_star[0]) < 1e-9)
    _criterion(1, "ex1 converges to (0, 0) within 60 iterations at tol 1e-10", ok,
               f"iterations={result.iterations}, "
               f"residuals={result.residual_x + result.residual_y:.3e}")


def test_criterion_02_linear_pair_converges(corpus):
    p = corpus["ex2"].problem
    trace, result = solve(p, tol=1e-10)
    ok = (result.converged
          and result.residual_x + result.residual_y < 1e-10
          and result.iterations <= 60
          and abs(result.x_star[0]) < 1e-9 and abs(result.y_star[0]) < 1e-9)
    _criterion(2, "ex2 converges to (0, 0) under the linear-asymmetric family", ok)


def test_criterion_03_affine_shift_converges(corpus):
    p = corpus["ex3"].problem
    _, result = solve(p, tol=1e-10)
    d = product_metric_distance(p.X, p.Y, (result.x_star, result.y_star),
                                p.declared_fixed_point)
    _criterion(3, "ex3 converges to (4/3, -4/3) within 1e-8", result.converged and d < 1e-8,
               f"distance={d:.3e}")


def test_criterion_04_discrete_order_entry(corpus):
    p = corpus["ex4"].problem
    rep = audit(p.F, p.G, p.X, p.Y, p.family, p.seed[0], p.seed[1],
                SamplerConfig(samples_per_check=2000, rng_seed=0))
    _, result = solve(p, tol=1e-10)
    ok = (rep.passed
          and result.converged
          and result.residual_x == 0.0 and result.residual_y == 0.0
          and result.x_star == point(0.0) and result.y_star == point(0.0))
    _criterion(4, "ex4 audit passes under discrete orders and solve returns (0, 0) "
                  "with zero residuals", ok)


def test_criterion_05_bound_domination(corpus_runs):
    bad = {eid: result.bound_violations
           for eid, (_, result) in corpus_runs.items() if result.bound_violations}
    _criterion(5, "per-step bounds dominate every recorded step on all five entries",
               not bad, f"violations={bad}")


def test_criterion_06_tail_bounds(corpus_runs, corpus):
    worst = 0.0
    ok = True
    for eid, (trace, _) in corpus_runs.items():
        p = corpus[eid].problem
        pts = [(point(*x), point(*y)) for x, y in trace.coords]
        d1x, d1y = trace.d1x, trace.d1y
        for n in range(1, len(pts)):
            allowed = (tail_bound(p.family, n, d1x, d1y, "x")
                       + tail_bound(p.family, n, d1x, d1y, "y") + 1e-10)
            for m in range(n, len(pts)):
                d = product_metric_distance(p.X, p.Y, pts[m], pts[n])
                worst = max(worst, d - allowed)
                if d > allowed:
                    ok = False
    _criterion(6, "tail bounds dominate all recorded pair distances (m >= n)", ok,
               f"worst excess={worst:.3e}")


def test_criterion_07_monotone_sequences(corpus_runs):
    ok = all(all(trace.monotone_ok) for trace, _ in corpus_runs.values())
    _criterion(7, "iterates are nondecreasing in X and nonincreasing in Y "
                  "on every corpus trace", ok)


def test_criterion_08_uniqueness_decay(corpus):
    """Comparable seeds contract toward each other at theta^n and share a limit.

    With F = (x-y)/3, G = (y-x)/5, k = 2/3, l = 2/5, and the comparable
    seeds s1 = (-1, 1), s2 = (-2, 2) (so D0 = 2), the per-step distances
    (a, b) in X and Y obey a' <= (k/2)(a+b), b' <= (l/2)(a+b).  Only the
    sum contracts, at theta = (k+l)/2 = 8/15, which gives

        a_n + b_n <= theta^n D0,
        a_n <= (k/2) theta^(n-1) D0,    b_n <= (l/2) theta^(n-1) D0.

    These are the SYM_HALF envelopes of ``step_bound``.  On ex1 they are
    tight at every step: exact arithmetic gives

        n=1: d = 2/3 + 2/5 = 16/15          = theta   * 2
        n=2: d = 16/45 + 16/75 = 128/225    = theta^2 * 2
        n=3: d = 1024/3375                  = theta^3 * 2

    The advertised per-component rate ((k/2)^n + (l/2)^n) * D0 allows
    16/15, 68/225 and 304/3375 at n = 1, 2, 3, so it is exceeded from
    n = 2 on and is not what this criterion asserts.
    """
    p = corpus["ex1"].problem
    s1 = (point(-1.0), point(1.0))
    s2 = (point(-2.0), point(2.0))
    probe = uniqueness_probe(p.with_seed(s1), [s2], tol=1e-10)
    limits_ok = probe.max_pairwise_distance < 1e-9

    k, l = p.family.k, p.family.l
    theta = (k + l) / 2.0
    d0 = product_metric_distance(p.X, p.Y, s1, s2)
    chk = probe.decay_checks[0] if probe.decay_checks else None
    replay_ok = (chk is not None and (chk.seed_i, chk.seed_j) == (0, 1)
                 and chk.initial_distance == d0 and chk.violations == ())

    first_excess = None
    p1, p2 = s1, s2
    for n in range(1, 41):
        p1 = iterate_pair(p.F, p.G, p1[0], p1[1], 1)
        p2 = iterate_pair(p.F, p.G, p2[0], p2[1], 1)
        checks = (
            ("d", product_metric_distance(p.X, p.Y, p1, p2),
             theta ** n * d0 + DECAY_SLACK),
            ("d_X", metric_distance(p.X, p1[0], p2[0]),
             (k / 2.0) * theta ** (n - 1) * d0 + DECAY_SLACK),
            ("d_Y", metric_distance(p.Y, p1[1], p2[1]),
             (l / 2.0) * theta ** (n - 1) * d0 + DECAY_SLACK),
        )
        for name, observed, allowed in checks:
            if observed > allowed and first_excess is None:
                first_excess = (n, name, observed, allowed)
    _criterion(8, "observed decay stays within theta^n * D0 (theta = (k+l)/2), "
                  "per component within (k/2) and (l/2) * theta^(n-1) * D0, for "
                  "ex1 seeds (-1,1), (-2,2); the probe finds this pair within "
                  "it and the limits coincide",
               limits_ok and replay_ok and first_excess is None,
               f"first excess at n={first_excess[0]}: {first_excess[1]}="
               f"{first_excess[2]:.6f} > allowed={first_excess[3]:.6f}"
               if first_excess else
               f"limits_ok={limits_ok}, replay_ok={replay_ok}")


def test_criterion_09_constant_estimation(corpus):
    e1 = corpus["ex1"].problem
    e2 = corpus["ex2"].problem
    ok = True
    for seed in (1, 2):
        cfg = SamplerConfig(samples_per_check=2000, rng_seed=seed)
        k1, _ = estimate_constants(e1.F, e1.G, e1.X, e1.Y, FamilyKind.SYM_HALF, cfg)
        ok = ok and (0.60 <= k1 <= 2.0 / 3.0 + 0.02)
        k2, l2 = estimate_constants(e2.F, e2.G, e2.X, e2.Y, FamilyKind.LIN_ASYM, cfg)
        ok = ok and abs(k2 - 4.0 / 17.0) < 0.02 and abs(l2 - 3.0 / 17.0) < 0.02
    _criterion(9, "estimated constants match the analytic values "
                  "(ex1 k in [0.60, 0.687]; ex2 within 0.02), seed-stable", ok)


def test_criterion_10_affine_oracle_equivalence():
    rng = np.random.default_rng(2024)
    family = ContractionFamily(FamilyKind.LIN_ASYM, 0.25, 0.25)
    worst = 0.0
    for trial in range(50):
        dx = int(rng.integers(1, 4))
        dy = int(rng.integers(1, 4))
        n = dx + dy
        M = rng.normal(size=(n, n))
        M *= (0.2 + 0.4 * rng.random()) / max(abs(np.linalg.eigvals(M)))
        const = rng.normal(size=n)
        assert max(abs(np.linalg.eigvals(M))) < 1.0  # oracle-side contraction check

        def f_row(i):
            terms = [f"{float(M[i, j])!r}*a{j + 1}" for j in range(dx)]
            terms += [f"{float(M[i, dx + j])!r}*b{j + 1}" for j in range(dy)]
            return " + ".join(terms + [repr(float(const[i]))])

        def g_row(i):
            terms = [f"{float(M[dx + i, dx + j])!r}*a{j + 1}" for j in range(dy)]
            terms += [f"{float(M[dx + i, j])!r}*b{j + 1}" for j in range(dx)]
            return " + ".join(terms + [repr(float(const[dx + i]))])

        F = parse_map("; ".join(f_row(i) for i in range(dx)), dx, dy, dx)
        G = parse_map("; ".join(g_row(i) for i in range(dy)), dy, dx, dy)
        problem = ProblemSpec(
            X=box_space((-INF,) * dx, (INF,) * dx),
            Y=box_space((-INF,) * dy, (INF,) * dy),
            F=F, G=G, family=family,
            seed=(point(*([0.0] * dx)), point(*([0.0] * dy))))
        _, result = solve(problem, tol=1e-12, force=True)
        expected = np.linalg.solve(np.eye(n) - M, const)
        got = np.concatenate([result.x_star.coords, result.y_star.coords])
        worst = max(worst, float(np.max(np.abs(got - expected))))
    _criterion(10, "50 random affine contractive pairs: solver limits match "
                   "the direct linear solve to 1e-8", worst < 1e-8,
               f"worst deviation={worst:.3e}")


def test_criterion_11_negative_detection():
    X = box_space((-INF,), (INF,))
    F = parse_map("2*a1", 1, 1, 1)
    G = parse_map("-2*a1", 1, 1, 1)
    family = ContractionFamily(FamilyKind.SYM_HALF, 0.9, 0.9)
    rep = check_contraction(F, G, X, X, family,
                            SamplerConfig(samples_per_check=2000, rng_seed=0))
    problem = ProblemSpec(X=X, Y=X, F=F, G=G, family=family,
                          seed=(point(1.0), point(1.0)))
    _, result = solve(problem, force=True)
    ok = (not rep.passed) and (not result.converged)
    _criterion(11, "expanding pair: contraction check FAILs and a forced solve "
                   "reports divergence", ok)


def test_criterion_12_determinism(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a = main(["corpus", "run-all", "--rng-seed", "7", "--out", str(a)])
    code_b = main(["corpus", "run-all", "--rng-seed", "7", "--out", str(b)])
    ok = code_a == code_b == 0 and a.read_bytes() == b.read_bytes()
    _criterion(12, "two corpus run-all reports with --rng-seed 7 are byte-identical", ok)
