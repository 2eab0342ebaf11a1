"""Constructive coupled iteration with geometric bound tracking.

From a seed (x0, y0) satisfying the launch condition, the iteration

    x_{n+1} = F(x_n, y_n),    y_{n+1} = G(y_n, x_n)

produces a nondecreasing X sequence and a nonincreasing Y sequence whose
step distances are dominated, family by family, by geometric envelopes
computable from the first step alone: ``ContractionFamily.envelope_x``
and ``envelope_y`` (the family table is in ``hypotheses``).  The Cauchy
tail bound on d_X(x_m, x_n), m >= n, is the corresponding geometric
series sum from n.  ``solve`` records each step's envelope (``step_bound``)
beside the step and reports the steps that exceed it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DimensionMismatch, DomainError, EvaluationError,
                     SeedConditionError, SolveError)
from .hypotheses import ContractionFamily, check_seed
from .maps import MapSpec, coupled_step
from .spaces import (DOMAIN_TOL, Point, SpaceSpec, _as_point, coords_distance,
                     coords_leq, distance_batch, product_leq,
                     product_metric_distance)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000
# Additive slack for trace-vs-bound comparisons (accumulated rounding).
BOUND_SLACK = 1e-12
# Consecutive step-sum increases before a run is declared divergent.
DIVERGENCE_PATIENCE = 50
# Slack for the uniqueness decay comparison.
DECAY_SLACK = 1e-10
# Coupled steps along which the uniqueness probe checks the decay.
DECAY_STEPS = 40


@dataclass(frozen=True)
class ProblemSpec:
    """Everything the solver needs: spaces, maps, family, and a seed."""

    X: SpaceSpec
    Y: SpaceSpec
    F: MapSpec
    G: MapSpec
    family: ContractionFamily
    seed: tuple[Point, Point]
    declared_fixed_point: tuple[Point, Point] | None = None

    def __post_init__(self):
        if (self.F.first_arg_dim, self.F.second_arg_dim, self.F.out_dim) != \
                (self.X.dim, self.Y.dim, self.X.dim):
            raise DimensionMismatch("F must map X x Y -> X")
        if (self.G.first_arg_dim, self.G.second_arg_dim, self.G.out_dim) != \
                (self.Y.dim, self.X.dim, self.Y.dim):
            raise DimensionMismatch("G must map Y x X -> Y")
        x0, y0 = self.seed
        if x0.dim != self.X.dim or y0.dim != self.Y.dim:
            raise DimensionMismatch("seed dimensions do not match the spaces")
        if not self.X.contains(x0) or not self.Y.contains(y0):
            raise DomainError("seed lies outside the space boxes")
        if self.declared_fixed_point is not None:
            fx, fy = self.declared_fixed_point
            if fx.dim != self.X.dim or fy.dim != self.Y.dim:
                raise DimensionMismatch("declared fixed point dimensions do not match")

    def with_seed(self, seed: tuple[Point, Point]) -> "ProblemSpec":
        return dataclasses.replace(self, seed=seed)


@dataclass
class IterationTrace:
    """Recorded run: iterates, step distances, bound envelopes, order flags.

    Index convention: ``coords[n]`` is the n-th iterate (two coordinate
    tuples); ``step_x[n]`` is d_X(x_{n+1}, x_n).  ``bound_x[0]`` repeats
    step_x[0] (= d1x); entries from index 1 on are the family envelopes.
    ``monotone_ok[n]`` records x_n <= x_{n+1} and y_{n+1} <= y_n.
    """

    coords: list[tuple[tuple[float, ...], tuple[float, ...]]] = field(default_factory=list)
    step_x: list[float] = field(default_factory=list)
    step_y: list[float] = field(default_factory=list)
    bound_x: list[float] = field(default_factory=list)
    bound_y: list[float] = field(default_factory=list)
    monotone_ok: list[bool] = field(default_factory=list)
    range_warnings: list[str] = field(default_factory=list)

    @property
    def d1x(self) -> float:
        return self.step_x[0] if self.step_x else 0.0

    @property
    def d1y(self) -> float:
        return self.step_y[0] if self.step_y else 0.0


@dataclass(frozen=True)
class BoundViolation:
    n: int
    component: str  # "x" or "y"
    step: float
    bound: float

    def to_dict(self) -> dict:
        return {"n": self.n, "component": self.component,
                "step": self.step, "bound": self.bound}


@dataclass(frozen=True)
class FGFixedPointResult:
    x_star: Point
    y_star: Point
    residual_x: float
    residual_y: float
    iterations: int
    converged: bool
    bound_violations: tuple[BoundViolation, ...]

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_x": self.residual_x,
            "residual_y": self.residual_y,
            "limit_x": list(self.x_star.coords),
            "limit_y": list(self.y_star.coords),
            "bound_violations": [v.to_dict() for v in self.bound_violations],
        }


def step_bound(family: ContractionFamily, n: int, d1x: float, d1y: float) -> tuple[float, float]:
    """Family envelope on (d_X(x_{n+1}, x_n), d_Y(y_{n+1}, y_n)), n >= 1."""
    if n < 1:
        raise ValueError("step bounds are defined for n >= 1")
    if d1x < 0 or d1y < 0:
        raise ValueError("base distances must be nonnegative")
    cx, rx, lx, sum_x = family.envelope_x
    cy, ry, ly, sum_y = family.envelope_y
    return (cx * (rx ** (n - lx) * (d1x + d1y if sum_x else d1x)),
            cy * (ry ** (n - ly) * (d1x + d1y if sum_y else d1y)))


def tail_bound(family: ContractionFamily, n: int, d1x: float, d1y: float,
               component: str = "x") -> float:
    """Geometric-series bound on d(z_m, z_n) for all m >= n (n >= 1).

    ``component`` selects the X or the Y sequence; the bound is the sum of
    the corresponding step envelopes from n on.
    """
    if n < 1:
        raise ValueError("tail bounds are defined for n >= 1")
    if d1x < 0 or d1y < 0:
        raise ValueError("base distances must be nonnegative")
    if component not in ("x", "y"):
        raise ValueError("component must be 'x' or 'y'")
    coef, ratio, lag, on_sum = family.envelope_x if component == "x" else family.envelope_y
    base = d1x + d1y if on_sum else (d1x if component == "x" else d1y)
    return coef * ratio ** (n - lag) / (1.0 - ratio) * base


def solve(problem: ProblemSpec, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER,
          force: bool = False) -> tuple[IterationTrace, FGFixedPointResult]:
    """Iterate to a coupled fixed point, recording the full trace.

    Stops when d_X(x_{n+1}, x_n) + d_Y(y_{n+1}, y_n) < tol, at max_iter,
    or after DIVERGENCE_PATIENCE consecutive step-sum increases.  The
    returned residuals come from one extra evaluation at the final pair;
    ``converged`` requires both the step criterion and residual sum <= tol.

    The seed must satisfy the launch condition unless ``force`` is given.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not force:
        seed_check = check_seed(problem.F, problem.G, problem.X, problem.Y,
                                problem.seed[0], problem.seed[1])
        if not seed_check.passed:
            raise SeedConditionError(
                "seed violates the launch condition "
                f"(x0 <= F(x0, y0): {seed_check.x_ok}, "
                f"G(y0, x0) <= y0: {seed_check.y_ok}); pass force=True to override")

    X, Y, F, G = problem.X, problem.Y, problem.F, problem.G
    xc, yc = problem.seed[0].coords, problem.seed[1].coords
    trace = IterationTrace(coords=[(xc, yc)])
    x_box, y_box = ([(lo - DOMAIN_TOL, hi + DOMAIN_TOL) for lo, hi in zip(S.lower, S.upper)]
                     for S in (X, Y))  # SpaceSpec.contains, bounds computed once
    cx, rx, lx, sum_x = problem.family.envelope_x
    cy, ry, ly, sum_y = problem.family.envelope_y
    violations: list[BoundViolation] = []

    hit_tol = False
    growth_run = 0
    prev_sum: float | None = None
    for n in range(max_iter):
        try:
            xc_next, yc_next = coupled_step(F, G, xc, yc)
        except EvaluationError as exc:
            raise SolveError(f"evaluation failed at iteration {n + 1}: {exc}",
                             trace=trace) from exc
        sx = coords_distance(X, xc_next, xc)
        sy = coords_distance(Y, yc_next, yc)
        trace.step_x.append(sx)
        trace.step_y.append(sy)
        trace.monotone_ok.append(coords_leq(X, xc, xc_next) and coords_leq(Y, yc_next, yc))
        if not all(lo <= c <= hi for c, (lo, hi) in zip(xc_next, x_box)):
            trace.range_warnings.append(
                f"iteration {n + 1}: F value {xc_next} left the X box")
        if not all(lo <= c <= hi for c, (lo, hi) in zip(yc_next, y_box)):
            trace.range_warnings.append(
                f"iteration {n + 1}: G value {yc_next} left the Y box")
        if n == 0:
            bx, by = d1x, d1y = sx, sy
        else:
            # step_bound's expressions, so the bounds keep their bits
            bx = cx * (rx ** (n - lx) * (d1x + d1y if sum_x else d1x))
            by = cy * (ry ** (n - ly) * (d1x + d1y if sum_y else d1y))
            if sx > bx + BOUND_SLACK:
                violations.append(BoundViolation(n, "x", sx, bx))
            if sy > by + BOUND_SLACK:
                violations.append(BoundViolation(n, "y", sy, by))
        trace.bound_x.append(bx)
        trace.bound_y.append(by)
        trace.coords.append((xc_next, yc_next))
        xc, yc = xc_next, yc_next

        step_sum = sx + sy
        if step_sum < tol:
            hit_tol = True
            break
        if prev_sum is not None and step_sum > prev_sum:
            growth_run += 1
            if growth_run >= DIVERGENCE_PATIENCE:
                break
        else:
            growth_run = 0
        prev_sum = step_sum

    try:
        fx, gy = coupled_step(F, G, xc, yc)
    except EvaluationError as exc:
        raise SolveError(f"residual evaluation failed: {exc}", trace=trace) from exc
    residual_x = coords_distance(X, fx, xc)
    residual_y = coords_distance(Y, gy, yc)
    converged = hit_tol and (residual_x + residual_y <= tol)
    result = FGFixedPointResult(
        x_star=Point(xc),
        y_star=Point(yc),
        residual_x=residual_x,
        residual_y=residual_y,
        iterations=len(trace.coords) - 1,
        converged=converged,
        bound_violations=tuple(violations),
    )
    return trace, result


@dataclass(frozen=True)
class DecayCheck:
    seed_i: int
    seed_j: int
    initial_distance: float
    steps_checked: int
    violations: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {"seed_i": self.seed_i, "seed_j": self.seed_j,
                "initial_distance": self.initial_distance,
                "steps_checked": self.steps_checked,
                "violations": list(self.violations)}


@dataclass(frozen=True)
class UniquenessReport:
    seeds: tuple[tuple[Point, Point], ...]
    limits: tuple[tuple[Point, Point], ...]
    iterations: tuple[int, ...]
    all_converged: bool
    pairwise: tuple[dict, ...]
    max_pairwise_distance: float
    passed: bool
    decay_checks: tuple[DecayCheck, ...]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "all_converged": self.all_converged,
            "seeds": [{"x0": list(x.coords), "y0": list(y.coords)}
                      for x, y in self.seeds],
            "limits": [{"x": list(x.coords), "y": list(y.coords)}
                       for x, y in self.limits],
            "iterations": list(self.iterations),
            "pairwise_distances": list(self.pairwise),
            "max_pairwise_distance": self.max_pairwise_distance,
            "decay_checks": [d.to_dict() for d in self.decay_checks],
        }


def _orbit(problem: ProblemSpec, trace: IterationTrace, steps: int) -> np.ndarray:
    """Iterates 1..steps of a run, one row of x then y coordinates each: the
    recorded ones from ``trace``, then coupled steps past its last point."""
    orbit = trace.coords[:steps + 1]
    while len(orbit) <= steps:
        orbit.append(coupled_step(problem.F, problem.G, *orbit[-1]))
    return np.array([x + y for x, y in orbit[1:]], dtype=np.float64)


def uniqueness_probe(problem: ProblemSpec,
                     extra_seeds: list[tuple[Point, Point]],
                     tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     force_seeds: bool = False) -> UniquenessReport:
    """Solve from several seeds and compare the limits.

    PASS iff all pairwise product distances between limits stay below
    10*tol.  For product-comparable seed pairs of a family whose envelope
    is sum-based (SYM_HALF and LIN_ASYM), the probe also checks the
    product contraction d_X + d_Y <= ratio^n * D0 at steps 1..DECAY_STEPS,
    with D0 the seeds' distance and ratio that of the envelope: (k+l)/2
    for SYM_HALF, k+l for LIN_ASYM.  The orbits, read from the runs' traces
    and stepped on past their ends, are compared whole, to the bit as step
    by step.  Exceedances are recorded as data; they do not fail the probe.
    """
    seeds = [problem.seed] + [(_as_point(s[0]), _as_point(s[1])) for s in extra_seeds]
    runs = [solve(problem.with_seed(sd), tol=tol, max_iter=max_iter, force=force_seeds)
            for sd in seeds]
    limits = tuple((r.x_star, r.y_star) for _, r in runs)
    iterations = tuple(r.iterations for _, r in runs)
    all_converged = all(r.converged for _, r in runs)

    pairwise = []
    max_dist = 0.0
    for i in range(len(limits)):
        for j in range(i + 1, len(limits)):
            d = product_metric_distance(problem.X, problem.Y, limits[i], limits[j])
            pairwise.append({"i": i, "j": j, "distance": d})
            max_dist = max(max_dist, d)
    passed = all_converged and max_dist < 10.0 * tol

    decay_checks: list[DecayCheck] = []
    if problem.family.envelope_x.on_sum:
        X, Y = problem.X, problem.Y
        pairs = [(i, j) for i in range(len(seeds)) for j in range(i + 1, len(seeds))
                 if product_leq(X, Y, seeds[i], seeds[j])
                 or product_leq(X, Y, seeds[j], seeds[i])]
        ns = range(1, DECAY_STEPS + 1)
        orbits = {i: _orbit(problem, runs[i][0], len(ns)) for i in set().union(*pairs)}
        shape = (len(pairs), len(ns), X.dim + Y.dim)  # also when either is 0
        A, B = (np.array([orbits[p[k]] for p in pairs]).reshape(shape) for k in (0, 1))
        observed = (distance_batch(X, A[..., :X.dim], B[..., :X.dim])
                    + distance_batch(Y, A[..., X.dim:], B[..., X.dim:]))
        d0 = [product_metric_distance(X, Y, seeds[i], seeds[j]) for i, j in pairs]
        ratio = problem.family.envelope_x.ratio
        # Python's ** for ratio^n: numpy's power may round differently
        allowed = np.multiply.outer(d0, [ratio ** n for n in ns]) + DECAY_SLACK
        for (i, j), d, obs, alw in zip(pairs, d0, observed.tolist(), allowed.tolist()):
            violations = tuple({"n": n, "observed": o, "allowed": a}
                               for n, o, a in zip(ns, obs, alw) if o > a)
            decay_checks.append(DecayCheck(i, j, d, DECAY_STEPS, violations))

    return UniquenessReport(
        seeds=tuple(seeds),
        limits=limits,
        iterations=iterations,
        all_converged=all_converged,
        pairwise=tuple(pairwise),
        max_pairwise_distance=max_dist,
        passed=passed,
        decay_checks=tuple(decay_checks),
    )


def trace_to_csv(trace: IterationTrace, x_dim: int, y_dim: int, fh) -> None:
    """Write the trace in the stable CSV layout.

    Header: n, x coordinates, y coordinates, step_x, step_y, bound_x,
    bound_y, monotone_ok.  Step columns on row n describe the move from
    iterate n to n+1, so the last row leaves them empty.
    """
    cols = (["n"] + [f"x{i + 1}" for i in range(x_dim)]
            + [f"y{i + 1}" for i in range(y_dim)]
            + ["step_x", "step_y", "bound_x", "bound_y", "monotone_ok"])
    fh.write(",".join(cols) + "\n")
    fmt = lambda v: f"{v:.17g}"
    for n, (xc, yc) in enumerate(trace.coords):
        row = [str(n)] + [fmt(c) for c in xc] + [fmt(c) for c in yc]
        if n < len(trace.step_x):
            row += [fmt(trace.step_x[n]), fmt(trace.step_y[n]),
                    fmt(trace.bound_x[n]), fmt(trace.bound_y[n]),
                    "true" if trace.monotone_ok[n] else "false"]
        else:
            row += ["", "", "", "", ""]
        fh.write(",".join(row) + "\n")
