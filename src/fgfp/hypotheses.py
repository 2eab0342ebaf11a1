"""Sampled audits of the solver's operating assumptions.

Each checker draws a deterministic sample stream (seeded PRNG), tests one
assumption on every sample, and returns a verdict plus re-checkable
counterexamples.  Verdicts are sampled evidence over the spaces' sampling
boxes, not proofs; serialized reports carry ``"evidence": "sampled"``.

The four contraction families bound d(F(x,y), F(u,v)) on order-comparable
pairs (x >= u, y <= v for the F inequality; mirrored for G).  Each
admits a range of constants and implies geometric envelopes on the steps
n >= 1 of the coupled iteration, with d1x, d1y the first step distances,
D = d1x + d1y and theta = (k+l)/2:

    SYM_HALF     (k/2) [d_X(x,u) + d_Y(y,v)]            k, l in [0, 1)
                 x: (k/2) theta^(n-1) D      y: (l/2) theta^(n-1) D
    LIN_ASYM     k d_X(x,u) + l d_Y(y,v)                k + l < 1
                 x, y: (k+l)^n D
    KANNAN       k d_X(x,F(x,y)) + l d_X(u,F(u,v))      k + l < 1
                 x: (l/(1-k))^n d1x          y: (k/(1-l))^n d1y
    CHATTERJEA   k d_X(x,F(u,v)) + l d_X(u,F(x,y))      k, l in [0, 1/2)
                 x: (l/(1-l))^n d1x          y: (k/(1-k))^n d1y

SYM_HALF and LIN_ASYM bound d_X + d_Y of two comparable pairs, so their
envelopes are sum-based and that sum shrinks by the envelope ratio per
coupled step; ``solver.uniqueness_probe`` checks it.  ``_FAMILIES`` is
this table in code.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, SampleError
from .maps import MapSpec, eval_map, eval_map_batch
from .spaces import (OrderKind, Point, SpaceSpec, common_bounds_batch,
                     distance_batch, leq, leq_batch, sample_points)

# Additive slack when comparing inequality sides along samples.
CONTRACTION_SLACK = 1e-12
# Ratio denominators below this are excluded (0/0 noise).
RATIO_FLOOR = 1e-14
# Cap on counterexamples carried inside a report.
MAX_WITNESSES = 10


class FamilyKind(str, Enum):
    SYM_HALF = "SYM_HALF"
    LIN_ASYM = "LIN_ASYM"
    KANNAN = "KANNAN"
    CHATTERJEA = "CHATTERJEA"


class Envelope(NamedTuple):
    """Geometric envelope of one component's steps: step n >= 1 is at most
    coef * ratio^(n - lag) * base, where base is d1x + d1y if ``on_sum``
    and the component's own first step otherwise.

    A sum-based envelope comes from a product contraction: d_X + d_Y of two
    comparable pairs shrinks by ``ratio`` per coupled step, which the
    uniqueness probe checks."""

    coef: float
    ratio: float
    lag: int
    on_sum: bool


class _Family(NamedTuple):
    requires: str                                # admissible (k, l), as text
    admissible: Callable[[float, float], bool]
    rates: Callable[[float, float], tuple]       # -> x envelope, y envelope
    # _ContractionData columns (p, q) of the F and the G side: rhs = k*p + l*q;
    # None for SYM_HALF, whose rhs are (k/2)(dx + dy) and (l/2)(dx + dy)
    columns: tuple[tuple[str, str], tuple[str, str]] | None


_FAMILIES = {
    FamilyKind.SYM_HALF: _Family(
        "k, l in [0, 1)", lambda k, l: k < 1 and l < 1,
        lambda k, l: (Envelope(0.5 * k, (k + l) / 2.0, 1, True),
                      Envelope(0.5 * l, (k + l) / 2.0, 1, True)),
        None),
    FamilyKind.LIN_ASYM: _Family(
        "k + l < 1", lambda k, l: k + l < 1,
        lambda k, l: (Envelope(1.0, k + l, 0, True),
                      Envelope(1.0, k + l, 0, True)),
        (("dx", "dy"), ("dy", "dx"))),
    FamilyKind.KANNAN: _Family(
        "k + l < 1", lambda k, l: k + l < 1,
        lambda k, l: (Envelope(1.0, l / (1.0 - k), 0, False),
                      Envelope(1.0, k / (1.0 - l), 0, False)),
        (("f_disp_hi", "f_disp_lo"), ("g_disp_hi", "g_disp_lo"))),
    FamilyKind.CHATTERJEA: _Family(
        "k, l in [0, 1/2)", lambda k, l: k < 0.5 and l < 0.5,
        lambda k, l: (Envelope(1.0, l / (1.0 - l), 0, False),
                      Envelope(1.0, k / (1.0 - k), 0, False)),
        (("f_cross_hi", "f_cross_lo"), ("g_cross_hi", "g_cross_lo"))),
}


@dataclass(frozen=True)
class ContractionFamily:
    """One of the four inequality shapes with its constants, and the
    envelopes that ``_FAMILIES`` gives for them."""

    kind: FamilyKind
    k: float
    l: float
    envelope_x: Envelope = field(init=False, repr=False, compare=False)
    envelope_y: Envelope = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind = FamilyKind(self.kind)
        k = float(self.k)
        l = float(self.l)
        if not (math.isfinite(k) and math.isfinite(l)) or k < 0 or l < 0:
            raise ValueError("constants k, l must be finite and nonnegative")
        row = _FAMILIES[kind]
        if not row.admissible(k, l):
            raise ValueError(f"{kind.value} requires {row.requires}")
        envelope_x, envelope_y = row.rates(k, l)
        # the tail bounds sum a geometric series in the ratio
        if envelope_x.ratio >= 1.0 or envelope_y.ratio >= 1.0:
            raise ValueError("family ratio must be < 1")
        for name, value in (("kind", kind), ("k", k), ("l", l),
                            ("envelope_x", envelope_x), ("envelope_y", envelope_y)):
            object.__setattr__(self, name, value)

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "k": self.k, "l": self.l}


@dataclass(frozen=True)
class SamplerConfig:
    samples_per_check: int = 2000
    rng_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.samples_per_check, int) or self.samples_per_check < 1:
            raise ValueError("samples_per_check must be a positive integer")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)


# ---------------------------------------------------------------------------
# Sampling helpers

def _ordered_pairs(space: SpaceSpec, n: int,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Manufacture n pairs (lo, hi) with lo <= hi in the space order:
    min/max of two draws for componentwise orders, equal pairs with every
    other row set to a listed relation for discrete ones."""
    kind = space.order.kind
    if kind is OrderKind.COMPONENTWISE:
        U = sample_points(space, n, rng)
        V = sample_points(space, n, rng)
        return np.minimum(U, V), np.maximum(U, V)
    if kind is OrderKind.COMPONENTWISE_REVERSED:
        U = sample_points(space, n, rng)
        V = sample_points(space, n, rng)
        return np.maximum(U, V), np.minimum(U, V)
    U = sample_points(space, n, rng)
    lo = U.copy()
    hi = U.copy()
    closure = space.order.closure
    if kind is OrderKind.DISCRETE_PLUS_PAIRS and closure:
        rows = np.arange(1, n, 2)
        pairs = np.asarray(closure, dtype=np.float64)[(rows // 2) % len(closure)]
        lo[rows] = pairs[:, 0]
        hi[rows] = pairs[:, 1]
    return lo, hi


def _rows(arr: np.ndarray, idx: int) -> list[float]:
    return [float(v) for v in arr[idx]]


# ---------------------------------------------------------------------------
# Check results

@dataclass(frozen=True)
class MonotoneCheck:
    passed: bool
    checked: int
    counterexamples: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checked": self.checked,
                "counterexamples": list(self.counterexamples)}


@dataclass(frozen=True)
class SeedCheck:
    passed: bool
    x_ok: bool
    y_ok: bool
    x0: Point
    y0: Point
    f_at_seed: Point
    g_at_seed: Point

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "x_ok": self.x_ok,
            "y_ok": self.y_ok,
            "x0": list(self.x0.coords),
            "y0": list(self.y0.coords),
            "f_at_seed": list(self.f_at_seed.coords),
            "g_at_seed": list(self.g_at_seed.coords),
        }


@dataclass(frozen=True)
class InequalitySide:
    passed: bool
    checked: int
    max_ratio: float | None
    violations: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checked": self.checked,
                "max_ratio": self.max_ratio, "violations": list(self.violations)}


@dataclass(frozen=True)
class ContractionCheck:
    passed: bool
    family: ContractionFamily
    f_side: InequalitySide
    g_side: InequalitySide

    def to_dict(self) -> dict:
        return {"passed": self.passed, "family": self.family.to_dict(),
                "inequality_f": self.f_side.to_dict(),
                "inequality_g": self.g_side.to_dict()}


@dataclass(frozen=True)
class ComparabilityCheck:
    passed: bool
    pairs_checked: int
    failures: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {"passed": self.passed, "pairs_checked": self.pairs_checked,
                "failures": list(self.failures)}


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregate of all sampled checks for one problem.

    ``passed`` covers the existence hypotheses (mixed monotonicity, seed
    condition, contraction inequality).  Comparability, the uniqueness
    hypothesis decided per sampled pair from the orders, is reported
    without gating ``passed``; the Lipschitz ratio is informational
    (continuity is not machine-checkable).
    """

    family: ContractionFamily
    mixed_monotone: MonotoneCheck
    seed: SeedCheck
    contraction: ContractionCheck
    comparability: ComparabilityCheck
    lipschitz: dict = field(default_factory=dict)
    estimated_constants: dict | None = None

    @property
    def passed(self) -> bool:
        return self.mixed_monotone.passed and self.seed.passed and self.contraction.passed

    def to_dict(self) -> dict:
        return {
            "evidence": "sampled",
            "passed": self.passed,
            "mixed_monotone": self.mixed_monotone.to_dict(),
            "seed_condition": self.seed.to_dict(),
            "contraction": self.contraction.to_dict(),
            "comparability": self.comparability.to_dict(),
            "lipschitz_estimate": dict(self.lipschitz),
            "estimated_constants": self.estimated_constants,
        }


# ---------------------------------------------------------------------------
# Checkers

def check_mixed_monotone(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                         cfg: SamplerConfig | None = None) -> MonotoneCheck:
    """Sample the four monotonicity clauses.

    For x1 <= x2 and any y:  F(x1,y) <= F(x2,y)  and  G(y,x1) >= G(y,x2).
    For y1 <= y2 and any x:  F(x,y1) >= F(x,y2)  and  G(y1,x) <= G(y2,x).
    """
    cfg = cfg or SamplerConfig()
    rng = cfg.rng()
    n = cfg.samples_per_check
    # fixed draw order keeps the stream deterministic
    x_lo, x_hi = _ordered_pairs(X, n, rng)
    y_ctx = sample_points(Y, n, rng)
    y_lo, y_hi = _ordered_pairs(Y, n, rng)
    x_ctx = sample_points(X, n, rng)

    f_lo = eval_map_batch(F, x_lo, y_ctx)
    f_hi = eval_map_batch(F, x_hi, y_ctx)
    g_lo = eval_map_batch(G, y_ctx, x_lo)
    g_hi = eval_map_batch(G, y_ctx, x_hi)
    f_ylo = eval_map_batch(F, x_ctx, y_lo)
    f_yhi = eval_map_batch(F, x_ctx, y_hi)
    g_ylo = eval_map_batch(G, y_lo, x_ctx)
    g_yhi = eval_map_batch(G, y_hi, x_ctx)

    clauses = [
        ("F_incr_first", leq_batch(X, f_lo, f_hi), x_lo, x_hi, y_ctx, f_lo, f_hi),
        ("G_decr_second", leq_batch(Y, g_hi, g_lo), x_lo, x_hi, y_ctx, g_lo, g_hi),
        ("F_decr_second", leq_batch(X, f_yhi, f_ylo), y_lo, y_hi, x_ctx, f_ylo, f_yhi),
        ("G_incr_first", leq_batch(Y, g_ylo, g_yhi), y_lo, y_hi, x_ctx, g_ylo, g_yhi),
    ]
    witnesses: list[dict] = []
    checked = 0
    for clause, ok, lo, hi, ctx, img_lo, img_hi in clauses:
        checked += int(ok.shape[0])
        for i in np.flatnonzero(~ok):
            if len(witnesses) >= MAX_WITNESSES:
                break
            witnesses.append({
                "clause": clause,
                "low": _rows(lo, i),
                "high": _rows(hi, i),
                "context": _rows(ctx, i),
                "image_low": _rows(img_lo, i),
                "image_high": _rows(img_hi, i),
            })
    passed = all(bool(ok.all()) for _, ok, *_ in clauses)
    return MonotoneCheck(passed, checked, tuple(witnesses))


def check_seed(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
               x0: Point, y0: Point) -> SeedCheck:
    """Launch condition: x0 <= F(x0, y0) in X and G(y0, x0) <= y0 in Y."""
    try:
        fx0 = eval_map(F, x0, y0)
        gy0 = eval_map(G, y0, x0)
    except EvaluationError as exc:
        raise EvaluationError(f"evaluation failed at the seed x0={list(x0.coords)}, "
                              f"y0={list(y0.coords)}: {exc}") from None
    x_ok = leq(X, x0, fx0)
    y_ok = leq(Y, gy0, y0)
    return SeedCheck(x_ok and y_ok, x_ok, y_ok, x0, y0, fx0, gy0)


@dataclass(frozen=True)
class _ContractionData:
    """Sampled quantities shared by check_contraction and estimate_constants."""

    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    dx: np.ndarray          # d_X(x_hi, x_lo)
    dy: np.ndarray          # d_Y(y_hi, y_lo)
    lhs_f: np.ndarray       # d_X(F(x_hi, y_lo), F(x_lo, y_hi))
    lhs_g: np.ndarray       # d_Y(G(y_hi, x_lo), G(y_lo, x_hi))
    # displacement distances for the self/cross families
    f_disp_hi: np.ndarray   # d_X(x_hi, F(x_hi, y_lo))
    f_disp_lo: np.ndarray   # d_X(x_lo, F(x_lo, y_hi))
    g_disp_hi: np.ndarray   # d_Y(y_hi, G(y_hi, x_lo))
    g_disp_lo: np.ndarray   # d_Y(y_lo, G(y_lo, x_hi))
    f_cross_hi: np.ndarray  # d_X(x_hi, F(x_lo, y_hi))
    f_cross_lo: np.ndarray  # d_X(x_lo, F(x_hi, y_lo))
    g_cross_hi: np.ndarray  # d_Y(y_hi, G(y_lo, x_hi))
    g_cross_lo: np.ndarray  # d_Y(y_lo, G(y_hi, x_lo))


def _contraction_data(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                      cfg: SamplerConfig) -> _ContractionData:
    rng = cfg.rng()
    n = cfg.samples_per_check
    x_lo, x_hi = _ordered_pairs(X, n, rng)
    y_lo, y_hi = _ordered_pairs(Y, n, rng)

    # F inequality side conditions: x >= u, y <= v  ->  x = x_hi, u = x_lo,
    # y = y_lo, v = y_hi.  G side mirrors them.
    F_xy = eval_map_batch(F, x_hi, y_lo)
    F_uv = eval_map_batch(F, x_lo, y_hi)
    G_yx = eval_map_batch(G, y_hi, x_lo)
    G_vu = eval_map_batch(G, y_lo, x_hi)

    return _ContractionData(
        x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi,
        dx=distance_batch(X, x_hi, x_lo),
        dy=distance_batch(Y, y_hi, y_lo),
        lhs_f=distance_batch(X, F_xy, F_uv),
        lhs_g=distance_batch(Y, G_yx, G_vu),
        f_disp_hi=distance_batch(X, x_hi, F_xy),
        f_disp_lo=distance_batch(X, x_lo, F_uv),
        g_disp_hi=distance_batch(Y, y_hi, G_yx),
        g_disp_lo=distance_batch(Y, y_lo, G_vu),
        f_cross_hi=distance_batch(X, x_hi, F_uv),
        f_cross_lo=distance_batch(X, x_lo, F_xy),
        g_cross_hi=distance_batch(Y, y_hi, G_vu),
        g_cross_lo=distance_batch(Y, y_lo, G_yx),
    )


def _family_rhs(family: ContractionFamily, data: _ContractionData) -> tuple[np.ndarray, np.ndarray]:
    k, l = family.k, family.l
    columns = _FAMILIES[family.kind].columns
    if columns is None:
        s = data.dx + data.dy
        return 0.5 * k * s, 0.5 * l * s
    (pf, qf), (pg, qg) = columns
    return (k * getattr(data, pf) + l * getattr(data, qf),
            k * getattr(data, pg) + l * getattr(data, qg))


def _side_result(data: _ContractionData, lhs: np.ndarray, rhs: np.ndarray,
                 side: str) -> InequalitySide:
    bad = lhs > rhs + CONTRACTION_SLACK
    usable = rhs >= RATIO_FLOOR
    max_ratio = float((lhs[usable] / rhs[usable]).max()) if usable.any() else None
    violations = []
    for i in np.flatnonzero(bad)[:MAX_WITNESSES]:
        if side == "F":
            roles = {"x": _rows(data.x_hi, i), "u": _rows(data.x_lo, i),
                     "y": _rows(data.y_lo, i), "v": _rows(data.y_hi, i)}
        else:
            roles = {"x": _rows(data.x_lo, i), "u": _rows(data.x_hi, i),
                     "y": _rows(data.y_hi, i), "v": _rows(data.y_lo, i)}
        violations.append({"side": side, **roles,
                           "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    return InequalitySide(not bool(bad.any()), int(lhs.shape[0]), max_ratio,
                          tuple(violations))


def check_contraction(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                      family: ContractionFamily,
                      cfg: SamplerConfig | None = None) -> ContractionCheck:
    """Sample the family inequality for F (on d_X) and G (on d_Y)."""
    return _check_contraction(_contraction_data(F, G, X, Y, cfg or SamplerConfig()),
                              family)


def _check_contraction(data: _ContractionData,
                       family: ContractionFamily) -> ContractionCheck:
    rhs_f, rhs_g = _family_rhs(family, data)
    f_side = _side_result(data, data.lhs_f, rhs_f, "F")
    g_side = _side_result(data, data.lhs_g, rhs_g, "G")
    return ContractionCheck(f_side.passed and g_side.passed, family, f_side, g_side)


def _min_sum_constants(p: np.ndarray, q: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """Minimize k + l subject to k*p_i + l*q_i >= c_i, k >= 0, l >= 0.

    All coefficients are nonnegative.  l(k) = max over usable rows of
    (c_i - k p_i)/q_i is convex piecewise-linear, so k + l(k) is minimized
    by ternary search over the feasible k interval, for 200 steps or until
    the bracket stops moving.
    """
    active = c > RATIO_FLOOR
    if not active.any():
        return 0.0, 0.0
    p, q, c = p[active], q[active], c[active]
    p_ok = p > RATIO_FLOOR
    q_ok = q > RATIO_FLOOR
    if bool((~p_ok & ~q_ok).any()):
        return math.inf, math.inf  # some sampled inequality admits no constants
    # rows with no l-leverage force a floor on k
    k_floor = float((c[~q_ok] / p[~q_ok]).max()) if bool((~q_ok).any()) else 0.0

    pq = p[q_ok]
    qq = q[q_ok]
    cq = c[q_ok]

    def l_of(k: float) -> float:
        if qq.shape[0] == 0:
            return 0.0
        return max(0.0, float(((cq - k * pq) / qq).max()))

    k_hi = k_floor
    if p_ok.any():
        k_hi = max(k_hi, float((c[p_ok] / p[p_ok]).max()))
    lo, hi = k_floor, k_hi
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        bracket = (lo, m2) if m1 + l_of(m1) <= m2 + l_of(m2) else (m1, hi)
        if bracket == (lo, hi):
            break  # a step depends on (lo, hi) alone, so every later one stalls too
        lo, hi = bracket
    candidates = [k_floor, lo, (lo + hi) / 2.0, hi]
    best_k = min(candidates, key=lambda k: k + l_of(k))
    return best_k, l_of(best_k)


def estimate_constants(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                       kind: FamilyKind | str,
                       cfg: SamplerConfig | None = None) -> tuple[float, float]:
    """Smallest constants making all sampled family inequalities hold.

    SYM_HALF maximizes the two independent ratios; the other families share
    (k, l) across both inequalities, so the estimate minimizes k + l over
    the sampled linear constraints.  Uses the same sample as
    check_contraction for the same config; ``audit`` draws it once for both.
    """
    return _estimate_constants(_contraction_data(F, G, X, Y, cfg or SamplerConfig()),
                               FamilyKind(kind))


def _estimate_constants(data: _ContractionData, kind: FamilyKind) -> tuple[float, float]:
    columns = _FAMILIES[kind].columns
    if columns is None:
        s = data.dx + data.dy
        usable = s >= RATIO_FLOOR
        if not usable.any():
            raise SampleError("degenerate samples: all inequality right-hand sides are zero")
        k_hat = float((2.0 * data.lhs_f[usable] / s[usable]).max())
        l_hat = float((2.0 * data.lhs_g[usable] / s[usable]).max())
        return k_hat, l_hat
    (pf, qf), (pg, qg) = columns
    p = np.concatenate([getattr(data, pf), getattr(data, pg)])
    q = np.concatenate([getattr(data, qf), getattr(data, qg)])
    c = np.concatenate([data.lhs_f, data.lhs_g])
    if not bool((np.maximum(p, q) >= RATIO_FLOOR).any()):
        raise SampleError("degenerate samples: all inequality right-hand sides are zero")
    return _min_sum_constants(p, q, c)


def check_comparability(X: SpaceSpec, Y: SpaceSpec,
                        cfg: SamplerConfig | None = None) -> ComparabilityCheck:
    """Uniqueness hypothesis: does each of min(samples, 200) sampled pairs of
    product points have a third point comparable to both?

    A pair passes iff its X parts and its Y parts each have a common lower
    and upper bound, which ``spaces.common_bounds_batch`` decides from the
    orders: always under componentwise orders, iff comparable under
    discrete ones.
    """
    cfg = cfg or SamplerConfig()
    rng = cfg.rng()
    n_pairs = min(cfg.samples_per_check, 200)
    X1 = sample_points(X, n_pairs, rng)
    Y1 = sample_points(Y, n_pairs, rng)
    X2 = sample_points(X, n_pairs, rng)
    Y2 = sample_points(Y, n_pairs, rng)
    ok = common_bounds_batch(X, X1, X2) & common_bounds_batch(Y, Y1, Y2)
    failures = tuple({"p1_x": _rows(X1, i), "p1_y": _rows(Y1, i),
                      "p2_x": _rows(X2, i), "p2_y": _rows(Y2, i)}
                     for i in np.flatnonzero(~ok)[:MAX_WITNESSES])
    return ComparabilityCheck(not failures, n_pairs, failures)


def estimate_lipschitz(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                       cfg: SamplerConfig | None = None) -> dict:
    """Sampled local Lipschitz ratios of F and G over the product box.

    Informational stand-in for continuity (which sampling cannot verify):
    max over close-by pairs of d(F(p), F(q)) / [d_X + d_Y](p, q).
    """
    cfg = cfg or SamplerConfig()
    rng = cfg.rng()
    n = cfg.samples_per_check
    xp = sample_points(X, n, rng)
    yp = sample_points(Y, n, rng)
    x_lo, x_hi = np.asarray(X.sampling_box[0]), np.asarray(X.sampling_box[1])
    y_lo, y_hi = np.asarray(Y.sampling_box[0]), np.asarray(Y.sampling_box[1])
    hx = 1e-3 * (x_hi - x_lo)
    hy = 1e-3 * (y_hi - y_lo)
    xq = np.clip(xp + rng.uniform(-1.0, 1.0, xp.shape) * hx, x_lo, x_hi)
    yq = np.clip(yp + rng.uniform(-1.0, 1.0, yp.shape) * hy, y_lo, y_hi)
    den = distance_batch(X, xp, xq) + distance_batch(Y, yp, yq)
    usable = den >= RATIO_FLOOR
    out = {"f": None, "g": None}
    if usable.any():
        df = distance_batch(X, eval_map_batch(F, xp, yp), eval_map_batch(F, xq, yq))
        dg = distance_batch(Y, eval_map_batch(G, yp, xp), eval_map_batch(G, yq, xq))
        out["f"] = float((df[usable] / den[usable]).max())
        out["g"] = float((dg[usable] / den[usable]).max())
    return out


def audit(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
          family: ContractionFamily, x0: Point, y0: Point,
          cfg: SamplerConfig | None = None,
          with_estimates: bool = False) -> HypothesisReport:
    """Run every checker and aggregate the verdicts into one report."""
    cfg = cfg or SamplerConfig()
    estimates = contraction = None
    if with_estimates:
        # one contraction sample serves both; it is dropped before the other
        # checkers draw theirs, so their peak memory does not add up
        data = _contraction_data(F, G, X, Y, cfg)
        k_hat, l_hat = _estimate_constants(data, family.kind)
        estimates = {"k": k_hat, "l": l_hat}
        contraction = _check_contraction(data, family)
        del data
    mixed_monotone = check_mixed_monotone(F, G, X, Y, cfg)
    seed = check_seed(F, G, X, Y, x0, y0)
    if contraction is None:
        contraction = check_contraction(F, G, X, Y, family, cfg)
    return HypothesisReport(
        family=family,
        mixed_monotone=mixed_monotone,
        seed=seed,
        contraction=contraction,
        comparability=check_comparability(X, Y, cfg),
        lipschitz=estimate_lipschitz(F, G, X, Y, cfg),
        estimated_constants=estimates,
    )
