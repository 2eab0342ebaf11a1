"""Sampled audits of the solver's operating assumptions.

Each sampled checker draws a deterministic sample stream from a PRNG
seeded by its ``SamplerConfig``, tests one assumption on every sample,
and returns a verdict plus re-checkable counterexamples: sampled evidence
over the spaces' sampling boxes, not proofs; reports carry ``"evidence":
"sampled"``.  The orders alone decide comparability, with no sample.
One sample of ordered pairs, X pairs then Y pairs, serves the contraction
check, the constant estimate and the monotonicity check, which draws its
contexts after it from the same generator; ``audit`` draws it once for all
three.  ``_by_block`` walks the checks' map images one block of ``_BLOCK``
sample rows at a time and the checks keep only their per-row results, so
no full-size image array is held unless an evaluation error is replayed
on the whole images to name its sample row.

The four contraction families bound d(F(x,y), F(u,v)) on order-comparable
pairs (x >= u, y <= v) by k p + l q for the distance terms (p, q) below; the
G inequality mirrors F's (x, u, F, d_X swap with y, v, G, d_Y), except on
SYM_HALF's G side, written out.  Each admits a range of constants and
implies geometric envelopes on the steps n >= 1 of the coupled iteration,
with d1x, d1y the first step distances, D = d1x + d1y and theta = (k+l)/2:

    SYM_HALF     F: ((d_X(x,u) + d_Y(y,v))/2, 0)            k, l in [0, 1)
                 G: (0, (d_X(x,u) + d_Y(y,v))/2)
                 x: (k/2) theta^(n-1) D      y: (l/2) theta^(n-1) D
    LIN_ASYM     (d_X(x,u), d_Y(y,v))                       k + l < 1
                 x, y: (k+l)^n D
    KANNAN       (d_X(x,F(x,y)), d_X(u,F(u,v)))             k + l < 1
                 x: (l/(1-k))^n d1x          y: (k/(1-l))^n d1y
    CHATTERJEA   (d_X(x,F(u,v)), d_X(u,F(x,y)))             k, l in [0, 1/2)
                 x: (l/(1-l))^n d1x          y: (k/(1-k))^n d1y

SYM_HALF and LIN_ASYM bound d_X + d_Y of two comparable pairs, so their
envelopes are sum-based and that sum shrinks by the envelope ratio per
coupled step; ``solver.uniqueness_probe`` checks it.  ``_FAMILIES`` is
this table in code.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, SampleError
from .maps import MapSpec, eval_map, eval_map_batch
from .spaces import (OrderKind, Point, SpaceSpec, distance_batch, leq, leq_batch,
                     ordered_pairs, sample_points)

# Additive slack when comparing inequality sides along samples.
CONTRACTION_SLACK = 1e-12
# Ratio denominators below this are excluded (0/0 noise).
RATIO_FLOOR = 1e-14
# Cap on counterexamples carried inside a report.
MAX_WITNESSES = 10
# Sample rows per block of map images: a block's images stay in cache and
# reuse freed memory, where full-size ones would fault in fresh pages.
_BLOCK = 8192


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


class _Pairs(NamedTuple):
    """A block of sampled order-comparable pairs and their images.  The F
    inequality reads x = x_hi, u = x_lo, y = y_lo, v = y_hi; the G one
    mirrors them."""

    dX: Callable            # distance_batch on X
    dY: Callable            # distance_batch on Y
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    F_xy: np.ndarray        # F(x_hi, y_lo)
    F_uv: np.ndarray        # F(x_lo, y_hi)
    G_yx: np.ndarray        # G(y_hi, x_lo)
    G_vu: np.ndarray        # G(y_lo, x_hi)


def _half_sum_columns(s: _Pairs):
    half = (s.dX(s.x_hi, s.x_lo) + s.dY(s.y_hi, s.y_lo)) / 2.0
    zero = np.zeros_like(half)
    return (half, zero), (zero, half)


def _step_columns(s: _Pairs):
    dx, dy = s.dX(s.x_hi, s.x_lo), s.dY(s.y_hi, s.y_lo)
    return (dx, dy), (dy, dx)


class _Family(NamedTuple):
    requires: str                                # admissible (k, l), as text
    admissible: Callable[[float, float], bool]
    rates: Callable[[float, float], tuple]       # -> x envelope, y envelope
    # -> (p, q) of the F and of the G side at the sampled pairs: rhs = k*p + l*q
    columns: Callable[[_Pairs], tuple]


_FAMILIES = {
    FamilyKind.SYM_HALF: _Family(
        "k, l in [0, 1)", lambda k, l: k < 1 and l < 1,
        lambda k, l: (Envelope(0.5 * k, (k + l) / 2.0, 1, True),
                      Envelope(0.5 * l, (k + l) / 2.0, 1, True)),
        _half_sum_columns),
    FamilyKind.LIN_ASYM: _Family(
        "k + l < 1", lambda k, l: k + l < 1,
        lambda k, l: (Envelope(1.0, k + l, 0, True),
                      Envelope(1.0, k + l, 0, True)),
        _step_columns),
    FamilyKind.KANNAN: _Family(
        "k + l < 1", lambda k, l: k + l < 1,
        lambda k, l: (Envelope(1.0, l / (1.0 - k), 0, False),
                      Envelope(1.0, k / (1.0 - l), 0, False)),
        lambda s: ((s.dX(s.x_hi, s.F_xy), s.dX(s.x_lo, s.F_uv)),
                   (s.dY(s.y_hi, s.G_yx), s.dY(s.y_lo, s.G_vu)))),
    FamilyKind.CHATTERJEA: _Family(
        "k, l in [0, 1/2)", lambda k, l: k < 0.5 and l < 0.5,
        lambda k, l: (Envelope(1.0, l / (1.0 - l), 0, False),
                      Envelope(1.0, k / (1.0 - k), 0, False)),
        lambda s: ((s.dX(s.x_hi, s.F_uv), s.dX(s.x_lo, s.F_xy)),
                   (s.dY(s.y_hi, s.G_vu), s.dY(s.y_lo, s.G_yx)))),
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


class _Sample(NamedTuple):
    """The ordered pairs that every sampled check reads, and the generator
    they were drawn from, which the monotonicity check goes on drawing its
    contexts from."""

    rng: np.random.Generator
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray


def _sample(X: SpaceSpec, Y: SpaceSpec, cfg: SamplerConfig | None) -> _Sample:
    """``samples_per_check`` ordered pairs in X, then as many in Y, from one
    ``cfg.rng()``."""
    cfg = cfg or SamplerConfig()
    rng, n = cfg.rng(), cfg.samples_per_check
    return _Sample(rng, *ordered_pairs(X, n, rng), *ordered_pairs(Y, n, rng))


def _by_block(images, n: int):
    """Yield (rows, block images) for each slice of ``_BLOCK`` consecutive
    rows covering range(n): every (map, A, B) of ``images``, in order,
    evaluated on the slice of A and B.

    A block's EvaluationError names a row of the block, so the images are
    then evaluated whole, in order, and the first error found, which names
    a row of the whole sample, is raised in its place."""
    try:
        for i in range(0, n, _BLOCK):
            rows = slice(i, i + _BLOCK)
            yield rows, [eval_map_batch(m, A[rows], B[rows]) for m, A, B in images]
        return
    except EvaluationError as exc:
        error = exc
    for m, A, B in images:
        eval_map_batch(m, A, B)
    raise error from None


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
    failures: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        return {"passed": self.passed, "failures": list(self.failures)}


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregate of all checks for one problem.

    ``passed`` covers the existence hypotheses (mixed monotonicity, seed
    condition, contraction inequality).  Comparability, the uniqueness
    hypothesis decided from the orders, is reported without gating
    ``passed``.  Continuity of F and G is not checked: every supported
    order is regular, which the theorems accept in its place.
    """

    family: ContractionFamily
    mixed_monotone: MonotoneCheck
    seed: SeedCheck
    contraction: ContractionCheck
    comparability: ComparabilityCheck
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
    return _check_mixed_monotone(F, G, X, Y, _sample(X, Y, cfg))


def _check_mixed_monotone(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                          s: _Sample) -> MonotoneCheck:
    # the stream's order, pairs then Y contexts then X contexts, fixes the
    # witnesses that the determinism digests pin
    y_ctx = sample_points(Y, len(s.x_lo), s.rng)
    x_ctx = sample_points(X, len(s.x_lo), s.rng)

    # (clause, space of the images, map, low, high, context, second): a
    # clause that varies the map's second argument puts the context first
    # and asks the images to decrease
    clauses = (
        ("F_incr_first", X, F, s.x_lo, s.x_hi, y_ctx, False),
        ("G_decr_second", Y, G, s.x_lo, s.x_hi, y_ctx, True),
        ("F_decr_second", X, F, s.y_lo, s.y_hi, x_ctx, True),
        ("G_incr_first", Y, G, s.y_lo, s.y_hi, x_ctx, False),
    )

    witnesses: list[dict] = []
    checked = 0
    passed = True
    for clause, space, m, lo, hi, ctx, second in clauses:
        images = [(m, ctx, v) if second else (m, v, ctx) for v in (lo, hi)]
        for rows, (img_lo, img_hi) in _by_block(images, len(lo)):
            ok = (leq_batch(space, img_hi, img_lo) if second
                  else leq_batch(space, img_lo, img_hi))
            checked += len(ok)
            bad = np.flatnonzero(~ok)
            passed = passed and not bad.size
            for i in bad[:MAX_WITNESSES - len(witnesses)]:
                r = rows.start + i
                witnesses.append({"clause": clause, "low": lo[r].tolist(), "high": hi[r].tolist(),
                                  "context": ctx[r].tolist(), "image_low": img_lo[i].tolist(),
                                  "image_high": img_hi[i].tolist()})
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
    """One family's contraction results on a ``_Sample``, shared by
    check_contraction and estimate_constants: the left sides and the
    family's (p, q) columns of ``_FAMILIES``, so that the right sides are
    k*p + l*q."""

    lhs_f: np.ndarray       # d_X(F(x_hi, y_lo), F(x_lo, y_hi))
    lhs_g: np.ndarray       # d_Y(G(y_hi, x_lo), G(y_lo, x_hi))
    p_f: np.ndarray
    q_f: np.ndarray
    p_g: np.ndarray
    q_g: np.ndarray


def _contraction_data(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                      kind: FamilyKind, s: _Sample) -> _ContractionData:
    """Raises SampleError where a distance term overflows, as a sampling
    box's diameter may not."""
    dX, dY = partial(distance_batch, X), partial(distance_batch, Y)
    columns = _FAMILIES[kind].columns
    images = ((F, s.x_hi, s.y_lo), (F, s.x_lo, s.y_hi), (G, s.y_hi, s.x_lo), (G, s.y_lo, s.x_hi))
    out = np.empty((6, len(s.x_lo)))  # lhs_f, lhs_g, p_f, q_f, p_g, q_g
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, block in _by_block(images, len(s.x_lo)):
            b = _Pairs(dX, dY, s.x_lo[rows], s.x_hi[rows], s.y_lo[rows], s.y_hi[rows], *block)
            (p_f, q_f), (p_g, q_g) = columns(b)
            out[:, rows] = (dX(b.F_xy, b.F_uv), dY(b.G_yx, b.G_vu), p_f, q_f, p_g, q_g)
    # every term is a sum of distances, so >= 0: the max is finite iff all are
    if not math.isfinite(out.max()):
        row = int(np.flatnonzero(~np.isfinite(out).all(axis=0))[0])
        raise SampleError(f"a sampled distance overflows at contraction sample {row}")
    return _ContractionData(*out)


def _family_rhs(family: ContractionFamily, data: _ContractionData) -> tuple[np.ndarray, np.ndarray]:
    k, l = family.k, family.l
    return k * data.p_f + l * data.q_f, k * data.p_g + l * data.q_g


def _side_result(side: str, lhs: np.ndarray, rhs: np.ndarray,
                 roles: tuple[np.ndarray, ...]) -> InequalitySide:
    """One inequality's verdict; ``roles`` are the x, u, y, v arrays."""
    bad = lhs > rhs + CONTRACTION_SLACK
    usable = rhs >= RATIO_FLOOR
    max_ratio = float((lhs[usable] / rhs[usable]).max()) if usable.any() else None
    violations = []
    for i in np.flatnonzero(bad)[:MAX_WITNESSES]:
        violations.append({"side": side, **{r: a[i].tolist() for r, a in zip("xuyv", roles)},
                           "lhs": float(lhs[i]), "rhs": float(rhs[i])})
    return InequalitySide(not bool(bad.any()), int(lhs.shape[0]), max_ratio,
                          tuple(violations))


def check_contraction(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                      family: ContractionFamily,
                      cfg: SamplerConfig | None = None) -> ContractionCheck:
    """Sample the family inequality for F (on d_X) and G (on d_Y)."""
    s = _sample(X, Y, cfg)
    return _check_contraction(s, _contraction_data(F, G, X, Y, family.kind, s), family)


def _check_contraction(s: _Sample, data: _ContractionData,
                       family: ContractionFamily) -> ContractionCheck:
    rhs_f, rhs_g = _family_rhs(family, data)
    f_side = _side_result("F", data.lhs_f, rhs_f, (s.x_hi, s.x_lo, s.y_lo, s.y_hi))
    g_side = _side_result("G", data.lhs_g, rhs_g, (s.x_lo, s.x_hi, s.y_hi, s.y_lo))
    return ContractionCheck(f_side.passed and g_side.passed, family, f_side, g_side)


def _min_sum_constants(p: np.ndarray, q: np.ndarray, c: np.ndarray) -> tuple[float, float]:
    """Minimize k + l subject to k*p_i + l*q_i >= c_i, k >= 0, l >= 0, exactly
    up to rounding.

    All coefficients are nonnegative.  Rows with no l-leverage (q_i at or
    below RATIO_FLOOR) give the floor k >= c_i/p_i; every other row is a
    line l_i(k) = (c_i - k p_i)/q_i, and so is the zero line l = 0.  With
    l(k) the highest line at k, f(k) = k + l(k) is convex and piecewise
    linear, of slope 1 - p_i/q_i where line i is on top.  On [k_floor,
    k_hi], where k_hi makes every row with k-leverage hold at l = 0, the
    walk keeps a left line a of negative slope on top at lo and a right
    line b of nonnegative slope on top at hi.  f >= max(a, b), so their
    crossing k is optimal if no line lies higher there; else the line m on
    top there lies strictly above both, and replaces a (lo = k) if its
    slope is negative, b (hi = k) if not.  A replaced line lies below the
    other current line on the rest of [lo, hi], where every later crossing
    falls, so no line is used twice: the walk ends after at most one step
    per line, each one pass over the rows (a handful on sampled data).
    Where f is flat at its minimum (a row with p_i == q_i on top), that row
    becomes the right line, so the walk returns the smallest optimal k.  l
    is the highest line at the returned k, so every row holds up to
    rounding.

    Values beyond the double range are inf, which no finite k reaches: an
    infinite floor admits no constants, and k_hi stops at the largest
    double, so the lines are valued at finite k only.  Where the products
    of a crossing overflow, the lines are first divided through by q; a
    crossing of two infinite lines is nan and goes to hi.
    """
    active = c > RATIO_FLOOR
    if not active.any():
        return 0.0, 0.0
    p, q, c = p[active], q[active], c[active]
    p_ok = p > RATIO_FLOOR
    q_ok = q > RATIO_FLOOR
    if bool((~p_ok & ~q_ok).any()):
        return math.inf, math.inf  # some sampled inequality admits no constants
    with np.errstate(over="ignore"):
        # rows with no l-leverage force a floor on k
        k_floor = float((c[~q_ok] / p[~q_ok]).max()) if bool((~q_ok).any()) else 0.0
        k_hi = float((c[p_ok] / p[p_ok]).max()) if p_ok.any() else 0.0
    if k_floor == math.inf:
        return math.inf, math.inf
    k_hi = min(max(k_floor, k_hi), sys.float_info.max)

    # line 0 is the zero line, so a tie at l = 0 picks it
    lp = np.concatenate(([0.0], p[q_ok]))
    lq = np.concatenate(([1.0], q[q_ok]))
    lc = np.concatenate(([0.0], c[q_ok]))

    def top(k: float) -> tuple[np.ndarray, int]:
        with np.errstate(over="ignore"):
            l = (lc - k * lp) / lq
        return l, int(l.argmax())

    def falls(i: int) -> bool:
        return bool(lp[i] > lq[i])

    lo, hi = k_floor, k_hi
    l, a = top(lo)
    if not falls(a):
        return lo, float(l[a])
    l, b = top(hi)
    if falls(b):
        return hi, float(l[b])
    while True:
        pa, qa, ca, pb, qb, cb = (float(v) for v in (lp[a], lq[a], lc[a], lp[b], lq[b], lc[b]))
        num, den = ca * qb - cb * qa, pa * qb - pb * qa
        if not math.isfinite(num + den):
            num, den = ca / qa - cb / qb, pa / qa - pb / qb
        # den > 0 in exact arithmetic; 0 if parallel to rounding
        k = max(lo, min(hi, num / den)) if den > 0.0 else lo
        l, m = top(k)
        if l[m] <= max(l[a], l[b]):
            return k, float(l[m])
        if falls(m):
            lo, a = k, m
        else:
            hi, b = k, m


def estimate_constants(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                       kind: FamilyKind | str,
                       cfg: SamplerConfig | None = None) -> tuple[float, float]:
    """Smallest constants making all sampled family inequalities hold: the
    (k, l) minimizing k + l subject to k*p + l*q >= lhs on every F and G row.
    SYM_HALF's constraints separate (q = 0 on its F rows, p = 0 on its G
    rows), so its k and l are the largest sampled ratios lhs/p and lhs/q.
    Uses the same sample as check_contraction for the same config.
    """
    return _estimate_constants(
        _contraction_data(F, G, X, Y, FamilyKind(kind), _sample(X, Y, cfg)))


def _estimate_constants(data: _ContractionData) -> tuple[float, float]:
    p = np.concatenate([data.p_f, data.p_g])
    q = np.concatenate([data.q_f, data.q_g])
    if not bool((np.maximum(p, q) >= RATIO_FLOOR).any()):
        raise SampleError("degenerate samples: all inequality right-hand sides are zero")
    return _min_sum_constants(p, q, np.concatenate([data.lhs_f, data.lhs_g]))


def _factor_witness(space: SpaceSpec) -> tuple[bool, tuple | None]:
    """(passed, witness): have all pairs of sampling-box points a common lower
    and upper bound?  Componentwise orders pass; a discrete one passes iff
    every extent hi - lo is within its slack.  The K tie points are lo and
    the m listed points; the witness pairs lo with the first of P_K = hi,
    ..., P_1 (P_j = lo + (hi - lo) j/K) within the slack of no tie point,
    which no third point bounds.  One exists if an extent exceeds 2 (m + 1)
    slack: each tie point is then near at most one P_j."""
    order, (lo, hi) = space.order, space.sampling_box
    if order.kind in (OrderKind.COMPONENTWISE, OrderKind.COMPONENTWISE_REVERSED) or all(
            b - a <= order.slack for a, b in zip(lo, hi)):
        return True, None
    ties = np.reshape(list({lo, *(p for ab in order.closure for p in ab)}), (-1, 1, space.dim))
    P = np.clip(np.linspace(lo, hi, len(ties) + 1)[:0:-1], lo, hi)
    free = np.flatnonzero(~np.all(np.abs(P - ties) <= order.slack, axis=2).any(axis=0))
    return False, ((list(lo), P[free[0]].tolist()) if free.size else None)


def check_comparability(X: SpaceSpec, Y: SpaceSpec) -> ComparabilityCheck:
    """Uniqueness hypothesis, decided from the orders with no sampling: has
    every pair of points of the sampling boxes of X x Y a third point
    comparable to both?  A pair has one iff its X parts and its Y parts have
    common bounds.  A failure carries one pair: each factor's witness, or
    its box corners where it has none."""
    (x_ok, x_pair), (y_ok, y_pair) = _factor_witness(X), _factor_witness(Y)
    if x_pair is None and y_pair is None:
        return ComparabilityCheck(x_ok and y_ok)
    (p1_x, p2_x), (p1_y, p2_y) = (pair or tuple(map(list, S.sampling_box))
                                  for pair, S in ((x_pair, X), (y_pair, Y)))
    return ComparabilityCheck(False, ({"p1_x": p1_x, "p1_y": p1_y, "p2_x": p2_x, "p2_y": p2_y},))


def audit(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
          family: ContractionFamily, x0: Point, y0: Point,
          cfg: SamplerConfig | None = None,
          with_estimates: bool = False) -> HypothesisReport:
    """Run every checker and aggregate the verdicts into one report."""
    # one sample of ordered pairs serves the contraction check, the
    # estimate and then the monotonicity check, as it does each run alone;
    # the contraction columns are dropped before the monotonicity phase
    s = _sample(X, Y, cfg)
    data = _contraction_data(F, G, X, Y, family.kind, s)
    contraction = _check_contraction(s, data, family)
    estimates = None
    if with_estimates:
        k_hat, l_hat = _estimate_constants(data)
        estimates = {"k": k_hat, "l": l_hat}
    del data
    mixed_monotone = _check_mixed_monotone(F, G, X, Y, s)
    seed = check_seed(F, G, X, Y, x0, y0)
    return HypothesisReport(
        family=family,
        mixed_monotone=mixed_monotone,
        seed=seed,
        contraction=contraction,
        comparability=check_comparability(X, Y),
        estimated_constants=estimates,
    )
