"""Sampled audits of the solver's operating assumptions.

``audit`` draws a deterministic sample from a PRNG seeded by its
``SamplerConfig``, tests each assumption on every sample, and returns
verdicts plus re-checkable counterexamples: sampled evidence over the
spaces' sampling boxes, not proofs; reports carry ``"evidence":
"sampled"``.  The orders alone decide comparability, with no sample.
One sample of ordered pairs, X pairs then Y pairs, serves the contraction
check, the constant estimate and the monotonicity check, whose contexts
are always drawn after it from the same generator; ``audit`` runs all
three in one walk over the sample.  The walk draws each block of
``_BLOCK`` sample rows where it is used, as ``_sample_blocks`` says, and
runs every check on it while it is in cache; the checks keep per-block
verdicts and witnesses, and only the constant estimate keeps columns of
sample size.  An error in a block is raised by walking again as one
block of all rows, so that it is the first one of the whole sample.

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
from itertools import accumulate, chain
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import EvaluationError, SampleError
from .maps import MapSpec, eval_map, eval_map_batch
from .spaces import (Point, SpaceSpec, distance_batch, empty_sample, leq, leq_batch,
                     pair_rows, sample_points)

# Additive slack when comparing inequality sides along samples.
CONTRACTION_SLACK = 1e-12
# Ratio denominators below this are excluded (0/0 noise).
RATIO_FLOOR = 1e-14
# Cap on counterexamples carried inside a report.
MAX_WITNESSES = 10
# Sample rows per block of the audit's walk: a block's draws, images and
# terms stay in cache and reuse freed memory, where full-size arrays
# would fault in fresh pages.  The blocks are column-major, so each
# column that a kernel reads is contiguous.
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
        if type(self.samples_per_check) is not int or self.samples_per_check < 1:
            raise ValueError("samples_per_check must be a positive integer")
        if not isinstance(self.rng_seed, Integral) or self.rng_seed < 0:
            raise ValueError("rng_seed must be a nonnegative integer")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.rng_seed)


class _Block(NamedTuple):
    """Rows ``rows`` of the audit's sample: the order-comparable pairs and
    the monotonicity check's contexts."""

    rows: slice
    x_lo: np.ndarray
    x_hi: np.ndarray
    y_lo: np.ndarray
    y_hi: np.ndarray
    y_ctx: np.ndarray
    x_ctx: np.ndarray


def _sample_blocks(X: SpaceSpec, Y: SpaceSpec, n: int, rng: np.random.Generator, size: int):
    """Yield the ``_Block``s of ``size`` consecutive rows covering range(n).

    Drawn whole, the sample takes its (n, dim) ``sample_points`` arrays
    from ``rng`` in this order: the draws of ``ordered_pairs`` on X, then
    on Y, then the Y and the X contexts, which are always drawn.  ``random``
    takes one 64-bit output of the generator per double, so row r of an
    array that starts at output o begins at output o + r * dim.  A block
    draws each array's rows there, moving the generator with ``advance``
    (backwards by going round its 2^128 period), so its rows are the whole
    sample's bit for bit; a sample of one block draws as a whole one does."""
    kx, ky = 1 + X.order.componentwise, 1 + Y.order.componentwise
    arrays = [X] * kx + [Y] * ky + [Y, X]
    starts = list(accumulate((n * S.dim for S in arrays), initial=0))
    at = 0  # outputs taken so far
    for i in range(0, n, size):
        m = min(size, n - i)
        draws = []
        for S, start in zip(arrays, starts):
            start += i * S.dim
            if start != at:
                rng.bit_generator.advance((start - at) % 2**128)
            draws.append(sample_points(S, m, rng))
            at = start + m * S.dim
        yield _Block(slice(i, i + m), *pair_rows(X, i, *draws[:kx]),
                     *pair_rows(Y, i, *draws[kx:kx + ky]), *draws[kx + ky:])


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

def _monotone_block(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec, b: _Block,
                    found: tuple[list, ...]) -> bool:
    """Whether every row of block ``b`` holds the four monotonicity clauses;
    each clause's violations are added to its list of ``found``, up to
    MAX_WITNESSES.

    For x1 <= x2 and any y:  F(x1,y) <= F(x2,y)  and  G(y,x1) >= G(y,x2).
    For y1 <= y2 and any x:  F(x,y1) >= F(x,y2)  and  G(y1,x) <= G(y2,x).
    """
    # (clause, space of the images, map, low, high, context, second): a
    # clause that varies the map's second argument puts the context first
    # and asks the images to decrease
    clauses = (
        ("F_incr_first", X, F, b.x_lo, b.x_hi, b.y_ctx, False),
        ("G_decr_second", Y, G, b.x_lo, b.x_hi, b.y_ctx, True),
        ("F_decr_second", X, F, b.y_lo, b.y_hi, b.x_ctx, True),
        ("G_incr_first", Y, G, b.y_lo, b.y_hi, b.x_ctx, False),
    )
    passed = True
    for (clause, space, m, lo, hi, ctx, second), witnesses in zip(clauses, found):
        img_lo, img_hi = [eval_map_batch(m, ctx, v) if second else eval_map_batch(m, v, ctx)
                          for v in (lo, hi)]
        ok = leq_batch(space, img_hi, img_lo) if second else leq_batch(space, img_lo, img_hi)
        bad = np.flatnonzero(~ok)
        passed = passed and not bad.size
        for i in bad[:MAX_WITNESSES - len(witnesses)]:
            witnesses.append({"clause": clause, "low": lo[i].tolist(), "high": hi[i].tolist(),
                              "context": ctx[i].tolist(), "image_low": img_lo[i].tolist(),
                              "image_high": img_hi[i].tolist()})
    return passed


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


def _contraction_terms(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                       kind: FamilyKind, b: _Block) -> tuple[tuple[np.ndarray, ...], ...]:
    """(p, q, lhs) of the F and of the G inequality at block ``b``'s pairs:
    the family's columns of ``_FAMILIES``, so that the right sides are
    k*p + l*q, and the left sides d_X(F(x_hi, y_lo), F(x_lo, y_hi)) and
    d_Y(G(y_hi, x_lo), G(y_lo, x_hi)).  Raises SampleError where a
    distance term overflows, as a sampling box's diameter may not."""
    dX, dY = partial(distance_batch, X), partial(distance_batch, Y)
    with np.errstate(over="ignore", invalid="ignore"):
        s = _Pairs(dX, dY, b.x_lo, b.x_hi, b.y_lo, b.y_hi,
                   eval_map_batch(F, b.x_hi, b.y_lo), eval_map_batch(F, b.x_lo, b.y_hi),
                   eval_map_batch(G, b.y_hi, b.x_lo), eval_map_batch(G, b.y_lo, b.x_hi))
        (p_f, q_f), (p_g, q_g) = _FAMILIES[kind].columns(s)
        terms = (p_f, q_f, dX(s.F_xy, s.F_uv)), (p_g, q_g, dY(s.G_yx, s.G_vu))
    # every term is a sum of distances, so >= 0: the max is finite iff all are
    if not all(math.isfinite(t.max()) for side in terms for t in side):
        row = np.flatnonzero(~np.isfinite(np.vstack(terms[0] + terms[1])).all(axis=0))[0]
        raise SampleError(f"a sampled distance overflows at contraction sample "
                          f"{b.rows.start + row}")
    return terms


def _side_result(side: str, lhs: np.ndarray, rhs: np.ndarray, roles: tuple[np.ndarray, ...],
                 before: InequalitySide) -> InequalitySide:
    """One inequality's verdict on the blocks of ``before`` and on this one;
    ``roles`` are the x, u, y, v arrays."""
    bad = np.flatnonzero(lhs > rhs + CONTRACTION_SLACK)
    usable = rhs >= RATIO_FLOOR
    ratio = float(np.divide(*_kept(usable, lhs, rhs)).max()) if usable.any() else None
    ratios = [r for r in (before.max_ratio, ratio) if r is not None]
    violations = tuple({"side": side, **{r: a[i].tolist() for r, a in zip("xuyv", roles)},
                        "lhs": float(lhs[i]), "rhs": float(rhs[i])}
                       for i in bad[:MAX_WITNESSES - len(before.violations)])
    return InequalitySide(before.passed and not bad.size, before.checked + len(lhs),
                          max(ratios, default=None), before.violations + violations)


def _kept(mask: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """The columns' rows where ``mask`` holds; the columns themselves where
    it holds on every row, which boolean indexing copies slowly."""
    return columns if mask.all() else tuple(a[mask] for a in columns)


def _where(mask: np.ndarray) -> np.ndarray | bool:
    """A ufunc ``where`` argument for ``mask``: True where it holds on every
    row, as a masked ufunc runs slowly even on a mask of all True."""
    return True if mask.all() else mask


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

    Each pass over the rows writes one reused buffer, masked to the rows
    it concerns, so that no row is copied once the rows with c_i at or
    below RATIO_FLOOR are dropped; rows without l-leverage read -inf as
    lines, and the zero line is kept apart.  Rows whose scales span more
    than about 1e100 can get a feasible but far from minimal l: ``top``
    values a falling line as (c - k p)/q, whose cancellation error, about
    c 1e-16 / q, can exceed the optimal l.
    """
    active = c > RATIO_FLOOR
    if not active.any():
        return 0.0, 0.0
    p, q, c = _kept(active, p, q, c)
    p_ok = p > RATIO_FLOOR
    q_ok = q > RATIO_FLOOR
    if not (p_ok | q_ok).all():
        return math.inf, math.inf  # some sampled inequality admits no constants
    buf = np.empty_like(c)  # every pass over the rows writes here

    def max_ratio(mask: np.ndarray) -> float:
        """The largest c/p on the rows where ``mask`` holds."""
        rows = _where(mask)
        np.divide(c, p, out=buf, where=rows)
        return float(buf.max(where=rows, initial=-math.inf))

    with np.errstate(over="ignore"):
        # rows with no l-leverage force a floor on k
        k_floor = 0.0 if q_ok.all() else max_ratio(~q_ok)
        k_hi = max_ratio(p_ok) if p_ok.any() else 0.0
    if k_floor == math.inf:
        return math.inf, math.inf
    k_hi = min(max(k_floor, k_hi), sys.float_info.max)

    # the rows with l-leverage are the lines; the zero line is line -1,
    # which a tie on top picks
    lines = _where(q_ok)
    np.copyto(buf, -math.inf, where=~q_ok)

    def line(i: int) -> tuple[float, float, float]:
        return (0.0, 1.0, 0.0) if i < 0 else (float(p[i]), float(q[i]), float(c[i]))

    def at(i: int) -> float:
        """Line i's value at the k of the last pass."""
        return 0.0 if i < 0 else float(buf[i])

    def top(k: float) -> int:
        with np.errstate(over="ignore"):
            np.multiply(k, p, out=buf, where=lines)
            np.subtract(c, buf, out=buf, where=lines)
            np.divide(buf, q, out=buf, where=lines)
        m = int(buf.argmax())
        return -1 if buf[m] <= 0.0 else m

    def falls(i: int) -> bool:
        p_i, q_i, _ = line(i)
        return p_i > q_i

    lo, hi = k_floor, k_hi
    a = top(lo)
    if not falls(a):
        return lo, at(a)
    b = top(hi)
    if falls(b):
        return hi, at(b)
    while True:
        (pa, qa, ca), (pb, qb, cb) = line(a), line(b)
        num, den = ca * qb - cb * qa, pa * qb - pb * qa
        if not math.isfinite(num + den):
            num, den = ca / qa - cb / qb, pa / qa - pb / qb
        # den > 0 in exact arithmetic; 0 if parallel to rounding
        k = max(lo, min(hi, num / den)) if den > 0.0 else lo
        m = top(k)
        if at(m) <= max(at(a), at(b)):
            return k, at(m)
        if falls(m):
            lo, a = k, m
        else:
            hi, b = k, m


def _sampled_checks(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec,
                    family: ContractionFamily, cfg: SamplerConfig | None, estimate: bool):
    """``family``'s ContractionCheck, the (k, l) estimated from its kind's
    terms with ``estimate`` (else None), and the MonotoneCheck, from one
    walk over the sample's blocks.

    Run whole, one after another, the checks meet errors in this order: a
    contraction EvaluationError, an overflowing distance term, a
    degenerate estimate, a monotonicity EvaluationError, each at its first
    row.  A block's error need not be that one, so on any error the walk
    is made again as one block of all rows, which raises it."""
    cfg = cfg or SamplerConfig()
    walk = partial(_walk, F, G, X, Y, family, cfg, estimate)
    try:
        return walk(_BLOCK)
    except (EvaluationError, SampleError):
        if cfg.samples_per_check <= _BLOCK:
            raise
    return walk(cfg.samples_per_check)


def _walk(F: MapSpec, G: MapSpec, X: SpaceSpec, Y: SpaceSpec, family: ContractionFamily,
          cfg: SamplerConfig, estimate: bool, size: int):
    n = cfg.samples_per_check
    for S in (X, Y):  # a sample that cannot be drawn whole fails before any draw
        empty_sample(S, n)
    sides = [InequalitySide(True, 0, None)] * 2
    if estimate:  # p, q and lhs of the F rows, then of the G rows
        try:
            pqc = np.empty((3, 2, n))
        except MemoryError as exc:
            raise SampleError(f"cannot hold the estimate's terms of {n} samples: {exc}") from None
    found = ([], [], [], [])      # witnesses per monotonicity clause
    monotone_ok = True
    for b in _sample_blocks(X, Y, n, cfg.rng(), size):
        terms = _contraction_terms(F, G, X, Y, family.kind, b)
        roles = (b.x_hi, b.x_lo, b.y_lo, b.y_hi), (b.x_lo, b.x_hi, b.y_hi, b.y_lo)
        sides = [_side_result(side, lhs, family.k * p + family.l * q, r, before)
                 for side, (p, q, lhs), r, before in zip("FG", terms, roles, sides)]
        if estimate:
            for j, side_terms in enumerate(terms):
                pqc[:, j, b.rows] = side_terms
            if b.rows.stop == n and not (pqc[:2] >= RATIO_FLOOR).any():
                raise SampleError("degenerate samples: all inequality right-hand sides are zero")
        monotone_ok = _monotone_block(F, G, X, Y, b, found) and monotone_ok
    return (ContractionCheck(sides[0].passed and sides[1].passed, family, *sides),
            _min_sum_constants(*pqc.reshape(3, -1)) if estimate else None,
            MonotoneCheck(monotone_ok, 4 * n, tuple(chain(*found))[:MAX_WITNESSES]))


def _factor_witness(space: SpaceSpec) -> tuple[bool, tuple | None]:
    """(passed, witness): have all pairs of sampling-box points a common lower
    and upper bound?  Componentwise orders pass; a discrete one passes iff
    every extent hi - lo is within its slack.  The K tie points are lo and
    the m listed points; the witness pairs lo with the first of P_K = hi,
    ..., P_1 (P_j = lo + (hi - lo) j/K) within the slack of no tie point,
    which no third point bounds.  One exists if an extent exceeds 2 (m + 1)
    slack: each tie point is then near at most one P_j."""
    order, (lo, hi) = space.order, space.sampling_box
    if order.componentwise or all(b - a <= order.slack for a, b in zip(lo, hi)):
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
    """Run every checker and aggregate the verdicts into one report.

    ``with_estimates`` adds the (k, l) of least k + l with k*p + l*q >= lhs
    on every sampled F and G row of ``family``'s kind.  It reads only the
    kind: ``ContractionFamily(kind, 0.0, 0.0)`` gives any kind's."""
    contraction, estimates, monotone = _sampled_checks(F, G, X, Y, family, cfg, with_estimates)
    return HypothesisReport(
        family=family, mixed_monotone=monotone, seed=check_seed(F, G, X, Y, x0, y0),
        contraction=contraction, comparability=check_comparability(X, Y),
        estimated_constants=None if estimates is None else dict(zip("kl", estimates)))
