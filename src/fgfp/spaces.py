"""Boxes in R^d carrying a partial order and an (optionally weighted) L1 metric.

A space is a box domain together with a metric and a partial order.  The
product of two spaces X and Y uses the componentwise sum of the metrics
and the order that keeps the X component and *reverses* the Y component:

    (x, y) <= (u, v)   iff   x <= u in X  and  v <= y in Y.

Boxes may be unbounded on either side; every space still carries a bounded
``sampling_box`` so that sampling-based checks have a region to draw from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, SampleError

# Absolute tolerance for box-membership checks; iterates may graze a face.
DOMAIN_TOL = 1e-9
# Default slack absorbing floating-point noise in order comparisons.
DEFAULT_SLACK = 1e-12
# Extent of the derived sampling box along an unbounded side.
UNBOUNDED_EXTENT = 10.0


class OrderKind(str, Enum):
    COMPONENTWISE = "COMPONENTWISE"
    COMPONENTWISE_REVERSED = "COMPONENTWISE_REVERSED"
    DISCRETE = "DISCRETE"
    DISCRETE_PLUS_PAIRS = "DISCRETE_PLUS_PAIRS"


class MetricKind(str, Enum):
    L1 = "L1"
    WEIGHTED_L1 = "WEIGHTED_L1"


@dataclass(frozen=True)
class Point:
    """An element of a space: a finite coordinate vector."""

    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise ValueError("point needs at least one coordinate")
        for c in coords:
            if not math.isfinite(c):
                raise ValueError(f"point coordinates must be finite, got {c!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]


def point(*coords: float) -> Point:
    """Shorthand constructor: ``point(-1.0)`` or ``point(0.5, 2.0)``."""
    return Point(tuple(coords))


def _as_point(p) -> Point:
    return p if isinstance(p, Point) else Point(tuple(p))


def _transitive_closure(pairs: tuple[tuple[Point, Point], ...]):
    """Close the listed strict relations under transitivity.

    Raises if the closure relates two distinct points both ways, which
    would break antisymmetry.
    """
    if not pairs:
        return ()
    nodes: list[tuple[float, ...]] = []
    index: dict[tuple[float, ...], int] = {}
    for a, b in pairs:
        for p in (a.coords, b.coords):
            if p not in index:
                index[p] = len(nodes)
                nodes.append(p)
    m = len(nodes)
    reach = [[False] * m for _ in range(m)]
    for a, b in pairs:
        reach[index[a.coords]][index[b.coords]] = True
    for w in range(m):
        for i in range(m):
            if reach[i][w]:
                row_i, row_w = reach[i], reach[w]
                for j in range(m):
                    if row_w[j]:
                        row_i[j] = True
    for i in range(m):
        for j in range(i + 1, m):
            if reach[i][j] and reach[j][i]:
                raise ValueError("extra_pairs break antisymmetry (two distinct points related both ways)")
    return tuple(
        (nodes[i], nodes[j]) for i in range(m) for j in range(m) if i != j and reach[i][j]
    )


@dataclass(frozen=True)
class OrderSpec:
    """How two points of one space compare.

    ``extra_pairs`` lists strict relations added on top of equality and is
    valid only for DISCRETE_PLUS_PAIRS; the transitive closure is taken at
    construction so ``leq`` is a plain lookup.
    """

    kind: OrderKind = OrderKind.COMPONENTWISE
    extra_pairs: tuple[tuple[Point, Point], ...] = ()
    slack: float = DEFAULT_SLACK

    def __post_init__(self):
        kind = OrderKind(self.kind)
        object.__setattr__(self, "kind", kind)
        slack = float(self.slack)
        if not math.isfinite(slack) or slack < 0:
            raise ValueError("slack must be a finite nonnegative real")
        object.__setattr__(self, "slack", slack)
        pairs = tuple((_as_point(a), _as_point(b)) for a, b in self.extra_pairs)
        if pairs and kind is not OrderKind.DISCRETE_PLUS_PAIRS:
            raise ValueError("extra_pairs are only valid for kind=DISCRETE_PLUS_PAIRS")
        dims = {p.dim for ab in pairs for p in ab}
        if len(dims) > 1:
            raise DimensionMismatch("extra_pairs mix dimensions")
        object.__setattr__(self, "extra_pairs", pairs)
        object.__setattr__(self, "_closure", _transitive_closure(pairs))

    @property
    def closure(self) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
        return self._closure

    @property
    def componentwise(self) -> bool:
        return self.kind in (OrderKind.COMPONENTWISE, OrderKind.COMPONENTWISE_REVERSED)


@dataclass(frozen=True)
class MetricSpec:
    kind: MetricKind = MetricKind.L1
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        kind = MetricKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is MetricKind.WEIGHTED_L1:
            if not self.weights:
                raise ValueError("WEIGHTED_L1 requires weights")
            w = tuple(float(x) for x in self.weights)
            if any(not math.isfinite(x) or x <= 0 for x in w):
                raise ValueError("weights must be strictly positive finite reals")
            object.__setattr__(self, "weights", w)
        elif self.weights is not None:
            raise ValueError("weights are only valid for WEIGHTED_L1")


@dataclass(frozen=True)
class SpaceSpec:
    """A box in R^dim with a metric and a partial order.

    ``lower``/``upper`` may contain ``-inf``/``+inf``.  ``sampling_box``
    must be bounded and contained in the box; when omitted it defaults to
    the box itself, truncated to extent ``UNBOUNDED_EXTENT`` along each
    unbounded side (e.g. (-inf, 0] gives [-10, 0]).  Its diameter under
    the metric must be finite, which bounds each extent hi - lo too.
    """

    dim: int
    lower: tuple[float, ...]
    upper: tuple[float, ...]
    metric: MetricSpec = MetricSpec()
    order: OrderSpec = OrderSpec()
    sampling_box: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        lower = tuple(float(v) for v in self.lower)
        upper = tuple(float(v) for v in self.upper)
        if len(lower) != self.dim or len(upper) != self.dim:
            raise DimensionMismatch(f"lower/upper must have length {self.dim}")
        for lo, hi in zip(lower, upper):
            if math.isnan(lo) or math.isnan(hi) or lo == math.inf or hi == -math.inf:
                raise ValueError("invalid box bounds")
            if lo > hi:
                raise ValueError(f"lower bound {lo} exceeds upper bound {hi}")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.metric.kind is MetricKind.WEIGHTED_L1 and len(self.metric.weights) != self.dim:
            raise DimensionMismatch("metric weights length must equal dim")
        for a, b in self.order.extra_pairs:
            if a.dim != self.dim:
                raise DimensionMismatch("order extra_pairs dimension differs from space dim")
        if self.sampling_box is None:
            lo_s = tuple(
                lo if math.isfinite(lo) else (hi - UNBOUNDED_EXTENT if math.isfinite(hi) else -UNBOUNDED_EXTENT)
                for lo, hi in zip(lower, upper)
            )
            hi_s = tuple(
                hi if math.isfinite(hi) else (lo + UNBOUNDED_EXTENT if math.isfinite(lo) else UNBOUNDED_EXTENT)
                for lo, hi in zip(lower, upper)
            )
        else:
            lo_s = tuple(float(v) for v in self.sampling_box[0])
            hi_s = tuple(float(v) for v in self.sampling_box[1])
            if len(lo_s) != self.dim or len(hi_s) != self.dim:
                raise DimensionMismatch(f"sampling_box must have dimension {self.dim}")
        for i, (a, b) in enumerate(zip(lo_s, hi_s)):
            if not (math.isfinite(a) and math.isfinite(b)) or a > b:
                raise ValueError("sampling_box must be bounded with lower <= upper")
            if a < lower[i] - DOMAIN_TOL or b > upper[i] + DOMAIN_TOL:
                raise ValueError("sampling_box must be contained in the space box")
        # sampled distances, and each extent hi - lo, must stay finite
        if not math.isfinite(coords_distance(self, hi_s, lo_s)):
            raise ValueError("sampling_box diameter under the metric overflows")
        object.__setattr__(self, "sampling_box", (lo_s, hi_s))

    def contains(self, p: Point) -> bool:
        """True iff each coordinate lies in [lo - DOMAIN_TOL, hi + DOMAIN_TOL].

        The solver's step checks (``solver._step_checks``) write these
        comparisons out per space, with each bound folded to a literal; a
        change here must be made there too.
        """
        if p.dim != self.dim:
            raise DimensionMismatch(f"point has dimension {p.dim}, space has {self.dim}")
        return all(lo - DOMAIN_TOL <= c <= hi + DOMAIN_TOL
                   for c, lo, hi in zip(p.coords, self.lower, self.upper))


def box_space(lower, upper, *, metric: MetricSpec | None = None,
              order: OrderSpec | None = None, sampling_box=None) -> SpaceSpec:
    """Build a SpaceSpec from bound sequences, inferring the dimension."""
    lower = tuple(float(v) for v in lower)
    return SpaceSpec(
        dim=len(lower),
        lower=lower,
        upper=tuple(float(v) for v in upper),
        metric=metric or MetricSpec(),
        order=order or OrderSpec(),
        sampling_box=sampling_box,
    )


def coords_distance(space: SpaceSpec, a, b) -> float:
    """Metric value between two coordinate sequences (no checks).

    The solver's step checks (``solver._step_checks``) repeat this sum,
    term for term and left to right; a change here must be made there too.
    """
    total = 0.0
    if space.metric.kind is MetricKind.WEIGHTED_L1:
        for w, x, y in zip(space.metric.weights, a, b):
            total += w * abs(x - y)
        return total
    for x, y in zip(a, b):
        total += abs(x - y)
    return total


def metric_distance(space: SpaceSpec, a: Point, b: Point) -> float:
    """Metric value without domain-membership checks (used along traces)."""
    if a.dim != space.dim or b.dim != space.dim:
        raise DimensionMismatch(
            f"points have dimensions {a.dim}, {b.dim}; space has {space.dim}")
    return coords_distance(space, a.coords, b.coords)


def _rowwise_all(test, A: np.ndarray, B) -> np.ndarray:
    """``np.all(test(A, B), axis=1)`` for (n, dim) A and B (or one point's
    coordinates), built one column at a time: numpy reduces slowly along
    a short inner axis."""
    columns = zip(A.T, np.asarray(B, dtype=np.float64).T)
    out = test(*next(columns))
    for a, b in columns:
        out &= test(a, b)
    return out


def leq_batch(space: SpaceSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rowwise order test for (n, dim) coordinate arrays."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    s = space.order.slack
    kind = space.order.kind
    if kind is OrderKind.COMPONENTWISE_REVERSED:
        A, B = B, A
    if kind is OrderKind.COMPONENTWISE or kind is OrderKind.COMPONENTWISE_REVERSED:
        return _rowwise_all(lambda a, b: a <= b + s, A, B)

    def within(a, b):
        return np.abs(a - b) <= s

    out = _rowwise_all(within, A, B)
    for lo, hi in space.order.closure:
        out |= _rowwise_all(within, A, lo) & _rowwise_all(within, B, hi)
    return out


def _within(a, b, s: float) -> bool:
    for x, y in zip(a, b):
        if not abs(x - y) <= s:
            return False
    return True


def coords_leq(space: SpaceSpec, a, b) -> bool:
    """``leq`` on two coordinate sequences (no checks), without numpy.

    Applies the float comparisons of ``leq_batch`` to one row, so the two
    agree on every input.  The solver's step checks
    (``solver._step_checks``) write the same comparisons out per space, the
    order's closure as literals; a change here must be made there too.
    """
    s = space.order.slack
    kind = space.order.kind
    if kind is OrderKind.COMPONENTWISE_REVERSED:
        a, b = b, a
    if kind is OrderKind.COMPONENTWISE or kind is OrderKind.COMPONENTWISE_REVERSED:
        for x, y in zip(a, b):
            if not x <= y + s:
                return False
        return True
    if _within(a, b, s):
        return True
    return any(_within(a, lo, s) and _within(b, hi, s)
               for lo, hi in space.order.closure)


def leq(space: SpaceSpec, a: Point, b: Point) -> bool:
    """True iff a <= b under the space's order (with slack)."""
    if a.dim != space.dim or b.dim != space.dim:
        raise DimensionMismatch(
            f"points have dimensions {a.dim}, {b.dim}; space has {space.dim}")
    return coords_leq(space, a.coords, b.coords)


def product_metric_distance(X: SpaceSpec, Y: SpaceSpec,
                            p: tuple[Point, Point], q: tuple[Point, Point]) -> float:
    """Sum metric on X x Y: d(p, q) = d_X(p0, q0) + d_Y(p1, q1), without
    domain checks (for trace points)."""
    return metric_distance(X, p[0], q[0]) + metric_distance(Y, p[1], q[1])


def product_leq(X: SpaceSpec, Y: SpaceSpec,
                p: tuple[Point, Point], q: tuple[Point, Point]) -> bool:
    """Product order: (x, y) <= (u, v) iff x <= u in X and v <= y in Y."""
    return leq(X, p[0], q[0]) and leq(Y, q[1], p[1])


def distance_batch(space: SpaceSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rowwise metric values for coordinate arrays of shape (..., n, dim)
    (no domain check).

    Summed one column at a time in ``coords_distance``'s order and
    expressions, so the two agree bit for bit on every row; a matrix
    product ``|A - B| @ w`` does not, as BLAS picks its kernel by CPU.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    weights = space.metric.weights if space.metric.kind is MetricKind.WEIGHTED_L1 else None
    total = None
    for c in range(space.dim):
        d = A[..., c] - B[..., c]
        np.abs(d, out=d)
        if weights is not None:
            d *= weights[c]
        if total is None:
            total = d
        else:
            total += d
    return total


def empty_sample(space: SpaceSpec, n: int, order: str = "C") -> np.ndarray:
    """An uninitialised (n, dim) array in ``order``, or SampleError where
    it cannot be allocated."""
    try:
        return np.empty((n, space.dim), order=order)
    except (MemoryError, ValueError) as exc:  # ValueError: n * dim overflows
        raise SampleError(f"cannot draw {n} samples of dimension {space.dim}: {exc}") from None


def sample_points(space: SpaceSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples from the sampling box, shape (n, dim), column-major.

    Bit for bit ``rng.uniform(lo, hi, (n, dim))``, whose formula is
    ``lo + (hi - lo) * u`` on ``rng.random``'s doubles.  Those are drawn
    row-major, in ``uniform``'s order; each column is scaled into a
    column-major result, so that the kernels reading it one column at a
    time read contiguous memory.  ``SpaceSpec`` keeps every hi - lo
    finite.  Raises SampleError where the (n, dim) draw cannot be allocated.
    """
    U = rng.random(out=empty_sample(space, n))
    S = U if space.dim == 1 else empty_sample(space, n, order="F")
    for u, s, lo, hi in zip(U.T, S.T, *space.sampling_box):
        np.multiply(u, hi - lo, out=s)
        s += lo
    return S


def ordered_pairs(space: SpaceSpec, n: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``n`` pairs (lo, hi) with lo <= hi in the space order, as two (n, dim)
    arrays built by ``pair_rows`` from ``sample_points`` draws on ``rng``:
    two for a componentwise order, one for a discrete one."""
    return pair_rows(space, 0, *(sample_points(space, n, rng)
                                 for _ in range(1 + space.order.componentwise)))


def pair_rows(space: SpaceSpec, first: int, U: np.ndarray,
              V: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows first, first + 1, ... of ``ordered_pairs``' (lo, hi), from the
    same rows of its draws U and, for a componentwise order, V: their
    rowwise min and max; for a discrete order, equal pairs from U with
    every odd row of the whole sample set to a listed relation.  Takes
    over U and V, and keeps their memory layout."""
    if V is not None:
        lo, hi = np.minimum(U, V), np.maximum(U, V, out=V)
        return (hi, lo) if space.order.kind is OrderKind.COMPONENTWISE_REVERSED else (lo, hi)
    closure = space.order.closure
    hi = U.copy(order="K")
    if closure:
        rows = np.arange((first + 1) % 2, len(U), 2)
        pairs = np.asarray(closure, dtype=np.float64)[((first + rows) // 2) % len(closure)]
        U[rows] = pairs[:, 0]
        hi[rows] = pairs[:, 1]
    return U, hi
