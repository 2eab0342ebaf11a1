"""Seeded input generator for the fgfp benchmark.

Every workload input is derived from the five 1-d corpus shapes by
transforms that carry each family inequality over unchanged:

* a per-coordinate lift to dimension d: coordinate i of F (and G) applies
  the 1-d map to coordinate i of each argument, so every side condition,
  monotonicity clause and family inequality holds coordinatewise and
  therefore under the L1 sums;
* a per-coordinate shift s_i and an optional reflection z -> s_i - z,
  which are isometries; a reflection swaps COMPONENTWISE and
  COMPONENTWISE_REVERSED and maps listed order relations to their images;
* optional WEIGHTED_L1 metrics, with the same weight on coordinate i of X
  and of Y so that the coordinatewise inequalities still add up.

The transformed problem carries the image of the shape's fixed point as
its declared fixed point.  Seeds are images of points
(x* + c*dx, y* + c*dy) along the shape's launch direction, with c >= 0;
a chain of componentwise-decreasing c vectors gives seeds that all meet
the launch condition and are pairwise product-comparable.

The generator imports nothing from fgfp: the shapes below are a copy of
the corpus entries, so the benchmark inputs stay fixed when the package
changes.  ``selftest.py`` checks the copy against ``fgfp.corpus``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

INF = float("inf")

WORKLOADS = ("corpus-2k", "audit-200k", "unique-seeds")


@dataclass(frozen=True)
class Shape:
    """A 1-d corpus entry plus the direction in which seeds may move."""

    F: str
    G: str
    family: tuple[str, float, float]
    x_box: tuple[float, float]
    y_box: tuple[float, float]
    x_order: str
    y_order: str
    y_pairs: tuple[tuple[float, float], ...]
    fixed: tuple[float, float]
    seed_c: float           # the corpus seed is fixed + seed_c * launch_dir
    launch_dir: tuple[float, float]
    launch_max: float       # largest c that keeps the seed in the box


SHAPES = {
    "ex1": Shape("(a1 - b1)/3", "(a1 - b1)/5", ("SYM_HALF", 2.0 / 3.0, 2.0 / 5.0),
                 (-INF, 0.0), (0.0, INF), "COMPONENTWISE", "COMPONENTWISE", (),
                 (0.0, 0.0), 1.0, (-1.0, 1.0), 2.0),
    "ex2": Shape("(4*a1 - 3*b1)/17", "(4*a1 - 3*b1)/17",
                 ("LIN_ASYM", 4.0 / 17.0, 3.0 / 17.0),
                 (-INF, 0.0), (0.0, INF), "COMPONENTWISE", "COMPONENTWISE", (),
                 (0.0, 0.0), 1.0, (-1.0, 1.0), 2.0),
    "ex3": Shape("a1/4 + 1", "a1/4 - 1", ("KANNAN", 1.0 / 3.0, 1.0 / 2.0),
                 (1.0, 2.0), (-2.0, -1.0), "COMPONENTWISE", "COMPONENTWISE", (),
                 (4.0 / 3.0, -4.0 / 3.0), 1.0 / 3.0, (-1.0, 1.0), 1.0 / 3.0),
    "ex4": Shape("a1/3", "-b1/3", ("CHATTERJEA", 0.25, 0.25),
                 (0.0, 1.0), (-1.0, 0.0), "DISCRETE", "DISCRETE_PLUS_PAIRS",
                 ((-1.0, 0.0),), (0.0, 0.0), 0.0, (0.0, 0.0), 0.0),
    "coupled-reg": Shape("(a1 - b1)/4", "(a1 - b1)/4", ("SYM_HALF", 0.5, 0.5),
                         (-5.0, 5.0), (-5.0, 5.0), "COMPONENTWISE", "COMPONENTWISE", (),
                         (0.0, 0.0), 1.0, (-1.0, 1.0), 4.0),
}

CORPUS_IDS = ("ex1", "ex2", "ex3", "ex4", "coupled-reg")

_REFLECTED_ORDER = {"COMPONENTWISE": "COMPONENTWISE_REVERSED",
                    "COMPONENTWISE_REVERSED": "COMPONENTWISE"}


@dataclass(frozen=True)
class Transform:
    """Lift to ``dim`` coordinates, shift, optionally reflect, optionally weight."""

    dim: int = 1
    x_shift: tuple[float, ...] = (0.0,)
    y_shift: tuple[float, ...] = (0.0,)
    reflect: bool = False
    weights: tuple[float, ...] | None = None

    def image(self, u: float, shift: float) -> float:
        return shift - u if self.reflect else u + shift


IDENTITY = Transform()


def _edge(v: float):
    return "inf" if v == INF else ("-inf" if v == -INF else v)


def _shifted_var(var: str, i: int, shift: float, reflect: bool) -> str:
    """Original 1-d coordinate written in terms of the new coordinate i."""
    name = f"{var}{i}"
    if reflect:
        return f"({shift!r} - {name})" if shift else f"(-{name})"
    if shift > 0:
        return f"({name} - {shift!r})"
    if shift < 0:
        return f"({name} + {-shift!r})"
    return name


def _coordinate_expr(text: str, i: int, a_shift: float, b_shift: float,
                     out_shift: float, reflect: bool) -> str:
    def sub(m):
        var = m.group(1)
        return _shifted_var(var, i, a_shift if var == "a" else b_shift, reflect)

    inner = re.sub(r"\b([ab])1\b", sub, text)
    if inner == text and i == 1 and not reflect and not out_shift:
        return text  # the identity transform reproduces the corpus text
    if reflect:
        return f"{out_shift!r} - ({inner})" if out_shift else f"-({inner})"
    if out_shift > 0:
        return f"({inner}) + {out_shift!r}"
    if out_shift < 0:
        return f"({inner}) - {-out_shift!r}"
    return f"({inner})"


def _space(t: Transform, box: tuple[float, float], order: str,
           pairs: tuple[tuple[float, float], ...], shifts: tuple[float, ...]) -> dict:
    lo, hi = box
    if t.reflect:
        lo, hi = -hi, -lo
        order = _REFLECTED_ORDER.get(order, order)
    space: dict = {
        "dim": t.dim,
        "lower": [_edge(lo + s) for s in shifts],
        "upper": [_edge(hi + s) for s in shifts],
    }
    if t.weights is not None:
        space["metric"] = {"kind": "WEIGHTED_L1", "weights": list(t.weights)}
    space["order"] = {"kind": order}
    if pairs:
        space["order"]["extra_pairs"] = [
            [[t.image(a, s) for s in shifts], [t.image(b, s) for s in shifts]]
            for a, b in pairs]
    return space


def seed_point(shape: Shape, t: Transform, c: tuple[float, ...]) -> dict:
    """Image of (x* + c*dx, y* + c*dy), coordinatewise."""
    (fx, fy), (dx, dy) = shape.fixed, shape.launch_dir
    return {"x0": [t.image(fx + ci * dx, s) for ci, s in zip(c, t.x_shift)],
            "y0": [t.image(fy + ci * dy, s) for ci, s in zip(c, t.y_shift)]}


def problem_doc(shape: Shape, t: Transform, seed_c: tuple[float, ...]) -> dict:
    """The problem file for ``shape`` under ``t`` with its seed at ``seed_c``."""
    fx, fy = shape.fixed
    F = "; ".join(_coordinate_expr(shape.F, i + 1, t.x_shift[i], t.y_shift[i],
                                   t.x_shift[i], t.reflect) for i in range(t.dim))
    G = "; ".join(_coordinate_expr(shape.G, i + 1, t.y_shift[i], t.x_shift[i],
                                   t.y_shift[i], t.reflect) for i in range(t.dim))
    kind, k, l = shape.family
    return {
        "spaces": {"X": _space(t, shape.x_box, shape.x_order, (), t.x_shift),
                   "Y": _space(t, shape.y_box, shape.y_order, shape.y_pairs, t.y_shift)},
        "maps": {"F": F, "G": G},
        "family": {"kind": kind, "k": k, "l": l},
        "seed": seed_point(shape, t, seed_c),
        "expected": {"fixed_point": [[t.image(fx, s) for s in t.x_shift],
                                     [t.image(fy, s) for s in t.y_shift]]},
    }


def random_transform(rng: random.Random, dim: int, reflect: bool,
                     weighted: bool) -> Transform:
    """Shifts in [-2, 2] and weights in [1/2, 2], both on dyadic grids."""
    shifts = lambda: tuple(rng.randrange(-16, 17) / 8.0 for _ in range(dim))
    x_shift, y_shift = shifts(), shifts()
    weights = tuple(rng.randrange(2, 9) / 4.0 for _ in range(dim)) if weighted else None
    return Transform(dim, x_shift, y_shift, reflect, weights)


def seed_chain(rng: random.Random, shape: Shape, dim: int, n: int) -> list[tuple[float, ...]]:
    """n launch offsets c_1 >= c_2 >= ... >= c_n > 0, coordinatewise.

    Each is a common direction in (1/2, 1] times launch_max, scaled by
    (n - j)/n, so any two seeds built from them are product-comparable.
    """
    direction = [shape.launch_max * rng.randrange(9, 17) / 16.0 for _ in range(dim)]
    return [tuple(u * (n - j) / n for u in direction) for j in range(n)]


# ---------------------------------------------------------------------------
# Workloads

@dataclass(frozen=True)
class Command:
    """One CLI call and what its report must show."""

    key: str                # unique within the workload
    kind: str               # solve | check | unique | run-all
    argv: tuple[str, ...]
    decay_pairs: int = 0    # unique: expected number of decay replays


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    problem_files: tuple[str, ...]
    seed_files: tuple[str, ...]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _rng_seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


# (shape, dim, reflect, weighted, commands) per generated problem.  The
# structure is fixed per workload; the workload seed only moves values, so
# every seed asks the program for the same kind and amount of work.  Each
# pass has an odd number of commands, so the median command time is the
# time of one command rather than the mean of two unlike ones.
AUDIT_PROBLEMS = (
    ("ex1", 3, False, False, ("check", "solve")),  # SYM_HALF, COMPONENTWISE, L1
    ("ex2", 2, True, True, ("check", "solve")),    # LIN_ASYM, COMPONENTWISE_REVERSED, WEIGHTED_L1
    ("ex3", 2, False, True, ("check", "solve")),   # KANNAN, COMPONENTWISE, WEIGHTED_L1
    ("ex4", 2, True, False, ("check", "solve")),   # CHATTERJEA, DISCRETE / DISCRETE_PLUS_PAIRS, L1
    ("coupled-reg", 4, True, True, ("solve",)),    # SYM_HALF, COMPONENTWISE_REVERSED, dim 4
)
AUDIT_SAMPLES = "200000"

UNIQUE_PROBLEMS = (
    ("ex1", 2, False, False),          # SYM_HALF: replay on every pair
    ("ex2", 2, True, True),            # LIN_ASYM: replay on every pair
    ("coupled-reg", 2, False, True),   # SYM_HALF: replay on every pair
    ("ex1", 3, True, False),           # SYM_HALF, reversed orders: replay on every pair
    ("ex3", 2, False, False),          # KANNAN: no decay rate, no replay
)
UNIQUE_SEEDS = 8                       # seeds per problem, the problem's own included
RATE_FAMILIES = ("SYM_HALF", "LIN_ASYM")


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` and list its commands."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    rng = random.Random(f"fgfp-bench/{name}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    commands: list[Command] = []
    problems: list[str] = []
    seed_files: list[str] = []

    if name == "corpus-2k":
        for pid in CORPUS_IDS:
            shape = SHAPES[pid]
            path = _write(out_dir / f"{pid}.json",
                          problem_doc(shape, IDENTITY, (shape.seed_c,)))
            problems.append(path)
            for kind in ("solve", "check"):
                commands.append(Command(f"{kind}:{pid}", kind,
                                        (kind, path, "--rng-seed", _rng_seed(rng))))
        commands.append(Command("run-all", "run-all",
                                ("corpus", "run-all", "--rng-seed", _rng_seed(rng))))

    elif name == "audit-200k":
        for n, (pid, dim, reflect, weighted, kinds) in enumerate(AUDIT_PROBLEMS):
            shape = SHAPES[pid]
            t = random_transform(rng, dim, reflect, weighted)
            c = seed_chain(rng, shape, dim, 1)[0]
            path = _write(out_dir / f"p{n}-{pid}.json", problem_doc(shape, t, c))
            problems.append(path)
            for kind in kinds:
                commands.append(Command(f"{kind}:p{n}", kind,
                                        (kind, path, "--samples", AUDIT_SAMPLES,
                                         "--rng-seed", _rng_seed(rng))))

    else:  # unique-seeds
        for n, (pid, dim, reflect, weighted) in enumerate(UNIQUE_PROBLEMS):
            shape = SHAPES[pid]
            t = random_transform(rng, dim, reflect, weighted)
            chain = seed_chain(rng, shape, dim, UNIQUE_SEEDS)
            own = rng.randrange(UNIQUE_SEEDS)
            path = _write(out_dir / f"u{n}-{pid}.json", problem_doc(shape, t, chain[own]))
            extra = [seed_point(shape, t, c) for j, c in enumerate(chain) if j != own]
            seeds_path = _write(out_dir / f"u{n}-{pid}.seeds.json", {"seeds": extra})
            problems.append(path)
            seed_files.append(seeds_path)
            pairs = UNIQUE_SEEDS * (UNIQUE_SEEDS - 1) // 2
            commands.append(Command(
                f"unique:u{n}", "unique",
                ("unique", path, "--seeds", seeds_path, "--rng-seed", _rng_seed(rng)),
                decay_pairs=pairs if shape.family[0] in RATE_FAMILIES else 0))

    return Workload(tuple(commands), tuple(problems), tuple(seed_files))
