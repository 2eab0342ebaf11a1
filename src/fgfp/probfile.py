"""Problem-file (JSON) loading, validation and export.

Schema (unknown keys are rejected at every level)::

    {
      "spaces": {"X": SPACE, "Y": SPACE},
      "maps":   {"F": "expr[; expr...]", "G": "expr[; expr...]"},
      "family": {"kind": "SYM_HALF|LIN_ASYM|KANNAN|CHATTERJEA", "k": num, "l": num},
      "seed":   {"x0": [num, ...], "y0": [num, ...]},
      "expected": {"fixed_point": [[num...], [num...]], "unique": bool}   # optional
    }

    SPACE = {
      "dim": int,
      "lower": [num | "-inf", ...],          "upper": [num | "inf", ...],
      "metric": {"kind": "L1"} | {"kind": "WEIGHTED_L1", "weights": [num...]},   # optional
      "order": {"kind": "...", "slack": num, "extra_pairs": [[[...],[...]], ...]},  # optional
      "sampling_box": [[num...], [num...]]   # optional
    }

Unbounded box sides are spelled as the strings "-inf"/"inf" because JSON
has no infinity literal.  ``dumps17`` renders reports with every number at
17 significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import json
import math

from .errors import FgfpError, ProblemFileError
from .hypotheses import ContractionFamily
from .maps import parse_map
from .solver import ProblemSpec
from .spaces import MetricKind, MetricSpec, OrderKind, OrderSpec, Point, SpaceSpec

SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Validation helpers

def _require_dict(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ProblemFileError("expected an object", where)
    return value


def _check_keys(d: dict, required: set[str], optional: set[str], where: str):
    missing = required - d.keys()
    if missing:
        raise ProblemFileError(f"missing key(s): {', '.join(sorted(missing))}", where)
    unknown = d.keys() - required - optional
    if unknown:
        raise ProblemFileError(f"unknown key(s): {', '.join(sorted(unknown))}", where)


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(f"expected a number, got {value!r}", where)
    try:
        number = float(value)
    except OverflowError:  # json.load reads integers of any length
        raise ProblemFileError("expected a finite number, got an integer beyond "
                               "the float range", where) from None
    if not math.isfinite(number):  # json.load reads NaN, Infinity and 1e400
        raise ProblemFileError(f"expected a finite number, got {value!r}", where)
    return number


def _edge(value, where: str) -> float:
    if value == "-inf":
        return -math.inf
    if value == "inf":
        return math.inf
    return _number(value, where)


def _vector(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ProblemFileError("expected a non-empty array of numbers", where)
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _parse_space(value, where: str) -> SpaceSpec:
    d = _require_dict(value, where)
    _check_keys(d, {"dim", "lower", "upper"},
                {"metric", "order", "sampling_box"}, where)
    dim = d["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ProblemFileError("dim must be a positive integer", f"{where}.dim")
    for side in ("lower", "upper"):
        if not isinstance(d[side], list) or len(d[side]) != dim:
            raise ProblemFileError(f"must be an array of length {dim}", f"{where}.{side}")
    lower = tuple(_edge(v, f"{where}.lower[{i}]") for i, v in enumerate(d["lower"]))
    upper = tuple(_edge(v, f"{where}.upper[{i}]") for i, v in enumerate(d["upper"]))

    metric = MetricSpec()
    if "metric" in d:
        md = _require_dict(d["metric"], f"{where}.metric")
        _check_keys(md, {"kind"}, {"weights"}, f"{where}.metric")
        try:
            kind = MetricKind(md["kind"])
        except ValueError:
            raise ProblemFileError(f"unknown metric kind {md['kind']!r}",
                                   f"{where}.metric.kind") from None
        weights = None
        if "weights" in md:
            weights = _vector(md["weights"], f"{where}.metric.weights")
        try:
            metric = MetricSpec(kind=kind, weights=weights)
        except ValueError as exc:
            raise ProblemFileError(str(exc), f"{where}.metric") from None

    order = OrderSpec()
    if "order" in d:
        od = _require_dict(d["order"], f"{where}.order")
        _check_keys(od, {"kind"}, {"slack", "extra_pairs"}, f"{where}.order")
        try:
            okind = OrderKind(od["kind"])
        except ValueError:
            raise ProblemFileError(f"unknown order kind {od['kind']!r}",
                                   f"{where}.order.kind") from None
        slack = _number(od.get("slack", OrderSpec().slack), f"{where}.order.slack")
        extra = od.get("extra_pairs", [])
        if not isinstance(extra, list):
            raise ProblemFileError("expected an array of pairs", f"{where}.order.extra_pairs")
        pairs = []
        for i, pair in enumerate(extra):
            pw = f"{where}.order.extra_pairs[{i}]"
            if not isinstance(pair, list) or len(pair) != 2:
                raise ProblemFileError("each pair must be [[...], [...]]", pw)
            pairs.append((Point(_vector(pair[0], pw)), Point(_vector(pair[1], pw))))
        try:
            order = OrderSpec(kind=okind, extra_pairs=tuple(pairs), slack=slack)
        except (ValueError, FgfpError) as exc:
            raise ProblemFileError(str(exc), f"{where}.order") from None

    sampling_box = None
    if "sampling_box" in d:
        sb = d["sampling_box"]
        sw = f"{where}.sampling_box"
        if not isinstance(sb, list) or len(sb) != 2:
            raise ProblemFileError("must be [[lower...], [upper...]]", sw)
        sampling_box = (_vector(sb[0], f"{sw}[0]"), _vector(sb[1], f"{sw}[1]"))

    try:
        return SpaceSpec(dim=dim, lower=lower, upper=upper, metric=metric,
                         order=order, sampling_box=sampling_box)
    except (ValueError, FgfpError) as exc:
        raise ProblemFileError(str(exc), where) from None


def parse_problem_dict(doc: dict, where: str = "problem") -> tuple[ProblemSpec, dict | None]:
    """Validate a problem document and build the ProblemSpec.

    Returns (problem, expected) where expected echoes the optional
    "expected" block ({"fixed_point": ..., "unique": ...} or None).
    """
    d = _require_dict(doc, where)
    _check_keys(d, {"spaces", "maps", "family", "seed"}, {"expected"}, where)

    spaces = _require_dict(d["spaces"], f"{where}.spaces")
    _check_keys(spaces, {"X", "Y"}, set(), f"{where}.spaces")
    X = _parse_space(spaces["X"], f"{where}.spaces.X")
    Y = _parse_space(spaces["Y"], f"{where}.spaces.Y")

    maps_d = _require_dict(d["maps"], f"{where}.maps")
    _check_keys(maps_d, {"F", "G"}, set(), f"{where}.maps")
    for name in ("F", "G"):
        if not isinstance(maps_d[name], str):
            raise ProblemFileError("expected an expression string", f"{where}.maps.{name}")
    try:
        F = parse_map(maps_d["F"], X.dim, Y.dim, X.dim)
    except Exception as exc:
        raise ProblemFileError(str(exc), f"{where}.maps.F") from None
    try:
        G = parse_map(maps_d["G"], Y.dim, X.dim, Y.dim)
    except Exception as exc:
        raise ProblemFileError(str(exc), f"{where}.maps.G") from None

    fam_d = _require_dict(d["family"], f"{where}.family")
    _check_keys(fam_d, {"kind", "k", "l"}, set(), f"{where}.family")
    try:
        family = ContractionFamily(fam_d["kind"], _number(fam_d["k"], f"{where}.family.k"),
                                   _number(fam_d["l"], f"{where}.family.l"))
    except ValueError as exc:
        raise ProblemFileError(str(exc), f"{where}.family") from None

    seed_d = _require_dict(d["seed"], f"{where}.seed")
    _check_keys(seed_d, {"x0", "y0"}, set(), f"{where}.seed")
    seed = (Point(_vector(seed_d["x0"], f"{where}.seed.x0")),
            Point(_vector(seed_d["y0"], f"{where}.seed.y0")))

    expected = None
    declared = None
    if "expected" in d:
        exp_d = _require_dict(d["expected"], f"{where}.expected")
        _check_keys(exp_d, set(), {"fixed_point", "unique"}, f"{where}.expected")
        expected = {}
        if "fixed_point" in exp_d:
            fp = exp_d["fixed_point"]
            fw = f"{where}.expected.fixed_point"
            if not isinstance(fp, list) or len(fp) != 2:
                raise ProblemFileError("must be [[x...], [y...]]", fw)
            declared = (Point(_vector(fp[0], f"{fw}[0]")), Point(_vector(fp[1], f"{fw}[1]")))
            expected["fixed_point"] = [list(declared[0].coords), list(declared[1].coords)]
        if "unique" in exp_d:
            if not isinstance(exp_d["unique"], bool):
                raise ProblemFileError("must be a boolean", f"{where}.expected.unique")
            expected["unique"] = exp_d["unique"]

    try:
        problem = ProblemSpec(X=X, Y=Y, F=F, G=G, family=family, seed=seed,
                              declared_fixed_point=declared)
    except (ValueError, FgfpError) as exc:
        raise ProblemFileError(str(exc), where) from None
    return problem, expected


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFileError(
                f"invalid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})",
                path) from None
        except ValueError as exc:  # bytes that are not UTF-8, overlong integers
            raise ProblemFileError(f"invalid JSON: {exc}", path) from None


def load_problem_file(path: str) -> tuple[ProblemSpec, dict | None]:
    return parse_problem_dict(_read_json(path), where=path)


def _edge_out(v: float):
    if v == math.inf:
        return "inf"
    if v == -math.inf:
        return "-inf"
    return v


def space_to_dict(space: SpaceSpec) -> dict:
    out: dict = {
        "dim": space.dim,
        "lower": [_edge_out(v) for v in space.lower],
        "upper": [_edge_out(v) for v in space.upper],
        "metric": {"kind": space.metric.kind.value},
        "order": {"kind": space.order.kind.value, "slack": space.order.slack},
        "sampling_box": [list(space.sampling_box[0]), list(space.sampling_box[1])],
    }
    if space.metric.weights is not None:
        out["metric"]["weights"] = list(space.metric.weights)
    if space.order.extra_pairs:
        out["order"]["extra_pairs"] = [[list(a.coords), list(b.coords)]
                                       for a, b in space.order.extra_pairs]
    return out


def problem_to_dict(problem: ProblemSpec, expected_unique: bool | None = None) -> dict:
    doc = {
        "spaces": {"X": space_to_dict(problem.X), "Y": space_to_dict(problem.Y)},
        "maps": {"F": problem.F.text, "G": problem.G.text},
        "family": problem.family.to_dict(),
        "seed": {"x0": list(problem.seed[0].coords), "y0": list(problem.seed[1].coords)},
    }
    if problem.declared_fixed_point is not None or expected_unique is not None:
        expected: dict = {}
        if problem.declared_fixed_point is not None:
            fx, fy = problem.declared_fixed_point
            expected["fixed_point"] = [list(fx.coords), list(fy.coords)]
        if expected_unique is not None:
            expected["unique"] = expected_unique
        doc["expected"] = expected
    return doc


def load_seeds_file(path: str) -> list[tuple[Point, Point]]:
    """Read extra seeds: {"seeds": [{"x0": [...], "y0": [...]}, ...]}."""
    d = _require_dict(_read_json(path), path)
    _check_keys(d, {"seeds"}, set(), path)
    if not isinstance(d["seeds"], list):
        raise ProblemFileError("seeds must be an array", f"{path}.seeds")
    seeds = []
    for i, s in enumerate(d["seeds"]):
        sw = f"{path}.seeds[{i}]"
        sd = _require_dict(s, sw)
        _check_keys(sd, {"x0", "y0"}, set(), sw)
        seeds.append((Point(_vector(sd["x0"], f"{sw}.x0")),
                      Point(_vector(sd["y0"], f"{sw}.y0"))))
    return seeds


# ---------------------------------------------------------------------------
# Deterministic JSON with 17-significant-digit numbers

def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        return f"{x:.17g}"
    return '"inf"' if x > 0 else ('"-inf"' if x < 0 else '"nan"')


def dumps17(value) -> str:
    """Serialize to JSON text, indented by two spaces, with floats at 17
    significant digits.

    Key order is insertion order, so identical inputs give identical
    bytes.  Non-finite floats degrade to the strings "inf"/"-inf"/"nan".
    """

    quote = json.encoder.encode_basestring_ascii  # json.dumps of a str

    def write(v, pad: str) -> str:
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            return _fmt_float(v)
        if isinstance(v, str):
            return quote(v)
        if isinstance(v, dict):
            if not v:
                return "{}"
            pad_in = pad + "  "
            items = [f"{pad_in}{quote(str(k))}: {write(val, pad_in)}"
                     for k, val in v.items()]
            return "{\n" + ",\n".join(items) + f"\n{pad}}}"
        if isinstance(v, (list, tuple)):
            if not v:
                return "[]"
            pad_in = pad + "  "
            items = [f"{pad_in}{write(val, pad_in)}" for val in v]
            return "[\n" + ",\n".join(items) + f"\n{pad}]"
        raise TypeError(f"cannot serialize {type(v).__name__}")

    return write(value, "")
