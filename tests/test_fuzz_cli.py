"""Generated problem files through ``main``: every input gives a report or
one error line, never a raw exception or a numpy warning, and ``check``
reports wherever ``solve`` does."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fgfp.cli import main

ORDERS = ("COMPONENTWISE", "COMPONENTWISE_REVERSED", "DISCRETE", "DISCRETE_PLUS_PAIRS")
FAMILIES = ("SYM_HALF", "LIN_ASYM", "KANNAN", "CHATTERJEA")
# plain values, the edges of the double range, and 0 for 1/0 and 0/0
LITERALS = st.sampled_from(["0", "0.5", "2", "3", "1e-300", "1e300", "1e308", "1.7e308"])


@st.composite
def expressions(draw, dim_a, dim_b, depth=2):
    """One coordinate of a map over a1..a{dim_a}, b1..b{dim_b}: variables,
    literals and their products (1e308*b1 over a box of extent 1e-12 gives
    ratios beyond the double range), poles 1/(v - c) at a point c of the
    box, and + - * /, abs, min, max up to ``depth`` levels."""
    variable = st.sampled_from([f"a{i}" for i in range(1, dim_a + 1)]
                               + [f"b{i}" for i in range(1, dim_b + 1)])
    leaf = draw(st.one_of(variable, LITERALS, st.builds("{}*{}".format, LITERALS, variable),
                          st.builds("1/({} - {!r})".format, variable,
                                    st.sampled_from([0.0, 0.25, -0.5, 1.0]))))
    if depth == 0 or draw(st.booleans()):
        return leaf
    other = draw(expressions(dim_a, dim_b, depth - 1))
    return draw(st.sampled_from([f"({leaf} {op} {other})" for op in "+-*/"]
                                + [f"abs({leaf} - {other})", f"min({leaf}, {other})",
                                   f"max({leaf}, {other})"]))


@st.composite
def intervals(draw):
    """One coordinate's [lower, upper]: extents from 0 to 1e300, and, one
    time in ten, [-1e308, 1e308], whose extent upper - lower overflows."""
    if draw(st.integers(0, 9)) == 0:
        return -1e308, 1e308
    lo = draw(st.sampled_from([-1.0, 0.0, -1e300]))
    return lo, lo + draw(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 1e300]))


@st.composite
def spaces(draw, dim):
    lower, upper = map(list, zip(*(draw(intervals()) for _ in range(dim))))
    order = {"kind": draw(st.sampled_from(ORDERS))}
    if order["kind"] == "DISCRETE_PLUS_PAIRS":
        order["extra_pairs"] = [[lower, upper]]
    space = {"dim": dim, "lower": [draw(st.sampled_from([lo, "-inf"])) for lo in lower],
             "upper": upper, "order": order,
             "sampling_box": [lower, upper]}
    if draw(st.booleans()):
        space["metric"] = {"kind": "WEIGHTED_L1",
                           "weights": draw(st.lists(st.sampled_from([0.5, 2.0, 1e300]),
                                                    min_size=dim, max_size=dim))}
    return space, lower, upper


@st.composite
def problems(draw):
    dx, dy = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    (X, x_lo, x_hi), (Y, y_lo, y_hi) = draw(spaces(dx)), draw(spaces(dy))
    corner = draw(st.sampled_from([0, 1]))
    return {"spaces": {"X": X, "Y": Y},
            "maps": {"F": "; ".join(draw(expressions(dx, dy)) for _ in range(dx)),
                     "G": "; ".join(draw(expressions(dy, dx)) for _ in range(dy))},
            "family": {"kind": draw(st.sampled_from(FAMILIES)),
                       "k": draw(st.sampled_from([0.0, 0.2, 0.45])),
                       "l": draw(st.sampled_from([0.0, 0.2, 0.45]))},
            "seed": {"x0": (x_lo, x_hi)[corner], "y0": (y_hi, y_lo)[corner]}}


def _run(argv):
    """main's exit code, stderr and stdout, with every warning recorded."""
    err, out = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as exc:  # noqa: BLE001 - the property under test
            raise AssertionError(f"{argv[0]} raised {type(exc).__name__}: {exc}") from exc
    assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue(), out.getvalue()


@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.sampled_from(["check", "solve", "solve --force", "unique"]),
       st.integers(1, 50))
def test_generated_problems_exit_cleanly(doc, command, samples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        argv = command.split() + [str(path), "--samples", str(samples)]
        if command != "check":
            argv += ["--max-iter", "200"]
        if command == "unique":
            seeds = Path(tmp) / "seeds.json"
            seeds.write_text(json.dumps({"seeds": [doc["seed"]]}))
            argv += ["--seeds", str(seeds)]
        code, err, _ = _run(argv)
    assert code in (0, 1, 2, 3)
    # a report, or one line that the CLI wrote: an input error for exit 1
    assert err == "" or (err.startswith("fgfp: ") and err.count("\n") == 1)
    assert code != 1 or err.startswith("fgfp: error: ")


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.integers(1, 50), st.integers(0, 3))
def test_check_reports_wherever_solve_does(doc, samples, rng_seed):
    # both commands audit the same sample; only solve goes on to iterate
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(doc))
        argv = [str(path), "--samples", str(samples), "--rng-seed", str(rng_seed)]
        check, check_err, check_out = _run(["check", *argv])
        solve, solve_err, solve_out = _run(["solve", *argv, "--max-iter", "200"])
    assert (check == 1) == (solve == 1)
    if check == 1:
        assert check_err == solve_err
    elif solve_out:  # a solve whose iteration fails exits 3 with no report
        estimated, audited = (json.loads(out)["hypotheses"] for out in (check_out, solve_out))
        assert estimated.pop("estimated_constants") is not None
        assert audited.pop("estimated_constants") is None
        assert estimated == audited
