import functools
import json
import operator

import pytest

from fgfp.cli import build_parser, main
from fgfp.hypotheses import SamplerConfig
from fgfp.solver import DEFAULT_MAX_ITER, DEFAULT_TOL


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    assert main(["corpus", "export", "ex1", "--out", str(path)]) == 0
    return path


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve

def test_solve_success(ex1_file, tmp_path):
    out = tmp_path / "report.json"
    trace = tmp_path / "trace.csv"
    code = main(["solve", str(ex1_file), "--tol", "1e-10",
                 "--out", str(out), "--trace", str(trace)])
    assert code == 0
    report = read_json(out)
    assert report["schema"] == 2
    assert report["hypotheses"]["passed"] is True
    assert report["solve"]["converged"] is True
    assert abs(report["solve"]["limit_x"][0]) < 1e-9
    assert report["bounds"]["violations"] == []
    assert report["uniqueness"] is None
    assert report["timing"]["wall_ms"] is None
    lines = trace.read_text().splitlines()
    assert lines[0] == "n,x1,y1,step_x,step_y,bound_x,bound_y,monotone_ok"
    assert len(lines) == report["solve"]["iterations"] + 2


def test_solve_insufficient_iterations_exits_3_but_keeps_report(ex1_file, tmp_path):
    out = tmp_path / "report.json"
    code = main(["solve", str(ex1_file), "--max-iter", "3", "--out", str(out)])
    assert code == 3
    report = read_json(out)
    assert report["solve"]["converged"] is False
    assert report["solve"]["iterations"] == 3


def test_solve_malformed_expression_exits_1(tmp_path, capsys):
    doc = read_json_from_export()
    doc["maps"]["F"] = "a1 +"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "maps.F" in err and "position" in err


def test_solve_unknown_key_exits_1(tmp_path, capsys):
    doc = read_json_from_export()
    doc["spaces"]["X"]["colour"] = "blue"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad)]) == 1
    assert "colour" in capsys.readouterr().err


def test_solve_invalid_json_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}")
    assert main(["solve", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert main(["solve", "/nonexistent/problem.json"]) == 1


def read_json_from_export():
    import io
    import sys
    from contextlib import redirect_stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["corpus", "export", "ex1"]) == 0
    return json.loads(buf.getvalue())


# ---------------------------------------------------------------------------
# check

def test_check_reports_estimates(tmp_path):
    reports = {}
    for eid in ("ex1", "ex2"):
        path = tmp_path / f"{eid}.json"
        assert main(["corpus", "export", eid, "--out", str(path)]) == 0
        out = tmp_path / f"check-{eid}.json"
        assert main(["check", str(path), "--out", str(out)]) == 0
        reports[eid] = read_json(out)
    est = reports["ex2"]["hypotheses"]["estimated_constants"]
    assert abs(est["k"] - 4.0 / 17.0) < 0.02
    assert abs(est["l"] - 3.0 / 17.0) < 0.02
    for report in reports.values():
        assert report["solve"] is None
        assert list(report["hypotheses"]) == [
            "evidence", "passed", "mixed_monotone", "seed_condition", "contraction",
            "comparability", "estimated_constants"]
    # 2000 samples: 8 per sample for monotonicity, 4 for the contraction
    # sample, 2 at the seed
    assert reports["ex1"]["timing"]["map_evaluations"] == 24002


def test_check_wrong_monotonicity_exits_2(tmp_path, capsys):
    doc = read_json_from_export()
    doc["maps"]["F"] = "b1"
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "check.json"
    assert main(["check", str(bad), "--out", str(out)]) == 2
    report = read_json(out)
    assert report["hypotheses"]["mixed_monotone"]["passed"] is False
    assert report["hypotheses"]["mixed_monotone"]["counterexamples"]


def test_check_discrete_order_entry_passes(tmp_path):
    path = tmp_path / "ex4.json"
    assert main(["corpus", "export", "ex4", "--out", str(path)]) == 0
    out = tmp_path / "check.json"
    assert main(["check", str(path), "--out", str(out)]) == 0
    report = read_json(out)
    assert report["hypotheses"]["passed"] is True
    # the bridging condition fails under a discrete order, informationally
    assert report["hypotheses"]["comparability"]["passed"] is False


# ---------------------------------------------------------------------------
# corpus

def test_corpus_list(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 5
    assert out[0].startswith("ex1:")


def test_corpus_export_unknown_id(capsys):
    assert main(["corpus", "export", "nope"]) == 1


def test_corpus_export_solve_round_trip(tmp_path):
    path = tmp_path / "ex3.json"
    assert main(["corpus", "export", "ex3", "--out", str(path)]) == 0
    out = tmp_path / "r.json"
    assert main(["solve", str(path), "--out", str(out)]) == 0
    report = read_json(out)
    assert abs(report["solve"]["limit_x"][0] - 4.0 / 3.0) < 1e-8
    assert abs(report["solve"]["limit_y"][0] + 4.0 / 3.0) < 1e-8


def test_corpus_run_all_passes_and_orders_by_id(tmp_path):
    out = tmp_path / "all.json"
    assert main(["corpus", "run-all", "--out", str(out)]) == 0
    report = read_json(out)
    assert report["all_passed"] is True
    ids = [e["id"] for e in report["entries"]]
    assert ids == sorted(ids)
    assert all(e["matches_declared"] for e in report["entries"])


def test_export_solve_round_trip_reproduces_builtin_limits(tmp_path):
    # loading an exported file must reproduce the in-process solve exactly
    from fgfp import builtin_problems, solve
    from fgfp.probfile import load_problem_file
    for entry in builtin_problems():
        path = tmp_path / f"{entry.id}.json"
        assert main(["corpus", "export", entry.id, "--out", str(path)]) == 0
        loaded, expected = load_problem_file(str(path))
        assert expected["unique"] == entry.expected_unique
        _, direct = solve(entry.problem)
        _, via_file = solve(loaded)
        assert abs(via_file.x_star[0] - direct.x_star[0]) <= 1e-12
        assert abs(via_file.y_star[0] - direct.y_star[0]) <= 1e-12


def test_corpus_run_all_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["corpus", "run-all", "--rng-seed", "7", "--out", str(a)]) == 0
    assert main(["corpus", "run-all", "--rng-seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# unique

def test_unique_multiple_seeds(ex1_file, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps(
        {"seeds": [{"x0": [-5.0], "y0": [2.0]}, {"x0": [0.0], "y0": [0.0]}]}))
    out = tmp_path / "uni.json"
    assert main(["unique", str(ex1_file), "--seeds", str(seeds),
                 "--out", str(out)]) == 0
    report = read_json(out)
    uni = report["uniqueness"]
    assert uni["passed"] is True
    for limit in uni["limits"]:
        assert abs(limit["x"][0]) < 1e-9 and abs(limit["y"][0]) < 1e-9


def test_unique_empty_seeds_trivially_passes(ex1_file, tmp_path):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"seeds": []}))
    assert main(["unique", str(ex1_file), "--seeds", str(seeds),
                 "--out", str(tmp_path / "u.json")]) == 0


def test_unique_seed_outside_domain_exits_1(ex1_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    # x0 = 5 is outside X = (-inf, 0]
    seeds.write_text(json.dumps({"seeds": [{"x0": [5.0], "y0": [1.0]}]}))
    assert main(["unique", str(ex1_file), "--seeds", str(seeds)]) == 1


def test_unique_seeds_that_are_not_an_array_exit_1(ex1_file, tmp_path, capsys):
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"seeds": 5}))
    assert main(["unique", str(ex1_file), "--seeds", str(seeds)]) == 1
    assert capsys.readouterr().err == f"fgfp: error: {seeds}.seeds: seeds must be an array\n"


def test_unique_bad_seed_condition_exits_2_unless_forced(ex1_file, tmp_path):
    seeds = tmp_path / "seeds.json"
    # inside the domain but violating the launch condition
    seeds.write_text(json.dumps({"seeds": [{"x0": [-0.1], "y0": [9.0]}]}))
    assert main(["unique", str(ex1_file), "--seeds", str(seeds),
                 "--out", str(tmp_path / "u1.json")]) == 2
    assert main(["unique", str(ex1_file), "--seeds", str(seeds), "--force",
                 "--out", str(tmp_path / "u2.json")]) == 0


# ---------------------------------------------------------------------------
# interface details

def test_usage_error_exits_1(capsys):
    assert main(["solve"]) == 1
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--tol", "-1"), ("solve", "--tol", "0"), ("solve", "--tol", "inf"),
    ("solve", "--tol", "nan"), ("solve", "--tol", "abc"), ("solve", "--max-iter", "0"),
    ("solve", "--max-iter", "-5"), ("solve", "--samples", "0"), ("check", "--samples", "0"),
    ("check", "--samples", "2.5"), ("check", "--rng-seed", "-1"), ("unique", "--tol", "nan"),
    ("unique", "--max-iter", "0"), ("run-all", "--tol", "inf")])
def test_bad_flag_values_exit_1_with_one_error_line(ex1_file, capsys, command, flag, value):
    argv = {"solve": ["solve", str(ex1_file)], "check": ["check", str(ex1_file)],
            "unique": ["unique", str(ex1_file), "--seeds", str(ex1_file)],
            "run-all": ["corpus", "run-all"]}[command]
    assert main(argv + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"fgfp: error: argument {flag}: ")
    assert captured.err.count("\n") == 1


def test_bad_rng_seed_env_exits_1(ex1_file, capsys, monkeypatch):
    for value in ("-3", "seven"):
        monkeypatch.setenv("FGFP_RNG_SEED", value)
        assert main(["check", str(ex1_file)]) == 1
        assert capsys.readouterr().err.startswith("fgfp: error: FGFP_RNG_SEED: ")


def test_deeply_nested_map_exits_1(tmp_path, capsys):
    doc = read_json_from_export()
    doc["maps"]["F"] = "(" * 3000 + "a1" + ")" * 3000
    bad = tmp_path / "deep.json"
    bad.write_text(json.dumps(doc))
    assert main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fgfp: error: ") and err.count("\n") == 1
    assert "maps.F" in err and "nested deeper than" in err


INF = float("inf")
NAN = float("nan")


def _set_seed_x0(doc, value):
    doc["seed"]["x0"] = [value]


def _set_fixed_point(doc, value):
    doc["expected"] = {"fixed_point": [[value], [0.0]]}


def _set_extra_pair(doc, value):
    doc["spaces"]["Y"]["order"] = {"kind": "DISCRETE_PLUS_PAIRS",
                                   "extra_pairs": [[[value], [0.0]]]}


def _set_lower(doc, value):
    doc["spaces"]["X"]["lower"] = [value]


@pytest.mark.parametrize("edit, value, where", [
    (_set_seed_x0, NAN, "seed.x0[0]"),
    (_set_fixed_point, NAN, "expected.fixed_point[0][0]"),
    (_set_extra_pair, NAN, "spaces.Y.order.extra_pairs[0][0]"),
    (None, NAN, "seeds[0].x0[0]"),
    (_set_lower, -INF, "spaces.X.lower[0]"),    # unbounded sides are spelled "-inf"
    (_set_seed_x0, 10 ** 400, "seed.x0[0]"),    # an integer beyond the float range
], ids=["seed", "fixed_point", "extra_pairs", "seeds_file", "Infinity", "overlong_int"])
def test_non_finite_numbers_exit_1_with_one_error_line(tmp_path, capsys, edit, value, where):
    # json.dumps writes NaN and -Infinity literals, which json.load accepts
    doc = read_json_from_export()
    problem = tmp_path / "problem.json"
    argv = ["check", str(problem)]
    if edit is None:
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"seeds": [{"x0": [value], "y0": [1.0]}]}))
        argv = ["unique", str(problem), "--seeds", str(seeds)]
    else:
        edit(doc, value)
    problem.write_text(json.dumps(doc))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fgfp: error: ") and err.count("\n") == 1
    assert f"{where}: expected a finite number" in err


def _heavy_metric(doc):
    # weight 1e308 on X's sampling box [-10, 0]: sampled distances reach inf
    doc["spaces"]["X"]["metric"] = {"kind": "WEIGHTED_L1", "weights": [1e308]}
    return "spaces.X"


def _overflowing_extent(doc):
    # the extent 1e308 - (-1e308) of Y's sampling box overflows
    doc["spaces"]["Y"].update(lower=[-1e308], upper=[1e308], sampling_box=[[-1e308], [1e308]])
    return "spaces.Y"


@pytest.mark.parametrize("edit", [_heavy_metric, _overflowing_extent],
                         ids=["heavy_metric", "overflowing_extent"])
@pytest.mark.parametrize("command", ["check", "solve", "unique"])
def test_metric_overflowing_on_its_sampling_box_exits_1(tmp_path, capsys, command, edit):
    # rejected at load, so unique, which never samples, rejects it too
    doc = read_json_from_export()
    where = edit(doc)
    bad = tmp_path / "heavy.json"
    bad.write_text(json.dumps(doc))
    argv = [command, str(bad), "--out", str(tmp_path / "r.json")]
    if command == "unique":
        seeds = tmp_path / "seeds.json"
        seeds.write_text(json.dumps({"seeds": [doc["seed"]]}))
        argv += ["--seeds", str(seeds)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("fgfp: error: ") and err.count("\n") == 1
    assert f"{where}: sampling_box diameter under the metric overflows" in err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("family", ["SYM_HALF", "LIN_ASYM", "KANNAN", "CHATTERJEA"])
@pytest.mark.parametrize("command", ["check", "solve"])
def test_map_images_whose_distance_overflows_exit_2_with_witnesses(tmp_path, capsys, command,
                                                                   family):
    # finite images near -1.7e308 in both coordinates: d_X between two of
    # them overflows, which fails the F inequality at those rows
    doc = {"spaces": {"X": {"dim": 2, "lower": [-10, -10], "upper": [0, 0]},
                      "Y": {"dim": 1, "lower": [0], "upper": [10]}},
           "maps": {"F": "1.7e307*a1 - b1/100; 1.7e307*a2", "G": "(a1 - b1)/5"},
           "family": {"kind": family, "k": 0.3, "l": 0.3},
           "seed": {"x0": [-1, -1], "y0": [1]}}
    bad = tmp_path / "overflow.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main([command, str(bad), "--samples", "200", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    hyp = read_json(out)["hypotheses"]
    f_side = hyp["contraction"]["inequality_f"]
    assert f_side["max_ratio"] == "inf"
    assert any(v["lhs"] == v["rhs"] == "inf" for v in f_side["violations"])
    assert hyp["estimated_constants"] == ({"k": "inf", "l": "inf"} if command == "check" else None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["check", "solve"])
def test_a_ratio_beyond_the_double_range_exits_2_silently(tmp_path, capsys, command):
    # lhs near 1e296 over rhs just above the ratio floor: lhs/rhs overflows
    doc = {"spaces": {"X": {"dim": 1, "lower": [0], "upper": [1e-12]},
                      "Y": {"dim": 1, "lower": [0], "upper": [1e-12]}},
           "maps": {"F": "1e308*b1", "G": "a1/2"},
           "family": {"kind": "LIN_ASYM", "k": 0.3, "l": 0.1},
           "seed": {"x0": [0], "y0": [1e-12]}}
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main([command, str(path), "--samples", "50", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    assert read_json(out)["hypotheses"]["contraction"]["inequality_f"]["max_ratio"] == "inf"


@pytest.mark.parametrize("upper_x, F, G, want", [
    # some lhs/p of the constant estimate overflows a double
    (1e-12, "-1e300*b1", "a1/5", [0.2, 1.0000000000000314e+300]),
    # products in a crossing of the estimate's walk overflow: it looped forever
    (1e200, "a1/3 - b1/3", "a1/3 - b1/3", [0.33333333333333448, 0.33333333333333448]),
], ids=["ratio", "crossing"])
def test_estimates_beyond_the_double_range_exit_2_silently(tmp_path, capsys, upper_x, F, G,
                                                           want):
    doc = {"spaces": {"X": {"dim": 1, "lower": [0], "upper": [upper_x]},
                      "Y": {"dim": 1, "lower": [0], "upper": [1]}},
           "maps": {"F": F, "G": G},
           "family": {"kind": "LIN_ASYM", "k": 0.3, "l": 0.3},
           "seed": {"x0": [0], "y0": [1]}}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["check", str(path), "--samples", "200", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    estimate = read_json(out)["hypotheses"]["estimated_constants"]
    assert [estimate["k"], estimate["l"]] == want


def test_bytes_that_are_not_utf8_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fgfp: error: ") and err.count("\n") == 1
    assert "invalid JSON" in err


@pytest.mark.parametrize("command", [["check"], ["solve"], ["unique"], ["unique", "--force"]],
                         ids=" ".join)
def test_map_singular_at_the_seed_exits_1_naming_the_seed(tmp_path, capsys, command):
    doc = read_json_from_export()
    # non-finite only at a1 = -1: the sampled checks miss it, the seed hits it
    doc["maps"]["F"] = "(a1 - b1)/3 + 0*(1/(a1+1))"
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    seeds = tmp_path / "seeds.json"
    seeds.write_text(json.dumps({"seeds": []}))
    extra = ["--seeds", str(seeds)] if command[0] == "unique" else []
    assert main([command[0], str(bad)] + command[1:] + extra
                + ["--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err == ("fgfp: error: evaluation failed at the seed x0=[-1.0], y0=[1.0]: "
                   "non-finite value in output coordinate 1 at a=[-1.0], b=[1.0]\n")
    assert "sample" not in err


@pytest.mark.parametrize("value, message", [
    (5, "order.extra_pairs: expected an array of pairs"),
    (None, "order.extra_pairs: expected an array of pairs"),
    (True, "order.extra_pairs: expected an array of pairs"),
    ([[[-1.0], [0.0, 1.0]]], "order: extra_pairs mix dimensions"),
], ids=["number", "null", "bool", "mixed_dims"])
def test_bad_extra_pairs_exit_1_with_one_error_line(tmp_path, capsys, value, message):
    doc = read_json_from_export()
    doc["spaces"]["Y"]["order"] = {"kind": "DISCRETE_PLUS_PAIRS", "extra_pairs": value}
    bad = tmp_path / "pairs.json"
    bad.write_text(json.dumps(doc))
    assert main(["check", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("fgfp: error: ") and err.count("\n") == 1
    assert f"spaces.Y.{message}" in err


# (dotted keys of the value to replace in the exported ex1 document, "" for
# the whole document; the new value, or DELETE; the error after the file path)
DELETE = object()
PROBLEM_FILE_REJECTIONS = {
    "not_an_object": ("", [], ": expected an object"),
    "missing_map": ("maps.F", DELETE, ".maps: missing key(s): F"),
    "dim_zero": ("spaces.X.dim", 0, ".spaces.X.dim: dim must be a positive integer"),
    "dim_bool": ("spaces.X.dim", True, ".spaces.X.dim: dim must be a positive integer"),
    "lower_length": ("spaces.X.lower", [0, 0], ".spaces.X.lower: must be an array of length 1"),
    "lower_inf": ("spaces.X.lower", ["inf"], ".spaces.X: invalid box bounds"),
    "metric_kind": ("spaces.X.metric", {"kind": "L7"},
                    ".spaces.X.metric.kind: unknown metric kind 'L7'"),
    "order_kind": ("spaces.X.order", {"kind": "PARTIAL"},
                   ".spaces.X.order.kind: unknown order kind 'PARTIAL'"),
    "l1_weights": ("spaces.X.metric", {"kind": "L1", "weights": [2]},
                   ".spaces.X.metric: weights are only valid for WEIGHTED_L1"),
    "no_weights": ("spaces.X.metric", {"kind": "WEIGHTED_L1"},
                   ".spaces.X.metric: WEIGHTED_L1 requires weights"),
    "negative_slack": ("spaces.X.order", {"kind": "COMPONENTWISE", "slack": -1},
                       ".spaces.X.order: slack must be a finite nonnegative real"),
    "extra_pair": ("spaces.Y.order", {"kind": "DISCRETE_PLUS_PAIRS", "extra_pairs": [[[0]]]},
                   ".spaces.Y.order.extra_pairs[0]: each pair must be [[...], [...]]"),
    "extra_pair_dim": ("spaces.X.order",
                       {"kind": "DISCRETE_PLUS_PAIRS", "extra_pairs": [[[-1, -1], [0, 0]]]},
                       ".spaces.X: order extra_pairs dimension differs from space dim"),
    "sampling_box": ("spaces.X.sampling_box", [[0]],
                     ".spaces.X.sampling_box: must be [[lower...], [upper...]]"),
    "sampling_box_inverted": ("spaces.X.sampling_box", [[0], [-10]],
                              ".spaces.X: sampling_box must be bounded with lower <= upper"),
    "sampling_box_dim": ("spaces.X.sampling_box", [[-1, -1], [0, 0]],
                         ".spaces.X: sampling_box must have dimension 1"),
    "map_not_a_string": ("maps.F", 3, ".maps.F: expected an expression string"),
    "G_syntax": ("maps.G", "(a1 - b1", ".maps.G: expected ')', found end of input (at position 8)"),
    "family_kind": ("family.kind", "BANACH", ".family: 'BANACH' is not a valid FamilyKind"),
    "k_not_a_number": ("family.k", "0.5", ".family.k: expected a number, got '0.5'"),
    "empty_seed": ("seed.x0", [], ".seed.x0: expected a non-empty array of numbers"),
    "seed_dim": ("seed.x0", [0, 1], ": seed dimensions do not match the spaces"),
    "fixed_point": ("expected.fixed_point", [[0]],
                    ".expected.fixed_point: must be [[x...], [y...]]"),
    "unique_bool": ("expected.unique", "yes", ".expected.unique: must be a boolean"),
}


@pytest.mark.parametrize("case", list(PROBLEM_FILE_REJECTIONS))
def test_problem_file_rejections_exit_1_naming_the_json_path(tmp_path, capsys, case):
    keys, value, message = PROBLEM_FILE_REJECTIONS[case]
    root = {"": read_json_from_export()}
    *path, last = ["", *filter(None, keys.split("."))]
    parent = functools.reduce(operator.getitem, path, root)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(root[""]))
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().err == f"fgfp: error: {bad}{message}\n"


@pytest.mark.parametrize("family", ["SYM_HALF", "LIN_ASYM"])
@pytest.mark.parametrize("upper, order", [(1, "DISCRETE"), (0, "COMPONENTWISE")],
                         ids=["discrete", "single_point"])
@pytest.mark.parametrize("samples", [1, 2000])
def test_check_estimates_zero_where_every_right_side_is_zero(tmp_path, capsys, samples, upper,
                                                           order, family):
    # every sampled pair is equal: a discrete order pairs each point with
    # itself, and a single-point box has one point; so k = l = 0 hold
    space = {"dim": 1, "lower": [0], "upper": [upper], "order": {"kind": order}}
    doc = {"spaces": {"X": space, "Y": space}, "maps": {"F": "a1/3", "G": "a1/3"},
           "family": {"kind": family, "k": 0.4, "l": 0.2}, "seed": {"x0": [0], "y0": [0]}}
    path, out = tmp_path / "equal_pairs.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    sections = []
    for command in ("check", "solve"):
        assert main([command, str(path), "--samples", str(samples), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        sections.append(read_json(out)["hypotheses"])
    assert sections[0].pop("estimated_constants") == {"k": 0.0, "l": 0.0}
    assert sections[1].pop("estimated_constants") is None
    assert sections[0] == sections[1]


def test_solve_and_check_report_the_same_witnesses_for_a_singular_map(tmp_path, capsys):
    doc = read_json_from_export()
    # 1/(a1 - a1*a1/a1) divides by zero, or by rounding noise, on sampled
    # points; at the seed a1 = -1 it is 1/0
    doc["maps"]["F"] = "(a1 - b1)/3 + 1/(a1 - a1*a1/a1)"
    bad = tmp_path / "singular.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["check", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "fgfp: error: evaluation failed at the seed x0=[-1.0], y0=[1.0]: "
        "non-finite value in output coordinate 1 at a=[-1.0], b=[1.0]\n")
    # from a seed where rounding leaves the divisor 1.4e-17, both commands
    # report the sample
    doc["seed"] = {"x0": [-0.1], "y0": [1.0]}
    bad.write_text(json.dumps(doc))
    sections = []
    for command in ("solve", "check"):
        assert main([command, str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ""
        sections.append(read_json(out)["hypotheses"])
    assert sections[1].pop("estimated_constants") == {"k": "inf", "l": "inf"}
    assert sections[0].pop("estimated_constants") is None
    assert sections[0] == sections[1]
    f_side = sections[0]["contraction"]["inequality_f"]
    assert f_side["violations"][0]["x"] == [-0.22718933780937256]
    assert "inf" in (f_side["violations"][0]["lhs"], f_side["max_ratio"])


def test_residual_evaluation_failure_exits_3_with_one_line(tmp_path, capsys):
    # one step takes x to 0.5, where the residual's F(x, y) is 0/0
    doc = {"spaces": {"X": {"dim": 1, "lower": [0], "upper": [1]},
                      "Y": {"dim": 1, "lower": [0], "upper": [1]}},
           "maps": {"F": "0.5 + 0/(a1 - 0.5)", "G": "1 + 0*a1"},
           "family": {"kind": "LIN_ASYM", "k": 0.1, "l": 0.1},
           "seed": {"x0": [0], "y0": [1]}}
    path, out = tmp_path / "pole.json", tmp_path / "r.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--max-iter", "1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "fgfp: solve failed: residual evaluation failed: "
        "non-finite value in output coordinate 1 at a=[0.5], b=[1.0]\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["check", "solve"])
@pytest.mark.parametrize("samples", [10 ** 12, 10 ** 19])
def test_sample_count_that_cannot_be_drawn_exits_1(ex1_file, tmp_path, capsys, command, samples):
    # 10**12 rows ask for 7.28 TiB in one allocation, which is refused
    # before any memory is touched; 10**19 rows overflow numpy's array size
    out = tmp_path / "r.json"
    assert main([command, str(ex1_file), "--samples", str(samples), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"fgfp: error: cannot draw {samples} samples of dimension 1: ")
    assert err.count("\n") == 1 and not out.exists()


def test_rng_seed_env_default(ex1_file, tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("FGFP_RNG_SEED", "99")
    assert main(["check", str(ex1_file), "--out", str(a)]) == 0
    monkeypatch.delenv("FGFP_RNG_SEED")
    assert main(["check", str(ex1_file), "--rng-seed", "99",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_one_parser_serves_every_call(ex1_file, tmp_path, monkeypatch):
    # the parser is built once per process; neither the flags nor the
    # FGFP_RNG_SEED of one call carry over to the next
    assert build_parser() is build_parser()
    args = build_parser().parse_args(["solve", "p.json", "--force", "--tol", "1e-6"])
    assert (args.force, args.tol, args.rng_seed) == (True, 1e-6, None)
    args = build_parser().parse_args(["solve", "p.json"])
    assert (args.force, args.tol, args.rng_seed) == (False, 1e-10, None)
    out = tmp_path / "r.json"
    for env in ("5", "6"):
        monkeypatch.setenv("FGFP_RNG_SEED", env)
        assert main(["check", str(ex1_file), "--out", str(out)]) == 0
        assert read_json(out)["rng_seed"] == int(env)


@pytest.mark.parametrize("argv", [["solve", "p.json"], ["check", "p.json"],
                                  ["unique", "p.json", "--seeds", "s.json"],
                                  ["corpus", "run-all"]], ids=lambda argv: argv[0])
def test_parser_defaults_are_the_library_defaults(argv):
    args = build_parser().parse_args(argv)
    assert args.samples == SamplerConfig().samples_per_check
    if argv[0] != "check":
        assert (args.tol, args.max_iter) == (DEFAULT_TOL, DEFAULT_MAX_ITER)


def test_numbers_printed_with_17_significant_digits(ex1_file, tmp_path):
    out = tmp_path / "r.json"
    assert main(["solve", str(ex1_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert "0.66666666666666663" in text  # k = 2/3 at 17 significant digits


def test_force_overrides_hypothesis_gate(tmp_path):
    doc = read_json_from_export()
    doc["maps"]["F"] = "b1"  # breaks monotonicity, audit fails
    doc.pop("expected")
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["solve", str(bad), "--out", str(out)]) == 2
    code = main(["solve", str(bad), "--force", "--out", str(out)])
    report = read_json(out)
    assert report["solve"] is not None
    assert code in (0, 3)
