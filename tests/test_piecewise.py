"""End-to-end runs on piecewise-linear maps built from ``max`` and ``abs``.

Every corpus entry is affine, so every sampled ratio is constant; these
three problems are not, and they are kept out of ``builtin_problems`` so
that ``corpus run-all`` keeps its digests and its work count.

- ``(max(a1, 2*a1) - b1)/4`` has slope 1/4 or 1/2 in ``a1`` and -1/4 in
  ``b1``, so F = G satisfy LIN_ASYM with (1/2, 1/4) on [-1, 1]^2, and
  (0, 0) is the fixed point.
- ``abs(a1 - 0.3)/3 - b1/4`` is a planted non-monotone map: it decreases
  in ``a1`` below 0.3.  It still satisfies LIN_ASYM with (1/3, 1/4), and
  its fixed point on [-1, 1]^2 solves x = (0.3 - x)/3 - x/4: x = y = 6/95.
- ``0.2*a1 + 0.25*max(0, a1 - 0.98) - 0.1*b1`` has slope 0.45 in ``a1``
  only on the band a1 > 0.98, 1% of [-1, 1], and 0.2 elsewhere; its true
  LIN_ASYM constants are (0.45, 0.1) and (0, 0) is the fixed point.  The
  sampled estimate misses the steep band and reads k + l well below the
  true 0.55: a sampled estimate can fall far short of the constants where
  the map is steep only on a small set, and this map pins that weakness.
"""

import json

import pytest

from fgfp.cli import main

UNIT = {"dim": 1, "lower": [-1], "upper": [1]}


def _problem(tmp_path, expression, k, l):
    doc = {"spaces": {"X": UNIT, "Y": UNIT},
           "maps": {"F": expression, "G": expression},
           "family": {"kind": "LIN_ASYM", "k": k, "l": l},
           "seed": {"x0": [-1], "y0": [1]}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _run(tmp_path, argv, code):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    return json.loads(out.read_text())


@pytest.mark.parametrize("rng_seed", [0, 1, 2])
def test_max_map_passes_its_audit_with_the_true_constants(tmp_path, rng_seed):
    problem = _problem(tmp_path, "(max(a1, 2*a1) - b1)/4", 0.5, 0.25)
    hyp = _run(tmp_path, ["check", problem, "--rng-seed", str(rng_seed)], 0)["hypotheses"]
    assert hyp["passed"]
    # the estimate may round a few ulps above the true constant
    assert abs(hyp["estimated_constants"]["k"] - 0.5) <= 1e-12
    assert abs(hyp["estimated_constants"]["l"] - 0.25) <= 1e-12


def test_max_map_converges_to_the_origin(tmp_path):
    problem = _problem(tmp_path, "(max(a1, 2*a1) - b1)/4", 0.5, 0.25)
    report = _run(tmp_path, ["solve", problem], 0)
    assert report["solve"]["converged"]
    assert abs(report["solve"]["limit_x"][0]) <= 1e-8
    assert abs(report["solve"]["limit_y"][0]) <= 1e-8
    assert report["bounds"]["violations"] == []


def test_abs_map_fails_mixed_monotonicity_alone(tmp_path):
    problem = _problem(tmp_path, "abs(a1 - 0.3)/3 - b1/4", 1 / 3, 0.25)
    hyp = _run(tmp_path, ["check", problem], 2)["hypotheses"]
    monotone = hyp["mixed_monotone"]
    assert not monotone["passed"]
    assert monotone["counterexamples"]
    assert {c["clause"] for c in monotone["counterexamples"]} == {"F_incr_first"}
    assert hyp["seed_condition"]["passed"] and hyp["contraction"]["passed"]


def test_abs_map_forced_solve_reaches_its_fixed_point(tmp_path):
    problem = _problem(tmp_path, "abs(a1 - 0.3)/3 - b1/4", 1 / 3, 0.25)
    _run(tmp_path, ["solve", problem], 2)
    report = _run(tmp_path, ["solve", problem, "--force"], 0)
    assert report["solve"]["converged"]
    assert abs(report["solve"]["limit_x"][0] - 6 / 95) <= 1e-8
    assert abs(report["solve"]["limit_y"][0] - 6 / 95) <= 1e-8
    assert report["bounds"]["violations"] == []


LOCAL_SLOPE = "0.2*a1 + 0.25*max(0, a1 - 0.98) - 0.1*b1"


@pytest.mark.parametrize("rng_seed", [0, 1, 2, 3, 4])
def test_localized_slope_map_estimate_misses_the_steep_band(tmp_path, rng_seed):
    problem = _problem(tmp_path, LOCAL_SLOPE, 0.45, 0.1)
    hyp = _run(tmp_path, ["check", problem, "--rng-seed", str(rng_seed)], 0)["hypotheses"]
    assert hyp["passed"]
    est = hyp["estimated_constants"]
    assert est["k"] + est["l"] <= 0.55 + 1e-12
    assert est["k"] + est["l"] < 0.45


def test_localized_slope_map_converges_to_the_origin(tmp_path):
    problem = _problem(tmp_path, LOCAL_SLOPE, 0.45, 0.1)
    report = _run(tmp_path, ["solve", problem], 0)
    assert report["solve"]["converged"]
    assert abs(report["solve"]["limit_x"][0]) <= 1e-8
    assert abs(report["solve"]["limit_y"][0]) <= 1e-8
    assert report["bounds"]["violations"] == []
