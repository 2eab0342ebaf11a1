"""The determinism contract: report bytes are pinned by SHA-256 digest.

Every corpus entry is run through ``solve``, ``check`` and ``unique`` (no
extra seeds) at ``--rng-seed`` 0 and 7, together with ``corpus run-all``
and ``unique`` from the comparable seeds (-2, 2) and (-3, 3) on ex1
(SYM_HALF) and ex2 (LIN_ASYM), whose reports carry the decay checks.
The problem file that ``corpus export`` writes for each entry and the
text of ``corpus list`` are pinned too.  Each pin also spells out the
report's ``timing.map_evaluations`` (for ``run-all`` the combined total,
None for ``export`` and ``list``), so a change in the work done reads as a
count beside the new digest.  A refactor must leave every digest, count
and exit code unchanged; a change that alters report bytes on purpose
must say which and why, and update the table below.
``python tests/test_determinism.py`` (with ``src`` on ``PYTHONPATH``)
prints the current table, these pins included.

``check`` also runs at both seeds on four multi-dimensional problems
(``MULTI_D``): two 2-d ones with unit-weight L1 metrics, one with
reversed componentwise orders on sampling boxes of unequal extents and
one with DISCRETE x DISCRETE_PLUS_PAIRS, a 3-d one with non-dyadic
WEIGHTED_L1 weights and a 4-d one with unit weights.  They pin the
per-column scaling of the sample draw and the multi-column order and
distance kernels.  Every kernel works one column at a time with
elementwise numpy operations in a fixed order, and none takes a matrix
product, so no digest depends on the BLAS build or the machine.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from fgfp import builtin_problems
from fgfp.cli import main

RNG_SEEDS = (0, 7)

_L1 = {"kind": "L1"}

# multi-dimensional problems for ``check``: coordinatewise lifts of ex2
# (2-d, reflected, so both orders reverse), of ex4 (2-d, with a second
# listed relation), of ex1 (3-d, weighted) and of ex3 (4-d), each with a
# planted term that breaks the hypotheses, so that the reports carry
# sampled witnesses (with lhs and rhs on the contraction side)
MULTI_D = {
    "rev2d": {
        "spaces": {
            "X": {"dim": 2, "lower": [0, 0], "upper": ["inf", "inf"], "metric": _L1,
                  "order": {"kind": "COMPONENTWISE_REVERSED"},
                  "sampling_box": [[0, 0], [10, 2.5]]},
            "Y": {"dim": 2, "lower": ["-inf", "-inf"], "upper": [0, 0], "metric": _L1,
                  "order": {"kind": "COMPONENTWISE_REVERSED"},
                  "sampling_box": [[-4, -10], [0, 0]]},
        },
        "maps": {"F": "(4*a1 - 3*b1)/17; (4*a2 - 3*b2)/17 - abs(a1 - 5)/40",
                 "G": "(4*a1 - 3*b1)/17; (4*a2 - 3*b2)/17"},
        "family": {"kind": "LIN_ASYM", "k": 4 / 17, "l": 3 / 17},
        "seed": {"x0": [1, 1], "y0": [-1, -1]},
    },
    "discrete2d": {
        "spaces": {
            "X": {"dim": 2, "lower": [0, 0], "upper": [1, 3], "metric": _L1,
                  "order": {"kind": "DISCRETE"}},
            "Y": {"dim": 2, "lower": [-1, -2], "upper": [0, 0], "metric": _L1,
                  "order": {"kind": "DISCRETE_PLUS_PAIRS",
                            "extra_pairs": [[[-1, -2], [0, 0]], [[-1, 0], [0, 0]]]}},
        },
        "maps": {"F": "a1/3 + b1/8; a2/3", "G": "-b1/3; -b2/3 + a2/8"},
        "family": {"kind": "CHATTERJEA", "k": 0.25, "l": 0.25},
        "seed": {"x0": [0, 0], "y0": [0, 0]},
    },
    "weighted3d": {
        "spaces": {
            "X": {"dim": 3, "lower": ["-inf", "-inf", "-inf"], "upper": [0, 0, 0],
                  "metric": {"kind": "WEIGHTED_L1", "weights": [0.7, 1.3, 2.9]},
                  "sampling_box": [[-10, -2.5, -6], [0, 0, 0]]},
            "Y": {"dim": 3, "lower": [0, 0, 0], "upper": ["inf", "inf", "inf"],
                  "metric": {"kind": "WEIGHTED_L1", "weights": [1.1, 0.3, 3.7]},
                  "sampling_box": [[0, 0, 0], [4, 10, 7.5]]},
        },
        "maps": {"F": "(a1 - b1)/3; (a2 - b2)/3; (a3 - b3)/3 - abs(a1 + 5)/4",
                 "G": "(a1 - b1)/5; (a2 - b2)/5; (a3 - b3)/5"},
        "family": {"kind": "SYM_HALF", "k": 2 / 3, "l": 2 / 5},
        "seed": {"x0": [-1, -1, -1], "y0": [1, 1, 1]},
    },
    "unit4d": {
        "spaces": {
            "X": {"dim": 4, "lower": [1, 1, 1, 1], "upper": [2, 2, 2, 2], "metric": _L1},
            "Y": {"dim": 4, "lower": [-2, -2, -2, -2], "upper": [-1, -1, -1, -1],
                  "metric": _L1},
        },
        "maps": {"F": "a1/4 + 1; a2/4 + 1; a3/4 + 1; a4/4 + 1 + abs(a2 - 1.5)/2",
                 "G": "a1/4 - 1; a2/4 - 1; a3/4 - 1; a4/4 - 1"},
        "family": {"kind": "KANNAN", "k": 1 / 3, "l": 1 / 2},
        "seed": {"x0": [1, 1, 1, 1], "y0": [-1, -1, -1, -1]},
    },
}

# (exit code, SHA-256 of the report bytes, map evaluations) per run
EXPECTED = {
    'check coupled-reg 0': (0, 'ee106490d176bbdcafbb1871f7c181dfcf204044df9413005442782033a4544e', 24002),
    'check coupled-reg 7': (0, 'a55b472109e112d5729d230ba5b700694ff663d09a2590e41d0f119a66491f17', 24002),
    'check discrete2d 0': (2, '1a70700de9f949f5e307552e050ed54008ae302cb99a013629a52162b209c8d3', 24002),
    'check discrete2d 7': (2, 'c7548c8c4bd5477862d54943e433767e37760c54ed3a6cca4ad89197b3cc2583', 24002),
    'check ex1 0': (0, 'c400e85cbf1c5764be4bb01115ae061978ce1648ff56cce454ef68aa8ba4471f', 24002),
    'check ex1 7': (0, '61a6c5973891323f0108758c1b4d95891bfe7e532683076a95d1562f08a5c376', 24002),
    'check ex2 0': (0, '2ab094b544eaeb380d3d81cdfd0662751676f6a9a6285e0e6465bd4fd883b4e6', 24002),
    'check ex2 7': (0, '66776b811f025834801c8def425d09384239e398c6e706b3b2e9bab9d670b4ed', 24002),
    'check ex3 0': (0, '1b6bbdc3288696ed88f52597aba0cfd093cbf4d8765fc71f561d7a9fcd4f7fca', 24002),
    'check ex3 7': (0, 'adf4c1a6d83d87829dff9136a9bcc9f738cb6c60f1d1678f4a2d6fcab3bb840e', 24002),
    'check ex4 0': (0, '08cd20235d2356b635771028524a0ee5e481c373ba700a393d5e5abf0c7c9aea', 24002),
    'check ex4 7': (0, 'a9eaa8dec6a27fed089fda838e6637b9010ae2ae2b8d6f97b5cc4fdf4da5da40', 24002),
    'check rev2d 0': (2, '0e85d701ad24c1cc5ea4e54c6b632c83e92ac87f31985da73db15f57e77c3a2e', 24002),
    'check rev2d 7': (2, '49306510e3ebf0393c63b1adb7e8f978133934d4b901000f57039bd041fca421', 24002),
    'check unit4d 0': (2, '490de6c3e02282b7151bb89c1efd42cf68eef2e52697f80dd9930f9130ed8c46', 24002),
    'check unit4d 7': (2, '3b5a113c2914f5870863a2ad08dfd13d81f1f25519fe5d49781df8b7d58c6d80', 24002),
    'check weighted3d 0': (2, 'aadb6a991111cc09ef71b03cb863b91a5561b45a83da4968fb356a38c83b3dbe', 24002),
    'check weighted3d 7': (2, 'b7a42f783c67f3acf3033620c7e7ee5ef8b07a8e8a0bf7d20be952e8f05ba0fb', 24002),
    'export coupled-reg': (0, '5cdcbc9d09a6118f2aae154b61ba3618f667cc53d07ac0458c39a2dede807543', None),
    'export ex1': (0, '1e0c3f1a364e039b626e933fe0005a9afb7b9363e403115909ec576f9998138f', None),
    'export ex2': (0, 'a9decd0dd2dcdb965830c596ccf3b5054d5f8f6b559a80cda33788925a0d33b1', None),
    'export ex3': (0, 'beb9f682082581021fabab7f1955d59e958e579a7ce126d4f4aec50f89efa2c5', None),
    'export ex4': (0, '825b14423e39d38838dab21f1ef737366bee3192d914802a287ab251e5e4ffc5', None),
    'list': (0, '4f78aeca03245304e211d1a438775c7c83ac51045aef96776ee6e6d982638b72', None),
    'run-all 0': (0, '20bbbcd7aa5c674ba78c256cd49dbf5357f3f7f3037053ebc6f798ba9511346f', 120260),
    'run-all 7': (0, 'b97947057ab2da47eb74c35376c42d64d730cf2b5c0cf0b3919e59f890260113', 120260),
    'solve coupled-reg 0': (0, '927359922845c73a49fa949a313095b80f985ef6888c80f2855ea6079ac46442', 24074),
    'solve coupled-reg 7': (0, 'd1408738e0f213c0f4b43879467306121808c8020ebd950c8762a8854dbabc22', 24074),
    'solve ex1 0': (0, '2b2936bc53fc55da2ec1a2ba035882d4ef82e6da3fbe4e9460d65292e973f517', 24080),
    'solve ex1 7': (0, '5e9cefda9a6e78be4dbc3a1ea2669a60a894b87bf766520167a336f962e70bc0', 24080),
    'solve ex2 0': (0, 'd64be5c0b4f849e2535aa3027bbc44035a142ce2449f0e019c18cc94496ef020', 24060),
    'solve ex2 7': (0, '7e94c39c5129d81b45d671e6f3b0b89bcf8510be8282ee862df7363e04bfe6c7', 24060),
    'solve ex3 0': (0, 'e9e41cb8174bd990a041c97646183cc34396c45a3f07ad23ef01f05685f9dd20', 24040),
    'solve ex3 7': (0, 'a17bad199153534d500885350fa98028d6e9a4043aebaab064d06edb3068142c', 24040),
    'solve ex4 0': (0, '4ebf3f6da6d861294e36644eab5dc21949e51d7a8c573ff4b34a32dc0b867ec3', 24006),
    'solve ex4 7': (0, '6deea3249d042f9756b0866e57e662c807b7791bb59840e64559165bca805ceb', 24006),
    'unique coupled-reg 0': (0, '88a6bf042aab290905f433086cbb510daea0be80191cc8f64053716b78f47e6f', 72),
    'unique coupled-reg 7': (0, 'cbb8c693df364b38aa648efc4eaba31f06f1ae819db8b6b19871c3a79679a47b', 72),
    'unique ex1 0': (0, 'a73484a239b563fb4c2ee58bfc94b3468ee94d0ae46732f2faaa4d3e1ce1d59e', 78),
    'unique ex1 7': (0, 'def92e66cfbc890e34188668e6236c57d8330080fee91b6cbb72d9135f05969c', 78),
    'unique ex2 0': (0, 'ac4321e9696d538119c4a6c06a442f510eff4bd91b53682d469516ca670e9ba0', 58),
    'unique ex2 7': (0, '07fbc8d691c5dca96e664ed033cd7c6025e44f710bb0924db721a5777fe91bd1', 58),
    'unique ex3 0': (0, '03bc03c21cede0b6438ab6eba0fd735d3fa395c5692595204135029bfca97d0c', 38),
    'unique ex3 7': (0, '8ed523866ea17f26964730fdb3c2860cbd13b0870b8a9f35a1562cfa0485c5fb', 38),
    'unique ex4 0': (0, '4a831dd4556a706d1eb62b7612bf1af159ed21122c228a1501e6775965bfe823', 4),
    'unique ex4 7': (0, 'd8f3c82b3ebb78a74858425c6e31758eb6ba6aa50945940de9c71207d340ff70', 4),
    'unique-seeds ex1 0': (0, '7897578f5fa371b9c2a9367ddae7e38167dd6eb8bcada5869fcdb4a947a8b3cc', 246),
    'unique-seeds ex1 7': (0, 'bdcf13d5aed83d3e866d0caec4cfa1ddb3761889ae2296e56c046d12663f2c21', 246),
    'unique-seeds ex2 0': (0, '8f58fce18a31db3746e5bfd21128152a8b870399fd65e5d07fa6af46877fffaa', 246),
    'unique-seeds ex2 7': (0, '13f23ce58672bf3e4ea720ae85369a25e0b02d4f14da0cda2ef4b87e0fb07374', 246),
}


def _digest_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run(argv) -> tuple[int, str, int]:
    code = main(argv + ["--out", "report.json"])
    with open("report.json", "rb") as fh:
        report = fh.read()
    return (code, hashlib.sha256(report).hexdigest(),
            json.loads(report)["timing"]["map_evaluations"])


def _run_to_stdout(argv) -> tuple[int, str, None]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), None


def report_digests(workdir) -> dict[str, tuple[int, str, int | None]]:
    """Run every pinned command inside ``workdir`` and digest its report.

    Reports name the problem file they read, so the files are passed by
    relative path to keep the bytes independent of ``workdir``.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return _report_digests()
    finally:
        os.chdir(cwd)


def _report_digests() -> dict[str, tuple[int, str, int | None]]:
    with open("no_seeds.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": []}, fh)
    with open("extra_seeds.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": [{"x0": [-2.0], "y0": [2.0]},
                             {"x0": [-3.0], "y0": [3.0]}]}, fh)
    digests = {}
    for entry in builtin_problems():
        problem = f"{entry.id}.json"
        code = main(["corpus", "export", entry.id, "--out", problem])
        digests[f"export {entry.id}"] = (code, _digest_file(problem), None)
        for seed in RNG_SEEDS:
            rng = ["--rng-seed", str(seed)]
            for command in ("solve", "check"):
                digests[f"{command} {entry.id} {seed}"] = _run([command, problem] + rng)
            digests[f"unique {entry.id} {seed}"] = _run(
                ["unique", problem, "--seeds", "no_seeds.json"] + rng)
            if entry.id in ("ex1", "ex2"):
                digests[f"unique-seeds {entry.id} {seed}"] = _run(
                    ["unique", problem, "--seeds", "extra_seeds.json"] + rng)
    digests["list"] = _run_to_stdout(["corpus", "list"])
    for seed in RNG_SEEDS:
        digests[f"run-all {seed}"] = _run(["corpus", "run-all", "--rng-seed", str(seed)])
    for name, problem in MULTI_D.items():
        with open(f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(problem, fh)
        for seed in RNG_SEEDS:
            digests[f"check {name} {seed}"] = _run(
                ["check", f"{name}.json", "--rng-seed", str(seed)])
    return digests


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    return report_digests(tmp_path_factory.mktemp("determinism"))


def test_pinned_runs_are_all_run(digests):
    assert sorted(digests) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_bytes_match_pinned_digest(digests, name):
    assert digests[name] == EXPECTED[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for name, pinned in sorted(report_digests(workdir).items()):
            print(f"    {name!r}: {pinned!r},")
