"""The determinism contract: report bytes are pinned by SHA-256 digest.

Every corpus entry is run through ``solve``, ``check`` and ``unique`` (no
extra seeds) at ``--rng-seed`` 0 and 7, together with ``corpus run-all``
and ``unique`` from the comparable seeds (-2, 2) and (-3, 3) on ex1
(SYM_HALF) and ex2 (LIN_ASYM), whose reports carry the decay checks.  A
refactor must leave every digest and exit code unchanged; a change that
alters report bytes on purpose must say which and why, and update the
table below.  ``python tests/test_determinism.py`` (with ``src`` on
``PYTHONPATH``) prints the current table.

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

import hashlib
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

# (exit code, SHA-256 of the report bytes) per run
EXPECTED = {
    'check coupled-reg 0': (0, 'ee106490d176bbdcafbb1871f7c181dfcf204044df9413005442782033a4544e'),
    'check coupled-reg 7': (0, 'a55b472109e112d5729d230ba5b700694ff663d09a2590e41d0f119a66491f17'),
    'check discrete2d 0': (2, '1a70700de9f949f5e307552e050ed54008ae302cb99a013629a52162b209c8d3'),
    'check discrete2d 7': (2, 'c7548c8c4bd5477862d54943e433767e37760c54ed3a6cca4ad89197b3cc2583'),
    'check ex1 0': (0, 'c400e85cbf1c5764be4bb01115ae061978ce1648ff56cce454ef68aa8ba4471f'),
    'check ex1 7': (0, '61a6c5973891323f0108758c1b4d95891bfe7e532683076a95d1562f08a5c376'),
    'check ex2 0': (0, '2ab094b544eaeb380d3d81cdfd0662751676f6a9a6285e0e6465bd4fd883b4e6'),
    'check ex2 7': (0, '66776b811f025834801c8def425d09384239e398c6e706b3b2e9bab9d670b4ed'),
    'check ex3 0': (0, '1b6bbdc3288696ed88f52597aba0cfd093cbf4d8765fc71f561d7a9fcd4f7fca'),
    'check ex3 7': (0, 'adf4c1a6d83d87829dff9136a9bcc9f738cb6c60f1d1678f4a2d6fcab3bb840e'),
    'check ex4 0': (0, '08cd20235d2356b635771028524a0ee5e481c373ba700a393d5e5abf0c7c9aea'),
    'check ex4 7': (0, 'a9eaa8dec6a27fed089fda838e6637b9010ae2ae2b8d6f97b5cc4fdf4da5da40'),
    'check rev2d 0': (2, '0e85d701ad24c1cc5ea4e54c6b632c83e92ac87f31985da73db15f57e77c3a2e'),
    'check rev2d 7': (2, '49306510e3ebf0393c63b1adb7e8f978133934d4b901000f57039bd041fca421'),
    'check unit4d 0': (2, '490de6c3e02282b7151bb89c1efd42cf68eef2e52697f80dd9930f9130ed8c46'),
    'check unit4d 7': (2, '3b5a113c2914f5870863a2ad08dfd13d81f1f25519fe5d49781df8b7d58c6d80'),
    'check weighted3d 0': (2, 'aadb6a991111cc09ef71b03cb863b91a5561b45a83da4968fb356a38c83b3dbe'),
    'check weighted3d 7': (2, 'b7a42f783c67f3acf3033620c7e7ee5ef8b07a8e8a0bf7d20be952e8f05ba0fb'),
    'run-all 0': (0, '2e724359c4b7123effca3f7db9423e18a388f39bc2929042b5575d6327c220f6'),
    'run-all 7': (0, 'feb3ea86ebae94d33f267cda04d761351d219965f0ec1d3ef55e4b6663d4dd3f'),
    'solve coupled-reg 0': (0, 'd8ce0b7e1a3ffc3c365339d8a5cb211cd5e0a59d795057fb5162ed95d8bd3510'),
    'solve coupled-reg 7': (0, '74bf2e472b7f2bcb0303a4ceb59e5ea76137aa2b7ac453a72e209d7d67390a77'),
    'solve ex1 0': (0, '41f95a3c148b988cf0c1361c7483b414a32a9fe0a80beb739f912f8e09fadfd4'),
    'solve ex1 7': (0, '2bd5fac32a6541a9d9e9db6e4f2b2b89e843a0353d2889046ccb3daab1475091'),
    'solve ex2 0': (0, '22843f7f6af783ba4a88c4de7bed711a466a21cb6ec94b43cf8ba69633dacda0'),
    'solve ex2 7': (0, 'ad0d359c824e42d1f6eb3331bc8b4cf2a1816e3c54240b53ae29973c4f720365'),
    'solve ex3 0': (0, '5b5186b1d4cfaf9646cd26ceeb54cfafd87ad6ba45afc69b84db5c6418c3371c'),
    'solve ex3 7': (0, '2e74ddd9d2fc8d8aae5c38db6f7ca7454be88226a45aa6c24306c763885d0d4d'),
    'solve ex4 0': (0, '2ae544c74ddb1f807ebae00e22378b8194bb0adef42ae8125c1f63f2f424d33f'),
    'solve ex4 7': (0, '79ea8b35fde419f96381826cd5b8c26cecd0f73a0eec26f9c016bb88edcb990a'),
    'unique coupled-reg 0': (0, 'dd583f96aeb11ce133442cf0961dd3ce7302e65167987736260aa887aab52d6f'),
    'unique coupled-reg 7': (0, '0cc2f5cebc9f7101e641c417668eeaeafa17a92013f6302f0ba1b83f8ad2edcf'),
    'unique ex1 0': (0, 'b94fa599ec9e62e66995f649ad2bfd2c6382819fd2d6be1422f08e59a275d54e'),
    'unique ex1 7': (0, '079eeb7d7ad0bde677486573491c2b41e3312c008db6f37fde3c3bd314f9f4f6'),
    'unique ex2 0': (0, 'bb929c0925195a97b13803c75373ab7242f4bfe0cae72cd26a7127998a373654'),
    'unique ex2 7': (0, '4613c143a6cdc9052fff7bc2ee15d7aa7f60bc4845a2920c308fdcab52bb3318'),
    'unique ex3 0': (0, 'd1bef92352a33002a2cc897f6f7b009b4d6bb7334fd12265c69a50cec98dfe1c'),
    'unique ex3 7': (0, 'd41de280f7c92629c4b19e3c82086531d88b1a9c9b89b0be75ad6ccbb15f4532'),
    'unique ex4 0': (0, 'f98dfa424d706f50216a249e8e2dbd32c2aed650f35804de9e59177386dddaf0'),
    'unique ex4 7': (0, '6e6124ec83397fc60bab5f89d1eba7fd402d291a5fdd7f595d81de5a6491e781'),
    'unique-seeds ex1 0': (0, 'd5b74ac5108ba8cb3603c8a80e3f12e35c995b90cbf1d206825459a96cfed35c'),
    'unique-seeds ex1 7': (0, 'a684fd4db1953742bb7739e892b5004bc5bd6a99e007e2ccd1bbb7b36aaaa32c'),
    'unique-seeds ex2 0': (0, 'cdbba5b77cf8a141871a60060555971c66c62025b808d157891f13ae6fdaec5e'),
    'unique-seeds ex2 7': (0, '22317398ad6aeaa4c8d17a31333b4401a26a7b7d2379d850791b74d511a0f089'),
}


def _run(argv) -> tuple[int, str]:
    code = main(argv + ["--out", "report.json"])
    with open("report.json", "rb") as fh:
        return code, hashlib.sha256(fh.read()).hexdigest()


def report_digests(workdir) -> dict[str, tuple[int, str]]:
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


def _report_digests() -> dict[str, tuple[int, str]]:
    with open("no_seeds.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": []}, fh)
    with open("extra_seeds.json", "w", encoding="utf-8") as fh:
        json.dump({"seeds": [{"x0": [-2.0], "y0": [2.0]},
                             {"x0": [-3.0], "y0": [3.0]}]}, fh)
    digests = {}
    for entry in builtin_problems():
        problem = f"{entry.id}.json"
        assert main(["corpus", "export", entry.id, "--out", problem]) == 0
        for seed in RNG_SEEDS:
            rng = ["--rng-seed", str(seed)]
            for command in ("solve", "check"):
                digests[f"{command} {entry.id} {seed}"] = _run([command, problem] + rng)
            digests[f"unique {entry.id} {seed}"] = _run(
                ["unique", problem, "--seeds", "no_seeds.json"] + rng)
            if entry.id in ("ex1", "ex2"):
                digests[f"unique-seeds {entry.id} {seed}"] = _run(
                    ["unique", problem, "--seeds", "extra_seeds.json"] + rng)
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
