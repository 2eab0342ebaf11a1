"""The determinism contract: report bytes are pinned by SHA-256 digest.

Every corpus entry is run through ``solve``, ``check`` and ``unique`` (no
extra seeds) at ``--rng-seed`` 0 and 7, together with ``corpus run-all``
and ``unique`` from the comparable seeds (-2, 2) and (-3, 3) on ex1
(SYM_HALF) and ex2 (LIN_ASYM), whose reports carry the decay checks.  A
refactor must leave every digest and exit code unchanged; a change that
alters report bytes on purpose must say which and why, and update the
table below.  ``python tests/test_determinism.py`` (with ``src`` on
``PYTHONPATH``) prints the current table.

The corpus is all 1-d with L1 metrics, so every distance is a single
term and the digests do not depend on the BLAS build or the machine.
"""

import hashlib
import json
import os

import pytest

from fgfp import builtin_problems
from fgfp.cli import main

RNG_SEEDS = (0, 7)

# (exit code, SHA-256 of the report bytes) per run
EXPECTED = {
    'check coupled-reg 0': (0, '3f66788618a2054fdaec596cf6885ed0c0078eada1cf88745abc3463498be833'),
    'check coupled-reg 7': (0, 'b0f1de181ef51389790fed4c09754cda8e7aa13902b2087cdebcc5619d150c6b'),
    'check ex1 0': (0, '646f01bce1fa9a982a9bb8852b31585aa05b391c530f587779f28aa0cf01fc79'),
    'check ex1 7': (0, '061a46b3e574fe5112e6bb195efacaa482ea0c1c5f47eb4f892db91e9217ecf6'),
    'check ex2 0': (0, 'bb4942ef1f63dca1d09c3afc900561969b2f8327cccaa6f8bb49047b71fed9f2'),
    'check ex2 7': (0, '01eb92ba5496b4651d638106292308de98bc18b8c0857f65e8c408bf08638f0e'),
    'check ex3 0': (0, '3f95cdc5b6ddbfb7425702a6ed2ce168fbf04405da20a2932c397f389af00148'),
    'check ex3 7': (0, '620cc0959d7b939bf4dd45f2f81b6e2462cdec7a1477501e8a91e1c003052d3c'),
    'check ex4 0': (0, 'b563d0086d43dfecaf6d3f488159fe82781fc4c8b819ce2f925e66a3183f4211'),
    'check ex4 7': (0, '639df5c2a4851f40c2fa273b454a7f76b2378cd4f17b9120fbaef3682c7a27da'),
    'run-all 0': (0, '107cca877c5031325583f20a64cfc12ceb644ff318ac069b07bf7a1fea82fb51'),
    'run-all 7': (0, 'dffcc7be59f098c3e9029dc1cc42b7797b4776b69fcee98aa57a9f90a5bc9d96'),
    'solve coupled-reg 0': (0, 'c0fa89d12a64cb7a91578ecdd0c472b86b37c12ab76e9f976ede3143707b6024'),
    'solve coupled-reg 7': (0, '6695ea7e5b4a9c9a745889b1364f02782e4aad94ba8ce6f719daf5ff215579e3'),
    'solve ex1 0': (0, '78249f972fb2707043d452ebaffaf5862e485cc36fdafa167b5249f5cee9c74d'),
    'solve ex1 7': (0, 'e35f12a64d78eafdf5164f79104b9a92465b66864811d6c47dd5e45046ca1b13'),
    'solve ex2 0': (0, '0b45a2df1445628baf13fe7a1cc8be00ec2ad098187eb5291c7e7eb7a7c8de5f'),
    'solve ex2 7': (0, 'eca4f620cdf0c3bdc0328afb1cf49fbce11e1afd9f25e3fbbda78ee298cbb93c'),
    'solve ex3 0': (0, 'cb07aeb3f24d8cd47e3071aec8c9461420a268fb529b7f0e09f82a1221f3120c'),
    'solve ex3 7': (0, 'bf7a81f75f66ba7dbede7483fdf19043cd7c8bc7cf84204e7da23db0159613cd'),
    'solve ex4 0': (0, '620a04b7e9ff05adfb44e72e024798bffb4f1e568e3bee00a8ee2822d44d75d7'),
    'solve ex4 7': (0, '81a01ff9c3cf1656aea354f344af7d513dc5f6e92c88f60838ba2d48a663ce1c'),
    'unique coupled-reg 0': (0, '1acc77f936b5f026d4c5620095404c797666d57b8eab84b26008ed0a82b62090'),
    'unique coupled-reg 7': (0, '405f64056a6fa88ce8f8b0bd093ffdbedff3df549197abcbc2865e129cb857c6'),
    'unique ex1 0': (0, '540bd7db48a2697e56a31b4921a25d90b736c95fdf7e5b5873d702ab78e9a775'),
    'unique ex1 7': (0, 'a69328640803ed527d8289781e4cae5cee33f7818f3bac4ea237c2271eedb9c3'),
    'unique ex2 0': (0, '053e56221cfe2760c2bd8e0e729b2ae50b88328f31e31cee6ef2029032227e4d'),
    'unique ex2 7': (0, 'd1f43a9b864da980b2d36f10d0f090c440e0a09e3f474a5333a091cf8836aa2d'),
    'unique ex3 0': (0, '8ffead824fff6545a3e69c714c81eea3e305ceb9e4b95de23d28a5e50848a5db'),
    'unique ex3 7': (0, '0f6d72ee6f462714387be7d8ac665ee78b9f8b2e9254cfb4b372a2745d25f87e'),
    'unique ex4 0': (0, 'da66fa440baa1fa34f6ceaf13077a8d8ddde6a7b6dd73b482b4ab011170dec3b'),
    'unique ex4 7': (0, '1eefe988c103993006032ca54bc5bbad86481a8a8f642fa8e393b870979e5743'),
    'unique-seeds ex1 0': (0, 'ca3bcaa4e47c8a63b1063c89f699e04ee996c7639d3a1107219c8411f44eb2db'),
    'unique-seeds ex1 7': (0, 'd10aa807f5059159452d75152f61d4d8fe7d849ff9241e1857ae73418a0f2686'),
    'unique-seeds ex2 0': (0, '7bb5b4c13103aa5687e81e2221e5fa1b3b1f33a1eef745fe8a37c2344f1a1a50'),
    'unique-seeds ex2 7': (0, 'd25dd7475be7cffb706d81df723e6c460ab4d53a16c7db559bff38e51e76f1cd'),
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
