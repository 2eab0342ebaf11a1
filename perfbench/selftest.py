#!/usr/bin/env python3
"""Self-test of the benchmark's input generator and tracer.

    python3 perfbench/selftest.py [--seeds 1 2 3]

Generator, for every workload and seed:
  * every generated problem passes its audit (at the workload's sample count);
  * every problem converges to its declared fixed point, within the
    envelopes;
  * unique-seeds seeds meet the launch condition and are pairwise
    product-comparable;
  * the same workload seed gives byte-identical files.
Shapes: the identity transform reproduces each ``fgfp.corpus`` entry.
Tracer:
  * for traced commands, the self times of all spans plus the unwrapped
    remainder add up to the traced wall time of each command;
  * traced reports are byte-identical to untraced ones;
  * a missing layer is reported as absent and its metrics as 0.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil

import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def _file_bytes(wl) -> list[bytes]:
    return [open(f, "rb").read() for f in wl.problem_files + wl.seed_files]


def check_generator(seeds: list[int]) -> None:
    import bench_inputs
    from fgfp.hypotheses import SamplerConfig, audit, check_seed
    from fgfp.probfile import load_problem_file, load_seeds_file
    from fgfp.solver import solve
    from fgfp.spaces import product_leq, product_metric_distance

    base = run.OUT / "selftest"
    for name in bench_inputs.WORKLOADS:
        for seed in seeds:
            out_dir = base / f"{name}-{seed}"
            wl = bench_inputs.build(name, seed, out_dir)
            first = _file_bytes(wl)
            again = bench_inputs.build(name, seed, out_dir)
            other = bench_inputs.build(name, seed + 1000, base / f"{name}-other")
            expect(again == wl and _file_bytes(again) == first,
                   f"{name} seed {seed}: the same seed gives byte-identical files")
            expect(other.commands != wl.commands or _file_bytes(other) != first,
                   f"{name} seed {seed}: another seed gives other inputs")

            samples = 200_000 if name == "audit-200k" else 2000
            for path in wl.problem_files:
                label = f"{name} seed {seed} {path.rsplit('/', 1)[-1]}"
                problem, _ = load_problem_file(path)
                hyp = audit(problem.F, problem.G, problem.X, problem.Y, problem.family,
                            problem.seed[0], problem.seed[1],
                            SamplerConfig(samples_per_check=samples, rng_seed=seed))
                expect(hyp.passed, f"{label}: audit passes at {samples} samples")
                _, result = solve(problem)
                dist = product_metric_distance(problem.X, problem.Y,
                                               (result.x_star, result.y_star),
                                               problem.declared_fixed_point)
                expect(result.converged and dist <= run.DECLARED_TOL
                       and not result.bound_violations,
                       f"{label}: converges to the declared point (distance {dist:.3g}) "
                       f"within the envelopes")

            for path, seeds_path in zip(wl.problem_files, wl.seed_files):
                problem, _ = load_problem_file(path)
                chain = [problem.seed] + load_seeds_file(seeds_path)
                launch = all(check_seed(problem.F, problem.G, problem.X, problem.Y,
                                        x0, y0).passed for x0, y0 in chain)
                comparable = all(product_leq(problem.X, problem.Y, p, q)
                                 or product_leq(problem.X, problem.Y, q, p)
                                 for p, q in itertools.combinations(chain, 2))
                expect(launch and comparable and len(chain) == bench_inputs.UNIQUE_SEEDS,
                       f"{name} seed {seed} {seeds_path.rsplit('/', 1)[-1]}: "
                       f"{len(chain)} seeds meet the launch condition and are "
                       f"pairwise product-comparable")
    shutil.rmtree(base, ignore_errors=True)


def check_shapes() -> None:
    import bench_inputs
    from fgfp.corpus import builtin_problems
    from fgfp.probfile import parse_problem_dict, problem_to_dict

    for entry in builtin_problems():
        shape = bench_inputs.SHAPES[entry.id]
        doc = bench_inputs.problem_doc(shape, bench_inputs.IDENTITY, (shape.seed_c,))
        problem, _ = parse_problem_dict(doc)
        expect(problem_to_dict(problem) == problem_to_dict(entry.problem),
               f"shape {entry.id}: identity transform reproduces the corpus entry")


def check_tracer() -> None:
    import bench_inputs
    import bench_trace

    wl = bench_inputs.build("unique-seeds", 1, run.OUT / "selftest" / "trace")
    corpus = bench_inputs.build("corpus-2k", 1, run.OUT / "selftest" / "trace-corpus")
    commands = [wl.commands[0], wl.commands[-1]] + [
        c for c in corpus.commands if c.kind in ("check", "run-all")][:2]
    runner = run.Runner(bench_inputs.Workload(tuple(commands), (), ()))
    for cmd in commands:
        runner.run(cmd)
    untraced = dict(runner.digest)

    tracer = bench_trace.Tracer()
    # "backends" left out stands for a layer deleted from the package
    layers = tuple(l for l in bench_trace.LAYERS if l != "backends") + ("no_such_layer",)
    tracer.install(layers=layers)
    walls = []
    try:
        for cmd in commands:
            walls.append(runner.run(cmd, tracer))
    finally:
        tracer.uninstall()
    expect(not runner.failures and runner.digest == untraced,
           "traced reports are byte-identical to untraced ones")

    summary = tracer.summarize()
    acc = summary["accounting"]
    expect(acc["ok"], "span tree is well formed: " + json.dumps(acc))
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    for c, cmd in enumerate(commands):
        in_cmd = a["cmd"] == c
        root = in_cmd & (a["parent"] < 0)
        layer_self = sum(v for v in _self_ns(a, dur)[in_cmd & ~root])
        remainder = int(_self_ns(a, dur)[root].sum())
        root_wall = int(dur[root].sum())
        expect(layer_self + remainder == root_wall and root_wall >= walls[c],
               f"{' '.join(cmd.argv[:1])}: layer self times {layer_self} ns + unwrapped "
               f"remainder {remainder} ns = traced wall {root_wall} ns")

    import fgfp.cli
    expect(fgfp.cli.main is runner.cli.main and not hasattr(fgfp.cli.main, "__wrapped__"),
           "uninstall restores every binding")
    expect("no_such_layer" in tracer.absent, "a missing layer module is recorded as absent")
    metrics, notes = run.per_layer(runner, tracer, summary, 1, [1], [1])
    expect(metrics["backends.run_program.calls"][0] == 0.0
           and any("backends.run_program" in n and "absent" in n for n in notes)
           and any("no_such_layer" in n for n in notes),
           "names that were never traced are reported as 'layer absent' with value 0")
    shutil.rmtree(run.OUT / "selftest", ignore_errors=True)


def _self_ns(a, dur):
    import numpy as np
    child = np.zeros(dur.shape[0], dtype=np.int64)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    return dur - child


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([m["name"] for m in spec["per_layer"]] == list(run.LAYER_METRICS),
           "BENCHMARK.json per_layer lists exactly the traced metrics")
    expect([w["name"] for w in spec["workloads"]] == list(run.TAIL_PERCENTILE),
           "BENCHMARK.json workloads match the benchmark's workloads")


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of perfbench")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args()
    run._prepare_environment()
    check_benchmark_json()
    check_shapes()
    check_tracer()
    check_generator(args.seeds)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
