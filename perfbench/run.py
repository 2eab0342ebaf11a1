#!/usr/bin/env python3
"""fgfp benchmark: the ``fgfp`` CLI run in-process by one closed-loop caller.

    python3 perfbench/run.py --workload corpus-2k --seed 1 --seconds 20 --trace 0

Generates the workload's problem and seed files from ``--seed``, measures
set-up in fresh interpreters, then runs whole passes over the workload's
command list (one command at a time, in this process) until ``--seconds``
have elapsed, checking every report.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One caller, no hidden parallelism: BLAS pools stay at one thread, and
# the environment cannot pick the sampling seed or the backend.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLEARED_VARS = ("FGFP_RNG_SEED", "FGFP_BACKEND")

SETUP_REPEATS = 21
DECLARED_TOL = 1e-8

# Percentile reported as cmd_tail_ms, fixed per workload so that the
# metric means the same on every run.  Each keeps at least ten commands
# beyond it in a 30 s run even when the machine runs 25% slow, and falls
# inside one command's band of the sorted pass (see README).  The output
# states how many commands were beyond it.
TAIL_PERCENTILE = {"corpus-2k": 97, "audit-200k": 70, "unique-seeds": 85}

# name -> unit; "<layer>.<function>.<stat>" names are computed generically
# by _layer_value, the others in per_layer.
LAYER_METRICS = {
    "hypotheses.check_comparability.self_ms": "ms",
    "hypotheses.check_comparability.share_of_audit": "fraction",
    "hypotheses.estimate_constants.self_ms": "ms",
    "hypotheses.estimate_constants.ms_per_call": "ms",
    "hypotheses.check_mixed_monotone.self_ms": "ms",
    "hypotheses.check_contraction.self_ms": "ms",
    "hypotheses.estimate_lipschitz.self_ms": "ms",
    "hypotheses.audit.self_ms": "ms",
    "hypotheses.audit.ms_per_call": "ms",
    "hypotheses.check_seed.self_ms": "ms",
    "hypotheses.witnesses": "count",
    "maps.eval_map_batch.calls": "count",
    "maps.eval_map_batch.rows": "count",
    "maps.eval_map_batch.self_ms": "ms",
    "maps.eval_map_batch.ns_per_row": "ns",
    "maps.eval_map.calls": "count",
    "maps.eval_map.us_per_call": "us",
    "maps.iterate_pair.calls": "count",
    "maps.parse_map.calls": "count",
    "maps.parse_map.us_per_call": "us",
    "backends.run_program.calls": "count",
    "backends.run_program.self_ms": "ms",
    "spaces.sample_points.rows": "count",
    "spaces.sample_points.self_ms": "ms",
    "spaces.distance_batch.rows": "count",
    "spaces.distance_batch.self_ms": "ms",
    "spaces.leq_batch.calls": "count",
    "spaces.leq_batch.self_ms": "ms",
    "spaces.leq.calls": "count",
    "spaces.leq.self_ms": "ms",
    "spaces.metric_distance.calls": "count",
    "spaces.metric_distance.self_ms": "ms",
    "solver.solve.calls": "count",
    "solver.solve.iterations": "count",
    "solver.solve.us_per_iter": "us",
    "solver.solve.self_ms": "ms",
    "solver.verify_trace_bounds.self_ms": "ms",
    "solver.uniqueness_probe.self_ms": "ms",
    "solver.decay_pairs": "count",
    "solver.seed_pairs": "count",
    "solver.replay_eval_share": "fraction",
    "probfile.load_problem_file.self_ms": "ms",
    "probfile.dumps17.self_ms": "ms",
    "probfile.report_bytes": "bytes",
    "corpus.builtin_problems.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "fraction",
}

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import fgfp.cli
from fgfp.probfile import load_problem_file, load_seeds_file
for path in json.loads(sys.argv[1]):
    load_problem_file(path)
for path in json.loads(sys.argv[2]):
    load_seeds_file(path)
print(time.perf_counter() - t0)
"""


def _prepare_environment() -> None:
    for var in CLEARED_VARS:
        os.environ.pop(var, None)
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy as np
    env = {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "active_backend": None,
    }
    try:
        from fgfp import backends
        env["active_backend"] = backends.active_backend()
    except (ImportError, AttributeError):
        pass
    return env


class SetupTimer:
    """Times ``import fgfp.cli`` plus loading the workload's files, each
    time in a fresh interpreter, as a CLI user pays it on every call."""

    def __init__(self, workload):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.argv = [sys.executable, "-c", SETUP_CODE,
                     json.dumps(list(workload.problem_files)),
                     json.dumps(list(workload.seed_files))]
        self.times: list[float] = []
        self.once()  # the first interpreter may write bytecode caches
        self.times.clear()

    def once(self) -> None:
        done = subprocess.run(self.argv, env=self.env, cwd=str(ROOT), capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{done.stderr}")
        self.times.append(float(done.stdout.strip().splitlines()[-1]))

    def between_passes(self, elapsed_share: float) -> None:
        """Spread the samples evenly over the run, so that they see the
        same machine as the commands do."""
        while len(self.times) < SETUP_REPEATS * min(elapsed_share, 1.0):
            self.once()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self.once()
        return self.times


# ---------------------------------------------------------------------------
# Running and checking commands

def _hypothesis_witnesses(hyp: dict | None) -> int:
    if not hyp:
        return 0
    contraction = hyp["contraction"]
    return (len(hyp["mixed_monotone"]["counterexamples"])
            + len(contraction["inequality_f"]["violations"])
            + len(contraction["inequality_g"]["violations"])
            + len(hyp["comparability"]["failures"]))


def _check_report(cmd, report: dict) -> list[str]:
    """What the report of ``cmd`` gets wrong; empty when it is correct."""
    bad = []
    if cmd.kind == "solve":
        solve = report["solve"]
        if not report["hypotheses"]["passed"]:
            bad.append("audit failed")
        if solve is None or not solve["converged"]:
            bad.append("did not converge")
        elif not solve["distance_to_declared"] <= DECLARED_TOL:
            bad.append(f"distance_to_declared {solve['distance_to_declared']}")
        if report["bounds"] is None or report["bounds"]["violations"]:
            bad.append("bound violations")
    elif cmd.kind == "check":
        if not report["hypotheses"]["passed"]:
            bad.append("audit failed")
    elif cmd.kind == "unique":
        probe = report["uniqueness"]
        if not probe["passed"]:
            bad.append("uniqueness probe failed")
        if len(probe["decay_checks"]) != cmd.decay_pairs:
            bad.append(f"{len(probe['decay_checks'])} decay replays, "
                       f"expected {cmd.decay_pairs}")
    elif cmd.kind == "run-all":
        if report["all_passed"] is not True:
            bad.append("all_passed is not true")
        if not all(e["matches_declared"] is True for e in report["entries"]):
            bad.append("an entry does not match its declared fixed point")
    if not isinstance(report["timing"]["map_evaluations"], int):
        bad.append("timing.map_evaluations is not an integer")
    return bad


class Runner:
    """Closed-loop caller: runs one command at a time and checks its report."""

    def __init__(self, workload):
        import fgfp.cli
        self.cli = fgfp.cli
        self.workload = workload
        self.digest: dict[str, str] = {}
        self.reports: dict[str, dict] = {}
        self.report_bytes: dict[str, int] = {}
        self.bad_keys: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, argv, out, err):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter_ns()
            try:
                rc = self.cli.main(list(argv))
            finally:
                elapsed = time.perf_counter_ns() - t0
        return rc, elapsed

    def run(self, cmd, tracer=None) -> int:
        """Run ``cmd`` once; returns its wall time in nanoseconds."""
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                rc, elapsed = self._call(cmd.argv, out, err)
            else:
                rc, elapsed = tracer.command(cmd.argv, lambda: self._call(cmd.argv, out, err))
        except Exception as exc:  # a raw exception is a failed command
            self.attempted += 1
            self._fail(cmd, f"raised {type(exc).__name__}: {exc}")
            return time.perf_counter_ns() - t0
        self.attempted += 1
        problems = [f"exit code {rc}"] if rc != 0 else []
        if err.getvalue():
            problems.append("wrote to stderr: " + err.getvalue().strip()[:200])
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if cmd.key in self.digest:
            if digest != self.digest[cmd.key]:
                problems.append("report differs from the first run of this command")
            elif cmd.key in self.bad_keys:
                problems.append("repeat of a command whose report was wrong")
        else:
            self.digest[cmd.key] = digest
            self.report_bytes[cmd.key] = len(text.encode())
            try:
                report = json.loads(text)
                problems += _check_report(cmd, report)
                self.reports[cmd.key] = report
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable report ({type(exc).__name__}: {exc})")
            if problems:
                self.bad_keys.add(cmd.key)
        if problems:
            self._fail(cmd, "; ".join(problems))
        return elapsed

    def _fail(self, cmd, why: str) -> None:
        self.bad_keys.add(cmd.key)
        self.failures.append(f"{' '.join(cmd.argv)}: {why}")

    def passes(self, seconds: float, tracer=None,
               between=None) -> tuple[list[int], list[int]]:
        """Whole passes over the command list until ``seconds`` have elapsed.

        Returns (per-command ns, per-pass ns); a pass is the sum of its
        commands' wall times.  ``between(share of seconds elapsed)`` runs
        after each pass; its own time does not count towards ``seconds``."""
        times: list[int] = []
        pass_ns: list[int] = []
        cpus = sorted(os.sched_getaffinity(0))
        start = time.perf_counter()
        paused = 0.0
        try:
            while True:
                # Alternate passes between the CPUs this process may use:
                # their speeds drift apart, and a run should not be decided
                # by whichever one the scheduler happened to keep it on.
                os.sched_setaffinity(0, {cpus[len(pass_ns) % len(cpus)]})
                total = 0
                for cmd in self.workload.commands:
                    ns = self.run(cmd, tracer)
                    times.append(ns)
                    total += ns
                pass_ns.append(total)
                elapsed = time.perf_counter() - start - paused
                if between is not None:
                    t0 = time.perf_counter()
                    between(elapsed / seconds)
                    paused += time.perf_counter() - t0
                if elapsed >= seconds:
                    return times, pass_ns
        finally:
            os.sched_setaffinity(0, cpus)

    def per_pass(self, field) -> float:
        return float(sum(field(self.reports[c.key]) for c in self.workload.commands
                         if c.key in self.reports))


# ---------------------------------------------------------------------------
# Metrics

def _nearest_rank(sorted_values, percentile: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def end_to_end(runner: Runner, times_ns, setup_times, workload_name: str) -> tuple[dict, list[str]]:
    n_cmd = len(runner.workload.commands)
    by_key = {c.key: statistics.median(t / 1e6 for t in times_ns[i::n_cmd])
              for i, c in enumerate(runner.workload.commands)}
    ms = sorted(t / 1e6 for t in times_ns)
    tail_p = TAIL_PERCENTILE[workload_name]
    tail, beyond = _nearest_rank(ms, tail_p)
    evals = runner.per_pass(lambda r: r["timing"]["map_evaluations"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "commands_per_s": (len(ms) / (sum(ms) / 1e3), "1/s"),
        "cmd_p50_ms": (statistics.median(ms), "ms"),
        "cmd_tail_ms": (tail, "ms"),
        "map_evaluations": (int(evals), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup_times)} fresh interpreters spread over the run "
        f"({', '.join(f'{t:.4f}' for t in setup_times)})",
        f"commands_per_s, cmd_p50_ms: {len(ms)} commands in "
        f"{len(ms) // n_cmd} passes of {n_cmd}",
        f"cmd_tail_ms: p{tail_p} of {len(ms)} commands, {beyond} beyond it"
        + ("" if beyond >= 10 else " (FEWER THAN TEN: run longer)"),
        f"map_evaluations: per pass of {n_cmd} commands",
        "median ms per command: " + ", ".join(f"{k} {v:.1f}" for k, v in by_key.items()),
    ]
    return metrics, notes


def _layer_value(summary: dict, name: str, passes: int, absent: list[str]):
    fn, stat = name.rsplit(".", 1)
    entry = summary["per_name"].get(fn)
    if entry is None:
        absent.append(fn)
        return 0.0
    counters = summary["counters"]
    calls, incl = entry["calls"], entry["incl_ns"]
    if stat == "self_ms":
        return entry["self_ns"] / passes / 1e6
    if stat == "calls":
        return calls / passes
    if stat == "rows":
        return counters.get(fn + ".rows", 0) / passes
    if stat == "ns_per_row":
        rows = counters.get(fn + ".rows", 0)
        return incl / rows if rows else 0.0
    if stat == "us_per_call":
        return incl / calls / 1e3 if calls else 0.0
    if stat == "ms_per_call":
        return incl / calls / 1e6 if calls else 0.0
    if stat == "iterations":
        return counters.get(name, 0) / passes
    if stat == "us_per_iter":
        iters = counters.get(fn + ".iterations", 0)
        return incl / iters / 1e3 if iters else 0.0
    raise ValueError(f"no rule for layer metric {name!r}")


def per_layer(runner: Runner, tracer, summary: dict, passes: int,
              untraced_pass_ns, traced_pass_ns) -> tuple[dict, list[str]]:
    absent: list[str] = []
    per_name = summary["per_name"]

    def incl(fn):
        entry = per_name.get(fn)
        if entry is None:
            absent.append(fn)
            return 0.0
        return entry["incl_ns"]

    audit_ns = incl("hypotheses.audit")
    replay, evals = tracer.share_under("maps.eval_map", "maps.iterate_pair")
    special = {
        "hypotheses.check_comparability.share_of_audit":
            incl("hypotheses.check_comparability") / audit_ns if audit_ns else 0.0,
        "hypotheses.witnesses": runner.per_pass(
            lambda r: sum(_hypothesis_witnesses(e["report"]["hypotheses"]) for e in r["entries"])
            if "entries" in r else _hypothesis_witnesses(r.get("hypotheses"))),
        "solver.decay_pairs": runner.per_pass(
            lambda r: len(r["uniqueness"]["decay_checks"]) if r.get("uniqueness") else 0),
        "solver.seed_pairs": runner.per_pass(
            lambda r: len(r["uniqueness"]["pairwise_distances"]) if r.get("uniqueness") else 0),
        "solver.replay_eval_share": replay / evals if evals else 0.0,
        "probfile.report_bytes": float(sum(runner.report_bytes.values())),
        "trace.overhead_frac": (statistics.median(traced_pass_ns)
                                / statistics.median(untraced_pass_ns) - 1.0),
    }
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        value = special[name] if name in special else _layer_value(summary, name, passes,
                                                                     absent)
        metrics[name] = (value, unit)
    notes = [f"per pass of {len(runner.workload.commands)} commands, "
             f"{passes} traced passes; {summary['accounting']['spans']} spans"]
    gone = sorted(set(absent)) + [f"{layer} (module)" for layer in tracer.absent]
    if gone:
        notes.append("layer absent: " + ", ".join(gone) + " (reported as 0)")
    return metrics, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "fgfp" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no fgfp sources under {SRC}; "
                         "run from a checkout of the repository\n")
        return 2
    _prepare_environment()
    import bench_trace
    import fgfp
    if Path(fgfp.__file__).resolve().parent != (SRC / "fgfp").resolve():
        sys.stderr.write(f"perfbench: imported fgfp from {fgfp.__file__}, not {SRC}\n")
        return 2

    env = environment()
    input_dir = OUT / "inputs" / f"{args.workload}-seed{args.seed}"
    workload = bench_inputs.build(args.workload, args.seed, input_dir)
    runner = Runner(workload)
    runner.run(workload.commands[0])  # warm-up: lazy imports, caches
    notes: list[str] = []
    if args.trace == 0:
        setup = SetupTimer(workload)
        times, _ = runner.passes(args.seconds, between=setup.between_passes)
        metrics, notes = end_to_end(runner, times, setup.finish(), args.workload)
        trace_ok = True
    else:
        _, untraced_pass_ns = runner.passes(args.seconds / 2)
        tracer = bench_trace.Tracer()
        tracer.install()
        try:
            _, traced_pass_ns = runner.passes(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        summary = tracer.summarize()
        trace_ok = summary["accounting"]["ok"]
        metrics, notes = per_layer(runner, tracer, summary, len(traced_pass_ns),
                                   untraced_pass_ns, traced_pass_ns)
        notes.append("trace accounting: " + json.dumps(summary["accounting"]))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        notes.append(f"spans written to {trace_path.relative_to(ROOT)}")

    failed = len(runner.failures)
    result = {
        "correct": failed == 0 and trace_ok,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "notes": notes,
              "failures": runner.failures, "failed_frac": failed / runner.attempted,
              **result}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"# fgfp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# environment: " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / runner.attempted:>16.6g} fraction "
          f"({failed} of {runner.attempted} commands)")
    for note in notes:
        print("# " + note)
    for failure in runner.failures[:20]:
        print("# FAILED " + failure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
