"""Command-line front end.

Subcommands::

    fgfp solve FILE      audit hypotheses, iterate, verify bounds
    fgfp check FILE      hypothesis audit only (with estimated constants)
    fgfp corpus list | export ID | run-all
    fgfp unique FILE --seeds SEEDS

Exit codes: 0 success, 1 input error (bad file, expression or flag
value), 2 hypothesis failure, 3 non-convergence (or bound violations on a
converged run).

Reports are JSON on stdout (or --out) with numbers at 17 significant
digits; given the same inputs and --rng-seed they are byte-identical
across runs.  FGFP_RNG_SEED provides the default for --rng-seed.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from . import maps as maps_mod
from .corpus import builtin_problems, get_problem
from .errors import FgfpError, ProblemFileError, SeedConditionError, SolveError
from .hypotheses import SamplerConfig, audit
from .probfile import (SCHEMA_VERSION, dumps17, load_problem_file,
                       load_seeds_file, problem_to_dict)
from .solver import (DEFAULT_MAX_ITER, DEFAULT_TOL, ProblemSpec, solve, trace_to_csv,
                     uniqueness_probe)
from .spaces import product_metric_distance

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NOT_CONVERGED = 3

# distance at which a limit is considered to match a declared fixed point
DECLARED_MATCH_TOL = 1e-8


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 by default, which collides with the
    # hypothesis-failure code; usage problems are input errors (1).
    def error(self, message):
        raise _UsageError(message)


# argparse types: a bad value is a usage error (exit 1), not a traceback

def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _int_at_least(minimum: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text!r}")
        return value
    return parse


def _default_rng_seed() -> int:
    env = os.environ.get("FGFP_RNG_SEED", "").strip()
    if not env:
        return 0
    try:
        return _int_at_least(0)(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"FGFP_RNG_SEED: {exc}")


@functools.cache  # parse_args leaves the parser unchanged: one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fgfp",
                     description="Coupled fixed-point solver with sampled "
                                 "hypothesis audits and geometric bound checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_solve_flags=True):
        p.add_argument("--rng-seed", type=_int_at_least(0), default=None,
                       help="sampling seed (default: FGFP_RNG_SEED or 0)")
        p.add_argument("--samples", type=_int_at_least(1),
                       default=SamplerConfig.samples_per_check,
                       help="samples per hypothesis check (default %(default)s)")
        p.add_argument("--out", default=None,
                       help="write the report JSON here instead of stdout")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock milliseconds in the report "
                            "(breaks byte-for-byte determinism)")
        if with_solve_flags:
            p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL,
                           help="stopping tolerance on the step sum (default %(default)s)")
            p.add_argument("--max-iter", type=_int_at_least(1), default=DEFAULT_MAX_ITER,
                           help="iteration cap (default %(default)s)")

    p_solve = sub.add_parser("solve", help="audit, iterate and verify bounds")
    p_solve.add_argument("file", help="problem JSON file")
    add_common(p_solve)
    p_solve.add_argument("--trace", default=None,
                         help="write the iteration trace CSV here")
    p_solve.add_argument("--force", action="store_true",
                         help="solve even if the hypothesis audit fails")

    p_check = sub.add_parser("check", help="hypothesis audit only")
    p_check.add_argument("file", help="problem JSON file")
    add_common(p_check, with_solve_flags=False)

    p_corpus = sub.add_parser("corpus", help="built-in reference problems")
    corpus_sub = p_corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_sub.add_parser("list", help="print entry ids and descriptions")
    p_export = corpus_sub.add_parser("export", help="write an entry as a problem file")
    p_export.add_argument("id")
    p_export.add_argument("--out", default=None)
    p_runall = corpus_sub.add_parser("run-all", help="solve every entry")
    add_common(p_runall)

    p_unique = sub.add_parser("unique", help="probe uniqueness from extra seeds")
    p_unique.add_argument("file", help="problem JSON file")
    p_unique.add_argument("--seeds", required=True,
                          help="JSON file with extra seeds")
    add_common(p_unique)
    p_unique.add_argument("--force", action="store_true",
                          help="run from seeds that fail the launch condition")

    return parser


def _cfg(args) -> SamplerConfig:
    seed = args.rng_seed if args.rng_seed is not None else _default_rng_seed()
    return SamplerConfig(samples_per_check=args.samples, rng_seed=seed)


def _write_report(report: dict, out_path: str | None):
    text = dumps17(report) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _problem_summary(problem: ProblemSpec, source: str) -> dict:
    summary = {
        "source": source,
        "x_dim": problem.X.dim,
        "y_dim": problem.Y.dim,
        "F": problem.F.text,
        "G": problem.G.text,
        "family": problem.family.to_dict(),
        "seed": {"x0": list(problem.seed[0].coords),
                 "y0": list(problem.seed[1].coords)},
    }
    if problem.declared_fixed_point is not None:
        fx, fy = problem.declared_fixed_point
        summary["declared_fixed_point"] = [list(fx.coords), list(fy.coords)]
    return summary


def _start() -> tuple[int, float]:
    """Evaluation count and clock at the start of a command's work."""
    return maps_mod.evaluation_count(), time.monotonic()


def _timing(start: tuple[int, float], with_wall: bool) -> dict:
    evals0, t0 = start
    return {
        "map_evaluations": maps_mod.evaluation_count() - evals0,
        "wall_ms": (time.monotonic() - t0) * 1000.0 if with_wall else None,
    }


def _report(command: str, cfg: SamplerConfig, problem: ProblemSpec, source: str,
            start: tuple[int, float], with_wall: bool, hypotheses: dict | None = None,
            solve: dict | None = None, bounds: dict | None = None,
            uniqueness: dict | None = None) -> dict:
    """A command's report on one problem: nine keys in a fixed order, with
    timing for the work since ``start``."""
    return {"schema": SCHEMA_VERSION, "command": command, "rng_seed": cfg.rng_seed,
            "problem": _problem_summary(problem, source), "hypotheses": hypotheses,
            "solve": solve, "bounds": bounds, "uniqueness": uniqueness,
            "timing": _timing(start, with_wall)}


def _run_problem(problem: ProblemSpec, source: str, cfg: SamplerConfig,
                 tol: float, max_iter: int, force: bool,
                 trace_path: str | None, with_wall: bool) -> tuple[dict, int]:
    """solve-command semantics shared with corpus run-all."""
    start = _start()
    hyp = audit(problem.F, problem.G, problem.X, problem.Y, problem.family,
                problem.seed[0], problem.seed[1], cfg)
    if not hyp.passed and not force:
        return (_report("solve", cfg, problem, source, start, with_wall, hyp.to_dict()),
                EXIT_HYPOTHESIS)

    trace, result = solve(problem, tol=tol, max_iter=max_iter, force=force)
    solve_dict = result.to_dict()
    violations = solve_dict.pop("bound_violations")
    solve_dict["requested_tol"] = tol
    solve_dict["max_iter"] = max_iter
    solve_dict["monotone_all"] = all(trace.monotone_ok)
    solve_dict["range_warnings"] = list(trace.range_warnings)
    if problem.declared_fixed_point is not None:
        solve_dict["distance_to_declared"] = product_metric_distance(
            problem.X, problem.Y, (result.x_star, result.y_star),
            problem.declared_fixed_point)
    report = _report("solve", cfg, problem, source, start, with_wall, hyp.to_dict(),
                     solve_dict, {"checked_steps": max(len(trace.step_x) - 1, 0),
                                  "violations": violations})
    if trace_path:
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            trace_to_csv(trace, problem.X.dim, problem.Y.dim, fh)
    ok = result.converged and not violations
    return report, EXIT_OK if ok else EXIT_NOT_CONVERGED


def cmd_solve(args) -> int:
    problem, _ = load_problem_file(args.file)
    report, code = _run_problem(problem, args.file, _cfg(args), args.tol,
                                args.max_iter, args.force, args.trace,
                                args.timing)
    _write_report(report, args.out)
    return code


def cmd_check(args) -> int:
    problem, _ = load_problem_file(args.file)
    cfg = _cfg(args)
    start = _start()
    hyp = audit(problem.F, problem.G, problem.X, problem.Y, problem.family,
                problem.seed[0], problem.seed[1], cfg, with_estimates=True)
    _write_report(_report("check", cfg, problem, args.file, start, args.timing,
                          hyp.to_dict()), args.out)
    return EXIT_OK if hyp.passed else EXIT_HYPOTHESIS


def cmd_corpus(args) -> int:
    if args.corpus_command == "list":
        for entry in builtin_problems():
            sys.stdout.write(f"{entry.id}: {entry.citation}\n")
        return EXIT_OK
    if args.corpus_command == "export":
        try:
            entry = get_problem(args.id)
        except KeyError as exc:
            raise ProblemFileError(str(exc.args[0]))
        doc = problem_to_dict(entry.problem, expected_unique=entry.expected_unique)
        _write_report(doc, args.out)
        return EXIT_OK
    # run-all
    cfg = _cfg(args)
    start = _start()
    entries = sorted(builtin_problems(), key=lambda e: e.id)
    entry_reports = []
    all_ok = True
    for entry in entries:
        report, code = _run_problem(entry.problem, f"corpus:{entry.id}", cfg,
                                    args.tol, args.max_iter, force=False,
                                    trace_path=None, with_wall=False)
        matches = None
        if report["solve"] is not None:
            matches = report["solve"]["distance_to_declared"] <= DECLARED_MATCH_TOL
        ok = code == EXIT_OK and bool(matches)
        all_ok = all_ok and ok
        entry_reports.append({"id": entry.id, "passed": ok,
                              "matches_declared": matches, "report": report})
    combined = {
        "schema": SCHEMA_VERSION,
        "command": "corpus-run-all",
        "rng_seed": cfg.rng_seed,
        "all_passed": all_ok,
        "entries": entry_reports,
        "timing": _timing(start, args.timing),
    }
    _write_report(combined, args.out)
    return EXIT_OK if all_ok else EXIT_NOT_CONVERGED


def cmd_unique(args) -> int:
    problem, _ = load_problem_file(args.file)
    seeds = load_seeds_file(args.seeds)
    cfg = _cfg(args)
    start = _start()
    probe = uniqueness_probe(problem, seeds, tol=args.tol,
                             max_iter=args.max_iter,
                             force_seeds=args.force)
    _write_report(_report("unique", cfg, problem, args.file, start, args.timing,
                          uniqueness=probe.to_dict()), args.out)
    return EXIT_OK if probe.passed else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "corpus":
            return cmd_corpus(args)
        return cmd_unique(args)
    except _UsageError as exc:
        sys.stderr.write(f"fgfp: error: {exc}\n")
        return EXIT_INPUT
    except SeedConditionError as exc:
        sys.stderr.write(f"fgfp: hypothesis failure: {exc}\n")
        return EXIT_HYPOTHESIS
    except SolveError as exc:
        sys.stderr.write(f"fgfp: solve failed: {exc}\n")
        return EXIT_NOT_CONVERGED
    except (FgfpError, OSError) as exc:
        sys.stderr.write(f"fgfp: error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
