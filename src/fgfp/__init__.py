"""Coupled fixed-point iteration on partially ordered metric spaces.

Given F: X x Y -> X and G: Y x X -> Y, the package finds pairs with
F(x, y) = x and G(y, x) = y by the monotone coupled iteration, audits the
operating assumptions by deterministic sampling, and checks the observed
convergence against the geometric envelopes of four contraction families.
"""

from .corpus import CorpusEntry, builtin_problems, get_problem
from .errors import (DimensionMismatch, DomainError, EvaluationError,
                     ExpressionError, FgfpError, ProblemFileError, SampleError,
                     SeedConditionError, SolveError)
from .hypotheses import (ContractionFamily, FamilyKind, HypothesisReport,
                         SamplerConfig, audit, check_comparability, check_seed)
from .maps import MapSpec, eval_map, eval_map_batch, iterate_pair, parse_map
from .solver import (FGFixedPointResult, IterationTrace, ProblemSpec,
                     UniquenessReport, solve, step_bound, tail_bound,
                     trace_to_csv, uniqueness_probe)
from .spaces import (MetricKind, MetricSpec, OrderKind, OrderSpec, Point,
                     SpaceSpec, box_space, leq, point, product_leq)

__version__ = "0.1.0"

__all__ = [
    "CorpusEntry", "builtin_problems", "get_problem",
    "DimensionMismatch", "DomainError", "EvaluationError", "ExpressionError",
    "FgfpError", "ProblemFileError", "SampleError", "SeedConditionError",
    "SolveError",
    "ContractionFamily", "FamilyKind", "HypothesisReport", "SamplerConfig",
    "audit", "check_comparability", "check_seed",
    "MapSpec", "eval_map", "eval_map_batch", "iterate_pair", "parse_map",
    "FGFixedPointResult", "IterationTrace", "ProblemSpec", "UniquenessReport",
    "solve", "step_bound", "tail_bound", "trace_to_csv", "uniqueness_probe",
    "MetricKind", "MetricSpec", "OrderKind", "OrderSpec", "Point", "SpaceSpec",
    "box_space", "leq", "point", "product_leq",
    "__version__",
]
