"""Built-in reference problems with known fixed points.

Five small 1-d problems, one per contraction family plus a symmetric
regression case (X = Y, F = G).  Each entry is a problem document in the
problem-file schema (see ``probfile``) that ships a seed satisfying the
launch condition, the declared fixed point and the uniqueness flag under
``expected``, so the full pipeline (audit, solve, bound verification,
uniqueness probe) can run end to end.  The documents are read by
``parse_problem_dict``, the loader every problem file goes through, once
per process.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .probfile import parse_problem_dict
from .solver import ProblemSpec


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    problem: ProblemSpec
    citation: str
    expected_unique: bool


# (id, citation, problem document), in definition order
_DOCUMENTS = (
    ("ex1",
     "averaging pair (x-y)/3, (y-x)/5 on (-inf,0] x [0,inf); "
     "symmetric-half constants (2/3, 2/5)",
     {"spaces": {"X": {"dim": 1, "lower": ["-inf"], "upper": [0]},  # samples [-10, 0]
                 "Y": {"dim": 1, "lower": [0], "upper": ["inf"]}},  # samples [0, 10]
      "maps": {"F": "(a1 - b1)/3", "G": "(a1 - b1)/5"},
      "family": {"kind": "SYM_HALF", "k": 2 / 3, "l": 2 / 5},
      "seed": {"x0": [-1], "y0": [1]},
      "expected": {"fixed_point": [[0], [0]], "unique": True}}),
    ("ex2",
     "mirrored linear pair (4x-3y)/17 on (-inf,0] x [0,inf); "
     "linear-asymmetric constants (4/17, 3/17)",
     {"spaces": {"X": {"dim": 1, "lower": ["-inf"], "upper": [0]},
                 "Y": {"dim": 1, "lower": [0], "upper": ["inf"]}},
      "maps": {"F": "(4*a1 - 3*b1)/17", "G": "(4*a1 - 3*b1)/17"},
      "family": {"kind": "LIN_ASYM", "k": 4 / 17, "l": 3 / 17},
      "seed": {"x0": [-1], "y0": [1]},
      "expected": {"fixed_point": [[0], [0]], "unique": True}}),
    ("ex3",
     "affine shifts x/4+1 on [1,2], y/4-1 on [-2,-1]; "
     "self-displacement constants (1/3, 1/2)",
     {"spaces": {"X": {"dim": 1, "lower": [1], "upper": [2]},
                 "Y": {"dim": 1, "lower": [-2], "upper": [-1]}},
      "maps": {"F": "a1/4 + 1", "G": "a1/4 - 1"},
      "family": {"kind": "KANNAN", "k": 1 / 3, "l": 1 / 2},
      "seed": {"x0": [1], "y0": [-1]},
      # only existence is asserted for this entry (the map happens to be
      # affine, so a probe may still agree on one limit)
      "expected": {"fixed_point": [[4 / 3], [-4 / 3]], "unique": False}}),
    ("ex4",
     "x/3, -x/3 on [0,1] x [-1,0] under discrete orders with the "
     "single extra relation -1 <= 0; cross-displacement constants (1/4, 1/4)",
     {"spaces": {"X": {"dim": 1, "lower": [0], "upper": [1],
                       "order": {"kind": "DISCRETE"}},
                 "Y": {"dim": 1, "lower": [-1], "upper": [0],
                       "order": {"kind": "DISCRETE_PLUS_PAIRS",
                                 "extra_pairs": [[[-1], [0]]]}}},
      "maps": {"F": "a1/3", "G": "-b1/3"},
      "family": {"kind": "CHATTERJEA", "k": 0.25, "l": 0.25},
      "seed": {"x0": [0], "y0": [0]},
      "expected": {"fixed_point": [[0], [0]], "unique": True}}),
    ("coupled-reg",
     "symmetric regression case X = Y, F = G = (x-y)/4 on [-5,5]; "
     "symmetric-half constants (1/2, 1/2)",
     {"spaces": {"X": {"dim": 1, "lower": [-5], "upper": [5]},
                 "Y": {"dim": 1, "lower": [-5], "upper": [5]}},
      "maps": {"F": "(a1 - b1)/4", "G": "(a1 - b1)/4"},
      "family": {"kind": "SYM_HALF", "k": 0.5, "l": 0.5},
      "seed": {"x0": [-1], "y0": [1]},
      "expected": {"fixed_point": [[0], [0]], "unique": True}}),
)


@functools.cache
def _entries() -> tuple[CorpusEntry, ...]:
    entries = []
    for entry_id, citation, doc in _DOCUMENTS:
        problem, expected = parse_problem_dict(doc, where=f"corpus:{entry_id}")
        entries.append(CorpusEntry(entry_id, problem, citation, expected["unique"]))
    return tuple(entries)


def builtin_problems() -> list[CorpusEntry]:
    """The five built-in entries, in definition order."""
    return list(_entries())


def get_problem(entry_id: str) -> CorpusEntry:
    for entry in _entries():
        if entry.id == entry_id:
            return entry
    known = ", ".join(e.id for e in _entries())
    raise KeyError(f"unknown corpus entry {entry_id!r} (known: {known})")
