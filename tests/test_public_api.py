"""The package's public surface: ``fgfp.__all__`` and the removed helpers."""

import pytest

import fgfp
from fgfp import solver, spaces


def test_every_public_name_resolves_and_is_listed_once():
    assert len(fgfp.__all__) == len(set(fgfp.__all__))
    missing = [name for name in fgfp.__all__ if not hasattr(fgfp, name)]
    assert missing == []


@pytest.mark.parametrize("owner, name", [
    (fgfp, "verify_trace_bounds"),
    (solver, "verify_trace_bounds"),
    (solver, "_distances"),
    (solver.IterationTrace, "points"),
    (spaces, "sample_ordered_pairs"),
    (spaces.SpaceSpec, "weights_array"),
], ids=lambda v: getattr(v, "__name__", v))
def test_removed_helpers_stay_gone(owner, name):
    assert not hasattr(owner, name)
