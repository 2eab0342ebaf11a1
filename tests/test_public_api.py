"""The package's public surface: ``fgfp.__all__`` and the removed helpers."""

import pytest

import fgfp
from fgfp import hypotheses, solver, spaces


def test_every_public_name_resolves_and_is_listed_once():
    assert len(fgfp.__all__) == len(set(fgfp.__all__))
    missing = [name for name in fgfp.__all__ if not hasattr(fgfp, name)]
    assert missing == []


@pytest.mark.parametrize("owner, name", [
    (fgfp, "verify_trace_bounds"),
    (fgfp, "check_contraction"),
    (fgfp, "check_mixed_monotone"),
    (fgfp, "estimate_constants"),
    (hypotheses, "check_contraction"),
    (hypotheses, "check_mixed_monotone"),
    (hypotheses, "estimate_constants"),
    (hypotheses, "_Checks"),
    (solver, "verify_trace_bounds"),
    (solver, "_distances"),
    (hypotheses, "_Draws"),
    (hypotheses, "_blocks"),
    (hypotheses, "_whole_batch_error"),
    (hypotheses, "_rows"),
    (hypotheses, "_by_block"),
    (hypotheses, "_sample"),
    (hypotheses, "_ContractionData"),
    (hypotheses, "_sampled_checks"),
    (solver.IterationTrace, "points"),
    (spaces, "sample_ordered_pairs"),
    (spaces, "common_bounds_batch"),
    (spaces.SpaceSpec, "weights_array"),
], ids=lambda v: getattr(v, "__name__", v))
def test_removed_helpers_stay_gone(owner, name):
    assert not hasattr(owner, name)
