"""The family table against the closed forms it replaced, bit for bit.

Each reference below spells one family's formula out in the float
operation order of the per-family code that the table replaced, so any
change of rounding in ``step_bound``, ``tail_bound``, the contraction
right-hand sides or the constant estimates fails with ``==``.  The
contraction references are built from a sample's points and fresh map
images, not from the sample's own columns.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fgfp import ContractionFamily, FamilyKind, SamplerConfig, step_bound, tail_bound
from fgfp.hypotheses import RATIO_FLOOR, _Block, _contraction_terms, _min_sum_constants
from fgfp.maps import eval_map_batch
from fgfp.spaces import distance_batch, ordered_pairs, sample_points

from sampled_audit import estimated

SYM, LIN, KAN, CHA = (FamilyKind.SYM_HALF, FamilyKind.LIN_ASYM,
                      FamilyKind.KANNAN, FamilyKind.CHATTERJEA)
BELOW_HALF = math.nextafter(0.5, 0.0)
BELOW_ONE = math.nextafter(1.0, 0.0)


def largest_admissible_l(kind, k):
    l = 1.0 - k
    while True:
        try:
            return ContractionFamily(kind, k, l)
        except ValueError:
            l = math.nextafter(l, 0.0)


EDGES = [
    ContractionFamily(SYM, BELOW_ONE, BELOW_ONE),
    largest_admissible_l(LIN, 0.5),
    largest_admissible_l(KAN, 1.0 / 3.0),
    largest_admissible_l(KAN, 1e-17),
    ContractionFamily(CHA, BELOW_HALF, BELOW_HALF),
    ContractionFamily(CHA, 0.1, BELOW_HALF),
]
FAMILIES = EDGES + [
    ContractionFamily(SYM, 2.0 / 3.0, 2.0 / 5.0),
    ContractionFamily(SYM, 0.0, 0.7),
    ContractionFamily(LIN, 4.0 / 17.0, 3.0 / 17.0),
    ContractionFamily(LIN, 0.0, 0.0),
    ContractionFamily(KAN, 1.0 / 3.0, 1.0 / 2.0),
    ContractionFamily(KAN, 0.9, 0.0),
    ContractionFamily(CHA, 0.25, 0.25),
]
STEPS = (1, 2, 7, 40)
BASES = [(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (1.0 / 3.0, 3.0 / 5.0),
         (1e-300, 2.5), (123.456, 1e-9)]


def ref_step_bound(family, n, d1x, d1y):
    k, l = family.k, family.l
    if family.kind is SYM:
        theta = (k + l) / 2.0
        base = theta ** (n - 1) * (d1x + d1y)
        return 0.5 * k * base, 0.5 * l * base
    if family.kind is LIN:
        b = (k + l) ** n * (d1x + d1y)
        return b, b
    if family.kind is KAN:
        return (l / (1.0 - k)) ** n * d1x, (k / (1.0 - l)) ** n * d1y
    return (l / (1.0 - l)) ** n * d1x, (k / (1.0 - k)) ** n * d1y


def ref_tail_bound(family, n, d1x, d1y, component):
    k, l = family.k, family.l
    if family.kind is SYM:
        theta = (k + l) / 2.0
        coeff = 0.5 * (k if component == "x" else l)
        return coeff * theta ** (n - 1) / (1.0 - theta) * (d1x + d1y)
    if family.kind is LIN:
        delta = k + l
        return delta ** n / (1.0 - delta) * (d1x + d1y)
    if family.kind is KAN:
        delta = l / (1.0 - k) if component == "x" else k / (1.0 - l)
    else:
        delta = l / (1.0 - l) if component == "x" else k / (1.0 - k)
    base = d1x if component == "x" else d1y
    return delta ** n / (1.0 - delta) * base


def whole_sample(p, cfg):
    """The audit's sample, drawn whole from one ``cfg.rng()``: X pairs, Y
    pairs, Y contexts, X contexts."""
    rng, n = cfg.rng(), cfg.samples_per_check
    return _Block(slice(0, n), *ordered_pairs(p.X, n, rng), *ordered_pairs(p.Y, n, rng),
                  sample_points(p.Y, n, rng), sample_points(p.X, n, rng))


def ref_distances(p, s):
    """Every distance term of the four families at the pairs of sample ``s``,
    with x = x_hi, u = x_lo, y = y_lo, v = y_hi on the F side."""
    X, Y = p.X, p.Y
    F_xy = eval_map_batch(p.F, s.x_hi, s.y_lo)
    F_uv = eval_map_batch(p.F, s.x_lo, s.y_hi)
    G_yx = eval_map_batch(p.G, s.y_hi, s.x_lo)
    G_vu = eval_map_batch(p.G, s.y_lo, s.x_hi)
    return SimpleNamespace(
        dx=distance_batch(X, s.x_hi, s.x_lo),
        dy=distance_batch(Y, s.y_hi, s.y_lo),
        lhs_f=distance_batch(X, F_xy, F_uv),
        lhs_g=distance_batch(Y, G_yx, G_vu),
        f_disp_hi=distance_batch(X, s.x_hi, F_xy),
        f_disp_lo=distance_batch(X, s.x_lo, F_uv),
        g_disp_hi=distance_batch(Y, s.y_hi, G_yx),
        g_disp_lo=distance_batch(Y, s.y_lo, G_vu),
        f_cross_hi=distance_batch(X, s.x_hi, F_uv),
        f_cross_lo=distance_batch(X, s.x_lo, F_xy),
        g_cross_hi=distance_batch(Y, s.y_hi, G_vu),
        g_cross_lo=distance_batch(Y, s.y_lo, G_yx))


def ref_rhs(family, d):
    k, l = family.k, family.l
    if family.kind is SYM:
        s = d.dx + d.dy
        return 0.5 * k * s, 0.5 * l * s
    if family.kind is LIN:
        return k * d.dx + l * d.dy, k * d.dy + l * d.dx
    if family.kind is KAN:
        return (k * d.f_disp_hi + l * d.f_disp_lo,
                k * d.g_disp_hi + l * d.g_disp_lo)
    return (k * d.f_cross_hi + l * d.f_cross_lo,
            k * d.g_cross_hi + l * d.g_cross_lo)


def ref_constraint_columns(kind, d):
    if kind is LIN:
        return np.concatenate([d.dx, d.dy]), np.concatenate([d.dy, d.dx])
    if kind is KAN:
        return (np.concatenate([d.f_disp_hi, d.g_disp_hi]),
                np.concatenate([d.f_disp_lo, d.g_disp_lo]))
    return (np.concatenate([d.f_cross_hi, d.g_cross_hi]),
            np.concatenate([d.f_cross_lo, d.g_cross_lo]))


def test_edge_families_sit_on_the_boundary():
    for family in EDGES:
        with pytest.raises(ValueError):
            ContractionFamily(family.kind, family.k, math.nextafter(family.l, 1.0))


def family_id(family):
    return f"{family.kind.value}-{family.k!r}-{family.l!r}"


@pytest.mark.parametrize("family", FAMILIES, ids=family_id)
def test_step_and_tail_bounds_match_closed_forms(family):
    for n in STEPS:
        for d1x, d1y in BASES:
            assert step_bound(family, n, d1x, d1y) == ref_step_bound(family, n, d1x, d1y)
            for component in ("x", "y"):
                assert (tail_bound(family, n, d1x, d1y, component)
                        == ref_tail_bound(family, n, d1x, d1y, component))


@pytest.mark.parametrize("family", FAMILIES, ids=family_id)
def test_contraction_rhs_matches_closed_form(corpus, family):
    # ex4's discrete orders give equal pairs, so zero distances, on even rows
    p = corpus["ex4"].problem
    s = whole_sample(p, SamplerConfig(64, rng_seed=5))
    (f, g), _ = _contraction_terms(p.F, p.G, p.X, p.Y, family.kind, s)
    d = ref_distances(p, s)
    assert not (d.dx + d.dy)[::2].any() and (d.dx + d.dy)[1::2].all()
    assert np.array_equal(f[2], d.lhs_f) and np.array_equal(g[2], d.lhs_g)
    # the audit's right sides are k*p + l*q
    for (p_col, q_col, _), want in zip((f, g), ref_rhs(family, d)):
        assert np.array_equal(family.k * p_col + family.l * q_col, want)


@pytest.mark.parametrize("eid", ["ex1", "ex2", "ex3", "ex4"])
@pytest.mark.parametrize("kind", [SYM, LIN, KAN, CHA])
def test_estimated_constants_use_the_family_columns(corpus, eid, kind):
    p = corpus[eid].problem
    cfg = SamplerConfig(samples_per_check=300, rng_seed=2)
    d = ref_distances(p, whole_sample(p, cfg))
    if kind is SYM:
        # the two independent maxima over the rows with a usable sum
        s = d.dx + d.dy
        usable = s >= RATIO_FLOOR
        want = (float((2.0 * d.lhs_f[usable] / s[usable]).max()),
                float((2.0 * d.lhs_g[usable] / s[usable]).max()))
    else:
        p_col, q_col = ref_constraint_columns(kind, d)
        want = _min_sum_constants(p_col, q_col, np.concatenate([d.lhs_f, d.lhs_g]))
    assert estimated(p.F, p.G, p.X, p.Y, kind, cfg) == want
