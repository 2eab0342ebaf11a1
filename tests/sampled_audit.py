"""``fgfp.audit`` for tests that read only its sampled sections."""

from fgfp import ContractionFamily, FamilyKind, audit, point

# a family for tests that read no contraction verdict
ANY_FAMILY = ContractionFamily(FamilyKind.LIN_ASYM, 0.0, 0.0)


def corner_audit(F, G, X, Y, cfg, family=ANY_FAMILY, with_estimates=False):
    """``audit`` seeded at the lower corners of the sampling boxes; the
    sampled sections do not read the seed."""
    x0, y0 = (point(*S.sampling_box[0]) for S in (X, Y))
    return audit(F, G, X, Y, family, x0, y0, cfg, with_estimates)


def estimated(F, G, X, Y, kind, cfg):
    """The (k, l) that the audit estimates for ``kind``; k = l = 0 is
    admissible for every kind."""
    rep = corner_audit(F, G, X, Y, cfg, ContractionFamily(kind, 0.0, 0.0), with_estimates=True)
    return rep.estimated_constants["k"], rep.estimated_constants["l"]
