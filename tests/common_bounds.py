"""The per-pair reference for ``hypotheses.check_comparability``, which
decides the whole box from the orders alone."""

import numpy as np

from fgfp.spaces import leq_batch


def common_bounds_batch(space, A, B):
    """Rowwise: do A and B have both a common lower and a common upper bound?

    Under a componentwise order the rowwise min and max are such bounds in
    the box.  Under a discrete order (points within the slack are equal)
    they exist iff A and B are comparable; a bound through a third listed
    point of DISCRETE_PLUS_PAIRS is not searched, as it needs both rows
    within the slack of listed points.
    """
    if space.order.componentwise:
        return np.ones(len(A), dtype=bool)
    return leq_batch(space, A, B) | leq_batch(space, B, A)
