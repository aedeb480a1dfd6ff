"""The embedding residuals one case at a time: the tests' oracle for the
misfit sets of `grassmap.localization._edge_misfits` and `_point_misfits`.

A residual is an embedded family minus its lifted family minus its surplus
piece, at one slot m and one mode, built as a `Counter` and tested for
emptiness.  Every family is read through the `grassmap.weights` module at
call time, so a test that patches one there patches it here too.
"""

from collections import Counter

import grassmap.weights as weights


def edge_embeds_exactly(shared, b_u, b_v, deg, n, m, mode):
    """Is the edge's residual r_e empty, and its domain character the same int
    before and after the embedding?"""
    up = (weights._embed_label(shared, m, mode), weights._shift(b_u, m), weights._shift(b_v, m))
    residual = Counter(weights._edge_h0_ints(*up, deg, n + 1))
    residual.subtract(weights._lift(w, m) for w in weights._edge_h0_ints(shared, b_u, b_v, deg, n))
    residual.subtract(weights._edge_surplus_ints(shared, b_u, b_v, deg, n, m, mode))
    omega = weights._domain_tangent_int(n, deg, b_u, b_v)
    return not any(residual.values()) and (
        weights._domain_tangent_int(n + 1, deg, up[1], up[2]) == weights._lift(omega, m)
    )


def point_embeds_exactly(label, n, m, mode):
    """Is the vertex residual r_v empty: the embedded label's Grassmannian
    tangent minus the lifted one minus its surplus piece?"""
    residual = Counter(weights._point_tangent_ints(weights._embed_label(label, m, mode), n + 1))
    residual.subtract(weights._lift(w, m) for w in weights._point_tangent_ints(label, n))
    residual.subtract(weights._point_surplus_ints(label, n, m, mode))
    return not any(residual.values())
