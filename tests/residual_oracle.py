"""The embedding check one case at a time: the tests' oracle for
`grassmap.embedding.failed_cases` and its misfit sets.

`embedding_cross_check` pushes a tree into the next Grassmannian up
(`embed_tree`), assembles the tangent there and compares it with the lifted
tangent plus the surplus, at one slot m and one mode.  `edge_embeds_exactly`
and `point_embeds_exactly` check one residual, an embedded family minus its
lifted family minus its surplus piece, built as a `Counter` and tested for
emptiness, the oracle of `_edge_misfits` and `_point_misfits`.

Every piece of the check (the lift, the label map, each family and surplus
piece) is read through `grassmap.embedding`, and the tangent and its checks
through `grassmap.localization`, at call time, so a test that patches one
there patches it here too.
"""

from collections import Counter
from itertools import chain

import grassmap.embedding as embedding
import grassmap.localization as loc
from grassmap.weights import WeightConsistencyError


def valences(tree):
    """Each vertex's valence, counted here rather than read from `fixedgraphs.topology`."""
    ends = Counter(end for e in tree.edges for end in (e.u, e.v))
    return tuple(ends[i] for i in range(len(tree.vertices)))


def edge_frame(tree, edge):
    """(shared (k-1)-set, element only in u's label, element only in v's) of a tree's edge."""
    return embedding._label_frame(tree.vertices[edge.u], tree.vertices[edge.v])


def embed_tree(tree, m, mode):
    """Push a fixed tree into the next Grassmannian up.

    The ambient coordinate set grows from {1..n} to {1..n+1}, the new
    coordinate taking slot m (existing indices at or above m shift up by
    one).  Mode "iota" keeps every label as it was; mode "kappa" adjoins the
    new coordinate to every label, raising k by one.
    """
    n = tree.n
    if not 1 <= m <= n + 1:
        raise ValueError(f"new coordinate slot {m} outside 1..{n + 1}")
    if mode not in ("iota", "kappa"):
        raise ValueError(f"unknown embedding mode {mode!r}")
    verts = tuple(embedding._embed_label(lab, m, mode) for lab in tree.vertices)
    return tree._replace(k=tree.k + (mode == "kappa"), n=n + 1, vertices=verts)


def _embedding_delta_ints(tree, m, mode):
    """The tangent-weight surplus of the tree embedded at slot m, as signed multiplicities.

    Computed in the n+1 characters of the embedded tree: per edge, its piece
    `_edge_surplus_ints`; per vertex of valence v >= 2, minus v-1 copies of
    its piece `_point_surplus_ints`.  So that

        tangent(embed_tree(tree, m, mode)) == tangent(tree) lifted to slot m + surplus.

    Moving each weight's digit n+1 down to slot m, and digits m..n up one,
    maps the surplus at slot n+1 onto the one at slot m.  That rotation fixes
    only 0, so it keeps the zero count, every multiplicity and the size, and
    `failed_cases` checks them at slot n+1 only.
    """
    n = tree.n
    delta = Counter(chain.from_iterable(
        embedding._edge_surplus_ints(*edge_frame(tree, edge), edge.deg, n, m, mode) for edge in tree.edges
    ))
    for label, v in zip(tree.vertices, valences(tree)):
        if v >= 2:
            for w in embedding._point_surplus_ints(label, n, m, mode):
                delta[w] -= v - 1
    return delta


def embedding_cross_check(tree, m, mode):
    """Does tangent(embed_tree(tree, m, mode)) equal the lifted tangent of the
    tree plus the surplus?

    Both tangents are assembled in full and pass the checks of
    `tangent_sign_counts`; the lift reads the base tangent through
    `_lift`, and a negative surplus raises WeightConsistencyError.
    """
    embedded = embed_tree(tree, m, mode)
    direct = loc._int_tangent(embedded)
    loc._checked_int_counts(embedded, direct)
    lifted = Counter({embedding._lift(w, m): mult for w, mult in loc._int_tangent(tree).items()})
    loc._checked_int_counts(tree, lifted)
    surplus = _embedding_delta_ints(tree, m, mode)
    if any(mult < 0 for mult in surplus.values()):
        raise WeightConsistencyError(f"embedding surplus went negative for m={m}, mode={mode}")
    lifted.update(surplus)
    return direct == lifted  # a Counter compares missing entries as 0


def edge_embeds_exactly(shared, b_u, b_v, deg, n, m, mode):
    """Is the edge's residual r_e empty, and its domain character the same int
    before and after the embedding?"""
    up = (embedding._embed_label(shared, m, mode), embedding._shift(b_u, m), embedding._shift(b_v, m))
    residual = Counter(embedding._edge_h0_ints(*up, deg, n + 1))
    residual.subtract(embedding._lift(w, m) for w in embedding._edge_h0_ints(shared, b_u, b_v, deg, n))
    residual.subtract(embedding._edge_surplus_ints(shared, b_u, b_v, deg, n, m, mode))
    omega = embedding._domain_tangent_int(n, deg, b_u, b_v)
    return not any(residual.values()) and (
        embedding._domain_tangent_int(n + 1, deg, up[1], up[2]) == embedding._lift(omega, m)
    )


def point_embeds_exactly(label, n, m, mode):
    """Is the vertex residual r_v empty: the embedded label's Grassmannian
    tangent minus the lifted one minus its surplus piece?"""
    residual = Counter(embedding._point_tangent_ints(embedding._embed_label(label, m, mode), n + 1))
    residual.subtract(embedding._lift(w, m) for w in embedding._point_tangent_ints(label, n))
    residual.subtract(embedding._point_surplus_ints(label, n, m, mode))
    return not any(residual.values())
