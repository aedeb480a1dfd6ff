"""The localization sums as they were first written: the oracles for
`grassmap.localization`'s sums of local terms.

`positive_counts` is the sum of `_positive_counts` with `Counter`s: each leg
materializes its edge's section weights (`_edge_h0_ints`, unmemoized here) to
count the positive ones, and each shape is summed term by term.
`tangent_sign_counts` counts one tree's assembled tangent, and
`stratum_family_contribution` sums it over the degree-2 trees a tree
predicate selects (`TREE_PREDICATES`, by the names of `FAMILIES`): the
oracle of `family_sum`.
"""

import itertools
import math
from collections import Counter

from grassmap.fixedgraphs import _label_frame, _neighbor_labels, fixed_graphs, topology
from grassmap.localization import _checked_int_counts, _int_tangent
from grassmap.qpoly import QPolynomial
from grassmap.weights import WeightConsistencyError, _domain_tangent_int, _edge_h0_ints, _point_tangent_ints


def tangent_sign_counts(tree):
    """(positive, negative) tangent weight counts at a fixed tree, checked."""
    return _checked_int_counts(tree, _int_tangent(tree))


def legs(c, n, deg):
    """(l, E, omega) per fixed line c - l covered with degree deg: E counts its
    positive section weights, omega is its domain tangent at c (-omega at l)."""
    out = []
    for other in _neighbor_labels(c, n):
        shared, drop, add = _label_frame(c, other)
        e = sum(w > 0 for w in _edge_h0_ints.__wrapped__(shared, drop, add, deg, n))
        out.append((other, e, _domain_tangent_int(n, deg, drop, add)))
    return out


def positive_counts(k, n, d):
    """Fixed trees per positive count, each shape summed from local terms.

    A leg c - l (E and omega from `legs`) ending in a leaf l adds a = E -
    [omega < 0]; T(c) counts the positive tangent directions of G(k, n) at c.

      edge_d   E - 1 per pair of adjacent labels;
      path     a1 + a2 + [omega1 + omega2 > 0] - T(c) per unordered pair of unit legs;
      path12   the same per (unit leg, degree-2 leg);
      star     a + [omega > 0] summed over three unit legs, - 2 T(c); a multiset of
               leg values stands for prod C(mult + r - 1, r) multisets of legs;
      path111  per ordered middle edge (c1, c2), E(c1, c2) - T(c1) - T(c2) plus
               a + [omega + omega(c1 -> c2) > 0] at each end; halved, since each
               path is seen from both middle ends.
    """
    labels = list(itertools.combinations(range(1, n + 1), k))
    counts = Counter(e - 1 for c in labels for other, e, _ in legs(c, n, d) if c < other)
    if d == 1:
        return counts
    tops = {c: sum(w > 0 for w in _point_tangent_ints(c, n)) for c in labels}
    unit = {c: legs(c, n, 1) for c in labels}
    leaves = {c: [(e - (w < 0), w) for _, e, w in unit[c]] for c in labels}
    for c, t in tops.items():
        ends = leaves[c]
        if d == 2:
            for i, (a1, w1) in enumerate(ends):
                counts.update(a1 + a2 + (w1 + w2 > 0) - t for a2, w2 in ends[i:])
            continue
        for _, e, w2 in legs(c, n, 2):
            counts.update(a1 + e - (w2 < 0) + (w1 + w2 > 0) - t for a1, w1 in ends)
        values = Counter(a + (w > 0) for a, w in ends)
        for combo in itertools.combinations_with_replacement(sorted(values), 3):
            mult = math.prod(math.comb(values[v] + r - 1, r) for v, r in Counter(combo).items())
            counts[sum(combo) - 2 * t] += mult
    if d == 3:
        ends = {(c, other): Counter(a + (w + w_mid > 0) for a, w in leaves[c])
                for c in labels for other, _, w_mid in unit[c]}
        doubled: Counter = Counter()
        for c1 in labels:
            for c2, e, _ in unit[c1]:
                shift = e - tops[c1] - tops[c2]
                for x, cx in ends[c1, c2].items():
                    for y, cy in ends[c2, c1].items():
                        doubled[x + y + shift] += cx * cy
        for p, twice in doubled.items():
            if twice % 2:
                raise WeightConsistencyError(f"three-edge paths at q^{p} in ({k},{n},3) counted "
                                             f"from both middle ends: {twice}, an odd number")
            counts[p] += twice // 2
    return counts


def two_unit_path_legs(tree):
    """For a two-edge unit-degree path: (leaf, dropped, added) per leg, else None."""
    shape, valences, _ = topology(tree.edges)
    if shape != "path":
        return None
    center = valences.index(2)
    legs = []
    for edge in tree.edges:
        leaf = edge.v if edge.u == center else edge.u
        _, dropped, added = _label_frame(tree.vertices[center], tree.vertices[leaf])
        legs.append((leaf, dropped, added))
    return legs


def is_triangle_config(tree):
    """Two unit edges dropping *different* elements, adding the same one,
    with the added element larger than both dropped ones: the family whose
    minimal stratum is the triangle of fixed lines in G(2, 3)."""
    legs = two_unit_path_legs(tree)
    if legs is None:
        return False
    (_, drop1, add1), (_, drop2, add2) = legs
    return drop1 != drop2 and add1 == add2 and add1 > max(drop1, drop2)


def is_repeated_leaf_config(tree):
    """Two unit edges to the *same* leaf label, dropped element smaller than
    the added one: the family whose minimal stratum is a doubled line in
    G(1, 2)."""
    legs = two_unit_path_legs(tree)
    if legs is None:
        return False
    (leaf1, drop1, add1), (leaf2, _, _) = legs
    return tree.vertices[leaf1] == tree.vertices[leaf2] and drop1 < add1


TREE_PREDICATES = {"triangle": is_triangle_config, "repeated-leaf": is_repeated_leaf_config}


def stratum_family_contribution(k, n, predicate):
    """q^(positive count) summed over the degree-2 trees `predicate` selects,
    tree by tree."""
    counts = Counter()
    for tree in fixed_graphs(k, n, 2):
        if predicate(tree):
            counts[tangent_sign_counts(tree)[0]] += 1
    return QPolynomial(dict(counts))
