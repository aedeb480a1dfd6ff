"""Tangent weights at torus-fixed stable maps, and Betti numbers from them.

The moduli space of genus-0 degree-d stable maps to G(k, n) carries the
torus action inherited from the target.  Its fixed points are the decorated
trees of `fixedgraphs`, and they are isolated, so the space decomposes into
affine cells, one per fixed point, with the cell dimension equal to the
number of *positive* tangent weights there.  Summing q^(positive count)
over the fixed points therefore gives the Poincare polynomial in q = (even
cohomological degree) / 2; odd cohomology vanishes.

The tangent weight multiset at a fixed tree assembles as follows.

  added    per edge: the section weights of the restricted tangent bundle
           along the covered line (weights._edge_h0_ints);
  added    per valence-2 vertex: one node-smoothing weight, the sum of the
           two domain tangent characters meeting at the node;
  added    per valence-3 vertex: the three domain tangent characters at the
           point of the contracted component (its own smoothing weights);
  removed  per vertex of valence v >= 2: (v-1) copies of the target's
           tangent weights at that vertex's fixed point -- sections over
           the components were counted once per component, but glue to a
           single value at the shared point;
  removed  per edge: the reparametrization symmetries of its component --
           always the zero weight (scaling), plus the domain tangent
           character at each end of the edge *not* meeting a node.

Every zero introduced by the edge section weights is cancelled exactly by
a reparametrization zero; nothing else may cancel below multiplicity 0.
Both facts are enforced, so a miscounted family would abort loudly rather
than skew a Betti number.

`_int_tangent` assembles the multiset from the int-encoded families of
`weights`, and `_checked_int_counts` runs the checks.  On them rest
`tangent_sign_counts`, for the sub-family sums and as the tests' oracle for
the localization sum, and `fixed_point_report`, which decodes the weights for
`grassmap betti --reports`; the embedding check (`grassmap.embedding`)
calls them only to name the fault in a tangent it does not certify.
`poincare_localization` builds no trees: each family enters with a fixed
multiplicity, so a tree's positive count is a sum of local terms, and
`_positive_counts` sums each tree shape from tables of them, under three
checks of its own (three-edge path parity, exponents in 0..dim, the census
total); the tests hold it to the per-tree sum.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cache
from typing import Callable

from .fixedgraphs import DecoratedTree, _label_frame, _neighbor_labels, census_formula, fixed_graphs, topology
from .qpoly import QPolynomial
from .weights import (
    WEIGHT_SCALE,
    WeightConsistencyError,
    _digits,
    _domain_tangent_int,
    _edge_h0_ints,
    _point_tangent_ints,
)


def moduli_dimension(k: int, n: int, d: int) -> int:
    """Dimension k(n-k) + d*n - 3 of the degree-d stable-map space."""
    return k * (n - k) + d * n - 3


def sound_row(k: int, n: int, d: int, row: list[int]) -> bool:
    """Is `row` a sound Betti row of the cell: dim+1 non-negative entries,
    palindromic, starting with 1, summing to `census_formula`'s total?"""
    return (len(row) == moduli_dimension(k, n, d) + 1 and row == row[::-1] and row[0] == 1
            and min(row) >= 0 and sum(row) == sum(census_formula(k, n, d).values()))


def _int_tangent(tree: DecoratedTree) -> Counter:
    """The tangent weight multiset at a fixed tree, int-encoded, as signed multiplicities.

    Assembled family by family as in the module docstring; entries may net
    to 0, and the caller checks them (`_checked_int_counts`).
    """
    n = tree.n
    ws: Counter = Counter()
    valences = topology(tree.edges).valences
    omegas: list[list[int]] = [[] for _ in tree.vertices]
    removed = []
    for edge in tree.edges:
        shared, b_u, b_v = _label_frame(tree.vertices[edge.u], tree.vertices[edge.v])
        ws.update(_edge_h0_ints(shared, b_u, b_v, edge.deg, n))
        omega = _domain_tangent_int(n, edge.deg, b_u, b_v)  # at the u end; -omega at v
        omegas[edge.u].append(omega)
        omegas[edge.v].append(-omega)
        removed.append(0)
        if valences[edge.u] == 1:
            removed.append(omega)
        if valences[edge.v] == 1:
            removed.append(-omega)
    for idx, label in enumerate(tree.vertices):
        v = valences[idx]
        if v == 2:
            ws[omegas[idx][0] + omegas[idx][1]] += 1
        elif v == 3:
            ws.update(omegas[idx])
        if v >= 2:
            for w in _point_tangent_ints(label, n):
                ws[w] -= v - 1
    for w in removed:
        ws[w] -= 1
    return ws


def _checked_int_counts(tree: DecoratedTree, ws: Counter) -> tuple[int, int]:
    """(positive, negative) counts of an int-encoded multiset, each int's sign its weight's.

    Raises WeightConsistencyError on a negative multiplicity, a zero weight
    left standing, or a total that misses the moduli dimension.
    """
    pos = neg = 0
    for w, mult in ws.items():
        if mult < 0:
            raise WeightConsistencyError(
                f"negative multiplicity {mult} for weight {w} at tree {tree.to_json_dict()}"
            )
        if w > 0:
            pos += mult
        elif w < 0:
            neg += mult
        elif mult:
            raise WeightConsistencyError(
                f"zero weight survived assembly at tree {tree.to_json_dict()}"
            )
    expected = moduli_dimension(tree.k, tree.n, tree.d)
    if pos + neg != expected:
        raise WeightConsistencyError(
            f"tangent dimension {pos + neg} != {expected} at tree {tree.to_json_dict()}"
        )
    return pos, neg


def tangent_sign_counts(tree: DecoratedTree) -> tuple[int, int]:
    """(positive, negative) tangent weight counts at a fixed tree, checked."""
    return _checked_int_counts(tree, _int_tangent(tree))


def _sixths(digit: int) -> str:
    """digit / WEIGHT_SCALE as a reduced fraction string ("-1/2", "0", "2")."""
    g = math.gcd(digit, WEIGHT_SCALE)
    return str(digit // g) if g == WEIGHT_SCALE else f"{digit // g}/{WEIGHT_SCALE // g}"


def fixed_point_report(tree: DecoratedTree) -> dict:
    """One fixed point's contribution, fully disclosed, as a JSON dict.

    The tree, its tangent weights, each as the reduced fraction strings of
    its coefficients of a_1..a_n, repeated by multiplicity and sorted by
    those coefficients, and its positive and negative counts.
    """
    ws = _int_tangent(tree)
    pos, neg = _checked_int_counts(tree, ws)
    vectors = sorted((_digits(w, tree.n), mult) for w, mult in ws.items() if mult)
    return {
        "tree": tree.to_json_dict(),
        "weights": [[_sixths(c) for c in digits] for digits, mult in vectors for _ in range(mult)],
        "positives": pos,
        "negatives": neg,
    }


# -- the localization sum -----------------------------------------------------


def _legs(c: tuple[int, ...], n: int, deg: int) -> list[tuple[tuple[int, ...], int, int]]:
    """(l, E, omega) per fixed line c - l covered with degree deg: E counts its
    positive section weights, omega is its domain tangent at c (-omega at l)."""
    out = []
    for other in _neighbor_labels(c, n):
        shared, drop, add = _label_frame(c, other)
        e = sum(w > 0 for w in _edge_h0_ints(shared, drop, add, deg, n))
        out.append((other, e, _domain_tangent_int(n, deg, drop, add)))
    return out


def _positive_counts(k: int, n: int, d: int) -> Counter:
    """Fixed trees per positive count, each shape summed from local terms.

    A leg c - l (E and omega from `_legs`) ending in a leaf l adds a = E -
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
    counts = Counter(e - 1 for c in labels for other, e, _ in _legs(c, n, d) if c < other)
    if d == 1:
        return counts
    tops = {c: sum(w > 0 for w in _point_tangent_ints(c, n)) for c in labels}
    unit = {c: _legs(c, n, 1) for c in labels}
    leaves = {c: [(e - (w < 0), w) for _, e, w in unit[c]] for c in labels}
    for c, t in tops.items():
        legs = leaves[c]
        if d == 2:
            for i, (a1, w1) in enumerate(legs):
                counts.update(a1 + a2 + (w1 + w2 > 0) - t for a2, w2 in legs[i:])
            continue
        for _, e, w2 in _legs(c, n, 2):
            counts.update(a1 + e - (w2 < 0) + (w1 + w2 > 0) - t for a1, w1 in legs)
        values = Counter(a + (w > 0) for a, w in legs)
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


@cache
def poincare_localization(k: int, n: int, d: int) -> QPolynomial:
    """q^(positive tangent weights) summed over the fixed trees, from local terms.

    Raises WeightConsistencyError if the three-edge paths count odd from their
    middle ends, an exponent leaves 0..dim, or the fixed points summed miss
    `census_formula`'s total.
    """
    census = sum(census_formula(k, n, d).values())  # refuses a cell outside 1 <= k < n, d = 1..3
    counts = _positive_counts(k, n, d)
    dim = moduli_dimension(k, n, d)
    stray = sorted(p for p in counts if not 0 <= p <= dim)
    if stray:
        raise WeightConsistencyError(f"positive counts {stray} outside 0..{dim} in ({k},{n},{d})")
    if sum(counts.values()) != census:
        raise WeightConsistencyError(f"{sum(counts.values())} fixed points summed in ({k},{n},{d}), "
                                     f"the census counts {census}")
    return QPolynomial(dict(counts))


# -- degree-2 sub-families -----------------------------------------------------


def _two_unit_path_legs(tree: DecoratedTree):
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


def _is_triangle_config(tree: DecoratedTree) -> bool:
    """Two unit edges dropping *different* elements, adding the same one,
    with the added element larger than both dropped ones: the family whose
    minimal stratum is the triangle of fixed lines in G(2, 3)."""
    legs = _two_unit_path_legs(tree)
    if legs is None:
        return False
    (_, drop1, add1), (_, drop2, add2) = legs
    return drop1 != drop2 and add1 == add2 and add1 > max(drop1, drop2)


def _is_repeated_leaf_config(tree: DecoratedTree) -> bool:
    """Two unit edges to the *same* leaf label, dropped element smaller than
    the added one: the family whose minimal stratum is a doubled line in
    G(1, 2)."""
    legs = _two_unit_path_legs(tree)
    if legs is None:
        return False
    (leaf1, drop1, add1), (leaf2, _, _) = legs
    return tree.vertices[leaf1] == tree.vertices[leaf2] and drop1 < add1


def stratum_family_contribution(k: int, n: int, predicate: Callable[[DecoratedTree], bool]) -> QPolynomial:
    """Partial localization sum over the degree-2 trees `predicate` selects.

    Each family predicate (`_is_triangle_config`, `_is_repeated_leaf_config`)
    selects degree-2 fixed trees by the shape of their minimal stratum;
    summing q^(positive count) over just those trees isolates one block of the
    full localization sum for independent cross-examination.
    """
    counts: Counter = Counter()
    for tree in fixed_graphs(k, n, 2):
        if predicate(tree):
            counts[tangent_sign_counts(tree)[0]] += 1
    return QPolynomial(dict(counts))

