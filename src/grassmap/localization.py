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
`weights`, and `_checked_int_counts` runs the checks.  This per-tree
assembly serves `fixed_point_report`, which decodes the weights for
`grassmap betti --reports`, and the embedding check (`grassmap.embedding`),
which calls it only to name the fault in a tangent it does not certify; the
tests sum it tree by tree as the oracle of the sums below.
`poincare_localization` builds no trees: each family enters with a fixed
multiplicity, so a tree's positive count is a sum of local terms.  Per edge,
its positive section weights; per leaf end, minus its positive
reparametrization weight; per node or valence-3 vertex, its positive
smoothing weights; per vertex of valence v >= 2, minus v-1 times the
positive tangent directions of G(k, n) there.  `_positive_counts` sums each
tree shape from tables of these terms over the labels and their fixed
lines.  It counts an edge's positive section weights in O(1) from three
tables per label (`_label_counts`, `_leg_count`), never building the family,
and sums each shape as products of generating functions packed into ints
(the star's multisets of three legs by one symmetric-function identity, a
three-edge path over its middle edge from both ends, halved).  Four checks
back it (three-edge path parity, exponents in 0..dim, the census total, and
the census count of each shape); the tests hold it to the per-tree sum on
the standard sweep, on degree 1 up to n = 6 and on (3, 7, 3).  `family_sum`
sums the degree-2 sub-families from the same local terms: each family is a
rule on the frames of a two-edge path's legs (`FAMILIES`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import Counter
from functools import cache

from .fixedgraphs import DecoratedTree, _check_cell, _label_frame, census_formula, topology
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


def _label_counts(c: tuple[int, ...], n: int) -> tuple[int, list[int], list[int]]:
    """(T, below, above) at label c: T counts the pairs a in c, r outside c with
    r > a (the positive tangent directions of G(k, n) at c); below[x] counts
    the a in c under x, above[x] the r outside c over x, for x = 0..n."""
    below = [0] * (n + 1)
    above = [0] * (n + 1)
    for x in range(1, n + 1):
        below[x] = below[x - 1] + (x - 1 in c)
        above[n - x] = above[n - x + 1] + (n - x + 1 not in c)
    return sum(above[a] for a in c), below, above


def _lines(c: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """(b_u, b_v) per fixed line through label c, to the label that drops b_u and adds b_v."""
    return [(b_u, b_v) for b_u in c for b_v in range(1, n + 1) if b_v not in c]


def _leg_count(counts: tuple[int, list[int], list[int]], b_u: int, b_v: int, deg: int) -> int:
    """E, the positive section weights of a degree-deg cover of the line from a
    label c that drops b_u and adds b_v, from c's `_label_counts`, in O(1).

    `weights._edge_h0_ints` counted block by block by the sign rule (the top
    index decides), with A = c - b_u and R the indices outside both labels:
    (a) the pairs a in A, r in R with r > a, which are T(c) less the pairs
    through b_u or b_v; per cover with top index x, (b) the a in A under x
    and (c) the r in R over x, g(x) together; (d) deg.  The covers' top
    indices are b_u, b_v and, deg - 1 times, max(b_u, b_v).
    """
    t, below, above = counts

    def g(x: int) -> int:  # the a in A under x, and the r in R over x
        return below[x] - (b_u < x) + above[x] - (b_v > x)

    pairs = t - above[b_u] - below[b_v] + (b_v > b_u)
    return pairs + g(b_u) + g(b_v) + (deg - 1) * g(max(b_u, b_v)) + deg


def _unit_legs(n: int, counts: tuple[int, list[int], list[int]],
               lines: list[tuple[int, int]]) -> list[tuple[int, int, int, int]]:
    """(omega, E, b_u, b_v) per unit leg over `lines` from a label with
    `_label_counts` `counts`, by omega: its domain tangent at the label and
    its positive section weights (`_leg_count`)."""
    return sorted((_domain_tangent_int(n, 1, b_u, b_v), _leg_count(counts, b_u, b_v, 1), b_u, b_v)
                  for b_u, b_v in lines)


def _positive_counts(k: int, n: int, d: int) -> dict[str, dict[int, int]]:
    """Fixed trees per positive count, per shape (`census_formula`'s keys),
    each shape summed from local terms.

    A leg from a center c over a line covered with degree deg has E =
    `_leg_count` positive section weights and the domain tangent omega at c;
    ending in a leaf it adds a = E - [omega < 0].  T(c) is the first of c's
    `_label_counts`.

      edge_d   E - 1 per pair of adjacent labels;
      path     a1 + a2 + [omega1 + omega2 > 0] - T(c) per unordered pair of unit legs;
      path12   the same per (unit leg, degree-2 leg);
      star     v1 + v2 + v3 - 2 T(c) per multiset of three unit legs, v = a + [omega > 0];
      path111  per ordered middle edge (c1, c2), E(c1, c2) - T(c1) - T(c2) plus
               a + [omega + omega(c1 -> c2) > 0] at each end; halved, since each
               path is seen from both middle ends.

    A distribution over exponents is one int, the count at q^p in the
    `width`-bit slot p + `offset`, so the product of two is the product of the
    ints; the slots are wide enough that no count carries.  With P = sum q^a
    over c's unit legs and S(x) the same sum over those with omega > x (prefix
    sums over the legs sorted by omega), a unit leg i and a second leg j
    (omega_j, b_j) gain a q when omega_i + omega_j > 0, so together they give
    P Q + (q - 1) sum_j q^(b_j) S(-omega_j), Q = sum_j q^(b_j).  Unordered
    pairs of unit legs are (ordered pairs + diagonal) / 2; the multisets of
    three are h3 = (p1^3 + 3 p1 p2 + 2 p3) / 6, p_j = sum q^(j v); an end of a
    three-edge path is P + (q - 1) S(-omega(c1 -> c2)), and the two ends
    multiply.

    Raises WeightConsistencyError if a count falls below the packing offset,
    a division by 2 or 6 leaves a remainder, or the three-edge paths count
    odd from their middle ends.
    """
    census = census_formula(k, n, d)  # refuses a cell outside 1 <= k < n, d = 1..3
    width = (6 * sum(census.values())).bit_length()  # 2^width > any count packed, 6 h3 included
    offset = 2 * k * (n - k) + 4  # a sound sum shifts its products down by at most 2 k(n-k)

    def times_q(x: int, s: int) -> int:
        """x q^s, x a packed distribution; raises if a count would fall below slot 0."""
        if s >= 0:
            return x << s * width
        if x & ((1 << -s * width) - 1):
            raise WeightConsistencyError(f"a positive count below the packing offset -{offset} "
                                         f"in ({k},{n},{d})")
        return x >> -s * width

    def times_q_less_1(x: int) -> int:  # x (q - 1)
        return (x << width) - x

    def exact(x: int, m: int) -> int:
        quotient, remainder = divmod(x, m)
        if remainder:
            raise WeightConsistencyError(f"packed counts in ({k},{n},{d}) leave remainder {remainder} "
                                         f"on division by {m}")
        return quotient

    def unpacked(x: int) -> dict[int, int]:
        mask = (1 << width) - 1
        slots = ((j, (x >> j * width) & mask) for j in range(x.bit_length() // width + 1))
        return {j - offset: count for j, count in slots if count}

    labels = list(itertools.combinations(range(1, n + 1), k))
    counts = {c: _label_counts(c, n) for c in labels}
    lines = {c: _lines(c, n) for c in labels}
    edges = Counter(_leg_count(counts[c], b_u, b_v, d) - 1
                    for c in labels for b_u, b_v in lines[c] if b_u < b_v)  # each edge once, from its lower label
    shapes = {f"edge{d}": dict(edges)}
    if d == 1:
        return shapes

    unit = {}  # c -> (omega, E, b_u, b_v) per unit leg, by omega
    leaves = {}  # c -> (omega, a) per unit leg, by omega
    omegas = {}  # c -> the omegas of its unit legs, ascending
    prefixes = {}  # c -> prefix sums of q^a over its unit legs in that order; P last
    for c in labels:
        unit[c] = _unit_legs(n, counts[c], lines[c])
        leaves[c] = [(omega, e - (omega < 0)) for omega, e, _, _ in unit[c]]
        omegas[c] = [omega for omega, _ in leaves[c]]
        prefixes[c] = [0]
        for _, a in leaves[c]:
            prefixes[c].append(prefixes[c][-1] + times_q(1, a))

    def suffix(c: tuple[int, ...], x: int) -> int:  # S(x) at c
        prefix = prefixes[c]
        return prefix[-1] - prefix[bisect.bisect_right(omegas[c], x)]

    def pairs(c: tuple[int, ...], seconds: list[tuple[int, int]]) -> int:
        """q^(a_i + b + [omega_i + omega > 0]) summed over c's unit legs i and the (omega, b) of `seconds`."""
        q_sum = crossed = 0  # Q, and sum q^b S(-omega)
        for omega, b in seconds:
            q_sum += times_q(1, b)
            crossed += suffix(c, -omega) << b * width
        return prefixes[c][-1] * q_sum + times_q_less_1(crossed)

    twice = path12 = six_star = doubled = 0
    for c in labels:
        t = counts[c][0]
        if d == 2:
            diagonal = sum(times_q(1, 2 * a + (omega > 0)) for omega, a in leaves[c])
            twice += times_q(pairs(c, leaves[c]) + diagonal, offset - t)
            continue
        seconds = []
        for b_u, b_v in lines[c]:
            omega = _domain_tangent_int(n, 2, b_u, b_v)
            seconds.append((omega, _leg_count(counts[c], b_u, b_v, 2) - (omega < 0)))
        path12 += times_q(pairs(c, seconds), offset - t)
        values = [a + (omega > 0) for omega, a in leaves[c]]
        p1, p2, p3 = (sum(times_q(1, j * v) for v in values) for j in (1, 2, 3))
        six_star += times_q(p1 * p1 * p1 + 3 * p1 * p2 + 2 * p3, offset - 2 * t)
        for omega, e, b_u, b_v in unit[c]:
            far = tuple(sorted((*(a for a in c if a != b_u), b_v)))
            near_end = prefixes[c][-1] + times_q_less_1(suffix(c, -omega))
            far_end = prefixes[far][-1] + times_q_less_1(suffix(far, omega))
            doubled += times_q(near_end * far_end, offset + e - t - counts[far][0])
    if d == 2:
        shapes["path"] = unpacked(exact(twice, 2))
        return shapes
    shapes["path12"] = unpacked(path12)
    shapes["star"] = unpacked(exact(six_star, 6))
    paths = unpacked(doubled)
    for p, count in paths.items():
        if count % 2:
            raise WeightConsistencyError(f"three-edge paths at q^{p} in ({k},{n},3) counted "
                                         f"from both middle ends: {count}, an odd number")
        paths[p] = count // 2
    shapes["path111"] = paths
    return shapes


@cache
def poincare_localization(k: int, n: int, d: int) -> QPolynomial:
    """q^(positive tangent weights) summed over the fixed trees, from local terms.

    Raises WeightConsistencyError if a packed count falls below its offset, the
    three-edge paths count odd from their middle ends, an exponent leaves
    0..dim, or the fixed points summed miss `census_formula`'s total or, shape
    by shape, its count for that shape.
    """
    census = census_formula(k, n, d)  # refuses a cell outside 1 <= k < n, d = 1..3
    shapes = _positive_counts(k, n, d)
    counts: Counter = Counter()
    for shape_counts in shapes.values():
        counts.update(shape_counts)
    dim = moduli_dimension(k, n, d)
    stray = sorted(p for p in counts if not 0 <= p <= dim)
    if stray:
        raise WeightConsistencyError(f"positive counts {stray} outside 0..{dim} in ({k},{n},{d})")
    total = sum(census.values())
    if sum(counts.values()) != total:
        raise WeightConsistencyError(f"{sum(counts.values())} fixed points summed in ({k},{n},{d}), "
                                     f"the census counts {total}")
    for shape, want in census.items():
        got = sum(shapes[shape].values())
        if got != want:
            raise WeightConsistencyError(f"{got} {shape} trees summed in ({k},{n},{d}), "
                                         f"its census counts {want}")
    return QPolynomial(dict(counts))


# -- degree-2 sub-families -----------------------------------------------------


# Each family of degree-2 trees, by the name `checks.families` prints, as a
# rule on the (b_u, b_v) frames of a two-edge unit path's legs from its
# centre.
FAMILIES = {
    # different dropped elements, the same added one, above both: the family
    # whose minimal stratum is the triangle of fixed lines in G(2, 3)
    "triangle": lambda u1, v1, u2, v2: u1 != u2 and v1 == v2 and v1 > max(u1, u2),
    # the same leaf twice, dropped below added: the family whose minimal
    # stratum is a doubled line in G(1, 2)
    "repeated-leaf": lambda u1, v1, u2, v2: (u1, v1) == (u2, v2) and u1 < v1,
}


def family_sum(k: int, n: int, family: str) -> QPolynomial:
    """q^(positive tangent weights) summed over the two-edge unit paths in
    G(k, n) whose legs `FAMILIES[family]` selects, from local terms: per
    unordered pair of unit legs at a centre c, a1 + a2 + [omega1 + omega2 > 0]
    - T(c), the path rule of `_positive_counts`."""
    _check_cell(k, n, 2)
    rule = FAMILIES[family]
    counts: Counter = Counter()
    for c in itertools.combinations(range(1, n + 1), k):
        label_counts = _label_counts(c, n)
        legs = _unit_legs(n, label_counts, _lines(c, n))
        for (w1, e1, u1, v1), (w2, e2, u2, v2) in itertools.combinations_with_replacement(legs, 2):
            if rule(u1, v1, u2, v2):
                counts[e1 - (w1 < 0) + e2 - (w2 < 0) + (w1 + w2 > 0) - label_counts[0]] += 1
    return QPolynomial(dict(counts))
