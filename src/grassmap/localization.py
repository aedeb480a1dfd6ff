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
`grassmap betti --reports`; `embedding_verdicts` calls them only to name the
fault in a tangent its residuals do not certify.
`poincare_localization` builds no trees: each family enters with a fixed
multiplicity, so a tree's positive count is a sum of local terms, and
`_positive_counts` sums each tree shape from tables of them, under three
checks of its own (three-edge path parity, exponents in 0..dim, the census
total); the tests hold it to the per-tree sum.

`embedding_verdicts` checks, for every slot and mode of one tree, that the
embedded tree's tangent is the lifted tangent plus the surplus, without
assembling either tangent.  Embedding changes no edge, valence or domain
character, so the node and reparametrization terms cancel, and direct -
lifted - surplus is a sum of local residuals: per edge, its embedded family
minus its lifted family minus its surplus piece; per vertex of valence
v >= 2, minus v-1 times the same for its Grassmannian tangent.  The residuals
depend on an edge frame or a label, the slot and the mode only.  They are
checked once per frame or label over every slot and mode, and the cases with
a non-empty residual are memoized as its misfit set.  The base tangent must
pass the checks above, which checks every lift of it, and the surplus must
hold (no negative multiplicity, no zero, the right size) at slot n+1 in each
mode, which checks it at every slot: rotating each weight's digit n+1 down
to slot m fixes only 0 and maps that surplus onto the one at slot m.

Both checks are sums of local terms too.  Hang the tree from a leaf and
orient each edge from its parent end p to its child end: a vertex of valence
v >= 2 is then the parent of exactly v-1 edges, so each of its v-1 tangent
removals, and each of its v-1 surplus pieces, falls to one edge.  Per
oriented edge, the base residual is its family less the zero, less the
domain character at each leaf end and, unless p is the leaf, less T(p); the
surplus residual in each mode is its piece at slot n+1 less p's piece unless
p is the leaf.  They are memoized with the edge's misfits (`_edge_share`).
Clean residuals (no zero, no negative multiplicity) whose sizes, with the
node count, make the dimension, and nonzero node weights, certify the base
tangent; clean surplus residuals whose sizes make the size the embedding
adds certify that mode's surplus (`_certified`).  A sum of clean residuals
is clean, so a certified check passes exactly.  That is the one rule: a
tree whose base tangent is not certified raises WeightConsistencyError, a
surplus residual with a negative multiplicity raises, and a case passes iff
it is in no misfit set and its mode's surplus is certified.  No tangent or
surplus is built.  Without a fault these verdicts equal the tests' per-case
check, which assembles both tangents; under a fault they may fail a case
that check passes, since each residual is judged before the residuals
cancel, but they never pass a case that it fails, and the tests hold them to
that under each fault they inject.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cache
from typing import Callable, NamedTuple

from .fixedgraphs import DecoratedTree, _label_frame, _neighbor_labels, census_formula, fixed_graphs
from .qpoly import QPolynomial
from .weights import (
    WEIGHT_SCALE,
    WeightConsistencyError,
    _digits,
    _domain_tangent_int,
    _edge_h0_ints,
    _edge_surplus_ints,
    _embed_label,
    _lift,
    _point_surplus_ints,
    _point_tangent_ints,
    _shift,
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
    valences = tree.valences()
    omegas: list[list[int]] = [[] for _ in tree.vertices]
    removed = []
    for edge in tree.edges:
        shared, b_u, b_v = tree.edge_frame(edge)
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
    if len(tree.edges) != 2 or any(e.deg != 1 for e in tree.edges):
        return None
    center = tree.valences().index(2)
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


# -- embedding consistency -----------------------------------------------------


MODES = ("iota", "kappa")


@cache
def _cases(n: int) -> tuple[tuple[int, str], ...]:
    """Every case (m, mode) of a tree in n coordinates: slots 1..n+1, both modes."""
    return tuple((m, mode) for m in range(1, n + 2) for mode in MODES)


@cache
def _edge_misfits(shared: tuple[int, ...], b_u: int, b_v: int, deg: int, n: int) -> frozenset:
    """The cases (m, mode), over every slot m in 1..n+1 and both modes, where
    the edge's residual r_e is not empty or its domain character is not the
    lifted one.  r_e is its embedded family minus its lifted family minus its
    surplus piece; it is empty iff the sorted families agree."""
    family = _edge_h0_ints(shared, b_u, b_v, deg, n)
    omega = _domain_tangent_int(n, deg, b_u, b_v)
    misfits = set()
    for m in range(1, n + 2):
        lifted = sorted(_lift(w, m) for w in family)
        up_u, up_v = _shift(b_u, m), _shift(b_v, m)
        same_omega = _domain_tangent_int(n + 1, deg, up_u, up_v) == _lift(omega, m)
        for mode in MODES:
            embedded = _edge_h0_ints(_embed_label(shared, m, mode), up_u, up_v, deg, n + 1)
            piece = _edge_surplus_ints(shared, b_u, b_v, deg, n, m, mode)
            if not same_omega or sorted(embedded) != sorted([*lifted, *piece]):
                misfits.add((m, mode))
    return frozenset(misfits)


@cache
def _point_misfits(label: tuple[int, ...], n: int) -> frozenset:
    """The cases (m, mode), over every slot and both modes, where the vertex
    residual r_v is not empty: the embedded label's Grassmannian tangent minus
    the lifted one minus its surplus piece."""
    tangent = _point_tangent_ints(label, n)
    misfits = set()
    for m in range(1, n + 2):
        lifted = sorted(_lift(w, m) for w in tangent)
        for mode in MODES:
            embedded = _point_tangent_ints(_embed_label(label, m, mode), n + 1)
            if sorted(embedded) != sorted([*lifted, *_point_surplus_ints(label, n, m, mode)]):
                misfits.add((m, mode))
    return frozenset(misfits)


class _EdgeShare(NamedTuple):
    """One oriented edge's share of its tree's checks (`_edge_share`)."""

    # the sizes of its base residual, then of its surplus residual per mode; None for an unclean one
    sizes: tuple[int | None, ...]
    omega: int  # the domain tangent character at the edge's u end (-omega at its v end)
    misfits: frozenset  # of its frame, and of its parent end's label unless that end is a leaf


@cache
def _edge_share(label_u: tuple[int, ...], label_v: tuple[int, ...], deg: int, n: int,
                leaf_u: bool, leaf_v: bool, parent: tuple[int, ...] | None) -> _EdgeShare:
    """An edge's share of every check of its tree, the tree hung from a leaf:
    `parent` is the label of the edge's end nearer that leaf, or None if that
    end is the leaf itself.

    Its base residual is its family less the zero, less the domain character
    at each end that is a leaf, and less the parent's Grassmannian tangent;
    its surplus residual in each mode is its piece at slot n+1 less the
    parent's piece.  A residual is clean when it holds no zero and no
    negative multiplicity, and a surplus residual with a negative
    multiplicity raises WeightConsistencyError.  Hung from a leaf, a vertex
    of valence v >= 2 is the parent of exactly v-1 edges, so the base
    residuals plus the node weights are `_int_tangent` of the tree, and the
    surplus residuals its surplus at slot n+1.
    """
    shared, b_u, b_v = _label_frame(label_u, label_v)
    omega = _domain_tangent_int(n, deg, b_u, b_v)
    base = Counter(_edge_h0_ints(shared, b_u, b_v, deg, n))
    base.subtract((0, *(omega,) * leaf_u, *(-omega,) * leaf_v))
    surpluses = {mode: Counter(_edge_surplus_ints(shared, b_u, b_v, deg, n, n + 1, mode)) for mode in MODES}
    misfits = _edge_misfits(shared, b_u, b_v, deg, n)
    if parent is not None:
        base.subtract(_point_tangent_ints(parent, n))
        for mode, residual in surpluses.items():
            residual.subtract(_point_surplus_ints(parent, n, n + 1, mode))
        misfits |= _point_misfits(parent, n)
    for mode, residual in surpluses.items():
        if min(residual.values(), default=0) < 0:
            raise WeightConsistencyError(f"embedding surplus went negative for m={n + 1}, mode={mode}")
    sizes = tuple(None if residual[0] or min(residual.values(), default=0) < 0 else sum(residual.values())
                  for residual in (base, *surpluses.values()))
    return _EdgeShare(sizes, omega, misfits)


def _edge_shares(tree: DecoratedTree) -> list[_EdgeShare]:
    """Each edge's `_edge_share`, the tree hung from its first leaf."""
    valences = tree.valences()
    labels = tree.vertices
    parents: dict[int, int] = {}
    reached = [valences.index(1)]
    for x in reached:  # breadth first from the leaf; each edge is met first from its parent end
        for i, (u, v, _) in enumerate(tree.edges):
            if i not in parents and x in (u, v):
                parents[i] = x
                reached.append(v if x == u else u)
    return [_edge_share(labels[u], labels[v], deg, tree.n, valences[u] == 1, valences[v] == 1,
                        labels[parents[i]] if valences[parents[i]] > 1 else None)
            for i, (u, v, deg) in enumerate(tree.edges)]


def _certified(tree: DecoratedTree, shares: list[_EdgeShare]) -> tuple[bool, bool, bool]:
    """Do the edges' shares certify that the tree's base tangent passes
    `_checked_int_counts`, and that its surplus at slot n+1 holds in each
    mode?  One flag each, the base first, then the modes in MODES order.

    The base is certified when its residuals are clean, their sizes plus the
    node count make the dimension, and no node weight is zero; a mode when
    its surplus residuals are clean and their sizes make the size the
    embedding adds to the dimension.  A sum of clean residuals is clean.
    """
    omegas: list[list[int]] = [[] for _ in tree.vertices]
    for (u, v, _), share in zip(tree.edges, shares):
        omegas[u].append(share.omega)
        omegas[v].append(-share.omega)
    nodes = [w for ws in omegas for w in ((sum(ws),) if len(ws) == 2 else ws if len(ws) == 3 else ())]
    k, n, d = tree.k, tree.n, tree.d
    dim = moduli_dimension(k, n, d)
    base, iota, kappa = [None if None in sizes else sum(sizes) for sizes in zip(*[share.sizes for share in shares])]
    return (base == dim - len(nodes) and 0 not in nodes, iota == moduli_dimension(k, n + 1, d) - dim,
            kappa == moduli_dimension(k + 1, n + 1, d) - dim)


def embedding_verdicts(tree: DecoratedTree) -> dict[tuple[int, str], bool]:
    """Does the tree embedded at slot m in mode `mode` have the lifted tangent
    plus the surplus?  For every slot m in 1..n+1 and both modes, keyed (m, mode).

    The tree is hung from a leaf, and each edge, oriented away from it, looks
    up its memoized share (`_edge_share`): its misfits, and its residuals of
    the base tangent and of the surplus at slot n+1.  A case passes iff it is
    in no share's misfit set and the shares certify its mode's surplus
    (`_certified`); a case in no misfit set has direct == lifted + surplus
    exactly, and a surplus that holds at slot n+1 holds at every slot.  The
    shares must certify the base tangent, which checks every lift of it
    (`weights._lift` is injective, maps 0 to 0 and keeps every sign);
    otherwise the tangent is assembled, so that `_checked_int_counts` names
    the fault, and WeightConsistencyError is raised either way.  No tangent
    or surplus is built for a certified tree.

    Without a fault the verdicts equal the per-case check of the tests; under
    a fault they may fail a case it passes, never pass one it fails.
    """
    n = tree.n
    shares = _edge_shares(tree)
    base, *modes = _certified(tree, shares)
    if not base:
        _checked_int_counts(tree, _int_tangent(tree))
        raise WeightConsistencyError(f"edge residuals do not certify the tangent at tree {tree.to_json_dict()}")
    failed = set().union(*(share.misfits for share in shares))
    for mode, ok in zip(MODES, modes):
        if not ok:
            failed.update((m, mode) for m in range(1, n + 2))
    return {case: case not in failed for case in _cases(n)}
