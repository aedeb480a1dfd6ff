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
           along the covered line (weights.edge_h0_weights);
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

The assembly exists in two forms.  `tangent_weights` builds a
`WeightMultiset` of `Fraction` weights; it backs the per-fixed-point reports
(`fixed_point_report`, `grassmap betti --reports`) and is the tests' oracle.
`tangent_sign_counts` runs the same assembly on weights encoded as plain
ints (see `weights`), whose signs are the weights' signs, and applies the
same checks; the localization sum, its worker processes and the sub-family
sums count with it.  `embedding_cross_check` compares int-encoded multisets
too: the lifted tangent is the same assembly with a lift slot.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

from .fixedgraphs import DecoratedTree, enumerate_fixed_graphs
from .qpoly import QPolynomial
from .weights import (
    TorusWeight,
    WeightConsistencyError,
    WeightMultiset,
    _domain_tangent_int,
    _edge_h0_ints,
    _embedding_delta_ints,
    _iter_edge_h0,
    _iter_point_tangent,
    _point_tangent_ints,
    _zero_weight,
    domain_tangent_weight,
    embed_tree,
)


def moduli_dimension(k: int, n: int, d: int) -> int:
    """Dimension k(n-k) + d*n - 3 of the degree-d stable-map space."""
    return k * (n - k) + d * n - 3


def tangent_weights(tree: DecoratedTree) -> WeightMultiset:
    """The tangent weight multiset at a fixed tree.

    Raises WeightConsistencyError if the assembly nets a negative
    multiplicity, leaves a zero weight standing, or misses the moduli
    dimension -- all impossible for correctly enumerated trees.
    """
    n = tree.n
    ws = WeightMultiset()
    valences = tree.valences()
    omegas: list[list[TorusWeight]] = [[] for _ in tree.vertices]
    frames = []
    for edge in tree.edges:
        shared, b_u, b_v = tree.edge_frame(edge)
        frames.append((edge, b_u, b_v))
        ws.update(_iter_edge_h0(shared, b_u, b_v, edge.deg, n))
        omegas[edge.u].append(domain_tangent_weight(n, edge.deg, b_u, b_v))
        omegas[edge.v].append(domain_tangent_weight(n, edge.deg, b_v, b_u))
    for idx, label in enumerate(tree.vertices):
        v = valences[idx]
        if v == 2:
            ws.add(omegas[idx][0] + omegas[idx][1])
        elif v == 3:
            for w in omegas[idx]:
                ws.add(w)
        if v >= 2:
            ws.update(_iter_point_tangent(label, n), -(v - 1))
    zero = _zero_weight(n)
    for edge, b_u, b_v in frames:
        ws.add(zero, -1)
        if valences[edge.u] == 1:
            ws.add(domain_tangent_weight(n, edge.deg, b_u, b_v), -1)
        if valences[edge.v] == 1:
            ws.add(domain_tangent_weight(n, edge.deg, b_v, b_u), -1)
    _checked_sign_counts(tree, ((w.sign, mult, w) for w, mult in ws.items()))
    return ws


def _checked_sign_counts(
    tree: DecoratedTree, signed: Iterable[tuple[int, int, object]]
) -> tuple[int, int]:
    """(positive, negative) counts over (sign, multiplicity, weight) entries.

    Raises WeightConsistencyError on a negative multiplicity, a zero weight
    left standing, or a total that misses the moduli dimension.
    """
    pos = neg = 0
    for sign, mult, w in signed:
        if mult < 0:
            raise WeightConsistencyError(
                f"negative multiplicity {mult} for weight {w} at tree {tree.to_json_dict()}"
            )
        if sign > 0:
            pos += mult
        elif sign < 0:
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


@dataclass(frozen=True)
class FixedPointReport:
    """One fixed point's contribution, fully disclosed."""

    tree: DecoratedTree
    weights: WeightMultiset
    positives: int
    negatives: int

    def to_json_dict(self) -> dict:
        return {
            "tree": self.tree.to_json_dict(),
            "weights": [w.to_fraction_strings() for w in self.weights.expanded()],
            "positives": self.positives,
            "negatives": self.negatives,
        }


def fixed_point_report(tree: DecoratedTree) -> FixedPointReport:
    ws = tangent_weights(tree)
    pos, neg, _ = ws.sign_counts()
    return FixedPointReport(tree=tree, weights=ws, positives=pos, negatives=neg)


def _int_tangent(tree: DecoratedTree, m: int | None = None) -> Counter:
    """`tangent_weights` in the integer encoding, as signed multiplicities.

    The same assembly, family by family; entries may net to 0 (dropped
    from a WeightMultiset, kept here) and are checked by the caller.  With
    a lift slot m the result encodes `tangent_weights(tree).insert_index(m)`.
    """
    n = tree.n
    ws: Counter = Counter()
    valences = tree.valences()
    omegas: list[list[int]] = [[] for _ in tree.vertices]
    removed = []
    for edge in tree.edges:
        shared, b_u, b_v = tree.edge_frame(edge)
        ws.update(_edge_h0_ints(shared, b_u, b_v, edge.deg, n, m))
        omega = _domain_tangent_int(n, edge.deg, b_u, b_v, m)  # at the u end; -omega at v
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
            for w in _point_tangent_ints(label, n, m):
                ws[w] -= v - 1
    for w in removed:
        ws[w] -= 1
    return ws


def _checked_int_counts(tree: DecoratedTree, ws: Counter) -> tuple[int, int]:
    """`_checked_sign_counts` over int-encoded weights, whose sign is their own."""
    return _checked_sign_counts(tree, (((w > 0) - (w < 0), mult, w) for w, mult in ws.items()))


def tangent_sign_counts(tree: DecoratedTree) -> tuple[int, int]:
    """(positive, negative) tangent weight counts at a fixed tree.

    Equal to the sign counts of `tangent_weights(tree)`, computed in the
    integer encoding and held to the same checks.
    """
    return _checked_int_counts(tree, _int_tangent(tree))


def _chunk_positive_counts(trees: Iterable[DecoratedTree]) -> Counter:
    counts: Counter = Counter()
    for tree in trees:
        counts[tangent_sign_counts(tree)[0]] += 1
    return counts


_poincare_cache: dict[tuple[int, int, int], QPolynomial] = {}


def clear_poincare_cache() -> None:
    """Forget every memoized `poincare_localization` result."""
    _poincare_cache.clear()


def poincare_localization(k: int, n: int, d: int, jobs: int = 1) -> QPolynomial:
    """Poincare polynomial by summing q^(positive weights) over fixed trees.

    `jobs` > 1 fans the fixed points out over worker processes; the result
    is an exact integer polynomial either way, identical for any job count
    (the reduction is a commutative sum).
    """
    key = (k, n, d)
    hit = _poincare_cache.get(key)
    if hit is not None:
        return hit
    trees = enumerate_fixed_graphs(k, n, d)
    if jobs > 1 and len(trees) >= 64:
        from concurrent.futures import ProcessPoolExecutor

        step = (len(trees) + jobs - 1) // jobs
        chunks = [trees[i : i + step] for i in range(0, len(trees), step)]
        counts: Counter = Counter()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_chunk_positive_counts, chunks):
                counts.update(part)
    else:
        counts = _chunk_positive_counts(trees)
    result = QPolynomial(dict(counts))
    _poincare_cache[key] = result
    return result


# -- degree-2 sub-families -----------------------------------------------------


def _two_unit_path_frame(tree: DecoratedTree):
    """For a two-edge unit-degree path: (dropped, added) per leaf, else None."""
    if len(tree.edges) != 2 or any(e.deg != 1 for e in tree.edges):
        return None
    valences = tree.valences()
    center = valences.index(2)
    legs = []
    for edge in tree.edges:
        leaf = edge.v if edge.u == center else edge.u
        center_set = set(tree.vertices[center])
        leaf_set = set(tree.vertices[leaf])
        dropped = (center_set - leaf_set).pop()
        added = (leaf_set - center_set).pop()
        legs.append((leaf, dropped, added))
    return center, legs


def _is_triangle_config(tree: DecoratedTree) -> bool:
    """Two unit edges dropping *different* elements, adding the same one,
    with the added element larger than both dropped ones: the family whose
    minimal stratum is the triangle of fixed lines in G(2, 3)."""
    frame = _two_unit_path_frame(tree)
    if frame is None:
        return False
    _, ((_, drop1, add1), (_, drop2, add2)) = frame
    return drop1 != drop2 and add1 == add2 and add1 > max(drop1, drop2)


def _is_repeated_leaf_config(tree: DecoratedTree) -> bool:
    """Two unit edges to the *same* leaf label, dropped element smaller than
    the added one: the family whose minimal stratum is a doubled line in
    G(1, 2)."""
    frame = _two_unit_path_frame(tree)
    if frame is None:
        return False
    _, ((leaf1, drop1, add1), (leaf2, _, _)) = frame
    return tree.vertices[leaf1] == tree.vertices[leaf2] and drop1 < add1


FAMILIES: dict[str, Callable[[DecoratedTree], bool]] = {
    "G23_triangle": _is_triangle_config,
    "G12_repeated": _is_repeated_leaf_config,
}


def stratum_family_contribution(k: int, n: int, family: str) -> QPolynomial:
    """Partial localization sum over one named degree-2 sub-family.

    Families select degree-2 fixed trees by the shape of their minimal
    stratum; summing q^(positive count) over just those trees isolates one
    block of the full localization sum for independent cross-examination.
    """
    try:
        predicate = FAMILIES[family]
    except KeyError:
        raise ValueError(
            f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}"
        ) from None
    counts: Counter = Counter()
    for tree in enumerate_fixed_graphs(k, n, 2):
        if predicate(tree):
            counts[tangent_sign_counts(tree)[0]] += 1
    return QPolynomial(dict(counts))


# -- embedding consistency -----------------------------------------------------


def embedding_cross_check(tree: DecoratedTree, m: int, mode) -> bool:
    """Does tangent(embed(tree)) equal lifted tangent(tree) plus the surplus?

    The direct computation on the embedded tree and the base-plus-delta
    route must agree as multisets; this is the strongest internal check the
    weight calculus has, exercising every family jointly.  Both routes run
    in the integer encoding: the lift is `_int_tangent(tree, m)` and the
    surplus the int form of `weights.embedding_weight_delta`.  Both
    tangents pass the checks of `tangent_sign_counts`, and a negative
    surplus raises WeightConsistencyError.
    """
    embedded = embed_tree(tree, m, mode)
    direct = _int_tangent(embedded)
    _checked_int_counts(embedded, direct)
    lifted = _int_tangent(tree, m)
    _checked_int_counts(tree, lifted)
    surplus = _embedding_delta_ints(tree, m, mode)
    if any(mult < 0 for mult in surplus.values()):
        raise WeightConsistencyError(f"embedding surplus went negative for m={m}, mode={mode}")
    lifted.update(surplus)
    return direct == lifted  # a Counter compares missing entries as 0
