"""Enumeration of torus-fixed stable maps as decorated trees.

A torus-fixed genus-0 stable map of degree d to G(k, n) is captured by a
tree whose vertices carry k-subsets of {1..n} (fixed points of the target),
whose edges carry covering degrees summing to d, and whose adjacent labels
share exactly k-1 elements (so each edge covers a fixed line).  For d <= 3
every vertex has valence at most 3 and the possible tree shapes are short
enough to list outright:

    d = 1:  one edge of degree 1
    d = 2:  one edge of degree 2; a two-edge path with unit degrees
    d = 3:  one edge of degree 3; a two-edge path with degrees 1 and 2;
            a three-edge star; a three-edge path with unit degrees

The localization and sub-family sums build no trees; they are enumerated
for `grassmap graphs`, `betti --reports`, the census, the embedding check and
the tests' oracles of those sums.  Each shape generator yields every
isomorphism class exactly once (an edge from its smaller label, a centre
with a multiset of leaves, a three-edge path in one orientation), so
`fixed_graphs` streams the trees with no dedup and no cache; the census and
duality checks would see a duplicate or a missing tree.  `topology` reads
what an `edges` tuple decides (shape, valences, the tree hung from a leaf)
once per tuple; the generators use seven.  The canonical form (the minimal
relabelled encoding over all vertex orderings) only orders output, in
`enumerate_fixed_graphs`, where the order is part of the contract:
`grassmap graphs` and `betti --reports`.  It lists the labels sorted, so
only orderings within runs of equal labels are tried: one ordering for most
trees instead of up to 24.  Degrees 4 and above are out of scope and raise
UnsupportedDegreeError.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import cache
from typing import Iterator, NamedTuple

from .weights import GrassmannPoint

MAX_DEGREE = 3


class UnsupportedDegreeError(ValueError):
    """A request for a degree outside the implemented range 1..3."""


class Edge(NamedTuple):
    u: int
    v: int
    deg: int


class DecoratedTree(NamedTuple):
    """A torus-fixed stable map: labelled tree plus edge degrees.

    vertices[i] is the k-subset labelling vertex i (a strictly increasing
    tuple); edges reference vertex indices.  Instances are value objects:
    two trees differing only by vertex order are distinct objects with the
    same canonical form, which orders output and never drops duplicates.
    """

    k: int
    n: int
    vertices: tuple[GrassmannPoint, ...]
    edges: tuple[Edge, ...]

    @property
    def d(self) -> int:
        return sum(e.deg for e in self.edges)

    def canonical_key(self) -> tuple:
        """Isomorphism invariant: minimal encoding over all vertex orderings.

        Only orderings that sort the labels can be minimal, so only
        orderings among equal labels are tried (see the module docstring).
        """
        label = self.vertices.__getitem__
        order = sorted(range(len(self.vertices)), key=label)
        runs = [tuple(run) for _, run in itertools.groupby(order, key=label)]
        best: tuple | None = None
        for arrangement in itertools.product(*(itertools.permutations(run) for run in runs)):
            perm = [0] * len(self.vertices)
            for new, old in enumerate(itertools.chain.from_iterable(arrangement)):
                perm[old] = new
            edges = tuple(
                sorted(
                    (min(perm[e.u], perm[e.v]), max(perm[e.u], perm[e.v]), e.deg)
                    for e in self.edges
                )
            )
            if best is None or edges < best:
                best = edges
        return (self.k, self.n, tuple(sorted(self.vertices)), best)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "d": self.d,
            "vertices": [list(lab) for lab in self.vertices],
            "edges": [{"u": e.u, "v": e.v, "deg": e.deg} for e in self.edges],
        }


@cache
def _label_frame(label_u: GrassmannPoint, label_v: GrassmannPoint) -> tuple[tuple[int, ...], int, int]:
    """(shared (k-1)-set, element only in label_u, only in label_v), memoized
    per label pair; ValueError (never cached) if they do not span a fixed line."""
    su = set(label_u)
    sv = set(label_v)
    only_u = su - sv
    only_v = sv - su
    if len(only_u) != 1 or len(only_v) != 1:
        raise ValueError(f"labels {label_u} and {label_v} do not span a fixed line")
    return tuple(sorted(su & sv)), only_u.pop(), only_v.pop()


def _neighbor_labels(label: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """All labels joined to `label` by a fixed line, in sorted order."""
    inside = set(label)
    out = []
    for drop in label:
        rest = inside - {drop}
        for add in range(1, n + 1):
            if add not in inside:
                out.append(tuple(sorted((*rest, add))))
    return tuple(sorted(out))


def _check_cell(k: int, n: int, d: int) -> None:
    """Refuse a cell outside 1 <= k < n, 1 <= d <= MAX_DEGREE: ValueError, and
    UnsupportedDegreeError for a degree above MAX_DEGREE.  The one cell rule
    of both routes."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if d > MAX_DEGREE:
        raise UnsupportedDegreeError(
            f"degree {d} not supported (tree shapes are classified only for d <= {MAX_DEGREE})"
        )


def enumerate_fixed_graphs(k: int, n: int, d: int) -> tuple[DecoratedTree, ...]:
    """All torus-fixed stable maps of degree d to G(k, n), up to isomorphism,
    sorted by canonical form: the one definition of the output order."""
    return tuple(sorted(fixed_graphs(k, n, d), key=DecoratedTree.canonical_key))


def fixed_graphs(k: int, n: int, d: int) -> Iterator[DecoratedTree]:
    """The same trees as `enumerate_fixed_graphs`, one per isomorphism class,
    streamed in generation order.  The cell is checked on the call itself."""
    _check_cell(k, n, d)
    return _generate(k, n, d)


def _generate(k: int, n: int, d: int) -> Iterator[DecoratedTree]:
    labels = tuple(itertools.combinations(range(1, n + 1), k))
    nbr = {lab: _neighbor_labels(lab, n) for lab in labels}

    # single edge carrying the whole degree
    for lab in labels:
        for other in nbr[lab]:
            if lab < other:
                yield DecoratedTree(k, n, (lab, other), (Edge(0, 1, d),))

    if d == 2:
        for center in labels:
            for l1, l2 in itertools.combinations_with_replacement(nbr[center], 2):
                yield DecoratedTree(
                    k, n, (center, l1, l2), (Edge(0, 1, 1), Edge(0, 2, 1))
                )
    elif d == 3:
        for center in labels:
            ns = nbr[center]
            for l1 in ns:  # unit-degree leg
                for l2 in ns:  # degree-2 leg; ordered, legs are distinguishable
                    yield DecoratedTree(
                        k, n, (center, l1, l2), (Edge(0, 1, 1), Edge(0, 2, 2))
                    )
            for triple in itertools.combinations_with_replacement(ns, 3):
                yield DecoratedTree(
                    k,
                    n,
                    (center, *triple),
                    (Edge(0, 1, 1), Edge(0, 2, 1), Edge(0, 3, 1)),
                )
        for c1 in labels:
            for c2 in nbr[c1]:
                # a path end1 - c1 - c2 - end2; one orientation (neighbours differ)
                if c1 > c2:
                    continue
                for end1 in nbr[c1]:
                    for end2 in nbr[c2]:
                        yield DecoratedTree(
                            k,
                            n,
                            (end1, c1, c2, end2),
                            (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1)),
                        )


class Topology(NamedTuple):
    """What a tree's `edges` tuple decides (`topology`)."""

    shape: str  # edge1/edge2/edge3, path, path12, star or path111
    valences: tuple[int, ...]  # per vertex
    parents: tuple[int, ...]  # per edge, its end nearer the first leaf


@cache
def topology(edges: tuple[Edge, ...]) -> Topology:
    """The tree's shape (from its degrees and, for three edges, its valences),
    its valences, and each edge's end nearer its first leaf, the tree hung
    from that leaf breadth first; memoized per `edges` tuple."""
    valences = [sum(x in (u, v) for u, v, _ in edges) for x in range(len(edges) + 1)]
    parents: dict[int, int] = {}
    reached = [valences.index(1)]
    for x in reached:  # each edge is met first from its end nearer the leaf
        for i, (u, v, _) in enumerate(edges):
            if i not in parents and x in (u, v):
                parents[i] = x
                reached.append(v if x == u else u)
    degs = sorted(e.deg for e in edges)
    shape = (f"edge{degs[0]}" if len(edges) == 1 else ("path" if degs == [1, 1] else "path12") if len(edges) == 2
             else "star" if max(valences) == 3 else "path111")
    return Topology(shape, tuple(valences), tuple(parents[i] for i in range(len(edges))))


def census_formula(k: int, n: int, d: int) -> dict[str, int]:
    """Closed-form fixed-graph counts per shape.

    With B = C(n, k) fixed points and m = k(n-k) lines through each:
      one edge of any degree      B*m/2
      unit path (d=2)             B*C(m+1, 2)
      degrees-(1,2) path          B*m^2
      star                        B*C(m+2, 3)
      unit path (d=3)             B*m^3/2
    """
    _check_cell(k, n, d)
    b = math.comb(n, k)
    m = k * (n - k)
    if d == 1:
        return {"edge1": b * m // 2}
    if d == 2:
        return {"edge2": b * m // 2, "path": b * math.comb(m + 1, 2)}
    return {
        "edge3": b * m // 2,
        "path12": b * m * m,
        "star": b * math.comb(m + 2, 3),
        "path111": b * m**3 // 2,
    }


def count_by_shape(k: int, n: int, d: int) -> dict[str, int]:
    """Shape census of the enumeration: census_formula's keys, then any it lacks."""
    counts = Counter(topology(tree.edges).shape for tree in fixed_graphs(k, n, d))
    return {**dict.fromkeys(census_formula(k, n, d), 0), **counts}


def minimal_stratum(tree: DecoratedTree) -> tuple[int, int]:
    """The smallest Grassmannian the configuration genuinely lives in.

    Dropping the elements common to all labels and the ambient coordinates
    no label uses leaves a configuration in G(k - |common|, |union| -
    |common|); the pair (k0, n0) of that target is returned.
    """
    common = set(tree.vertices[0])
    union = set(tree.vertices[0])
    for lab in tree.vertices[1:]:
        s = set(lab)
        common &= s
        union |= s
    return (tree.k - len(common), len(union) - len(common))
