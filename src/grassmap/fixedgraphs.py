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

Enumeration generates labelled candidates shape by shape and deduplicates
through a canonical form (the minimum, over all vertex orderings, of the
relabelled encoding), so the output is deterministic and sorted.  The
encoding compares the vertex labels before the edges, so the minimum lists
the labels in sorted order and only orderings within runs of equal labels
need trying: one ordering for most trees instead of up to 24.  Degrees
4 and above are out of scope and raise UnsupportedDegreeError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class DecoratedTree:
    """A torus-fixed stable map: labelled tree plus edge degrees.

    vertices[i] is the k-subset labelling vertex i (a strictly increasing
    tuple); edges reference vertex indices.  Instances are value objects:
    two trees differing only by vertex order are distinct objects with the
    same canonical form.
    """

    k: int
    n: int
    vertices: tuple[GrassmannPoint, ...]
    edges: tuple[Edge, ...]

    @property
    def d(self) -> int:
        return sum(e.deg for e in self.edges)

    def valences(self) -> tuple[int, ...]:
        val = [0] * len(self.vertices)
        for e in self.edges:
            val[e.u] += 1
            val[e.v] += 1
        return tuple(val)

    def edge_frame(self, edge: Edge) -> tuple[tuple[int, ...], int, int]:
        """(shared (k-1)-set, element only in u's label, element only in v's)."""
        su = set(self.vertices[edge.u])
        sv = set(self.vertices[edge.v])
        shared = su & sv
        only_u = su - sv
        only_v = sv - su
        if len(only_u) != 1 or len(only_v) != 1:
            raise ValueError(
                f"labels {self.vertices[edge.u]} and {self.vertices[edge.v]} do not span a fixed line"
            )
        return tuple(sorted(shared)), only_u.pop(), only_v.pop()

    def validate(self) -> None:
        """Check every structural invariant, raising ValueError on the first failure."""
        if not 1 <= self.k < self.n:
            raise ValueError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if not self.vertices:
            raise ValueError("a tree needs at least one vertex")
        for lab in self.vertices:
            if len(lab) != self.k:
                raise ValueError(f"label {lab} does not have size {self.k}")
            if any(lab[i] >= lab[i + 1] for i in range(len(lab) - 1)):
                raise ValueError(f"label {lab} is not strictly increasing")
            if lab[0] < 1 or lab[-1] > self.n:
                raise ValueError(f"label {lab} leaves the range 1..{self.n}")
        if len(self.edges) != len(self.vertices) - 1:
            raise ValueError("edge count must be vertex count minus one")
        if self.d > MAX_DEGREE:
            raise UnsupportedDegreeError(f"total degree {self.d} exceeds {MAX_DEGREE}")
        seen = {0}
        frontier = [0]
        adjacency: dict[int, list[int]] = {i: [] for i in range(len(self.vertices))}
        for e in self.edges:
            if not (0 <= e.u < len(self.vertices) and 0 <= e.v < len(self.vertices)):
                raise ValueError(f"edge {e} references a missing vertex")
            if e.u == e.v:
                raise ValueError(f"edge {e} is a loop")
            if e.deg < 1:
                raise ValueError(f"edge {e} has non-positive degree")
            adjacency[e.u].append(e.v)
            adjacency[e.v].append(e.u)
            self.edge_frame(e)  # adjacent labels must share k-1 elements
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != len(self.vertices):
            raise ValueError("tree is not connected")
        if any(v > 3 for v in self.valences()):
            raise ValueError("vertex valence exceeds 3")

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

    def complemented(self) -> "DecoratedTree":
        """The same tree with every label replaced by its complement in {1..n}."""
        full = range(1, self.n + 1)
        verts = tuple(
            tuple(i for i in full if i not in set(lab)) for lab in self.vertices
        )
        return DecoratedTree(k=self.n - self.k, n=self.n, vertices=verts, edges=self.edges)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "d": self.d,
            "vertices": [list(lab) for lab in self.vertices],
            "edges": [{"u": e.u, "v": e.v, "deg": e.deg} for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DecoratedTree":
        tree = cls(
            k=int(data["k"]),
            n=int(data["n"]),
            vertices=tuple(tuple(int(i) for i in lab) for lab in data["vertices"]),
            edges=tuple(
                Edge(int(e["u"]), int(e["v"]), int(e["deg"])) for e in data["edges"]
            ),
        )
        tree.validate()
        if "d" in data and int(data["d"]) != tree.d:
            raise ValueError("stored degree disagrees with the edge degrees")
        return tree


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
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    if d > MAX_DEGREE:
        raise UnsupportedDegreeError(
            f"degree {d} not supported (tree shapes are classified only for d <= {MAX_DEGREE})"
        )


@cache
def enumerate_fixed_graphs(k: int, n: int, d: int) -> tuple[DecoratedTree, ...]:
    """All torus-fixed stable maps of degree d to G(k, n), up to isomorphism.

    Deterministic: the result is sorted by canonical form.  Cached, since
    the same cells are revisited by the census, the localization sum and
    the consistency sweeps.
    """
    _check_cell(k, n, d)
    labels = tuple(itertools.combinations(range(1, n + 1), k))
    nbr = {lab: _neighbor_labels(lab, n) for lab in labels}
    found: dict[tuple, DecoratedTree] = {}

    def offer(tree: DecoratedTree) -> None:
        key = tree.canonical_key()
        if key not in found:
            found[key] = tree

    # single edge carrying the whole degree
    for lab in labels:
        for other in nbr[lab]:
            if lab < other:
                offer(DecoratedTree(k, n, (lab, other), (Edge(0, 1, d),)))

    if d == 2:
        for center in labels:
            for l1, l2 in itertools.combinations_with_replacement(nbr[center], 2):
                offer(
                    DecoratedTree(
                        k, n, (center, l1, l2), (Edge(0, 1, 1), Edge(0, 2, 1))
                    )
                )
    elif d == 3:
        for center in labels:
            ns = nbr[center]
            for l1 in ns:  # unit-degree leg
                for l2 in ns:  # degree-2 leg; ordered, legs are distinguishable
                    offer(
                        DecoratedTree(
                            k, n, (center, l1, l2), (Edge(0, 1, 1), Edge(0, 2, 2))
                        )
                    )
            for triple in itertools.combinations_with_replacement(ns, 3):
                offer(
                    DecoratedTree(
                        k,
                        n,
                        (center, *triple),
                        (Edge(0, 1, 1), Edge(0, 2, 1), Edge(0, 3, 1)),
                    )
                )
        for c1 in labels:
            for c2 in nbr[c1]:
                for end1 in nbr[c1]:
                    for end2 in nbr[c2]:
                        # a path end1 - c1 - c2 - end2; generate one orientation only
                        if (c1, end1) < (c2, end2):
                            offer(
                                DecoratedTree(
                                    k,
                                    n,
                                    (end1, c1, c2, end2),
                                    (Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1)),
                                )
                            )

    return tuple(tree for _, tree in sorted(found.items()))


def shape_of(tree: DecoratedTree) -> str:
    """Shape bucket: edge1/edge2/edge3, path, path12, star, path111."""
    degs = sorted(e.deg for e in tree.edges)
    if len(tree.edges) == 1:
        return f"edge{degs[0]}"
    if len(tree.edges) == 2:
        return "path" if degs == [1, 1] else "path12"
    return "star" if max(tree.valences()) == 3 else "path111"


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
    """Shape census of the actual enumeration (same keys as census_formula)."""
    counts = dict.fromkeys(census_formula(k, n, d), 0)
    for tree in enumerate_fixed_graphs(k, n, d):
        counts[shape_of(tree)] += 1
    return counts


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
