import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from grassmap.fixedgraphs import (
    MAX_DEGREE,
    DecoratedTree,
    Edge,
    UnsupportedDegreeError,
    _label_frame,
    census_formula,
    count_by_shape,
    enumerate_fixed_graphs,
    fixed_graphs,
    minimal_stratum,
    topology,
)
from residual_oracle import edge_frame, valences


def tree(k, n, vertices, edges):
    return DecoratedTree(k, n, tuple(map(tuple, vertices)), tuple(Edge(*e) for e in edges))


def complemented(t):
    """The same tree with every label replaced by its complement in {1..n}."""
    full = range(1, t.n + 1)
    verts = tuple(tuple(i for i in full if i not in set(lab)) for lab in t.vertices)
    return DecoratedTree(k=t.n - t.k, n=t.n, vertices=verts, edges=t.edges)


def validate(t):
    """Check every structural invariant of a tree, raising ValueError on the first failure."""
    if not 1 <= t.k < t.n:
        raise ValueError(f"need 1 <= k < n, got k={t.k}, n={t.n}")
    if not t.vertices:
        raise ValueError("a tree needs at least one vertex")
    for lab in t.vertices:
        if len(lab) != t.k:
            raise ValueError(f"label {lab} does not have size {t.k}")
        if any(lab[i] >= lab[i + 1] for i in range(len(lab) - 1)):
            raise ValueError(f"label {lab} is not strictly increasing")
        if lab[0] < 1 or lab[-1] > t.n:
            raise ValueError(f"label {lab} leaves the range 1..{t.n}")
    if len(t.edges) != len(t.vertices) - 1:
        raise ValueError("edge count must be vertex count minus one")
    if t.d > MAX_DEGREE:
        raise UnsupportedDegreeError(f"total degree {t.d} exceeds {MAX_DEGREE}")
    seen = {0}
    frontier = [0]
    adjacency = {i: [] for i in range(len(t.vertices))}
    for e in t.edges:
        if not (0 <= e.u < len(t.vertices) and 0 <= e.v < len(t.vertices)):
            raise ValueError(f"edge {e} references a missing vertex")
        if e.u == e.v:
            raise ValueError(f"edge {e} is a loop")
        if e.deg < 1:
            raise ValueError(f"edge {e} has non-positive degree")
        adjacency[e.u].append(e.v)
        adjacency[e.v].append(e.u)
        edge_frame(t, e)  # adjacent labels must share k-1 elements
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    if len(seen) != len(t.vertices):
        raise ValueError("tree is not connected")
    if any(v > 3 for v in valences(t)):
        raise ValueError("vertex valence exceeds 3")


def rehung(t):
    """The tree with its vertices renumbered, one of the highest valence first,
    and its edges listed in reverse, each from its v end to its u end: vertex 0
    is no leaf unless the tree is one edge, and edges run child-first."""
    valence = valences(t)
    order = sorted(range(len(t.vertices)), key=lambda i: -valence[i])
    new = {old: i for i, old in enumerate(order)}
    return t._replace(vertices=tuple(t.vertices[i] for i in order),
                      edges=tuple(Edge(new[e.v], new[e.u], e.deg) for e in reversed(t.edges)))


def slow_topology(t):
    """`topology` computed tree by tree, its oracle: the valences, the tree
    hung from its first leaf breadth first (each edge met first from its
    parent end), and the shape from the degrees and valences."""
    valence = valences(t)
    parents = {}
    reached = [valence.index(1)]
    for x in reached:
        for i, (u, v, _) in enumerate(t.edges):
            if i not in parents and x in (u, v):
                parents[i] = x
                reached.append(v if x == u else u)
    degs = sorted(e.deg for e in t.edges)
    if len(t.edges) == 1:
        shape = f"edge{degs[0]}"
    elif len(t.edges) == 2:
        shape = "path" if degs == [1, 1] else "path12"
    else:
        shape = "star" if max(valence) == 3 else "path111"
    return shape, valence, tuple(parents[i] for i in range(len(t.edges)))


def exhaustive_key(t):
    """The canonical key by brute force: the minimal encoding over every
    vertex ordering, as DecoratedTree.canonical_key defines it."""
    count = len(t.vertices)
    best = None
    for perm in itertools.permutations(range(count)):
        verts = [None] * count
        for old, new in enumerate(perm):
            verts[new] = t.vertices[old]
        edges = tuple(
            sorted((min(perm[e.u], perm[e.v]), max(perm[e.u], perm[e.v]), e.deg) for e in t.edges)
        )
        key = (tuple(verts), edges)
        if best is None or key < best:
            best = key
    return (t.k, t.n, *best)


SMALL_CELLS = [(k, n, d) for n in range(2, 6) for k in range(1, n) for d in (1, 2, 3)]


@pytest.fixture(scope="module")
def relabel_trees():
    """The trees of a few cells, enumerated once rather than per Hypothesis example."""
    return {cell: tuple(fixed_graphs(*cell)) for cell in [(1, 2, 3), (1, 3, 3), (2, 4, 2), (2, 4, 3)]}


class TestDecoratedTree:
    def test_valences_and_degree(self):
        t = tree(1, 3, [(1,), (2,), (3,)], [(0, 1, 1), (1, 2, 2)])
        assert t.d == 3
        assert topology(t.edges) == ("path12", (1, 2, 1), (0, 1))

    def test_edge_frame(self):
        assert _label_frame((1, 2), (2, 3)) == ((2,), 1, 3)
        assert _label_frame((2, 3), (1, 2)) == ((2,), 3, 1)
        for _ in range(2):  # memoized per label pair, but a refusal every time
            with pytest.raises(ValueError, match="do not span a fixed line"):
                _label_frame((1, 2), (3, 4))

    def test_validate_catches_each_break(self):
        good = tree(1, 2, [(1,), (2,)], [(0, 1, 1)])
        validate(good)
        cases = [
            tree(2, 2, [(1, 2)], []),                                  # k == n
            tree(1, 2, [(1,), (1,)], [(0, 1, 1)]),                     # labels not adjacent
            tree(2, 4, [(1, 2), (3, 4)], [(0, 1, 1)]),                 # share too little
            tree(1, 2, [(1,), (2,)], []),                              # edge count off
            tree(1, 2, [(1,), (2,), (1,), (2,)],
                 [(0, 1, 1), (0, 1, 1), (2, 3, 1)]),                   # disconnected
            tree(1, 2, [(1,), (2,)], [(0, 1, 0)]),                     # degree 0
            tree(2, 3, [(1, 3), (2, 1)], [(0, 1, 1)]),                 # label not increasing
        ]
        for bad in cases:
            with pytest.raises(ValueError):
                validate(bad)

    def test_validate_rejects_big_degree(self):
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 4)])
        with pytest.raises(UnsupportedDegreeError):
            validate(t)

    def test_canonical_form_ignores_vertex_order(self):
        a = tree(1, 3, [(1,), (2,), (3,)], [(0, 1, 1), (1, 2, 2)])
        b = tree(1, 3, [(3,), (2,), (1,)], [(2, 1, 1), (1, 0, 2)])
        c = tree(1, 3, [(2,), (1,), (3,)], [(1, 0, 1), (0, 2, 2)])
        assert a.canonical_key() == b.canonical_key() == c.canonical_key()
        different = tree(1, 3, [(1,), (2,), (3,)], [(0, 1, 2), (1, 2, 1)])
        assert different.canonical_key() != a.canonical_key()

    def test_complemented(self):
        t = tree(1, 3, [(1,), (2,)], [(0, 1, 1)])
        c = complemented(t)
        assert c.k == 2 and c.vertices == ((2, 3), (1, 3))
        validate(c)


class TestEnumeration:
    def test_degree_one_line(self):
        got = enumerate_fixed_graphs(1, 2, 1)
        assert len(got) == 1
        assert got[0].vertices == ((1,), (2,))

    def test_degree_two_projective_line(self):
        got = enumerate_fixed_graphs(1, 2, 2)
        assert count_by_shape(1, 2, 2) == {"edge2": 1, "path": 2}
        # the two paths: fold back (1)-(2)-(1) and (2)-(1)-(2)
        paths = sorted(t.vertices for t in got if topology(t.edges).shape == "path")
        assert paths == [((1,), (2,), (2,)), ((2,), (1,), (1,))]

    def test_degree_three_projective_line(self):
        assert count_by_shape(1, 2, 3) == {
            "edge3": 1,
            "path12": 2,
            "star": 2,
            "path111": 1,
        }

    @pytest.mark.parametrize(
        "k,n,d,total",
        [
            (1, 3, 2, 12),
            (2, 4, 2, 72),
            (2, 4, 3, 420),
            (1, 4, 3, 136),
        ],
    )
    def test_totals(self, k, n, d, total):
        assert len(enumerate_fixed_graphs(k, n, d)) == total

    def test_census_formula_matches_enumeration(self):
        for n in range(2, 6):
            for k in range(1, n):
                for d in (1, 2, 3):
                    assert count_by_shape(k, n, d) == census_formula(k, n, d)

    def test_all_outputs_valid_and_distinct(self):
        # no dedup stands behind the stream: each class must come out once
        for (k, n, d) in [(1, 3, 3), (2, 4, 2), (2, 4, 3), (2, 5, 3), (3, 6, 3), (2, 6, 2), (1, 6, 3)]:
            count = 0
            keys = set()
            for t in fixed_graphs(k, n, d):
                validate(t)
                assert t.d == d and t.k == k and t.n == n
                keys.add(t.canonical_key())
                count += 1
            assert len(keys) == count

    def test_three_edge_paths_run_from_the_smaller_middle_label(self):
        # each path end1 - c1 - c2 - end2 comes out in the one orientation c1 < c2
        for k, n in [(1, 3), (2, 4), (2, 5), (3, 6), (1, 6)]:
            paths = [t for t in fixed_graphs(k, n, 3) if topology(t.edges).shape == "path111"]
            assert paths and all(t.vertices[1] < t.vertices[2] for t in paths)

    def test_output_sorted_and_deterministic(self):
        trees = enumerate_fixed_graphs(2, 4, 3)
        keys = [t.canonical_key() for t in trees]
        assert keys == sorted(keys)

    def test_canonical_key_matches_exhaustive(self):
        for k, n, d in SMALL_CELLS:
            for t in enumerate_fixed_graphs(k, n, d):
                assert t.canonical_key() == exhaustive_key(t), t

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_canonical_key_ignores_relabeling(self, relabel_trees, data):
        k, n, d = data.draw(st.sampled_from(sorted(relabel_trees)))
        t = data.draw(st.sampled_from(relabel_trees[k, n, d]))
        perm = data.draw(st.permutations(range(len(t.vertices))))
        verts = [None] * len(t.vertices)
        for old, new in enumerate(perm):
            verts[new] = t.vertices[old]
        edges = data.draw(st.permutations([Edge(perm[e.u], perm[e.v], e.deg) for e in t.edges]))
        relabeled = DecoratedTree(k, n, tuple(verts), tuple(edges))
        assert relabeled.canonical_key() == t.canonical_key()

    def test_complement_bijection(self):
        for d in (1, 2, 3):
            ours = {t.canonical_key() for t in enumerate_fixed_graphs(1, 4, d)}
            flipped = {complemented(t).canonical_key() for t in enumerate_fixed_graphs(3, 4, d)}
            assert ours == flipped

    def test_domain_errors(self):
        with pytest.raises(UnsupportedDegreeError):
            enumerate_fixed_graphs(1, 3, 4)
        with pytest.raises(ValueError):
            enumerate_fixed_graphs(0, 3, 1)
        with pytest.raises(ValueError):
            enumerate_fixed_graphs(3, 3, 1)
        with pytest.raises(ValueError):
            enumerate_fixed_graphs(1, 3, 0)
        # the stream refuses on the call itself, before any tree is asked for
        with pytest.raises(UnsupportedDegreeError):
            fixed_graphs(1, 3, 4)
        for cell in [(0, 3, 1), (3, 3, 1), (1, 3, 0)]:
            with pytest.raises(ValueError):
                fixed_graphs(*cell)


class TestTopology:
    """`topology` against the per-tree code it replaced (`slow_topology`)."""

    def test_matches_the_per_tree_code(self):
        trees = [t for n in range(2, 6) for k in range(1, n) for d in (1, 2, 3) for t in fixed_graphs(k, n, d)]
        assert len(trees) == 6406
        for t in trees:
            s = rehung(t)
            assert topology(t.edges) == slow_topology(t), t
            assert topology(s.edges) == slow_topology(s), s
            assert topology(s.edges).shape == topology(t.edges).shape, s

    def test_one_entry_per_edges_tuple(self):
        # the census over every cell with n <= 7 meets seven edges tuples
        topology.cache_clear()
        for n in range(2, 8):
            for k in range(1, n):
                for d in (1, 2, 3):
                    count_by_shape(k, n, d)
        info = topology.cache_info()
        assert (info.misses, info.hits + info.misses) == (7, 179526)
        # a re-hung tree is another tuple: its own entry, with the same shape
        trees = {t.edges: t for d in (1, 2, 3) for t in fixed_graphs(1, 2, d)}
        assert len(trees) == 7
        for t in trees.values():
            assert topology(rehung(t).edges).shape == topology(t.edges).shape
        assert topology.cache_info().misses == 14


class TestMinimalStratum:
    def test_single_edge(self):
        assert minimal_stratum(tree(1, 5, [(2,), (4,)], [(0, 1, 1)])) == (1, 2)
        assert minimal_stratum(tree(3, 5, [(1, 2, 3), (1, 2, 4)], [(0, 1, 2)])) == (1, 2)

    def test_triangle_shape(self):
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        assert minimal_stratum(t) == (2, 3)

    def test_full_star(self):
        t = tree(
            3,
            6,
            [(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 3, 6)],
            [(0, 1, 1), (0, 2, 1), (0, 3, 1)],
        )
        assert minimal_stratum(t) == (3, 6)

    def test_repeated_leaf(self):
        t = tree(1, 4, [(3,), (1,), (1,)], [(0, 1, 1), (0, 2, 1)])
        assert minimal_stratum(t) == (1, 2)


def test_census_parity():
    # every formula divides evenly -- B*m and B*m^3 are always even
    for n in range(2, 9):
        for k in range(1, n):
            b, m = math.comb(n, k), k * (n - k)
            assert b * m % 2 == 0 and b * m**3 % 2 == 0
