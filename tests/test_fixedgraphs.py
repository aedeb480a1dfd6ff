import itertools
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from grassmap.fixedgraphs import (
    DecoratedTree,
    Edge,
    UnsupportedDegreeError,
    census_formula,
    count_by_shape,
    enumerate_fixed_graphs,
    minimal_stratum,
    shape_of,
)


def tree(k, n, vertices, edges):
    return DecoratedTree(k, n, tuple(map(tuple, vertices)), tuple(Edge(*e) for e in edges))


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


class TestDecoratedTree:
    def test_valences_and_degree(self):
        t = tree(1, 3, [(1,), (2,), (3,)], [(0, 1, 1), (1, 2, 2)])
        assert t.d == 3
        assert t.valences() == (1, 2, 1)

    def test_edge_frame(self):
        t = tree(2, 4, [(1, 2), (2, 3)], [(0, 1, 1)])
        assert t.edge_frame(t.edges[0]) == ((2,), 1, 3)

    def test_validate_catches_each_break(self):
        good = tree(1, 2, [(1,), (2,)], [(0, 1, 1)])
        good.validate()
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
                bad.validate()

    def test_validate_rejects_big_degree(self):
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 4)])
        with pytest.raises(UnsupportedDegreeError):
            t.validate()

    def test_canonical_form_ignores_vertex_order(self):
        a = tree(1, 3, [(1,), (2,), (3,)], [(0, 1, 1), (1, 2, 2)])
        b = tree(1, 3, [(3,), (2,), (1,)], [(2, 1, 1), (1, 0, 2)])
        c = tree(1, 3, [(2,), (1,), (3,)], [(1, 0, 1), (0, 2, 2)])
        assert a.canonical_key() == b.canonical_key() == c.canonical_key()
        different = tree(1, 3, [(1,), (2,), (3,)], [(0, 1, 2), (1, 2, 1)])
        assert different.canonical_key() != a.canonical_key()

    def test_json_round_trip(self):
        t = tree(2, 4, [(1, 2), (2, 3), (2, 4)], [(0, 1, 1), (0, 2, 1)])
        blob = json.dumps(t.to_json_dict())
        assert DecoratedTree.from_json_dict(json.loads(blob)) == t

    def test_json_rejects_inconsistent_degree(self):
        doc = tree(1, 2, [(1,), (2,)], [(0, 1, 1)]).to_json_dict()
        doc["d"] = 2
        with pytest.raises(ValueError):
            DecoratedTree.from_json_dict(doc)

    def test_complemented(self):
        t = tree(1, 3, [(1,), (2,)], [(0, 1, 1)])
        c = t.complemented()
        assert c.k == 2 and c.vertices == ((2, 3), (1, 3))
        c.validate()


class TestEnumeration:
    def test_degree_one_line(self):
        got = enumerate_fixed_graphs(1, 2, 1)
        assert len(got) == 1
        assert got[0].vertices == ((1,), (2,))

    def test_degree_two_projective_line(self):
        got = enumerate_fixed_graphs(1, 2, 2)
        assert count_by_shape(1, 2, 2) == {"edge2": 1, "path": 2}
        # the two paths: fold back (1)-(2)-(1) and (2)-(1)-(2)
        paths = sorted(t.vertices for t in got if shape_of(t) == "path")
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
        for (k, n, d) in [(1, 3, 3), (2, 4, 2), (2, 4, 3)]:
            trees = enumerate_fixed_graphs(k, n, d)
            keys = set()
            for t in trees:
                t.validate()
                assert t.d == d and t.k == k and t.n == n
                keys.add(t.canonical_key())
            assert len(keys) == len(trees)

    def test_output_sorted_and_deterministic(self):
        trees = enumerate_fixed_graphs(2, 4, 3)
        keys = [t.canonical_key() for t in trees]
        assert keys == sorted(keys)

    def test_canonical_key_matches_exhaustive(self):
        for k, n, d in SMALL_CELLS:
            for t in enumerate_fixed_graphs(k, n, d):
                assert t.canonical_key() == exhaustive_key(t), t

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_canonical_key_ignores_relabeling(self, data):
        k, n, d = data.draw(st.sampled_from([(1, 2, 3), (1, 3, 3), (2, 4, 2), (2, 4, 3)]))
        t = data.draw(st.sampled_from(enumerate_fixed_graphs(k, n, d)))
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
            flipped = {
                t.complemented().canonical_key() for t in enumerate_fixed_graphs(3, 4, d)
            }
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
