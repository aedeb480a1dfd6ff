from fractions import Fraction as F

import pytest

from grassmap.fixedgraphs import DecoratedTree, Edge
from grassmap.weights import (
    TorusWeight,
    WeightConsistencyError,
    WeightMultiset,
    edge_h0_weights,
    embed_tree,
    embedding_weight_delta,
    grassmann_tangent_weights,
)


def w(*coeffs):
    return TorusWeight(len(coeffs), coeffs)


class TestTorusWeight:
    def test_sign_follows_highest_index(self):
        assert w(-1, 1).sign == 1          # a2 - a1 > 0
        assert w(1, -1).sign == -1         # a1 - a2 < 0
        assert w(5, 0, -F(1, 3)).sign == -1
        assert w(0, 0).sign == 0

    def test_algebra(self):
        assert w(1, 0) + w(0, 1) == w(1, 1)
        assert w(1, 2) - w(1, 2) == TorusWeight.zero(2)
        assert -w(1, -1) == w(-1, 1)
        assert 3 * w(1, 0) == w(3, 0)
        with pytest.raises(ValueError):
            w(1, 0) + w(1, 0, 0)

    def test_alpha(self):
        assert TorusWeight.alpha(3, 2) == w(0, 1, 0)
        with pytest.raises(ValueError):
            TorusWeight.alpha(3, 4)

    def test_hash_and_equality_by_value(self):
        assert w(F(1, 2), -F(1, 2)) == w(F(2, 4), -F(1, 2))
        assert hash(w(1, 0)) == hash(TorusWeight(2, (1, 0)))

    def test_insert_index(self):
        assert w(1, -1).insert_index(1) == w(0, 1, -1)
        assert w(1, -1).insert_index(2) == w(1, 0, -1)
        assert w(1, -1).insert_index(3) == w(1, -1, 0)
        with pytest.raises(ValueError):
            w(1, -1).insert_index(4)

    def test_encoded(self):
        assert w(1, 0, 0).encoded() == 6
        assert w(-1, 1, 0).encoded() == 6 * 32 - 6
        assert w(0, F(-1, 3), F(1, 2)).encoded() == 3 * 32**2 - 2 * 32
        for v in [w(-1, 1), w(1, -1), w(2, -2, F(1, 3)), w(-2, 2, -F(1, 3)), w(0, 0)]:
            assert (v.encoded() > 0) - (v.encoded() < 0) == v.sign
        with pytest.raises(WeightConsistencyError):
            w(F(1, 4), 0).encoded()  # not a multiple of 1/6
        with pytest.raises(WeightConsistencyError):
            w(0, 3).encoded()  # scaled coefficient 18 > 12

    def test_fraction_strings(self):
        v = w(-F(1, 2), F(1, 2), 0)
        assert v.to_fraction_strings() == ["-1/2", "1/2", "0"]
        assert TorusWeight.from_fraction_strings(["-1/2", "1/2", "0"]) == v


class TestWeightMultiset:
    def test_counts_and_cancellation(self):
        ws = WeightMultiset([w(1, 0), w(1, 0), w(0, 1)])
        assert ws.multiplicity(w(1, 0)) == 2
        ws.add(w(1, 0), -2)
        assert ws.multiplicity(w(1, 0)) == 0
        assert ws.total() == 1
        assert w(1, 0) not in ws

    def test_signed_assembly_then_equality(self):
        a = WeightMultiset()
        a.add(w(0, 1), 3)
        a.add(w(1, 0), -1)
        b = WeightMultiset()
        b.add(w(1, 0), -1)
        b.update([w(0, 1)], 3)
        assert a == b
        assert a.min_multiplicity() == -1

    def test_merged(self):
        a = WeightMultiset([w(1, 0)])
        b = WeightMultiset([w(1, 0), w(0, 1)])
        m = a.merged(b)
        assert m.multiplicity(w(1, 0)) == 2 and m.total() == 3
        # inputs untouched
        assert a.total() == 1 and b.total() == 2

    def test_sign_counts(self):
        ws = WeightMultiset([w(-1, 1), w(-1, 1), w(1, -1), w(0, 0)])
        assert ws.sign_counts() == (2, 1, 1)

    def test_expanded_requires_nonnegative(self):
        ws = WeightMultiset()
        ws.add(w(1, 0), -1)
        with pytest.raises(WeightConsistencyError):
            list(ws.expanded())


class TestGrassmannTangent:
    def test_projective_line(self):
        assert grassmann_tangent_weights((1,), 2) == WeightMultiset([w(-1, 1)])
        assert grassmann_tangent_weights((2,), 2) == WeightMultiset([w(1, -1)])

    def test_plane_in_three_space(self):
        got = grassmann_tangent_weights((1, 2), 3)
        assert got == WeightMultiset([w(-1, 0, 1), w(0, -1, 1)])

    def test_count(self):
        for n in range(2, 7):
            for k in range(1, n):
                label = tuple(range(1, k + 1))
                assert grassmann_tangent_weights(label, n).total() == k * (n - k)

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            grassmann_tangent_weights((2, 1), 3)
        with pytest.raises(ValueError):
            grassmann_tangent_weights((0,), 3)


class TestEdgeWeights:
    def test_degree_one_line_in_plane(self):
        # k=1, n=2: the tangent sections along the fixed line itself
        got = edge_h0_weights((), 1, 2, 1, 2)
        assert got == WeightMultiset([w(-1, 1), w(1, -1), w(0, 0)])

    def test_degree_two_cover(self):
        got = edge_h0_weights((), 1, 2, 2, 2)
        want = WeightMultiset(
            [
                w(-1, 1),
                w(1, -1),
                w(-F(1, 2), F(1, 2)),
                w(F(1, 2), -F(1, 2)),
                w(0, 0),
            ]
        )
        assert got == want

    def test_shared_element_families(self):
        # k=2, n=3, shared {2}, ends 1 and 3, degree 1: no coordinate is outside
        # both labels, so only families (b) and (d) contribute:
        # {a3-a2, a1-a2} from the sections hitting the shared element,
        # {a3-a1, 0, a1-a3} from the multiples along the line itself.
        got = edge_h0_weights((2,), 1, 3, 1, 3)
        want = WeightMultiset(
            [
                w(0, -1, 1),
                w(1, -1, 0),
                w(-1, 0, 1),
                w(0, 0, 0),
                w(1, 0, -1),
            ]
        )
        assert got.total() == 2 * 1 + 1 * 3  # k(n-k) + deg*n = 2 + 3
        assert got == want

    def test_size_and_single_zero_everywhere(self):
        # the count k(n-k) + deg*n and the lone zero, exhaustively to n=8
        from itertools import combinations

        for n in range(2, 9):
            for k in range(1, n):
                for shared in combinations(range(1, n + 1), k - 1):
                    rest = [i for i in range(1, n + 1) if i not in shared]
                    b_u, b_v = rest[0], rest[1]
                    for deg in (1, 2, 3):
                        ws = edge_h0_weights(shared, b_u, b_v, deg, n)
                        assert ws.total() == k * (n - k) + deg * n
                        assert ws.zero_multiplicity() == 1

    def test_symmetric_in_ends(self):
        for deg in (1, 2, 3):
            assert edge_h0_weights((2, 5), 1, 4, deg, 6) == edge_h0_weights((2, 5), 4, 1, deg, 6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            edge_h0_weights((1,), 1, 2, 1, 3)  # b_u inside shared
        with pytest.raises(ValueError):
            edge_h0_weights((), 1, 1, 1, 2)  # ends equal
        with pytest.raises(ValueError):
            edge_h0_weights((), 1, 2, 0, 2)  # degree zero
        with pytest.raises(ValueError):
            edge_h0_weights((), 1, 4, 1, 3)  # out of range


def unit_edge_tree():
    return DecoratedTree(1, 2, ((1,), (2,)), (Edge(0, 1, 1),))


class TestEmbeddings:
    def test_iota_single_edge(self):
        delta = embedding_weight_delta(unit_edge_tree(), 3, "iota")
        assert delta == WeightMultiset([w(0, -1, 1), w(-1, 0, 1)])

    def test_kappa_single_edge(self):
        delta = embedding_weight_delta(unit_edge_tree(), 3, "kappa")
        assert delta == WeightMultiset([w(0, 1, -1), w(1, 0, -1)])

    def test_iota_two_edge_path(self):
        tree = DecoratedTree(1, 2, ((1,), (2,), (1,)), (Edge(0, 1, 1), Edge(1, 2, 1)))
        delta = embedding_weight_delta(tree, 3, "iota")
        want = WeightMultiset()
        want.add(w(-1, 0, 1), 2)
        want.add(w(0, -1, 1), 1)  # two edge copies minus one at the valence-2 vertex
        assert delta == want

    def test_embedded_tree_shapes(self):
        tree = unit_edge_tree()
        iota = embed_tree(tree, 3, "iota")
        assert iota.k == 1 and iota.n == 3 and iota.vertices == ((1,), (2,))
        kappa = embed_tree(tree, 3, "kappa")
        assert kappa.k == 2 and kappa.n == 3 and kappa.vertices == ((1, 3), (2, 3))
        # inserting at the bottom shifts everything up
        low = embed_tree(tree, 1, "kappa")
        assert low.vertices == ((1, 2), (1, 3))

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            embed_tree(unit_edge_tree(), 4, "iota")
        with pytest.raises(ValueError):
            embedding_weight_delta(unit_edge_tree(), 0, "kappa")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            embed_tree(unit_edge_tree(), 3, "sigma")
