from collections import Counter
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import grassmap.localization as loc
from fraction_oracle import edge_h0, embedding_delta, encode, encoded, lift, point_tangent, sign, weight
from grassmap import embedding, weights
from grassmap.fixedgraphs import DecoratedTree, Edge, enumerate_fixed_graphs
from grassmap.weights import MAX_SCALED_COEFF, WEIGHT_SCALE, WeightConsistencyError
from residual_oracle import _embedding_delta_ints, embed_tree


def w(*coeffs):
    return tuple(F(c) for c in coeffs)


def nonzero(counts):
    return {w: mult for w, mult in counts.items() if mult}


def single_edge(deg):
    return DecoratedTree(1, 2, ((1,), (2,)), (Edge(0, 1, deg),))


class TestTorusWeight:
    def test_sign_follows_highest_index(self):
        assert sign(w(-1, 1)) == 1          # a2 - a1 > 0
        assert sign(w(1, -1)) == -1         # a1 - a2 < 0
        assert sign(w(5, 0, -F(1, 3))) == -1
        assert sign(w(0, 0)) == 0
        for v in [w(-1, 1), w(1, -1), w(2, -2, F(1, 3)), w(-2, 2, -F(1, 3)), w(0, 0)]:
            assert (encode(v) > 0) - (encode(v) < 0) == sign(v)

    def test_algebra(self):
        # the encoding is linear, so the int families may add, negate and
        # scale encoded characters in place of weights
        u, v = w(1, -F(1, 2), 0), w(0, F(1, 3), -1)
        assert encode(tuple(a + b for a, b in zip(u, v))) == encode(u) + encode(v)
        assert encode(tuple(-a for a in u)) == -encode(u)
        assert encode(tuple(2 * a for a in v)) == 2 * encode(v)
        p = weights._characters(3)
        assert all(encode(x) == sum(c * p[i] for i, c in enumerate(x, 1)) for x in (u, v))

    def test_alpha(self):
        # the encoded characters are the encoded basis weights a_i
        for n in range(1, 6):
            assert weights._characters(n)[1:] == tuple(encode(weight(n, (1, i))) for i in range(1, n + 1))

    def test_insert_index(self):
        for m, want in [(1, w(0, 1, -1)), (2, w(1, 0, -1)), (3, w(1, -1, 0))]:
            assert lift(Counter([w(1, -1)]), m) == Counter([want])
            assert embedding._lift(encode(w(1, -1)), m) == encode(want)

    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.integers(-MAX_SCALED_COEFF, MAX_SCALED_COEFF), min_size=n, max_size=n)))
    def test_encoded(self, digits):
        # a weight with scaled coefficients `digits`, encoded through the
        # character table, decodes to the same digits and has their sign; lifted
        # to any slot m, it decodes to the digits with a 0 inserted at m, and
        # keeps its sign
        n = len(digits)
        p = weights._characters(n)
        code = sum(digit * p[i] // WEIGHT_SCALE for i, digit in enumerate(digits, 1))
        assert weights._digits(code, n) == tuple(digits)
        top = next((digit for digit in reversed(digits) if digit), 0)
        assert (code > 0) - (code < 0) == (top > 0) - (top < 0)
        for m in range(1, n + 2):
            lifted = embedding._lift(code, m)
            assert weights._digits(lifted, n + 1) == (*digits[: m - 1], 0, *digits[m - 1 :])
            assert (lifted > 0) - (lifted < 0) == (code > 0) - (code < 0)

    def test_fraction_strings(self):
        v = w(-F(1, 2), F(1, 2), 0, 2, -F(2, 3))
        strings = [loc._sixths(digit) for digit in weights._digits(encode(v), 5)]
        assert strings == ["-1/2", "1/2", "0", "2", "-2/3"] == [str(c) for c in v]


class TestWeightMultiset:
    """Int multisets as `_checked_int_counts` and the reports read them."""

    UP, DOWN = encode(w(-1, 1)), encode(w(1, -1))

    def test_counts_and_cancellation(self):
        # entries netted to 0, the zero weight among them, count for nothing
        ws = Counter({self.UP: 1, self.DOWN: 1})
        for extra in (self.UP, encode(w(-2, 2)), 0):
            ws[extra] += 2
            ws[extra] -= 2
        assert loc._checked_int_counts(single_edge(2), ws) == (1, 1)

    def test_signed_assembly_then_equality(self):
        # the assembly keeps the netted zero weight as an entry of multiplicity
        # 0, and compares equal to its nonzero part (the per-case oracle of
        # tests/residual_oracle.py relies on both)
        t = DecoratedTree(2, 3, ((1, 2), (2, 3), (1, 3)), (Edge(0, 1, 1), Edge(0, 2, 1)))
        ws = loc._int_tangent(t)
        assert 0 in ws and ws[0] == 0
        assert ws == Counter(nonzero(ws))

    def test_sign_counts(self):
        ws = Counter({self.UP: 3, self.DOWN: 1})
        assert loc._checked_int_counts(single_edge(3), ws) == (3, 1)

    def test_expanded_requires_nonnegative(self, monkeypatch):
        monkeypatch.setattr(loc, "_int_tangent", lambda t: Counter({self.UP: 3, self.DOWN: 2, 6: -1}))
        with pytest.raises(WeightConsistencyError, match="negative multiplicity"):
            loc.fixed_point_report(single_edge(3))


def assert_family(oracle, ints, want):
    assert Counter(oracle) == Counter(want)
    assert Counter(ints) == Counter(map(encode, want))


class TestGrassmannTangent:
    def test_projective_line(self):
        assert_family(point_tangent((1,), 2), weights._point_tangent_ints((1,), 2), [w(-1, 1)])
        assert_family(point_tangent((2,), 2), weights._point_tangent_ints((2,), 2), [w(1, -1)])

    def test_plane_in_three_space(self):
        assert_family(point_tangent((1, 2), 3), weights._point_tangent_ints((1, 2), 3),
                      [w(-1, 0, 1), w(0, -1, 1)])

    def test_count(self):
        for n in range(2, 7):
            for k in range(1, n):
                label = tuple(range(1, k + 1))
                assert len(point_tangent(label, n)) == k * (n - k)
                assert len(weights._point_tangent_ints(label, n)) == k * (n - k)


def assert_edge(shared, b_u, b_v, deg, n, want):
    assert_family(edge_h0(shared, b_u, b_v, deg, n), weights._edge_h0_ints(shared, b_u, b_v, deg, n), want)


class TestEdgeWeights:
    def test_degree_one_line_in_plane(self):
        # k=1, n=2: the tangent sections along the fixed line itself
        assert_edge((), 1, 2, 1, 2, [w(-1, 1), w(1, -1), w(0, 0)])

    def test_degree_two_cover(self):
        want = [w(-1, 1), w(1, -1), w(-F(1, 2), F(1, 2)), w(F(1, 2), -F(1, 2)), w(0, 0)]
        assert_edge((), 1, 2, 2, 2, want)

    def test_shared_element_families(self):
        # k=2, n=3, shared {2}, ends 1 and 3, degree 1: no coordinate is outside
        # both labels, so only families (b) and (d) contribute:
        # {a3-a2, a1-a2} from the sections hitting the shared element,
        # {a3-a1, 0, a1-a3} from the multiples along the line itself.
        want = [w(0, -1, 1), w(1, -1, 0), w(-1, 0, 1), w(0, 0, 0), w(1, 0, -1)]
        assert len(want) == 2 * 1 + 1 * 3  # k(n-k) + deg*n = 2 + 3
        assert_edge((2,), 1, 3, 1, 3, want)

    def test_size_and_single_zero_everywhere(self):
        # the count k(n-k) + deg*n and the lone zero, exhaustively to n=8
        for n in range(2, 9):
            for k in range(1, n):
                for shared in combinations(range(1, n + 1), k - 1):
                    b_u, b_v = [i for i in range(1, n + 1) if i not in shared][:2]
                    for deg in (1, 2, 3):
                        ints = weights._edge_h0_ints(shared, b_u, b_v, deg, n)
                        fracs = edge_h0(shared, b_u, b_v, deg, n)
                        assert len(ints) == len(fracs) == k * (n - k) + deg * n
                        assert ints.count(0) == [sign(v) for v in fracs].count(0) == 1

    def test_symmetric_in_ends(self):
        for deg in (1, 2, 3):
            assert Counter(edge_h0((2, 5), 1, 4, deg, 6)) == Counter(edge_h0((2, 5), 4, 1, deg, 6))
            assert (Counter(weights._edge_h0_ints((2, 5), 1, 4, deg, 6))
                    == Counter(weights._edge_h0_ints((2, 5), 4, 1, deg, 6)))


def assert_delta(tree, m, mode, want):
    assert embedding_delta(tree, m, mode) == want
    assert nonzero(_embedding_delta_ints(tree, m, mode)) == encoded(want)


class TestEmbeddings:
    def test_iota_single_edge(self):
        assert_delta(single_edge(1), 3, "iota", Counter([w(0, -1, 1), w(-1, 0, 1)]))

    def test_kappa_single_edge(self):
        assert_delta(single_edge(1), 3, "kappa", Counter([w(0, 1, -1), w(1, 0, -1)]))

    def test_iota_two_edge_path(self):
        tree = DecoratedTree(1, 2, ((1,), (2,), (1,)), (Edge(0, 1, 1), Edge(1, 2, 1)))
        # two edge copies minus one at the valence-2 vertex
        assert_delta(tree, 3, "iota", Counter({w(-1, 0, 1): 2, w(0, -1, 1): 1}))

    def test_embedded_tree_shapes(self):
        tree = single_edge(1)
        iota = embed_tree(tree, 3, "iota")
        assert iota.k == 1 and iota.n == 3 and iota.vertices == ((1,), (2,))
        kappa = embed_tree(tree, 3, "kappa")
        assert kappa.k == 2 and kappa.n == 3 and kappa.vertices == ((1, 3), (2, 3))
        # inserting at the bottom shifts everything up
        low = embed_tree(tree, 1, "kappa")
        assert low.vertices == ((1, 2), (1, 3))
        for embedded in (iota, kappa, low):
            assert type(embedded) is DecoratedTree and embedded.edges == tree.edges

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError):
            embed_tree(single_edge(1), 4, "iota")
        with pytest.raises(ValueError):
            embed_tree(single_edge(1), 0, "kappa")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            embed_tree(single_edge(1), 3, "sigma")

    def test_surplus_at_each_slot_rotates_the_top_one(self):
        # the surplus at slot m is the one at slot n+1 with each weight's digit
        # n+1 moved down to slot m: `embedding.failed_cases` checks it there only
        def rotated(code, n, m):
            digits = list(weights._digits(code, n + 1))
            digits.insert(m - 1, digits.pop())
            return sum(digit * weights.WEIGHT_BASE**i for i, digit in enumerate(digits))

        cases = 0
        for k, n, d in [(k, n, d) for n in range(2, 5) for k in range(1, n) for d in (1, 2, 3)]:
            for t in enumerate_fixed_graphs(k, n, d):
                for mode in ("iota", "kappa"):
                    top = _embedding_delta_ints(t, n + 1, mode)
                    for m in range(1, n + 2):
                        want = Counter({rotated(w, n, m): mult for w, mult in top.items()})
                        assert _embedding_delta_ints(t, m, mode) == want, (t, m, mode)
                        cases += 1
        assert cases == 9404
