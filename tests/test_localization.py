import itertools
from fractions import Fraction as F

import pytest

import grassmap.localization as loc
from grassmap.fixedgraphs import DecoratedTree, Edge, enumerate_fixed_graphs
from grassmap.localization import (
    FAMILIES,
    embedding_cross_check,
    fixed_point_report,
    moduli_dimension,
    poincare_localization,
    stratum_family_contribution,
    tangent_sign_counts,
    tangent_weights,
)
from grassmap.qpoly import QPolynomial, qbinomial, reverse
from grassmap.weights import TorusWeight, WeightConsistencyError, WeightMultiset

SMALL_CELLS = [(k, n, d) for n in range(2, 6) for k in range(1, n) for d in (1, 2, 3)]


def tree(k, n, vertices, edges):
    return DecoratedTree(k, n, tuple(map(tuple, vertices)), tuple(Edge(*e) for e in edges))


def w(*coeffs):
    return TorusWeight(len(coeffs), coeffs)


class TestTangentWeights:
    def test_double_cover_of_projective_line(self):
        # single degree-2 edge (1)--(2) in G(1,2): weights +-(a2-a1)
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 2)])
        assert tangent_weights(t) == WeightMultiset([w(-1, 1), w(1, -1)])

    def test_folded_unit_path(self):
        # (2)-(1)-(2): node smoothing doubles the line direction
        t = tree(1, 2, [(1,), (2,), (2,)], [(0, 1, 1), (0, 2, 1)])
        assert tangent_weights(t) == WeightMultiset([w(-1, 1), w(-2, 2)])

    def test_triangle_in_plane_grassmannian(self):
        # the anchor configuration (1,2)-(2,3), (1,2)-(1,3) in G(2,3)
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        ws = tangent_weights(t)
        want = WeightMultiset(
            [
                w(1, -1, 0),   # a1 - a2
                w(-1, 1, 0),   # a2 - a1
                w(0, -1, 1),   # a3 - a2
                w(-1, 0, 1),   # a3 - a1
                w(-1, -1, 2),  # 2a3 - a1 - a2  (node smoothing)
            ]
        )
        assert ws == want
        report = fixed_point_report(t)
        assert (report.positives, report.negatives) == (4, 1)

    def test_degree_three_edge(self):
        # one degree-3 edge in G(1,2): the +-1/3 multiples of the line
        # direction go to reparametrizations, leaving +-1 and +-2/3
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 3)])
        ws = tangent_weights(t)
        diffs = sorted(v.coeffs[1] for v in ws.expanded())
        assert diffs == [F(-1), F(-2, 3), F(2, 3), F(1)]

    def test_dimension_and_counts_on_a_sweep(self):
        for k, n, d in [(1, 3, 2), (2, 4, 2), (1, 3, 3), (2, 4, 3)]:
            dim = moduli_dimension(k, n, d)
            for t in enumerate_fixed_graphs(k, n, d):
                rep = fixed_point_report(t)
                assert rep.positives + rep.negatives == dim
                assert rep.weights.zero_multiplicity() == 0
                assert rep.weights.min_multiplicity() > 0

    def test_report_serialization(self):
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 2)])
        doc = fixed_point_report(t).to_json_dict()
        assert doc["positives"] == 1 and doc["negatives"] == 1
        assert sorted(doc["weights"]) == [["-1", "1"], ["1", "-1"]]


class TestIntegerTangent:
    """The integer hot path against the Fraction multiset as oracle."""

    def test_multiset_matches_fraction_oracle(self):
        for k, n, d in SMALL_CELLS:
            for t in enumerate_fixed_graphs(k, n, d):
                oracle = tangent_weights(t)
                fast = {w: mult for w, mult in loc._int_tangent(t).items() if mult}
                assert fast == {w.encoded(): mult for w, mult in oracle.items()}, t
                assert tangent_sign_counts(t) == oracle.sign_counts()[:2], t

    @pytest.mark.parametrize(
        "family,broken,message",
        [
            # subtract a weight no family adds
            ("_point_tangent_ints", lambda orig: lambda *a: (*orig(*a), 1), "negative multiplicity"),
            # add a zero that no reparametrization cancels
            ("_edge_h0_ints", lambda orig: lambda *a: (*orig(*a), 0), "zero weight survived"),
            # add one nonzero weight too many per edge
            ("_edge_h0_ints", lambda orig: lambda *a: (*orig(*a), orig(*a)[0]), "tangent dimension"),
        ],
    )
    def test_broken_assembly_raises(self, monkeypatch, family, broken, message):
        monkeypatch.setattr(loc, family, broken(getattr(loc, family)))
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        with pytest.raises(WeightConsistencyError, match=message):
            tangent_sign_counts(t)
        with pytest.raises(WeightConsistencyError, match=message):
            stratum_family_contribution(2, 4, "G23_triangle")


class TestPoincare:
    def test_projective_line_degree_two(self):
        assert poincare_localization(1, 2, 2) == QPolynomial({0: 1, 1: 1, 2: 1})

    def test_point_moduli(self):
        # G(1,2), degree 1: single fixed map, zero-dimensional space
        p = poincare_localization(1, 2, 1)
        assert p == QPolynomial({0: 1})

    def test_euler_number_is_fixed_point_count(self):
        for k, n, d in [(1, 3, 2), (2, 4, 2), (1, 3, 3)]:
            p = poincare_localization(k, n, d)
            assert p(1) == len(enumerate_fixed_graphs(k, n, d))

    def test_palindromic_with_unit_ends(self):
        for k, n, d in [(1, 3, 2), (2, 4, 3), (1, 4, 2)]:
            p = poincare_localization(k, n, d)
            dim = moduli_dimension(k, n, d)
            assert p.degree == dim
            assert reverse(p, dim) == p
            assert p.coefficient(0) == 1 and p.coefficient(dim) == 1

    def test_complement_symmetry(self):
        for d in (1, 2, 3):
            assert poincare_localization(1, 4, d) == poincare_localization(3, 4, d)
        assert poincare_localization(2, 5, 2) == poincare_localization(3, 5, 2)

    def test_jobs_do_not_change_the_answer(self):
        serial = poincare_localization(1, 4, 2)
        import grassmap.localization as loc

        loc._poincare_cache.pop((1, 4, 2), None)
        assert poincare_localization(1, 4, 2, jobs=2) == serial


class TestDegreeOneOracle:
    @staticmethod
    def flag_by_inversions(k, n):
        """Poincare polynomial of the (k-1, k+1) flag in n-space, counted
        directly: inversions of arrangements of k-1 ones, two twos, n-k-1
        threes."""
        word = (1,) * (k - 1) + (2, 2) + (3,) * (n - k - 1)
        acc = {}
        for perm in set(itertools.permutations(word)):
            inv = sum(
                1
                for i in range(len(perm))
                for j in range(i + 1, len(perm))
                if perm[i] > perm[j]
            )
            acc[inv] = acc.get(inv, 0) + 1
        return QPolynomial(acc)

    def test_product_formula_against_inversion_count(self):
        got = qbinomial(4, 1) * qbinomial(3, 2)
        assert got == self.flag_by_inversions(2, 4)

    def test_localization_matches_flag_product(self):
        for n in range(2, 7):
            for k in range(1, n):
                want = qbinomial(n, k - 1) * qbinomial(n - k + 1, 2)
                assert poincare_localization(k, n, 1) == want, (k, n)


class TestFamilies:
    def test_triangle_anchor_value(self):
        assert stratum_family_contribution(2, 3, "G23_triangle") == QPolynomial({4: 1})

    def test_triangle_empty_for_lines(self):
        assert stratum_family_contribution(1, 5, "G23_triangle") == QPolynomial()

    def test_repeated_leaf_anchor_value(self):
        assert stratum_family_contribution(1, 2, "G12_repeated") == QPolynomial({2: 1})

    def test_family_members_have_the_right_stratum(self):
        from grassmap.fixedgraphs import minimal_stratum

        for t in enumerate_fixed_graphs(2, 4, 2):
            if FAMILIES["G23_triangle"](t):
                assert minimal_stratum(t) == (2, 3)
            if FAMILIES["G12_repeated"](t):
                assert minimal_stratum(t) == (1, 2)

    def test_families_are_disjoint(self):
        for t in enumerate_fixed_graphs(2, 4, 2):
            assert not (FAMILIES["G23_triangle"](t) and FAMILIES["G12_repeated"](t))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            stratum_family_contribution(1, 2, "nonsense")


class TestEmbeddingConsistency:
    def test_every_slot_and_mode_on_small_cells(self):
        for k, n, d in [(1, 2, 2), (1, 2, 3), (2, 3, 2), (1, 3, 2)]:
            for t in enumerate_fixed_graphs(k, n, d):
                for m in range(1, n + 2):
                    for mode in ("iota", "kappa"):
                        assert embedding_cross_check(t, m, mode), (k, n, d, m, mode)
