import itertools
import re
from collections import Counter
from fractions import Fraction as F

import pytest

import grassmap.embedding as embedding
import grassmap.localization as loc
import grassmap.weights as weights
import local_sum_oracle
from local_sum_oracle import TREE_PREDICATES, stratum_family_contribution, tangent_sign_counts, two_unit_path_legs
from fraction_oracle import embedding_delta, encoded, lift, sign_counts, tangent, weight
from grassmap.checks import SWEEP
from grassmap.cli import CACHE_ENV, main
from grassmap.embedding import failed_cases
from grassmap.fixedgraphs import DecoratedTree, Edge, enumerate_fixed_graphs, fixed_graphs, topology
from grassmap.localization import FAMILIES, family_sum, fixed_point_report, moduli_dimension, poincare_localization
from grassmap.qpoly import QPolynomial, qbinomial
from grassmap.weights import WeightConsistencyError
import residual_oracle
from residual_oracle import (
    _embedding_delta_ints,
    edge_embeds_exactly,
    edge_frame,
    embed_tree,
    embedding_cross_check,
    point_embeds_exactly,
    valences,
)
from test_acceptance import brute_force_flag_poincare
from test_fixedgraphs import rehung

SMALL_CELLS = [(k, n, d) for n in range(2, 6) for k in range(1, n) for d in (1, 2, 3)]


def tree(k, n, vertices, edges):
    return DecoratedTree(k, n, tuple(map(tuple, vertices)), tuple(Edge(*e) for e in edges))


def w(*coeffs):
    return tuple(F(c) for c in coeffs)


def nonzero(counts):
    return {w: mult for w, mult in counts.items() if mult}


def assert_tangent(t, want):
    """The oracle's and the program's tangent multisets at t are `want`."""
    assert tangent(t) == Counter(want)
    assert nonzero(loc._int_tangent(t)) == encoded(Counter(want))


class TestTangentWeights:
    def test_double_cover_of_projective_line(self):
        # single degree-2 edge (1)--(2) in G(1,2): weights +-(a2-a1)
        assert_tangent(tree(1, 2, [(1,), (2,)], [(0, 1, 2)]), [w(-1, 1), w(1, -1)])

    def test_folded_unit_path(self):
        # (2)-(1)-(2): node smoothing doubles the line direction
        assert_tangent(tree(1, 2, [(1,), (2,), (2,)], [(0, 1, 1), (0, 2, 1)]), [w(-1, 1), w(-2, 2)])

    def test_triangle_in_plane_grassmannian(self):
        # the anchor configuration (1,2)-(2,3), (1,2)-(1,3) in G(2,3)
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        want = [
            w(1, -1, 0),   # a1 - a2
            w(-1, 1, 0),   # a2 - a1
            w(0, -1, 1),   # a3 - a2
            w(-1, 0, 1),   # a3 - a1
            w(-1, -1, 2),  # 2a3 - a1 - a2  (node smoothing)
        ]
        assert_tangent(t, want)
        report = fixed_point_report(t)
        assert (report["positives"], report["negatives"]) == (4, 1)

    def test_degree_three_edge(self):
        # one degree-3 edge in G(1,2): the +-1/3 multiples of the line
        # direction go to reparametrizations, leaving +-1 and +-2/3
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 3)])
        diffs = sorted(v[1] for v in tangent(t).elements())
        assert diffs == [F(-1), F(-2, 3), F(2, 3), F(1)]
        rendered = fixed_point_report(t)["weights"]
        assert rendered == [["-1", "1"], ["-2/3", "2/3"], ["2/3", "-2/3"], ["1", "-1"]]

    def test_dimension_and_counts_on_a_sweep(self):
        for k, n, d in [(1, 3, 2), (2, 4, 2), (1, 3, 3), (2, 4, 3)]:
            dim = moduli_dimension(k, n, d)
            for t in enumerate_fixed_graphs(k, n, d):
                rep = fixed_point_report(t)
                assert rep["positives"] + rep["negatives"] == len(rep["weights"]) == dim
                ws = tangent(t)
                assert ws[weight(n)] == 0
                assert min(ws.values()) >= 0

    def test_report_serialization(self):
        t = tree(1, 2, [(1,), (2,)], [(0, 1, 2)])
        doc = fixed_point_report(t)
        assert doc["positives"] == 1 and doc["negatives"] == 1
        assert doc["weights"] == [["-1", "1"], ["1", "-1"]]
        assert doc["tree"] == t.to_json_dict()


class TestIntegerTangent:
    """The integer assembly against the Fraction oracle."""

    def test_multiset_matches_fraction_oracle(self):
        for k, n, d in SMALL_CELLS:
            for t in enumerate_fixed_graphs(k, n, d):
                oracle = tangent(t)
                assert nonzero(loc._int_tangent(t)) == encoded(oracle), t
                assert tangent_sign_counts(t) == sign_counts(oracle), t

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
            embedding_cross_check(t, 1, "iota")


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
            assert sum(p.coefficient_list()) == len(enumerate_fixed_graphs(k, n, d))

    def test_palindromic_with_unit_ends(self):
        for k, n, d in [(1, 3, 2), (2, 4, 3), (1, 4, 2)]:
            p = poincare_localization(k, n, d)
            dim = moduli_dimension(k, n, d)
            row = p.coefficient_list()
            assert len(row) - 1 == dim
            assert row == row[::-1]
            assert row[0] == 1 and row[dim] == 1

    def test_complement_symmetry(self):
        for d in (1, 2, 3):
            assert poincare_localization(1, 4, d) == poincare_localization(3, 4, d)
        assert poincare_localization(2, 5, 2) == poincare_localization(3, 5, 2)


ORACLE_CELLS = sorted({*SWEEP, *((k, n, 1) for n in range(2, 7) for k in range(1, n)), (3, 7, 3)})


@pytest.fixture
def fresh_sum():
    """The localization sum recomputed, and not kept, by the test."""
    poincare_localization.cache_clear()
    yield
    poincare_localization.cache_clear()


def _one_sided_leg_count(monkeypatch):
    # one more positive section weight on unit edges read from the lower
    # label's end only: a middle edge then counts its paths differently
    # from its two ends
    orig = loc._leg_count
    monkeypatch.setattr(loc, "_leg_count", lambda counts, b_u, b_v, deg:
                        orig(counts, b_u, b_v, deg) + (deg == 1 and b_u < b_v))


def _tangent_directions_off(monkeypatch, extra):
    # every label counts `extra` positive tangent directions too many
    orig = loc._label_counts

    def off(c, n):
        t, below, above = orig(c, n)
        return t + extra, below, above

    monkeypatch.setattr(loc, "_label_counts", off)


def _last_line_lost(monkeypatch):
    # each label loses its last fixed line
    orig = loc._lines
    monkeypatch.setattr(loc, "_lines", lambda *a: orig(*a)[:-1])


def _tree_moved_between_shapes(monkeypatch):
    # one star counted as a degrees-(1,2) path: the total still holds
    orig = loc._positive_counts

    def moved(*cell):
        shapes = orig(*cell)
        p = min(shapes["star"])
        shapes["star"][p] -= 1
        shapes["path12"][p] = shapes["path12"].get(p, 0) + 1
        return shapes

    monkeypatch.setattr(loc, "_positive_counts", moved)


SUM_FAULTS = [
    pytest.param((2, 4, 3), _one_sided_leg_count, "three-edge paths .* an odd number", id="parity"),
    pytest.param((2, 4, 2), lambda mp: _tangent_directions_off(mp, 50), r"outside 0\.\.9", id="above-dim"),
    pytest.param((2, 4, 2), lambda mp: _tangent_directions_off(mp, -50), "below the packing offset",
                 id="below-offset"),
    pytest.param((2, 4, 2), _last_line_lost, "the census counts 72", id="census"),
    pytest.param((2, 4, 3), _tree_moved_between_shapes, "path12 trees summed", id="shape-census"),
]


class TestLocalSum:
    """The sum of local terms against its oracles (the per-tree sum, the
    `Counter` sum, the materialized section families), and under faults."""

    @pytest.mark.parametrize("cell", ORACLE_CELLS, ids=lambda c: "-".join(map(str, c)))
    def test_equals_per_tree_sum(self, cell):
        per_tree = Counter(tangent_sign_counts(t)[0] for t in fixed_graphs(*cell))
        poincare_localization.cache_clear()
        assert poincare_localization(*cell) == QPolynomial(dict(per_tree))

    def test_odd_path111_count_raises(self, monkeypatch, fresh_sum):
        _one_sided_leg_count(monkeypatch)
        with pytest.raises(WeightConsistencyError, match="three-edge paths .* an odd number"):
            poincare_localization(2, 4, 3)

    def test_exponent_outside_dimension_raises(self, monkeypatch, fresh_sum):
        _tangent_directions_off(monkeypatch, 50)
        with pytest.raises(WeightConsistencyError, match=r"outside 0\.\.9"):
            poincare_localization(2, 4, 2)

    def test_count_below_the_packing_offset_raises(self, monkeypatch, fresh_sum):
        _tangent_directions_off(monkeypatch, -50)
        with pytest.raises(WeightConsistencyError, match="below the packing offset"):
            poincare_localization(2, 4, 2)

    def test_fixed_point_total_off_census_raises(self, monkeypatch, fresh_sum):
        _last_line_lost(monkeypatch)
        with pytest.raises(WeightConsistencyError, match="the census counts 72"):
            poincare_localization(2, 4, 2)

    def test_shape_total_off_its_census_raises(self, monkeypatch, fresh_sum):
        _tree_moved_between_shapes(monkeypatch)
        with pytest.raises(WeightConsistencyError, match=r"path12 trees summed in \(2,4,3\), its census counts 96"):
            poincare_localization(2, 4, 3)

    @pytest.mark.parametrize("cell,fault,message", SUM_FAULTS)
    def test_a_faulty_sum_exits_1(self, capsys, monkeypatch, fresh_sum, cell, fault, message):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        fault(monkeypatch)
        k, n, d = map(str, cell)
        assert main(["betti", "-k", k, "-n", n, "-d", d, "--method", "loc"]) == 1
        assert re.match(f"mathematical inconsistency: .*{message}", capsys.readouterr().err)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_equals_the_counter_sum(self, n):
        for k in range(1, n):
            for d in (1, 2, 3):
                packed = Counter()
                for counts in loc._positive_counts(k, n, d).values():
                    packed.update(counts)
                assert packed == local_sum_oracle.positive_counts(k, n, d), (k, n, d)

    @pytest.mark.parametrize("cell", SMALL_CELLS, ids=lambda c: "-".join(map(str, c)))
    def test_each_shape_equals_its_trees(self, cell):
        per_tree = {}
        for t in fixed_graphs(*cell):
            per_tree.setdefault(topology(t.edges).shape, Counter())[tangent_sign_counts(t)[0]] += 1
        assert loc._positive_counts(*cell) == per_tree

    def test_leg_count_equals_the_materialized_family(self):
        for n in range(2, 9):
            for k in range(1, n):
                for c in itertools.combinations(range(1, n + 1), k):
                    counts = loc._label_counts(c, n)
                    for b_u, b_v in loc._lines(c, n):
                        shared = tuple(a for a in c if a != b_u)
                        for deg in (1, 2, 3):
                            family = weights._edge_h0_ints.__wrapped__(shared, b_u, b_v, deg, n)
                            assert loc._leg_count(counts, b_u, b_v, deg) == sum(w > 0 for w in family)

    def test_nothing_comes_from_the_closed_form(self):
        assert all(getattr(v, "__module__", None) != "grassmap.closedform" for v in vars(loc).values())
        assert "closedform" not in vars(loc)


class TestDegreeOneOracle:
    def test_product_formula_against_inversion_count(self):
        got = qbinomial(4, 1) * qbinomial(3, 2)
        assert got == brute_force_flag_poincare(2, 4)

    def test_localization_matches_flag_product(self):
        for n in range(2, 7):
            for k in range(1, n):
                want = qbinomial(n, k - 1) * qbinomial(n - k + 1, 2)
                assert poincare_localization(k, n, 1) == want, (k, n)


class TestFamilies:
    """`family_sum` against the per-tree sums over the trees the oracle's
    predicates select, and under a fault in the leg counts."""

    def test_triangle_anchor_value(self):
        assert family_sum(2, 3, "triangle") == QPolynomial({4: 1})

    def test_triangle_empty_for_lines(self):
        assert family_sum(1, 5, "triangle") == QPolynomial()

    def test_repeated_leaf_anchor_value(self):
        assert family_sum(1, 2, "repeated-leaf") == QPolynomial({2: 1})

    def test_family_members_have_the_right_stratum(self):
        from grassmap.fixedgraphs import minimal_stratum

        for t in enumerate_fixed_graphs(2, 4, 2):
            if TREE_PREDICATES["triangle"](t):
                assert minimal_stratum(t) == (2, 3)
            if TREE_PREDICATES["repeated-leaf"](t):
                assert minimal_stratum(t) == (1, 2)

    def test_families_are_disjoint(self):
        for t in enumerate_fixed_graphs(2, 4, 2):
            assert not (TREE_PREDICATES["triangle"](t) and TREE_PREDICATES["repeated-leaf"](t))

    def test_the_rules_are_the_tree_predicates(self):
        assert set(FAMILIES) == set(TREE_PREDICATES)
        for n in range(2, 7):
            for k in range(1, n):
                for t in fixed_graphs(k, n, 2):
                    legs = two_unit_path_legs(t)
                    for family, rule in FAMILIES.items():
                        if legs is None:  # a degree-2 edge is in no family
                            assert not TREE_PREDICATES[family](t), t
                            continue
                        (_, u1, v1), (_, u2, v2) = legs
                        assert rule(u1, v1, u2, v2) == rule(u2, v2, u1, v1) == TREE_PREDICATES[family](t), t

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_the_per_tree_sum(self, n):
        for k in range(1, n):
            for family, predicate in TREE_PREDICATES.items():
                assert family_sum(k, n, family) == stratum_family_contribution(k, n, predicate), (k, n, family)

    def test_a_faulty_leg_count_fails_the_check(self, capsys, monkeypatch):
        _one_sided_leg_count(monkeypatch)
        assert main(["verify", "--suite", "families", "--max-n", "4"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^FAIL  families triangle \(2,3\)", out, re.M), out
        assert out.endswith("CHECKS FAILED\n")


def all_cases(n):
    """Every case (m, mode) of a tree in n coordinates: slots 1..n+1, both modes."""
    return [(m, mode) for m in range(1, n + 2) for mode in embedding.MODES]


def oracle_failures(t):
    """The cases the per-case check of tests/residual_oracle.py fails."""
    return {case for case in all_cases(t.n) if not embedding_cross_check(t, *case)}


def _patch_family(monkeypatch, name, patched):
    """A fault in the int family `name` of `weights`, seen by both of its
    readers: the tangent (`localization`) and the embedding check."""
    for reader in (loc, embedding):
        monkeypatch.setattr(reader, name, patched)


def _lift_last(monkeypatch):
    # the new character always last: right at slot n+1 only
    monkeypatch.setattr(embedding, "_lift", lambda code, m: code)


def _extra_at_first_iota_slot(monkeypatch):
    for name in ("_edge_surplus_ints", "_point_surplus_ints"):
        orig = getattr(embedding, name)

        def extra(*args, orig=orig):
            piece = orig(*args)
            return (*piece, piece[0]) if args[-2:] == (1, "iota") else piece

        monkeypatch.setattr(embedding, name, extra)


def _extra_at_top_iota_slot(monkeypatch):
    # each edge piece one weight too many at slot n+1 in mode iota, the `top`
    # fault of test_surplus_wrong_at_one_slot_fails_that_slot_only: the top-slot
    # surplus checked for every slot is wrong
    orig = embedding._edge_surplus_ints

    def extra(shared, b_u, b_v, deg, n, m, mode):
        piece = orig(shared, b_u, b_v, deg, n, m, mode)
        return (*piece, piece[0]) if (m, mode) == (n + 1, "iota") else piece

    monkeypatch.setattr(embedding, "_edge_surplus_ints", extra)


def _short_point_piece_at_first_iota_slot(monkeypatch):
    # each vertex piece one weight short at slot 1 in mode iota: only the
    # misfits of labels at vertices of valence >= 2 see it, and the surplus
    # there gains a weight without going negative
    orig = embedding._point_surplus_ints

    def short(label, n, m, mode):
        piece = orig(label, n, m, mode)
        return piece[:-1] if (m, mode) == (1, "iota") else piece

    monkeypatch.setattr(embedding, "_point_surplus_ints", short)


def _record_tangents(monkeypatch):
    """Record each tree whose tangent the embedding check assembles."""
    orig = embedding._int_tangent
    calls = []
    monkeypatch.setattr(embedding, "_int_tangent", lambda t: calls.append(t) or orig(t))
    return calls


class TestEmbeddingConsistency:
    def test_every_slot_and_mode_on_small_cells(self):
        for k, n, d in [(1, 2, 2), (1, 2, 3), (2, 3, 2), (1, 3, 2)]:
            for t in enumerate_fixed_graphs(k, n, d):
                for m in range(1, n + 2):
                    for mode in ("iota", "kappa"):
                        assert embedding_cross_check(t, m, mode), (k, n, d, m, mode)

    def test_per_tree_verdicts_equal_the_per_case_check(self):
        cases = 0
        for k, n, d in [(k, n, d) for n in range(2, 5) for k in range(1, n) for d in (1, 2, 3)]:
            for t in enumerate_fixed_graphs(k, n, d):
                assert failed_cases(t) == oracle_failures(t), t
                cases += len(all_cases(n))
        assert cases == 9404

    def test_one_tangent_per_tree(self, monkeypatch):
        # every tree is certified by its edges' memoized residuals, so none
        # assembles a tangent
        calls = _record_tangents(monkeypatch)
        for k, n, d in [(k, n, d) for n in range(2, 5) for k in range(1, n) for d in (1, 2, 3)]:
            for t in enumerate_fixed_graphs(k, n, d):
                failed_cases(t)
                assert calls == [], t

    @pytest.mark.parametrize("fault", [_lift_last, _extra_at_first_iota_slot, _extra_at_top_iota_slot],
                             ids=["lift-last", "extra-at-1-iota", "extra-at-top-iota"])
    def test_one_tangent_per_tree_under_a_fault(self, monkeypatch, fresh_int_families, fault):
        # a fault the misfits or the surplus residuals see fails cases, but the
        # base tangent stays certified: no tree assembles its tangent
        fault(monkeypatch)
        calls = _record_tangents(monkeypatch)
        for k, n, d in [(k, n, d) for n in range(2, 5) for k in range(1, n) for d in (1, 2, 3)]:
            for t in enumerate_fixed_graphs(k, n, d):
                assert failed_cases(t), t
                assert calls == [], t


def _clear_memos():
    """Empty every memo of `grassmap.weights`, `grassmap.localization` and
    `grassmap.embedding`: each of their attributes with a `cache_clear`."""
    for module in (weights, loc, embedding):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.fixture
def fresh_int_families():
    """Empty every memo of the int families and of what is built from them
    (`_clear_memos`) before and after a test that patches a family: no value
    computed from a patched family outlives the test, and no stale residual,
    misfit set or certificate meets the patched family."""
    _clear_memos()
    yield
    _clear_memos()


class TestIntegerEmbedding:
    """The integer embedding cross-check against the Fraction oracle."""

    def test_matches_fraction_oracle(self):
        for k, n, d in [(k, n, d) for n in range(2, 5) for k in range(1, n) for d in (1, 2, 3)]:
            for t in enumerate_fixed_graphs(k, n, d):
                base = tangent(t)
                for m in range(1, n + 2):
                    lifted = lift(base, m)
                    fast_lift = Counter({embedding._lift(code, m): mult for code, mult in loc._int_tangent(t).items()})
                    assert nonzero(fast_lift) == encoded(lifted), (t, m)
                    for mode in ("iota", "kappa"):
                        delta = embedding_delta(t, m, mode)
                        assert min(delta.values(), default=0) >= 0, (t, m, mode)
                        fast_delta = _embedding_delta_ints(t, m, mode)
                        assert nonzero(fast_delta) == encoded(delta), (t, m, mode)
                        merged = lifted.copy()
                        merged.update(delta)
                        verdict = tangent(embed_tree(t, m, mode)) == merged  # zero entries ignored
                        assert embedding_cross_check(t, m, mode) == verdict, (t, m, mode)

    def test_negative_surplus_raises(self, monkeypatch):
        orig = _embedding_delta_ints

        def overdrawn(*args):
            surplus = orig(*args)
            surplus.subtract({w: mult + 1 for w, mult in surplus.items()})
            return surplus

        monkeypatch.setattr(residual_oracle, "_embedding_delta_ints", overdrawn)
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        for mode in ("iota", "kappa"):
            with pytest.raises(WeightConsistencyError, match="surplus went negative"):
                embedding_cross_check(t, 2, mode)

    @pytest.mark.parametrize("broken_mode", ["iota", "kappa"])
    def test_negative_surplus_piece_raises_tree_by_tree(self, monkeypatch, fresh_int_families, broken_mode):
        # in one mode, each edge piece adds one weight too many and the center's
        # piece removes two: the surplus keeps its size but goes negative
        edge_piece, point_piece = embedding._edge_surplus_ints, embedding._point_surplus_ints
        monkeypatch.setattr(embedding, "_edge_surplus_ints",
                            lambda *a: (*edge_piece(*a), 1) if a[-1] == broken_mode else edge_piece(*a))
        monkeypatch.setattr(embedding, "_point_surplus_ints",
                            lambda *a: (*point_piece(*a), 2, 2) if a[-1] == broken_mode else point_piece(*a))
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        with pytest.raises(WeightConsistencyError, match="surplus went negative"):
            failed_cases(t)

    @pytest.mark.parametrize("broken", [
        lambda piece: (0, *piece[1:]),  # a zero in place of a weight
        lambda piece: (*piece, piece[0]),  # one weight too many
    ], ids=["zero", "extra"])
    def test_wrong_surplus_piece_fails_tree_by_tree(self, monkeypatch, fresh_int_families, broken):
        orig = embedding._edge_surplus_ints
        monkeypatch.setattr(embedding, "_edge_surplus_ints", lambda *a: broken(orig(*a)))
        t = tree(2, 4, [(1, 2), (2, 3)], [(0, 1, 3)])
        failed = failed_cases(t)
        assert failed == set(all_cases(t.n))
        assert failed == oracle_failures(t)

    @pytest.mark.parametrize("at_top", [False, True], ids=["first", "top"])
    def test_surplus_wrong_at_one_slot_fails_that_slot_only(self, monkeypatch, fresh_int_families, at_top):
        # in mode iota, each edge piece adds one weight too many at one slot only.
        # The misfits single out that slot, and so does the per-case check.  At
        # the top slot the surplus checked for every slot is wrong, so it is
        # uncertified and every iota case fails.
        orig = embedding._edge_surplus_ints

        def extra_at_one_slot(shared, b_u, b_v, deg, n, m, mode):
            piece = orig(shared, b_u, b_v, deg, n, m, mode)
            wrong = m == (n + 1 if at_top else 1) and mode == "iota"
            return (*piece, piece[0]) if wrong else piece

        monkeypatch.setattr(embedding, "_edge_surplus_ints", extra_at_one_slot)
        for t in (tree(2, 4, [(1, 2), (2, 3)], [(0, 1, 3)]),
                  tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])):
            wrong = (t.n + 1 if at_top else 1, "iota")
            failed = failed_cases(t)
            assert oracle_failures(t) == {wrong}
            assert set().union(*(share.misfits for share in embedding._edge_shares(t))) == {wrong}
            assert failed == ({(m, "iota") for m in range(1, t.n + 2)} if at_top else {wrong})

    def test_vertex_surplus_wrong_at_one_slot_fails_that_slot_only(self, monkeypatch, fresh_int_families):
        # in mode iota at slot 1 only, each vertex piece removes one weight too
        # many.  Every label weight enters once per edge at the vertex and
        # leaves v-1 times, so at valence 2 the surplus loses a weight without
        # going negative, and only that case is wrong.
        orig = embedding._point_surplus_ints

        def extra_at_first_slot(label, n, m, mode):
            piece = orig(label, n, m, mode)
            return (*piece, piece[0]) if (m, mode) == (1, "iota") else piece

        monkeypatch.setattr(embedding, "_point_surplus_ints", extra_at_first_slot)
        for t in (tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)]),
                  tree(1, 3, [(1,), (2,), (3,), (2,)], [(0, 1, 1), (1, 2, 1), (2, 3, 1)]),
                  tree(2, 4, [(1, 2), (1, 3), (3, 4)], [(0, 1, 2), (1, 2, 1)])):
            assert failed_cases(t) == oracle_failures(t) == {(1, "iota")}, t

    @pytest.mark.parametrize("side", ["direct", "lifted"])
    def test_each_tangent_is_checked(self, monkeypatch, side):
        orig = loc._int_tangent

        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])

        def stray_zero(s):
            ws = orig(s)
            if (s.n > t.n) == (side == "direct"):  # the embedded tree has one more coordinate
                ws[0] += 1
            return ws

        monkeypatch.setattr(loc, "_int_tangent", stray_zero)
        with pytest.raises(WeightConsistencyError, match="zero weight survived"):
            embedding_cross_check(t, 2, "kappa")

    @pytest.mark.parametrize("side", ["direct", "lifted", "both"])
    @pytest.mark.parametrize("family,n_at,broken,message", [
        # a zero no reparametrization cancels
        ("_edge_h0_ints", 4, lambda ws: (*ws, 0), "zero weight survived"),
        # a zero removed that nothing adds
        ("_point_tangent_ints", 1, lambda ws: (*ws, 0), "negative multiplicity"),
        # a domain character that no section weight matches
        ("_domain_tangent_int", 0, lambda w: w + 1, "negative multiplicity"),
    ], ids=["edge", "point", "omega"])
    def test_each_tangent_is_checked_tree_by_tree(self, monkeypatch, fresh_int_families,
                                                  family, n_at, broken, message, side):
        orig = getattr(weights, family)
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])

        def patched(*args):
            # argument `n_at` is the family's n, one more on the direct side (the
            # embedded tree).  Broken on both sides, the residuals may stay empty,
            # and the base tangent's check sees it first.
            direct = args[n_at] > t.n
            return broken(orig(*args)) if side == "both" or direct == (side == "direct") else orig(*args)

        _patch_family(monkeypatch, family, patched)
        if side != "direct":
            with pytest.raises(WeightConsistencyError, match=message):
                failed_cases(t)
            return
        # broken on the embedded side only: every case fails, and the per-case
        # oracle, which assembles the embedded tangent, raises on each
        assert failed_cases(t) == set(all_cases(t.n))
        for case in all_cases(t.n):
            with pytest.raises(WeightConsistencyError, match=message):
                embedding_cross_check(t, *case)

    # wrong lifts of the (2,3) two-edge path's weights, n = 3, and the slots
    # each gets right: the new character always last (right at m = 4 only), or
    # always one slot further on (right at none)
    WRONG_LIFTS = pytest.mark.parametrize("wrong_lift,right_slots", [
        (lambda code, m: code, {4}),
        (lambda code, m, lift=embedding._lift: lift(code, m % 4 + 1), set()),
    ], ids=["last", "next"])

    @WRONG_LIFTS
    def test_wrong_lift_table_fails_the_check(self, monkeypatch, fresh_int_families, wrong_lift, right_slots):
        monkeypatch.setattr(embedding, "_lift", wrong_lift)
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        for mode in ("iota", "kappa"):
            assert not embedding_cross_check(t, 1, mode)
            assert embedding_cross_check(t, 4, mode) == (4 in right_slots)

    @WRONG_LIFTS
    def test_wrong_lift_table_fails_tree_by_tree(self, monkeypatch, fresh_int_families, wrong_lift, right_slots):
        monkeypatch.setattr(embedding, "_lift", wrong_lift)
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        failed = failed_cases(t)
        for mode in ("iota", "kappa"):
            assert (1, mode) in failed
            assert ((4, mode) not in failed) == (4 in right_slots)
        assert failed == oracle_failures(t)
        assert {m for m, _ in set(all_cases(t.n)) - failed} == right_slots


class TestMisfitSets:
    """The all-slot misfit sets against the per-case residuals of tests/residual_oracle.py."""

    @pytest.mark.parametrize("fault", [None, _lift_last, _extra_at_first_iota_slot],
                             ids=["none", "lift-last", "extra-at-1-iota"])
    def test_match_the_per_case_residuals(self, monkeypatch, fresh_int_families, fault):
        if fault:
            fault(monkeypatch)
        frames, labels = set(), set()
        for k, n, d in [(k, n, d) for n in range(2, 5) for k in range(1, n) for d in (1, 2, 3)]:
            for t in enumerate_fixed_graphs(k, n, d):
                frames.update((*edge_frame(t, edge), edge.deg, n) for edge in t.edges)
                labels.update((label, n) for label in t.vertices)

        misfits = []
        for frame in frames:
            want = {case for case in all_cases(frame[-1]) if not edge_embeds_exactly(*frame, *case)}
            assert embedding._edge_misfits(*frame) == want, frame
            misfits.append(want)
        for label, n in labels:
            want = {case for case in all_cases(n) if not point_embeds_exactly(label, n, *case)}
            assert embedding._point_misfits(label, n) == want, (label, n)
            misfits.append(want)
        assert any(misfits) == (fault is not None)


def _broken_family(family, n_at, broken, side):
    """The faults of `test_each_tangent_is_checked_tree_by_tree` for the trees in
    n coordinates: the family is broken on the direct side (its argument
    `n_at`, the family's n, above n), the lifted side or both."""
    def fault(monkeypatch, n):
        orig = getattr(weights, family)

        def patched(*args):
            direct = args[n_at] > n
            return broken(orig(*args)) if side == "both" or direct == (side == "direct") else orig(*args)

        _patch_family(monkeypatch, family, patched)
    return fault


TANGENT_FAULTS = {f"{name}-{side}": _broken_family(family, n_at, broken, side)
                  for name, family, n_at, broken in [
                      ("edge", "_edge_h0_ints", 4, lambda ws: (*ws, 0)),
                      ("edge-extra", "_edge_h0_ints", 4, lambda ws: (*ws, ws[0])),
                      ("point", "_point_tangent_ints", 1, lambda ws: (*ws, 0)),
                      ("omega", "_domain_tangent_int", 0, lambda w: w + 1)]
                  for side in ("direct", "lifted", "both")}
# every fault patched for the trees in n coordinates
CERTIFICATE_FAULTS = {
    **{name: lambda monkeypatch, n, fault=fault: fault(monkeypatch)
       for name, fault in [("lift-last", _lift_last), ("extra-at-1-iota", _extra_at_first_iota_slot),
                           ("extra-at-top-iota", _extra_at_top_iota_slot)]},
    **TANGENT_FAULTS,
}


# the certificate faults, and one that only the misfits see
VERDICT_FAULTS = {**CERTIFICATE_FAULTS, "short-point-at-1-iota": lambda monkeypatch, n:
                  _short_point_piece_at_first_iota_slot(monkeypatch)}


def _surplus_holds(t, m, mode, size):
    """Does the tree's surplus at slot m hold no negative multiplicity, no zero
    and `size` weights?"""
    surplus = _embedding_delta_ints(t, m, mode)
    return min(surplus.values(), default=0) >= 0 and not surplus[0] and sum(surplus.values()) == size


class TestCertificate:
    """The per-edge residual certificate against the full checks it stands for."""

    def test_every_small_tree_is_certified(self):
        # every tree with n <= 5 has its base tangent and both surpluses certified
        trees = [t for n in range(2, 6) for k in range(1, n) for d in (1, 2, 3) for t in fixed_graphs(k, n, d)]
        assert len(trees) == 6406
        assert [t for t in trees if embedding._certified(t, embedding._edge_shares(t)) != (True, True, True)] == []

    @pytest.mark.parametrize("fault", CERTIFICATE_FAULTS.values(), ids=CERTIFICATE_FAULTS)
    def test_certified_iff_the_full_check_passes(self, monkeypatch, fresh_int_families, fault):
        # under each fault, a tree's base tangent is certified iff it passes
        # `_checked_int_counts`, and its surplus in a mode iff the top-slot
        # surplus holds there
        def passes(t, k, n, d):
            try:
                tangent_sign_counts(t)
                base = True
            except WeightConsistencyError:
                base = False
            dim = moduli_dimension(k, n, d)
            return (base, *(_surplus_holds(t, n + 1, mode, moduli_dimension(k_up, n + 1, d) - dim)
                            for mode, k_up in zip(embedding.MODES, (k, k + 1))))

        for n in range(2, 5):
            with monkeypatch.context() as patch:
                fault(patch, n)
                _clear_memos()
                for k, d in [(k, d) for k in range(1, n) for d in (1, 2, 3)]:
                    for t in fixed_graphs(k, n, d):
                        assert embedding._certified(t, embedding._edge_shares(t)) == passes(t, k, n, d), t
        _clear_memos()

    def test_a_zero_node_weight_is_not_certified(self):
        # the folded unit path (2)-(1)-(2): its legs' domain characters at the
        # centre, made opposite, smooth the node to a zero weight
        t = tree(1, 2, [(1,), (2,), (2,)], [(0, 1, 1), (0, 2, 1)])
        shares = embedding._edge_shares(t)
        assert embedding._certified(t, shares) == (True, True, True)
        assert embedding._certified(t, [shares[0], shares[1]._replace(omega=-shares[0].omega)]) == (False, True, True)

    def test_a_tangent_its_shares_do_not_certify_raises(self, monkeypatch, fresh_int_families):
        # each edge family gains a weight x and every Grassmannian tangent two:
        # at the centre of a two-edge path they cancel, so the assembled tangent
        # passes its checks, but the edge hung from the centre keeps x at -1, and
        # the shares alone refuse the tree
        t = tree(2, 3, [(1, 2), (2, 3), (1, 3)], [(0, 1, 1), (0, 2, 1)])
        family, point = weights._edge_h0_ints, weights._point_tangent_ints
        _patch_family(monkeypatch, "_edge_h0_ints", lambda *a: (*family(*a), 5))
        _patch_family(monkeypatch, "_point_tangent_ints", lambda *a: (*point(*a), 5, 5))
        assert tangent_sign_counts(t) == (4, 1)
        assert embedding._certified(t, embedding._edge_shares(t))[0] is False
        with pytest.raises(WeightConsistencyError, match="do not certify"):
            failed_cases(t)

    @pytest.mark.parametrize("fault", [None, _short_point_piece_at_first_iota_slot, _extra_at_top_iota_slot],
                             ids=["none", "short-point-at-1-iota", "extra-at-top-iota"])
    def test_rehung_trees_keep_their_verdicts(self, monkeypatch, fresh_int_families, fault):
        # hung from another leaf, with edges oriented the other way, a tree keeps
        # its failed cases, equal to the per-case check's, except that a wrong
        # top-slot iota surplus fails every iota case, where the per-case check
        # fails the top one only
        if fault:
            fault(monkeypatch)
        cells = [(k, n, d) for n in (2, 3) for k in range(1, n) for d in (1, 2, 3)] + [(2, 4, 2)]
        for t in (t for cell in cells for t in fixed_graphs(*cell)):
            s = rehung(t)
            assert valences(s)[0] > 1 or len(s.edges) == 1
            failed = failed_cases(s)
            assert failed == failed_cases(t), s
            oracle = oracle_failures(s)
            if fault is _extra_at_top_iota_slot:
                assert failed == oracle | {(m, "iota") for m in range(1, s.n + 2)}, s
            else:
                assert failed == oracle, s
            if fault is None:
                assert embedding._certified(s, embedding._edge_shares(s)) == (True, True, True), s

    @pytest.mark.parametrize("fault", VERDICT_FAULTS.values(), ids=VERDICT_FAULTS)
    def test_no_verdict_passes_a_case_the_per_case_check_fails(self, monkeypatch, fresh_int_families, fault):
        # under each fault the failed cases may include cases the per-case
        # check passes, but never omit one it fails or raises on; a tree whose
        # check raises passes no case
        cases = passed = 0
        for n in (2, 3):
            with monkeypatch.context() as patch:
                fault(patch, n)
                _clear_memos()
                for t in (t for k in range(1, n) for d in (1, 2, 3) for t in fixed_graphs(k, n, d)):
                    try:
                        failed = failed_cases(t)
                    except WeightConsistencyError:
                        failed = set(all_cases(n))
                    assert failed <= set(all_cases(n)), t
                    for case in set(all_cases(n)) - failed:
                        assert embedding_cross_check(t, *case), (t, case)
                    cases += len(all_cases(n))
                    passed += len(all_cases(n)) - len(failed)
        _clear_memos()
        assert cases == 924
        assert passed < cases
