"""Acceptance suite: the nine go/no-go checks for the package.

Each test prints a single ``[acceptance] <label>: PASS`` / ``FAIL`` line
(visible with ``pytest -s`` or in the captured output of a failing run) and
then asserts.  The file is named so pytest collects it first; timing-sensitive
checks therefore run on cold caches.
"""

import itertools
import time
from contextlib import contextmanager

from grassmap.closedform import (
    closed_form_result,
    repeated_leaf_family_closed_form,
    triangle_family_closed_form,
    triangle_family_index_sum,
)
from grassmap.fixedgraphs import (
    DecoratedTree,
    Edge,
    census_formula,
    count_by_shape,
    enumerate_fixed_graphs,
)
from grassmap.localization import (
    clear_poincare_cache,
    embedding_cross_check,
    fixed_point_report,
    moduli_dimension,
    poincare_localization,
    stratum_family_contribution,
)
from grassmap.qpoly import QPolynomial, partition_sum, qbinomial, reverse, verify_qbinomial_identities

PUBLISHED_ROWS = {
    (1, 3): [1, 2, 5, 7, 9, 7, 5, 2, 1],
    (1, 4): [1, 2, 6, 10, 17, 20, 24, 20, 17, 10, 6, 2, 1],
    (2, 4): [1, 3, 10, 22, 41, 60, 73, 73, 60, 41, 22, 10, 3, 1],
}

SWEEP = [(k, n, 2) for n in range(2, 8) for k in range(1, n)] + [
    (k, n, 3) for n in range(2, 7) for k in range(1, n)
]


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def cells(n_max, degrees):
    return [(k, n, d) for d in degrees for n in range(2, n_max + 1) for k in range(1, n)]


def test_criterion_1_published_betti_tables():
    with criterion("1 published-betti-tables"):
        for (k, n), row in PUBLISHED_ROWS.items():
            clear_poincare_cache()
            start = time.monotonic()
            via_fixed_points = poincare_localization(k, n, 3)
            loc_elapsed = time.monotonic() - start
            start = time.monotonic()
            via_closed_form = closed_form_result(k, n, 3).poincare
            closed_elapsed = time.monotonic() - start
            assert via_fixed_points.coefficient_list() == row, (k, n)
            assert via_closed_form.coefficient_list() == row, (k, n)
            assert loc_elapsed < 1.0, (k, n, loc_elapsed)
            assert closed_elapsed < 1.0, (k, n, closed_elapsed)


def test_criterion_2_master_equivalence():
    with criterion("2 localization-equals-closed-form"):
        start = time.monotonic()
        for k, n, d in SWEEP:
            closed = closed_form_result(k, n, d).poincare
            assert poincare_localization(k, n, d) == closed, (k, n, d)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, elapsed
        print(f"[acceptance]   (criterion 2 sweep: {len(SWEEP)} cells in {elapsed:.1f}s)")


def test_criterion_3_fixed_graph_census():
    with criterion("3 fixed-graph-census"):
        for k, n, d in cells(7, (1, 2, 3)):
            assert count_by_shape(k, n, d) == census_formula(k, n, d), (k, n, d)


def test_criterion_4_triangle_anchor():
    with criterion("4 triangle-anchor-G(2,3)"):
        anchor = DecoratedTree(
            k=2,
            n=3,
            vertices=((1, 2), (2, 3), (1, 3)),
            edges=(Edge(0, 1, 1), Edge(0, 2, 1)),
        )
        report = fixed_point_report(anchor)
        assert len(report.weights) == 5
        assert report.positives == 4 and report.negatives == 1


def test_criterion_5_structural_invariants():
    with criterion("5 structural-invariants"):
        for k, n, d in SWEEP:
            p = poincare_localization(k, n, d)  # cached from criterion 2
            dim = moduli_dimension(k, n, d)
            assert p.degree == dim, (k, n, d)
            assert p.coefficient(0) == 1 and p.coefficient(dim) == 1, (k, n, d)
            assert p == reverse(p, dim), (k, n, d)
            assert p == poincare_localization(n - k, n, d), (k, n, d)
            assert p(1) == len(enumerate_fixed_graphs(k, n, d)), (k, n, d)


def test_criterion_6_qbinomial_identities():
    with criterion("6 gaussian-binomial-identities"):
        for check in verify_qbinomial_identities(12):
            assert check.passed, (check.name, check.first_failure)
        for a in range(0, 11):
            for b in range(0, 11 - a):
                assert partition_sum(a, b) == qbinomial(a + b, a), (a, b)


def test_criterion_7_embedding_cross_check():
    with criterion("7 embedding-cross-check"):
        cases = 0
        for k, n, d in cells(5, (1, 2, 3)):
            for tree in enumerate_fixed_graphs(k, n, d):
                for m in range(1, n + 2):
                    for mode in ("iota", "kappa"):
                        assert embedding_cross_check(tree, m, mode), (k, n, d, m, mode)
                        cases += 1
        assert cases > 0
        print(f"[acceptance]   (criterion 7: {cases} embedding cases)")


def test_criterion_8_family_identities():
    with criterion("8 degree-2-family-identities"):
        for n in range(3, 7):
            for k in range(2, n):
                closed = triangle_family_closed_form(k, n)
                assert triangle_family_index_sum(k, n) == closed, (k, n)
                assert stratum_family_contribution(k, n, "G23_triangle") == closed, (k, n)
        # The repeated-leaf comparison is informational: the family predicate
        # rests on a resolved ambiguity, so disagreement is reported, not fatal.
        for n in range(2, 7):
            for k in range(1, n):
                sum_ = stratum_family_contribution(k, n, "G12_repeated")
                closed = repeated_leaf_family_closed_form(k, n)
                status = "agrees" if sum_ == closed else f"DIFFERS ({sum_} vs {closed})"
                print(f"[acceptance]   INFO repeated-leaf G({k},{n}): {status}")


def brute_force_flag_poincare(k, n):
    """Inversion statistic over arrangements of k-1 ones, two twos, n-k-1 threes.

    Counts the cells of the two-step flag of nested (k-1)- and (k+1)-planes
    in n-space directly, with no q-binomial machinery involved.
    """
    word = (1,) * (k - 1) + (2, 2) + (3,) * (n - k - 1)
    acc: dict[int, int] = {}
    for perm in set(itertools.permutations(word)):
        inv = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        acc[inv] = acc.get(inv, 0) + 1
    return QPolynomial(acc)


def test_criterion_9_degree_one_flag():
    with criterion("9 degree-1-flag-variety"):
        assert closed_form_result(2, 4, 1).poincare == brute_force_flag_poincare(2, 4)
        for n in range(2, 7):
            for k in range(1, n):
                flag = closed_form_result(k, n, 1).poincare
                assert flag == brute_force_flag_poincare(k, n), (k, n)
                assert poincare_localization(k, n, 1) == flag, (k, n)
