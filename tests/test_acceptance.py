"""Acceptance suite: the nine go/no-go checks for the package.

Each test prints a single ``[acceptance] <label>: PASS`` / ``FAIL`` line
(visible with ``pytest -s`` or in the captured output of a failing run) and
then asserts.  The file is named so pytest collects it first; timing-sensitive
checks therefore run on cold caches.  Criteria 2, 3 and 5-8 assert the suites
of `grassmap.checks`, the same checks `grassmap verify` prints.
"""

import itertools
import time
from contextlib import contextmanager

from grassmap import checks
from grassmap.checks import PUBLISHED_ROWS
from grassmap.closedform import closed_form_result
from grassmap.fixedgraphs import DecoratedTree, Edge
from grassmap.localization import fixed_point_report, poincare_localization
from grassmap.qpoly import QPolynomial


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def assert_suite(suite):
    """Assert every check of a `grassmap.checks` suite at its default caps; print
    the informational ones.  Returns the number of checks asserted."""
    asserted = 0
    for label, ok, detail in suite(None):
        if ok is None:
            print(f"[acceptance]   INFO {label}{('  ' + detail) if detail else ''}")
        else:
            assert ok, (label, detail)
            asserted += 1
    assert asserted > 0, suite.__name__
    return asserted


def test_criterion_1_published_betti_tables():
    with criterion("1 published-betti-tables"):
        for (k, n), row in PUBLISHED_ROWS.items():
            poincare_localization.cache_clear()
            start = time.monotonic()
            via_fixed_points = poincare_localization(k, n, 3)
            loc_elapsed = time.monotonic() - start
            start = time.monotonic()
            via_closed_form = closed_form_result(k, n, 3)
            closed_elapsed = time.monotonic() - start
            assert via_fixed_points.coefficient_list() == row, (k, n)
            assert via_closed_form.coefficient_list() == row, (k, n)
            assert loc_elapsed < 1.0, (k, n, loc_elapsed)
            assert closed_elapsed < 1.0, (k, n, closed_elapsed)


def test_criterion_2_master_equivalence():
    with criterion("2 localization-equals-closed-form"):
        start = time.monotonic()
        cells = assert_suite(checks.theorems)
        elapsed = time.monotonic() - start
        assert elapsed < 300.0, elapsed
        print(f"[acceptance]   (criterion 2 sweep: {cells} cells in {elapsed:.1f}s)")


def test_criterion_3_fixed_graph_census():
    with criterion("3 fixed-graph-census"):
        assert_suite(checks.census)


def test_criterion_4_triangle_anchor():
    with criterion("4 triangle-anchor-G(2,3)"):
        anchor = DecoratedTree(
            k=2,
            n=3,
            vertices=((1, 2), (2, 3), (1, 3)),
            edges=(Edge(0, 1, 1), Edge(0, 2, 1)),
        )
        report = fixed_point_report(anchor)
        assert len(report["weights"]) == 5
        assert report["positives"] == 4 and report["negatives"] == 1


def test_criterion_5_structural_invariants():
    with criterion("5 structural-invariants"):
        assert_suite(checks.duality)  # localization sums cached from criterion 2
        assert_suite(checks.symmetry)


def test_criterion_6_qbinomial_identities():
    with criterion("6 gaussian-binomial-identities"):
        assert_suite(checks.identities)


def test_criterion_7_embedding_cross_check():
    with criterion("7 embedding-cross-check"):
        cells = assert_suite(checks.embeddings)
        print(f"[acceptance]   (criterion 7: {cells} cells, every tree, m and mode)")


def test_criterion_8_family_identities():
    with criterion("8 degree-2-family-identities"):
        assert_suite(checks.families)


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
        assert closed_form_result(2, 4, 1) == brute_force_flag_poincare(2, 4)
        for n in range(2, 7):
            for k in range(1, n):
                flag = closed_form_result(k, n, 1)
                assert flag == brute_force_flag_poincare(k, n), (k, n)
                assert poincare_localization(k, n, 1) == flag, (k, n)
