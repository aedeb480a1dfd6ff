import pytest

from grassmap.closedform import (
    _D3_CROSS,
    _D3_EVEN,
    _D3_MAIN,
    _D3_SPLIT,
    ClosedFormResult,
    closed_form_result,
    poincare_grassmannian,
    repeated_leaf_family_closed_form,
    triangle_family_closed_form,
    triangle_family_index_sum,
)
from grassmap.localization import moduli_dimension, poincare_localization
from grassmap.qpoly import QPolynomial, qbinomial, reverse


class TestGrassmannian:
    def test_product_form_equals_qbinomial(self):
        for n in range(13):
            for k in range(n + 1):
                assert poincare_grassmannian(k, n) == qbinomial(n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            poincare_grassmannian(3, 2)


class TestNumeratorBlocks:
    def test_transcription_checksums(self):
        # all four degree-3 numerator blocks vanish at q = 1
        for block in (_D3_MAIN, _D3_SPLIT, _D3_EVEN, _D3_CROSS):
            assert block(1) == 0
        # and their fingerprints: degree and value at q = -1
        assert _D3_MAIN.degree == 11 and _D3_SPLIT.degree == 7
        assert _D3_EVEN.degree == 7 and _D3_CROSS.degree == 7


class TestClosedForms:
    def test_degree2_projective_line(self):
        assert closed_form_result(1, 2, 2).poincare == QPolynomial({0: 1, 1: 1, 2: 1})

    @pytest.mark.parametrize(
        "k,n,row",
        [
            (1, 3, [1, 2, 5, 7, 9, 7, 5, 2, 1]),
            (1, 4, [1, 2, 6, 10, 17, 20, 24, 20, 17, 10, 6, 2, 1]),
            (2, 4, [1, 3, 10, 22, 41, 60, 73, 73, 60, 41, 22, 10, 3, 1]),
        ],
    )
    def test_degree3_published_rows(self, k, n, row):
        assert closed_form_result(k, n, 3).poincare.coefficient_list() == row

    def test_structural_properties(self):
        for d in (2, 3):
            for n in range(2, 6):
                for k in range(1, n):
                    p = closed_form_result(k, n, d).poincare
                    dim = moduli_dimension(k, n, d)
                    assert p.degree == dim
                    assert reverse(p, dim) == p
                    assert p == closed_form_result(n - k, n, d).poincare

    def test_degree1_is_flag_product(self):
        assert closed_form_result(2, 4, 1).poincare == qbinomial(4, 1) * qbinomial(3, 2)

    def test_result_records_the_division(self):
        res = closed_form_result(1, 3, 2)
        assert isinstance(res, ClosedFormResult)
        assert res.numerator == res.poincare * res.denominator
        assert closed_form_result(1, 3, 1).denominator == QPolynomial({0: 1})

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_result(1, 3, 4)
        with pytest.raises(ValueError):
            closed_form_result(2, 2, 2)

    def test_matches_localization_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                assert closed_form_result(k, n, 2).poincare == poincare_localization(k, n, 2)
                assert closed_form_result(k, n, 3).poincare == poincare_localization(k, n, 3)


class TestTriangleFamily:
    def test_anchor_is_a_single_cell(self):
        assert triangle_family_index_sum(2, 3) == QPolynomial({4: 1})
        assert triangle_family_closed_form(2, 3) == QPolynomial({4: 1})

    def test_vanishes_for_line_targets(self):
        for n in range(2, 7):
            assert triangle_family_closed_form(1, n).is_zero
            assert triangle_family_index_sum(1, n).is_zero

    def test_index_sum_equals_closed_form(self):
        for k in range(2, 6):
            for n in range(k + 1, 7):
                assert triangle_family_index_sum(k, n) == triangle_family_closed_form(k, n)

    def test_domain(self):
        with pytest.raises(ValueError):
            triangle_family_index_sum(3, 3)


class TestRepeatedLeafFamily:
    def test_doubled_line(self):
        assert repeated_leaf_family_closed_form(1, 2) == QPolynomial({2: 1})

    def test_next_case_up(self):
        # hand-expanded: the three doubled lines in G(1,3) contribute q^2+q^3+q^5
        assert repeated_leaf_family_closed_form(1, 3) == QPolynomial({2: 1, 3: 1, 5: 1})
