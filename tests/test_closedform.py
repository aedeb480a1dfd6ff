from functools import cache

import pytest

import grassmap.closedform as closedform
from grassmap.checks import PUBLISHED_ROWS
from grassmap.cli import main
from grassmap.closedform import (
    _D3_CROSS,
    _D3_EVEN,
    _D3_MAIN,
    _D3_SPLIT,
    TheoremViolationError,
    closed_form_result,
    repeated_leaf_family_closed_form,
    triangle_family_closed_form,
    triangle_family_index_sum,
)
from grassmap.localization import moduli_dimension, poincare_localization
from grassmap.qpoly import ONE, QPolynomial, q_power, qbinomial
from division_oracle import dict_long_division, one_minus_product

# the closed-sweep benchmark grid, and cells with Betti numbers past 60 bits
CLOSED_SWEEP = [(k, n, d) for n in range(2, 29) for k in range(1, n) for d in (1, 2, 3)]
WIDE_CELLS = [(20, 45, 3), (30, 60, 2), (45, 90, 2)]


def poincare_grassmannian(k, n):
    """Poincare polynomial of G(k, n) from the product form: prod_{i<=n} (1-q^i)
    over the two complementary factorials, with one long division at the end
    (the oracle for `qbinomial`, which divides one factor at a time)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    num = ONE
    for i in range(1, n + 1):
        num = num * QPolynomial({0: 1, i: -1})
    return dict_long_division(num, one_minus_product((*range(1, k + 1), *range(1, n - k + 1))))


def one_plus(e):
    return QPolynomial({0: 1, e: 1})


@cache
def numerator_oracle(k, n, d):
    """The degree-d numerator as a product of polynomials (the oracle for the
    one packed integer product): [n,k-1] (1-q^(n-k)) (1-q^(n-k+1)) for
    degree 1, (1-q^k)(1-q^(n-k)) * bracket * [n,k] for degrees 2 and 3."""
    if d == 1:
        return qbinomial(n, k - 1) * (ONE - q_power(n - k)) * (ONE - q_power(n - k + 1))
    if d == 2:
        bracket = one_plus(n) * one_plus(3) - q_power(1) * one_plus(1) * (q_power(k) + q_power(n - k))
    else:
        bracket = (
            _D3_MAIN * one_plus(2 * n)
            + _D3_SPLIT * q_power(2) * (q_power(2 * k) + q_power(2 * (n - k)))
            + one_plus(1) * one_plus(1)
            * (
                _D3_EVEN * q_power(n) * one_plus(2)
                - _D3_CROSS * q_power(1) * one_plus(n) * (q_power(k) + q_power(n - k))
            )
        )
    one_minus = (ONE - q_power(k)) * (ONE - q_power(n - k))
    return one_minus * bracket * qbinomial(n, k)


@cache
def closed_form_oracle(k, n, d):
    if d == 1:
        return qbinomial(n, k - 1) * qbinomial(n - k + 1, 2)
    return dict_long_division(numerator_oracle(k, n, d), one_minus_product(closedform._DENOMINATORS[d]))


class TestGrassmannian:
    def test_product_form_equals_qbinomial(self):
        for n in range(13):
            for k in range(n + 1):
                assert poincare_grassmannian(k, n) == qbinomial(n, k)

    def test_domain(self):
        with pytest.raises(ValueError):
            poincare_grassmannian(3, 2)
        with pytest.raises(ValueError):
            qbinomial(2, 3)


class TestNumeratorBlocks:
    def test_transcription_checksums(self):
        # all four degree-3 numerator blocks vanish at q = 1
        rows = [block.coefficient_list() for block in (_D3_MAIN, _D3_SPLIT, _D3_EVEN, _D3_CROSS)]
        assert [sum(row) for row in rows] == [0, 0, 0, 0]
        # and their degrees
        assert [len(row) - 1 for row in rows] == [11, 7, 7, 7]
        # and the bracket norms their L1 norms 20, 24, 16 and 12 give
        assert closedform._BRACKET_NORM == {2: 8, 3: 408}


class TestPackedNumerator:
    """`closed_form_result` packs its numerator into one integer; the
    polynomial product is the oracle."""

    @pytest.mark.parametrize("cells", [CLOSED_SWEEP, WIDE_CELLS], ids=["closed-sweep", "wide"])
    def test_matches_the_product_oracle(self, cells):
        for k, n, d in cells:
            assert closed_form_result(k, n, d) == closed_form_oracle(k, n, d), (k, n, d)

    @pytest.mark.parametrize("cells", [CLOSED_SWEEP, WIDE_CELLS], ids=["closed-sweep", "wide"])
    def test_width_bound_holds(self, cells):
        # every coefficient is under the bound the byte width is chosen from
        for k, n, d in cells:
            top = max(map(abs, numerator_oracle(k, n, d).coefficient_list()))
            assert top <= closedform._coefficient_bound(k, n, d), (k, n, d)

    def test_no_polynomial_product(self, monkeypatch):
        # every degree is built from Gaussian binomials and integer
        # products alone
        want = [closed_form_oracle(*cell) for cell in CLOSED_SWEEP]

        def refuse(*_):
            raise AssertionError("closed_form_result multiplied two polynomials")

        monkeypatch.setattr(QPolynomial, "__mul__", refuse)
        assert [closed_form_result(*cell) for cell in CLOSED_SWEEP] == want

    def test_wide_cells_are_wide(self):
        # Betti numbers past 2^60; the numerator of (45, 90, 2) itself passes 64 bits
        for cell in WIDE_CELLS:
            assert max(closed_form_oracle(*cell).coefficient_list()) >= 2**60
        assert max(map(abs, numerator_oracle(45, 90, 2).coefficient_list())) >= 2**64


class TestCertifiedDivision:
    """Every degree divides once, in whole 64-bit slots, and accepts the
    quotient only with its certificate; a failed certificate raises, and the
    product oracle judges every row that is returned."""

    def test_every_cell_is_certified(self, monkeypatch):
        want = [closed_form_oracle(*cell) for cell in CLOSED_SWEEP + WIDE_CELLS]

        def refuse(*_):
            raise AssertionError("a closed form fell back to the factor-by-factor division")

        monkeypatch.setattr(closedform, "_unpack", refuse)
        assert [closed_form_result(*cell) for cell in CLOSED_SWEEP + WIDE_CELLS] == want

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_narrow_slots_raise(self, monkeypatch, width):
        # slots too narrow for the quotient (or the numerator) fail the
        # certificate wherever it matters: such a cell raises, and no cell
        # returns a row other than the oracle's
        monkeypatch.setattr(closedform, "_slot_width", lambda k, n, d: width)
        raised = 0
        for cell in CLOSED_SWEEP:
            try:
                got = closed_form_result(*cell)
            except TheoremViolationError:
                raised += 1
            else:
                assert got == closed_form_oracle(*cell), cell
        assert raised


_numerator = closedform._numerator

# per clause of the certificate that can fail with no remainder (a remainder
# is `TestFailurePath`'s), the message that names it and the patches of
# `closedform` that fail it at (k, n, d) = (1, 3, 3)
FAILED_CLAUSES = {
    # -N = (-Q) * D divides exactly
    "negative-quotient": ("divided to a negative quotient",
                          {"_numerator": lambda *args: -_numerator(*args)}),
    # N = Q * D at q = 2^8 still, but Q's coefficients carry across the slots
    "wide-quotient": ("has a quotient coefficient too wide for 1-byte slots",
                      {"_slot_width": lambda k, n, d: 1}),
    # a bound past the slots, though the numerator itself fits them
    "numerator-bound": ("has a numerator bound too wide for 8-byte slots",
                        {"_slot_width": lambda k, n, d: 8, "_coefficient_bound": lambda k, n, d: 1 << 63}),
}


class TestFailedClause:
    """A failed certificate raises at once and names the clause that failed,
    never a remainder of 0."""

    @pytest.fixture(params=list(FAILED_CLAUSES))
    def clause(self, request, monkeypatch):
        message, patches = FAILED_CLAUSES[request.param]
        for name, value in patches.items():
            monkeypatch.setattr(closedform, name, value)
        monkeypatch.delenv("GRASSMAP_CACHE", raising=False)
        return message

    def test_raises_naming_the_clause(self, clause):
        with pytest.raises(TheoremViolationError) as failure:
            closed_form_result(1, 3, 3)
        message = str(failure.value)
        assert message.startswith(f"degree-3 closed form at (k=1, n=3) {clause}")
        assert "remainder" not in message

    def test_cli_exits_1(self, clause, capsys):
        code = main(["betti", "-k", "1", "-n", "3", "-d", "3", "--method", "closed"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith(f"mathematical inconsistency: degree-3 closed form at (k=1, n=3) {clause}")
        assert out == ""


class TestClosedForms:
    def test_degree2_projective_line(self):
        assert closed_form_result(1, 2, 2) == QPolynomial({0: 1, 1: 1, 2: 1})

    @pytest.mark.parametrize("k,n,row", [(k, n, row) for (k, n), row in PUBLISHED_ROWS.items()])
    def test_degree3_published_rows(self, k, n, row):
        assert closed_form_result(k, n, 3).coefficient_list() == row

    def test_structural_properties(self):
        for d in (2, 3):
            for n in range(2, 6):
                for k in range(1, n):
                    p = closed_form_result(k, n, d)
                    dim = moduli_dimension(k, n, d)
                    row = p.coefficient_list()
                    assert len(row) - 1 == dim
                    assert row == row[::-1]
                    assert p == closed_form_result(n - k, n, d)

    def test_degree1_is_flag_product(self):
        assert closed_form_result(2, 4, 1) == qbinomial(4, 1) * qbinomial(3, 2)

    def test_domain(self):
        with pytest.raises(ValueError):
            closed_form_result(1, 3, 4)
        with pytest.raises(ValueError):
            closed_form_result(2, 2, 2)

    @pytest.mark.parametrize("cell", [(1, 3, 4), (1, 3, 0), (0, 3, 2), (3, 3, 2)])
    def test_both_routes_refuse_a_cell_alike(self, cell):
        refusals = []
        for route in (closed_form_result, poincare_localization):
            with pytest.raises(ValueError) as refused:
                route(*cell)
            refusals.append((type(refused.value), str(refused.value)))
        assert refusals[0] == refusals[1]

    def test_matches_localization_small(self):
        for n in range(2, 6):
            for k in range(1, n):
                assert closed_form_result(k, n, 2) == poincare_localization(k, n, 2)
                assert closed_form_result(k, n, 3) == poincare_localization(k, n, 3)


class TestFailurePath:
    @pytest.fixture
    def spoiled_main_block(self, monkeypatch):
        # one more constant term in the q^0-side block of the degree-3
        # bracket: the numerator no longer vanishes to the denominator's order
        monkeypatch.setattr(closedform, "_D3_MAIN", _D3_MAIN + ONE)
        monkeypatch.delenv("GRASSMAP_CACHE", raising=False)
        yield

    def test_remainder_raises_theorem_violation(self, spoiled_main_block):
        with pytest.raises(TheoremViolationError, match=r"degree-3 closed form at \(k=1, n=3\) "
                                                         r"did not divide exactly \(remainder .+\)"):
            closed_form_result(1, 3, 3)

    def test_cli_exits_1(self, spoiled_main_block, capsys):
        code = main(["betti", "-k", "1", "-n", "3", "-d", "3", "--method", "closed"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("mathematical inconsistency: degree-3 closed form")
        assert out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_keeps_the_cells_printed_before_the_failure(self, spoiled_main_block, capsys,
                                                            monkeypatch, fmt):
        # output streams cell by cell: d = 1 and 2 are out when d = 3 fails
        argv = ["betti", "-k", "1", "-n", "3", "--d-range", "1..3", "--method", "closed",
                "--format", fmt]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("mathematical inconsistency: degree-3 closed form")
        monkeypatch.setattr(closedform, "_D3_MAIN", _D3_MAIN)
        assert main(argv) == 0
        unspoiled = capsys.readouterr().out
        if fmt == "csv":
            assert out == "1,1,1\n1,2,3,3,2,1\n"
        else:
            assert '"d": 2' in out and '"d": 3' not in out
        assert unspoiled.startswith(out) and unspoiled != out


class TestTriangleFamily:
    def test_anchor_is_a_single_cell(self):
        assert triangle_family_index_sum(2, 3) == QPolynomial({4: 1})
        assert triangle_family_closed_form(2, 3) == QPolynomial({4: 1})

    def test_vanishes_for_line_targets(self):
        for n in range(2, 7):
            assert not triangle_family_closed_form(1, n)
            assert not triangle_family_index_sum(1, n)

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
