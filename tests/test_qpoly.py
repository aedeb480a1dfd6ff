import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassmap import checks, qpoly
from grassmap.closedform import _pack, _slots, _unpack
from grassmap.qpoly import (
    ONE,
    ZERO,
    QPolynomial,
    partition_sum,
    q_power,
    qbinomial,
    qbinomial_or_zero,
)
from division_oracle import dict_long_division, one_minus_product


def P(d):
    return QPolynomial(d)


# -- the dict schoolbook product, kept as the oracle for the dense product and
# the packed integer product of `closedform`

def schoolbook_mul(a, b):
    out = {}
    for e1, c1 in a.terms():
        for e2, c2 in b.terms():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return QPolynomial(out)


class TestBasics:
    def test_canonicalization_drops_zeros(self):
        assert P({0: 1, 3: 0}) == P({0: 1})

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            P({0: 1.5})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            P({-1: 2, 4: 1})

    def test_dense_coefficients(self):
        assert P({4: 1, 1: 2}).coefficient_list() == [0, 2, 0, 0, 1]

    def test_no_trailing_zero_survives(self):
        a = P({0: 1, 3: 2})
        b = P({0: 1, 3: -2})
        assert (a - a).coefficient_list() == [0] and not a - a
        assert (a + b).coefficient_list() == [2]
        assert (a * ZERO).coefficient_list() == [0]
        assert not a * ZERO and len((a * b).coefficient_list()) - 1 == 6

    def test_never_equals_an_int(self):
        assert ONE != 1 and ZERO != 0 and P({0: 5}) != 5

    def test_arithmetic(self):
        a = P({0: 1, 1: 1})
        b = P({0: 1, 1: -1})
        assert a * b == P({0: 1, 2: -1})
        assert a + b == P({0: 2})
        assert a - a == ZERO

    def test_str(self):
        assert str(P({0: 1, 1: 1, 2: 2, 4: -1})) == "1 + q + 2*q^2 - q^4"
        assert str(ZERO) == "0"


class TestQBinomial:
    @pytest.mark.parametrize(
        "n,k,coeffs",
        [
            (3, 0, [1]),
            (2, 1, [1, 1]),
            # frozen by expanding (1-q^3)(1-q^4) / (1-q)(1-q^2)
            (4, 2, [1, 1, 2, 1, 1]),
            (5, 2, [1, 1, 2, 2, 2, 1, 1]),
        ],
    )
    def test_small_values(self, n, k, coeffs):
        assert qbinomial(n, k).coefficient_list() == coeffs

    def test_domain_errors(self):
        for n, k in [(2, 3), (-1, 0), (3, -1)]:
            with pytest.raises(ValueError):
                qbinomial(n, k)

    def test_or_zero_convention(self):
        assert qbinomial_or_zero(2, 3) == ZERO
        assert qbinomial_or_zero(-1, 0) == ZERO
        assert qbinomial_or_zero(4, 2) == qbinomial(4, 2)

    @pytest.mark.parametrize("n", range(9))
    def test_specializes_to_binomial(self, n):
        for k in range(n + 1):
            assert sum(qbinomial(n, k).coefficient_list()) == math.comb(n, k)

    def test_degree_and_palindromy(self):
        for n in range(1, 9):
            for k in range(n + 1):
                p = qbinomial(n, k)
                row = p.coefficient_list()
                assert len(row) - 1 == k * (n - k) if k * (n - k) else p == ONE
                assert row == row[::-1]
                assert all(c > 0 for _, c in p.terms())

    def test_matches_partition_enumeration(self):
        # partition_sum counts the splits directly; the product formula must agree
        for a in range(5):
            for b in range(5):
                assert partition_sum(a, b) == qbinomial(a + b, a)

    @pytest.mark.parametrize("order", ["ascending", "descending"])
    def test_built_from_any_memoized_predecessor(self, monkeypatch, order):
        # each [n, k] extends [n-1, k-1] by one strided step, from whichever
        # predecessor is memoized first; the crossing count is the oracle
        monkeypatch.setattr(qpoly, "_QBINOMIALS", {})
        cells = [(n, k) for n in range(11) for k in range(n + 1)]
        for n, k in cells if order == "ascending" else cells[::-1]:
            assert qbinomial(n, k) == partition_sum(k, n - k), (n, k)
        assert len(qpoly._QBINOMIALS) == sum(n // 2 for n in range(11))

    def test_non_exact_step_raises(self, monkeypatch):
        # a wrong memoized [4, 1] leaves a remainder when [5, 2] divides by 1 - q^2
        monkeypatch.setattr(qpoly, "_QBINOMIALS", {(4, 1): P({0: 1, 1: 2, 2: 1, 3: 1})})
        with pytest.raises(ArithmeticError, match=r"\[5, 2\]"):
            qbinomial(5, 2)
        assert (5, 2) not in qpoly._QBINOMIALS


def test_division_oracle_refuses_a_remainder():
    # the oracle of `closed_form_result` and `qbinomial` fails a non-exact division
    assert dict_long_division(P({0: 1, 3: -1}), one_minus_product((1,))) == P({0: 1, 1: 1, 2: 1})
    with pytest.raises(AssertionError, match=r"remainder 2\*q$"):
        dict_long_division(P({0: 1, 1: 1}), one_minus_product((1,)))


class TestPartitionSum:
    def test_edge_sizes(self):
        assert partition_sum(0, 4) == ONE
        assert partition_sum(3, 0) == ONE
        assert partition_sum(1, 1) == P({0: 1, 1: 1})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            partition_sum(-1, 2)


def identity_checks(max_n):
    """(name, cases, ok, detail) of each identity line of `checks.identities`."""
    lines = ((re.fullmatch(r"identities (\S+) \((\d+) cases\)", label), ok, detail)
             for label, ok, detail in checks.identities(max_n))
    return [(m[1], int(m[2]), ok, detail) for m, ok, detail in lines if m]


class TestIdentities:
    def test_all_pass_to_12(self):
        for name, cases, ok, detail in identity_checks(12):
            assert ok, f"{name}: {detail}"
            assert cases > 0

    def test_names_and_order(self):
        names = [name for name, *_ in identity_checks(2)]
        assert names == ["symmetry", "pascal-high", "pascal-low", "hockey-stick", "convolution"]


# -- property tests -----------------------------------------------------------

polys = st.dictionaries(st.integers(0, 8), st.integers(-9, 9), max_size=6).map(QPolynomial)

@given(polys, polys, polys)
@settings(max_examples=100)
def test_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a


# exponents spread over 17 slots, coefficients past +-2^64, mixed signs; empty
# dicts give the zero polynomial and one-entry dicts the monomials
wide_coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
wide_polys = st.dictionaries(st.integers(0, 16), wide_coeffs, max_size=8).map(QPolynomial)


@given(wide_polys, wide_polys)
@settings(max_examples=300)
def test_mul_matches_schoolbook(a, b):
    assert a * b == schoolbook_mul(a, b)


def packed_mul(a, b):
    """a * b as one integer product (Kronecker substitution) through
    `closedform`'s packing, with the byte-width rule of `closed_form_result`
    applied to a bound on the product's coefficients."""
    a, b = a.coefficient_list(), b.coefficient_list()
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1
    product = _unpack(_pack(a, width) * _pack(b, width), width, len(a) + len(b) - 1)
    return P(dict(enumerate(product)))


@pytest.mark.parametrize("magnitude", [1, 127, 128, 255, 256, 2**63, 2**64 - 1, 2**64])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_mul_at_the_coefficient_bound(magnitude, signs):
    # every coefficient at the largest magnitude: the middle coefficient of
    # a*a reaches the bound the slot width is taken from
    for length in range(1, 5):
        a = P({e: signs[0] * magnitude for e in range(length)})
        b = P({2 * e: signs[1] * magnitude for e in range(length)})
        assert packed_mul(a, b) == schoolbook_mul(a, b)
        assert packed_mul(a, a) == schoolbook_mul(a, a)


@pytest.mark.parametrize("width", [1, 2, 8, 9])
def test_pack_round_trips_at_the_slot_edges(width):
    # `_unpack` reads back every coefficient strictly inside +-2^(8*width-1)
    edge = (1 << (8 * width - 1)) - 1
    for coeffs in ([edge, -edge, 0, -1, 1], [-edge] * 4, [0, 0, edge], [-1]):
        assert _unpack(_pack(coeffs, width), width, len(coeffs)) == coeffs


@pytest.mark.parametrize("width", [1, 2, 8, 16])
def test_slots_read_back_non_negative_packs(width):
    # `_slots` reads the digits of a non-negative pack, the 64-bit case by one
    # cast, and `_pack` lays such coefficients out as one array there
    top = (1 << (8 * width)) - 1
    for coeffs in ([top, 0, 1], [0, top], [1] * 5, [5]):
        packed = _pack(coeffs, width)
        assert packed == sum(c << (8 * width * e) for e, c in enumerate(coeffs))
        assert _slots(packed, width) == coeffs
    assert _slots(0, width) == []
