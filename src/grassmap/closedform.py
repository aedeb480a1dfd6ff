"""Closed-form Poincare polynomials for the low-degree stable-map spaces.

The localization sum of `localization` has, for each degree d <= 3, a
closed-form companion: a rational expression in q that must collapse to the
same polynomial.  Every degree is evaluated the same way, and no evaluation
multiplies two polynomials: the complete numerator is one integer at
q = 2^(8w), w bytes per coefficient in whole 64-bit slots (Kronecker
substitution; Python integers are exact at any size).  `_pack` evaluates the
Gaussian binomial and the degree-3 bracket's blocks, and each factor 1 - q^e
is a shift and a subtraction.  One `divmod` by the packed denominator gives
the quotient, whose slots are read back at once.  It is accepted only with a
certificate: no remainder, and the slots wide enough that the quotient times
the denominator cannot carry from one slot into the next, so the quotient
times the denominator is the numerator coefficient by coefficient.  A failed
certificate means the formula and the inputs are inconsistent (a
transcription or reasoning bug, never a user error) and raises
TheoremViolationError naming the failed clause.

Degrees:
  1  product of two Gaussian binomials -- the space fibers over the
     two-step flag variety of (k-1)- inside (k+1)-dimensional subspaces --
     written as [n, k-1] (1-q^(n-k)) (1-q^(n-k+1)) / ((1-q)(1-q^2));
  2  a single rational expression on top of the Grassmannian's own
     Poincare polynomial;
  3  the same, with four fixed numerator blocks (each vanishing at q = 1,
     which the tests pin down as a transcription checksum).

The module also carries the degree-2 sub-family identities: the
"triangle" family's contribution admits both a brute-force nested sum
(`triangle_family_index_sum`) and a three-term Gaussian-binomial form
(`triangle_family_closed_form`); the "repeated leaf" family has its own
six-term form (`repeated_leaf_family_closed_form`).
"""

from __future__ import annotations

import sys
from array import array
from math import comb
from operator import lshift

from .fixedgraphs import _check_cell, census_formula
from .qpoly import QPolynomial, _dense, q_power, qbinomial, qbinomial_or_zero


class TheoremViolationError(ArithmeticError):
    """A closed-form evaluation failed to collapse to a polynomial."""


# The denominator of each degree's form, shared by every cell, as the
# exponents j of its factors (1 - q^j).
_DENOMINATORS = {1: (1, 2), 2: (1, 1, 2, 2), 3: (1, 1, 2, 2, 2, 3, 3)}

# The four fixed numerator blocks of the degree-3 form, named by the factor
# each multiplies.  All four vanish at q = 1.
_D3_MAIN = QPolynomial({0: 1, 2: 2, 3: 3, 4: 3, 5: -1, 6: 1, 7: -3, 8: -3, 9: -2, 11: -1})
_D3_SPLIT = QPolynomial({0: 1, 1: 6, 2: 3, 3: 2, 4: -2, 5: -3, 6: -6, 7: -1})
_D3_EVEN = QPolynomial({0: 1, 2: 5, 3: 2, 4: -2, 5: -5, 7: -1})
_D3_CROSS = QPolynomial({0: 2, 2: 3, 3: 1, 4: -1, 5: -3, 7: -2})


# Bounds on the L1 norm of each degree's bracket, read term by term off the
# expressions in `_numerator`: each 1 + q^e and each q^a + q^b has
# norm 2, so the degree-2 bracket's norm is at most 2*2 + 2*2, and the
# degree-3 blocks' norms weigh 2, 2, 2*2*2 and 2*2*2*2.
_BRACKET_NORM = {2: 8, 3: sum(weight * sum(map(abs, block.coefficient_list())) for weight, block
                              in ((2, _D3_MAIN), (2, _D3_SPLIT), (8, _D3_EVEN), (16, _D3_CROSS)))}


def _coefficient_bound(k: int, n: int, d: int) -> int:
    """A bound on |coefficient| of the degree-d numerator at G(k, n): the
    product of its factors' L1 norms, C(n, j) being the norm of the
    non-negative Gaussian binomial [n, j] (degree 1 has no bracket)."""
    return 2 * 2 * (comb(n, k - 1) if d == 1 else _BRACKET_NORM[d] * comb(n, k))


def _pack(coeffs: list[int], width: int) -> int:
    """The integer sum(c * 2^(8*width*e)): the polynomial at q = 2^(8*width);
    non-negative coefficients in 64-bit slots are laid out as one array."""
    if width == 8 and sys.byteorder == "little" and min(coeffs) >= 0:
        return int.from_bytes(array("Q", coeffs), "little")
    return sum(map(lshift, coeffs, range(0, 8 * width * len(coeffs), 8 * width)))


def _unpack(value: int, width: int, slots: int) -> list[int]:
    """The coefficients c_0..c_(slots-1) of value = sum(c_e * 2^(8*width*e)),
    each strictly inside +-2^(8*width-1), none above slot slots-1.

    Adding `half` in every slot makes each digit c + half, in [0, 2^(8*width)),
    so no digit borrows from the next.
    """
    half = 1 << (8 * width - 1)
    offset = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
    digits = (value + offset).to_bytes(width * slots, "little")
    return [int.from_bytes(digits[at : at + width], "little") - half
            for at in range(0, len(digits), width)]


def _slots(value: int, width: int) -> list[int]:
    """The digits of value >= 0 in base 2^(8*width), lowest first: one
    conversion to bytes, and for 64-bit slots one cast of those bytes."""
    data = value.to_bytes(-(-value.bit_length() // (8 * width)) * width, "little")
    if width == 8 and sys.byteorder == "little":
        return memoryview(data).cast("Q").tolist()
    return [int.from_bytes(data[at : at + width], "little") for at in range(0, len(data), width)]


def _slot_width(k: int, n: int, d: int) -> int:
    """Bytes per coefficient of the packed division at G(k, n): whole 64-bit
    words holding the numerator (`_coefficient_bound`) and the quotient times
    the denominator.  The quotient is sized by the fixed-tree census, the sum
    of the Betti numbers, so a correct formula always passes the certificate
    in `closed_form_result`; the census only sizes the slots, and the
    certificate does not rely on it."""
    den = _DENOMINATORS[d]
    census = sum(census_formula(k, n, d).values())
    bits = max(_coefficient_bound(k, n, d).bit_length(), census.bit_length() + len(den)) + 1
    return 8 * -(-bits // 64)


def _numerator(k: int, n: int, d: int, width: int) -> int:
    """The degree-d numerator at q = 2^(8*width): [n, k-1] (1-q^(n-k))
    (1-q^(n-k+1)) for degree 1, (1-q^k)(1-q^(n-k)) * bracket * [n, k] for
    degrees 2 and 3, each factor 1 - q^e a shift and a subtraction."""
    shift = 8 * width

    def q(e: int) -> int:
        return 1 << (shift * e)

    if d == 1:
        value = _pack(qbinomial(n, k - 1).coefficient_list(), width)
        factors = (n - k, n - k + 1)
    else:
        if d == 2:
            bracket = (1 + q(n)) * (1 + q(3)) - q(1) * (1 + q(1)) * (q(k) + q(n - k))
        else:
            main, split, even, cross = (_pack(block.coefficient_list(), width)
                                        for block in (_D3_MAIN, _D3_SPLIT, _D3_EVEN, _D3_CROSS))
            bracket = (
                main * (1 + q(2 * n))
                + split * q(2) * (q(2 * k) + q(2 * (n - k)))
                + (1 + q(1)) * (1 + q(1))
                * (even * q(n) * (1 + q(2)) - cross * q(1) * (1 + q(n)) * (q(k) + q(n - k)))
            )
        value = bracket * _pack(qbinomial(n, k).coefficient_list(), width)
        factors = (k, n - k)
    for e in factors:
        value -= value << (shift * e)
    return value


def closed_form_result(k: int, n: int, d: int) -> QPolynomial:
    """The closed form of degree d at G(k, n).

    Degree 1 is the Gaussian-binomial product [n, k-1] * [n-k+1, 2] from
    the flag-variety fibration; degrees 2 and 3 multiply a bracket by
    (1-q^k)(1-q^(n-k)) and the Grassmannian's Poincare polynomial.  Each
    divides once by its degree's fixed denominator D: the numerator N is one
    integer at q = 2^(8w), w bytes from `_slot_width`, and the quotient
    Q = N // D one `divmod`.  Q is accepted when the remainder is 0, Q >= 0,
    max|q_i| * 2^len(D) < 2^(8w-1), 2^len(D) bounding D's L1 norm, and
    `_coefficient_bound` < 2^(8w-1): then N and Q * D both have coefficients
    strictly inside +-2^(8w-1) and equal values at q = 2^(8w), so they are
    equal coefficient by coefficient, whatever chose w.  Otherwise it raises
    TheoremViolationError naming the first clause that failed, a remainder
    read back by `_unpack`.  A cell is refused as by the localization route
    (`_check_cell`).
    """
    _check_cell(k, n, d)
    den = _DENOMINATORS[d]
    width = _slot_width(k, n, d)
    shift = 8 * width
    packed_den = 1
    for e in den:
        packed_den -= packed_den << (shift * e)
    quotient, remainder = divmod(_numerator(k, n, d, width), packed_den)
    if remainder:
        rest = _dense(_unpack(remainder, width, remainder.bit_length() // shift + 2))
        failed = f"did not divide exactly (remainder {rest})"
    elif quotient < 0:
        failed = "divided to a negative quotient"
    elif max(coeffs := _slots(quotient, width), default=0).bit_length() + len(den) >= shift:
        failed = f"has a quotient coefficient too wide for {width}-byte slots"
    elif _coefficient_bound(k, n, d).bit_length() >= shift:
        failed = f"has a numerator bound too wide for {width}-byte slots"
    else:
        return _dense(coeffs)
    raise TheoremViolationError(f"degree-{d} closed form at (k={k}, n={n}) {failed}")


# -- degree-2 sub-family forms ---------------------------------------------------


def _compositions(total: int, parts: int):
    """All tuples of `parts` non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def triangle_family_index_sum(k: int, n: int) -> QPolynomial:
    """Brute-force sum over the triangle family's index decompositions.

    Each member of the family is determined by scattering k-2 label
    elements and n-k-1 unused coordinates into the four gaps around the
    three active values; each scatter contributes q to the power of a
    bilinear exponent in the gap sizes, times a product of four Gaussian
    binomials recording the interleavings.  Empty for k < 2 (no triangle
    fits inside fewer than two label elements).
    """
    if n <= k:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    total = QPolynomial()
    if k < 2 or n - k < 1:
        return total
    for i0, i1, i2, i3 in _compositions(k - 2, 4):
        for j0, j1, j2, j3 in _compositions(n - k - 1, 4):
            expo = (
                4
                + 3 * i0
                + 2 * i1
                + i2
                + j1
                + 2 * j2
                + 4 * j3
                + i0 * (j1 + j2 + j3)
                + i1 * (j2 + j3)
                + i2 * j3
            )
            term = (
                q_power(expo)
                * qbinomial(i0 + j0, i0)
                * qbinomial(i1 + j1, i1)
                * qbinomial(i2 + j2, i2)
                * qbinomial(i3 + j3, i3)
            )
            total = total + term
    return total


def triangle_family_closed_form(k: int, n: int) -> QPolynomial:
    """Three-term Gaussian-binomial form of the triangle family's contribution.

    Out-of-range binomials count as zero, which silently kills the family
    for k < 2 or n < k + 2.
    """
    if n <= k:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    return (
        q_power(4) * qbinomial_or_zero(k + 1, 3) * qbinomial_or_zero(n + 1, k + 2)
        - q_power(7) * qbinomial_or_zero(k + 2, 4) * qbinomial_or_zero(n, k + 2)
        + q_power(8) * qbinomial_or_zero(k + 1, 4) * qbinomial_or_zero(n, k + 2)
    )


def repeated_leaf_family_closed_form(k: int, n: int) -> QPolynomial:
    """Six-term Gaussian-binomial form for the repeated-leaf family."""
    if n <= k:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    inner = (
        qbinomial_or_zero(k + 2, 3) * qbinomial_or_zero(n + 1, k + 2)
        - q_power(2) * qbinomial_or_zero(k + 1, 3) * qbinomial_or_zero(n + 1, k + 2)
        - q_power(2) * qbinomial_or_zero(k + 3, 4) * qbinomial_or_zero(n, k + 2)
        + q_power(3) * qbinomial_or_zero(k + 2, 4) * qbinomial_or_zero(n, k + 2)
        + q_power(5) * qbinomial_or_zero(k + 2, 4) * qbinomial_or_zero(n, k + 2)
        - q_power(6) * qbinomial_or_zero(k + 1, 4) * qbinomial_or_zero(n, k + 2)
    )
    return q_power(2) * inner
