"""Closed-form Poincare polynomials for the low-degree stable-map spaces.

The localization sum of `localization` has, for each degree d <= 3, a
closed-form companion: a rational expression in q that must collapse to the
same polynomial.  Each evaluation here builds the complete numerator as an
exact polynomial product and performs a *single* exact division at the end;
a remainder at that point means the formula and the inputs are inconsistent
(a transcription or reasoning bug, never a user error) and surfaces as
TheoremViolationError.

Degrees:
  1  product of two Gaussian binomials -- the space fibers over the
     two-step flag variety of (k-1)- inside (k+1)-dimensional subspaces;
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

from .qpoly import (
    QPolynomial,
    DivisibilityError,
    exact_div,
    q_power,
    qbinomial,
    qbinomial_or_zero,
)


class TheoremViolationError(ArithmeticError):
    """A closed-form evaluation failed to collapse to a polynomial."""


def _divide_or_die(numerator: QPolynomial, factors: tuple[int, ...], what: str) -> QPolynomial:
    try:
        return exact_div(numerator, factors)
    except DivisibilityError as exc:
        raise TheoremViolationError(
            f"{what} did not divide exactly (remainder {exc.remainder})"
        ) from exc


def _one_minus(e: int) -> QPolynomial:
    return QPolynomial({0: 1, e: -1})


def _one_plus(e: int) -> QPolynomial:
    return QPolynomial({0: 1, e: 1})


# The denominators of the degree-2 and degree-3 forms, shared by every cell,
# as the exponents j of their factors (1 - q^j).
_D2_DENOMINATOR = (1, 1, 2, 2)
_D3_DENOMINATOR = (1, 1, 2, 2, 2, 3, 3)

# The four fixed numerator blocks of the degree-3 form, named by the factor
# each multiplies.  All four vanish at q = 1.
_D3_MAIN = QPolynomial({0: 1, 2: 2, 3: 3, 4: 3, 5: -1, 6: 1, 7: -3, 8: -3, 9: -2, 11: -1})
_D3_SPLIT = QPolynomial({0: 1, 1: 6, 2: 3, 3: 2, 4: -2, 5: -3, 6: -6, 7: -1})
_D3_EVEN = QPolynomial({0: 1, 2: 5, 3: 2, 4: -2, 5: -5, 7: -1})
_D3_CROSS = QPolynomial({0: 2, 2: 3, 3: 1, 4: -1, 5: -3, 7: -2})


def closed_form_result(k: int, n: int, d: int) -> QPolynomial:
    """The closed form of degree d at G(k, n).

    Degree 1 is the Gaussian-binomial product from the flag-variety
    fibration, with no division.  Degrees 2 and 3 multiply a bracket by
    (1-q^k)(1-q^(n-k)) and the Grassmannian's Poincare polynomial, then
    divide once by the degree's fixed denominator.
    """
    if d not in (1, 2, 3):
        raise ValueError(f"no closed form for degree {d} (supported: 1, 2, 3)")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    if d == 1:
        return qbinomial(n, k - 1) * qbinomial(n - k + 1, 2)
    if d == 2:
        bracket = _one_plus(n) * _one_plus(3) - q_power(1) * _one_plus(1) * (
            q_power(k) + q_power(n - k)
        )
        den = _D2_DENOMINATOR
    else:
        bracket = (
            _D3_MAIN * _one_plus(2 * n)
            + _D3_SPLIT * q_power(2) * (q_power(2 * k) + q_power(2 * (n - k)))
            + _one_plus(1) * _one_plus(1)
            * (
                _D3_EVEN * q_power(n) * _one_plus(2)
                - _D3_CROSS * q_power(1) * _one_plus(n) * (q_power(k) + q_power(n - k))
            )
        )
        den = _D3_DENOMINATOR
    num = _one_minus(k) * _one_minus(n - k) * bracket * qbinomial(n, k)
    return _divide_or_die(num, den, f"degree-{d} closed form at (k={k}, n={n})")


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
