"""Exact polynomial arithmetic in the formal variable q.

Everything this package reports -- Poincare polynomials, Betti rows, Gaussian
binomial coefficients -- is an integer-coefficient polynomial in a single
formal variable q, with exponents from 0 up to the dimension of the space in
question.  A polynomial is stored densely, as the tuple of its coefficients
of q^0, q^1, ..., q^degree with no trailing zero: that tuple is the Betti row,
the coefficient of q^i being the 2i-th Betti number (odd Betti numbers all
vanish for these spaces).  There is no Laurent part: a negative exponent is
refused.  Arithmetic is exact throughout (arbitrary-precision integers, no
floating point), so polynomial equality is a trustworthy verification
primitive.

Products and the one division.  A product of two polynomials is the
schoolbook rule: each coefficient pair adds its product into the slot of its
exponents' sum.  (`closedform` evaluates its large numerators with one
integer product instead.)  The only division is `qbinomial`'s, by one factor
1 - q^k at a time: a running sum with stride k over the coefficient list
(multiplication by 1 + q^k + q^2k + ...), exact exactly when its top k
entries then vanish, the rest being the quotient.  A nonzero top raises
ArithmeticError naming [n, k]: every Gaussian binomial is a polynomial, so
that is a mathematical inconsistency, not a user error.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping


class QPolynomial:
    """Integer polynomial in q, held as one dense coefficient tuple.

    Built from {exponent: coefficient} with exponents >= 0.  Instances are
    immutable: every operation returns a new polynomial.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None) -> None:
        acc: list[int] = []
        if coeffs is not None:
            for e, c in coeffs.items():
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be integers")
                if e < 0:
                    raise ValueError(f"negative exponent {e}: polynomials in q start at q^0")
                acc.extend([0] * (e + 1 - len(acc)))
                acc[e] += c
        self._c = _trimmed(acc)

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield the nonzero (exponent, coefficient) pairs in ascending exponent order."""
        return ((e, c) for e, c in enumerate(self._c) if c)

    def coefficient_list(self) -> list[int]:
        """Dense coefficients from q^0 up to the degree (Betti row order)."""
        return list(self._c) or [0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return _dense([a + b for a, b in itertools.zip_longest(self._c, other._c, fillvalue=0)])

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return _dense([a - b for a, b in itertools.zip_longest(self._c, other._c, fillvalue=0)])

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._c, other._c
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _dense(out)

    def shifted(self, offset: int) -> "QPolynomial":
        """Multiply by q^offset (offset >= 0)."""
        if offset < 0:
            raise ValueError(f"negative shift {offset}: polynomials in q start at q^0")
        return _dense([0] * offset + list(self._c))

    # -- comparison / display -----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self._c == other._c
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({dict(self.terms())!r})"


def _trimmed(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _dense(coeffs: list[int]) -> QPolynomial:
    """The polynomial with coefficient list `coeffs`, q^0 first (the list is trimmed in place)."""
    p = object.__new__(QPolynomial)
    p._c = _trimmed(coeffs)
    return p


ZERO = QPolynomial()
ONE = QPolynomial({0: 1})


def q_power(exponent: int) -> QPolynomial:
    """The monomial q^exponent."""
    return QPolynomial({exponent: 1})


# [n, k] by (n, min(k, n - k)), filled by `qbinomial`
_QBINOMIALS: dict[tuple[int, int], QPolynomial] = {}


def qbinomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial coefficient: the q-count of k-subsets of an n-set.

    Memoized, and built from its predecessor by the product definition:
    [n, k] = [n-1, k-1] * (1 - q^n) / (1 - q^k), a shifted subtraction and
    one running sum with stride k, exact when its top k entries then vanish
    (ArithmeticError names [n, k] otherwise).  The chain of predecessors down
    to a memoized one, or to [n-k, 0] = 1, is walked in a loop, so no
    recursion grows with k.  Degree k(n-k); palindromic; non-negative
    coefficients.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"Gaussian binomial undefined for n={n}, k={k}")
    k = min(k, n - k)
    chain = []
    while k and (n, k) not in _QBINOMIALS:
        chain.append((n, k))
        n, k = n - 1, k - 1
    result = _QBINOMIALS[n, k] if k else ONE
    for n, k in reversed(chain):
        # times (1 - q^n) is a shifted subtraction, cheaper than a product
        c = list((result - result.shifted(n))._c)
        for r in range(k):
            c[r::k] = itertools.accumulate(c[r::k])
        if any(c[-k:]):
            raise ArithmeticError(f"Gaussian binomial [{n}, {k}] is not a polynomial: "
                                  f"1 - q^{k} does not divide its numerator")
        result = _QBINOMIALS[n, k] = _dense(c[:-k])
    return result


def qbinomial_or_zero(n: int, k: int) -> QPolynomial:
    """Gaussian binomial with the summation convention: 0 when out of range."""
    if n < 0 or k < 0 or k > n:
        return ZERO
    return qbinomial(n, k)


def partition_sum(s_size: int, t_size: int) -> QPolynomial:
    """Sum q^(crossing count) over splits of {1..s+t} into parts of the given sizes.

    For each way to split {1, ..., s_size+t_size} into an S of size s_size
    and a T of size t_size, the exponent is #{(s, t) in S x T : t > s}.
    Equals qbinomial(s_size + t_size, s_size); deliberately kept as a naive
    enumeration because it serves as the independent oracle for the Gaussian
    binomial in the tests.
    """
    if s_size < 0 or t_size < 0:
        raise ValueError("part sizes must be non-negative")
    universe = range(1, s_size + t_size + 1)
    acc: dict[int, int] = {}
    for chosen in itertools.combinations(universe, s_size):
        s_set = set(chosen)
        crossings = sum(1 for s in chosen for t in universe if t > s and t not in s_set)
        acc[crossings] = acc.get(crossings, 0) + 1
    return QPolynomial(acc)
