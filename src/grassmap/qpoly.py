"""Exact polynomial arithmetic in the formal variable q.

Everything this package reports -- Poincare polynomials, Betti rows, Gaussian
binomial coefficients -- is an integer-coefficient polynomial in a single
formal variable q, stored sparsely as {exponent: coefficient} with zero
coefficients never kept.  Arithmetic is exact throughout (arbitrary-precision
integers, no floating point), so polynomial equality is a trustworthy
verification primitive.

Exponents may be negative: the palindromicity check rewrites P(q) as
q^D * P(1/q), which passes through Laurent territory.  Every externally
reported polynomial has lowest exponent 0, and the coefficient of q^i is the
2i-th Betti number of the space in question (odd Betti numbers all vanish
for these spaces).

Division and products deserve a note.  `exact_div` runs long division from
the *lowest* exponent upward, so that dividing power-series-style products
of (1 - q^i) factors never stalls on a unit leading term.  It works on a
dense list of the numerator's coefficients, one slot per exponent, so each
quotient term costs one pass over the denominator and no search for the
lowest remaining term.  When the division is not exact the remainder left
over is attached to the raised `DivisibilityError`: (1+q)/(1-q) fails with
remainder 2q.  A nonzero remainder escaping one of the closed-form
evaluations is a mathematical inconsistency (the rational expression failed
to collapse to a polynomial), not a user error, and is treated as such by
callers.  A product of two polynomials is one product of two integers
(Kronecker substitution): each factor is evaluated at q = 2^(8w), with w
bytes per coefficient chosen from a bound on the product's coefficients,
and the product's coefficients are read back from the digits of the
integer product.  Python integers are exact at any size, so this is exact
too.  Its cost follows the factors' exponent spans rather than their term
counts, which suits the dense polynomials of this package.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import lshift
from typing import Iterable, Iterator, Mapping


class DivisibilityError(ArithmeticError):
    """A polynomial division that had to be exact left a remainder."""

    def __init__(self, remainder: "QPolynomial", message: str | None = None) -> None:
        self.remainder = remainder
        super().__init__(message or f"non-exact polynomial division (remainder: {remainder})")


class QPolynomial:
    """Sparse integer Laurent polynomial in q.

    Instances are immutable: every operation returns a new polynomial in
    canonical form.  They hash by value, so they can key dicts and be cached
    freely.
    """

    __slots__ = ("_c",)

    def __init__(
        self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None
    ) -> None:
        acc: dict[int, int] = {}
        if coeffs is not None:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for e, c in items:
                if not isinstance(e, int) or not isinstance(c, int):
                    raise TypeError("exponents and coefficients must be integers")
                v = acc.get(e, 0) + c
                if v:
                    acc[e] = v
                elif e in acc:
                    del acc[e]
        self._c = acc

    @classmethod
    def _make(cls, canonical: dict[int, int]) -> "QPolynomial":
        # Trusted constructor for dicts already free of zero values.
        self = object.__new__(cls)
        self._c = canonical
        return self

    # -- inspection ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def degree(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no degree")
        return max(self._c)

    @property
    def low(self) -> int:
        if not self._c:
            raise ValueError("the zero polynomial has no lowest exponent")
        return min(self._c)

    def coefficient(self, exponent: int) -> int:
        return self._c.get(exponent, 0)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for e in sorted(self._c):
            yield e, self._c[e]

    def coefficient_list(self) -> list[int]:
        """Dense coefficients from q^0 up to the degree (Betti row order)."""
        if not self._c:
            return [0]
        if self.low < 0:
            raise ValueError("coefficient_list needs lowest exponent >= 0")
        return [self._c.get(e, 0) for e in range(self.degree + 1)]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return QPolynomial._make(out)

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        if not isinstance(other, QPolynomial):
            return NotImplemented
        out = dict(self._c)
        for e, c in other._c.items():
            v = out.get(e, 0) - c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return QPolynomial._make(out)

    def __neg__(self) -> "QPolynomial":
        return QPolynomial._make({e: -c for e, c in self._c.items()})

    def __mul__(self, other: "QPolynomial | int") -> "QPolynomial":
        if isinstance(other, int):
            if other == 0:
                return QPolynomial._make({})
            return QPolynomial._make({e: c * other for e, c in self._c.items()})
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return QPolynomial._make({})
        # Kronecker substitution: evaluate both factors at q = 2^(8*width),
        # multiply the two integers, and read the product's coefficients back
        # from its base-2^(8*width) digits.  `width` bytes hold every product
        # coefficient strictly inside +-2^(8*width-1); adding `half` in every
        # slot makes each digit c + half, in [0, 2^(8*width)), so no digit
        # borrows from the next.
        bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
        width = bound.bit_length() // 8 + 1
        half = 1 << (8 * width - 1)
        a_low, b_low = min(a), min(b)
        slots = max(a) - a_low + max(b) - b_low + 1
        offset = int.from_bytes(half.to_bytes(width, "little") * slots, "little")
        product = _pack(a, a_low, width) * _pack(b, b_low, width) + offset
        digits = product.to_bytes(width * slots, "little")
        out = {}
        for e, at in enumerate(range(0, len(digits), width), a_low + b_low):
            c = int.from_bytes(digits[at : at + width], "little") - half
            if c:
                out[e] = c
        return QPolynomial._make(out)

    __rmul__ = __mul__

    def __pow__(self, power: int) -> "QPolynomial":
        if not isinstance(power, int) or power < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = ONE
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    def shifted(self, offset: int) -> "QPolynomial":
        """Multiply by q^offset (offset may be negative)."""
        return QPolynomial._make({e + offset: c for e, c in self._c.items()})

    def __call__(self, x: int) -> int | Fraction:
        """Evaluate at an integer point (exactly; q=1 gives Euler numbers)."""
        if self._c and min(self._c) < 0:
            return sum((Fraction(c) * Fraction(x) ** e for e, c in self._c.items()), Fraction(0))
        return sum(c * x**e for e, c in self._c.items())

    # -- comparison / hashing / display --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QPolynomial):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

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
        return f"QPolynomial({dict(sorted(self._c.items()))!r})"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        """{"coeffs": [[exponent, coefficient-as-string], ...]} ascending."""
        return {"coeffs": [[e, str(c)] for e, c in self.terms()]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "QPolynomial":
        """Inverse of `to_json_dict`: every entry is an int or a decimal integer
        string; a float, a bool or any other string raises ValueError."""
        return cls([(_json_int(e), _json_int(c)) for e, c in data["coeffs"]])


def _json_int(value) -> int:
    if type(value) is int or (isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value)):
        return int(value)
    raise ValueError(f"not an integer: {value!r}")


ZERO = QPolynomial()
ONE = QPolynomial({0: 1})


def _pack(coeffs: dict[int, int], low: int, width: int) -> int:
    """The integer sum(c * 2^(8*width*(e-low))): q^-low times the polynomial,
    at q = 2^(8*width).  One shifted term per coefficient, so sparse factors
    pack in time proportional to their terms."""
    shift = (8 * width).__mul__
    return sum(map(lshift, coeffs.values(), map(shift, map((-low).__add__, coeffs))))


def q_power(exponent: int, coefficient: int = 1) -> QPolynomial:
    """The monomial coefficient * q^exponent."""
    return QPolynomial({exponent: coefficient})


def _one_minus_q(i: int) -> QPolynomial:
    assert i > 0
    return QPolynomial._make({0: 1, i: -1})


def exact_div(numerator: QPolynomial, denominator: QPolynomial) -> QPolynomial:
    """Divide exactly, raising DivisibilityError (with remainder) otherwise.

    Long division runs from the lowest exponent upward, so the quotient is
    built power-series style; whatever cannot be cleared below the feasible
    quotient degree is the remainder.  Example: (1+q)/(1-q) fails with
    remainder 2q, because 1-q goes in once at q^0 and leaves 2q behind.
    """
    if denominator.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if numerator.is_zero:
        return ZERO
    num, den = numerator._c, denominator._c
    low = min(num)
    rem = [num.get(e, 0) for e in range(low, max(num) + 1)]  # rem[i]: coefficient of q^(low+i)
    den_low = min(den)
    den_low_coeff = den[den_low]
    steps = [(e - den_low, c) for e, c in den.items()]
    # a quotient term c*q^(low+i-den_low) may not pass max(num) - max(den)
    last = max(num) - max(den) + den_low - low
    quot: dict[int, int] = {}
    for i in range(last + 1):
        if not rem[i]:
            continue
        c, leftover = divmod(rem[i], den_low_coeff)
        if leftover:
            break
        quot[low + i - den_low] = c
        for offset, dc in steps:
            rem[i + offset] -= dc * c
    leftovers = {low + i: c for i, c in enumerate(rem) if c}
    if leftovers:
        raise DivisibilityError(QPolynomial._make(leftovers))
    return QPolynomial._make(quot)


@cache
def qbinomial(n: int, k: int) -> QPolynomial:
    """Gaussian binomial coefficient: the q-count of k-subsets of an n-set.

    Computed by the product definition, one exactly-dividing factor at a
    time (every prefix is itself a Gaussian binomial, so each step divides
    exactly).  Degree k(n-k); palindromic; non-negative coefficients.
    """
    if n < 0 or k < 0 or k > n:
        raise ValueError(f"Gaussian binomial undefined for n={n}, k={k}")
    kk = min(k, n - k)
    result = ONE
    for i in range(1, kk + 1):
        # times (1 - q^m) is a shifted subtraction, cheaper than a product
        result = exact_div(result - result.shifted(n - kk + i), _one_minus_q(i))
    return result


def qbinomial_or_zero(n: int, k: int) -> QPolynomial:
    """Gaussian binomial with the summation convention: 0 when out of range."""
    if n < 0 or k < 0 or k > n:
        return ZERO
    return qbinomial(n, k)


def reverse(p: QPolynomial, top: int) -> QPolynomial:
    """Reverse coefficients against exponent `top`: q^top * p(1/q).

    Defined when p has lowest exponent >= 0 and degree <= top.  A polynomial
    is palindromic for `top` exactly when reverse(p, top) == p.
    """
    if p.is_zero:
        return p
    if p.low < 0:
        raise ValueError("reverse requires lowest exponent >= 0")
    if p.degree > top:
        raise ValueError(f"degree {p.degree} exceeds the reversal bound {top}")
    return QPolynomial._make({top - e: c for e, c in p._c.items()})


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


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of exercising one Gaussian-binomial identity over a range."""

    name: str
    cases: int
    first_failure: str | None = None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def verify_qbinomial_identities(n_max: int) -> list[IdentityCheck]:
    """Exercise the five structural Gaussian-binomial identities up to n_max.

    Returns one IdentityCheck per identity, in a fixed order:
      * symmetry: C(n,k) == C(n,n-k)
      * pascal-high: C(n,k) == C(n-1,k) + q^(n-k) C(n-1,k-1)
      * pascal-low:  C(n,k) == q^k C(n-1,k) + C(n-1,k-1)
      * hockey-stick: sum_{j<=a} q^j C(d+j,j) == C(d+a+1,a)
      * convolution: sum_{i+j=a} q^((c+1)j) C(c+i,i) C(d+j,j) == C(c+d+a+1,a)
    Out-of-range binomials inside the recurrences count as 0.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    results = []

    def run(name: str, case_iter, check) -> None:
        count = 0
        failure = None
        for params in case_iter:
            count += 1
            if not check(*params):
                failure = f"counterexample at {params}"
                break
        results.append(IdentityCheck(name, count, failure))

    run(
        "symmetry",
        ((n, k) for n in range(n_max + 1) for k in range(n + 1)),
        lambda n, k: qbinomial(n, k) == qbinomial(n, n - k),
    )
    run(
        "pascal-high",
        ((n, k) for n in range(1, n_max + 1) for k in range(n + 1)),
        lambda n, k: qbinomial(n, k)
        == qbinomial_or_zero(n - 1, k) + q_power(n - k) * qbinomial_or_zero(n - 1, k - 1),
    )
    run(
        "pascal-low",
        ((n, k) for n in range(1, n_max + 1) for k in range(n + 1)),
        lambda n, k: qbinomial(n, k)
        == q_power(k) * qbinomial_or_zero(n - 1, k) + qbinomial_or_zero(n - 1, k - 1),
    )

    def hockey(d: int, a: int) -> bool:
        total = ZERO
        for j in range(a + 1):
            total = total + q_power(j) * qbinomial(d + j, j)
        return total == qbinomial(d + a + 1, a)

    run(
        "hockey-stick",
        ((d, a) for d in range(n_max) for a in range(n_max - d) if d + a + 1 <= n_max),
        hockey,
    )

    def convolution(c: int, d: int, a: int) -> bool:
        total = ZERO
        for j in range(a + 1):
            i = a - j
            total = total + q_power((c + 1) * j) * qbinomial(c + i, i) * qbinomial(d + j, j)
        return total == qbinomial(c + d + a + 1, a)

    run(
        "convolution",
        (
            (c, d, a)
            for c in range(n_max)
            for d in range(n_max - c)
            for a in range(n_max - c - d)
            if c + d + a + 1 <= n_max
        ),
        convolution,
    )
    return results
