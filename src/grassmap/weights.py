"""Torus weights as integers, and the weight families of a fixed map.

The diagonal torus acting on C^n has characters a_1, ..., a_n.  A weight is
a formal combination sum_i c_i a_i with exact rational coefficients; for
maps of degree at most 3 every denominator divides the degree of the edge
that produced the weight.  Signs follow the ordering a_1 << a_2 << ... <<
a_n: the sign of a nonzero weight is the sign of its highest-index nonzero
coefficient (equivalently, its sign under any numeric substitution that
grows fast enough with the index).

Every weight is held as one int, by the substitution a_i -> 6 * 32^(i-1).
Scaling by 6 clears every denominator, every scaled coefficient lies in
[-12, 12], and base 32 > 24 keeps the encoding injective with the int's sign
equal to the weight's sign; `_digits` reads the scaled coefficients back.
The encoding is linear, so each family below is built from the encoded
characters (`_characters`) alone, and each division is exact because every
encoded character is a multiple of 6.  These ints are the program's only
form of a weight: `grassmap betti --reports` decodes each into its balanced
base-32 digits, the coefficients times 6, and prints them as exact
fractions.  The rational form, one `Fraction` vector per weight, lives only
in the tests (tests/fraction_oracle.py), as the oracle for the int form.

Torus-fixed points of the Grassmannian G(k, n) are the k-subsets of {1..n}
(coordinate subspaces).  Its tangent space at a label carries the k(n-k)
weights a_b - a_a for a inside the label and b outside (`_point_tangent_ints`).
A torus-fixed line joins two subsets sharing k-1 elements.  For an edge
covering such a line with degree d, the two end labels share a (k-1)-set A
and are distinguished by single elements b_u and b_v.  The sections of the
restricted tangent bundle along the degree-d cover carry the weights
(`_edge_h0_ints`)

  (a) a_r - a_a                                 for a in A, r outside both labels,
  (b) (s/d) a_{b_u} + (t/d) a_{b_v} - a_a       for s+t = d, a in A,
  (c) a_r - (s/d) a_{b_u} - (t/d) a_{b_v}       for s+t = d, r outside both labels,
  (d) (c/d) (a_{b_v} - a_{b_u})                 for c = -d..d,

a multiset of size k(n-k) + d*n containing exactly one zero (c = 0 in (d),
later cancelled by the reparametrization algebra of the edge).  The cover's
domain has the tangent character (1/d) (a_{b_v} - a_{b_u}) at its end over
the label holding b_u (`_domain_tangent_int`).
"""

from __future__ import annotations

from functools import cache

GrassmannPoint = tuple[int, ...]

# The integer encoding (module docstring).  The largest scaled coefficient,
# 12, comes from a node-smoothing weight 2(a_t - a_h) where two unit legs
# agree.  With digits in [-12, 12] and a base above 24 the lower digits sum to
# less than one unit of the highest nonzero digit, which fixes the int's sign.
WEIGHT_SCALE = 6
MAX_SCALED_COEFF = 12
WEIGHT_BASE = 32
assert WEIGHT_BASE > 2 * MAX_SCALED_COEFF


class WeightConsistencyError(ArithmeticError):
    """An assembled weight multiset violated a structural guarantee.

    Raised when cancellation bookkeeping goes negative, a zero weight
    survives where none may, or a total count misses its dimension target.
    Any occurrence is an internal inconsistency, never a user error.
    """


def _digits(code: int, n: int) -> tuple[int, ...]:
    """The scaled coefficients 6 c_1, ..., 6 c_n of an encoded weight: its
    balanced base-WEIGHT_BASE digits, lowest first."""
    half = WEIGHT_BASE // 2
    digits = []
    for _ in range(n):
        digit = (code + half) % WEIGHT_BASE - half
        digits.append(digit)
        code = (code - digit) // WEIGHT_BASE
    return tuple(digits)


# -- integer families -----------------------------------------------------------


@cache
def _characters(n: int) -> tuple[int, ...]:
    """Encoded a_1..a_n at indices 1..n (index 0 unused)."""
    return (0, *(WEIGHT_SCALE * WEIGHT_BASE**i for i in range(n)))


@cache
def _point_tangent_ints(point: tuple[int, ...], n: int) -> tuple[int, ...]:
    p = _characters(n)
    return tuple(p[b] - p[a] for a in point for b in range(1, n + 1) if b not in point)


def _covers(p: tuple[int, ...], b_u: int, b_v: int, deg: int) -> list[int]:
    """(s/deg) a_{b_u} + ((deg-s)/deg) a_{b_v} for s = 0..deg, in table p."""
    return [(s * p[b_u] + (deg - s) * p[b_v]) // deg for s in range(deg + 1)]


@cache
def _edge_h0_ints(shared: tuple[int, ...], b_u: int, b_v: int, deg: int, n: int) -> tuple[int, ...]:
    p = _characters(n)
    outside = [r for r in range(1, n + 1) if r != b_u and r != b_v and r not in shared]
    covers = _covers(p, b_u, b_v, deg)
    line = p[b_v] - p[b_u]
    return (
        *(p[r] - p[a] for a in shared for r in outside),
        *(c - p[a] for a in shared for c in covers),
        *(p[r] - c for r in outside for c in covers),
        *(c * line // deg for c in range(-deg, deg + 1)),
    )


def _domain_tangent_int(n: int, deg: int, b_here: int, b_there: int) -> int:
    p = _characters(n)
    return (p[b_there] - p[b_here]) // deg
