"""Formal torus weights and the per-fixed-point weight lists.

The diagonal torus acting on C^n has characters a_1, ..., a_n.  A weight is
a formal combination sum_i c_i a_i with exact rational coefficients; for
maps of degree at most 3 every denominator divides the degree of the edge
that produced the weight.  Signs follow the ordering a_1 << a_2 << ... <<
a_n: the sign of a nonzero weight is the sign of its highest-index nonzero
coefficient (equivalently, its sign under any numeric substitution that
grows fast enough with the index).

Torus-fixed points of the Grassmannian G(k, n) are the k-subsets of {1..n}
(coordinate subspaces), and a torus-fixed line joins two subsets sharing
k-1 elements.  For an edge covering such a line with degree d, the two end
labels share a (k-1)-set A and are distinguished by single elements b_u and
b_v.  The sections of the restricted tangent bundle along the degree-d
cover carry the weights

  (a) a_r - a_a                                 for a in A, r outside both labels,
  (b) (s/d) a_{b_u} + (t/d) a_{b_v} - a_a       for s+t = d, a in A,
  (c) a_r - (s/d) a_{b_u} - (t/d) a_{b_v}       for s+t = d, r outside both labels,
  (d) (c/d) (a_{b_v} - a_{b_u})                 for c = -d..d,

a multiset of size k(n-k) + d*n containing exactly one zero (c = 0 in (d),
later cancelled by the reparametrization algebra of the edge).

Each family exists twice.  `TorusWeight` and `WeightMultiset` hold weights
with `Fraction` coefficients; that form serves the per-fixed-point reports,
the embedding cross-check and the tests.  The localization sum only needs
signs, so it uses the integer form: substituting a_i -> 6 * 32^(i-1) turns a
weight into one int.  Scaling by 6 clears every denominator, every scaled
coefficient lies in [-12, 12], and base 32 > 24 keeps the encoding injective
with the int's sign equal to the weight's sign (`TorusWeight.encoded`).

The module also provides the weight bookkeeping for the two coordinate
inclusions that push a fixed map into a larger Grassmannian: mode "iota"
adjoins a new ambient coordinate (labels unchanged), mode "kappa" adjoins
the new coordinate to the ambient space *and* to every label.  Both modes
change the tangent weight multiset by a pure surplus (no cancellations),
which `embedding_weight_delta` computes directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import TYPE_CHECKING, Iterable, Iterator, Literal

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from .fixedgraphs import DecoratedTree

GrassmannPoint = tuple[int, ...]
EmbedMode = Literal["iota", "kappa"]

_ZERO = Fraction(0)

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


class TorusWeight:
    """An immutable rational combination of the n torus characters.

    Stored densely as a length-n tuple of Fractions.  The hash is computed
    once at construction: weights are used heavily as multiset keys and the
    hot constructors below intern them, so the common dictionary operations
    reduce to identity comparisons.
    """

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n: int, coeffs: Iterable[Fraction | int]) -> None:
        tup = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)
        if len(tup) != n:
            raise ValueError(f"expected {n} coefficients, got {len(tup)}")
        self.n = n
        self.coeffs = tup
        self._hash = hash((n, tup))

    @classmethod
    def zero(cls, n: int) -> "TorusWeight":
        return _zero_weight(n)

    @classmethod
    def alpha(cls, n: int, index: int) -> "TorusWeight":
        """The basis character a_index (1-indexed)."""
        if not 1 <= index <= n:
            raise ValueError(f"character index {index} outside 1..{n}")
        return cls(n, tuple(1 if i == index else 0 for i in range(1, n + 1)))

    # -- algebra -------------------------------------------------------------

    def _require_same_space(self, other: "TorusWeight") -> None:
        if self.n != other.n:
            raise ValueError("weights live in different character spaces")

    def __add__(self, other: "TorusWeight") -> "TorusWeight":
        if not isinstance(other, TorusWeight):
            return NotImplemented
        self._require_same_space(other)
        return TorusWeight(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TorusWeight") -> "TorusWeight":
        if not isinstance(other, TorusWeight):
            return NotImplemented
        self._require_same_space(other)
        return TorusWeight(self.n, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TorusWeight":
        return TorusWeight(self.n, tuple(-a for a in self.coeffs))

    def __mul__(self, scalar: int | Fraction) -> "TorusWeight":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return TorusWeight(self.n, tuple(a * scalar for a in self.coeffs))

    __rmul__ = __mul__

    # -- structure -----------------------------------------------------------

    @property
    def sign(self) -> int:
        """Sign under a_1 << a_2 << ... << a_n; zero weight has sign 0."""
        for c in reversed(self.coeffs):
            if c:
                return 1 if c > 0 else -1
        return 0

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def insert_index(self, m: int) -> "TorusWeight":
        """View this weight in n+1 characters, the new one inserted at slot m."""
        if not 1 <= m <= self.n + 1:
            raise ValueError(f"insertion slot {m} outside 1..{self.n + 1}")
        co = self.coeffs
        return TorusWeight(self.n + 1, co[: m - 1] + (_ZERO,) + co[m - 1 :])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, TorusWeight):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "TorusWeight") -> bool:
        self._require_same_space(other)
        return self.coeffs < other.coeffs

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs, start=1):
            if not c:
                continue
            body = f"a{i}" if abs(c) == 1 else f"{abs(c)}*a{i}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TorusWeight({self.n}, {self.coeffs!r})"

    def encoded(self) -> int:
        """This weight as one int, by the substitution a_i -> 6 * WEIGHT_BASE**(i-1).

        Raises WeightConsistencyError if a coefficient is not a multiple of
        1/6 or exceeds the bound that keeps the encoding injective.
        """
        code = 0
        for c in reversed(self.coeffs):
            scaled = c * WEIGHT_SCALE
            if scaled.denominator != 1 or abs(scaled) > MAX_SCALED_COEFF:
                raise WeightConsistencyError(f"coefficient {c} of {self} has no int encoding")
            code = code * WEIGHT_BASE + int(scaled)
        return code

    # -- serialization ---------------------------------------------------------

    def to_fraction_strings(self) -> list[str]:
        """The coefficient vector as reduced fraction strings ("-1/2", "0", "2")."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_fraction_strings(cls, strings: Iterable[str]) -> "TorusWeight":
        coeffs = tuple(Fraction(s) for s in strings)
        return cls(len(coeffs), coeffs)


# Interned constructors for the handful of weight shapes the localization
# calculus produces.  Costs are dominated by dict operations keyed on these
# objects, so returning the same instance for the same parameters matters.


@cache
def _zero_weight(n: int) -> TorusWeight:
    return TorusWeight(n, (0,) * n)


@cache
def _alpha_diff(n: int, b: int, a: int) -> TorusWeight:
    """a_b - a_a."""
    co = [_ZERO] * n
    co[b - 1] += 1
    co[a - 1] -= 1
    return TorusWeight(n, co)


@cache
def _cover_minus_point(n: int, s: int, d: int, b_u: int, b_v: int, x: int) -> TorusWeight:
    """(s/d) a_{b_u} + ((d-s)/d) a_{b_v} - a_x."""
    co = [_ZERO] * n
    co[b_u - 1] += Fraction(s, d)
    co[b_v - 1] += Fraction(d - s, d)
    co[x - 1] -= 1
    return TorusWeight(n, co)


@cache
def _point_minus_cover(n: int, r: int, s: int, d: int, b_u: int, b_v: int) -> TorusWeight:
    """a_r - (s/d) a_{b_u} - ((d-s)/d) a_{b_v}."""
    co = [_ZERO] * n
    co[r - 1] += 1
    co[b_u - 1] -= Fraction(s, d)
    co[b_v - 1] -= Fraction(d - s, d)
    return TorusWeight(n, co)


@cache
def _line_multiple(n: int, c: int, d: int, b_from: int, b_to: int) -> TorusWeight:
    """(c/d) (a_{b_to} - a_{b_from})."""
    co = [_ZERO] * n
    co[b_to - 1] += Fraction(c, d)
    co[b_from - 1] -= Fraction(c, d)
    return TorusWeight(n, co)


def domain_tangent_weight(n: int, deg: int, b_here: int, b_there: int) -> TorusWeight:
    """Tangent character of the degree-`deg` cover at the end over `b_here`'s label."""
    return _line_multiple(n, 1, deg, b_here, b_there)


class WeightMultiset:
    """A multiset of torus weights with (possibly signed) multiplicities.

    During tangent-space assembly multiplicities are added and subtracted
    freely; the finished multiset must end with every multiplicity >= 0 and
    no zero weight remaining, which callers enforce.  Entries with
    multiplicity 0 are never stored, so equality is plain dict equality.
    """

    __slots__ = ("_m",)

    def __init__(self, weights: Iterable[TorusWeight] = ()) -> None:
        self._m: dict[TorusWeight, int] = {}
        for w in weights:
            self.add(w)

    def add(self, w: TorusWeight, mult: int = 1) -> None:
        m = self._m
        v = m.get(w, 0) + mult
        if v:
            m[w] = v
        elif w in m:
            del m[w]

    def update(self, weights: Iterable[TorusWeight], mult: int = 1) -> None:
        for w in weights:
            self.add(w, mult)

    def merged(self, other: "WeightMultiset") -> "WeightMultiset":
        """Disjoint union (multiplicities add)."""
        out = WeightMultiset()
        out._m = dict(self._m)
        for w, mult in other._m.items():
            out.add(w, mult)
        return out

    def multiplicity(self, w: TorusWeight) -> int:
        return self._m.get(w, 0)

    def total(self) -> int:
        """Sum of multiplicities (the multiset's size when all are >= 0)."""
        return sum(self._m.values())

    def distinct(self) -> int:
        return len(self._m)

    def min_multiplicity(self) -> int:
        return min(self._m.values(), default=0)

    def zero_multiplicity(self) -> int:
        return sum(mult for w, mult in self._m.items() if w.is_zero)

    def items(self) -> Iterator[tuple[TorusWeight, int]]:
        return iter(self._m.items())

    def sorted_items(self) -> list[tuple[TorusWeight, int]]:
        return sorted(self._m.items(), key=lambda item: (item[0].n, item[0].coeffs))

    def expanded(self) -> Iterator[TorusWeight]:
        """Yield each weight repeated by its multiplicity (requires all >= 0)."""
        for w, mult in self.sorted_items():
            if mult < 0:
                raise WeightConsistencyError(f"negative multiplicity {mult} for {w}")
            yield from (w,) * mult

    def sign_counts(self) -> tuple[int, int, int]:
        """Multiplicity-weighted (positive, negative, zero) counts."""
        pos = neg = zero = 0
        for w, mult in self._m.items():
            s = w.sign
            if s > 0:
                pos += mult
            elif s < 0:
                neg += mult
            else:
                zero += mult
        return pos, neg, zero

    def insert_index(self, m: int) -> "WeightMultiset":
        """Push every weight into n+1 characters (new slot m), keeping multiplicities."""
        out = WeightMultiset()
        for w, mult in self._m.items():
            out.add(w.insert_index(m), mult)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightMultiset):
            return NotImplemented
        return self._m == other._m

    def __len__(self) -> int:
        return len(self._m)

    def __contains__(self, w: TorusWeight) -> bool:
        return w in self._m

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {mult}" for w, mult in self.sorted_items())
        return f"WeightMultiset({{{inner}}})"


def _validate_point(point: GrassmannPoint, n: int) -> tuple[int, ...]:
    p = tuple(point)
    if any(not isinstance(i, int) for i in p):
        raise ValueError("labels must contain integers")
    if any(p[i] >= p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"label {p} is not strictly increasing")
    if p and (p[0] < 1 or p[-1] > n):
        raise ValueError(f"label {p} leaves the range 1..{n}")
    return p


def _iter_point_tangent(point: tuple[int, ...], n: int) -> Iterator[TorusWeight]:
    inside = set(point)
    for a in point:
        for b in range(1, n + 1):
            if b not in inside:
                yield _alpha_diff(n, b, a)


def grassmann_tangent_weights(point: GrassmannPoint, n: int) -> WeightMultiset:
    """Tangent weights of G(k, n) at the coordinate subspace `point`.

    The k(n-k) characters a_b - a_a for a inside the label and b outside.
    """
    p = _validate_point(point, n)
    ws = WeightMultiset()
    ws.update(_iter_point_tangent(p, n))
    return ws


def _iter_edge_h0(
    shared: tuple[int, ...], b_u: int, b_v: int, deg: int, n: int
) -> Iterator[TorusWeight]:
    outside = [r for r in range(1, n + 1) if r != b_u and r != b_v and r not in shared]
    for a in shared:
        for r in outside:
            yield _alpha_diff(n, r, a)
        for s in range(deg + 1):
            yield _cover_minus_point(n, s, deg, b_u, b_v, a)
    for r in outside:
        for s in range(deg + 1):
            yield _point_minus_cover(n, r, s, deg, b_u, b_v)
    for c in range(-deg, deg + 1):
        yield _line_multiple(n, c, deg, b_u, b_v)


def edge_h0_weights(
    shared: Iterable[int], b_u: int, b_v: int, deg: int, n: int
) -> WeightMultiset:
    """Section weights of the restricted tangent bundle along one edge.

    `shared` is the (k-1)-set common to both end labels; b_u and b_v are the
    elements distinguishing the two ends; deg is the covering degree of the
    edge.  Returns the four families documented at module level: a multiset
    of size k(n-k) + deg*n with exactly one zero entry.
    """
    a_set = tuple(sorted(shared))
    if deg < 1:
        raise ValueError("edge degree must be >= 1")
    if b_u == b_v:
        raise ValueError("the distinguishing elements must differ")
    members = set(a_set)
    if len(members) != len(a_set):
        raise ValueError("shared elements must be distinct")
    if b_u in members or b_v in members:
        raise ValueError("distinguishing elements may not lie in the shared set")
    for i in (*a_set, b_u, b_v):
        if not 1 <= i <= n:
            raise ValueError(f"element {i} outside 1..{n}")
    ws = WeightMultiset()
    ws.update(_iter_edge_h0(a_set, b_u, b_v, deg, n))
    return ws


# -- integer families -----------------------------------------------------------
# The weights of _iter_point_tangent, _iter_edge_h0 and domain_tangent_weight,
# encoded as in TorusWeight.encoded but built from ints alone.  The encoding
# is linear, and each division is exact because every encoded character is a
# multiple of 6.


@cache
def _characters(n: int) -> tuple[int, ...]:
    """Encoded a_1..a_n at indices 1..n (index 0 unused)."""
    return (0, *(WEIGHT_SCALE * WEIGHT_BASE**i for i in range(n)))


@cache
def _point_tangent_ints(point: tuple[int, ...], n: int) -> tuple[int, ...]:
    p = _characters(n)
    return tuple(p[b] - p[a] for a in point for b in range(1, n + 1) if b not in point)


@cache
def _edge_h0_ints(
    shared: tuple[int, ...], b_u: int, b_v: int, deg: int, n: int
) -> tuple[int, ...]:
    p = _characters(n)
    outside = [r for r in range(1, n + 1) if r != b_u and r != b_v and r not in shared]
    covers = [(s * p[b_u] + (deg - s) * p[b_v]) // deg for s in range(deg + 1)]
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


# -- coordinate inclusions ----------------------------------------------------


def _shift(i: int, m: int) -> int:
    return i if i < m else i + 1


def embed_tree(tree: "DecoratedTree", m: int, mode: EmbedMode) -> "DecoratedTree":
    """Push a fixed tree into the next Grassmannian up.

    The ambient coordinate set grows from {1..n} to {1..n+1}, the new
    coordinate taking slot m (existing indices at or above m shift up by
    one).  Mode "iota" keeps every label as it was; mode "kappa" adjoins the
    new coordinate to every label, raising k by one.
    """
    from .fixedgraphs import DecoratedTree

    n = tree.n
    if not 1 <= m <= n + 1:
        raise ValueError(f"new coordinate slot {m} outside 1..{n + 1}")
    if mode == "iota":
        verts = tuple(tuple(_shift(i, m) for i in lab) for lab in tree.vertices)
        k = tree.k
    elif mode == "kappa":
        verts = tuple(
            tuple(sorted((m, *(_shift(i, m) for i in lab)))) for lab in tree.vertices
        )
        k = tree.k + 1
    else:
        raise ValueError(f"unknown embedding mode {mode!r}")
    return DecoratedTree(k=k, n=n + 1, vertices=verts, edges=tree.edges)


def embedding_weight_delta(tree: "DecoratedTree", m: int, mode: EmbedMode) -> WeightMultiset:
    """Tangent-weight surplus created by embedding `tree` via `embed_tree`.

    Computed directly in the enlarged character space: per edge, the new
    coordinate contributes fresh section weights; per vertex of valence v >=
    2, (v-1) copies of the new Grassmannian tangent directions are removed.
    The result always nets out non-negative (checked), and satisfies

        tangent(embedded tree) == tangent(tree).insert_index(m) + delta.
    """
    n1 = tree.n + 1
    if not 1 <= m <= tree.n + 1:
        raise ValueError(f"new coordinate slot {m} outside 1..{tree.n + 1}")
    if mode not in ("iota", "kappa"):
        raise ValueError(f"unknown embedding mode {mode!r}")
    delta = WeightMultiset()
    for edge in tree.edges:
        shared, b_u, b_v = tree.edge_frame(edge)
        su = _shift(b_u, m)
        sv = _shift(b_v, m)
        if mode == "iota":
            for a in shared:
                delta.add(_alpha_diff(n1, m, _shift(a, m)))
            for s in range(edge.deg + 1):
                delta.add(_point_minus_cover(n1, m, s, edge.deg, su, sv))
        else:
            label_union = {m, su, sv, *(_shift(a, m) for a in shared)}
            for r in range(1, n1 + 1):
                if r not in label_union:
                    delta.add(_alpha_diff(n1, r, m))
            for s in range(edge.deg + 1):
                delta.add(_cover_minus_point(n1, s, edge.deg, su, sv, m))
    valences = tree.valences()
    for idx, label in enumerate(tree.vertices):
        v = valences[idx]
        if v < 2:
            continue
        shifted = {_shift(i, m) for i in label}
        if mode == "iota":
            for a in shifted:
                delta.add(_alpha_diff(n1, m, a), -(v - 1))
        else:
            for b in range(1, n1 + 1):
                if b != m and b not in shifted:
                    delta.add(_alpha_diff(n1, b, m), -(v - 1))
    if delta.min_multiplicity() < 0:
        raise WeightConsistencyError(
            f"embedding surplus went negative for m={m}, mode={mode}"
        )
    return delta
