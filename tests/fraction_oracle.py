"""The tangent weights in exact rational form: the tests' oracle for the int encoding.

A weight is a tuple of the n exact coefficients of the characters a_1..a_n:
a `Fraction` where the coefficient is not integral, else an `int` (the two
compare and hash alike, and an int hashes much faster).  A multiset is a
`Counter` of weights.  Each family is written from its formula in the
`grassmap.weights` docstring, and `tangent` from the assembly in the
`grassmap.localization` docstring.  Nothing here reads the int encoding
except `encode`, which maps an oracle weight to the int the program should
hold for it.
"""

from collections import Counter
from fractions import Fraction
from functools import cache

from grassmap.weights import WEIGHT_BASE, WEIGHT_SCALE
from residual_oracle import edge_frame, embed_tree, valences


def weight(n, *terms):
    """The sum of c * a_i over the (c, i) terms, as n coefficients."""
    co = [0] * n
    for c, i in terms:
        co[i - 1] += c
    return tuple(c.numerator if c.denominator == 1 else c for c in co)


def sign(w):
    """The sign under a_1 << a_2 << ... << a_n: that of the highest nonzero coefficient."""
    return next(((c > 0) - (c < 0) for c in reversed(w) if c), 0)


def sign_counts(ws):
    """Multiplicity-weighted (positive, negative) counts of a multiset."""
    return (sum(mult for w, mult in ws.items() if sign(w) > 0),
            sum(mult for w, mult in ws.items() if sign(w) < 0))


def encode(w):
    """The int of w under a_i -> WEIGHT_SCALE * WEIGHT_BASE**(i-1)."""
    return sum(int(c * WEIGHT_SCALE) * WEIGHT_BASE**i for i, c in enumerate(w))


def encoded(ws):
    """A multiset's entries of nonzero multiplicity, keyed by their ints."""
    return {encode(w): mult for w, mult in ws.items() if mult}


def lift(ws, m):
    """A multiset viewed in n+1 characters, the new one at slot m."""
    return Counter({w[: m - 1] + (0,) + w[m - 1 :]: mult for w, mult in ws.items()})


@cache
def point_tangent(label, n):
    """a_b - a_a for a in the label and b outside it: the tangent of G(k, n) at the label."""
    return tuple(weight(n, (1, b), (-1, a)) for a in label for b in range(1, n + 1) if b not in label)


@cache
def edge_h0(shared, b_u, b_v, d, n):
    """The section families (a)-(d) along one edge of degree d."""
    outside = [r for r in range(1, n + 1) if r not in (*shared, b_u, b_v)]
    covers = [((Fraction(s, d), b_u), (Fraction(d - s, d), b_v)) for s in range(d + 1)]
    return (
        *(weight(n, (1, r), (-1, a)) for a in shared for r in outside),
        *(weight(n, *cover, (-1, a)) for a in shared for cover in covers),
        *(weight(n, (1, r), *((-c, i) for c, i in cover)) for r in outside for cover in covers),
        *(weight(n, (Fraction(c, d), b_v), (Fraction(-c, d), b_u)) for c in range(-d, d + 1)),
    )


def domain_tangent(d, b_here, b_there):
    """The terms of (1/d) (a_{b_there} - a_{b_here}), the tangent character of a
    degree-d cover at its end over b_here's label."""
    return (Fraction(1, d), b_there), (Fraction(-1, d), b_here)


def tangent(tree):
    """The tangent weight multiset at a fixed tree, entries netted to 0 included."""
    n, valence = tree.n, valences(tree)
    ws = Counter()
    omegas = [[] for _ in tree.vertices]
    for edge in tree.edges:
        shared, b_u, b_v = edge_frame(tree, edge)
        ws.update(edge_h0(shared, b_u, b_v, edge.deg, n))
        ws[weight(n)] -= 1
        for end, here, there in ((edge.u, b_u, b_v), (edge.v, b_v, b_u)):
            omegas[end].append(domain_tangent(edge.deg, here, there))
            if valence[end] == 1:
                ws[weight(n, *omegas[end][-1])] -= 1
    for label, v, omega in zip(tree.vertices, valence, omegas):
        if v == 2:
            ws[weight(n, *omega[0], *omega[1])] += 1
        elif v == 3:
            ws.update(weight(n, *terms) for terms in omega)
        for w in point_tangent(label, n) if v >= 2 else ():
            ws[w] -= v - 1
    return ws


def embedding_delta(tree, m, mode):
    """The surplus of `embed_tree(tree, m, mode)` over the lifted tangent of the tree.

    The embedded tree's edge families and vertex tangents are the lifted ones
    plus the weights that involve the new character a_m: those of the edges
    are added, those of each vertex of valence v >= 2 removed v-1 times.
    """
    big = embed_tree(tree, m, mode)
    delta = Counter()
    for edge in big.edges:
        delta.update(w for w in edge_h0(*edge_frame(big, edge), edge.deg, big.n) if w[m - 1])
    for label, v in zip(big.vertices, valences(big)):
        for w in point_tangent(label, big.n) if v >= 2 else ():
            if w[m - 1]:
                delta[w] -= v - 1
    return delta
