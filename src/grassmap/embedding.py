"""The embedding self-check: every fixed tree pushed into a larger Grassmannian.

Two coordinate inclusions push a fixed map into a larger Grassmannian: mode
"iota" adjoins a new ambient coordinate (labels unchanged), into G(k, n+1);
mode "kappa" adjoins the new coordinate to the ambient space *and* to every
label, into G(k+1, n+1).
`_lift` reads a weight in n+1 characters, the new one at slot m, by
inserting a zero digit there: a_i becomes a_{i+1} for i >= m, no lifted
weight involves the new a_m, and every sign is kept.  The embedded tree's
edge families and vertex tangents are the lifted ones plus the weights that
involve the new character, so both modes change the tangent weight multiset
by a pure surplus (no cancellations): the edges add their new weights, and
each vertex of valence v >= 2 removes v-1 copies of its own.  These pieces
are defined once, memoized per edge frame (`_edge_surplus_ints`) and per
label (`_point_surplus_ints`).

`failed_cases` checks, for every slot and mode of one tree, that the
embedded tree's tangent is the lifted tangent plus the surplus, without
assembling either tangent.  Embedding changes no edge, valence or domain
character, so the node and reparametrization terms cancel, and direct -
lifted - surplus is a sum of local residuals: per edge, its embedded family
minus its lifted family minus its surplus piece; per vertex of valence
v >= 2, minus v-1 times the same for its Grassmannian tangent.  The residuals
depend on an edge frame or a label, the slot and the mode only.  They are
checked once per frame or label over every slot and mode, and the cases with
a non-empty residual are memoized as its misfit set.  The base tangent must
pass the checks of `localization._checked_int_counts`, which checks every
lift of it, and the surplus must hold (no negative multiplicity, no zero,
the right size) at slot n+1 in each mode, which checks it at every slot:
rotating each weight's digit n+1 down to slot m fixes only 0 and maps that
surplus onto the one at slot m.

Both checks are sums of local terms too.  Hang the tree from its first leaf
(`fixedgraphs.topology`) and orient each edge from its parent end p to its
child end: a vertex of valence v >= 2 is the parent of exactly v-1 edges, so
each of its v-1 tangent removals, and each of its v-1 surplus pieces, falls
to one edge.  Per oriented edge, the base residual is its family less the
zero, less the domain character at each leaf end and, unless p is the leaf,
less T(p); the surplus residual in each mode is its piece at slot n+1 less
p's piece unless p is the leaf.  They are memoized with the edge's misfits
(`_edge_share`).  Clean residuals (no zero, no negative multiplicity) whose
sizes, with the node count, make the dimension, and nonzero node weights,
certify the base tangent; clean surplus residuals whose sizes make the size
the embedding adds certify that mode's surplus (`_certified`).  A sum of
clean residuals is clean, so a certified check passes exactly.  That is the
one rule: a tree whose base tangent is not certified raises
WeightConsistencyError, a surplus residual with a negative multiplicity
raises, and a case fails iff it is in some misfit set or its mode's surplus
is not certified.  No tangent or surplus is built.  Without a fault these
verdicts equal the tests' per-case check, which pushes the tree into n+1
coordinates and assembles both tangents and the whole surplus at one slot
(tests/residual_oracle.py, which also checks the residuals one slot and mode
at a time, the oracle of the misfit sets).  Under a fault they may fail a
case that check passes, since each residual is judged before the residuals
cancel (a wrong top-slot surplus fails every slot of its mode), but they
never pass a case that it fails, and the tests hold them to that under each
fault they inject.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Literal, NamedTuple

from .fixedgraphs import DecoratedTree, _label_frame, topology
from .localization import _checked_int_counts, _int_tangent, moduli_dimension
from .weights import (
    WEIGHT_BASE,
    WeightConsistencyError,
    _characters,
    _covers,
    _domain_tangent_int,
    _edge_h0_ints,
    _point_tangent_ints,
)

EmbedMode = Literal["iota", "kappa"]
MODES = ("iota", "kappa")


def _lift(code: int, m: int) -> int:
    """An encoded weight read in n+1 characters, the new one at slot m: its
    digits below slot m stay, and the others move up one slot."""
    low = WEIGHT_BASE ** (m - 1)
    rest = (code + low // 2) % low - low // 2  # the digits below slot m
    return rest + (code - rest) * WEIGHT_BASE


def _shift(i: int, m: int) -> int:
    return i if i < m else i + 1


def _embed_label(label: tuple[int, ...], m: int, mode: EmbedMode) -> tuple[int, ...]:
    """A label (or any set of indices) under the inclusion into n+1 coordinates,
    the new one at slot m: indices at or above m shift up by one, and mode
    "kappa" adjoins m itself."""
    shifted = tuple(_shift(i, m) for i in label)
    return shifted if mode == "iota" else tuple(sorted((m, *shifted)))


@cache
def _edge_surplus_ints(
    shared: tuple[int, ...], b_u: int, b_v: int, deg: int, n: int, m: int, mode: EmbedMode
) -> tuple[int, ...]:
    """The section weights of an edge's embedded family that involve the new a_m."""
    n1 = n + 1
    p = _characters(n1)
    new = p[m]
    su = _shift(b_u, m)
    sv = _shift(b_v, m)
    covers = _covers(p, su, sv, deg)
    if mode == "iota":
        return (*(new - p[_shift(a, m)] for a in shared), *(new - c for c in covers))
    label_union = {m, su, sv, *(_shift(a, m) for a in shared)}
    return (*(p[r] - new for r in range(1, n1 + 1) if r not in label_union), *(c - new for c in covers))


@cache
def _point_surplus_ints(label: tuple[int, ...], n: int, m: int, mode: EmbedMode) -> tuple[int, ...]:
    """The tangent directions of G(k', n+1) at an embedded label that involve the new a_m."""
    n1 = n + 1
    p = _characters(n1)
    new = p[m]
    shifted = {_shift(i, m) for i in label}
    if mode == "iota":
        return tuple(new - p[a] for a in shifted)
    return tuple(p[b] - new for b in range(1, n1 + 1) if b != m and b not in shifted)


@cache
def _edge_misfits(shared: tuple[int, ...], b_u: int, b_v: int, deg: int, n: int) -> frozenset:
    """The cases (m, mode), over every slot m in 1..n+1 and both modes, where
    the edge's residual r_e is not empty or its domain character is not the
    lifted one.  r_e is its embedded family minus its lifted family minus its
    surplus piece; it is empty iff the sorted families agree."""
    family = _edge_h0_ints(shared, b_u, b_v, deg, n)
    omega = _domain_tangent_int(n, deg, b_u, b_v)
    misfits = set()
    for m in range(1, n + 2):
        lifted = sorted(_lift(w, m) for w in family)
        up_u, up_v = _shift(b_u, m), _shift(b_v, m)
        same_omega = _domain_tangent_int(n + 1, deg, up_u, up_v) == _lift(omega, m)
        for mode in MODES:
            embedded = _edge_h0_ints(_embed_label(shared, m, mode), up_u, up_v, deg, n + 1)
            piece = _edge_surplus_ints(shared, b_u, b_v, deg, n, m, mode)
            if not same_omega or sorted(embedded) != sorted([*lifted, *piece]):
                misfits.add((m, mode))
    return frozenset(misfits)


@cache
def _point_misfits(label: tuple[int, ...], n: int) -> frozenset:
    """The cases (m, mode), over every slot and both modes, where the vertex
    residual r_v is not empty: the embedded label's Grassmannian tangent minus
    the lifted one minus its surplus piece."""
    tangent = _point_tangent_ints(label, n)
    misfits = set()
    for m in range(1, n + 2):
        lifted = sorted(_lift(w, m) for w in tangent)
        for mode in MODES:
            embedded = _point_tangent_ints(_embed_label(label, m, mode), n + 1)
            if sorted(embedded) != sorted([*lifted, *_point_surplus_ints(label, n, m, mode)]):
                misfits.add((m, mode))
    return frozenset(misfits)


class _EdgeShare(NamedTuple):
    """One oriented edge's share of its tree's checks (`_edge_share`)."""

    # the sizes of its base residual, then of its surplus residual per mode; None for an unclean one
    sizes: tuple[int | None, ...]
    omega: int  # the domain tangent character at the edge's u end (-omega at its v end)
    misfits: frozenset  # of its frame, and of its parent end's label unless that end is a leaf


@cache
def _edge_share(label_u: tuple[int, ...], label_v: tuple[int, ...], deg: int, n: int,
                leaf_u: bool, leaf_v: bool, parent: tuple[int, ...] | None) -> _EdgeShare:
    """An edge's share of every check of its tree, the tree hung from its
    first leaf (`fixedgraphs.topology`): `parent` is the label of the edge's
    end nearer that leaf, or None if that end is the leaf itself.

    Its base residual is its family less the zero, less the domain character
    at each end that is a leaf, and less the parent's Grassmannian tangent;
    its surplus residual in each mode is its piece at slot n+1 less the
    parent's piece.  A residual is clean when it holds no zero and no
    negative multiplicity, and a surplus residual with a negative
    multiplicity raises WeightConsistencyError.  Hung from a leaf, a vertex
    of valence v >= 2 is the parent of exactly v-1 edges, so the base
    residuals plus the node weights are `_int_tangent` of the tree, and the
    surplus residuals its surplus at slot n+1.
    """
    shared, b_u, b_v = _label_frame(label_u, label_v)
    omega = _domain_tangent_int(n, deg, b_u, b_v)
    base = Counter(_edge_h0_ints(shared, b_u, b_v, deg, n))
    base.subtract((0, *(omega,) * leaf_u, *(-omega,) * leaf_v))
    surpluses = {mode: Counter(_edge_surplus_ints(shared, b_u, b_v, deg, n, n + 1, mode)) for mode in MODES}
    misfits = _edge_misfits(shared, b_u, b_v, deg, n)
    if parent is not None:
        base.subtract(_point_tangent_ints(parent, n))
        for mode, residual in surpluses.items():
            residual.subtract(_point_surplus_ints(parent, n, n + 1, mode))
        misfits |= _point_misfits(parent, n)
    for mode, residual in surpluses.items():
        if min(residual.values(), default=0) < 0:
            raise WeightConsistencyError(f"embedding surplus went negative for m={n + 1}, mode={mode}")
    sizes = tuple(None if residual[0] or min(residual.values(), default=0) < 0 else sum(residual.values())
                  for residual in (base, *surpluses.values()))
    return _EdgeShare(sizes, omega, misfits)


def _edge_shares(tree: DecoratedTree) -> list[_EdgeShare]:
    """Each edge's `_edge_share`, the tree hung from its first leaf as
    `fixedgraphs.topology` hangs it."""
    _, valences, parents = topology(tree.edges)
    labels = tree.vertices
    return [_edge_share(labels[u], labels[v], deg, tree.n, valences[u] == 1, valences[v] == 1,
                        labels[p] if valences[p] > 1 else None)
            for (u, v, deg), p in zip(tree.edges, parents)]


def _certified(tree: DecoratedTree, shares: list[_EdgeShare]) -> tuple[bool, bool, bool]:
    """Do the edges' shares certify that the tree's base tangent passes
    `_checked_int_counts`, and that its surplus at slot n+1 holds in each
    mode?  One flag each, the base first, then the modes in MODES order.

    The base is certified when its residuals are clean, their sizes plus the
    node count make the dimension, and no node weight is zero; a mode when
    its surplus residuals are clean and their sizes make the size the
    embedding adds to the dimension.  A sum of clean residuals is clean.
    """
    omegas: list[list[int]] = [[] for _ in tree.vertices]
    for (u, v, _), share in zip(tree.edges, shares):
        omegas[u].append(share.omega)
        omegas[v].append(-share.omega)
    nodes = [w for ws in omegas for w in ((sum(ws),) if len(ws) == 2 else ws if len(ws) == 3 else ())]
    k, n, d = tree.k, tree.n, tree.d
    dim = moduli_dimension(k, n, d)
    base, iota, kappa = [None if None in sizes else sum(sizes) for sizes in zip(*[share.sizes for share in shares])]
    return (base == dim - len(nodes) and 0 not in nodes, iota == moduli_dimension(k, n + 1, d) - dim,
            kappa == moduli_dimension(k + 1, n + 1, d) - dim)


def failed_cases(tree: DecoratedTree) -> set[tuple[int, str]]:
    """The cases (m, mode), of every slot m in 1..n+1 and both modes, where the
    tree embedded at slot m in mode `mode` does not have the lifted tangent
    plus the surplus.

    The tree is hung from a leaf, and each edge, oriented away from it, looks
    up its memoized share (`_edge_share`): its misfits, and its residuals of
    the base tangent and of the surplus at slot n+1.  A case passes iff it is
    in no share's misfit set and the shares certify its mode's surplus
    (`_certified`); a case in no misfit set has direct == lifted + surplus
    exactly, and a surplus that holds at slot n+1 holds at every slot.  The
    shares must certify the base tangent, which checks every lift of it
    (`_lift` is injective, maps 0 to 0 and keeps every sign); otherwise the
    tangent is assembled, so that `_checked_int_counts` names the fault, and
    WeightConsistencyError is raised either way.  No tangent or surplus is
    built for a certified tree.

    Without a fault the failed cases are those of the per-case check of the
    tests; under a fault they may include a case it passes, never omit one
    it fails.
    """
    shares = _edge_shares(tree)
    base, *modes = _certified(tree, shares)
    if not base:
        _checked_int_counts(tree, _int_tangent(tree))
        raise WeightConsistencyError(f"edge residuals do not certify the tangent at tree {tree.to_json_dict()}")
    failed = set().union(*(share.misfits for share in shares))
    for mode, ok in zip(MODES, modes):
        if not ok:
            failed.update((m, mode) for m in range(1, tree.n + 2))
    return failed
