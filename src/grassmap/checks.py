"""The self-check suites, defined once for `grassmap verify` and the acceptance tests.

Each suite is a generator `suite(max_n)` yielding one `(label, ok, detail)`
per check.  `ok` is True or False, or None for an informational line that
does not count toward the verdict; `detail` says what went wrong and is empty
on a pass.  `max_n` caps the ambient dimension (None: the suite's default).
"""

from __future__ import annotations

import itertools
from typing import Iterator

from . import closedform, fixedgraphs, localization, qpoly

Checks = Iterator[tuple[str, bool | None, str]]

# Degree-3 Betti rows of the published tables, keyed by (k, n).
PUBLISHED_ROWS = {
    (1, 3): [1, 2, 5, 7, 9, 7, 5, 2, 1],
    (1, 4): [1, 2, 6, 10, 17, 20, 24, 20, 17, 10, 6, 2, 1],
    (2, 4): [1, 3, 10, 22, 41, 60, 73, 73, 60, 41, 22, 10, 3, 1],
}

# The standard sweep of (k, n, d): d=2 up to n<=7, then d=3 up to n<=6.
SWEEP = [(k, n, d) for d, n_cap in ((2, 7), (3, 6)) for n in range(2, n_cap + 1) for k in range(1, n)]


def _sweep(max_n: int | None) -> list[tuple[int, int, int]]:
    return [(k, n, d) for k, n, d in SWEEP if not max_n or n <= max_n]


def _all_degrees(cap: int) -> list[tuple[int, int, int]]:
    """Every cell with n <= cap and d = 1..3, by n, then k, then d."""
    return [(k, n, d) for n in range(2, cap + 1) for k in range(1, n) for d in (1, 2, 3)]


def first_differences(rows: dict[str, list[int]]) -> str:
    """Where each pair of the named Betti rows first differs, as in "first
    difference at q^3: loc 11, closed 12", joined by "; " (an entry past the
    end of a row is 0); empty iff all agree."""
    width = max(map(len, rows.values()))
    padded = {name: row + [0] * (width - len(row)) for name, row in rows.items()}
    found = []
    for (x, a), (y, b) in itertools.combinations(padded.items(), 2):
        e = next((e for e in range(width) if a[e] != b[e]), None)
        if e is not None:
            found.append(f"first difference at q^{e}: {x} {a[e]}, {y} {b[e]}")
    return "; ".join(found)


def _identity(name: str, cases, holds) -> tuple[str, bool, str]:
    """One identity's check line: `holds(*case)` for each case until the first failure."""
    count = 0
    for count, case in enumerate(cases, 1):
        if not holds(*case):
            return f"identities {name} ({count} cases)", False, f"counterexample at {case}"
    return f"identities {name} ({count} cases)", True, ""


def identities(max_n: int | None) -> Checks:
    """The Gaussian-binomial identities to n<=12 and the crossing statistic to a+b<=10.

    The five identities, in this order (out-of-range binomials count as 0):
      * symmetry: C(n,k) == C(n,n-k)
      * pascal-high: C(n,k) == C(n-1,k) + q^(n-k) C(n-1,k-1)
      * pascal-low:  C(n,k) == q^k C(n-1,k) + C(n-1,k-1)
      * hockey-stick: sum_{j<=a} q^j C(d+j,j) == C(d+a+1,a)
      * convolution: sum_{i+j=a} q^((c+1)j) C(c+i,i) C(d+j,j) == C(c+d+a+1,a)
    """
    top = max_n or 12
    binom, binom0, q = qpoly.qbinomial, qpoly.qbinomial_or_zero, qpoly.q_power

    def hockey_stick(d: int, a: int) -> bool:
        total = sum((q(j) * binom(d + j, j) for j in range(a + 1)), qpoly.ZERO)
        return total == binom(d + a + 1, a)

    def convolution(c: int, d: int, a: int) -> bool:
        total = qpoly.ZERO
        for j in range(a + 1):
            i = a - j
            total = total + q((c + 1) * j) * binom(c + i, i) * binom(d + j, j)
        return total == binom(c + d + a + 1, a)

    pairs = [(n, k) for n in range(top + 1) for k in range(n + 1)]
    yield _identity("symmetry", pairs, lambda n, k: binom(n, k) == binom(n, n - k))
    yield _identity(
        "pascal-high",
        pairs[1:],  # n >= 1
        lambda n, k: binom(n, k) == binom0(n - 1, k) + q(n - k) * binom0(n - 1, k - 1),
    )
    yield _identity(
        "pascal-low",
        pairs[1:],
        lambda n, k: binom(n, k) == q(k) * binom0(n - 1, k) + binom0(n - 1, k - 1),
    )
    yield _identity("hockey-stick", [(d, a) for d in range(top) for a in range(top - d)], hockey_stick)
    yield _identity(
        "convolution",
        [(c, d, a) for c in range(top) for d in range(top - c) for a in range(top - c - d)],
        convolution,
    )
    cap = max_n or 10
    bad = [(a, b) for a in range(cap + 1) for b in range(cap + 1 - a)
           if qpoly.partition_sum(a, b) != qpoly.qbinomial(a + b, a)]
    yield f"identities partition-sum (a+b<={cap})", not bad, str(bad[:3]) if bad else ""


def tables(max_n: int | None) -> Checks:
    """Both routes reproduce every published row (`max_n` is ignored)."""
    for (k, n), row in PUBLISHED_ROWS.items():
        loc = localization.poincare_localization(k, n, 3).coefficient_list()
        cf = closedform.closed_form_result(k, n, 3).coefficient_list()
        ok = loc == row == cf
        yield f"tables ({k},{n}) d=3", ok, "" if ok else f"loc={loc} closed={cf} expected={row}"


def census(max_n: int | None) -> Checks:
    """Enumerated trees per shape equal the census formula, n<=7 and d=1..3."""
    for k, n, d in _all_degrees(max_n or 7):
        got = fixedgraphs.count_by_shape(k, n, d)
        want = fixedgraphs.census_formula(k, n, d)
        yield f"census ({k},{n}) d={d}", got == want, "" if got == want else f"got={got} want={want}"


def duality(max_n: int | None) -> Checks:
    """Over the sweep, P's Betti row is sound (`localization.sound_row`: dim+1
    non-negative entries, palindromic with ends 1, summing to the census
    formula's total), and P(1) counts the fixed trees as streamed too."""
    for k, n, d in _sweep(max_n):
        p = localization.poincare_localization(k, n, d)
        row = p.coefficient_list()
        trees = sum(fixedgraphs.count_by_shape(k, n, d).values())
        ok = localization.sound_row(k, n, d, row) and sum(row) == trees
        dim = localization.moduli_dimension(k, n, d)
        yield f"duality ({k},{n}) d={d}", ok, "" if ok else f"P={p} dim={dim} trees={trees}"


def symmetry(max_n: int | None) -> Checks:
    """Over the sweep, G(k,n) and G(n-k,n) give the same polynomial."""
    for k, n, d in _sweep(max_n):
        if 2 * k <= n:
            detail = first_differences({f"({j},{n})": localization.poincare_localization(j, n, d).coefficient_list()
                                        for j in (k, n - k)})
            yield f"symmetry ({k},{n})<->({n-k},{n}) d={d}", not detail, detail


def embeddings(max_n: int | None) -> Checks:
    """Every fixed tree with n<=6, d=1..3, embedded into every m<=n+1 both ways,
    changes its tangent weights by exactly the predicted delta (tree by tree,
    `embedding.failed_cases`)."""
    from . import embedding  # only this suite reads it
    for k, n, d in _all_degrees(max_n or 6):
        cases = failures = 0
        for tree in fixedgraphs.fixed_graphs(k, n, d):
            cases += 2 * (n + 1)
            failures += len(embedding.failed_cases(tree))
        ok = cases > 0 and failures == 0
        yield f"embeddings ({k},{n}) d={d}", ok, "" if ok else f"{failures} failures in {cases} cases"


def theorems(max_n: int | None) -> Checks:
    """Localization equals the closed form for d=2,3 and n<=9, ordered as `SWEEP`.

    Wider than `SWEEP`, which `duality` enumerates tree by tree: the
    localization sum builds no trees."""
    for k, n, d in [(k, n, d) for d in (2, 3) for n in range(2, (max_n or 9) + 1) for k in range(1, n)]:
        detail = first_differences({"loc": localization.poincare_localization(k, n, d).coefficient_list(),
                                    "closed": closedform.closed_form_result(k, n, d).coefficient_list()})
        yield f"theorems ({k},{n}) d={d}", not detail, detail


def families(max_n: int | None) -> Checks:
    """The degree-2 triangle family, n<=6, by index sum, closed form and
    localization, a failure naming each pair that differs.  The repeated-leaf
    family is compared too, but only as information (ok None): its frame
    rule rests on a resolved ambiguity."""
    cap = max_n or 6
    for n in range(3, cap + 1):
        for k in range(2, n):
            sums = {"index": closedform.triangle_family_index_sum(k, n),
                    "closed": closedform.triangle_family_closed_form(k, n),
                    "loc": localization.family_sum(k, n, "triangle")}
            detail = first_differences({name: p.coefficient_list() for name, p in sums.items()})
            yield f"families triangle ({k},{n})", not detail, detail
    for n in range(2, cap + 1):
        for k in range(1, n):
            loc = localization.family_sum(k, n, "repeated-leaf")
            cf = closedform.repeated_leaf_family_closed_form(k, n)
            verdict, detail = ("matches", "") if loc == cf else ("DIFFERS from", f"{loc} vs {cf}")
            yield f"families repeated-leaf ({k},{n}) {verdict} closed form", None, detail


SUITES = {suite.__name__: suite for suite in
          (identities, tables, census, duality, symmetry, embeddings, theorems, families)}
