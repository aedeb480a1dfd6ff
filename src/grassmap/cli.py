"""Command-line front end.

Three subcommands:

  betti    Betti numbers / Poincare polynomial of the degree-d stable-map
           space for G(k, n), by localization, closed form, or both
           (a disagreement between the two exits nonzero);
  graphs   the fixed decorated trees behind the localization sum, either
           in full or as a census by shape and minimal stratum;
  verify   the self-check suites (identity sweeps, published tables,
           palindromicity, complement symmetry, embedding consistency,
           route equivalence, sub-family identities).

Exit codes: 0 success; 1 a mathematical disagreement or failed check;
2 bad usage (including degrees above 3).

Results of `betti` can be cached as JSON files named {k}-{n}-{d}-{method}
under a directory given by --cache-dir or the GRASSMAP_CACHE environment
variable; cache writes are atomic (write-then-rename) and cache hits
reproduce byte-identical output.  A cache file that is not valid JSON, or
that holds another cell's or method's payload, counts as a miss and is
recomputed and overwritten.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Sequence

from . import closedform, fixedgraphs, localization, qpoly
from .fixedgraphs import UnsupportedDegreeError
from .qpoly import QPolynomial
from .weights import WeightConsistencyError

CACHE_ENV = "GRASSMAP_CACHE"
_METHODS = {"loc": ("localization",), "closed": ("closedform",), "both": ("localization", "closedform")}


def _parse_span(value: str) -> tuple[int, int]:
    lo, _, hi = value.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {value!r}") from None


def _parse_jobs(value: str) -> int:
    """A worker count: below 1 is a usage error, above the CPU count is clamped."""
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _axis_values(parser: argparse.ArgumentParser, name: str, single: int | None,
                 span: tuple[int, int] | None) -> list[int]:
    if single is not None and span is not None:
        parser.error(f"give -{name} or --{name}-range, not both")
    if single is not None:
        return [single]
    if span is not None:
        lo, hi = span
        if hi < lo:
            parser.error(f"empty range for {name}: {lo}..{hi}")
        return list(range(lo, hi + 1))
    parser.error(f"missing -{name} (or --{name}-range)")
    raise AssertionError  # parser.error raises


def _add_cell_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-k", type=int, default=None, help="subspace dimension")
    sub.add_argument("-n", type=int, default=None, help="ambient dimension")
    sub.add_argument("-d", type=int, default=None, help="map degree (1..3)")
    sub.add_argument("--k-range", type=_parse_span, default=None, metavar="A..B")
    sub.add_argument("--n-range", type=_parse_span, default=None, metavar="A..B")
    sub.add_argument("--d-range", type=_parse_span, default=None, metavar="A..B")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grassmap",
        description="Betti numbers of genus-0 stable-map spaces for Grassmannian targets (degree <= 3).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    betti = subs.add_parser("betti", help="compute Poincare polynomial / Betti numbers")
    _add_cell_arguments(betti)
    betti.add_argument("--method", choices=sorted(_METHODS), default="loc")
    betti.add_argument("--jobs", type=_parse_jobs, default=1,
                       help="worker processes for the fixed-point sum (at most the CPU count)")
    betti.add_argument("--cache-dir", default=None, help=f"result cache directory (or ${CACHE_ENV})")
    betti.add_argument("--reports", action="store_true",
                       help="include per-fixed-point weight reports (localization only, uncached)")
    betti.set_defaults(func=cmd_betti)

    graphs = subs.add_parser("graphs", help="enumerate the torus-fixed decorated trees")
    _add_cell_arguments(graphs)
    graphs.add_argument("--count", action="store_true", help="census only (per shape / per stratum)")
    graphs.set_defaults(func=cmd_graphs)

    verify = subs.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--suite", choices=(*sorted(_SUITES), "all"), required=True)
    verify.add_argument("--max-n", type=int, default=None, help="cap the ambient dimension of the sweep")
    verify.add_argument("--jobs", type=_parse_jobs, default=1,
                        help="worker processes for the localization sums (at most the CPU count)")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except UnsupportedDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (closedform.TheoremViolationError, WeightConsistencyError, qpoly.DivisibilityError) as exc:
        print(f"mathematical inconsistency: {exc}", file=sys.stderr)
        return 1


# -- betti ----------------------------------------------------------------------


def _cells(args, parser) -> list[tuple[int, int, int]]:
    ks = _axis_values(parser, "k", args.k, args.k_range)
    ns = _axis_values(parser, "n", args.n, args.n_range)
    ds = _axis_values(parser, "d", args.d, args.d_range)
    cells = []
    for k in ks:
        for n in ns:
            for d in ds:
                if args.k_range is not None and not 1 <= k < n:
                    continue  # sweeping ranges skips the empty corner cells
                cells.append((k, n, d))
    return sorted(cells)


def _poincare_for(k: int, n: int, d: int, method: str, jobs: int) -> QPolynomial:
    if method == "localization":
        return localization.poincare_localization(k, n, d, jobs=jobs)
    return closedform.closed_form_result(k, n, d).poincare


def _betti_payload(k: int, n: int, d: int, method: str, jobs: int) -> dict:
    poly = _poincare_for(k, n, d, method, jobs)
    return {
        "k": k,
        "n": n,
        "d": d,
        "method": method,
        "dim": localization.moduli_dimension(k, n, d),
        "poincare": poly.to_json_dict(),
        "betti": poly.coefficient_list(),
    }


def _cache_dir(args) -> str | None:
    return args.cache_dir or os.environ.get(CACHE_ENV) or None


def _read_cached(path: str, k: int, n: int, d: int, method: str) -> dict | None:
    """The payload stored at `path`, or None if it is missing, unreadable as
    JSON, or not a payload of this cell and method."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (FileNotFoundError, ValueError):  # ValueError: truncated or undecodable
        return None
    if not isinstance(payload, dict):
        return None
    if [payload.get(key) for key in ("k", "n", "d", "method")] != [k, n, d, method]:
        return None
    return payload


def _cached_payload(cache_dir: str, k: int, n: int, d: int, method: str, jobs: int) -> dict:
    """A cache hit, or a fresh payload that atomically replaces a missing or bad entry."""
    path = os.path.join(cache_dir, f"{k}-{n}-{d}-{method}.json")
    payload = _read_cached(path, k, n, d, method)
    if payload is not None:
        return payload
    payload = _betti_payload(k, n, d, method, jobs)
    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return payload


def _render_payloads(payloads: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        doc = payloads[0] if len(payloads) == 1 else payloads
        print(json.dumps(doc, indent=2), file=out)
    elif fmt == "csv":
        for p in payloads:
            print(",".join(str(b) for b in p["betti"]), file=out)
    else:
        for p in payloads:
            poly = QPolynomial.from_json_dict(p["poincare"])
            print(f"k={p['k']} n={p['n']} d={p['d']} method={p['method']} dim={p['dim']}")
            print(f"  P(q) = {poly}")
            print(f"  betti: {','.join(str(b) for b in p['betti'])}")
            for report in p.get("reports", ()):
                tree = report["tree"]
                labels = " ".join("(" + ",".join(map(str, lab)) + ")" for lab in tree["vertices"])
                edges = " ".join(f"{e['u']}-{e['v']}:{e['deg']}" for e in tree["edges"])
                print(f"  fixed point {labels} [{edges}]  "
                      f"+{report['positives']}/-{report['negatives']}")
                for vec in report["weights"]:
                    print(f"    ({', '.join(vec)})")


def cmd_betti(args, parser) -> int:
    cells = _cells(args, parser)
    methods = _METHODS[args.method]
    cache_dir = _cache_dir(args)
    payloads: list[dict] = []
    disagreements: list[str] = []
    for k, n, d in cells:
        fixedgraphs._check_cell(k, n, d)
        per_method: dict[str, dict] = {}
        for method in methods:
            if args.reports and method == "localization":
                payload = _betti_payload(k, n, d, method, args.jobs)
                payload["reports"] = [
                    localization.fixed_point_report(t).to_json_dict()
                    for t in fixedgraphs.enumerate_fixed_graphs(k, n, d)
                ]
            elif cache_dir:
                payload = _cached_payload(cache_dir, k, n, d, method, args.jobs)
            else:
                payload = _betti_payload(k, n, d, method, args.jobs)
            per_method[method] = payload
            payloads.append(payload)
        if len(methods) == 2:
            a, b = (per_method[m]["poincare"] for m in methods)
            if a != b:
                disagreements.append(f"k={k} n={n} d={d}")
    _render_payloads(payloads, args.format, sys.stdout)
    if disagreements:
        for cell in disagreements:
            print(f"route disagreement at {cell}", file=sys.stderr)
        return 1
    return 0


# -- graphs ---------------------------------------------------------------------


def _census_payload(k: int, n: int, d: int) -> dict:
    shapes = fixedgraphs.count_by_shape(k, n, d)
    strata: dict[str, int] = {}
    for tree in fixedgraphs.enumerate_fixed_graphs(k, n, d):
        k0, n0 = fixedgraphs.minimal_stratum(tree)
        key = f"G({k0},{n0})"
        strata[key] = strata.get(key, 0) + 1
    return {
        "k": k,
        "n": n,
        "d": d,
        "shapes": shapes,
        "strata": dict(sorted(strata.items())),
        "total": sum(shapes.values()),
    }


def cmd_graphs(args, parser) -> int:
    cells = _cells(args, parser)
    if args.count:
        payloads = [_census_payload(k, n, d) for k, n, d in cells]
        if args.format == "json":
            doc = payloads[0] if len(payloads) == 1 else payloads
            print(json.dumps(doc, indent=2))
        elif args.format == "csv":
            for p in payloads:
                for shape, count in p["shapes"].items():
                    print(f"{p['k']},{p['n']},{p['d']},{shape},{count}")
                print(f"{p['k']},{p['n']},{p['d']},total,{p['total']}")
        else:
            for p in payloads:
                shapes = " ".join(f"{s}={c}" for s, c in p["shapes"].items())
                strata = " ".join(f"{s}={c}" for s, c in p["strata"].items())
                print(f"k={p['k']} n={p['n']} d={p['d']} total={p['total']}")
                print(f"  shapes: {shapes}")
                print(f"  strata: {strata}")
        return 0
    if args.format == "csv":
        parser.error("csv output for full trees is not defined; use --count or --format json")
    docs = []
    for k, n, d in cells:
        docs.extend(t.to_json_dict() for t in fixedgraphs.enumerate_fixed_graphs(k, n, d))
    if args.format == "json":
        print(json.dumps(docs, indent=2))
    else:
        for t in docs:
            labels = " ".join("(" + ",".join(map(str, lab)) + ")" for lab in t["vertices"])
            edges = " ".join(f"{e['u']}-{e['v']}:{e['deg']}" for e in t["edges"])
            print(f"k={t['k']} n={t['n']} d={t['d']}  {labels}  [{edges}]")
    return 0


# -- verify ---------------------------------------------------------------------


def _emit(lines: list[str], label: str, ok: bool, detail: str = "") -> bool:
    lines.append(f"{'PASS' if ok else 'FAIL'}  {label}{('  ' + detail) if detail else ''}")
    return ok


def _sweep_cells(max_n: int | None):
    """The standard verification sweep: d=2 to n<=7, d=3 to n<=6."""
    for d, n_cap in ((2, 7), (3, 6)):
        cap = min(n_cap, max_n) if max_n else n_cap
        for n in range(2, cap + 1):
            for k in range(1, n):
                yield k, n, d


def _suite_identities(max_n, jobs, lines) -> bool:
    ok = True
    for check in qpoly.verify_qbinomial_identities(max_n or 12):
        ok &= _emit(lines, f"identities {check.name} ({check.cases} cases)",
                    check.passed, check.first_failure or "")
    cap = max_n or 10
    bad = [
        (a, b)
        for a in range(cap + 1)
        for b in range(cap + 1 - a)
        if qpoly.partition_sum(a, b) != qpoly.qbinomial(a + b, a)
    ]
    ok &= _emit(lines, f"identities partition-sum (a+b<={cap})", not bad,
                "" if not bad else str(bad[:3]))
    return ok


_TABLE_ROWS = {
    (1, 3): [1, 2, 5, 7, 9, 7, 5, 2, 1],
    (1, 4): [1, 2, 6, 10, 17, 20, 24, 20, 17, 10, 6, 2, 1],
    (2, 4): [1, 3, 10, 22, 41, 60, 73, 73, 60, 41, 22, 10, 3, 1],
}


def _suite_tables(max_n, jobs, lines) -> bool:
    ok = True
    for (k, n), row in _TABLE_ROWS.items():
        loc = localization.poincare_localization(k, n, 3, jobs=jobs).coefficient_list()
        cf = closedform.poincare_degree3(k, n).coefficient_list()
        ok &= _emit(lines, f"tables ({k},{n}) d=3", loc == row == cf,
                    f"loc={loc} closed={cf} expected={row}" if loc != row or cf != row else "")
    return ok


def _suite_census(max_n, jobs, lines) -> bool:
    ok = True
    cap = max_n or 7
    for n in range(2, cap + 1):
        for k in range(1, n):
            for d in (1, 2, 3):
                got = fixedgraphs.count_by_shape(k, n, d)
                want = fixedgraphs.census_formula(k, n, d)
                ok &= _emit(lines, f"census ({k},{n}) d={d}", got == want,
                            "" if got == want else f"got={got} want={want}")
    return ok


def _suite_duality(max_n, jobs, lines) -> bool:
    ok = True
    for k, n, d in _sweep_cells(max_n):
        p = localization.poincare_localization(k, n, d, jobs=jobs)
        dim = localization.moduli_dimension(k, n, d)
        total = sum(fixedgraphs.census_formula(k, n, d).values())
        good = (
            qpoly.reverse(p, dim) == p
            and p.coefficient(0) == 1
            and p.coefficient(dim) == 1
            and p(1) == total
        )
        ok &= _emit(lines, f"duality ({k},{n}) d={d}", good)
    return ok


def _suite_symmetry(max_n, jobs, lines) -> bool:
    ok = True
    for k, n, d in _sweep_cells(max_n):
        if k > n - k:
            continue
        good = localization.poincare_localization(k, n, d, jobs=jobs) == \
            localization.poincare_localization(n - k, n, d, jobs=jobs)
        ok &= _emit(lines, f"symmetry ({k},{n})<->({n-k},{n}) d={d}", good)
    return ok


def _suite_embeddings(max_n, jobs, lines) -> bool:
    ok = True
    cap = max_n or 5
    for n in range(2, cap + 1):
        for k in range(1, n):
            for d in (1, 2, 3):
                bad = 0
                for tree in fixedgraphs.enumerate_fixed_graphs(k, n, d):
                    for m in range(1, n + 2):
                        for mode in ("iota", "kappa"):
                            if not localization.embedding_cross_check(tree, m, mode):
                                bad += 1
                ok &= _emit(lines, f"embeddings ({k},{n}) d={d}", bad == 0,
                            "" if bad == 0 else f"{bad} failures")
    return ok


def _suite_theorems(max_n, jobs, lines) -> bool:
    ok = True
    for k, n, d in _sweep_cells(max_n):
        loc = localization.poincare_localization(k, n, d, jobs=jobs)
        cf = closedform.closed_form_result(k, n, d).poincare
        ok &= _emit(lines, f"theorems ({k},{n}) d={d}", loc == cf)
    return ok


def _suite_families(max_n, jobs, lines) -> bool:
    ok = True
    cap = max_n or 6
    for n in range(3, cap + 1):
        for k in range(2, n):
            idx = closedform.triangle_family_index_sum(k, n)
            cf = closedform.triangle_family_closed_form(k, n)
            loc = localization.stratum_family_contribution(k, n, "G23_triangle")
            ok &= _emit(lines, f"families triangle ({k},{n})", idx == cf == loc)
    for n in range(2, cap + 1):
        for k in range(1, n):
            loc = localization.stratum_family_contribution(k, n, "G12_repeated")
            cf = closedform.repeated_leaf_family_closed_form(k, n)
            # informational: reported, never failing
            lines.append(f"INFO  families repeated-leaf ({k},{n}) "
                         f"{'matches' if loc == cf else 'DIFFERS from'} closed form")
    return ok


_SUITES = {
    "identities": _suite_identities,
    "tables": _suite_tables,
    "census": _suite_census,
    "duality": _suite_duality,
    "symmetry": _suite_symmetry,
    "embeddings": _suite_embeddings,
    "theorems": _suite_theorems,
    "families": _suite_families,
}


def cmd_verify(args, parser) -> int:
    names = sorted(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        lines: list[str] = []
        all_ok &= _SUITES[name](args.max_n, args.jobs, lines)
        for line in lines:
            print(line)
    print("all checks passed" if all_ok else "CHECKS FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
