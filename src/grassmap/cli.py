"""Command-line front end.

Three subcommands:

  betti    Betti numbers / Poincare polynomial of the degree-d stable-map
           space for G(k, n), by localization, closed form, or both
           (Betti rows that disagree between the two exit nonzero);
  graphs   the fixed decorated trees behind the localization sum, either
           in full or as a census by shape and minimal stratum;
  verify   the self-check suites (identity sweeps, published tables,
           palindromicity, complement symmetry, embedding consistency,
           route equivalence, sub-family identities), defined in
           `grassmap.checks`, which the acceptance tests assert too; this
           module only renders their results.

Exit codes: 0 success; 1 a mathematical disagreement or failed check, which
is every ArithmeticError: among them a fresh Betti row that is not sound
(neither printed nor cached) and a Gaussian binomial that does not divide
exactly; 2 bad usage (including degrees above 3), an I/O fault (an OSError,
such as a cache path that cannot be read or written) or running out of
memory (a MemoryError).  A reader that closes stdout early ends the run with
exit 2 and nothing on stderr.

`betti` and `graphs` take exactly one of -k and --k-range a..b (an inclusive,
non-empty range), and likewise for n and d; argparse refuses any other request
with exit 2.  They check every cell before printing anything, then print each
item (a payload, a census or a tree) as soon as it is computed, keeping nothing
per sweep; a JSON list comes out as `json.dumps(items, indent=2)`.  So a
failure mid-sweep (exit 1, or 2 for an I/O fault) leaves the earlier items on
stdout.

Results of `betti` can be cached as JSON files named {k}-{n}-{d}-{method}
under a directory given by --cache-dir or the GRASSMAP_CACHE environment
variable; cache writes are atomic (write-then-rename).  A payload holds k, n,
d, method, dim and the Betti row (and reports, uncached); `_payload_text`
renders it as `json.dumps(indent=2)` lays it out inside a JSON list (list
depth), in a fixed field order, `poincare` written from the Betti row.  A
cache file holds that text and a newline, so a fresh payload is rendered
once for both, and a sweep prints each text as it is; only a lone payload
is printed one level shallower.  A hit must be, byte for byte, the
rendering of this cell and method with the file's Betti row, and that row
must be sound (`localization.sound_row`: dim+1 non-negative entries,
palindromic with ends 1, total equal to the fixed-point census); the hit's
text is that rendering, and no JSON is decoded.  The rendering is made from
the file's own digit strings, which must already be canonical decimals, so
the check stays byte-exact with no int-to-str round trip.  Any other file
(another cell's or method's payload, an unsound row, a truncated,
hand-edited or differently laid out file, one written by an older version,
which laid payloads out at depth 0) is a miss, recomputed and overwritten.

`verify --max-n` below 2 is a usage error; `verify --stats` adds one JSON
line of per-suite timings and the process's own peak RSS on stderr.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
import time
from typing import Iterable, Sequence

from . import checks, closedform, fixedgraphs, localization
from .qpoly import QPolynomial
from .weights import WeightConsistencyError

CACHE_ENV = "GRASSMAP_CACHE"
# a cache file's Betti block: its entries as `str(int)` writes them, with no
# sign, padding or leading zero (compiled by `re` on the first cache read)
_CANONICAL_ROW = r"(?:0|[1-9][0-9]*)(?:,\n      (?:0|[1-9][0-9]*))*"
# `_payload_text`'s `poincare` separators by exponent e: each closes the pair
# before and opens the pair at e up to its coefficient; extended on demand
_PAIR_SEPS: list[str] = []
_NO_PAIR_BEFORE = len('"\n        ],\n')  # the first pair's separator closes nothing
_METHODS = {"loc": ("localization",), "closed": ("closedform",), "both": ("localization", "closedform")}


def _parse_span(value: str) -> range:
    """The inclusive range a..b; an empty one is a usage error."""
    lo, _, hi = value.partition("..")
    try:
        span = range(int(lo), int(hi) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b, got {value!r}") from None
    if not span:
        raise argparse.ArgumentTypeError(f"empty range {value}")
    return span


def _parse_max_n(value: str) -> int:
    """A sweep cap: below 2, the smallest ambient dimension, is a usage error."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if number < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {number}")
    return number


def _add_cell_arguments(sub: argparse.ArgumentParser) -> None:
    """Each axis of the cell takes exactly one of -X and --X-range."""
    for axis, meaning in (("k", "subspace dimension"), ("n", "ambient dimension"),
                          ("d", "map degree (1..3)")):
        group = sub.add_mutually_exclusive_group(required=True)
        group.add_argument(f"-{axis}", type=int, help=meaning)
        group.add_argument(f"--{axis}-range", type=_parse_span, metavar="A..B")
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
    betti.add_argument("--cache-dir", default=None, help=f"result cache directory (or ${CACHE_ENV})")
    betti.add_argument("--reports", action="store_true",
                       help="include per-fixed-point weight reports (uncached; --method loc or both, "
                            "--format text or json)")
    betti.set_defaults(func=cmd_betti)

    graphs = subs.add_parser("graphs", help="enumerate the torus-fixed decorated trees")
    _add_cell_arguments(graphs)
    graphs.add_argument("--count", action="store_true", help="census only (per shape / per stratum)")
    graphs.set_defaults(func=cmd_graphs)

    verify = subs.add_parser("verify", help="run the self-check suites")
    verify.add_argument("--suite", choices=(*sorted(checks.SUITES), "all"), required=True)
    verify.add_argument("--max-n", type=_parse_max_n, default=None,
                        help="cap the ambient dimension of the sweep (at least 2)")
    verify.add_argument("--stats", action="store_true",
                        help="print the seconds and check count per suite as one JSON line on stderr")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: stop quietly, and send what is still
        # buffered to devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # each route's own error, and `qpoly.qbinomial`'s
        print(f"mathematical inconsistency: {exc}", file=sys.stderr)
        return 1


# -- betti ----------------------------------------------------------------------


def _cells(args) -> list[tuple[int, int, int]]:
    ks = args.k_range or [args.k]
    ns = args.n_range or [args.n]
    ds = args.d_range or [args.d]
    # a range over k or n skips the empty corners k >= n; every other cell is
    # checked, so a bad one anywhere is refused before anything is printed
    sweeping = args.k_range is not None or args.n_range is not None
    cells = []
    for k in ks:
        for n in ns:
            for d in ds:
                if sweeping and k >= n:
                    continue
                fixedgraphs._check_cell(k, n, d)
                cells.append((k, n, d))
    return sorted(cells)


def _betti_payload(k: int, n: int, d: int, method: str) -> dict:
    """The cell's fresh payload by one method; a Betti row that is not sound
    (`localization.sound_row`) raises that route's own mathematical error."""
    if method == "localization":
        poly, error = localization.poincare_localization(k, n, d), WeightConsistencyError
    else:
        poly, error = closedform.closed_form_result(k, n, d), closedform.TheoremViolationError
    row = poly.coefficient_list()
    if not localization.sound_row(k, n, d, row):
        raise error(f"unsound Betti row {row} at k={k} n={n} d={d} by {method}")
    return _payload(k, n, d, method, row)


def _payload(k: int, n: int, d: int, method: str, betti: list[int]) -> dict:
    """The payload of a cell, a method and its Betti row, fields in `_payload_text`'s order."""
    return {"k": k, "n": n, "d": d, "method": method, "dim": localization.moduli_dimension(k, n, d), "betti": betti}


def _read_cached(path: str, k: int, n: int, d: int, method: str) -> tuple[dict, str] | None:
    """The payload stored at `path` with its `_payload_text`, or None unless the
    file is byte for byte that text (at list depth) and a newline, rendered
    from this cell and method and the file's Betti row, which must be sound
    (`localization.sound_row`).  The file is read whole by one `os.read`, as
    ASCII, and no JSON is decoded: a hit is the program's own output, so any other
    layout is a miss.  The Betti block must already be canonical decimals
    (`str(int(s)) == s` for each entry), so the text is rendered from the
    file's own digit strings, not from the ints; and since a canonical row is
    palindromic exactly when its digit strings are, only its first half is
    converted to ints and mirrored, for `sound_row` to judge in full."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        data = os.read(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError:
        return None
    # the Betti block, from the end: `betti` is the last field (a file without
    # it reads as junk, which the pattern or the comparison refuses)
    block = text.rpartition('"betti": [\n      ')[2].partition("\n    ]")[0]
    if not re.fullmatch(_CANONICAL_ROW, block):
        return None
    digits = block.split(",\n      ")
    if digits != digits[::-1]:  # canonical decimals: the row's own palindrome test
        return None
    try:
        half = list(map(int, digits[: (len(digits) + 1) // 2]))
    except ValueError:  # more digits than int() converts
        return None
    betti = half + half[: len(digits) // 2][::-1]
    if not localization.sound_row(k, n, d, betti):
        return None
    payload = _payload(k, n, d, method, betti)
    rendered = _payload_text(payload, digits)
    return (payload, rendered) if rendered + "\n" == text else None


def _cached_payload(cache_dir: str, k: int, n: int, d: int, method: str) -> tuple[dict, str]:
    """A cache hit, or a fresh payload that atomically replaces a missing or
    bad entry (a temporary file written with no text layer, then renamed; the
    directory is made when the first write finds it missing); either way
    with its `_payload_text`."""
    path = os.path.join(cache_dir, f"{k}-{n}-{d}-{method}.json")
    hit = _read_cached(path, k, n, d, method)
    if hit is not None:
        return hit
    payload = _betti_payload(k, n, d, method)
    text = _payload_text(payload)
    try:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    except FileNotFoundError:  # the first write to a new directory
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        try:
            data = memoryview((text + "\n").encode("ascii"))
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return payload, text


def _payload_text(p: dict, digits: list[str] | None = None) -> str:
    """`json.dumps(indent=2)` of a `_betti_payload` payload at list depth,
    as it stands inside `json.dumps([p], indent=2)`: every line after the
    first indented two more spaces, the closing brace too.  With `reports`
    if present, in the fixed field order: k, n, d, method, dim, then
    `poincare` (each nonzero Betti number as a string, by exponent), betti
    and reports.  `digits` are the Betti numbers as decimal strings,
    `map(str, p["betti"])` if not given; at least one must be nonzero, as in
    every Betti row (b_0 = 1).

    json's indenting encoder runs in pure Python, so all but `reports` is
    laid out here: the `poincare` pairs are the digit strings slotted between
    per-exponent separators from `_PAIR_SEPS`, joined once.
    """
    if digits is None:
        digits = list(map(str, p["betti"]))
    if len(_PAIR_SEPS) < len(digits):
        _PAIR_SEPS.extend(f'"\n        ],\n        [\n          {e},\n          "'
                          for e in range(len(_PAIR_SEPS), len(digits)))
    seps, coeffs = _PAIR_SEPS[:len(digits)], digits
    if "0" in digits:  # zeros drop out of `poincare`
        seps = [sep for sep, c in zip(seps, digits) if c != "0"]
        coeffs = [c for c in digits if c != "0"]
    pairs = [""] * (2 * len(coeffs))
    pairs[::2] = seps
    pairs[1::2] = coeffs
    pairs[0] = pairs[0][_NO_PAIR_BEFORE:]
    fields = [f'"k": {p["k"]}', f'"n": {p["n"]}', f'"d": {p["d"]}', f'"method": "{p["method"]}"',
              f'"dim": {p["dim"]}',
              '"poincare": {\n      "coeffs": [\n' + "".join(pairs) + '"\n        ]\n      ]\n    }',
              '"betti": [\n      ' + ",\n      ".join(digits) + "\n    ]"]
    if "reports" in p:
        import json  # only here, in cmd_graphs and under verify --stats: no other path encodes

        fields.append('"reports": ' + json.dumps(p["reports"], indent=2).replace("\n", "\n    "))
    return "{\n    " + ",\n    ".join(fields) + "\n  }"


def _tree_text(tree: dict, gap: str) -> str:
    """A tree's JSON dict as `(labels) ...` and `[u-v:deg ...]`, joined by `gap`."""
    labels = " ".join("(" + ",".join(map(str, lab)) + ")" for lab in tree["vertices"])
    edges = " ".join(f"{e['u']}-{e['v']}:{e['deg']}" for e in tree["edges"])
    return f"{labels}{gap}[{edges}]"


def _print_json(texts: Iterable[str], lone: bool = False) -> None:
    """Print each JSON text as it comes, each laid out at list depth, as
    `json.dumps(values, indent=2)` lays out the list of their values; if
    `lone`, the one text bare, one level shallower."""
    if lone:
        for text in texts:
            print(text.replace("\n  ", "\n"))
        return
    sep = "[\n  "
    for text in texts:
        print(sep + text, end="")
        sep = ",\n  "
    print("[]" if sep == "[\n  " else "\n]")


def _print_payload(p: dict, fmt: str) -> None:
    """Print one payload as csv or text."""
    if fmt == "csv":
        print(",".join(str(b) for b in p["betti"]))
        return
    poly = QPolynomial(dict(enumerate(p["betti"])))
    print(f"k={p['k']} n={p['n']} d={p['d']} method={p['method']} dim={p['dim']}")
    print(f"  P(q) = {poly}")
    print(f"  betti: {','.join(str(b) for b in p['betti'])}")
    for report in p.get("reports", ()):
        print(f"  fixed point {_tree_text(report['tree'], ' ')}  "
              f"+{report['positives']}/-{report['negatives']}")
        for vec in report["weights"]:
            print(f"    ({', '.join(vec)})")


def cmd_betti(args, parser) -> int:
    if args.reports and (args.method == "closed" or args.format == "csv"):
        parser.error("--reports needs --method loc or both, and --format text or json")
    cells = _cells(args)
    methods = _METHODS[args.method]
    cache_dir = args.cache_dir or os.environ.get(CACHE_ENV)
    disagreements: list[str] = []

    def payloads():  # (payload, its `_payload_text` if it went through the cache, else None)
        for k, n, d in cells:
            per_method = []
            for method in methods:
                if args.reports and method == "localization":
                    payload = _betti_payload(k, n, d, method)
                    trees = fixedgraphs.enumerate_fixed_graphs(k, n, d)
                    payload["reports"] = [localization.fixed_point_report(t) for t in trees]
                    per_method.append((payload, None))
                elif cache_dir:
                    per_method.append(_cached_payload(cache_dir, k, n, d, method))
                else:
                    per_method.append((_betti_payload(k, n, d, method), None))
            if len(per_method) == 2 and per_method[0][0]["betti"] != per_method[1][0]["betti"]:
                rows = {"loc": per_method[0][0]["betti"], "closed": per_method[1][0]["betti"]}
                disagreements.append(f"k={k} n={n} d={d}: {checks.first_differences(rows)}")
            yield from per_method

    if args.format == "json":
        _print_json((text or _payload_text(p) for p, text in payloads()),
                    lone=len(cells) * len(methods) == 1)
    else:
        for p, _ in payloads():
            _print_payload(p, args.format)
    for cell in disagreements:
        print(f"route disagreement at {cell}", file=sys.stderr)
    return 1 if disagreements else 0


# -- graphs ---------------------------------------------------------------------


def _census_payload(k: int, n: int, d: int) -> dict:
    shapes = dict.fromkeys(fixedgraphs.census_formula(k, n, d), 0)
    strata: dict[str, int] = {}
    for tree in fixedgraphs.fixed_graphs(k, n, d):
        shape = fixedgraphs.topology(tree.edges).shape
        shapes[shape] = shapes.get(shape, 0) + 1  # a shape census_formula lacks is counted too
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
    import json

    cells = _cells(args)
    if args.count:
        payloads = (_census_payload(k, n, d) for k, n, d in cells)
        if args.format == "json":
            _print_json((json.dumps(p, indent=2).replace("\n", "\n  ") for p in payloads),
                        lone=len(cells) == 1)
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
    trees = (t.to_json_dict() for k, n, d in cells for t in fixedgraphs.enumerate_fixed_graphs(k, n, d))
    if args.format == "json":
        _print_json(json.dumps(t, indent=2).replace("\n", "\n  ") for t in trees)
    else:
        for t in trees:
            print(f"k={t['k']} n={t['n']} d={t['d']}  {_tree_text(t, '  ')}")
    return 0


# -- verify ---------------------------------------------------------------------


def cmd_verify(args, parser) -> int:
    """Print one line per check of the chosen suites (see `checks`) and the verdict.

    With --stats, also print `{"suites": {name: {"seconds": s, "checks": c}},
    "maxrss_mb": m}` as one JSON line on stderr, c counting the informational
    lines too and m the process's own peak resident set in MB
    (getrusage of the resource module).
    """
    names = sorted(checks.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    stats = {}
    for name in names:
        start = time.perf_counter()
        count = 0
        for label, ok, detail in checks.SUITES[name](args.max_n):
            status = "INFO" if ok is None else "PASS" if ok else "FAIL"
            print(f"{status}  {label}{('  ' + detail) if detail else ''}")
            all_ok &= status != "FAIL"
            count += 1
        stats[name] = {"seconds": round(time.perf_counter() - start, 6), "checks": count}
    print("all checks passed" if all_ok else "CHECKS FAILED")
    if args.stats:
        import json
        import resource  # only here: no other path reads it

        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KB; bytes on macOS
        maxrss_mb = round(maxrss / (1 << (20 if sys.platform == "darwin" else 10)), 1)
        print(json.dumps({"suites": stats, "maxrss_mb": maxrss_mb}), file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
