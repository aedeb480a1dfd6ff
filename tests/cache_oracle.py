"""Two readers of a cache file: the tests' oracles for
`grassmap.cli._read_cached`.

`read_consistent` reads the file as JSON and checks it field by field.  It
accepts any layout of a self-consistent payload of the requested cell and
method (keys in any order, any spacing), so it is looser than
`_read_cached`, which accepts only the program's own bytes; a hit of
`_read_cached` must pass it with the same Betti row.

`read_rendered` is the byte-exact reader `_read_cached` replaced: it converts
every Betti entry with `int`, renders the payload again from those ints and
compares bytes.  `_read_cached` renders from the file's own digit strings
instead, and must agree with it on every file.

`list_depth` is the layout both readers require: `json.dumps(indent=2)` of a
payload as it stands inside a JSON list.
"""

import json

from grassmap import cli, fixedgraphs, localization


def list_depth(value) -> str:
    """`json.dumps(value, indent=2)` one level deep, as inside
    `json.dumps([value], indent=2)`: the layout of `_payload_text` and, with a
    newline, of a cache file."""
    return json.dumps([value], indent=2)[len("[\n  "):-len("\n]")]


def is_consistent(payload: dict, k: int, n: int, d: int, method: str) -> bool:
    """Is `payload` a well-formed cache entry for this cell and method?

    It holds k, n, d, method, dim, poincare and betti and no others, names this
    cell and method with the cell's dimension; `betti` is a list of dim+1
    ints, palindromic with ends 1, summing to the cell's fixed-point census;
    and `poincare` is the polynomial with those coefficients.  Integers are
    ints, not bools.
    """
    fields = ("k", "n", "d", "method", "dim")
    dim = localization.moduli_dimension(k, n, d)
    stored = [payload.get(key) for key in fields]
    betti = payload.get("betti")
    return (
        stored == [k, n, d, method, dim]
        and list(map(type, stored)) == [int, int, int, str, int]
        and payload.keys() == {*fields, "poincare", "betti"}
        and isinstance(betti, list)
        and len(betti) == dim + 1
        and all(type(b) is int for b in betti)
        and betti == betti[::-1]
        and betti[0] == 1
        and sum(betti) == sum(fixedgraphs.census_formula(k, n, d).values())
        and payload["poincare"] == {"coeffs": [[e, str(c)] for e, c in enumerate(betti) if c]}
        and all(type(e) is int for e, _ in payload["poincare"]["coeffs"])
    )


def read_consistent(data: bytes, k: int, n: int, d: int, method: str) -> dict | None:
    """The payload in `data`, less its checked `poincare`, or None if it is
    not UTF-8 JSON or not a consistent payload of this cell and method."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError):  # truncated, undecodable, too deep
        return None
    if not isinstance(payload, dict) or not is_consistent(payload, k, n, d, method):
        return None
    del payload["poincare"]
    return payload


def read_rendered(path: str, k: int, n: int, d: int, method: str) -> tuple[dict, str] | None:
    """The payload stored at `path` with its `_payload_text`, or None unless the
    file is byte for byte that text and a newline, rendered from this cell and
    method and the file's Betti row, which must be sound
    (`localization.sound_row`)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None
    # the Betti block, from the end: `betti` is the last field (a file without
    # it reads as junk, which int() or the byte comparison refuses)
    block = data.rpartition(b'"betti": [\n      ')[2].partition(b"\n    ]")[0]
    try:
        betti = list(map(int, block.decode("ascii").split(",\n      ")))
    except ValueError:  # UnicodeDecodeError too
        return None
    if not localization.sound_row(k, n, d, betti):
        return None
    payload = {"k": k, "n": n, "d": d, "method": method,
               "dim": localization.moduli_dimension(k, n, d), "betti": betti}
    text = cli._payload_text(payload)
    return (payload, text) if data == (text + "\n").encode() else None
