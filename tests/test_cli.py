import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import grassmap
from grassmap import checks, cli, closedform, embedding, fixedgraphs, localization, qpoly
from grassmap.checks import PUBLISHED_ROWS
from grassmap.cli import main
from grassmap.qpoly import QPolynomial, q_power
from cache_oracle import list_depth, read_consistent, read_rendered
from test_acceptance import assert_suite
from test_fixedgraphs import validate
from test_localization import fresh_int_families  # a fixture, used by name

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

# sha256 of `betti -k K -n N -d D --reports --format FMT` stdout, keyed K-N-D-FMT
REPORT_DIGESTS = {
    "2-4-2-json": "7df991c89ad93adeab0c00b8e1419558fe6f941cb82dedcc09521ba075f88cd5",
    "2-4-2-text": "f47f2a3db7b1bc6ffabcc70b5680eed3f02aa6fc233e82a0ffa2462724a7bef0",
    "1-3-3-json": "63f071c768770a81e3547b93f31b5d41d83bacdd765addeb39cf6499d231ff42",
    "1-3-3-text": "8cdfdba614a0a26606398db38c128e9d79223d999c044f5c8765ddbe324408c6",
    "2-4-3-json": "c2834167feed2c8e78a78ae7681f9480ca1f9477173ddabd655209312ac963e5",
    "2-4-3-text": "a940c505b0754d4bd52124ffa86d4023381b9afd9abd914a4b1bcf22bc2efd26",
}

# sha256 of `graphs -k K -n N -d D [--count] --format FMT` stdout, keyed
# K-N-D-FMT or K-N-D-count-FMT: the trees, their order and their rendering
GRAPHS_DIGESTS = {
    "1-3-3-count-json": "05fdaee09b293ee6c08d6ed99cf82196bf464b614104eadcf290b3165cfd07e6",
    "1-3-3-count-text": "fd36518ffba112b00d41328527e1f8c9cec1266811013062b719f55c43c915cc",
    "1-3-3-json": "5ebd5e227c6b8f55061794eb3c22cd4e5dabbf31929491d0d375d61b6168238b",
    "1-3-3-text": "9d22a342394591f5a6121548ba8784427e1ffa83e9e9a7b9c24a8a6a8bcf9402",
    "2-4-2-count-json": "a2a03b551dfdfcfba5769b00113e36c40eb52d5d9ddda75f8d9c2afcc8c4967e",
    "2-4-2-count-text": "82d5d3ff9c2f9c72ddfbeae671e2e9f21d587308e1e1f47c5f8c09b7ab97e1d3",
    "2-4-2-json": "1a29c19e2e847d81d1c50dd4529b40d9220c8483557e960c58c517aa13555e0b",
    "2-4-2-text": "5499a321caa9d45a10a7761b612312fbb10925a87cd1c85d70cb3657078c8ae1",
    "2-4-3-count-json": "240986e69e99f29ae481e1c434418f26e914afd150a09fc3fe152f0db537ae06",
    "2-4-3-count-text": "2666b20422b00d7ac1fe0d033c74a3cd8ec388d6ad6d807b912bbbc20a4f2f44",
    "2-4-3-json": "02c94e1b91186d7fbad622944cfda56ca6953d3e15bd90a9f048722766519fba",
    "2-4-3-text": "76edb6f832de5b61538c6261eaa2580976cdb7cdadd1311f3b398275dd1707e1",
}

# sha256 of uncapped `verify --suite all` stdout: a change that widens a check
# re-pins it
VERIFY_ALL_DIGEST = "e640980cece7b41af6a0cea204c5b81f591fd002fd6f021e58a8d5a305a642d9"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestBetti:
    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "betti", "-k", "1", "-n", "3", "-d", "3", "--format", "csv")
        assert code == 0
        assert out.strip() == "1,2,5,7,9,7,5,2,1"

    def test_point_space(self, capsys):
        code, out, _ = run(capsys, "betti", "-k", "1", "-n", "2", "-d", "1", "--format", "csv")
        assert code == 0 and out.strip() == "1"

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "betti", "-k", "1", "-n", "2", "-d", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {
            "k": 1,
            "n": 2,
            "d": 2,
            "method": "localization",
            "dim": 2,
            "poincare": {"coeffs": [[0, "1"], [1, "1"], [2, "1"]]},
            "betti": [1, 1, 1],
        }

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(
            capsys, "betti", "-k", "2", "-n", "4", "-d", "2", "--method", "both", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]

    def test_route_disagreement_names_its_first_difference(self, capsys, monkeypatch):
        # a sound but wrong closed-form row for (1,3,2), whose Betti row is 1,2,3,3,2,1
        real = closedform.closed_form_result
        wrong = QPolynomial(dict(enumerate([1, 3, 2, 2, 3, 1])))
        monkeypatch.setattr(closedform, "closed_form_result", lambda *c: wrong if c == (1, 3, 2) else real(*c))
        code, out, err = run(capsys, "betti", "-k", "1", "-n", "3", "-d", "2", "--method", "both", "--format", "csv")
        assert code == 1
        assert out == "1,2,3,3,2,1\n1,3,2,2,3,1\n"
        assert err == "route disagreement at k=1 n=3 d=2: first difference at q^1: loc 2, closed 3\n"

    @pytest.mark.parametrize("owner,name,method,flag", [
        (closedform, "closed_form_result", "closedform", "closed"),
        (localization, "poincare_localization", "localization", "loc"),
    ], ids=["closed", "loc"])
    def test_unsound_fresh_row_is_refused(self, capsys, tmp_path, monkeypatch, owner, name, method, flag):
        # q^3 added to (2,4,2): 1,3,7,12,14,14,11,7,3,1 is not palindromic
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *c: real(*c) + q_power(3) if c == (2, 4, 2) else real(*c))
        code, out, err = run(capsys, "betti", "-k", "2", "-n", "4", "-d", "2", "--method", flag,
                             "--format", "csv", "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == ("mathematical inconsistency: unsound Betti row [1, 3, 7, 12, 14, 14, 11, 7, 3, 1] "
                       f"at k=2 n=4 d=2 by {method}\n")
        assert list(tmp_path.iterdir()) == []

    def test_non_exact_gaussian_binomial_exits_1(self, capsys, tmp_path, monkeypatch):
        # a wrong memoized [4, 1] leaves a remainder when [5, 2] divides by 1 - q^2
        monkeypatch.setattr(qpoly, "_QBINOMIALS", {(4, 1): QPolynomial({0: 1, 1: 2, 2: 1, 3: 1})})
        code, out, err = run(capsys, "betti", "-k", "2", "-n", "5", "-d", "2", "--method", "closed",
                             "--cache-dir", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("mathematical inconsistency: ") and "[5, 2]" in err
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_2(self, capsys, monkeypatch):
        def exhausted(*cell):
            raise MemoryError

        monkeypatch.setattr(localization, "poincare_localization", exhausted)
        code, out, err = run(capsys, "betti", "-k", "2", "-n", "4", "-d", "2")
        assert (code, out, err) == (2, "", "error: out of memory\n")

    def test_range_sweep_skips_empty_cells(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--k-range", "1..3", "-n", "3", "-d", "1", "--format", "json"
        )
        assert code == 0
        docs = json.loads(out)
        assert [(d["k"], d["n"]) for d in docs] == [(1, 3), (2, 3)]

    def test_n_range_skips_empty_cells(self, capsys):
        code, out, _ = run(
            capsys, "betti", "-k", "3", "--n-range", "2..5", "-d", "1", "--format", "json"
        )
        assert code == 0
        assert [(d["k"], d["n"]) for d in json.loads(out)] == [(3, 4), (3, 5)]

    def test_explicit_empty_cell_is_refused_in_a_degree_sweep(self, capsys):
        code, _, err = run(capsys, "betti", "-k", "3", "-n", "2", "--d-range", "1..3")
        assert code == 2 and "k < n" in err

    def test_degree_out_of_range(self, capsys):
        code, _, err = run(capsys, "betti", "-k", "1", "-n", "3", "-d", "4")
        assert code == 2
        assert "not supported" in err

    def test_bad_target(self, capsys):
        code, _, err = run(capsys, "betti", "-k", "3", "-n", "3", "-d", "1")
        assert code == 2 and "k < n" in err

    def test_missing_axis_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["betti", "-k", "1", "-n", "2"])
        assert exc.value.code == 2

    def test_reports(self, capsys):
        code, out, _ = run(
            capsys, "betti", "-k", "1", "-n", "2", "-d", "1", "--format", "json", "--reports"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["reports"]) == 1
        assert doc["reports"][0]["weights"] == []  # zero-dimensional cell
        assert doc["reports"][0]["tree"]["vertices"] == [[1], [2]]

    def test_reports_text(self, capsys):
        code, out, _ = run(capsys, "betti", "-k", "1", "-n", "2", "-d", "1", "--reports")
        assert code == 0
        assert out.splitlines()[-1] == "  fixed point (1) (2) [0-1:1]  +0/-0"

    @pytest.mark.parametrize("case", sorted(REPORT_DIGESTS))
    def test_reports_bytes_are_pinned(self, capsys, case):
        # sha256 of the whole stdout: every weight vector, its order and its
        # fraction strings
        k, n, d, fmt = case.split("-")
        code, out, _ = run(capsys, "betti", "-k", k, "-n", n, "-d", d, "--reports", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == REPORT_DIGESTS[case]

    @pytest.mark.parametrize("extra", [["--method", "closed"], ["--format", "csv"],
                                       ["--method", "both", "--format", "csv"]],
                             ids=["closed", "csv", "both-csv"])
    def test_reports_without_their_output_is_usage_error(self, capsys, extra):
        # the closed form has no fixed points and csv has no room for them
        with pytest.raises(SystemExit) as exc:
            main(["betti", "-k", "1", "-n", "3", "-d", "2", "--reports", *extra])
        assert exc.value.code == 2
        assert "--reports" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["betti", "-k", "1", "-n", "2", "-d", "1"],
                                         ["verify", "--suite", "tables"]])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two", "2"])
    def test_bad_jobs_is_usage_error(self, capsys, command, jobs):
        # the localization sum runs in one process: --jobs no longer exists
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["betti", "graphs"])
@pytest.mark.parametrize("axes,named", [
    (["-k", "1", "--k-range", "1..2", "-n", "3", "-d", "1"], "--k-range"),
    (["--k-range", "3..1", "-n", "3", "-d", "1"], "empty range"),
    (["--k-range", "1.", "-n", "3", "-d", "1"], "expected a..b"),
    (["-k", "1", "-n", "3"], "-d"),
    (["--k-range", "0..1", "-n", "3", "-d", "1"], "1 <= k < n"),
], ids=["both-forms", "empty-range", "malformed-range", "missing-axis", "k-below-1-in-a-range"])
def test_bad_cell_request_is_usage_error(capsys, command, axes, named):
    # each axis takes exactly one of -X and a non-empty --X-range a..b, and a
    # range skips only the empty corners k >= n, so it refuses a k below 1.
    # argparse exits on the axis forms; main returns 2 on a bad cell
    with pytest.raises(SystemExit) as exc:
        sys.exit(main([command, *axes]))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and named in err


class TestCache:
    def test_cache_round_trip(self, capsys, tmp_path):
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        assert (tmp_path / "1-3-2-localization.json").exists()
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold

    def test_text_from_cache_hits(self, capsys, tmp_path, monkeypatch):
        # text renders the polynomial from the Betti row of a cached payload
        argv = ["betti", "--k-range", "1..3", "--n-range", "2..5", "--d-range", "1..3",
                "--method", "both"]
        code, uncached, _ = run(capsys, *argv)
        assert code == 0 and "P(q) = " in uncached
        code, cold, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0
        monkeypatch.setattr(cli, "_betti_payload", None)  # a miss would now raise
        code, warm, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and warm == cold == uncached

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("GRASSMAP_CACHE", str(tmp_path))
        code, _, _ = run(capsys, "betti", "-k", "1", "-n", "2", "-d", "2",
                         "--method", "closed", "--format", "csv")
        assert code == 0
        assert (tmp_path / "1-2-2-closedform.json").exists()

    def test_cache_file_is_valid_json(self, capsys, tmp_path):
        run(capsys, "betti", "-k", "1", "-n", "2", "-d", "3", "--format", "csv",
            "--cache-dir", str(tmp_path))
        doc = json.loads((tmp_path / "1-2-3-localization.json").read_text())
        assert doc["betti"] == [1, 1, 2, 1, 1]

    def test_truncated_cache_file_is_recomputed(self, capsys, tmp_path):
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        _, cold, _ = run(capsys, *argv)
        entry = tmp_path / "1-3-2-localization.json"
        good = entry.read_bytes()
        entry.write_bytes(good[: len(good) // 2])
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        assert entry.read_bytes() == good
        entry.write_bytes(b"\xff\xfe not utf-8")
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        assert entry.read_bytes() == good

    def test_mismatched_cache_file_is_recomputed(self, capsys, tmp_path):
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        _, cold, _ = run(capsys, *argv)
        entry = tmp_path / "1-3-2-localization.json"
        good = entry.read_bytes()
        other = json.loads(good)
        other.update(k=9, betti=[5], poincare={"coeffs": [[0, "5"]]})
        entry.write_text(json.dumps(other))
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        assert entry.read_bytes() == good

    def test_reordered_compact_entry_is_rewritten_with_the_cold_bytes(self, capsys, tmp_path):
        # a consistent payload in another layout is not the program's own
        # bytes: a miss, recomputed, printed and stored in the fixed layout
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        _, cold, _ = run(capsys, *argv)
        entry = tmp_path / "1-3-2-localization.json"
        good = entry.read_bytes()
        stored = json.loads(good)
        entry.write_text(json.dumps(dict(reversed(stored.items())), separators=(",", ":")))
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        assert entry.read_bytes() == good

    # (1,3,2) has betti 1,2,3,3,2,1; this row passes every row check (length,
    # palindrome, ends, census total) but is not the cell's
    WRONG_ROW = [1, 3, 2, 2, 3, 1]
    WRONG_PAYLOAD = {"k": 1, "n": 3, "d": 2, "method": "localization", "dim": 5,
                     "poincare": {"coeffs": [[e, str(c)] for e, c in enumerate(WRONG_ROW)]},
                     "betti": WRONG_ROW}
    BOTH_CSV = ["betti", "-k", "1", "-n", "3", "-d", "2", "--method", "both", "--format", "csv"]

    def test_wrong_but_consistent_hit_is_a_route_disagreement(self, capsys, tmp_path):
        # in the fixed layout the wrong row is a hit: --method both catches it
        (tmp_path / "1-3-2-localization.json").write_text(list_depth(self.WRONG_PAYLOAD) + "\n")
        code, out, err = run(capsys, *self.BOTH_CSV, "--cache-dir", str(tmp_path))
        assert code == 1
        assert out == "1,3,2,2,3,1\n1,2,3,3,2,1\n"
        assert "route disagreement at k=1 n=3 d=2" in err

    def test_wrong_but_consistent_compact_entry_is_a_miss(self, capsys, tmp_path):
        # the same wrong row laid out compactly is not the program's bytes
        run(capsys, *self.BOTH_CSV, "--cache-dir", str(tmp_path / "fresh"))
        entry = tmp_path / "1-3-2-localization.json"
        entry.write_text(json.dumps(self.WRONG_PAYLOAD))
        code, out, err = run(capsys, *self.BOTH_CSV, "--cache-dir", str(tmp_path))
        assert code == 0 and err == ""
        assert out == "1,2,3,3,2,1\n1,2,3,3,2,1\n"
        assert entry.read_bytes() == (tmp_path / "fresh" / entry.name).read_bytes()

    def test_negative_entry_is_a_miss(self, capsys, tmp_path):
        # (2,4,2) has betti 1,3,7,11,14,14,11,7,3,1 over 72 fixed trees; this row
        # is palindromic with ends 1 and sums to 72, in the program's own
        # layout, so only the non-negativity of a sound row refuses it
        argv = ["betti", "-k", "2", "-n", "4", "-d", "2", "--format", "csv"]
        _, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))
        entry = tmp_path / "2-4-2-localization.json"
        payload = {"k": 2, "n": 4, "d": 2, "method": "localization", "dim": 9,
                   "betti": [1, 18, 7, 11, -1, -1, 11, 7, 18, 1]}
        entry.write_text(cli._payload_text(payload) + "\n")
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == want == "1,3,7,11,14,14,11,7,3,1\n"
        assert entry.read_bytes() == (tmp_path / "fresh" / entry.name).read_bytes()

    def test_deeply_nested_cache_file_is_recomputed(self, capsys, tmp_path):
        # nested too deep for a JSON decoder (a RecursionError): a miss, not a crash
        argv = ["betti", "-k", "1", "-n", "3", "-d", "1"]
        _, want, _ = run(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))
        entry = tmp_path / "1-3-1-localization.json"
        entry.write_text("[" * 100000)
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == want
        assert entry.read_bytes() == (tmp_path / "fresh" / entry.name).read_bytes()

    @pytest.mark.parametrize("blocked", ["file-as-cache-dir", "directory-at-entry"])
    def test_unusable_cache_path_is_usage_error(self, capsys, tmp_path, blocked):
        # an I/O fault is exit 2, with a message, not a traceback
        if blocked == "file-as-cache-dir":
            cache_dir = tmp_path / "cache"
            cache_dir.write_text("")
        else:
            cache_dir = tmp_path
            (tmp_path / "1-3-1-localization.json").mkdir()
        code, out, err = run(capsys, "betti", "-k", "1", "-n", "3", "-d", "1",
                             "--cache-dir", str(cache_dir))
        assert code == 2 and out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("k,n,d,method", [(1, 2, 1, "loc"), (1, 3, 2, "loc"), (2, 4, 3, "closed")])
    def test_depth_zero_entry_is_rewritten_at_list_depth(self, capsys, tmp_path, monkeypatch,
                                                         k, n, d, method):
        # the layout of earlier versions, json.dumps(payload, indent=2), is a
        # miss: recomputed once, stored at list depth, and a hit from then on
        argv = ["betti", "-k", str(k), "-n", str(n), "-d", str(d), "--method", method,
                "--format", "json", "--cache-dir", str(tmp_path)]
        _, fresh, _ = run(capsys, *argv[:-2])
        payload = json.loads(fresh)
        entry = tmp_path / f"{k}-{n}-{d}-{payload['method']}.json"
        entry.write_text(json.dumps(payload, indent=2) + "\n")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == fresh
        assert entry.read_text() == list_depth(payload) + "\n"
        monkeypatch.setattr(cli, "_betti_payload", None)  # a miss would now raise
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == fresh

    @pytest.mark.parametrize("method", ["loc", "closed", "both"])
    def test_lone_json_hit_prints_the_fresh_bytes(self, capsys, tmp_path, monkeypatch, method):
        # a single cell's hits print the fresh bytes: a lone payload one level
        # shallower than it is stored, the two payloads of `both` as a list
        argv = ["betti", "-k", "2", "-n", "4", "-d", "2", "--method", method, "--format", "json"]
        _, fresh, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--cache-dir", str(tmp_path))[1] == fresh
        monkeypatch.setattr(cli, "_betti_payload", None)  # a miss would now raise
        code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
        assert code == 0 and out == fresh
        assert fresh == json.dumps(json.loads(fresh), indent=2) + "\n"

    def test_missing_cache_dir_is_made_once(self, capsys, tmp_path, monkeypatch):
        # the directory is made on the first miss that finds it missing, not on every miss
        made = []
        makedirs = os.makedirs

        def counted(path, *args, **kwargs):
            made.append(path)
            return makedirs(path, *args, **kwargs)

        monkeypatch.setattr(cli.os, "makedirs", counted)
        cache_dir = tmp_path / "cache"
        code, _, _ = run(capsys, "betti", "--k-range", "1..3", "-n", "4", "--d-range", "1..3",
                         "--method", "closed", "--format", "csv", "--cache-dir", str(cache_dir))
        assert code == 0 and made == [str(cache_dir)]
        assert len(list(cache_dir.iterdir())) == 9

    @pytest.mark.parametrize("failing", ["write", "replace"])
    def test_failed_write_leaves_no_temporary_file(self, capsys, tmp_path, monkeypatch, failing):
        # an I/O fault mid-write exits 2 and removes its temporary file
        def fail(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, failing, fail)
        code, out, err = run(capsys, "betti", "-k", "1", "-n", "3", "-d", "1",
                             "--cache-dir", str(tmp_path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field,change,row",
        [
            ("dim", {"dim": 6}, None),
            ("length", {"betti": [1, 3, 4, 3, 1]}, [1, 3, 4, 3, 1]),
            ("betti-vs-poincare", {}, [1, 3, 2, 2, 3, 1]),
            ("palindrome", {"betti": [1, 3, 2, 3, 2, 1]}, [1, 3, 2, 3, 2, 1]),
            ("ends", {"betti": [2, 2, 2, 2, 2, 2]}, [2, 2, 2, 2, 2, 2]),
            ("census-total", {"betti": [1, 2, 4, 4, 2, 1]}, [1, 2, 4, 4, 2, 1]),
            ("extra-field", {"reports": []}, None),
            ("betti-not-ints", {"betti": [1, 2.0, 3, 3, 2.0, 1]}, None),
            ("betti-null", {"betti": None}, None),
            ("bool-k", {"k": True}, None),
            ("bool-exponent", {"poincare": {"coeffs": [[0, "1"], [True, "2"], [2, "3"],
                                                       [3, "3"], [4, "2"], [5, "1"]]}}, None),
            # the program's own layout, so that only the row checks can refuse
            # these; a row of 7 for the stored dim 6 fails the length check
            ("dim-canonical", {"dim": 6, "betti": [1, 2, 2, 2, 2, 2, 1]}, [1, 2, 2, 2, 2, 2, 1]),
            ("length-canonical", {"betti": [1, 3, 4, 3, 1]}, [1, 3, 4, 3, 1]),
            ("palindrome-canonical", {"betti": [1, 3, 2, 3, 2, 1]}, [1, 3, 2, 3, 2, 1]),
            ("ends-canonical", {"betti": [2, 2, 2, 2, 2, 2]}, [2, 2, 2, 2, 2, 2]),
            ("census-total-canonical", {"betti": [1, 2, 4, 4, 2, 1]}, [1, 2, 4, 4, 2, 1]),
        ],
    )
    def test_inconsistent_cache_entry_is_recomputed(self, capsys, tmp_path, field, change, row):
        # (1,3,2) has dim 5 and betti 1,2,3,3,2,1 over 12 fixed trees; each
        # change breaks one requirement and keeps the others; `row`, if
        # given, is the coefficient row the stored polynomial is set to; the
        # entry is compact unless the case is `-canonical`
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        _, cold, _ = run(capsys, *argv)
        entry = tmp_path / "1-3-2-localization.json"
        good = entry.read_bytes()
        bad = json.loads(good)
        bad.update(change)
        if row is not None:
            bad["poincare"] = {"coeffs": [[e, str(c)] for e, c in enumerate(row)]}
        if field.endswith("-canonical"):
            text = list_depth(bad)
            assert text == cli._payload_text({key: bad[key] for key in bad if key != "poincare"})
            entry.write_text(text + "\n")
        else:
            entry.write_text(json.dumps(bad))
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        assert entry.read_bytes() == good


# cells whose canonical cache files the hit property edits: a zero-dimensional
# cell, and two closed-form cells of degrees 3 and 2
EDITED_CELLS = [(1, 2, 1, "localization"), (2, 4, 3, "closedform"), (5, 11, 2, "closedform")]
EDIT_BYTES = st.one_of(st.binary(min_size=1, max_size=3),
                       st.text(" +-_0123456789,\n\"]", min_size=1, max_size=3).map(str.encode))
EDIT_KINDS = ["none", "replace", "insert", "delete", "relayout"]
# edits of one Betti entry's digits: the first six are spellings that int()
# may accept and str() of a non-negative int never writes; the last three are
# canonical, the last one longer than int() converts
DIGIT_EDITS = ["leading-zero", "plus", "minus", "underscore", "space", "arabic-digit",
               "zero", "huge", "too-long"]


def edited_entry(data, cold: bytes, edit: str) -> bytes:
    """`cold` with one edit of kind `edit` (one of EDIT_KINDS), drawn from `data`."""
    i = data.draw(st.integers(0, len(cold) - 1))
    if edit == "replace":
        return cold[:i] + data.draw(EDIT_BYTES) + cold[i + 1:]
    if edit == "insert":
        return cold[:i] + data.draw(EDIT_BYTES) + cold[i:]
    if edit == "delete":
        return cold[:i] + cold[i + data.draw(st.integers(1, 8)):]
    if edit == "relayout":  # keys in any order; indented, spaced or compact
        stored = json.loads(cold)
        keys = data.draw(st.permutations(list(stored)))
        dump = data.draw(st.sampled_from([list_depth, lambda v: json.dumps(v, indent=2), json.dumps,
                                          lambda v: json.dumps(v, separators=(",", ":"))]))
        return (dump({key: stored[key] for key in keys}) + "\n").encode()
    return cold


def digit_edited_entry(data, cold: bytes, edit: str) -> bytes:
    """`cold` with one Betti entry, or it and its mirror, respelled by `edit`
    (one of DIGIT_EDITS): in the Betti block alone, or in `poincare` too."""
    head, sep, block = cold.rpartition(b'"betti": [\n      ')
    digits = block.partition(b"\n    ]")[0].decode().split(",\n      ")
    j = data.draw(st.integers(0, len(digits) - 1))
    for at in {j, data.draw(st.sampled_from([j, len(digits) - 1 - j]))}:
        entry = digits[at]
        cut = data.draw(st.integers(0, len(entry)))
        digits[at] = {
            "leading-zero": "0" + entry,
            "plus": "+" + entry,
            "minus": "-" + entry,
            "underscore": entry[:cut] + "_" + entry[cut:],
            "space": entry[:cut] + " " + entry[cut:],
            "arabic-digit": entry[:cut] + "\u0663" + entry[cut + 1:],
            "zero": "0",
            "huge": str(10**40),
            "too-long": "1" + "0" * sys.get_int_max_str_digits(),
        }[edit]
        if data.draw(st.booleans()):  # the pair at this exponent too
            pair = f'          {at},\n          "'
            head = head.replace(f'{pair}{entry}"'.encode(), f'{pair}{digits[at]}"'.encode())
    return head + sep + ",\n      ".join(digits).encode() + b"\n    ]\n  }\n"


@pytest.fixture(scope="module")
def cold_entries(tmp_path_factory):
    """Each edited cell's cache file, as a cold run writes it."""
    cache_dir = tmp_path_factory.mktemp("cold")
    entries = {}
    for cell in EDITED_CELLS:
        cli._cached_payload(str(cache_dir), *cell)
        k, n, d, method = cell
        entries[cell] = (cache_dir / f"{k}-{n}-{d}-{method}.json").read_bytes()
    return entries


class TestByteExactHit:
    """A cache file is a hit only if it is byte for byte what a cold run
    writes; the JSON reader in cache_oracle.py accepts every hit, with the
    same row.  One edit of a sound file cannot yield another sound file in
    the fixed layout: a new row needs matching edits in `poincare` and in the
    mirrored entry."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_hit_only_on_the_cold_bytes(self, cold_entries, tmp_path_factory, data):
        cell = data.draw(st.sampled_from(EDITED_CELLS))
        cold = cold_entries[cell]
        entry = edited_entry(data, cold, data.draw(st.sampled_from(EDIT_KINDS)))
        path = tmp_path_factory.getbasetemp() / "edited-entry.json"
        path.write_bytes(entry)
        hit = cli._read_cached(str(path), *cell)
        assert (hit is not None) == (entry == cold)
        if hit is not None:
            payload, text = hit
            assert (text + "\n").encode() == entry
            assert read_consistent(entry, *cell) == payload

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_reader_agrees_with_the_int_oracle(self, cold_entries, tmp_path_factory, data):
        # the digit strings are checked in place; the oracle converts each
        # with int() and renders again from the ints
        cell = data.draw(st.sampled_from(EDITED_CELLS))
        cold = cold_entries[cell]
        edit = data.draw(st.sampled_from(EDIT_KINDS + DIGIT_EDITS))
        if edit in DIGIT_EDITS:
            entry = digit_edited_entry(data, cold, edit)
        else:
            entry = edited_entry(data, cold, edit)
        path = str(tmp_path_factory.getbasetemp() / "agreeing-entry.json")
        Path(path).write_bytes(entry)
        assert cli._read_cached(path, *cell) == read_rendered(path, *cell)

    def test_sound_row_with_zeros_is_a_hit(self, tmp_path):
        # (2,4,3): dim 13; a row with zero entries that passes `sound_row`,
        # written in the program's layout, is a hit with that very row
        k, n, d = 2, 4, 3
        total = sum(fixedgraphs.census_formula(k, n, d).values())
        row = [1, 0, 0, 0, 0, 0, (total - 2) // 2, (total - 2) // 2, 0, 0, 0, 0, 0, 1]
        assert localization.sound_row(k, n, d, row)
        payload = {"k": k, "n": n, "d": d, "method": "closedform", "dim": 13, "betti": row}
        path = tmp_path / "2-4-3-closedform.json"
        path.write_text(cli._payload_text(payload) + "\n")
        hit = cli._read_cached(str(path), k, n, d, "closedform")
        assert hit == read_rendered(str(path), k, n, d, "closedform")
        assert hit is not None and hit[0] == payload
        assert (hit[1] + "\n").encode() == path.read_bytes()

    def test_warm_pass_decodes_no_json(self, capsys, tmp_path, monkeypatch):
        # a hit renders and compares; a miss would now raise
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["small"]["closed-sweep"]
        argv = ["betti", "--method", "closed", "--format", "json", "--k-range", "1..4",
                "--n-range", "2..5", "--d-range", "1..3", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0

        def no_decode(*args, **kwargs):
            raise AssertionError("a warm pass decoded JSON")

        monkeypatch.setattr(json, "loads", no_decode)
        monkeypatch.setattr(json, "load", no_decode)
        monkeypatch.setattr(cli, "_betti_payload", None)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_warm_pass_renders_from_the_file_digits(self, capsys, tmp_path, monkeypatch):
        # a hit renders from the digit strings it read, never from str() of ints
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["small"]["closed-sweep"]
        argv = ["betti", "--method", "closed", "--format", "json", "--k-range", "1..4",
                "--n-range", "2..5", "--d-range", "1..3", "--cache-dir", str(tmp_path)]
        assert run(capsys, *argv)[0] == 0
        render = cli._payload_text
        calls = []

        def spy(p, digits=None):
            calls.append(digits)
            return render(p, digits)

        monkeypatch.setattr(cli, "_payload_text", spy)
        monkeypatch.setattr(cli, "_betti_payload", None)  # a miss would now raise
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want
        assert calls and all(isinstance(digits, list) and all(type(c) is str for c in digits)
                             for digits in calls)


class TestJsonRendering:
    """JSON output and cache files are `_payload_text`, which must equal
    json.dumps(payload, indent=2) inside a JSON list byte for byte."""

    @pytest.mark.parametrize("workload,argv", [
        ("closed-sweep", ["betti", "--method", "closed", "--format", "json",
                          "--k-range", "1..4", "--n-range", "2..5", "--d-range", "1..3"]),
        ("cell-363", ["betti", "-k", "2", "-n", "4", "-d", "3", "--method", "both",
                      "--format", "json"]),
    ])
    def test_stdout_matches_benchmark_golden(self, capsys, tmp_path, workload, argv):
        # the benchmark's reduced inputs: a cold pass fills the cache, a warm one reads it
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["small"][workload]
        for _ in ("cold", "warm"):
            code, out, _ = run(capsys, *argv, "--cache-dir", str(tmp_path))
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want
        entries = sorted(tmp_path.iterdir())
        assert entries
        for entry in entries:
            data = entry.read_bytes()
            assert data == (list_depth(json.loads(data)) + "\n").encode()

    def test_full_closed_sweep_matches_benchmark_golden(self, capsys, tmp_path):
        # the exact bytes the closed-sweep workload times, cold then warm
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["full"]["closed-sweep"]
        argv = ["betti", "--method", "closed", "--format", "json", "--k-range", "1..27",
                "--n-range", "2..28", "--d-range", "1..3", "--cache-dir", str(tmp_path)]
        for _ in ("cold", "warm"):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_payload_text_is_json_dumps(self):
        # zeros drop out of `poincare` but not of `betti`; big numbers stay exact
        want = {"k": 2, "n": 5, "d": 3, "method": "closedform", "dim": 4,
                "poincare": {"coeffs": [[0, "1"], [2, str(10**40)], [4, "1"]]},
                "betti": [1, 0, 10**40, 0, 1]}
        payload = {key: value for key, value in want.items() if key != "poincare"}
        assert "[\n  " + cli._payload_text(payload) + "\n]" == json.dumps([want], indent=2)
        reports = [{"tree": {"edges": []}, "positives": 3, "weights": [["1/2", "-1"]]}]
        assert ("[\n  " + cli._payload_text({**payload, "reports": reports}) + "\n]"
                == json.dumps([{**want, "reports": reports}], indent=2))
        # interior zeros, and a row longer than any separator table so far
        longest = len(cli._PAIR_SEPS)
        for row in ([1, 0, 0, 7, 0, 0, 1], [1, 0, 5, 0, 10**30, 0, 5, 0, 1],
                    [e % 3 * 10**e for e in range(longest + 5)]):
            head = {"k": 3, "n": 7, "d": 2, "method": "localization", "dim": len(row) - 1}
            payload = {**head, "betti": row}
            want = {**head, "poincare": {"coeffs": [[e, str(c)] for e, c in enumerate(row) if c]},
                    "betti": row}
            assert "[\n  " + cli._payload_text(payload) + "\n]" == json.dumps([want], indent=2)
            assert cli._payload_text(payload, list(map(str, row))) == cli._payload_text(payload)
        assert len(cli._PAIR_SEPS) > longest

    @pytest.mark.parametrize("argv", [
        ["-k", "1", "-n", "3", "-d", "2", "--reports"],
        ["-k", "1", "-n", "3", "-d", "2", "--reports", "--method", "both"],
        ["--k-range", "1..2", "-n", "3", "-d", "1", "--method", "closed"],
    ], ids=["reports", "reports-and-closed-form", "sweep"])
    def test_stdout_is_json_dumps(self, capsys, argv):
        code, out, _ = run(capsys, "betti", *argv, "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_empty_sweep_prints_empty_list(self, capsys):
        code, out, _ = run(capsys, "betti", "--k-range", "5..5", "--n-range", "2..3", "-d", "1",
                           "--format", "json")
        assert code == 0 and out == "[]\n"


class TestStreaming:
    """Each item is printed as soon as it is computed; a bad cell anywhere in
    a sweep is refused before anything is printed."""

    @pytest.mark.parametrize("command,compute", [
        (["betti", "--format", "json"], (cli, "_betti_payload")),
        (["betti", "--format", "csv"], (cli, "_betti_payload")),
        (["betti", "--format", "text"], (cli, "_betti_payload")),
        (["graphs", "--count", "--format", "json"], (cli, "_census_payload")),
        (["graphs", "--format", "json"], (cli.fixedgraphs, "enumerate_fixed_graphs")),
        (["graphs", "--format", "text"], (cli.fixedgraphs, "enumerate_fixed_graphs")),
    ], ids=["betti-json", "betti-csv", "betti-text", "count-json", "graphs-json", "graphs-text"])
    def test_first_cell_is_out_before_the_second_is_computed(self, capsys, monkeypatch,
                                                             command, compute):
        argv = [*command, "-k", "1", "-n", "3", "--d-range", "1..2"]
        code, whole, _ = run(capsys, *argv)
        assert code == 0
        owner, name = compute
        real = getattr(owner, name)
        printed = []  # stdout so far, at each computation

        def recording(*cell):
            printed.append(capsys.readouterr().out)
            return real(*cell)

        monkeypatch.setattr(owner, name, recording)
        code, rest, _ = run(capsys, *argv)
        assert code == 0
        assert len(printed) == 2 and printed[0] == "" and printed[1]
        assert "".join(printed) + rest == whole

    @pytest.mark.parametrize("command", [
        ["betti", "--format", "json"],
        ["betti", "--format", "csv"],
        ["graphs", "--count", "--format", "json"],
        ["graphs", "--format", "json"],
    ], ids=["betti-json", "betti-csv", "count-json", "graphs-json"])
    def test_bad_cell_late_in_a_sweep_prints_nothing(self, capsys, command):
        code, out, err = run(capsys, *command, "-k", "1", "-n", "3", "--d-range", "1..4")
        assert code == 2 and out == ""
        assert "not supported" in err


class TestGraphs:
    def test_full_tree_text(self, capsys):
        code, out, _ = run(capsys, "graphs", "-k", "1", "-n", "2", "-d", "2")
        assert code == 0
        assert out.splitlines() == [
            "k=1 n=2 d=2  (2) (1) (1)  [0-1:1 0-2:1]",
            "k=1 n=2 d=2  (1) (2)  [0-1:2]",
            "k=1 n=2 d=2  (1) (2) (2)  [0-1:1 0-2:1]",
        ]

    def test_count_text(self, capsys):
        code, out, _ = run(capsys, "graphs", "-k", "1", "-n", "2", "-d", "2", "--count")
        assert code == 0
        assert "total=3" in out and "edge2=1" in out and "path=2" in out
        assert "G(1,2)=3" in out

    def test_count_json_strata(self, capsys):
        code, out, _ = run(capsys, "graphs", "-k", "2", "-n", "4", "-d", "2",
                           "--count", "--format", "json")
        doc = json.loads(out)
        assert doc["total"] == 72
        assert doc["shapes"] == {"edge2": 12, "path": 60}
        assert sum(doc["strata"].values()) == 72
        assert set(doc["strata"]) == {"G(1,2)", "G(2,3)", "G(1,3)", "G(2,4)"}

    def test_full_tree_json_round_trip(self, capsys):
        from grassmap.fixedgraphs import DecoratedTree, Edge, enumerate_fixed_graphs

        code, out, _ = run(capsys, "graphs", "-k", "1", "-n", "2", "-d", "3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 6
        for doc in docs:
            validate(DecoratedTree(doc["k"], doc["n"], tuple(map(tuple, doc["vertices"])),
                                   tuple(Edge(**e) for e in doc["edges"])))
        assert docs == [t.to_json_dict() for t in enumerate_fixed_graphs(1, 2, 3)]

    @pytest.mark.parametrize("case", sorted(GRAPHS_DIGESTS))
    def test_bytes_are_pinned(self, capsys, case):
        k, n, d, *count, fmt = case.split("-")
        code, out, _ = run(capsys, "graphs", "-k", k, "-n", n, "-d", d, "--format", fmt,
                           *(f"--{flag}" for flag in count))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GRAPHS_DIGESTS[case]

    def test_csv_needs_count(self, capsys):
        with pytest.raises(SystemExit):
            main(["graphs", "-k", "1", "-n", "2", "-d", "2", "--format", "csv"])


class TestVerify:
    def test_identities_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "identities", "--max-n", "6")
        assert code == 0
        assert "FAIL" not in out and "all checks passed" in out

    def test_tables_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "tables")
        assert code == 0
        assert out.count("PASS") == len(PUBLISHED_ROWS)

    def test_stdout_matches_benchmark_golden(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "3")
        assert code == 0
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["small"]["verify-small"]
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_stats_leaves_stdout_at_the_benchmark_golden(self, capsys):
        want = json.loads(GOLDEN.read_text(encoding="utf-8"))["small"]["verify-small"]
        for flags in ([], ["--stats"]):
            code, out, err = run(capsys, "verify", "--suite", "all", "--max-n", "3", *flags)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == want
            assert bool(err) == bool(flags)

    def test_uncapped_stdout_is_pinned(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_DIGEST

    @pytest.mark.parametrize("suite", ["all", "tables"])
    def test_stats_schema(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--max-n", "3", "--stats")
        assert code == 0
        assert err.endswith("\n") and err.count("\n") == 1
        stats = json.loads(err)
        assert list(stats) == ["suites", "maxrss_mb"]
        # the process's own peak RSS: at least what the interpreter itself takes
        assert type(stats["maxrss_mb"]) is float and stats["maxrss_mb"] > 1
        assert list(stats["suites"]) == (sorted(checks.SUITES) if suite == "all" else [suite])
        for entry in stats["suites"].values():
            assert entry.keys() == {"seconds", "checks"}
            assert type(entry["seconds"]) is float and entry["seconds"] >= 0
            assert type(entry["checks"]) is int and entry["checks"] > 0
        # one stdout line per check, then the verdict
        assert sum(entry["checks"] for entry in stats["suites"].values()) == len(out.splitlines()) - 1

    def test_failing_check_fails_verify_and_acceptance(self, capsys, monkeypatch):
        monkeypatch.setitem(PUBLISHED_ROWS, (1, 3), [1, 2, 5, 7, 9, 7, 5, 2, 2])
        code, out, _ = run(capsys, "verify", "--suite", "tables")
        assert code == 1
        assert "FAIL  tables (1,3) d=3  loc=[1, 2, 5, 7, 9, 7, 5, 2, 1]" in out
        assert out.count("PASS  ") == len(PUBLISHED_ROWS) - 1
        assert out.splitlines()[-1] == "CHECKS FAILED"
        with pytest.raises(AssertionError):
            assert_suite(checks.tables)

    def test_negative_entry_fails_duality(self, capsys, monkeypatch):
        # (1,3,2) has 12 fixed trees; this row is palindromic with ends 1 and
        # sums to 12, so only its negative entries fail the sound-row rule
        real = localization.poincare_localization

        def negative_at_132(k, n, d):
            wrong = QPolynomial(dict(enumerate([1, 6, -1, -1, 6, 1])))
            return wrong if (k, n, d) == (1, 3, 2) else real(k, n, d)

        monkeypatch.setattr(localization, "poincare_localization", negative_at_132)
        code, out, _ = run(capsys, "verify", "--suite", "duality", "--max-n", "3")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
            "FAIL  duality (1,3) d=2  P=1 + 6*q - q^2 - q^3 + 6*q^4 + q^5 dim=5 trees=12",
            "CHECKS FAILED"]

    def test_embedding_fault_fails_verify(self, capsys, monkeypatch, fresh_int_families):
        # one zero too many in every edge family in 4 coordinates only: the trees
        # with n = 3 embed wrongly in every case, those with n = 2 rightly
        orig = embedding._edge_h0_ints
        monkeypatch.setattr(embedding, "_edge_h0_ints",
                            lambda *args: (*orig(*args), *((0,) if args[-1] == 4 else ())))
        code, out, _ = run(capsys, "verify", "--suite", "embeddings", "--max-n", "3")
        assert code == 1
        *rows, verdict = (line.split() for line in out.splitlines())
        assert verdict == ["CHECKS", "FAILED"]
        # PASS  embeddings (1,2) d=1, then FAIL  embeddings (1,3) d=1  N failures in N cases
        assert [(row[0], row[2]) for row in rows] == [
            *[("PASS", "(1,2)")] * 3, *[("FAIL", "(1,3)")] * 3, *[("FAIL", "(2,3)")] * 3]
        assert all(row[4:] == [row[4], "failures", "in", row[4], "cases"] for row in rows[3:])

    @pytest.mark.parametrize("suite,owner,name,cell,want", [
        ("theorems", closedform, "closed_form_result", (2, 4, 2),
         "FAIL  theorems (2,4) d=2  first difference at q^3: loc 11, closed 12"),
        ("symmetry", localization, "poincare_localization", (1, 4, 2),
         "FAIL  symmetry (1,4)<->(3,4) d=2  first difference at q^3: (1,4) 6, (3,4) 5"),
        ("families", closedform, "triangle_family_closed_form", (2, 4),
         "FAIL  families triangle (2,4)  first difference at q^3: index 0, closed 1; "
         "first difference at q^3: closed 1, loc 0"),
    ], ids=["theorems", "symmetry", "families"])
    def test_a_failed_comparison_names_its_first_difference(self, capsys, monkeypatch,
                                                            suite, owner, name, cell, want):
        # q^3 added to one cell's polynomial on one side of the comparison
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *c: real(*c) + q_power(3) if c == cell else real(*c))
        code, out, _ = run(capsys, "verify", "--suite", suite, "--max-n", "4")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == [want]

    def test_census_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census", "--max-n", "4")
        assert code == 0 and "FAIL" not in out

    def test_a_wrong_shape_fails_the_census(self, capsys, monkeypatch):
        # a generator fault: a degrees-(1,2) path among the d = 2 trees of
        # (1,2); the census counts the shape its formula lacks and fails with
        # a detail, and `graphs --count` shows the shape
        real = fixedgraphs._generate
        stray = fixedgraphs.DecoratedTree(1, 2, ((1,), (2,), (2,)),
                                          (fixedgraphs.Edge(0, 1, 1), fixedgraphs.Edge(0, 2, 2)))

        def generate(k, n, d):
            yield from real(k, n, d)
            if (k, n, d) == (1, 2, 2):
                yield stray

        monkeypatch.setattr(fixedgraphs, "_generate", generate)
        code, out, _ = run(capsys, "verify", "--suite", "census", "--max-n", "3")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
            "FAIL  census (1,2) d=2  got={'edge2': 1, 'path': 2, 'path12': 1} want={'edge2': 1, 'path': 2}",
            "CHECKS FAILED"]
        code, out, _ = run(capsys, "graphs", "-k", "1", "-n", "2", "-d", "2", "--count")
        assert code == 0
        assert "total=4" in out and "shapes: edge2=1 path=2 path12=1" in out

    def test_families_suite_reports_info(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "families", "--max-n", "4")
        assert code == 0
        assert "INFO" in out

    @pytest.mark.parametrize("max_n", ["0", "-3", "x"])
    def test_bad_max_n_is_usage_error(self, capsys, max_n):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "census", "--max-n", max_n])
        assert exc.value.code == 2
        assert "--max-n" in capsys.readouterr().err

    def test_theorems_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "theorems", "--max-n", "4")
        assert code == 0 and "FAIL" not in out


SRC = str(Path(grassmap.__file__).resolve().parent.parent)


def _fresh_probe(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this grassmap."""
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, check=True)
    return done.stdout


@pytest.mark.parametrize("command", [
    ["betti", "--method", "closed", "--format", "csv",
     "--k-range", "1..27", "--n-range", "2..28", "--d-range", "1..3"],
    ["graphs", "-k", "2", "-n", "6", "-d", "3", "--format", "text"],
], ids=["betti", "graphs"])
def test_closed_pipe_exits_2_quietly(command):
    # each prints far more than a pipe holds, so it is still writing when the
    # reader leaves after one line
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop(cli.CACHE_ENV, None)
    proc = subprocess.Popen([sys.executable, "-m", "grassmap.cli", *command], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (2, b"")


def test_cli_import_loads_neither_fractions_nor_decimal():
    # the program computes with ints only; `fractions` (which imports
    # `decimal`) belongs to the test oracles
    probe = "import sys, grassmap.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert _fresh_probe(probe) == "[]\n"


def test_cli_import_loads_neither_json_nor_the_embedding_check():
    # json is imported where a path encodes, and the embedding check by its suite
    probe = "import sys, grassmap.cli; print(sorted({'json', 'grassmap.embedding'} & set(sys.modules)))"
    assert _fresh_probe(probe) == "[]\n"


def test_only_verify_stats_loads_resource():
    # the peak-RSS probe is imported where it is read, and nowhere else
    probe = "import sys; from grassmap.cli import main; main({}); print('resource' in sys.modules)"
    for argv, loaded in ((["verify", "--suite", "tables"], False),
                         (["verify", "--suite", "tables", "--stats"], True)):
        assert _fresh_probe(probe.format(argv)).splitlines()[-1] == str(loaded)


def test_package_import_loads_no_submodule():
    # `grassmap` exports only __version__; callers import the submodules
    probe = "import sys, grassmap; print(sorted(m for m in sys.modules if m.startswith('grassmap.')))"
    assert _fresh_probe(probe) == "[]\n"
