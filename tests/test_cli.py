import json
import os

import pytest

from grassmap.cli import _parse_jobs, main


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

    def test_range_sweep_skips_empty_cells(self, capsys):
        code, out, _ = run(
            capsys, "betti", "--k-range", "1..3", "-n", "3", "-d", "1", "--format", "json"
        )
        assert code == 0
        docs = json.loads(out)
        assert [(d["k"], d["n"]) for d in docs] == [(1, 3), (2, 3)]

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

    def test_jobs_flag(self, capsys):
        from grassmap.closedform import closed_form_result
        from grassmap.localization import clear_poincare_cache

        clear_poincare_cache()  # force a fresh parallel run
        code, out, _ = run(
            capsys, "betti", "-k", "1", "-n", "4", "-d", "2", "--jobs", "2", "--format", "csv"
        )
        assert code == 0
        poly = closed_form_result(1, 4, 2).poincare
        expected = ",".join(str(c) for c in poly.coefficient_list())
        assert out.strip() == expected

    @pytest.mark.parametrize("command", [["betti", "-k", "1", "-n", "2", "-d", "1"],
                                         ["verify", "--suite", "tables"]])
    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_is_usage_error(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", jobs])
        assert exc.value.code == 2

    def test_jobs_clamped_to_cpu_count(self, capsys):
        cpus = os.cpu_count() or 1
        assert _parse_jobs("1") == 1
        assert _parse_jobs(str(cpus + 1000)) == cpus
        # (1,3,1) has 3 fixed trees, below the 64 that start a pool
        code, out, _ = run(capsys, "betti", "-k", "1", "-n", "3", "-d", "1",
                           "--jobs", str(cpus + 1000), "--format", "csv")
        assert code == 0 and out.strip() == "1,1,1"


class TestCache:
    def test_cache_round_trip(self, capsys, tmp_path):
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        code, cold, _ = run(capsys, *argv)
        assert code == 0
        assert (tmp_path / "1-3-2-localization.json").exists()
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold

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
        ],
    )
    def test_inconsistent_cache_entry_is_recomputed(self, capsys, tmp_path, field, change, row):
        # (1,3,2) has dim 5 and betti 1,2,3,3,2,1 over 12 fixed trees; each
        # change breaks one requirement and keeps the others; `row`, if
        # given, is the coefficient row the stored polynomial is set to
        argv = ["betti", "-k", "1", "-n", "3", "-d", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]
        _, cold, _ = run(capsys, *argv)
        entry = tmp_path / "1-3-2-localization.json"
        good = entry.read_bytes()
        bad = json.loads(good)
        bad.update(change)
        if row is not None:
            bad["poincare"] = {"coeffs": [[e, str(c)] for e, c in enumerate(row)]}
        entry.write_text(json.dumps(bad))
        code, warm, _ = run(capsys, *argv)
        assert code == 0 and warm == cold
        assert entry.read_bytes() == good


class TestGraphs:
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
        from grassmap.fixedgraphs import DecoratedTree

        code, out, _ = run(capsys, "graphs", "-k", "1", "-n", "2", "-d", "3", "--format", "json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 6
        for doc in docs:
            DecoratedTree.from_json_dict(doc).validate()

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
        assert out.count("PASS") == 3

    def test_census_suite_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "census", "--max-n", "4")
        assert code == 0 and "FAIL" not in out

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
