"""Command-line surface: exit codes, seeding, determinism, file handling."""

import json
import subprocess
import sys

import pytest

import kgsqueeze as kq
from kgsqueeze.cli import main

from conftest import FIXTURE_DIR

BRUCE = str(FIXTURE_DIR / "bruce.json")
HANGZHOU = str(FIXTURE_DIR / "hangzhou.json")


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("KGSQUEEZE_SEED", raising=False)


class TestExitCodes:
    def test_no_command_is_usage(self, capsys):
        assert main([]) == 1

    def test_unknown_command_is_usage(self, capsys):
        assert main(["compress"]) == 1

    def test_unknown_flag_is_usage(self, capsys):
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "2", "--frobnicate"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_is_usage(self, capsys):
        assert main(["select", "--input", BRUCE, "--k", "0.5"]) == 1

    @pytest.mark.parametrize(
        "k", ["0", "-0.5", "1.5", "nan", "inf"]
    )
    def test_ratio_out_of_band_is_usage(self, capsys, k):
        assert main(["select", "--input", BRUCE, "--k", k, "--depth", "2"]) == 1

    def test_bad_phi_is_usage(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["sweep", "--input", BRUCE, "--phi", "1.2",
                     "--output", str(out)]) == 1
        assert not out.exists()

    def test_inverted_ratio_span_is_usage(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["sweep", "--input", BRUCE, "--k-from", "0.9",
                     "--k-to", "0.2", "--output", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_file_is_data_error(self, capsys):
        assert main(["select", "--input", "/does/not/exist.json",
                     "--k", "0.5", "--depth", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_document_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "sel.json"
        assert main(["select", "--input", str(bad), "--k", "0.5",
                     "--depth", "2", "--output", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["select", "--help"]) == 0

    def test_duplicate_json_key_is_data_error(self, capsys, tmp_path):
        text = (FIXTURE_DIR / "bruce.json").read_text(encoding="utf-8")
        bad = tmp_path / "dup.json"
        bad.write_text('{"text": "x", ' + text.lstrip()[1:], encoding="utf-8")
        out = tmp_path / "sel.json"
        assert main(["select", "--input", str(bad), "--k", "1",
                     "--depth", "1", "--output", str(out)]) == 2
        assert "duplicate key 'text'" in capsys.readouterr().err
        assert not out.exists()

    def test_too_fine_grid_is_usage(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        # 1e-4 .. 1.0 by 9.999e-5 is MAX_GRID_POINTS + 1 points; the grid
        # is refused before the (missing) input is even read
        assert main(["sweep", "--input", str(tmp_path / "missing.json"),
                     "--k-from", "1e-4", "--k-step", "9.999e-5",
                     "--output", str(out)]) == 1
        assert "grid points" in capsys.readouterr().err
        assert not out.exists()


class TestOutputFiles:
    """A failed command leaves every output path as it was."""

    def sweep_into_missing_dir(self, tmp_path):
        return main(["sweep", "--input", BRUCE, "--seed", "1", "--runs", "2",
                     "--output", str(tmp_path / "out.csv"),
                     "--dump-runs", str(tmp_path / "missing_dir" / "runs.csv")])

    def test_failed_dump_writes_no_table(self, capsys, tmp_path):
        assert self.sweep_into_missing_dir(tmp_path) == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_failed_dump_keeps_existing_table(self, capsys, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"previous bytes\n")
        assert self.sweep_into_missing_dir(tmp_path) == 2
        assert out.read_bytes() == b"previous bytes\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_success_replaces_existing_files(self, capsys, tmp_path):
        out, dump = tmp_path / "out.csv", tmp_path / "runs.csv"
        out.write_bytes(b"old")
        dump.write_bytes(b"old")
        assert main(["sweep", "--input", BRUCE, "--seed", "1", "--runs", "2",
                     "--output", str(out), "--dump-runs", str(dump)]) == 0
        assert out.read_bytes().startswith(kq.SWEEP_HEADER.encode())
        assert dump.read_bytes().startswith(b"K,run_index,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "runs.csv"]

    @pytest.mark.parametrize(
        "output, dump",
        [("a.csv", "a.csv"), ("./a.csv", "a.csv"), ("a.csv", "d/../a.csv")],
    )
    def test_same_file_for_both_outputs_is_usage(
        self, capsys, tmp_path, monkeypatch, output, dump
    ):
        (tmp_path / "d").mkdir()
        monkeypatch.chdir(tmp_path)
        # The input does not exist: the clash is reported before it is read.
        assert main(["sweep", "--input", "missing.json", "--seed", "1",
                     "--output", output, "--dump-runs", dump]) == 1
        assert "different files" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["d"]

    def test_select_into_missing_dir(self, capsys, tmp_path):
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(tmp_path / "missing" / "sel.json")]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSelect:
    def test_writes_selection_document(self, capsys, tmp_path):
        out = tmp_path / "sel.json"
        code = main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "2", "--output", str(out)])
        assert code == 0
        graph = kq.parse_graph_document((FIXTURE_DIR / "bruce.json").read_bytes())
        result = kq.parse_selection_document(out.read_bytes(), graph)
        assert result.selected == (0, 1, 2, 3, 4)
        err = capsys.readouterr().err
        assert "SU=3.92972569" in err
        assert "effective_depth=4" in err

    def test_stdout_by_default(self, capsys):
        assert main(["select", "--input", HANGZHOU, "--k", "0.25",
                     "--depth", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strategy"] == "proposed"
        assert doc["H"] == 2
        assert [item["index"] for item in doc["selected"]] == [3, 7]

    def test_reruns_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["select", "--input", BRUCE, "--k", "0.7",
                         "--depth", "9", "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_random_strategy_uses_flag_seed(self, tmp_path, capsys):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(["select", "--input", BRUCE, "--k", "0.5",
                         "--depth", "9", "--strategy", "random",
                         "--seed", "42", "--output", str(p)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["seed"] == 42

    def test_env_var_seeds_when_flag_absent(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KGSQUEEZE_SEED", "7")
        out = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9", "--strategy", "random",
                     "--output", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 7
        assert "seed=" not in capsys.readouterr().err

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KGSQUEEZE_SEED", "7")
        out = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9", "--strategy", "random",
                     "--seed", "13", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 13

    def test_auto_seed_is_echoed_and_reproduces(self, tmp_path, capsys):
        out = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9", "--strategy", "random",
                     "--output", str(out)]) == 0
        err = capsys.readouterr().err
        line = next(l for l in err.splitlines() if l.startswith("seed="))
        echoed = int(line.split("=", 1)[1])
        again = tmp_path / "again.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9", "--strategy", "random",
                     "--seed", str(echoed), "--output", str(again)]) == 0
        assert out.read_bytes() == again.read_bytes()

    def test_bad_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("KGSQUEEZE_SEED", "pi")
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9", "--strategy", "random"]) == 1
        assert "KGSQUEEZE_SEED" in capsys.readouterr().err

    def test_non_random_ignores_seed_machinery(self, capsys):
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9"]) == 0
        assert "seed=" not in capsys.readouterr().err

    def test_normalization_warnings_echoed(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "text": "a b",
            "relation_set": ["r1", "r2"],
            "entities": [{"id": "a", "surface": "a"},
                         {"id": "b", "surface": "b"}],
            "candidates": [
                {"head": "a", "tail": "b",
                 "confidences": {"r1": 0.6, "r2": 0.35}}
            ],
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["select", "--input", str(path), "--k", "1.0",
                     "--depth", "1", "--output", str(tmp_path / "s.json")]) == 0
        assert "warning:" in capsys.readouterr().err

    def test_blank_entity_surface_is_data_error(self, tmp_path, capsys):
        doc = json.loads((FIXTURE_DIR / "bruce.json").read_text())
        doc["entities"][0]["surface"] = "  "
        path = tmp_path / "blank.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "sel.json"
        assert main(["select", "--input", str(path), "--k", "0.5",
                     "--depth", "2", "--output", str(out)]) == 2
        assert "empty surface" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_default_grid_yields_sixty_rows(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", HANGZHOU, "--runs", "3",
                     "--seed", "1", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == kq.SWEEP_HEADER
        assert len(lines) == 61
        assert "rows=60 seed=1" in capsys.readouterr().err

    def test_fixed_seed_is_byte_identical_across_runs_and_jobs(self, tmp_path):
        outs = [tmp_path / f"s{i}.csv" for i in range(3)]
        for out, jobs in zip(outs, ["1", "1", "4"]):
            assert main(["sweep", "--input", HANGZHOU, "--runs", "5",
                         "--seed", "9", "--jobs", jobs,
                         "--output", str(out)]) == 0
        blobs = [o.read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_dump_runs_writes_per_run_figures(self, tmp_path):
        out = tmp_path / "sweep.csv"
        dump = tmp_path / "runs.csv"
        assert main(["sweep", "--input", HANGZHOU, "--k-from", "0.3",
                     "--k-to", "0.3", "--runs", "4", "--seed", "2",
                     "--dump-runs", str(dump), "--output", str(out)]) == 0
        lines = dump.read_text().splitlines()
        assert lines[0] == "K,run_index,seed,SU,SS,A,C,theta"
        assert len(lines) == 5
        assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2", "3"]

    def test_env_seed_reported(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KGSQUEEZE_SEED", "77")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--input", HANGZHOU, "--k-from", "0.5",
                     "--k-to", "0.5", "--runs", "2",
                     "--output", str(out)]) == 0
        assert "seed=77" in capsys.readouterr().err


class TestMetrics:
    def select_to(self, path, k="0.5"):
        assert main(["select", "--input", BRUCE, "--k", k,
                     "--depth", "9", "--output", str(path)]) == 0

    def test_reports_all_figures(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        self.select_to(sel)
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE,
                     "--selection", str(sel)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"SU", "A", "C", "theta", "SS", "phi", "H",
                            "entity_counts"}
        assert doc["H"] == 5
        assert doc["SU"] == pytest.approx(3.9297256920095949, abs=1e-12)
        assert doc["phi"] == 0.5
        counts = doc["entity_counts"]["bruce_lee"]
        assert set(counts) == {"original", "recovered"}

    def test_recovered_text_file_is_used(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        self.select_to(sel, k="0.1")
        recovered = tmp_path / "rec.txt"
        recovered.write_text("nothing matching at all")
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE, "--selection", str(sel),
                     "--recovered", str(recovered)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["A"] == 0.0 and doc["SS"] == 0.0

    def test_case_insensitive_flag(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        self.select_to(sel, k="0.1")
        recovered = tmp_path / "rec.txt"
        recovered.write_text("IP MAN TEACHER OF BRUCE LEE.")
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE, "--selection", str(sel),
                     "--recovered", str(recovered)]) == 0
        sensitive = json.loads(capsys.readouterr().out)
        assert main(["metrics", "--input", BRUCE, "--selection", str(sel),
                     "--recovered", str(recovered), "--case-insensitive"]) == 0
        insensitive = json.loads(capsys.readouterr().out)
        assert sensitive["A"] == 0.0
        assert insensitive["A"] > 0.0

    def test_non_finite_selection_figures_are_data_error(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        self.select_to(sel)
        doc = json.loads(sel.read_text())
        doc["K"], doc["SU"] = float("nan"), float("inf")
        sel.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE,
                     "--selection", str(sel)]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_non_numeric_entropy_is_data_error(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(sel)]) == 0
        doc = json.loads(sel.read_text())
        doc["selected"][0]["entropy"] = [1]
        sel.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE,
                     "--selection", str(sel)]) == 2
        assert "field 'entropy' must be a number" in capsys.readouterr().err

    @pytest.mark.parametrize("field, message", [("K", "H 5 does not match"),
                                                ("SU", "SU ")])
    def test_wrong_quota_or_uncertainty_is_data_error(
        self, tmp_path, capsys, field, message
    ):
        sel = tmp_path / "sel.json"
        self.select_to(sel)
        doc = json.loads(sel.read_text())
        if field == "K":
            doc["K"] = 0.1
        else:
            doc["SU"] += 5
        sel.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE,
                     "--selection", str(sel)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_selection_from_other_graph_is_data_error(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        self.select_to(sel)
        doc = json.loads(sel.read_text())
        doc["selected"][0]["head"] = "Nobody"
        sel.write_text(json.dumps(doc))
        assert main(["metrics", "--input", BRUCE,
                     "--selection", str(sel)]) == 2


class TestBudget:
    BASE = ["budget", "--time", "1", "--bandwidth", "1000", "--power", "3",
            "--gain", "1", "--noise", "1", "--bits-per-quad", "400"]

    def test_textbook_capacity(self, capsys):
        assert main(self.BASE + ["--graph-size", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"H": 5, "K": 0.5}

    def test_zero_power_notes_nothing_transmittable(self, capsys):
        argv = list(self.BASE) + ["--graph-size", "10"]
        argv[argv.index("--power") + 1] = "0"
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["H"] == 0
        assert doc["note"] == "nothing transmittable"

    def test_quota_clamps_at_graph_size(self, capsys):
        argv = list(self.BASE) + ["--graph-size", "3"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"H": 3, "K": 1.0}

    def test_negative_power_is_usage(self, capsys):
        argv = list(self.BASE) + ["--graph-size", "10"]
        argv[argv.index("--power") + 1] = "-1"
        assert main(argv) == 1

    def test_quadruple_wider_than_any_float_transmits_nothing(self, capsys):
        argv = list(self.BASE) + ["--graph-size", "10"]
        argv[argv.index("--bits-per-quad") + 1] = "1" + "0" * 400
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"H": 0, "K": 0.0, "note": "nothing transmittable"}

    def test_infinite_capacity_carries_the_whole_graph(self, capsys):
        assert main(["budget", "--time", "1e308", "--bandwidth", "1e308",
                     "--power", "1e308", "--gain", "1e308", "--noise", "1e-308",
                     "--bits-per-quad", "400", "--graph-size", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"H": 10, "K": 1.0}


class TestInstalledEntryPoint:
    def test_console_script_runs_end_to_end(self, tmp_path):
        out = tmp_path / "sel.json"
        proc = subprocess.run(
            [sys.executable, "-m", "kgsqueeze.cli", "select", "--input",
             BRUCE, "--k", "0.3", "--depth", "9", "--output", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["H"] == 3
        assert "SU=" in proc.stderr
