"""Command-line surface: exit codes, seeding, determinism, file handling."""

import errno
import json
import os
import stat
import subprocess
import sys
import threading

import pytest

import kgsqueeze as kq
from kgsqueeze.cli import _write_outputs, _write_stdout, main

from conftest import FIXTURE_DIR, float32_document, stdlib_layout

BRUCE = str(FIXTURE_DIR / "bruce.json")
HANGZHOU = str(FIXTURE_DIR / "hangzhou.json")


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("KGSQUEEZE_SEED", raising=False)


def select_from(document, named):
    """A ``select`` of the graph ``document``, and what its one error names."""
    def command(tmp_path):
        graph = tmp_path / "bad.json"
        graph.write_bytes(document)
        return ["select", "--input", str(graph), "--k", "0.5", "--depth", "2",
                "--output", str(tmp_path / "out")], named
    return command


def changed_last_relation(tmp_path):
    """A ``metrics`` of a selection whose last entry names another relation."""
    selection = tmp_path / "changed.json"
    assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                 "--output", str(selection)]) == 0
    doc = json.loads(selection.read_text())
    doc["selected"][-1]["relation"] = "not the replayed relation"
    selection.write_text(json.dumps(doc, indent=2))
    last = len(doc["selected"]) - 1
    return ["metrics", "--input", BRUCE, "--selection", str(selection)], (
        f"selected[{last}] relation"
    )


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

    @pytest.mark.parametrize("command", ["select", "metrics", "sweep"])
    def test_lone_surrogate_is_data_error(self, capsys, tmp_path, command):
        text = (FIXTURE_DIR / "bruce.json").read_text(encoding="utf-8")
        assert '"Ip Man"' in text
        path = tmp_path / "surrogate.json"
        path.write_text(text.replace('"Ip Man"', '"Ip Man\\ud800"'), encoding="utf-8")
        sel, out = tmp_path / "sel.json", tmp_path / "out"
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(sel)]) == 0
        capsys.readouterr()
        argv = {
            "select": ["select", "--input", str(path), "--k", "0.5", "--depth", "2",
                       "--output", str(out)],
            "metrics": ["metrics", "--input", str(path), "--selection", str(sel)],
            "sweep": ["sweep", "--input", str(path), "--seed", "1", "--runs", "1",
                      "--output", str(out)],
        }[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: not valid UTF-8: a string holds the lone surrogate '\\ud800'\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        [
            select_from(b'''{"schema_version": 1, "text": "a b",
  "relation_set": ["r1", "r2"],
  "entities": [{"id": "a", "surface": "a"}, {"id": "b", "surface": "b"}],
  "candidates": [{"head": "a", "tail": "b", "confidences": {"r1": "0.5"}}]}''',
                        "confidence for 'r1' must be a number"),
            # Both confidences are out of range; the first in map order is named.
            select_from(b'''{"schema_version": 1, "text": "a b",
  "relation_set": ["r1", "r2"],
  "entities": [{"id": "a", "surface": "a"}, {"id": "b", "surface": "b"}],
  "candidates": [{"head": "a", "tail": "b",
    "confidences": {"r2": 1.5, "r1": -0.5}}]}''', "'r2'"),
            # The replay is checked one entry at a time; the last is still named.
            changed_last_relation,
        ],
        ids=["string_confidence", "two_bad_confidences", "changed_last_relation"],
    )
    def test_one_fault_is_one_error_line_and_writes_nothing(self, capsys, tmp_path, command):
        argv, named = command(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
        assert captured.out == "" and not (tmp_path / "out").exists()

    def test_too_fine_grid_is_usage(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        # 1e-4 .. 1.0 by 9.999e-5 is MAX_GRID_POINTS + 1 points; the grid
        # is refused before the (missing) input is even read
        assert main(["sweep", "--input", str(tmp_path / "missing.json"),
                     "--k-from", "1e-4", "--k-step", "9.999e-5",
                     "--output", str(out)]) == 1
        assert "grid points" in capsys.readouterr().err
        assert not out.exists()

    def test_repeating_grid_is_usage(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        # the grid repeats a point; it is refused before the (missing)
        # input is read, and nothing is written
        assert main(["sweep", "--input", str(tmp_path / "missing.json"),
                     "--k-from", "0.5", "--k-to", "0.5000000000000002",
                     "--k-step", "6e-17", "--output", str(out)]) == 1
        assert capsys.readouterr().err == "error: k_step 6e-17 gives equal grid points\n"
        assert not out.exists()

    @pytest.mark.parametrize("step", ["0", "-0.1", "inf"])
    def test_k_step_must_be_positive_and_finite(self, capsys, tmp_path, step):
        out = tmp_path / "t.csv"
        assert main(["sweep", "--input", BRUCE, "--k-step", step,
                     "--output", str(out)]) == 1
        assert f"--k-step: must be positive and finite, got {step}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_jobs_must_be_a_positive_int(self, capsys, tmp_path, jobs):
        out = tmp_path / "t.csv"
        assert main(["sweep", "--input", BRUCE, "--seed", "1", "--runs", "1",
                     "--jobs", jobs, "--output", str(out)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_calls_leave_later_calls_unchanged(self, capsys, tmp_path):
        # One parser serves every call in a process; a failed parse or
        # command, with flags off their defaults, must leave nothing in it.
        selection, table = tmp_path / "sel.json", tmp_path / "s.csv"

        def outputs():
            capsys.readouterr()
            assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                         "--output", str(selection)]) == 0
            assert main(["sweep", "--input", BRUCE, "--seed", "1", "--runs", "2",
                         "--output", str(table)]) == 0
            assert main(["metrics", "--input", BRUCE,
                         "--selection", str(selection)]) == 0
            return selection.read_bytes(), table.read_bytes(), capsys.readouterr()

        before = outputs()
        assert main(["sweep", "--input", BRUCE, "--k-from", "0.3", "--depth", "0",
                     "--phi", "0.9", "--k-step", "0", "--output", str(table)]) == 1
        assert main(["select", "--input", "/does/not/exist.json", "--k", "0.9",
                     "--depth", "0", "--strategy", "random", "--seed", "9"]) == 2
        assert main(["metrics", "--input", BRUCE, "--selection", str(table),
                     "--case-insensitive", "--phi", "0.2"]) == 2
        assert outputs() == before


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

    def sweep_one_point(self, output, dump=None):
        argv = ["sweep", "--input", BRUCE, "--seed", "1", "--runs", "1",
                "--k-from", "0.5", "--k-to", "0.5", "--output", str(output)]
        return main(argv + (["--dump-runs", str(dump)] if dump else []))

    def test_symlink_target_is_written_through(self, capsys, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_bytes(b"")
        link.symlink_to("real.csv")
        assert self.sweep_one_point(link) == 0
        assert link.is_symlink() and os.readlink(link) == "real.csv"
        assert real.read_bytes().startswith(kq.SWEEP_HEADER.encode())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_fifo_target_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "out.csv"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        assert self.sweep_one_point(fifo) == 0
        reader.join(timeout=10)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert received and received[0].startswith(kq.SWEEP_HEADER.encode())
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    def test_directory_target_writes_nothing(self, capsys, tmp_path):
        directory = tmp_path / "adir"
        directory.mkdir()
        assert self.sweep_one_point(tmp_path / "out.csv", directory) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {directory}: Is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list(directory.iterdir()) == []

    @pytest.mark.parametrize("mode", [0o600, 0o444], ids=["0600", "0444"])
    @pytest.mark.parametrize("via_symlink", [False, True], ids=["file", "symlink"])
    def test_existing_file_keeps_its_permission_bits(
        self, capsys, tmp_path, mode, via_symlink
    ):
        targets = [tmp_path / name for name in ("sel.json", "out.csv", "runs.csv")]
        paths = []
        for target in targets:
            target.write_bytes(b"old")
            target.chmod(mode)
            path = target
            if via_symlink:
                path = tmp_path / f"link-{target.name}"
                path.symlink_to(target.name)
            paths.append(str(path))
        sel, out, dump = paths
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", sel]) == 0
        assert self.sweep_one_point(out, dump) == 0
        for target in targets:
            assert stat.S_IMODE(os.stat(target).st_mode) == mode
            assert target.read_bytes() != b"old"
        assert len(list(tmp_path.iterdir())) == (6 if via_symlink else 3)

    def test_new_file_gets_the_default_mode(self, capsys, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        out = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(out)]) == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("error", [TypeError, KeyboardInterrupt])
    def test_failed_chunks_remove_every_staged_file(self, tmp_path, error):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        first.write_bytes(b"previous bytes\n")

        def failing():
            yield b"part of a document"
            raise error("while laying out")

        with pytest.raises(error, match="while laying out"):
            _write_outputs([(str(first), [b"new bytes\n"]), (str(second), failing())])
        assert first.read_bytes() == b"previous bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

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
        data = out.read_bytes()
        assert data == stdlib_layout(json.loads(data))
        result = kq.parse_selection_document(data, graph)
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

    @pytest.mark.parametrize(
        "document, warnings",
        [
            (json.dumps({
                "schema_version": 1,
                "text": "a b",
                "relation_set": ["r1", "r2"],
                "entities": [{"id": "a", "surface": "a"},
                             {"id": "b", "surface": "b"}],
                "candidates": [
                    {"head": "a", "tail": "b",
                     "confidences": {"r1": 0.6, "r2": 0.35}}
                ],
            }).encode(), 1),
            # Sums about 1e-8 off 1 lie within the silent band: each map is
            # renormalized and no warning is written.
            (float32_document(FIXTURE_DIR / "bruce.json"), 0),
        ],
        ids=["drifting", "float32"],
    )
    def test_normalization_warnings_echoed(self, tmp_path, capsys, document, warnings):
        path, sel = tmp_path / "g.json", tmp_path / "s.json"
        path.write_bytes(document)
        assert main(["select", "--input", str(path), "--k", "0.5", "--depth", "2",
                     "--output", str(sel)]) == 0
        assert main(["metrics", "--input", str(path), "--selection", str(sel)]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert sum(line.startswith("warning:") for line in lines) == 2 * warnings

    def test_huge_integer_confidence_is_data_error(self, tmp_path, capsys):
        text = (FIXTURE_DIR / "bruce.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        label = next(iter(doc["candidates"][0]["confidences"]))
        doc["candidates"][0]["confidences"][label] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["select", "--input", str(path), "--k", "0.5",
                     "--depth", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: candidate 0: ")
        assert "outside [0, 1]" in lines[0]

    @pytest.mark.parametrize("strategy", ["random", "proposed"])
    def test_negative_seed_flag_is_usage(self, capsys, strategy):
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--strategy", strategy, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and "must be non-negative" in err

    def test_negative_env_seed_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("KGSQUEEZE_SEED", "-5")
        assert main(["select", "--input", BRUCE, "--k", "0.5",
                     "--depth", "9", "--strategy", "random"]) == 1
        err = capsys.readouterr().err
        assert "KGSQUEEZE_SEED must be a non-negative integer" in err

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

    def test_negative_seed_is_usage(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["sweep", "--input", BRUCE, "--seed", "-1",
                     "--output", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

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
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert out.encode() == stdlib_layout(doc)
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

    @pytest.mark.parametrize("name", ["bruce", "hangzhou"])
    @pytest.mark.parametrize("mode", [[], ["--case-insensitive"]], ids=["cs", "ci"])
    def test_verbalization_scores_the_same_counted_or_scanned(
        self, tmp_path, capsys, name, mode
    ):
        # Without a text, plain surfaces are counted by incidence; a given
        # text is scanned as it is: the verbalization, and it plus a newline.
        graph_path = FIXTURE_DIR / f"{name}.json"
        sel = tmp_path / "sel.json"
        assert main(["select", "--input", str(graph_path), "--k", "1.0",
                     "--depth", "2", "--output", str(sel)]) == 0
        graph = kq.parse_graph_document(graph_path.read_bytes())
        result = kq.parse_selection_document(sel.read_bytes(), graph)
        verbalized = kq.verbalize(result, graph)
        recovered = tmp_path / "rec.txt"
        capsys.readouterr()
        base = ["metrics", "--input", str(graph_path), "--selection", str(sel), *mode]
        assert main(base) == 0
        counted = capsys.readouterr().out
        for text in (verbalized, verbalized + "\n"):
            recovered.write_bytes(text.encode())
            assert main([*base, "--recovered", str(recovered)]) == 0
            assert capsys.readouterr().out == counted

    @pytest.mark.parametrize("mode", [[], ["--case-insensitive"]], ids=["cs", "ci"])
    def test_recovered_text_is_scanned_and_no_sentence_is_rendered(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # Every bruce surface is plain, so the default scoring renders no
        # sentence, and a given text is scanned as it is, even the
        # verbalization itself.
        sel = tmp_path / "sel.json"
        self.select_to(sel)
        graph = kq.parse_graph_document((FIXTURE_DIR / "bruce.json").read_bytes())
        verbalized = kq.verbalize(kq.parse_selection_document(sel.read_bytes()), graph)
        texts = {"unrelated": "Bruce Lee learned Wing Chun from Ip Man.",
                 "same_end": "Ip Man taught. " + verbalized.split(". ", 1)[1],
                 "verbalized": verbalized}
        argv = ["metrics", "--input", BRUCE, "--selection", str(sel), *mode]
        outputs = {}
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
            assert main([*argv, "--recovered", str(tmp_path / name)]) == 0
            outputs[name] = capsys.readouterr().out
        calls = []
        render = kq.metrics._sentence
        monkeypatch.setattr(
            kq.metrics, "_sentence", lambda *args: calls.append(args) or render(*args)
        )
        assert main(argv) == 0
        assert capsys.readouterr().out == outputs["verbalized"]
        for name in texts:
            assert main([*argv, "--recovered", str(tmp_path / name)]) == 0
            assert capsys.readouterr().out == outputs[name]
        assert calls == []

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

    @pytest.mark.parametrize(
        "path, value",
        [
            (("selected", 0, "top_probability"), 0.123),
            (("effective_depth",), 77),
            (("relaxation_steps",), -3),
            (("disconnected_fallback",), True),
        ],
        ids=["top_probability", "effective_depth", "relaxation_steps",
             "disconnected_fallback"],
    )
    def test_edited_run_fields_are_data_error(self, tmp_path, capsys, path, value):
        sel = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(sel)]) == 0
        doc = json.loads(sel.read_text())
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        sel.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["metrics", "--input", BRUCE,
                     "--selection", str(sel)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert path[-1] in lines[0]


class TestBudget:
    BASE = ["budget", "--time", "1", "--bandwidth", "1000", "--power", "3",
            "--gain", "1", "--noise", "1", "--bits-per-quad", "400"]

    def test_textbook_capacity(self, capsys):
        assert main(self.BASE + ["--graph-size", "10"]) == 0
        assert capsys.readouterr().out == '{\n  "H": 5,\n  "K": 0.5\n}\n'

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

    @pytest.mark.parametrize("flag", ["--time", "--bandwidth", "--noise"])
    def test_zero_time_bandwidth_or_noise_is_usage(self, capsys, flag):
        argv = list(self.BASE) + ["--graph-size", "10"]
        argv[argv.index(flag) + 1] = "0"
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{flag}: must be positive and finite, got 0" in captured.err

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


class TestClosedStdout:
    """A closed stdout is a data error with one line, like an unwritable file."""

    @pytest.mark.parametrize("command", ["select", "metrics", "budget"])
    def test_exits_two_with_one_error_line(self, tmp_path, command):
        sel = tmp_path / "sel.json"
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(sel)]) == 0
        argv = {
            "select": ["select", "--input", BRUCE, "--k", "0.5", "--depth", "2"],
            "metrics": ["metrics", "--input", BRUCE, "--selection", str(sel)],
            "budget": TestBudget.BASE + ["--graph-size", "10"],
        }[command]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kgsqueeze.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: cannot write")

    def test_a_failed_write_leaks_no_descriptor(self, monkeypatch):
        class Unwritable:
            def __init__(self, fd):
                self.fd = fd

            def fileno(self):
                return self.fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

        read_end, write_end = os.pipe()
        os_open, opened = os.open, []

        def recorded_open(*args, **kwargs):
            opened.append(os_open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(sys, "stdout", Unwritable(write_end))
        monkeypatch.setattr(os, "open", recorded_open)
        try:
            with pytest.raises(kq.KgsqueezeError, match="cannot write <stdout>"):
                _write_stdout([b"{}\n"])
        finally:
            monkeypatch.undo()
            os.close(read_end)
            os.close(write_end)
        assert len(opened) == 1
        with pytest.raises(OSError):  # the devnull descriptor is closed
            os.fstat(opened[0])


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


class TestWithoutNumpy:
    """numpy is a test dependency only: every command, the random strategy
    included, runs and prints the same bytes where it cannot be imported."""

    SCRIPT = (
        "import sys\n"
        "import kgsqueeze.cli\n"
        "assert 'numpy' not in sys.modules, 'import kgsqueeze.cli imported numpy'\n"
        "sys.modules['numpy'] = None\n"
        "sys.exit(kgsqueeze.cli.main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
             "--strategy", "random", "--seed", "7", "--output", "OUT"],
            ["sweep", "--input", BRUCE, "--seed", "1", "--runs", "3",
             "--output", "OUT", "--dump-runs", "RUNS"],
            ["metrics", "--input", BRUCE, "--selection", "SELECTION"],
            ["metrics", "--input", BRUCE, "--selection", "SELECTION",
             "--case-insensitive"],
            ["metrics", "--input", BRUCE, "--selection", "SELECTION",
             "--recovered", "RECOVERED"],
            TestBudget.BASE + ["--graph-size", "10"],
        ],
        ids=["select-random", "sweep", "metrics", "metrics-case-insensitive",
             "metrics-recovered", "budget"],
    )
    def test_same_bytes_as_in_process(self, tmp_path, capsys, argv):
        selection, recovered = tmp_path / "sel.json", tmp_path / "recovered.txt"
        assert main(["select", "--input", BRUCE, "--k", "0.5", "--depth", "2",
                     "--output", str(selection)]) == 0
        recovered.write_bytes(b"Bruce  Lee\tbruce lee Ip Man\n")
        capsys.readouterr()

        def run_in(name):
            """The directory the outputs go to, and argv with every name filled in."""
            directory = tmp_path / name
            directory.mkdir()
            paths = {"SELECTION": selection, "RECOVERED": recovered,
                     "OUT": directory / "out", "RUNS": directory / "runs"}
            return directory, [str(paths.get(a, a)) for a in argv]

        def written(directory):
            return {path.name: path.read_bytes() for path in directory.iterdir()}

        isolated, isolated_argv = run_in("isolated")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *isolated_argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        in_process, in_process_argv = run_in("in-process")
        assert main(in_process_argv) == 0
        captured = capsys.readouterr()
        assert (proc.stdout, proc.stderr, written(isolated)) == (
            captured.out, captured.err, written(in_process)
        )
