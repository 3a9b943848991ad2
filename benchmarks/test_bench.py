"""Fast self-test of the benchmark itself.

    PYTHONPATH=src python3 -m pytest benchmarks/test_bench.py

Runs every workload scaled down in both modes, shows that the reference
checks catch a corrupted output, and that the benchmark refuses to run
without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_scaled_down_workload_is_correct(name, trace):
    out = bench("--workload", name, "--seed", "7", "--seconds", "0",
                "--trace", trace, "--scale", "0.2")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


def _selection(workload):
    kgsqueeze = run.load_kgsqueeze()
    graph = kgsqueeze.parse_graph_document(workload.document)
    result = kgsqueeze.select(graph, kgsqueeze.SelectionConfig(workload.select_k, workload.depth))
    return result, kgsqueeze.emit_selection(result, graph), len(graph.quadruples)


def test_swapped_selected_index_is_caught():
    workload = workloads.make("long-chain", 7, scale=0.2)
    expected = reference.proposed(
        reference.Graph(workload.document), workload.select_k, workload.depth)
    result, document, total = _selection(workload)
    assert reference.check_selection(document, expected) == []

    corrupted = json.loads(document)
    outside = next(i for i in range(total) if i not in result.selected)
    corrupted["selected"][0]["index"] = outside
    problems = reference.check_selection(json.dumps(corrupted).encode(), expected)
    assert problems == ["selected indices differ from the optimal selection"]


def test_sweep_row_worse_than_a_baseline_is_caught():
    workload = workloads.make("long-text", 7, scale=0.2)
    kgsqueeze = run.load_kgsqueeze()
    graph = kgsqueeze.parse_graph_document(workload.document)
    rows, records = kgsqueeze.run_sweep(
        graph, workload.k_from, workload.k_to, workload.k_step,
        workload.depth, workload.runs, seed=7)
    table = kgsqueeze.emit_sweep_table(rows)
    dump = ("header\n" + "run\n" * len(records)).encode()
    ratios = reference.grid(workload.k_from, workload.k_to, workload.k_step)
    ref = reference.Graph(workload.document)
    check = lambda t: reference.check_sweep(t, dump, ref, ratios, workload.depth, workload.runs)  # noqa: E731
    assert check(table) == []

    lines = table.decode().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("0.5,proposed,"))
    fields = lines[at].split(",")
    fields[2] = "1000"
    lines[at] = ",".join(fields)
    problems = check(("\n".join(lines) + "\n").encode())
    assert "K=0.5: proposed SU above random" in problems


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "long-text", "--seed", "1", "--seconds", "1",
                "--trace", "0", script=tmp_path / "benchmarks" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""
    assert "no kgsqueeze sources" in out.stderr
