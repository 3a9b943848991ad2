#!/usr/bin/env python3
"""Benchmark kgsqueeze end to end (``--trace 0``) or layer by layer (``--trace 1``).

    python3 benchmarks/run.py --workload long-text --seed 1 --seconds 25 --trace 0

One invocation runs one workload in its own process.  It generates the
workload's graph document from ``--seed``, imports kgsqueeze from the
``src`` directory next to this one, and drives the command line
in-process through ``kgsqueeze.cli.main`` as a closed loop from a single
client thread.  A round is ``repeats`` pairs of ``select`` (to a file)
and ``metrics`` (stdout captured), then one ``sweep --jobs 1``; rounds
repeat until ``--seconds`` have passed.  Every output is checked against
the independent reference in ``reference.py``, and the ``--jobs 2`` sweep
must give the same bytes as ``--jobs 1``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
Results and traces are also written under ``benchmarks/out/``.
Exit code 0 on a correct run, 1 when an output is wrong, 2 when the
benchmark cannot run (for example, no kgsqueeze sources to import).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

import reference
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
#: Set-ups per run: this process's own plus fresh interpreters, median reported.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run; maps to exit code 2."""


def load_kgsqueeze():
    """Import kgsqueeze from this checkout's sources, and only from there."""
    package = SRC / "kgsqueeze"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no kgsqueeze sources at {package}")
    sys.path.insert(0, str(SRC))
    import kgsqueeze
    import kgsqueeze.cli

    if Path(kgsqueeze.__file__).resolve().parent != package:
        raise BenchError(f"kgsqueeze imported from {kgsqueeze.__file__}, not {package}")
    return kgsqueeze


class Commands:
    """The command lines a run issues, and the files they read and write."""

    def __init__(self, workload: workloads.Workload, seed: int, work: Path) -> None:
        self.graph = work / "graph.json"
        self.selection = work / "selection.json"
        self.select = [
            "select", "--input", str(self.graph), "--k", repr(workload.select_k),
            "--depth", str(workload.depth), "--strategy", "proposed",
            "--output", str(self.selection),
        ]
        self.metrics = ["metrics", "--input", str(self.graph), "--selection", str(self.selection)]
        self._sweep = [
            "sweep", "--input", str(self.graph), "--seed", str(seed),
            "--k-from", repr(workload.k_from), "--k-to", repr(workload.k_to),
            "--k-step", repr(workload.k_step), "--depth", str(workload.depth),
            "--runs", str(workload.runs),
        ]
        self.work = work

    def sweep(self, jobs: int, only_k: float | None = None) -> tuple[list[str], Path, Path]:
        """The sweep over the workload's grid, or over the one ratio ``only_k``."""
        tag = f"jobs{jobs}" if only_k is None else f"jobs{jobs}-k{only_k}"
        table = self.work / f"sweep-{tag}.csv"
        dump = self.work / f"runs-{tag}.csv"
        argv = list(self._sweep)
        if only_k is not None:
            argv += ["--k-from", repr(only_k), "--k-to", repr(only_k), "--k-step", "1"]
        argv += ["--jobs", str(jobs), "--output", str(table), "--dump-runs", str(dump)]
        return argv, table, dump


def call(cli, argv: list[str]) -> tuple[float, int, str]:
    """One in-process CLI call: (seconds, exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue()


def setup(commands: Commands) -> tuple[float, object]:
    """Import kgsqueeze, parse the graph document once, make one warm-up
    call of each command.  Returns (seconds, kgsqueeze)."""
    start = perf_counter()
    kgsqueeze = load_kgsqueeze()
    kgsqueeze.parse_graph_document(commands.graph.read_bytes())
    for argv in (commands.select, commands.metrics, commands.sweep(1)[0]):
        _, code, _ = call(kgsqueeze.cli, argv)
        if code != 0:
            raise BenchError(f"warm-up {argv[0]} exited {code}")
    return perf_counter() - start, kgsqueeze


def child_setups(args: argparse.Namespace, work: Path, count: int) -> list[float]:
    """Set-up times measured in fresh interpreters."""
    times = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--scale", repr(args.scale), "--setup-only", str(work)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode != 0:
            raise BenchError(f"set-up process failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return times


class Checker:
    """Checks the first output of each command against the reference, and
    every later one against the first, byte for byte."""

    def __init__(self, workload: workloads.Workload) -> None:
        self.workload = workload
        self.graph = reference.Graph(workload.document)
        self.ratios = reference.grid(workload.k_from, workload.k_to, workload.k_step)
        self.expected = reference.proposed(self.graph, workload.select_k, workload.depth)
        self.seen: dict[str, tuple] = {}
        self.problems: list[str] = []

    def check(self, command: str, output: tuple) -> None:
        if command in self.seen:
            if output != self.seen[command]:
                self.problems.append(f"{command} output changed between identical calls")
            return
        self.seen[command] = output
        w = self.workload
        if command == "select":
            self.problems += reference.check_selection(output[0], self.expected)
        elif command == "metrics":
            self.problems += reference.check_metrics(output[0], self.expected)
        else:
            self.problems += reference.check_sweep(
                output[0], output[1], self.graph, self.ratios, w.depth, w.runs)

    def check_select_agrees(self, kgsqueeze) -> None:
        """The proposed sweep row at each K equals kgsqueeze's own select."""
        graph = kgsqueeze.parse_graph_document(self.workload.document)
        rows = {
            (row[1], row[0]): row
            for row in (line.split(",") for line in self.seen["sweep"][0].decode().splitlines()[1:])
        }
        for ratio in self.ratios:
            result = kgsqueeze.select(graph, kgsqueeze.SelectionConfig(ratio, self.workload.depth))
            row = rows.get(("proposed", format(ratio, ".9g")))
            want = [format(result.semantic_uncertainty, ".9g"), str(result.quota),
                    str(result.effective_depth)]
            if row is None or [row[2], row[7], row[8]] != want:
                self.problems.append(f"proposed sweep row at K={ratio} differs from select")


def measure(args: argparse.Namespace) -> dict:
    workload = workloads.make(args.workload, args.seed, args.scale)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(args, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args: argparse.Namespace, workload: workloads.Workload, work: Path) -> dict:
    commands = Commands(workload, args.seed, work)
    commands.graph.write_bytes(workload.document)
    own_setup, kgsqueeze = setup(commands)
    setups = [own_setup] + child_setups(args, work, SETUP_SAMPLES - 1)
    checker = Checker(workload)
    cli = kgsqueeze.cli

    sweep_argv, table, dump = commands.sweep(1)
    operations = [("select", commands.select), ("metrics", commands.metrics)] * workload.repeats
    operations.append(("sweep", sweep_argv))
    times: dict[str, list[float]] = {"select": [], "metrics": [], "sweep": []}
    attempted = failed = 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install(kgsqueeze)
    start = perf_counter()
    try:
        while attempted == 0 or perf_counter() - start < args.seconds:
            for command, argv in operations:
                elapsed, code, stdout = call(cli, argv)
                attempted += 1
                if code != 0:
                    failed += 1
                    continue
                times[command].append(elapsed)
                if command == "select":
                    checker.check(command, (commands.selection.read_bytes(),))
                elif command == "metrics":
                    checker.check(command, (stdout,))
                else:
                    checker.check(command, (table.read_bytes(), dump.read_bytes()))
    finally:
        if tracer:
            tracer.restore()

    missing = [command for command, samples in times.items() if not samples]
    if missing:
        raise BenchError(f"every {missing[0]} call failed")

    # Thread count must not change the output; this sweep is not timed.
    jobs1_s = call(cli, sweep_argv)[0] if tracer else None
    argv2, table2, dump2 = commands.sweep(2)
    elapsed2, code2, _ = call(cli, argv2)
    attempted += 1
    if code2 != 0:
        failed += 1
    elif (table2.read_bytes(), dump2.read_bytes()) != checker.seen["sweep"]:
        checker.problems.append("sweep output differs between --jobs 1 and --jobs 2")
    checker.check_select_agrees(kgsqueeze)
    if 1.0 not in checker.ratios:
        # The timed grid stops short of K = 1, where all strategies must agree.
        argv1, table1, dump1 = commands.sweep(1, only_k=1.0)
        attempted += 1
        if call(cli, argv1)[1] != 0:
            failed += 1
        else:
            checker.problems += reference.check_sweep(
                table1.read_bytes(), dump1.read_bytes(), checker.graph, [1.0],
                workload.depth, workload.runs)

    result = {"correct": not checker.problems, "attempted": attempted, "failed": failed}
    tag = f"{args.workload}-seed{args.seed}"
    if tracer:
        per_layer, detail = tracing.summarize(tracer.spans, jobs1_s / elapsed2)
        result["metrics"] = {name: {"value": per_layer[name], "unit": unit}
                             for name, unit in tracing.PER_LAYER}
        detail["traced_median_s"] = {op: median(t) for op, t in times.items()}
        (OUT / f"trace-{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")
        tracer.write(OUT / f"trace-{tag}.jsonl.gz")
    else:
        evaluations = len(checker.ratios) * (len(reference.STRATEGIES) - 1 + workload.runs)
        result["metrics"] = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "select_s": {"value": median(times["select"]), "unit": "s"},
            "metrics_s": {"value": median(times["metrics"]), "unit": "s"},
            "sweep_evals_per_s": {"value": evaluations / median(times["sweep"]),
                                  "unit": "evaluations/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    for problem in checker.problems:
        print(f"problem: {problem}", file=sys.stderr)
    record = dict(result, samples_s=times, setup_samples_s=setups)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload size factor; below 1 only for the self-test")
    parser.add_argument("--setup-only", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only is not None:
            workload = workloads.make(args.workload, args.seed, args.scale)
            print(setup(Commands(workload, args.seed, args.setup_only))[0])
            return 0
        OUT.mkdir(exist_ok=True)
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
