"""Command line: select, sweep, metrics, budget.

Exit codes: 0 success, 1 usage error (bad flags or flag values), 2 data
error (unreadable, malformed, or inconsistent inputs).  Every failure
prints a one-line ``error: ...`` to stderr, and nothing is written to
the output path.  Identical invocations produce identical bytes; the
seed for the random strategy comes from ``--seed``, else the
``KGSQUEEZE_SEED`` environment variable, else it is generated and echoed
on stderr so the run can be reproduced.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from math import isfinite

from .errors import KgsqueezeError
from .experiments import ratio_grid, run_sweep
from .graph import ProbabilityGraph
from .io import (
    emit_run_records,
    emit_selection,
    emit_sweep_table,
    parse_graph_document,
    parse_selection_document,
)
from .metrics import DEFAULT_PHI, similarity, verbalize
from .selection import STRATEGIES, ChannelBudget, SelectionConfig, budget_to_quota, select

SEED_ENV_VAR = "KGSQUEEZE_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this surface reserves 2 for data."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _ratio(text: str) -> float:
    value = float(text)
    if not isfinite(value) or not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _phi(text: str) -> float:
    value = float(text)
    if not isfinite(value) or not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if not isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"must be non-negative and finite, got {text}"
        )
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="kgsqueeze", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    select_p = sub.add_parser(
        "select", help="compress a graph and emit the selection document"
    )
    select_p.add_argument("--input", required=True, help="graph document (JSON)")
    select_p.add_argument("--k", required=True, type=_ratio,
                          help="compression ratio in (0, 1]")
    select_p.add_argument("--depth", required=True, type=_non_negative_int,
                          help="maximum relational distance from the central concept")
    select_p.add_argument("--strategy", default="proposed", choices=STRATEGIES)
    select_p.add_argument("--seed", type=int, default=None,
                          help="seed for the random strategy")
    select_p.add_argument("--output", default=None,
                          help="selection document path (default: stdout)")

    sweep_p = sub.add_parser(
        "sweep", help="evaluate all strategies across a ratio grid, emit CSV"
    )
    sweep_p.add_argument("--input", required=True)
    sweep_p.add_argument("--k-from", type=_ratio, default=0.1)
    sweep_p.add_argument("--k-to", type=_ratio, default=1.0)
    sweep_p.add_argument("--k-step", type=_positive_float, default=0.1)
    sweep_p.add_argument("--depth", type=_non_negative_int, default=2)
    sweep_p.add_argument("--runs", type=_positive_int, default=100,
                         help="random-baseline runs averaged per grid point")
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--phi", type=_phi, default=DEFAULT_PHI)
    sweep_p.add_argument("--jobs", type=_positive_int, default=1,
                         help="accepted for compatibility; the sweep always "
                              "runs in one thread")
    sweep_p.add_argument("--dump-runs", default=None,
                         help="also write per-run random-baseline figures (CSV)")
    sweep_p.add_argument("--output", required=True, help="sweep CSV path")

    metrics_p = sub.add_parser(
        "metrics", help="score a selection document against its graph"
    )
    metrics_p.add_argument("--input", required=True)
    metrics_p.add_argument("--selection", required=True)
    metrics_p.add_argument("--recovered", default=None,
                           help="recovered text file (default: built-in verbalizer)")
    metrics_p.add_argument("--phi", type=_phi, default=DEFAULT_PHI)
    metrics_p.add_argument("--case-insensitive", action="store_true")

    budget_p = sub.add_parser(
        "budget", help="how many quadruples a channel budget can carry"
    )
    budget_p.add_argument("--time", required=True, type=_positive_float,
                          help="transmission time, seconds")
    budget_p.add_argument("--bandwidth", required=True, type=_positive_float,
                          help="bandwidth, hertz")
    budget_p.add_argument("--power", required=True, type=_non_negative_float,
                          help="transmit power, watts")
    budget_p.add_argument("--gain", required=True, type=_non_negative_float,
                          help="channel gain")
    budget_p.add_argument("--noise", required=True, type=_positive_float,
                          help="noise power, watts")
    budget_p.add_argument("--bits-per-quad", required=True, type=_positive_int,
                          help="wire cost of one quadruple, bits")
    budget_p.add_argument("--graph-size", required=True, type=_positive_int,
                          help="total number of quadruples available")
    return parser


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise KgsqueezeError(f"cannot read {path}: {exc}") from None


def _read_graph(path: str) -> ProbabilityGraph:
    graph = parse_graph_document(_read_file(path))
    for note in graph.warnings:
        print(f"warning: {note}", file=sys.stderr)
    return graph


def _write_outputs(outputs: list[tuple[str | None, bytes]]) -> None:
    """Write every (path, data) pair, or leave every path as it was.

    Each file is first written to a temporary file beside its target;
    only once all of them are written do they replace their targets.
    A path of None means stdout.
    """
    staged: list[tuple[str, str]] = []
    try:
        for i, (path, data) in enumerate(outputs):
            if path is None:
                continue
            directory, name = os.path.split(path)
            temp = os.path.join(directory, f".{name}.{os.getpid()}-{i}.tmp")
            with open(temp, "xb") as handle:
                staged.append((temp, path))
                handle.write(data)
        for temp, path in staged:
            os.replace(temp, path)
    except OSError as exc:
        for temp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        reason = exc.strerror or exc
        raise KgsqueezeError(f"cannot write {path}: {reason}") from None
    for path, data in outputs:
        if path is None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()


def _resolve_seed(given: int | None) -> int:
    if given is not None:
        return given
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    seed = int.from_bytes(os.urandom(4), "big")
    print(f"seed={seed}", file=sys.stderr)
    return seed


def _cmd_select(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    seed = _resolve_seed(args.seed) if args.strategy == "random" else args.seed
    result = select(
        graph, SelectionConfig(args.k, args.depth, args.strategy, seed)
    )
    _write_outputs([(args.output, emit_selection(result, graph))])
    print(
        f"SU={result.semantic_uncertainty:.9g} "
        f"effective_depth={result.effective_depth}",
        file=sys.stderr,
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_from > args.k_to:
        raise UsageError("--k-from must not exceed --k-to")
    if args.dump_runs is not None and (
        os.path.realpath(args.output) == os.path.realpath(args.dump_runs)
    ):
        raise UsageError("--output and --dump-runs must name different files")
    try:
        ratio_grid(args.k_from, args.k_to, args.k_step)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    graph = _read_graph(args.input)
    seed = _resolve_seed(args.seed)
    rows, records = run_sweep(
        graph,
        k_from=args.k_from,
        k_to=args.k_to,
        k_step=args.k_step,
        depth=args.depth,
        runs=args.runs,
        seed=seed,
        phi=args.phi,
        jobs=args.jobs,
    )
    outputs = [(args.output, emit_sweep_table(rows))]
    if args.dump_runs is not None:
        outputs.append((args.dump_runs, emit_run_records(records)))
    _write_outputs(outputs)
    print(f"rows={len(rows)} seed={seed}", file=sys.stderr)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    graph = _read_graph(args.input)
    result = parse_selection_document(_read_file(args.selection), graph)
    if args.recovered is not None:
        recovered = _read_file(args.recovered).decode("utf-8", errors="replace")
    else:
        recovered = verbalize(result, graph)
    report = similarity(
        graph, result, recovered, args.phi, args.case_insensitive
    )
    document = {
        "SU": report.semantic_uncertainty,
        "A": report.accuracy,
        "C": report.completeness,
        "theta": report.theta,
        "SS": report.similarity,
        "phi": report.phi,
        "H": result.quota,
        "entity_counts": {
            entity_id: {"original": original, "recovered": rec}
            for entity_id, (original, rec) in report.entity_counts.items()
        },
    }
    print(json.dumps(document, indent=2, ensure_ascii=False))
    return 0


def _cmd_budget(args: argparse.Namespace) -> int:
    budget = ChannelBudget(
        time=args.time,
        bandwidth=args.bandwidth,
        power=args.power,
        channel_gain=args.gain,
        noise_power=args.noise,
        bits_per_quadruple=args.bits_per_quad,
    )
    quota = budget_to_quota(budget, args.graph_size)
    document: dict[str, object] = {
        "H": quota,
        "K": quota / args.graph_size,
    }
    if quota == 0:
        document["note"] = "nothing transmittable"
    print(json.dumps(document, indent=2))
    return 0


class UsageError(Exception):
    """Flag combination invalid; maps to exit code 1."""


_HANDLERS = {
    "select": _cmd_select,
    "sweep": _cmd_sweep,
    "metrics": _cmd_metrics,
    "budget": _cmd_budget,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (KgsqueezeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
