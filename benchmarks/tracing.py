"""Per-layer spans for the traced run, recorded from outside the program.

The tracer replaces, for the duration of the traced run, the names one
kgsqueeze module imports from the next with wrappers that record a span
(name, start, end, parent, note) per call, and restores them afterwards.
Spans stay in memory until the run ends.  The program's source is not
touched, so only calls that cross a module boundary are seen: work a
later change moves inside one function shows up as that function's self
time, and a boundary it removes shows as zero calls.

Only single-threaded calls are traced: the ``--jobs 2`` sweep runs with
the tracer removed.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from statistics import median
from time import perf_counter_ns


def _scanned(args, result) -> int:
    return len(args[0].quadruples)


def _quota(args, result) -> int:
    return result.quota


def _chars(args, result) -> int:
    # Both arguments go through whitespace normalization on every call.
    return len(args[0]) + len(args[1])


def _command(args, result) -> str:
    return args[0][0]


#: (module attribute path, span name, note taken from the call) per patch.
#: Span names are the layer that owns the function.
_TARGETS = (
    ("cli", "main", "cli.main", _command),
    ("cli", "parse_graph_document", "io.parse_graph_document", None),
    ("cli", "parse_selection_document", "io.parse_selection_document", None),
    ("cli", "emit_selection", "io.emit_selection", None),
    ("cli", "emit_sweep_table", "io.emit_sweep_table", None),
    ("cli", "run_sweep", "experiments.run_sweep", None),
    ("cli", "select", "selection.select", _quota),
    ("cli", "similarity", "metrics.similarity", None),
    ("cli", "verbalize", "metrics.verbalize", None),
    ("io", "build_graph", "graph.build_graph", None),
    ("experiments", "select", "selection.select", _quota),
    ("experiments", "similarity", "metrics.similarity", None),
    ("experiments", "verbalize", "metrics.verbalize", None),
    ("selection", "all_distances", "distance.all_distances", None),
    ("selection", "select_initial_node", "distance.select_initial_node", None),
    ("selection", "eligible", "selection.eligible", _scanned),
    ("metrics", "count_occurrences", "metrics.count_occurrences", _chars),
    ("graph", "ProbabilityGraph.occurrence_counts", "graph.occurrence_counts", None),
)


#: Per-layer metric names and units, as declared in BENCHMARK.json.
PER_LAYER = (
    ("io.parse_graph_document_s", "s"),
    ("io.emit_selection_s", "s"),
    ("graph.build_graph_s", "s"),
    ("graph.occurrence_counts_calls", "count/sweep"),
    ("distance.select_initial_node_s", "s"),
    ("distance.all_distances_s", "s"),
    ("distance.all_distances_calls", "count/sweep"),
    ("selection.select_self_s", "s"),
    ("selection.eligible_scans", "count/select"),
    ("selection.scanned_per_selected", "ratio"),
    ("metrics.similarity_s", "s"),
    ("metrics.verbalize_s", "s"),
    ("metrics.count_occurrences_calls", "count/scoring"),
    ("metrics.chars_normalized_per_scoring", "chars"),
    ("experiments.self_s", "s"),
    ("experiments.evaluations", "count/sweep"),
    ("experiments.jobs2_speedup", "ratio"),
    ("cli.overhead_s", "s"),
)


class Tracer:
    """Installs span-recording wrappers into an imported kgsqueeze."""

    def __init__(self) -> None:
        #: (name, start_ns, end_ns, parent index or -1, note) per call,
        #: in call order, so a parent always precedes its children.
        self.spans: list[tuple | None] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, function, name: str, note):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                open_.pop()
                spans[index] = (name, start, end, parent, None)
            if note is not None:
                spans[index] = (name, start, end, parent, note(args, result))
            return result

        return traced

    def install(self, kgsqueeze) -> None:
        for module, attribute, name, note in _TARGETS:
            owner = getattr(kgsqueeze, module)
            *path, attribute = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(original, name, note))
            self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent, note in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "note": note}) + "\n")


def summarize(spans: list[tuple], jobs2_speedup: float) -> tuple[dict, dict]:
    """Per-layer metrics, and a detail table (calls, medians and time
    shares per span name and command) for the README."""
    count = len(spans)
    root = [0] * count
    child_ns = [0] * count
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            root[i] = root[parent]
            child_ns[parent] += end - start
        else:
            root[i] = i
    calls: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        calls.setdefault(span[0], []).append(i)

    def command(i: int) -> str:
        return spans[root[i]][4]

    def seconds(i: int) -> float:
        return (spans[i][2] - spans[i][1]) / 1e9

    def self_seconds(i: int) -> float:
        return seconds(i) - child_ns[i] / 1e9

    def of(name: str) -> list[int]:
        return calls.get(name, [])

    def median_of(name: str, measure=seconds) -> float:
        found = of(name)
        return median(measure(i) for i in found) if found else 0.0

    def in_sweeps(name: str) -> int:
        return sum(1 for i in of(name) if command(i) == "sweep")

    def notes(name: str) -> int:
        return sum(spans[i][4] for i in of(name))

    def per(numerator: float, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    sweeps = len(of("experiments.run_sweep"))
    scorings = len(of("metrics.similarity"))
    metrics = {
        "io.parse_graph_document_s": median_of("io.parse_graph_document"),
        "io.emit_selection_s": median_of("io.emit_selection"),
        "graph.build_graph_s": median_of("graph.build_graph"),
        "graph.occurrence_counts_calls": per(in_sweeps("graph.occurrence_counts"), sweeps),
        "distance.select_initial_node_s": median_of("distance.select_initial_node"),
        "distance.all_distances_s": median_of("distance.all_distances"),
        "distance.all_distances_calls": per(in_sweeps("distance.all_distances"), sweeps),
        "selection.select_self_s": median_of("selection.select", self_seconds),
        "selection.eligible_scans": per(len(of("selection.eligible")), len(of("selection.select"))),
        "selection.scanned_per_selected": per(notes("selection.eligible"), notes("selection.select")),
        "metrics.similarity_s": median_of("metrics.similarity"),
        "metrics.verbalize_s": median_of("metrics.verbalize"),
        "metrics.count_occurrences_calls": per(len(of("metrics.count_occurrences")), scorings),
        "metrics.chars_normalized_per_scoring": per(notes("metrics.count_occurrences"), scorings),
        "experiments.self_s": median_of("experiments.run_sweep", self_seconds),
        "experiments.evaluations": per(in_sweeps("selection.select"), sweeps),
        "experiments.jobs2_speedup": jobs2_speedup,
        "cli.overhead_s": median_of("cli.main", self_seconds),
    }

    detail: dict[str, dict] = {"spans": {}, "share": {}}
    for name, found in sorted(calls.items()):
        detail["spans"][name] = {
            "calls": len(found),
            "median_s": median(seconds(i) for i in found),
            "median_self_s": median(self_seconds(i) for i in found),
        }
    for op in ("select", "metrics", "sweep"):
        roots = [i for i in of("cli.main") if spans[i][4] == op]
        total = sum(seconds(i) for i in roots)
        if not total:
            continue
        detail["share"][op] = {
            name: sum(seconds(i) for i in found if command(i) == op) / total
            for name, found in sorted(calls.items())
            if name != "cli.main" and any(command(i) == op for i in found)
        }
    return metrics, detail
