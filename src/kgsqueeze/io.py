"""Interchange formats: graph documents, selection documents, sweep tables.

Graphs travel as JSON documents with an explicit relation set and sparse
per-candidate confidence maps (missing labels are zero), the shape
relation-extraction toolkits naturally emit.  Selections are JSON too,
carrying both the chosen indices and the human-readable quadruples.
Sweep results and per-run figures are CSV with fixed headers so any
plotting tool can consume them and golden files diff cleanly.

Parsers map every malformed input to a structured error; they never let
a raw decoding exception escape.  Emitters are deterministic: equal
inputs give identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import fsum, inf, isclose, isfinite

from .errors import (
    MalformedDocumentError,
    SchemaViolationError,
    SelectionMismatchError,
)
from .graph import Entity, ProbabilityGraph, build_graph
from .selection import STRATEGIES, SelectionResult, quota

SCHEMA_VERSION = 1

#: Fixed column order of the sweep CSV.
SWEEP_HEADER = "K,strategy,SU,SS,A,C,theta,H,effective_depth,runs_averaged"

#: Fixed column order of the per-run random-baseline CSV.
RUNS_HEADER = "K,run_index,seed,SU,SS,A,C,theta"


@dataclass(frozen=True)
class SweepRow:
    """One (compression ratio, strategy) grid point of a sweep.

    Field names mirror the CSV columns.  ``runs_averaged`` is 1 except
    for the random strategy, whose figures are means over that many
    seeded runs.
    """

    K: float
    strategy: str
    SU: float
    SS: float
    A: float
    C: float
    theta: float
    H: int
    effective_depth: int
    runs_averaged: int


@dataclass(frozen=True)
class RunRecord:
    """One individual random-baseline run, for auditing the averages."""

    K: float
    run_index: int
    seed: int
    SU: float
    SS: float
    A: float
    C: float
    theta: float


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a key given twice is an error, not last-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaViolationError(f"duplicate key {key!r} in an object")
            seen.add(key)
    return obj


def _decode(data: bytes | str) -> object:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedDocumentError(f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(data, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from None


def _require(obj: dict, key: str, kind: type, where: str) -> object:
    if key not in obj:
        raise SchemaViolationError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaViolationError(
            f"{where}: field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _require_number(obj: dict, key: str, where: str) -> float:
    if key not in obj:
        raise SchemaViolationError(f"{where}: missing field {key!r}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolationError(f"{where}: field {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = inf
    if not isfinite(value):
        raise SchemaViolationError(f"{where}: field {key!r} must be finite")
    return value


def _check_version(doc: dict, where: str) -> None:
    version = _require(doc, "schema_version", int, where)
    if version != SCHEMA_VERSION:
        raise SchemaViolationError(
            f"{where}: unsupported schema_version {version!r}"
        )


def parse_graph_document(data: bytes | str) -> ProbabilityGraph:
    """Parse and validate a graph document into a ProbabilityGraph.

    Raises MalformedDocumentError on broken syntax, SchemaViolationError
    on structural problems, and the graph construction errors (with the
    offending candidate index in the message) on semantic ones.
    """
    doc = _decode(data)
    if not isinstance(doc, dict):
        raise SchemaViolationError("document root must be an object")
    _check_version(doc, "document")
    text = _require(doc, "text", str, "document")

    relation_set = _require(doc, "relation_set", list, "document")
    for i, label in enumerate(relation_set):
        if not isinstance(label, str):
            raise SchemaViolationError(f"relation_set[{i}] must be a string")

    raw_entities = _require(doc, "entities", list, "document")
    entities = []
    for i, item in enumerate(raw_entities):
        where = f"entities[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(f"{where} must be an object")
        entity_id = _require(item, "id", str, where)
        surface = _require(item, "surface", str, where)
        token_index = None
        if item.get("first_token_index") is not None:
            token_index = _require(item, "first_token_index", int, where)
        entities.append(Entity(entity_id, surface, token_index))

    raw_candidates = _require(doc, "candidates", list, "document")
    candidates = []
    for i, item in enumerate(raw_candidates):
        where = f"candidates[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(f"{where} must be an object")
        head = _require(item, "head", str, where)
        tail = _require(item, "tail", str, where)
        confidences = _require(item, "confidences", dict, where)
        for label, value in confidences.items():
            if not isinstance(label, str):
                raise SchemaViolationError(f"{where}: confidence keys must be strings")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaViolationError(
                    f"{where}: confidence for {label!r} must be a number"
                )
        candidates.append((head, tail, confidences))

    return build_graph(text, relation_set, entities, candidates)


def serialize_graph(graph: ProbabilityGraph) -> bytes:
    """Graph back to document bytes; parse_graph_document inverts this."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "text": graph.text,
        "relation_set": list(graph.relation_set),
        "entities": [
            {"id": e.id, "surface": e.surface}
            if e.first_token_index is None
            else {
                "id": e.id,
                "surface": e.surface,
                "first_token_index": e.first_token_index,
            }
            for e in graph.entities
        ],
        "candidates": [
            {
                "head": q.head,
                "tail": q.tail,
                "confidences": {
                    label: value
                    for label, value in q.distribution.as_dict().items()
                    if value != 0.0
                },
            }
            for q in graph.quadruples
        ],
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def emit_selection(result: SelectionResult, graph: ProbabilityGraph) -> bytes:
    """Selection to document bytes: indices plus readable quadruples.

    Deterministic field order; equal inputs give identical bytes.
    """
    selected = []
    for i in result.selected:
        q = graph.quadruples[i]
        selected.append(
            {
                "index": i,
                "head": graph.entity(q.head).surface,
                "relation": q.top_relation,
                "tail": graph.entity(q.tail).surface,
                "top_probability": q.top_probability,
                "entropy": q.entropy,
            }
        )
    doc = {
        "schema_version": SCHEMA_VERSION,
        "strategy": result.strategy,
        "seed": result.seed,
        "K": result.ratio,
        "H": result.quota,
        "effective_depth": result.effective_depth,
        "relaxation_steps": result.relaxation_steps,
        "disconnected_fallback": result.disconnected_fallback,
        "SU": result.semantic_uncertainty,
        "selected": selected,
    }
    return (json.dumps(doc, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def parse_selection_document(
    data: bytes | str, graph: ProbabilityGraph | None = None
) -> SelectionResult:
    """Parse a selection document; optionally validate it against a graph.

    With a graph, every listed quadruple must match the graph at its
    index (surfaces, relation, entropy within 1e-9), ``H`` must equal
    ``quota(K, len(graph.quadruples))`` and ``SU`` the sum of the
    selected entropies (within 1e-9), else SelectionMismatchError.
    """
    doc = _decode(data)
    if not isinstance(doc, dict):
        raise SchemaViolationError("document root must be an object")
    _check_version(doc, "selection")
    strategy = _require(doc, "strategy", str, "selection")
    if strategy not in STRATEGIES:
        raise SchemaViolationError(f"unknown strategy {strategy!r}")
    seed = None
    if doc.get("seed") is not None:
        seed = _require(doc, "seed", int, "selection")
    ratio = _require_number(doc, "K", "selection")
    if not 0.0 < ratio <= 1.0:
        raise SchemaViolationError(f"selection: K must be in (0, 1], got {ratio!r}")
    size = _require(doc, "H", int, "selection")
    effective_depth = _require(doc, "effective_depth", int, "selection")
    relaxation_steps = _require(doc, "relaxation_steps", int, "selection")
    fallback = doc.get("disconnected_fallback")
    if not isinstance(fallback, bool):
        raise SchemaViolationError("selection: disconnected_fallback must be a bool")
    uncertainty = _require_number(doc, "SU", "selection")

    raw_selected = _require(doc, "selected", list, "selection")
    indices = []
    for i, item in enumerate(raw_selected):
        where = f"selected[{i}]"
        if not isinstance(item, dict):
            raise SchemaViolationError(f"{where} must be an object")
        indices.append(_require(item, "index", int, where))
    if len(indices) != size or len(set(indices)) != len(indices):
        raise SchemaViolationError(
            "selection: selected entries must be distinct and H of them"
        )

    result = SelectionResult(
        selected=tuple(indices),
        quota=size,
        effective_depth=effective_depth,
        semantic_uncertainty=uncertainty,
        relaxation_steps=relaxation_steps,
        disconnected_fallback=fallback,
        ratio=ratio,
        strategy=strategy,
        seed=seed,
    )
    if graph is not None:
        _validate_against_graph(result, raw_selected, graph)
    return result


def _validate_against_graph(
    result: SelectionResult, raw_selected: list, graph: ProbabilityGraph
) -> None:
    total = len(graph.quadruples)
    for n, item in enumerate(raw_selected):
        i = item["index"]
        if not 0 <= i < total:
            raise SelectionMismatchError(
                f"selected index {i} out of range for a graph of {total} quadruples"
            )
        q = graph.quadruples[i]
        expected = {
            "head": graph.entity(q.head).surface,
            "relation": q.top_relation,
            "tail": graph.entity(q.tail).surface,
        }
        for key, value in expected.items():
            if key in item and item[key] != value:
                raise SelectionMismatchError(
                    f"selected index {i}: {key} {item[key]!r} does not match "
                    f"the graph ({value!r})"
                )
        if "entropy" in item:
            entropy = _require_number(item, "entropy", f"selected[{n}]")
            if abs(entropy - q.entropy) > 1e-9:
                raise SelectionMismatchError(
                    f"selected index {i}: entropy {item['entropy']!r} does not "
                    f"match the graph ({q.entropy!r})"
                )
    size = quota(result.ratio, total)
    if result.quota != size:
        raise SelectionMismatchError(
            f"H {result.quota} does not match K {result.ratio!r} (expected {size})"
        )
    su = fsum(graph.quadruples[i].entropy for i in result.selected)
    if not isclose(result.semantic_uncertainty, su, rel_tol=1e-9, abs_tol=1e-9):
        raise SelectionMismatchError(
            f"SU {result.semantic_uncertainty!r} does not match the graph ({su!r})"
        )


def _figure(value: float) -> str:
    """Reals with 9 significant digits, locale-independent."""
    if not isfinite(value):
        raise ValueError(f"non-finite value in a CSV table: {value!r}")
    return format(value, ".9g")


def emit_sweep_table(rows: list[SweepRow]) -> bytes:
    """Sweep rows to CSV bytes: fixed header, sorted by (strategy, K)."""
    if not rows:
        raise ValueError("sweep table needs at least one row")
    lines = [SWEEP_HEADER]
    for row in sorted(rows, key=lambda r: (r.strategy, r.K)):
        lines.append(
            ",".join(
                (
                    _figure(row.K),
                    row.strategy,
                    _figure(row.SU),
                    _figure(row.SS),
                    _figure(row.A),
                    _figure(row.C),
                    _figure(row.theta),
                    str(row.H),
                    str(row.effective_depth),
                    str(row.runs_averaged),
                )
            )
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_run_records(records: list[RunRecord]) -> bytes:
    """Random-baseline run records to CSV bytes, in the order given."""
    lines = [RUNS_HEADER]
    for r in records:
        figures = (_figure(v) for v in (r.SU, r.SS, r.A, r.C, r.theta))
        lines.append(",".join((_figure(r.K), str(r.run_index), str(r.seed), *figures)))
    return ("\n".join(lines) + "\n").encode("utf-8")
