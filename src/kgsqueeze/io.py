"""Interchange formats: graph documents, selection documents, sweep tables.

Graphs travel as JSON documents with an explicit relation set and sparse
per-candidate confidence maps (missing labels are zero), the shape
relation-extraction toolkits naturally emit.  Selections are JSON too,
carrying both the chosen indices and the human-readable quadruples.
Sweep results and per-run figures are CSV with fixed headers so any
plotting tool can consume them and golden files diff cleanly.

Parsers map every malformed input to a structured error; they never let
a raw decoding exception escape.  Emitters are deterministic: equal
inputs give identical bytes, and every JSON document is exactly
``json.dumps(document, indent=2, ensure_ascii=False) + "\n"`` in UTF-8.
A selection document comes in chunks of a batch of entries each, which
``select`` writes into its staged file or to stdout as they come, so its
extra memory does not grow with the document.  Each entry fills one
``%`` template in that layout, which gives the same bytes because every
string in it goes through the encoder ``json.dumps`` uses for strings
and every real is a finite ``float``, whose JSON is its repr.  Checked
against a graph, a selection is compared with the replay of its header
one entry at a time, so the check holds one replayed entry, never a
second copy of the document.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterator
from dataclasses import dataclass, fields
from json.encoder import encode_basestring
from math import inf, isclose, isfinite
from operator import itemgetter

from .errors import (
    MalformedDocumentError,
    SchemaViolationError,
    SelectionMismatchError,
)
from .graph import Entity, ProbabilityGraph, _EntityIndex, _derived, _take, build_graph
from .selection import SelectionConfig, SelectionResult, _check_in_range, select

SCHEMA_VERSION = 1


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


#: Fixed column order of the sweep CSV: the SweepRow fields.
SWEEP_HEADER = ",".join(f.name for f in fields(SweepRow))

#: A JSON escape that may decode to a lone surrogate, which UTF-8 cannot encode.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


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


def _document(data: bytes | str, where: str) -> dict:
    """Decode a document, a ``str`` or any bytes-like object: UTF-8 JSON
    whose root is an object carrying this ``SCHEMA_VERSION``; ``where``
    names the kind in messages."""
    try:
        if isinstance(data, str):
            data.encode("utf-8")  # a str may hold a lone surrogate
        else:
            data = str(data, "utf-8")
    except UnicodeError as exc:
        raise MalformedDocumentError(f"not valid UTF-8: {exc}") from None
    try:
        doc = json.loads(data, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise MalformedDocumentError(f"not valid JSON: {exc}") from None
    if _SURROGATE_ESCAPE.search(data):  # rare, so the strings are checked only then
        try:
            # Only the strings matter here, so no indent: the C encoder then
            # runs and nests as deep as json.loads just did, where the
            # indent=2 layout of _json_bytes would recurse in Python.
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise MalformedDocumentError(
                f"not valid UTF-8: a string holds the lone surrogate "
                f"{exc.object[exc.start]!r}"
            ) from None
    if not isinstance(doc, dict):
        raise SchemaViolationError("document root must be an object")
    version = _require(doc, "schema_version", int, where)
    if version != SCHEMA_VERSION:
        raise SchemaViolationError(f"{where}: unsupported schema_version {version!r}")
    return doc


def _json_bytes(document: object) -> bytes:
    """The one JSON layout of every document: two-space indent, UTF-8."""
    return (json.dumps(document, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def _field(obj: dict, key: str, where: str) -> object:
    if key not in obj:
        raise SchemaViolationError(f"{where}: missing field {key!r}")
    return obj[key]


def _require(obj: dict, key: str, kind: type, where: str) -> object:
    value = _field(obj, key, where)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaViolationError(
            f"{where}: field {key!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _require_number(obj: dict, key: str, where: str) -> float:
    value = _field(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaViolationError(f"{where}: field {key!r} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = inf
    if not isfinite(value):
        raise SchemaViolationError(f"{where}: field {key!r} must be finite")
    return value


def _objects(doc: dict, key: str, where: str):
    """Each ``(f"{key}[i]", entry)`` of a list field of objects."""
    for i, item in enumerate(_require(doc, key, list, where)):
        if not isinstance(item, dict):
            raise SchemaViolationError(f"{key}[{i}] must be an object")
        yield f"{key}[{i}]", item


def parse_graph_document(data: bytes | str) -> ProbabilityGraph:
    """Parse and validate a graph document into a ProbabilityGraph.

    Checks only the shape (MalformedDocumentError, SchemaViolationError);
    every rule on a value is ``build_graph``'s, with its class and message.
    """
    doc = _document(data, "document")
    text = _field(doc, "text", "document")
    relation_set = _require(doc, "relation_set", list, "document")
    entities = [
        Entity(_field(e, "id", at), _field(e, "surface", at),
               e.get("first_token_index"))
        for at, e in _objects(doc, "entities", "document")
    ]
    objects = _require(doc, "candidates", list, "document")
    try:
        candidates = list(map(itemgetter("head", "tail", "confidences"), objects))
    except (KeyError, TypeError):  # not an object, or a field missing
        candidates = None
    if candidates is None:  # outside the handler, so no KeyError is chained
        candidates = [
            (_field(c, "head", at), _field(c, "tail", at), _field(c, "confidences", at))
            for at, c in _objects(doc, "candidates", "document")
        ]
    return build_graph(text, relation_set, entities, candidates)


def serialize_graph(graph: ProbabilityGraph) -> bytes:
    """Graph back to document bytes; parse_graph_document inverts this.

    Each candidate's confidences are its stored non-zero pairs, in
    relation-set order.
    """
    labels = graph.relation_set
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
                "head": head,
                "tail": tail,
                "confidences": {labels[j]: p for j, p in pairs},
            }
            for head, tail, pairs in zip(graph.heads, graph.tails, graph.confidences)
        ],
    }
    return _json_bytes(doc)


def _selection_header(result: SelectionResult) -> dict:
    """A selection document's fields before ``selected``, in layout order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "strategy": result.strategy,
        "seed": result.seed,
        "K": result.ratio,
        "H": result.quota,
        "effective_depth": result.effective_depth,
        "relaxation_steps": result.relaxation_steps,
        "disconnected_fallback": result.disconnected_fallback,
        "SU": result.semantic_uncertainty,
    }


#: A ``selected`` entry's fields, in layout order.
_ENTRY_FIELDS = ("index", "head", "relation", "tail", "top_probability", "entropy")


def _selection_entry(graph: ProbabilityGraph, i: int) -> dict:
    """The ``selected`` entry of quadruple ``i``."""
    by_id = _derived(graph, "_by_id", _EntityIndex)
    return dict(zip(_ENTRY_FIELDS, (
        i,
        by_id[graph.heads[i]].surface,
        graph.top_relations[i],
        by_id[graph.tails[i]].surface,
        graph.top_probabilities[i],
        graph.entropies[i],
    )))


#: Entries of ``selected`` laid out per chunk of a selection.
_SELECTION_BATCH = 128

#: One ``selected`` entry in the indent=2 layout, a ``%`` conversion per
#: field of ``_ENTRY_FIELDS``: the index, three strings already encoded
#: as JSON and two reals.
_ENTRY = "    {\n%s\n    }" % ",\n".join(
    f"      {json.dumps(name)}: %{conversion}"
    for name, conversion in zip(_ENTRY_FIELDS, "dsssrr", strict=True)
)


def _selection_chunks(result: SelectionResult, graph: ProbabilityGraph) -> Iterator[bytes]:
    """The selection document's ``_json_bytes`` layout, in chunks of
    ``_SELECTION_BATCH`` entries, so only one batch is held.

    The header is laid out with an empty ``selected``, whose ``[]`` the
    batches replace.  Each entry fills the ``_ENTRY`` template, which
    gives the bytes ``_json_bytes`` gives ``_selection_entry`` on two
    conditions.  Each string goes through ``encode_basestring``, the
    string encoder of ``json.dumps(..., ensure_ascii=False)``; it runs
    once per distinct surface and label of a batch, so what a chunk holds
    still does not grow with the document.  Each real is a finite
    ``float``, whose JSON is its repr: ``build_graph`` stores no other,
    and a batch holding any other real raises ``ValueError``, as no JSON
    parser would read its repr.  A selected index outside the graph
    raises ``SelectionMismatchError`` before the first chunk.
    """
    selected = result.selected
    _check_in_range(graph, selected)
    head = _json_bytes(_selection_header(result) | {"selected": []})
    if not selected:
        yield head
        return
    heads, tails, relations = graph.heads, graph.tails, graph.top_relations
    by_id = _derived(graph, "_by_id", _EntityIndex)
    opening = head[:-len(b"[]\n}\n")] + b"[\n"
    for start in range(0, len(selected), _SELECTION_BATCH):
        batch = selected[start:start + _SELECTION_BATCH]
        probabilities = _take(graph.top_probabilities, batch)
        entropies = _take(graph.entropies, batch)
        reals = probabilities + entropies
        if {*map(type, reals)} != {float} or not all(map(isfinite, reals)):
            bad = next(x for x in reals if type(x) is not float or not isfinite(x))
            raise ValueError(f"a selected quadruple's real is not a finite float: {bad!r}")
        ends = {
            e: encode_basestring(by_id[e].surface)
            for e in {*_take(heads, batch), *_take(tails, batch)}
        }
        labels = {r: encode_basestring(r) for r in {*_take(relations, batch)}}
        text = ",\n".join([
            _ENTRY % (i, ends[heads[i]], labels[relations[i]], ends[tails[i]], p, h)
            for i, p, h in zip(batch, probabilities, entropies)
        ])
        yield opening + text.encode("utf-8")
        opening = b",\n"
    yield b"\n  ]\n}\n"


def emit_selection(result: SelectionResult, graph: ProbabilityGraph) -> bytes:
    """Selection to document bytes; equal inputs give identical bytes.
    A selected index outside the graph raises SelectionMismatchError."""
    return b"".join(_selection_chunks(result, graph))


def parse_selection_document(
    data: bytes | str, graph: ProbabilityGraph | None = None
) -> SelectionResult:
    """Parse a selection document; optionally validate it against a graph.

    The header must make a SelectionConfig, and each ``selected`` index
    be a non-negative int, else SchemaViolationError.
    With a graph, that config is replayed through ``select`` and every
    field the document has must match the replay (reals within 1e-9, the
    rest exactly, ``selected`` entry by entry), else SelectionMismatchError.
    """
    doc = _document(data, "selection")
    ratio = _require_number(doc, "K", "selection")
    if not 0.0 < ratio <= 1.0:
        raise SchemaViolationError(f"selection: K must be in (0, 1], got {ratio!r}")
    size = _require(doc, "H", int, "selection")
    effective_depth = _require(doc, "effective_depth", int, "selection")
    relaxation_steps = _require(doc, "relaxation_steps", int, "selection")
    if not 0 <= relaxation_steps <= effective_depth:
        raise SchemaViolationError("selection: relaxation_steps out of range")
    try:
        config = SelectionConfig(
            ratio,
            effective_depth - relaxation_steps,
            _field(doc, "strategy", "selection"),
            doc.get("seed"),
        )
    except ValueError as exc:
        raise SchemaViolationError(f"selection: {exc}") from None
    fallback = _field(doc, "disconnected_fallback", "selection")
    if not isinstance(fallback, bool):
        raise SchemaViolationError("selection: disconnected_fallback must be a bool")
    uncertainty = _require_number(doc, "SU", "selection")

    indices = []
    for where, item in _objects(doc, "selected", "selection"):
        indices.append(_require(item, "index", int, where))
        if indices[-1] < 0:
            raise SchemaViolationError(f"{where}: field 'index' must be non-negative")
        for key in ("top_probability", "entropy"):
            if key in item:
                _require_number(item, key, where)
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
        strategy=config.strategy,
        seed=config.seed,
    )
    if graph is not None:
        _validate_against_graph(doc, result, config, graph)
    return result


def _validate_against_graph(
    doc: dict, result: SelectionResult, config: SelectionConfig, graph: ProbabilityGraph
) -> None:
    """Raise unless ``doc`` is what replaying its config selects.

    The header is checked first, then ``selected`` entry by entry, each
    against its replayed entry; only one replayed entry is held at a time.
    """
    _check_in_range(graph, result.selected)
    replay = select(graph, config)
    _match("", doc, _selection_header(replay))
    for n, (given, i) in enumerate(zip(doc["selected"], replay.selected)):
        expected = _selection_entry(graph, i)
        # Parsing rejects a bool where a number belongs, so == cannot take True for 1.0.
        if given != expected:
            _match(f"selected[{n}] ", given, expected)


def _match(where: str, given: dict, expected: dict) -> None:
    """Raise unless each field ``given`` has agrees with the replayed one:
    reals within 1e-9, the rest of the same type and equal."""
    for key, value in expected.items():
        item = given.get(key, value)  # a field the document lacks passes
        if not (
            isclose(item, value, rel_tol=1e-9, abs_tol=1e-9)
            if isinstance(value, float)
            else type(item) is type(value) and item == value
        ):
            raise SelectionMismatchError(
                f"{where}{key} {item!r} does not match the replayed selection ({value!r})"
            )


def _figure(value: float) -> str:
    """Reals with 9 significant digits, locale-independent."""
    if not isfinite(value):
        raise ValueError(f"non-finite value in a CSV table: {value!r}")
    return format(value, ".9g")


def _table(rows: list, row_type: type) -> bytes:
    """Rows to CSV bytes: one column per field of ``row_type``, in order.

    Fields declared ``float`` go through ``_figure``, the rest through
    ``str``; the declared type decides, not the value's.
    """
    columns = [(f.name, _figure if f.type in ("float", float) else str)
               for f in fields(row_type)]
    lines = [",".join(name for name, _ in columns)]
    for row in rows:
        lines.append(",".join(render(getattr(row, name)) for name, render in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


def emit_sweep_table(rows: list[SweepRow]) -> bytes:
    """Sweep rows to CSV bytes: fixed header, sorted by (strategy, K)."""
    if not rows:
        raise ValueError("sweep table needs at least one row")
    return _table(sorted(rows, key=lambda r: (r.strategy, r.K)), SweepRow)


def emit_run_records(records: list[RunRecord]) -> bytes:
    """Random-baseline run records to CSV bytes, in the order given."""
    return _table(records, RunRecord)
