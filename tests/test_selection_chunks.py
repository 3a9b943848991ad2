"""Selection documents are laid out and written a batch of entries at a time.

``io._selection_chunks`` lays the header out once and each batch of
``_SELECTION_BATCH`` entries at its indent; ``select`` writes those chunks
into the staged file or to stdout.  The bytes must stay exactly the
stdlib's ``indent=2`` layout whatever H is, and the write path's memory
must not follow H.  With a graph, a selection document is checked against
its replay one entry at a time: the check's memory must not follow H
either, and each fault keeps its class, its message and its place in the
order faults are reported in.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.cli import _write_outputs, main
from kgsqueeze.io import (
    _SELECTION_BATCH,
    _selection_chunks,
    _selection_entry,
    _selection_header,
)

from conftest import stdlib_layout

B = _SELECTION_BATCH


def chain_document(candidates: int) -> bytes:
    """A chain of entities with about eight parallel candidates per hop and
    non-ASCII surfaces, so every chunk carries multi-byte characters."""
    hops = max(candidates // 8, 1)
    entities = [{"id": f"e{n}", "surface": f"Entité {n}"} for n in range(hops + 1)]
    return json.dumps({
        "schema_version": 1,
        "text": " ".join(e["surface"] for e in entities),
        "relation_set": ["près de", "avant", "après"],
        "entities": entities,
        "candidates": [
            {"head": f"e{k % hops}", "tail": f"e{k % hops + 1}",
             "confidences": {"près de": (k % 7 + 1) / 10, "après": (9 - k % 7) / 10}}
            for k in range(candidates)
        ],
    }, ensure_ascii=False).encode("utf-8")


def odd_chain_document() -> bytes:
    """A chain of 3,000 candidates whose surfaces and one relation label
    hold }, {, ", \\ and a tab, written as ``print(json.dumps(...))``."""
    hops = 375
    odd = '}, {"\\\t'  # }, {, ", \ and a tab
    near = f"près {odd} de"
    entities = [{"id": f"e{n}", "surface": f"Entité {n} {odd}"} for n in range(hops + 1)]
    return (json.dumps({
        "schema_version": 1,
        "text": " ".join(e["surface"] for e in entities),
        "relation_set": [near, "après"],
        "entities": entities,
        "candidates": [
            {"head": f"e{k % hops}", "tail": f"e{k % hops + 1}",
             "confidences": {near: (k % 7 + 1) / 10, "après": (9 - k % 7) / 10}}
            for k in range(3000)
        ],
    }) + "\n").encode()


QUOTAS = (1, B - 1, B, B + 1, 2 * B + 1)


@pytest.mark.parametrize(
    "document, quota",
    [*((chain_document(q), q) for q in QUOTAS), (odd_chain_document(), 3000)],
    ids=[*map(str, QUOTAS), "odd-3000"],
)
def test_batch_boundaries_keep_the_stdlib_layout(tmp_path, capsys, document, quota):
    graph = kq.parse_graph_document(document)
    result = kq.select(graph, kq.SelectionConfig(1.0, 2))
    assert result.quota == quota

    emitted = kq.emit_selection(result, graph)
    chunks = list(_selection_chunks(result, graph))
    assert len(chunks) == -(-quota // B) + 1  # one per batch, then the closing
    assert b"".join(chunks) == emitted == stdlib_layout(json.loads(emitted))

    source, output = tmp_path / "graph.json", tmp_path / "sel.json"
    source.write_bytes(document)
    argv = ["select", "--input", str(source), "--k", "1.0", "--depth", "2"]
    assert main(argv + ["--output", str(output)]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    for data in (output.read_bytes(), capsys.readouterr().out.encode("utf-8")):
        assert data == emitted
        assert kq.parse_selection_document(data, graph) == result


def test_an_empty_selection_keeps_the_stdlib_layout():
    graph = kq.parse_graph_document(chain_document(3))
    result = kq.select(graph, kq.SelectionConfig(0.1, 2))
    empty = dataclasses.replace(result, selected=(), quota=0)
    data = kq.emit_selection(empty, graph)
    assert data == stdlib_layout(json.loads(data))
    assert json.loads(data)["selected"] == []


#: Pieces of strings that could pass for layout once encoded: brackets,
#: an entry boundary, escapes, whitespace, a JSON literal, non-ASCII, the
#: line and paragraph separators, DEL, C0 controls and a non-BMP character.
LOOKALIKES = ("}", "{", "},", "}, {", ", ", '"', "\\", "\t", "\n", "null",
              "},\n      {", "é", "漢", "\u2028", "\u2029", "\x7f", "\x00", "\x1f",
              "\x08", "\U0001f600")


def lookalike_strings():
    return st.lists(st.sampled_from(LOOKALIKES + ("x",)), min_size=1, max_size=6).map("".join)


@st.composite
def lookalike_documents(draw, candidates):
    """A chain graph document of ``candidates`` quadruples whose surfaces
    and relation labels are made of ``LOOKALIKES``; every label is the top
    relation of some quadruple."""
    hops = max(candidates // 8, 1)
    surfaces = draw(st.lists(lookalike_strings().filter(str.split),
                             min_size=hops + 1, max_size=hops + 1))
    labels = draw(st.lists(lookalike_strings().filter(lambda s: s == s.strip()),
                           min_size=2, max_size=3, unique=True))
    entities = [{"id": f"e{n}", "surface": surface} for n, surface in enumerate(surfaces)]
    return json.dumps({
        "schema_version": 1,
        "text": " ".join(surfaces),
        "relation_set": labels,
        "entities": entities,
        "candidates": [
            {"head": f"e{k % hops}", "tail": f"e{k % hops + 1}",
             "confidences": {labels[k % len(labels)]: 0.75,
                             labels[(k + 1) % len(labels)]: 0.25}}
            for k in range(candidates)
        ],
    }).encode("utf-8")


def captured_stdout(argv: list[str]) -> bytes:
    """The bytes ``main(argv)`` writes to a binary-backed stdout."""
    stream = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return stream.buffer.getvalue()


@pytest.mark.parametrize("quota", [B - 1, B + 1, 2 * B + 1])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_layout_lookalike_strings_keep_the_stdlib_layout(quota, data):
    document = data.draw(lookalike_documents(quota))
    graph = kq.parse_graph_document(document)
    result = kq.select(graph, kq.SelectionConfig(1.0, 2))
    assert result.quota == quota
    fields = _selection_header(result) | {
        "selected": [_selection_entry(graph, i) for i in result.selected]
    }
    expected = stdlib_layout(fields)
    assert kq.emit_selection(result, graph) == expected

    with tempfile.TemporaryDirectory() as work:
        source, output = Path(work) / "graph.json", Path(work) / "sel.json"
        source.write_bytes(document)
        argv = ["select", "--input", str(source), "--k", "1.0", "--depth", "2"]
        assert captured_stdout(argv + ["--output", str(output)]) == b""
        assert output.read_bytes() == expected
        assert captured_stdout(argv) == expected


def test_reals_in_exponent_form_keep_the_stdlib_layout():
    """Entropies of about 4e-11 and 5e-321 (a subnormal) print in exponent
    form, next to a one-hot entropy of 0.0."""
    tiny = 2.0 ** -40
    graph = kq.build_graph(
        "a b c", ["r1", "r2"], [kq.Entity(i, i) for i in "abc"],
        [("a", "b", {"r1": tiny, "r2": 1 - tiny}), ("b", "c", {"r1": 1.0}),
         ("a", "c", {"r2": 1.0, "r1": 5e-324})],
    )
    result = kq.select(graph, kq.SelectionConfig(1.0, 2))
    assert result.quota == 3
    fields = _selection_header(result) | {
        "selected": [_selection_entry(graph, i) for i in result.selected]
    }
    expected = stdlib_layout(fields)
    assert kq.emit_selection(result, graph) == expected
    assert list(map(repr, graph.entropies)) == ["3.7691911566879126e-11", "0.0", "5.306e-321"]


class Real(float):
    """A ``float`` subclass whose repr is no JSON number, as numpy's are."""

    def __repr__(self):
        return f"Real({float(self)!r})"


@pytest.mark.parametrize("column", ["top_probabilities", "entropies"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), Real(0.5), 1])
def test_a_real_no_json_number_can_spell_is_refused(column, bad):
    """A graph built around ``build_graph`` may hold any real; a selection
    of it raises rather than write bytes no JSON parser reads."""
    graph = kq.parse_graph_document(chain_document(2 * B + 1))
    result = kq.select(graph, kq.SelectionConfig(1.0, 2))
    last = result.selected[-1]  # in the last batch, after two are laid out
    values = list(getattr(graph, column))
    values[last] = bad
    broken = dataclasses.replace(graph, **{column: tuple(values)})
    with pytest.raises(ValueError, match="not a finite float"):
        kq.emit_selection(result, broken)
    emitted = kq.emit_selection(result, graph)
    assert emitted == stdlib_layout(json.loads(emitted))


#: Allowed growth of the write path's tracemalloc peak from H = 2,000 to
#: H = 20,000.  Measured at 0.5 KB on Python 3.11: each peak is one batch of
#: entries, so only that batch's longer indices and surfaces add to it.
#: Laying the whole document out as one bytes object before writing it
#: grew the peak by 17 MB here, five times the 3.4 MB of added document.
SELECTION_WRITE_GROWTH = 200_000


def test_writing_a_selection_does_not_follow_its_size(tmp_path):
    graph = kq.parse_graph_document(chain_document(20_000))
    peaks = []
    for ratio in (0.1, 1.0):
        result = kq.select(graph, kq.SelectionConfig(ratio, 2))
        assert result.quota == round(20_000 * ratio)
        target = tmp_path / f"sel-{result.quota}.json"
        tracemalloc.start()
        try:
            _write_outputs([(str(target), _selection_chunks(result, graph))])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert target.read_bytes() == kq.emit_selection(result, graph)
    assert peaks[1] - peaks[0] <= SELECTION_WRITE_GROWTH


#: Allowed growth, from H = 2,000 to H = 20,000, of what the replay adds to
#: the tracemalloc peak of parsing a selection (with the graph over without
#: it).  Measured on Python 3.11: the addition stays 0.00 MB at both sizes,
#: since one replayed entry at a time fits under the decoding peak.
#: Comparing against a replayed copy of the whole document grew it by
#: 2.19 MB here (0.24 MB at H = 2,000, 2.44 MB at H = 20,000).
SELECTION_REPLAY_GROWTH = 200_000


def test_checking_a_selection_does_not_follow_its_size():
    graph = kq.parse_graph_document(chain_document(20_000))
    added = []
    for ratio in (0.1, 1.0):
        # The first select and emit warm the graph's caches, which the
        # replay then shares.
        result = kq.select(graph, kq.SelectionConfig(ratio, 2))
        assert result.quota == round(20_000 * ratio)
        blob = kq.emit_selection(result, graph)
        peaks = []
        for against in (None, graph):
            tracemalloc.start()
            try:
                parsed = kq.parse_selection_document(blob, against)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert parsed == result
        added.append(peaks[1] - peaks[0])
    assert added[1] - added[0] <= SELECTION_REPLAY_GROWTH


@pytest.fixture(scope="module", params=["bruce", "chain"])
def replayable(request):
    """A graph and a valid selection document of it, as a dict: ``bruce``
    at K = 0.5, and a chain of long-chain's 3,600 candidates at K = 0.9."""
    if request.param == "bruce":
        graph, ratio = request.getfixturevalue("bruce"), 0.5
    else:
        graph, ratio = kq.parse_graph_document(chain_document(3_600)), 0.9
    result = kq.select(graph, kq.SelectionConfig(ratio, 2))
    assert result.relaxation_steps > 0  # so a deeper effective_depth is a mismatch
    return graph, json.loads(kq.emit_selection(result, graph))


#: A replayed field that disagrees with the document.
MISMATCH = "{where}{key} {bad!r} does not match the replayed selection ({value!r})"
SCHEMA, REPLAY = kq.SchemaViolationError, kq.SelectionMismatchError

#: (field, its bad value made from the good one, the error class, the
#: message).  A message is formatted with the field's ``key``, its good
#: ``value``, the ``bad`` one, ``where`` the field sits and the document's
#: quota ``H``.  Each field is broken by value and by type.
HEADER_FAULTS = [
    ("schema_version", lambda v: 2, SCHEMA, "selection: unsupported schema_version 2"),
    ("schema_version", lambda v: "1", SCHEMA,
     "selection: field 'schema_version' must be int, got str"),
    ("strategy", lambda v: "nope", SCHEMA,
     f"selection: unknown strategy 'nope'; expected one of {kq.STRATEGIES}"),
    ("strategy", lambda v: 1, SCHEMA,
     f"selection: unknown strategy 1; expected one of {kq.STRATEGIES}"),
    ("seed", lambda v: -1, SCHEMA, "selection: seed must be non-negative, got -1"),
    ("seed", lambda v: "5", SCHEMA, "selection: seed must be an int, got '5'"),
    ("K", lambda v: 1, REPLAY, "H {H} does not match the replayed selection ({G})"),
    ("K", str, SCHEMA, "selection: field 'K' must be a number"),
    ("H", lambda v: v + 1, SCHEMA,
     "selection: selected entries must be distinct and H of them"),
    ("H", str, SCHEMA, "selection: field 'H' must be int, got str"),
    ("effective_depth", lambda v: v + 1, REPLAY, MISMATCH),
    ("effective_depth", float, SCHEMA,
     "selection: field 'effective_depth' must be int, got float"),
    ("relaxation_steps", lambda v: -1, SCHEMA, "selection: relaxation_steps out of range"),
    ("relaxation_steps", str, SCHEMA,
     "selection: field 'relaxation_steps' must be int, got str"),
    ("disconnected_fallback", lambda v: not v, REPLAY, MISMATCH),
    ("disconnected_fallback", int, SCHEMA,
     "selection: disconnected_fallback must be a bool"),
    ("SU", lambda v: v + 1, REPLAY, MISMATCH),
    ("SU", str, SCHEMA, "selection: field 'SU' must be a number"),
]

#: As ``HEADER_FAULTS`` for the fields of one ``selected`` entry; ``spare``
#: is an in-range index that no entry holds.
ENTRY_FAULTS = [
    ("index", lambda v, spare: spare, REPLAY, MISMATCH),
    ("index", lambda v, spare: float(v), SCHEMA,
     "selected[{n}]: field 'index' must be int, got float"),
    ("head", lambda v, spare: v + "x", REPLAY, MISMATCH),
    ("head", lambda v, spare: 1, REPLAY, MISMATCH),
    ("relation", lambda v, spare: v.upper(), REPLAY, MISMATCH),
    ("relation", lambda v, spare: None, REPLAY, MISMATCH),
    ("tail", lambda v, spare: "", REPLAY, MISMATCH),
    ("tail", lambda v, spare: [v], REPLAY, MISMATCH),
    ("top_probability", lambda v, spare: v / 2, REPLAY, MISMATCH),
    ("top_probability", lambda v, spare: str(v), SCHEMA,
     "selected[{n}]: field 'top_probability' must be a number"),
    ("entropy", lambda v, spare: v + 1e-6, REPLAY, MISMATCH),
    ("entropy", lambda v, spare: [v], SCHEMA,
     "selected[{n}]: field 'entropy' must be a number"),
]


def assert_refused(graph, doc, error, message):
    with pytest.raises(kq.KgsqueezeError) as raised:
        kq.parse_selection_document(json.dumps(doc), graph)
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("key, corrupt, error, message", HEADER_FAULTS)
def test_a_header_fault_keeps_its_message(replayable, key, corrupt, error, message):
    graph, doc = replayable
    value = doc[key]
    bad = corrupt(value)
    message = message.format(where="", key=key, bad=bad, value=value,
                             H=doc["H"], G=len(graph.heads))
    assert_refused(graph, doc | {key: bad}, error, message)


@pytest.mark.parametrize("key, corrupt, error, message", ENTRY_FAULTS)
@pytest.mark.parametrize("place", ["first", "middle", "last"])
def test_an_entry_fault_keeps_its_message(replayable, place, key, corrupt, error, message):
    graph, doc = replayable
    entries = doc["selected"]
    n = {"first": 0, "middle": len(entries) // 2, "last": len(entries) - 1}[place]
    spare = min(set(range(len(graph.heads))) - {entry["index"] for entry in entries})
    value = entries[n][key]
    bad = corrupt(value, spare)
    message = message.format(where=f"selected[{n}] ", n=n, key=key, bad=bad, value=value)
    selected = list(entries)
    selected[n] = entries[n] | {key: bad}
    assert_refused(graph, doc | {"selected": selected}, error, message)


def test_the_first_fault_in_document_order_is_reported(replayable):
    """Header fields first, then entries in order, then each entry's
    fields in ``_selection_entry`` order."""
    graph, doc = replayable
    last, middle = len(doc["selected"]) - 1, len(doc["selected"]) // 2

    def broken(header, entries):
        selected = [dict(entry) for entry in doc["selected"]]
        for n, key, bad in entries:
            selected[n][key] = bad
        return doc | header | {"selected": selected}

    su = doc["SU"] + 1
    assert_refused(graph, broken({"SU": su}, [(last, "head", "Nobody")]), REPLAY,
                   MISMATCH.format(where="", key="SU", bad=su, value=doc["SU"]))
    depth = doc["effective_depth"] + 1
    assert_refused(graph, broken({"effective_depth": depth, "SU": su}, []), REPLAY,
                   MISMATCH.format(where="", key="effective_depth", bad=depth,
                                   value=doc["effective_depth"]))
    head = doc["selected"][middle]["head"]
    assert_refused(graph, broken({}, [(last, "head", "Nobody"), (middle, "head", "Nobody")]),
                   REPLAY, MISMATCH.format(where=f"selected[{middle}] ", key="head",
                                           bad="Nobody", value=head))
    assert_refused(graph, broken({}, [(middle, "entropy", 9.0), (middle, "head", "Nobody")]),
                   REPLAY, MISMATCH.format(where=f"selected[{middle}] ", key="head",
                                           bad="Nobody", value=head))
