"""Selection documents are laid out and written a batch of entries at a time.

``io._selection_chunks`` lays the header out once and each batch of
``_SELECTION_BATCH`` entries at its indent; ``select`` writes those chunks
into the staged file or to stdout.  The bytes must stay exactly the
stdlib's ``indent=2`` layout whatever H is, and the write path's memory
must not follow H.
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
from kgsqueeze.io import _SELECTION_BATCH, _selection_chunks, _selection_fields

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


def stdlib_layout(data: bytes) -> bytes:
    return (json.dumps(json.loads(data), indent=2, ensure_ascii=False) + "\n").encode()


@pytest.mark.parametrize("quota", [1, B - 1, B, B + 1, 2 * B + 1])
def test_batch_boundaries_keep_the_stdlib_layout(tmp_path, capsys, quota):
    document = chain_document(quota)
    graph = kq.parse_graph_document(document)
    result = kq.select(graph, kq.SelectionConfig(1.0, 2))
    assert result.quota == quota

    emitted = kq.emit_selection(result, graph)
    chunks = list(_selection_chunks(result, graph))
    assert len(chunks) == -(-quota // B) + 1  # one per batch, then the closing
    assert b"".join(chunks) == emitted == stdlib_layout(emitted)

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
    assert data == stdlib_layout(data)
    assert json.loads(data)["selected"] == []


#: Pieces of strings that could pass for layout once encoded: brackets,
#: an entry boundary, escapes, whitespace, a JSON literal and non-ASCII.
LOOKALIKES = ("}", "{", "},", "}, {", ", ", '"', "\\", "\t", "\n", "null",
              "},\n      {", "é", "漢")


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
    fields = _selection_fields(result, graph)
    expected = (json.dumps(fields, indent=2, ensure_ascii=False) + "\n").encode("utf-8")
    assert kq.emit_selection(result, graph) == expected

    with tempfile.TemporaryDirectory() as work:
        source, output = Path(work) / "graph.json", Path(work) / "sel.json"
        source.write_bytes(document)
        argv = ["select", "--input", str(source), "--k", "1.0", "--depth", "2"]
        assert captured_stdout(argv + ["--output", str(output)]) == b""
        assert output.read_bytes() == expected
        assert captured_stdout(argv) == expected


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
