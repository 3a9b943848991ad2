"""A graph's quadruple view against a dense oracle, and what ingestion costs.

``build_graph`` stores each candidate's non-zero (label index,
probability) pairs with its top relation, top probability and entropy,
and builds no ``Quadruple`` unless ``graph.quadruples`` is read.
"""

import json
import pickle
import tempfile
import tracemalloc
from math import fsum
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.cli import main

from conftest import FIXTURE_DIR, entropy_oracle, float32_document


@st.composite
def confidence_maps(draw, labels):
    """A valid confidence map: explicit zeros, top ties, int confidences,
    sums off 1 that get renormalized, a dict or a MappingProxyType."""
    named = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=len(labels),
                          unique=True))
    if draw(st.booleans()):  # one-hot, as ints: 1 and explicit 0s
        values = [1] + [0] * (len(named) - 1)
    else:
        # Small integer weights give explicit zeros and exact ties.
        weights = draw(st.lists(st.integers(0, 3), min_size=len(named),
                                max_size=len(named)).filter(any))
        scale = draw(st.sampled_from([1.0, 0.95, 1.05, 1.0 + 1e-9, 1.0 + 1e-13]))
        values = [min(w / sum(weights) * scale, 1.0) for w in weights]
    confidences = dict(zip(named, values))
    return MappingProxyType(confidences) if draw(st.booleans()) else confidences


@st.composite
def graphs(draw):
    labels = tuple(f"r{n}" for n in range(draw(st.integers(2, 6))))
    size = draw(st.integers(2, 5))
    entities = [kq.Entity(f"e{n}", f"entity {n}", n) for n in range(size)]
    ends = st.tuples(st.integers(0, size - 1), st.integers(1, size - 1))
    candidates = [
        (f"e{head}", f"e{(head + step) % size}", draw(confidence_maps(labels)))
        for head, step in draw(st.lists(ends, min_size=1, max_size=8))
    ]
    text = " ".join(e.surface for e in entities)
    return kq.build_graph(text, labels, entities, candidates), candidates


def dense(labels, confidences):
    """The oracle: the map aligned to the relation set and renormalized."""
    total = fsum(float(value) for value in confidences.values())
    divisor = total if abs(total - 1.0) > 1e-12 else 1.0
    vector = [0.0] * len(labels)
    for label, value in confidences.items():
        vector[labels.index(label)] = float(value) / divisor
    return tuple(vector)


def run_cli(graph):
    """One-shot select, metrics in both case modes and sweep on ``graph``."""
    with tempfile.TemporaryDirectory() as work:
        path, selection = Path(work) / "graph.json", Path(work) / "sel.json"
        path.write_bytes(kq.serialize_graph(graph))
        graph_flag = ["--input", str(path)]
        codes = [
            main(["select", *graph_flag, "--k", "0.5", "--depth", "1",
                  "--output", str(selection)]),
            main(["metrics", *graph_flag, "--selection", str(selection)]),
            main(["metrics", *graph_flag, "--selection", str(selection),
                  "--case-insensitive"]),
            main(["sweep", *graph_flag, "--k-from", "0.5", "--k-step", "0.5",
                  "--runs", "2", "--seed", "1", "--output", str(Path(work) / "s.csv"),
                  "--dump-runs", str(Path(work) / "r.csv")]),
        ]
    assert codes == [0, 0, 0, 0]


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_quadruples_match_the_dense_oracle(built):
    """The ``graph.quadruples`` view; ``test_ingestion_differential.py``
    checks the columns it reads."""
    graph, candidates = built
    labels = graph.relation_set
    assert len(graph.quadruples) == len(candidates)
    for i, (head, tail, confidences) in enumerate(candidates):
        vector = dense(labels, confidences)
        top = max(range(len(vector)), key=vector.__getitem__)  # the first argmax
        quadruple = graph.quadruples[i]
        assert quadruple.distribution == kq.RelationDistribution(labels, vector)
        assert (quadruple.head, quadruple.tail, quadruple.top_relation,
                quadruple.top_probability) == (head, tail, labels[top], vector[top])
        assert abs(quadruple.entropy - entropy_oracle(vector)) <= 1e-12
    assert graph.quadruples[:] == tuple(graph.quadruples)


@settings(max_examples=40, deadline=None)
@given(graphs())
@example(built=(kq.parse_graph_document((FIXTURE_DIR / "bruce.json").read_bytes()), None))
@example(built=(kq.parse_graph_document((FIXTURE_DIR / "hangzhou.json").read_bytes()), None))
# Every sum renormalized: float32 confidences lie about 1e-8 off 1.
@example(built=(kq.parse_graph_document(float32_document(FIXTURE_DIR / "bruce.json")), None))
def test_round_trips_keep_the_columns(built):
    graph, _ = built
    again = kq.parse_graph_document(kq.serialize_graph(graph))
    assert again == graph and hash(again) == hash(graph)
    assert kq.serialize_graph(again) == kq.serialize_graph(graph)
    assert pickle.loads(pickle.dumps(graph)) == graph


@settings(max_examples=15, deadline=None)
@given(graphs())
def test_one_shot_commands_build_no_quadruple(built):
    graph, _ = built
    built_quadruples = []
    init = kq.Quadruple.__init__

    def counted(self, *args, **kwargs):
        built_quadruples.append(args)
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kq.Quadruple, "__init__", counted)
        run_cli(graph)
        graph.quadruples[0]  # the count sees a read
    assert len(built_quadruples) == 1


def labelled_document(size: int) -> bytes:
    """500 fixed candidates, each naming 2 of the first 12 of ``size`` labels."""
    labels = [f"relation {n}" for n in range(size)]
    entities = [{"id": f"e{n}", "surface": f"entity {n}"} for n in range(50)]
    candidates = [
        {"head": f"e{k % 50}", "tail": f"e{(k + 1 + k // 50) % 50}",
         "confidences": {labels[k % 12]: 0.75, labels[(k + 5) % 12]: 0.25}}
        for k in range(500)
    ]
    return json.dumps({
        "schema_version": 1,
        "text": " ".join(e["surface"] for e in entities),
        "relation_set": labels,
        "entities": entities,
        "candidates": candidates,
    }).encode("utf-8")


#: Allowed growth of the parse's tracemalloc peak from 12 to 4,000 labels.
#: Measured at 0.52 MB on Python 3.11: the relation set's own strings, list,
#: tuple and index.  A dense vector per candidate would add 16 MB.
RELATION_SET_GROWTH = 1_000_000


def test_parse_memory_does_not_follow_the_relation_set():
    peaks = []
    for size in (12, 4000):
        document = labelled_document(size)
        tracemalloc.start()
        try:
            graph = kq.parse_graph_document(document)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(graph.heads) == 500 and len(graph.relation_set) == size
        del graph
    assert peaks[1] - peaks[0] <= RELATION_SET_GROWTH
