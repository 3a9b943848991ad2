"""Exact class and message of each graph-document fault.

Each fault is one candidate after ``position`` valid ones, so its message
must name that index.  Every fault is put to ``parse_graph_document`` and,
where a library call can express it, to ``build_graph``.
"""

import json
import re

import pytest

import kgsqueeze as kq

LABELS = ["r1", "r2", "r3"]
ENTITIES = [("a", "a"), ("b", "b"), ("c", "c")]
VALID = [("a", "b", {"r1": 1.0}), ("b", "c", {"r2": 0.25, "r1": 0.75})]
GOOD_CONFIDENCES = {"r1": 0.5, "r3": 0.5}


def document(bad_entry, position=2) -> bytes:
    candidates = [{"head": h, "tail": t, "confidences": c} for h, t, c in VALID]
    return json.dumps({
        "schema_version": 1,
        "text": "a b c",
        "relation_set": LABELS,
        "entities": [{"id": i, "surface": s} for i, s in ENTITIES],
        "candidates": [*candidates[:position], bad_entry],
    }).encode("utf-8")


def build(bad_candidate, position=2):
    return kq.build_graph(
        "a b c", LABELS, [kq.Entity(i, s) for i, s in ENTITIES],
        [*VALID[:position], bad_candidate],
    )


def raises_exactly(call, error, message):
    with pytest.raises(kq.KgsqueezeError, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error


#: (id, head, tail, confidences, error, message after "candidate N: "):
#: faults both paths express.
BOTH_PATHS = [
    ("head_not_str", 5, "b", GOOD_CONFIDENCES, kq.SchemaViolationError,
     "head must be a str, got int"),
    ("head_unknown", "zz", "b", GOOD_CONFIDENCES, kq.UnknownEntityError,
     "unknown head entity 'zz'"),
    ("tail_not_str", "a", None, GOOD_CONFIDENCES, kq.SchemaViolationError,
     "tail must be a str, got NoneType"),
    ("tail_unknown", "a", "zz", GOOD_CONFIDENCES, kq.UnknownEntityError,
     "unknown tail entity 'zz'"),
    ("self_loop", "c", "c", GOOD_CONFIDENCES, kq.SelfLoopError,
     "head equals tail ('c')"),
    ("confidences_not_a_map", "a", "c", [0.5, 0.5], kq.SchemaViolationError,
     "confidences must be a mapping, got list"),
    ("confidence_not_a_number", "a", "c", {"r1": "0.5", "r2": 0.5},
     kq.SchemaViolationError, "confidence for 'r1' must be a number"),
    ("confidence_bool", "a", "c", {"r1": 0.5, "r2": True},
     kq.SchemaViolationError, "confidence for 'r2' must be a number"),
    ("confidence_above_one", "a", "c", {"r1": 1.5}, kq.BadDistributionError,
     "confidence 1.5 for 'r1' outside [0, 1]"),
    ("confidence_negative", "a", "c", {"r1": -0.25, "r2": 1.0},
     kq.BadDistributionError, "confidence -0.25 for 'r1' outside [0, 1]"),
    ("confidence_beyond_float", "a", "c", {"r1": 10**400}, kq.BadDistributionError,
     "a confidence outside [0, 1]"),
    ("confidence_unknown_label", "a", "c", {"zz": 0.5, "r1": 0.5, "aa": 0.0},
     kq.BadDistributionError,
     "confidence for unknown relation label(s) ['aa', 'zz']"),
    ("sum_below_band", "a", "c", {"r1": 0.5, "r2": 0.3}, kq.BadDistributionError,
     "confidences sum to 0.8, outside [0.9, 1.1]"),
    ("sum_above_band", "a", "c", {"r1": 0.75, "r2": 0.75}, kq.BadDistributionError,
     "confidences sum to 1.5, outside [0.9, 1.1]"),
    ("all_zero", "a", "c", {"r1": 0.0}, kq.BadDistributionError,
     "confidences sum to 0.0, outside [0.9, 1.1]"),
    # The first bad confidence in map order is named.
    ("two_out_of_range", "a", "b", {"r3": 1.5, "r1": -0.5}, kq.BadDistributionError,
     "confidence 1.5 for 'r3' outside [0, 1]"),
    ("out_of_range_then_non_number", "a", "b", {"r2": 1.5, "r1": "0.5"},
     kq.BadDistributionError, "confidence 1.5 for 'r2' outside [0, 1]"),
    ("non_number_then_out_of_range", "a", "b", {"r2": "0.5", "r1": -0.5},
     kq.SchemaViolationError, "confidence for 'r2' must be a number"),
    ("overflow_then_non_number", "a", "b", {"r1": 10**400, "r2": None},
     kq.BadDistributionError, "a confidence outside [0, 1]"),
    # The endpoint rules, with a one-hot map.
    ("non_str_head", 7, "b", {"r1": 1.0}, kq.SchemaViolationError,
     "head must be a str, got int"),
    ("unknown_head", "ghost", "b", {"r1": 1.0}, kq.UnknownEntityError,
     "unknown head entity 'ghost'"),
    ("non_str_tail", "a", None, {"r1": 1.0}, kq.SchemaViolationError,
     "tail must be a str, got NoneType"),
    ("unknown_tail", "a", "ghost", {"r1": 1.0}, kq.UnknownEntityError,
     "unknown tail entity 'ghost'"),
    ("self_loop_one_hot", "a", "a", {"r1": 1.0}, kq.SelfLoopError,
     "head equals tail ('a')"),
    ("unknown_head_beats_non_str_tail", "ghost", 7, {"r1": 1.0},
     kq.UnknownEntityError, "unknown head entity 'ghost'"),
]


@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize(
    "head, tail, confidences, error, message",
    [case[1:] for case in BOTH_PATHS],
    ids=[case[0] for case in BOTH_PATHS],
)
def test_fault_on_both_paths(head, tail, confidences, error, message, position):
    message = f"candidate {position}: {message}"
    raises_exactly(lambda: build((head, tail, confidences), position), error, message)
    entry = {"head": head, "tail": tail, "confidences": confidences}
    raises_exactly(
        lambda: kq.parse_graph_document(document(entry, position)), error, message
    )


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"tail": "c", "confidences": GOOD_CONFIDENCES},
         "candidates[2]: missing field 'head'"),
        ({"head": "a", "confidences": GOOD_CONFIDENCES},
         "candidates[2]: missing field 'tail'"),
        ({"head": "a", "tail": "c"}, "candidates[2]: missing field 'confidences'"),
        ({"confidences": GOOD_CONFIDENCES}, "candidates[2]: missing field 'head'"),
        (["a", "c", GOOD_CONFIDENCES], "candidates[2] must be an object"),
        ("a c", "candidates[2] must be an object"),
        (None, "candidates[2] must be an object"),
    ],
    ids=["no_head", "no_tail", "no_confidences", "no_head_or_tail",
         "list", "string", "null"],
)
def test_document_shape_fault(entry, message):
    raises_exactly(
        lambda: kq.parse_graph_document(document(entry)),
        kq.SchemaViolationError, message,
    )


@pytest.mark.parametrize(
    "candidate, message",
    [
        (("a", "c"), "candidates[2] must be a (head, tail, confidences) "
                     "triple, got tuple of length 2"),
        ({"head": "a", "tail": "c", "confidences": GOOD_CONFIDENCES},
         "candidates[2] must be a (head, tail, confidences) triple, got dict of length 3"),
        ("a c", "candidates[2] must be a (head, tail, confidences) "
                "triple, got str of length 3"),
        (None, "candidates[2] must be a (head, tail, confidences) triple, got NoneType"),
    ],
    ids=["pair", "dict", "string", "none"],
)
def test_library_shape_fault(candidate, message):
    raises_exactly(lambda: build(candidate), kq.SchemaViolationError, message)


def test_head_fault_wins_over_confidence_fault():
    entry = ("zz", "zz", {"r1": "x"})
    message = "candidate 2: unknown head entity 'zz'"
    raises_exactly(lambda: build(entry), kq.UnknownEntityError, message)
    as_object = dict(zip(("head", "tail", "confidences"), entry))
    raises_exactly(
        lambda: kq.parse_graph_document(document(as_object)),
        kq.UnknownEntityError, message,
    )


def test_renormalized_sum_warning_names_the_candidate():
    entry = ("a", "c", {"r1": 0.5, "r2": 0.45})
    warning = ("candidate 2: confidences sum to 0.95, renormalized",)
    assert build(entry).warnings == warning
    as_object = dict(zip(("head", "tail", "confidences"), entry))
    assert kq.parse_graph_document(document(as_object)).warnings == warning
