"""Document parsing, emission, and the sweep CSV shape."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.io import _json_bytes, emit_run_records

from conftest import FIXTURE_DIR, random_confidences, stdlib_layout


def fixture_bytes(name):
    return (FIXTURE_DIR / name).read_bytes()


def valid_doc():
    """Small well-formed graph document as a mutable dict."""
    return {
        "schema_version": 1,
        "text": "a b c",
        "relation_set": ["r1", "r2"],
        "entities": [
            {"id": "a", "surface": "a", "first_token_index": 0},
            {"id": "b", "surface": "b"},
            {"id": "c", "surface": "c"},
        ],
        "candidates": [
            {"head": "a", "tail": "b", "confidences": {"r1": 1.0}},
            {"head": "b", "tail": "c", "confidences": {"r1": 0.5, "r2": 0.5}},
        ],
    }


def as_bytes(doc):
    return json.dumps(doc).encode("utf-8")


class TestGraphDocuments:
    @pytest.mark.parametrize("name", ["bruce.json", "hangzhou.json"])
    def test_fixture_files_round_trip_to_identical_bytes(self, name):
        raw = fixture_bytes(name)
        graph = kq.parse_graph_document(raw)
        assert kq.serialize_graph(graph) == raw

    def test_reparse_preserves_every_figure(self, bruce):
        again = kq.parse_graph_document(kq.serialize_graph(bruce))
        assert again.text == bruce.text
        assert again.relation_set == bruce.relation_set
        assert again.entities == bruce.entities
        for q1, q2 in zip(bruce.quadruples, again.quadruples):
            assert q1 == q2

    def test_accepts_str_input(self):
        graph = kq.parse_graph_document(as_bytes(valid_doc()).decode())
        assert len(graph.quadruples) == 2

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_both_parsers_accept_bytes_like_input(self, bruce, wrap):
        raw = fixture_bytes("bruce.json")
        graph = kq.parse_graph_document(wrap(raw))
        assert graph == bruce and kq.serialize_graph(graph) == raw
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        blob = kq.emit_selection(result, bruce)
        assert kq.parse_selection_document(wrap(blob), bruce) == result

    def test_missing_token_index_defaults_to_none(self):
        graph = kq.parse_graph_document(as_bytes(valid_doc()))
        assert graph.entities[1].first_token_index is None
        assert graph.entities[0].first_token_index == 0

    def test_null_token_index_allowed(self):
        doc = valid_doc()
        doc["entities"][0]["first_token_index"] = None
        graph = kq.parse_graph_document(as_bytes(doc))
        assert graph.entities[0].first_token_index is None


class TestGraphDocumentErrors:
    def test_not_utf8(self):
        with pytest.raises(kq.MalformedDocumentError, match="UTF-8"):
            kq.parse_graph_document(b"\xff\xfe\x00")

    @pytest.mark.parametrize("wrap", [bytes, bytearray, memoryview])
    @pytest.mark.parametrize(
        "parse", [kq.parse_graph_document, kq.parse_selection_document]
    )
    def test_bytes_like_input_not_utf8(self, parse, wrap):
        with pytest.raises(kq.MalformedDocumentError, match="^not valid UTF-8"):
            parse(wrap(b'{"schema_version": 1, "text": "\xff"}'))

    def test_not_json(self):
        with pytest.raises(kq.MalformedDocumentError, match="JSON"):
            kq.parse_graph_document(b"{not json")

    def test_root_must_be_object(self):
        with pytest.raises(kq.SchemaViolationError, match="root"):
            kq.parse_graph_document(b"[1, 2]")

    @pytest.mark.parametrize(
        "mutate,fragment",
        [
            (lambda d: d.pop("schema_version"), "schema_version"),
            (lambda d: d.update(schema_version=2), "schema_version"),
            (lambda d: d.update(schema_version=True), "schema_version"),
            (lambda d: d.pop("text"), "text"),
            (lambda d: d.update(text=7), "text"),
            (lambda d: d.update(relation_set="r1"), "relation_set"),
            (lambda d: d.update(relation_set=["r1", 2]), "relation_set"),
            (lambda d: d.pop("entities"), "entities"),
            (lambda d: d["entities"].append("x"), "entities"),
            (lambda d: d["entities"][0].pop("id"), "id"),
            (lambda d: d["entities"][0].update(surface=3), "surface"),
            (
                lambda d: d["entities"][0].update(first_token_index=0.5),
                "first_token_index",
            ),
            (
                lambda d: d["entities"][0].update(first_token_index=True),
                "first_token_index",
            ),
            (lambda d: d.pop("candidates"), "candidates"),
            (lambda d: d["candidates"].append([]), "candidates"),
            (lambda d: d["candidates"][0].pop("head"), "head"),
            (lambda d: d["candidates"][0].update(confidences=[0.5]), "confidences"),
            (
                lambda d: d["candidates"][0].update(confidences={"r1": True}),
                "number",
            ),
            (
                lambda d: d["candidates"][0].update(confidences={"r1": "hi"}),
                "number",
            ),
        ],
    )
    def test_schema_violations(self, mutate, fragment):
        doc = valid_doc()
        mutate(doc)
        with pytest.raises(kq.SchemaViolationError, match=fragment):
            kq.parse_graph_document(as_bytes(doc))

    def test_duplicate_confidence_key_rejected(self):
        text = as_bytes(valid_doc()).decode("utf-8").replace(
            '{"r1": 1.0}', '{"r1": 0.2, "r1": 1.0}'
        )
        assert '"r1": 0.2, "r1": 1.0' in text
        with pytest.raises(kq.SchemaViolationError, match="duplicate key 'r1'"):
            kq.parse_graph_document(text)

    def test_duplicate_top_level_key_rejected(self):
        text = '{"text": "a", ' + as_bytes(valid_doc()).decode("utf-8")[1:]
        with pytest.raises(kq.SchemaViolationError, match="duplicate key 'text'"):
            kq.parse_graph_document(text)

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"surface": "b"', '"surface": "Ada\\ud800"'),
            ('"surface": "b"', '"surface": "Ada\\uDC00"'),
            ('"text": "a b c"', '"text": "a \\udfff b c"'),
            ('{"r1": 1.0}', '{"r1\\uD83D": 1.0}'),
        ],
        ids=["high", "low-upper-case", "text", "key"],
    )
    def test_escaped_lone_surrogate_rejected(self, old, new):
        text = as_bytes(valid_doc()).decode("utf-8")
        assert old in text
        with pytest.raises(kq.MalformedDocumentError, match="lone surrogate"):
            kq.parse_graph_document(text.replace(old, new).encode("utf-8"))

    def test_nested_lone_surrogate_is_always_a_structured_error(self):
        for depth in range(sys.getrecursionlimit() + 20):
            with pytest.raises(kq.MalformedDocumentError):
                kq.parse_graph_document("[" * depth + '"\\ud800"' + "]" * depth)

    def test_raw_lone_surrogate_in_str_rejected(self):
        text = as_bytes(valid_doc()).decode("utf-8").replace(
            '"surface": "b"', '"surface": "Ada\ud800"'
        )
        with pytest.raises(kq.MalformedDocumentError, match="UTF-8"):
            kq.parse_graph_document(text)

    @pytest.mark.parametrize("as_str", [False, True], ids=["bytes", "str"])
    def test_escaped_surrogate_pair_and_escaped_backslash_accepted(self, as_str):
        text = as_bytes(valid_doc()).decode("utf-8").replace(
            '"surface": "b"', '"surface": "Ada\\ud83d\\ude00"'
        ).replace('"surface": "c"', '"surface": "c\\\\ud800"')
        graph = kq.parse_graph_document(text if as_str else text.encode("utf-8"))
        assert graph.entity("b").surface == "Ada\U0001F600"
        assert graph.entity("c").surface == "c\\ud800"
        assert kq.parse_graph_document(kq.serialize_graph(graph)) == graph

    def test_lone_surrogate_in_selection_document_rejected(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        text = kq.emit_selection(result, bruce).decode("utf-8")
        text = text.replace('"strategy": "proposed"', '"strategy": "proposed\\ud800"')
        with pytest.raises(kq.MalformedDocumentError, match="lone surrogate"):
            kq.parse_selection_document(text, bruce)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["candidates"][1]["confidences"].update(r2="0.5"),
            lambda d: d["candidates"][0]["confidences"].update(r1=True),
            lambda d: d.update(relation_set=["r1", 2]),
            lambda d: d.update(relation_set=["r1", None]),
            lambda d: d["entities"][0].update(first_token_index=0.5),
            lambda d: d["entities"][0].update(first_token_index=True),
        ],
        ids=["str_confidence", "bool_confidence", "int_label", "null_label",
             "float_token_index", "bool_token_index"],
    )
    def test_document_and_build_graph_raise_alike(self, mutate):
        doc = valid_doc()
        mutate(doc)
        with pytest.raises(kq.KgsqueezeError) as parsed:
            kq.parse_graph_document(as_bytes(doc))
        with pytest.raises(kq.KgsqueezeError) as built:
            kq.build_graph(
                doc["text"],
                doc["relation_set"],
                [kq.Entity(e["id"], e["surface"], e.get("first_token_index"))
                 for e in doc["entities"]],
                [(c["head"], c["tail"], c["confidences"]) for c in doc["candidates"]],
            )
        assert type(parsed.value) is type(built.value) is kq.SchemaViolationError
        assert str(parsed.value) == str(built.value)

    def test_semantic_errors_carry_candidate_index(self):
        doc = valid_doc()
        doc["candidates"][1]["head"] = "ghost"
        with pytest.raises(kq.UnknownEntityError, match="candidate 1"):
            kq.parse_graph_document(as_bytes(doc))

    def test_all_errors_share_one_base(self):
        for exc in (
            kq.MalformedDocumentError,
            kq.SchemaViolationError,
            kq.SelectionMismatchError,
            kq.UnknownEntityError,
            kq.EmptyGraphError,
            kq.MissingSeedError,
            kq.InvalidPhiError,
        ):
            assert issubclass(exc, kq.KgsqueezeError)


class TestSelectionDocuments:
    def test_round_trip_equals_original_result(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        blob = kq.emit_selection(result, bruce)
        parsed = kq.parse_selection_document(blob, bruce)
        assert parsed == result

    def test_emission_is_deterministic(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.4, 9))
        assert kq.emit_selection(result, bruce) == kq.emit_selection(result, bruce)

    def test_parse_without_graph_skips_validation(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.2, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][0]["head"] = "Someone Else"
        kq.parse_selection_document(json.dumps(doc))  # no error
        with pytest.raises(kq.SelectionMismatchError, match="head"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_index_out_of_range(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.2, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][0]["index"] = 99
        with pytest.raises(kq.SelectionMismatchError, match="out of range"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    @pytest.mark.parametrize("with_graph", [True, False],
                             ids=["with graph", "without graph"])
    def test_negative_index_is_schema_violation(self, bruce, with_graph):
        # Read as a position, -1 would be the last quadruple's sentence.
        result = kq.select(bruce, kq.SelectionConfig(0.2, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][-1]["index"] = -1
        last = len(doc["selected"]) - 1
        with pytest.raises(
            kq.SchemaViolationError, match=rf"selected\[{last}\]: field 'index'"
        ):
            kq.parse_selection_document(json.dumps(doc), bruce if with_graph else None)

    def test_entropy_drift_detected(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.2, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][0]["entropy"] += 1e-6
        with pytest.raises(kq.SelectionMismatchError, match="entropy"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_duplicate_or_miscounted_indices(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][1]["index"] = doc["selected"][0]["index"]
        with pytest.raises(kq.SchemaViolationError, match="distinct"):
            kq.parse_selection_document(json.dumps(doc))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["H"] = 99
        with pytest.raises(kq.SchemaViolationError, match="distinct"):
            kq.parse_selection_document(json.dumps(doc))

    def test_duplicate_key_rejected(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.2, 9))
        text = kq.emit_selection(result, bruce).decode("utf-8")
        text = text.replace('"index": 0,', '"index": 5, "index": 0,', 1)
        assert '"index": 5, "index": 0,' in text
        with pytest.raises(kq.SchemaViolationError, match="duplicate key 'index'"):
            kq.parse_selection_document(text)

    @pytest.mark.parametrize("with_graph", [True, False],
                             ids=["with graph", "without graph"])
    def test_unknown_strategy_rejected(self, bruce, with_graph):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["strategy"] = "greedy"
        with pytest.raises(kq.SchemaViolationError, match="strategy"):
            kq.parse_selection_document(json.dumps(doc), bruce if with_graph else None)

    @pytest.mark.parametrize("parse", [kq.parse_graph_document,
                                       kq.parse_selection_document],
                             ids=["graph", "selection"])
    @pytest.mark.parametrize("root", [b"[1, 2]", b"7", b'"doc"', b"null"])
    def test_document_root_must_be_an_object(self, parse, root):
        with pytest.raises(kq.SchemaViolationError,
                           match="^document root must be an object$"):
            parse(root)

    @pytest.mark.parametrize("field", ["K", "SU", "disconnected_fallback"])
    def test_missing_figure_rejected(self, bruce, field):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        del doc[field]
        with pytest.raises(kq.SchemaViolationError,
                           match=f"^selection: missing field '{field}'$"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    @pytest.mark.parametrize("entry", [[0], 0, "x", None], ids=repr)
    def test_selected_entry_must_be_an_object(self, bruce, entry):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][1] = entry
        with pytest.raises(kq.SchemaViolationError,
                           match=r"^selected\[1\] must be an object$"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_fallback_flag_must_be_bool(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["disconnected_fallback"] = "no"
        with pytest.raises(kq.SchemaViolationError, match="disconnected_fallback"):
            kq.parse_selection_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("K", float("nan")),
            ("K", float("inf")),
            pytest.param("K", 10**400, id="K-huge-int"),
            ("K", 0),
            ("K", -0.5),
            ("K", 1.5),
            ("SU", float("nan")),
            ("SU", float("-inf")),
            pytest.param("SU", -(10**400), id="SU-huge-int"),
        ],
    )
    def test_non_finite_or_out_of_range_figures_rejected(self, bruce, field, value):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc[field] = value
        with pytest.raises(kq.SchemaViolationError, match=field):
            kq.parse_selection_document(json.dumps(doc), bruce)

    @pytest.mark.parametrize(
        "entropy", [[1], "0.5", None, True, float("nan")], ids=repr
    )
    def test_non_numeric_entropy_rejected(self, bruce, entropy):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"][0]["entropy"] = entropy
        with pytest.raises(kq.SchemaViolationError, match=r"selected\[0\].*entropy"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_quota_must_match_ratio(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["K"] = 0.1
        kq.parse_selection_document(json.dumps(doc))  # no graph, no check
        with pytest.raises(kq.SelectionMismatchError, match="H 5 does not match"):
            kq.parse_selection_document(json.dumps(doc), bruce)
        doc = json.loads(kq.emit_selection(result, bruce))
        dropped = doc["selected"].pop()
        doc["H"] -= 1
        doc["SU"] -= dropped["entropy"]
        with pytest.raises(kq.SelectionMismatchError, match="H 4 does not match"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    @pytest.mark.parametrize("scale, shift", [(1.0, 5.0), (1.0 + 1e-6, 0.0)])
    def test_uncertainty_must_match_selected_entropies(self, bruce, scale, shift):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["SU"] = doc["SU"] * scale + shift
        kq.parse_selection_document(json.dumps(doc))  # no graph, no check
        with pytest.raises(kq.SelectionMismatchError, match="SU"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_uncertainty_within_tolerance_accepted(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["SU"] += 1e-12
        parsed = kq.parse_selection_document(json.dumps(doc), bruce)
        assert parsed.semantic_uncertainty == doc["SU"]

    def test_seed_survives_round_trip(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9, "random", seed=42))
        parsed = kq.parse_selection_document(kq.emit_selection(result, bruce), bruce)
        assert parsed.seed == 42
        assert parsed.strategy == "random"


class TestSelectionReplay:
    """With a graph, a selection document must be what its header selects."""

    @pytest.mark.parametrize(
        "depth, steps", [(4, 5), (4, -1), (0, 1)], ids=["above", "negative", "zero"]
    )
    def test_relaxation_steps_outside_effective_depth(self, bruce, depth, steps):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["effective_depth"], doc["relaxation_steps"] = depth, steps
        with pytest.raises(kq.SchemaViolationError, match="relaxation_steps"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_random_document_replays(self, hangzhou, seed, depth):
        result = kq.select(hangzhou, kq.SelectionConfig(0.5, depth, "random", seed))
        blob = kq.emit_selection(result, hangzhou)
        assert kq.parse_selection_document(blob, hangzhou) == result
        doc = json.loads(blob)
        doc["seed"] = seed + 1
        with pytest.raises(kq.SelectionMismatchError):
            kq.parse_selection_document(json.dumps(doc), hangzhou)

    def test_random_document_without_seed(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2, "random", 3))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["seed"] = None
        kq.parse_selection_document(json.dumps(doc))  # no graph, no replay
        with pytest.raises(kq.MissingSeedError):
            kq.parse_selection_document(json.dumps(doc), bruce)

    @pytest.mark.parametrize("with_graph", [True, False],
                             ids=["with graph", "without graph"])
    def test_negative_seed_is_schema_violation(self, bruce, with_graph):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2, "random", 3))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["seed"] = -3
        with pytest.raises(kq.SchemaViolationError, match="seed"):
            kq.parse_selection_document(json.dumps(doc), bruce if with_graph else None)

    def test_hand_picked_subset_labelled_proposed_rejected(self, bruce):
        picked = kq.select(bruce, kq.SelectionConfig(0.5, 2, "order_back"))
        assert picked.selected != kq.select(bruce, kq.SelectionConfig(0.5, 2)).selected
        doc = json.loads(kq.emit_selection(picked, bruce))
        doc["strategy"] = "proposed"
        with pytest.raises(kq.SelectionMismatchError, match="index"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_reordered_entries_rejected(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["selected"].reverse()
        with pytest.raises(kq.SelectionMismatchError, match="index"):
            kq.parse_selection_document(json.dumps(doc), bruce)

    def test_extra_and_missing_entry_fields(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        doc = json.loads(kq.emit_selection(result, bruce))
        for item in doc["selected"]:
            del item["head"], item["top_probability"]
            item["note"] = "kept"
        assert kq.parse_selection_document(json.dumps(doc), bruce) == result

    @pytest.mark.parametrize(
        "n, field, value",
        [
            (0, "entropy", False),
            (0, "top_probability", True),
            (1, "entropy", True),
        ],
    )
    def test_bool_for_an_equal_real_rejected(self, n, field, value):
        # Entry 0 is one-hot (entropy 0.0, top 1.0), entry 1 an even split
        # (entropy 1.0): == alone would take False for 0.0 and True for 1.0.
        graph = kq.parse_graph_document(as_bytes(valid_doc()))
        result = kq.select(graph, kq.SelectionConfig(1.0, 9))
        doc = json.loads(kq.emit_selection(result, graph))
        assert doc["selected"][n][field] == value
        doc["selected"][n][field] = value
        message = f"'{field}' must be a number"
        with pytest.raises(kq.SchemaViolationError, match=message):
            kq.parse_selection_document(json.dumps(doc), graph)


# Strings that could pass for layout: a newline, a quote, a backslash,
# non-ASCII, and an element boundary of a list of objects.
_TRICKY = st.sampled_from(
    ["\n", '"', "\\", "é", "漢字 \U0001f600", "},\n  {", "],\n    [", "null", "\t\x00", ""]
)
_STRINGS = st.one_of(st.text(max_size=8), st.lists(_TRICKY, max_size=3).map("".join))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**80), max_value=10**80),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, 0.1]),
    st.floats(),
    _STRINGS,
)
_FLAT_OBJECTS = st.dictionaries(_STRINGS, _SCALARS, max_size=4)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(_STRINGS, children, max_size=4),
        st.lists(st.one_of(_FLAT_OBJECTS, _SCALARS), max_size=5),
    ),
    max_leaves=30,
)


class TestJsonLayout:
    @settings(max_examples=400, deadline=None)
    @given(_JSON)
    def test_matches_the_stdlib_indent_encoder(self, value):
        assert _json_bytes(value) == stdlib_layout(value)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            [{}, [], {"a": {}}, [[]]],
            [{"a": 1}, {"b": "},\n    {"}, {}, 2, [{"c": [1, {"d": None}]}]],
            {"x": [1, [2, [3, []]]], "y": {"z": {"w": -0.0}}},
            (1, ("a", {"k": (True,)})),
        ],
        ids=["empty_object", "empty_list", "empties", "mixed_list", "deep", "tuples"],
    )
    def test_edge_shapes_match_the_stdlib(self, value):
        assert _json_bytes(value) == stdlib_layout(value)

    def test_large_graph_and_selection_match_the_stdlib(self):
        rng = np.random.default_rng(14)
        labels = tuple(f"relation {i:02d}" for i in range(12)) + ('said "é"',)
        entities = [kq.Entity(f"e{i}", f"Entité {i}", i) for i in range(150)]
        candidates = []
        for _ in range(1200):
            head, tail = rng.choice(len(entities), size=2, replace=False)
            candidates.append((f"e{head}", f"e{tail}", random_confidences(rng, labels)))
        graph = kq.build_graph(
            " ".join(e.surface for e in entities), labels, entities, candidates
        )
        result = kq.select(graph, kq.SelectionConfig(0.9, 3))
        assert len(result.selected) >= 1000
        for data in (kq.serialize_graph(graph), kq.emit_selection(result, graph)):
            assert data == stdlib_layout(json.loads(data))
        assert kq.parse_graph_document(kq.serialize_graph(graph)) == graph


class TestSweepTable:
    def row(self, **overrides):
        base = dict(
            K=0.1, strategy="proposed", SU=1.0, SS=2.0, A=1.0, C=1.0,
            theta=0.5, H=1, effective_depth=2, runs_averaged=1,
        )
        base.update(overrides)
        return kq.SweepRow(**base)

    def test_header_and_terminator(self):
        table = kq.emit_sweep_table([self.row()])
        assert table.startswith(
            b"K,strategy,SU,SS,A,C,theta,H,effective_depth,runs_averaged\n"
        )
        assert table.endswith(b"\n")
        assert b"\r" not in table

    def test_rows_sorted_by_strategy_then_ratio(self):
        rows = [
            self.row(K=0.2, strategy="random", runs_averaged=100),
            self.row(K=0.1, strategy="random", runs_averaged=100),
            self.row(K=0.2, strategy="proposed"),
            self.row(K=0.1, strategy="proposed"),
        ]
        lines = kq.emit_sweep_table(rows).decode().splitlines()
        leads = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert leads == [
            ("0.1", "proposed"),
            ("0.2", "proposed"),
            ("0.1", "random"),
            ("0.2", "random"),
        ]

    def test_nine_significant_digits(self):
        table = kq.emit_sweep_table(
            [self.row(SU=3.9297256920095949, SS=1 / 3, A=2 / 3)]
        ).decode()
        fields = table.splitlines()[1].split(",")
        assert fields[2] == "3.92972569"
        assert fields[3] == "0.333333333"
        assert fields[4] == "0.666666667"

    def test_integer_columns_stay_integers(self):
        fields = (
            kq.emit_sweep_table([self.row(H=7, effective_depth=3, runs_averaged=100)])
            .decode()
            .splitlines()[1]
            .split(",")
        )
        assert fields[7:] == ["7", "3", "100"]

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            kq.emit_sweep_table([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            kq.emit_sweep_table([self.row(SU=float("nan"))])


class TestRunRecords:
    def test_header_order_and_figures(self):
        records = [
            kq.RunRecord(0.2, 0, 17, 3.9297256920095949, 1 / 3, 2 / 3, 1.0, 0.5),
            kq.RunRecord(0.1, 1, 2**63, 1.0, 0.0, 0.25, 0.125, 1e-12),
        ]
        assert emit_run_records(records) == (
            b"K,run_index,seed,SU,SS,A,C,theta\n"
            b"0.2,0,17,3.92972569,0.333333333,0.666666667,1,0.5\n"
            b"0.1,1,9223372036854775808,1,0,0.25,0.125,1e-12\n"
        )

    def test_no_records_is_header_only(self):
        assert emit_run_records([]) == b"K,run_index,seed,SU,SS,A,C,theta\n"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            emit_run_records([kq.RunRecord(0.1, 0, 1, float("nan"), 0, 0, 0, 0)])
