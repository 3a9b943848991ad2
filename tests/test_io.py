"""Document parsing, emission, and the sweep CSV shape."""

import json

import pytest

import kgsqueeze as kq
from kgsqueeze.io import emit_run_records

from conftest import FIXTURE_DIR


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

    def test_unknown_strategy_rejected(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        doc = json.loads(kq.emit_selection(result, bruce))
        doc["strategy"] = "greedy"
        with pytest.raises(kq.SchemaViolationError, match="strategy"):
            kq.parse_selection_document(json.dumps(doc))

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
