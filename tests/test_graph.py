"""Graph construction and entropy scoring."""

import dataclasses
import itertools
import math
import pickle
import random
from collections import Counter
from functools import partial
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.graph import SUM_TOLERANCE_BAND, SUM_WARN_TOLERANCE

from conftest import (
    SCORING_SURFACE, SCORING_TEXT, entropy_oracle, make_result, random_graph,
)


def two_entities():
    return [kq.Entity("a", "a", 0), kq.Entity("b", "b", 1)]


def tiny_graph(confidences, labels=("r1", "r2", "r3")):
    return kq.build_graph(
        "a b", labels, two_entities(), [("a", "b", confidences)]
    )


class TestRelationEntropy:
    @given(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=16
        )
    )
    def test_bounds_and_permutation_invariance(self, raw):
        total = math.fsum(raw)
        probs = tuple(v / total for v in raw)
        labels = tuple(f"r{i}" for i in range(len(probs)))
        h = kq.relation_entropy(kq.RelationDistribution(labels, probs))
        assert 0.0 <= h <= math.log2(len(probs)) + 1e-12
        reordered = kq.RelationDistribution(labels, probs[::-1])
        assert kq.relation_entropy(reordered) == h


class TestTopRelation:
    def test_argmax_with_tie_broken_by_relation_order(self):
        dist = kq.RelationDistribution(("r1", "r2", "r3"), (0.4, 0.4, 0.2))
        assert dist.top() == ("r1", 0.4)

    def test_plain_argmax(self):
        dist = kq.RelationDistribution(("r1", "r2"), (0.3, 0.7))
        assert dist.top() == ("r2", 0.7)

    def test_quadruple_carries_top_fields(self):
        g = tiny_graph({"r1": 0.2, "r2": 0.5, "r3": 0.3})
        q = g.quadruples[0]
        assert q.top_relation == "r2"
        assert q.top_probability == 0.5


class TestBuildGraph:
    def test_missing_labels_are_implicit_zeros(self):
        g = tiny_graph({"r2": 1.0})
        conf = dict(zip(g.relation_set, g.quadruples[0].distribution.confidences))
        assert conf == {"r1": 0.0, "r2": 1.0, "r3": 0.0}

    def test_normalized_input_is_untouched(self):
        g = tiny_graph({"r1": 0.7, "r2": 0.2, "r3": 0.1})
        assert g.quadruples[0].distribution.confidences == (0.7, 0.2, 0.1)
        assert g.warnings == ()

    def test_within_band_sum_renormalizes_with_warning(self):
        g = tiny_graph({"r1": 0.5, "r2": 0.4, "r3": 0.05})
        conf = g.quadruples[0].distribution.confidences
        assert math.fsum(conf) == pytest.approx(1.0, abs=1e-12)
        assert conf[0] == pytest.approx(0.5 / 0.95)
        assert len(g.warnings) == 1 and "candidate 0" in g.warnings[0]

    def test_sum_outside_band_is_rejected(self):
        for bad_sum in (0.5, 1.5):
            with pytest.raises(kq.BadDistributionError):
                tiny_graph({"r1": bad_sum})

    def test_band_constants(self):
        assert SUM_TOLERANCE_BAND == (0.9, 1.1)
        assert SUM_WARN_TOLERANCE == 1e-6

    def test_negative_nan_and_above_one_rejected(self):
        for bad in (-0.1, float("nan"), 1.2):
            with pytest.raises(kq.BadDistributionError):
                tiny_graph({"r1": bad, "r2": 1.0 - bad if bad == bad else 0.0})

    @pytest.mark.parametrize("huge", [10**400, -(10**400)], ids=["plus", "minus"])
    def test_integer_beyond_float_range_rejected(self, huge):
        with pytest.raises(kq.BadDistributionError, match="outside"):
            tiny_graph({"r1": huge})

    @pytest.mark.parametrize(
        "confidences",
        [{"r1": "0.5", "r2": "0.5"}, {"r1": True}, {"r1": 0.5, "r2": False},
         {"r1": None}, {"r1": [1.0]}],
        ids=["str", "true", "false", "none", "list"],
    )
    def test_confidence_must_be_a_number(self, confidences):
        label = next(k for k, v in confidences.items() if type(v) is not float)
        with pytest.raises(
            kq.SchemaViolationError,
            match=f"candidate 0: confidence for '{label}' must be a number",
        ):
            tiny_graph(confidences)

    @pytest.mark.parametrize("confidences", [None, [0.5], 0.5, "r1"], ids=repr)
    def test_confidences_must_be_a_mapping(self, confidences):
        with pytest.raises(
            kq.SchemaViolationError,
            match=f"^candidate 0: confidences must be a mapping, "
                  f"got {type(confidences).__name__}$",
        ):
            tiny_graph(confidences)

    def test_unknown_labels_of_mixed_types_rejected(self):
        with pytest.raises(
            kq.BadDistributionError,
            match=r"unknown relation label\(s\) \[1, 'x'\]$",
        ):
            tiny_graph({"r1": 0.5, 1: 0.25, "x": 0.25})

    def test_unknown_label_beats_a_non_number(self):
        with pytest.raises(
            kq.BadDistributionError, match=r"unknown relation label\(s\) \['nope'\]$"
        ):
            tiny_graph({"r1": "0.5", "nope": 0.5})

    @pytest.mark.parametrize(
        "given, plain",
        [
            ({"r1": 1, "r2": 0}, {"r1": 1.0, "r2": 0.0}),
            ({"r3": 0.05, "r1": 1}, {"r1": 1.0, "r3": 0.05}),
            (MappingProxyType({"r2": 0.25, "r1": 0.75}), {"r1": 0.75, "r2": 0.25}),
            (MappingProxyType({"r1": 0.5, "r2": 0.45}), {"r1": 0.5, "r2": 0.45}),
        ],
        ids=["int", "int_renormalized", "mapping_proxy", "mapping_proxy_renormalized"],
    )
    def test_int_and_mapping_give_the_same_distribution(self, given, plain):
        got, want = tiny_graph(given), tiny_graph(plain)
        assert got.quadruples == want.quadruples
        assert got.warnings == want.warnings

    def test_sum_within_1e_12_keeps_its_bits(self):
        values = {"r1": 0.5, "r2": 0.5 + 2**-44}
        assert 0 < math.fsum(values.values()) - 1.0 <= 1e-12
        g = tiny_graph(values)
        assert g.quadruples[0].distribution.confidences == (0.5, 0.5 + 2**-44, 0.0)
        assert g.warnings == ()

    @pytest.mark.parametrize(
        "second, warnings",
        [(0.5 + 1e-9, ()), (0.45, ("candidate 0: confidences sum to 0.95, renormalized",))],
        ids=["silent", "warned"],
    )
    def test_sum_further_off_is_renormalized(self, second, warnings):
        g = tiny_graph({"r1": 0.5, "r2": second})
        total = math.fsum((0.5, second))
        assert g.quadruples[0].distribution.confidences == (0.5 / total, second / total, 0.0)
        assert g.warnings == warnings

    def test_int_confidence_accepted(self):
        assert tiny_graph({"r1": 1, "r2": 0}).quadruples[0].top_probability == 1.0

    @pytest.mark.parametrize(
        "text, labels, entities, field",
        [
            ("a\ud800 b", ("r1", "r2"), None, "text"),
            ("a b", ("r1", "r\udfff"), None, r"relation_set\[1\]"),
            ("a b", ("r1", "r2"), [kq.Entity("a\udc00", "a")], r"entities\[0\]\.id"),
            ("a b", ("r1", "r2"), [kq.Entity("a", "Ada\ud800")], r"entities\[0\]\.surface"),
        ],
        ids=["text", "relation_label", "entity_id", "entity_surface"],
    )
    def test_lone_surrogate_rejected(self, text, labels, entities, field):
        entities = (entities or [kq.Entity("a", "a")]) + [kq.Entity("b", "b")]
        with pytest.raises(
            kq.MalformedDocumentError,
            match=f"^{field} is not valid UTF-8: it holds the lone surrogate",
        ):
            kq.build_graph(text, labels, entities, [("a", "b", {"r1": 1.0})])

    @pytest.mark.parametrize(
        "text, entity, message",
        [
            (None, kq.Entity("a", "a"), "text must be a str, got NoneType"),
            ("a b", kq.Entity(7, "a"), r"entities\[0\]\.id must be a str, got int"),
            ("a b", kq.Entity("a", 7), r"entities\[0\]\.surface must be a str, got int"),
            ("a b", kq.Entity("a", "a", 0.0),
             r"entities\[0\]\.first_token_index must be an int, got float"),
            ("a b", kq.Entity("a", "a", True),
             r"entities\[0\]\.first_token_index must be an int, got bool"),
        ],
        ids=["none_text", "int_id", "int_surface", "float_token_index",
             "bool_token_index"],
    )
    def test_field_of_the_wrong_type_rejected(self, text, entity, message):
        with pytest.raises(kq.SchemaViolationError, match=f"^{message}$"):
            kq.build_graph(
                text, ("r1", "r2"), [entity, kq.Entity("b", "b")],
                [(entity.id, "b", {"r1": 1.0})],
            )

    @pytest.mark.parametrize(
        "part, value, message",
        [
            ("relation_set", "r1r2", "relation_set must be a sequence, got str"),
            ("relation_set", None, "relation_set must be a sequence, got NoneType"),
            # A set's order follows the hash seed, and label ties follow order.
            ("relation_set", {"r1", "r2"}, "relation_set must be a sequence, got set"),
            ("relation_set", frozenset({"r1", "r2"}),
             "relation_set must be a sequence, got frozenset"),
            ("entities", None, "entities must be a sequence, got NoneType"),
            ("entities", "ab", "entities must be a sequence, got str"),
            ("entities", set(two_entities()), "entities must be a sequence, got set"),
            ("entities", [{"id": "a", "surface": "a"}, kq.Entity("b", "b")],
             r"entities\[0\] must be an Entity, got dict"),
            ("candidates", None, "candidates must be a sequence, got NoneType"),
            ("candidates", [("a", "b")],
             r"candidates\[0\] must be a \(head, tail, confidences\) triple, "
             r"got tuple of length 2"),
            ("candidates", ["abc"],
             r"candidates\[0\] must be a \(head, tail, confidences\) triple, "
             r"got str of length 3"),
        ],
        ids=["str_relation_set", "none_relation_set", "set_relation_set",
             "frozenset_relation_set", "none_entities", "str_entities", "set_entities",
             "dict_entity", "none_candidates", "two_tuple_candidate", "str_candidate"],
    )
    def test_container_of_the_wrong_kind_rejected(self, part, value, message):
        args = {
            "relation_set": ("r1", "r2"),
            "entities": two_entities(),
            "candidates": [("a", "b", {"r1": 1.0})],
        }
        args[part] = value
        with pytest.raises(kq.SchemaViolationError, match=f"^{message}$"):
            kq.build_graph(
                "a b", args["relation_set"], args["entities"], args["candidates"]
            )

    def test_list_candidate_and_generator_containers_accepted(self):
        g = kq.build_graph(
            "a b", (label for label in ("r1", "r2")), iter(two_entities()),
            [["a", "b", {"r1": 1.0}]],
        )
        assert g == tiny_graph({"r1": 1.0}, labels=("r1", "r2"))

    def test_astral_character_builds_and_serializes(self):
        g = kq.build_graph(
            "Ada \U0001f600 b", ("r1", "r2\U0001f600"),
            [kq.Entity("a", "Ada \U0001f600"), kq.Entity("b", "b")],
            [("a", "b", {"r1": 1.0})],
        )
        assert kq.parse_graph_document(kq.serialize_graph(g)) == g
        result = kq.select(g, kq.SelectionConfig(1.0, 1))
        assert kq.emit_selection(result, g).decode("utf-8")

    def test_unknown_relation_label_rejected(self):
        with pytest.raises(kq.BadDistributionError):
            tiny_graph({"r1": 0.5, "nope": 0.5})

    def test_all_zero_distribution_rejected(self):
        with pytest.raises(kq.BadDistributionError):
            tiny_graph({"r1": 0.0, "r2": 0.0})

    def test_unknown_endpoints_rejected(self):
        with pytest.raises(kq.UnknownEntityError, match="candidate 0"):
            kq.build_graph(
                "a b", ("r1", "r2"), two_entities(), [("a", "zzz", {"r1": 1.0})]
            )

    def test_self_loop_rejected(self):
        with pytest.raises(kq.SelfLoopError):
            kq.build_graph(
                "a b", ("r1", "r2"), two_entities(), [("a", "a", {"r1": 1.0})]
            )

    def test_empty_candidates_rejected(self):
        with pytest.raises(kq.EmptyGraphError):
            kq.build_graph("a b", ("r1", "r2"), two_entities(), [])

    def test_relation_set_needs_two_distinct_labels(self):
        for labels in (("r1",), ("r1", "r1"), ("r1", " pad "), ("r1", "")):
            with pytest.raises(kq.BadDistributionError):
                kq.build_graph(
                    "a b", labels, two_entities(), [("a", "b", {"r1": 1.0})]
                )
        with pytest.raises(
            kq.SchemaViolationError, match=r"^relation_set\[1\] must be a str, got int$"
        ):
            kq.build_graph(
                "a b", ("r1", 2), two_entities(), [("a", "b", {"r1": 1.0})]
            )

    @pytest.mark.parametrize("role", ["head", "tail"])
    @pytest.mark.parametrize("value", [["a"], 7, None], ids=repr)
    def test_endpoint_must_be_a_str(self, role, value):
        head, tail = (value, "b") if role == "head" else ("a", value)
        with pytest.raises(
            kq.SchemaViolationError,
            match=f"^candidate 0: {role} must be a str, got {type(value).__name__}$",
        ):
            kq.build_graph(
                "a b", ("r1", "r2"), two_entities(), [(head, tail, {"r1": 1.0})]
            )

    def test_duplicate_entity_ids_rejected(self):
        entities = [kq.Entity("a", "a", 0), kq.Entity("a", "a2", 1)]
        with pytest.raises(kq.UnknownEntityError):
            kq.build_graph("a", ("r1", "r2"), entities, [("a", "a2", {"r1": 1.0})])

    @pytest.mark.parametrize("surface", ["", " ", "  ", "\t\n"])
    def test_blank_surface_rejected(self, surface):
        entities = [kq.Entity("a", surface, 0), kq.Entity("b", "b", 1)]
        with pytest.raises(kq.UnknownEntityError, match="empty surface"):
            kq.build_graph("a b", ("r1", "r2"), entities, [("a", "b", {"r1": 1.0})])

    def test_negative_token_index_rejected(self):
        entities = [kq.Entity("a", "a", -1), kq.Entity("b", "b", 0)]
        with pytest.raises(kq.UnknownEntityError):
            kq.build_graph("a b", ("r1", "r2"), entities, [("a", "b", {"r1": 1.0})])

    def test_parallel_edges_and_both_directions_allowed(self):
        g = kq.build_graph(
            "a b",
            ("r1", "r2"),
            two_entities(),
            [
                ("a", "b", {"r1": 1.0}),
                ("a", "b", {"r2": 1.0}),
                ("b", "a", {"r1": 0.5, "r2": 0.5}),
            ],
        )
        assert len(g.quadruples) == 3

    def test_occurrence_counts_span_both_slots(self, hangzhou):
        counts = hangzhou.occurrence_counts()
        assert counts["hangzhou"] == 5
        assert counts["chu_kochen"] == 3
        assert counts["west_lake"] == 1

    def test_occurrence_counts_are_a_fresh_copy(self, hangzhou):
        before = list(hangzhou.occurrence_counts().items())
        counts = hangzhou.occurrence_counts()
        counts["hangzhou"] += 10
        counts["nobody"] = 1
        assert list(hangzhou.occurrence_counts().items()) == before

    def test_entity_lookup(self, bruce):
        assert bruce.entity("bruce_lee").surface == "Bruce Lee"
        with pytest.raises(kq.UnknownEntityError):
            bruce.entity("nobody")


    def test_entity_index_stays_outside_equality_hash_and_pickle(self, bruce):
        config = kq.SelectionConfig(0.5, 2, "entity_freq_desc")
        bruce.entity("bruce_lee")
        result = kq.select(bruce, config)
        text = kq.verbalize(result, bruce)
        for case_insensitive in (False, True):
            kq.similarity(bruce, result, text, case_insensitive=case_insensitive)
        fresh = kq.parse_graph_document(kq.serialize_graph(bruce))
        caches = (
            "_by_id", "_selection_facts", "_orderings", "_sentences", "_scoring_facts"
        )
        for cache in caches:
            assert cache in bruce.__dict__ and cache not in fresh.__dict__
        assert fresh == bruce and hash(fresh) == hash(bruce)
        again = pickle.loads(pickle.dumps(bruce))
        assert again == bruce
        for cache in ("_orderings", "_sentences", "_scoring_facts"):
            assert again.__dict__[cache] == bruce.__dict__[cache]
        assert again.entity("bruce_lee") == bruce.entity("bruce_lee")
        assert kq.select(again, config) == kq.select(fresh, config)
        assert kq.verbalize(result, again) == kq.verbalize(result, fresh) == text
        for case_insensitive in (False, True):
            assert kq.similarity(
                again, result, text, case_insensitive=case_insensitive
            ) == kq.similarity(fresh, result, text, case_insensitive=case_insensitive)

    def test_each_derived_fact_is_built_once_per_graph_and_key(self, bruce, monkeypatch):
        from kgsqueeze import graph as graph_module, metrics, selection

        builds = Counter()
        derived = graph_module._derived

        def counted(graph, name, build, *key):
            def counted_build(*args):
                builds[id(graph), name, key] += 1
                return build(*args)

            return derived(graph, name, counted_build, *key)

        for module in (graph_module, selection, metrics):
            monkeypatch.setattr(module, "_derived", counted)
        rendered = Counter()
        render = metrics._sentence

        def counted_render(graph, i):
            rendered[id(graph), i] += 1
            return render(graph, i)

        monkeypatch.setattr(metrics, "_sentence", counted_render)
        graph = kq.parse_graph_document(kq.serialize_graph(bruce))
        kq.run_sweep(graph, runs=3, seed=1)
        result = kq.select(graph, kq.SelectionConfig(1.0, 2))
        for case_insensitive in (False, True):
            for text in (kq.verbalize(result, graph), graph.text):
                kq.similarity(graph, result, text, case_insensitive=case_insensitive)
        for e in graph.entities:
            assert graph.entity(e.id) is e
        orderings = [("_orderings", (s,)) for s in kq.STRATEGIES if s != "random"]
        assert {(name, key) for _, name, key in builds} == {
            ("_by_id", ()), ("_endpoint_counts", ()), ("_selection_facts", ()),
            *orderings, ("_sentences", ()),
            ("_scoring_facts", (False,)), ("_scoring_facts", (True,)),
        }
        assert set(builds.values()) == {1}
        assert set(rendered.values()) == {1}
        assert len(rendered) == len(graph.heads)
        fields = {field.name for field in dataclasses.fields(graph)}
        assert set(graph.__dict__) - fields == {
            "_by_id", "_endpoint_counts", "_selection_facts",
            "_orderings", "_sentences", "_scoring_facts",
        }


def selection_calls(seed):
    """A random graph, often disconnected, and one ``select`` for each
    quota, depth up to two past the deepest, and strategy."""
    graph = random_graph(np.random.default_rng(seed))
    total = len(graph.quadruples)
    deepest = kq.all_distances(graph, kq.select_initial_node(graph)).max_finite()
    configs = [
        kq.SelectionConfig(target / total, max_depth, strategy, seed)
        for target in range(1, total + 1)
        for max_depth in range(deepest + 3)
        for strategy in kq.STRATEGIES
    ]
    return graph, [(partial(kq.select, config=config),) for config in configs]


def scoring_calls(text, surfaces, selections, recovered):
    """A chain of overlapping, nested and case-variant surfaces with
    whitespace runs, linked both ways, and for each selection its
    verbalization and its scorings of each recovered text and of none, at
    three phis in both case modes, and of the verbalization given as a
    text.  Scoring no text also equals scanning the verbalization."""
    entities = [kq.Entity(f"e{i}", s) for i, s in enumerate(surfaces)]
    pairs = [(f"e{i}", f"e{i + 1}") for i in range(len(surfaces) - 1)]
    candidates = [(h, t, {"r1": 1.0}) for h, t in pairs]
    candidates += [(t, h, {"r2": 0.75, "r1": 0.25}) for h, t in pairs]
    graph = kq.build_graph(text, ("r1", "r2"), entities, candidates)
    calls = []
    for selected in selections:
        result = make_result(dict.fromkeys(i % len(candidates) for i in selected))
        calls.append((partial(kq.verbalize, result),))
        for given, phi, case_insensitive in itertools.product(
            [*recovered, None], (0.0, 0.3, 1.0), (False, True)
        ):
            score = partial(kq.similarity, result=result, phi=phi,
                            case_insensitive=case_insensitive)
            if given is not None:
                calls.append((partial(score, recovered_text=given),))
                continue

            def scan(graph, score=score, result=result):
                return score(graph, recovered_text=kq.verbalize(result, graph))

            calls += [(score, scan), (scan,)]
    return graph, calls


class TestDerivedFacts:
    """Every derived fact is a function of the graph alone (see the ``graph``
    module): calls on one graph object, in any order, give what they give
    on a fresh copy."""

    @pytest.mark.parametrize(
        "build, drawn, examples, fixed",
        [
            (selection_calls, [st.integers(0, 2**32 - 1)], 20, []),
            (
                scoring_calls,
                [
                    SCORING_TEXT,
                    st.lists(SCORING_SURFACE, min_size=2, max_size=5),
                    st.lists(st.lists(st.integers(0, 9), max_size=5),
                             min_size=1, max_size=3),
                    st.lists(SCORING_TEXT, min_size=1, max_size=2),
                ],
                150,
                [("aA a\ta  A a b", ["a", "A", "a a", "a\t\ta", "aA"],
                  [[0, 1], [3, 2, 5]], ["A\n a aa"])],
            ),
        ],
        ids=["select", "score"],
    )
    def test_calls_on_one_graph_match_fresh_graphs(self, build, drawn, examples, fixed):
        @settings(max_examples=examples, deadline=None)
        @given(st.builds(build, *drawn), st.randoms(use_true_random=False))
        def check(scenario, shuffler):
            graph, calls = scenario
            shuffler.shuffle(calls)
            for call, *equivalents in calls:
                fresh = dataclasses.replace(graph)
                got = call(graph)
                for expected in (call, *equivalents):
                    assert got == expected(fresh)

        for args in fixed:
            check = example(build(*args), random.Random(0))(check)
        check()


class TestFixtureEntropies:
    def test_bruce_entropy_column_is_frozen(self, bruce):
        expected = [
            0.44489320718807207,
            0.58781840100118476,
            0.78598809373351231,
            0.9695284352154897,
            1.1414975548713362,
            1.3037572101579367,
            1.4575510032792742,
            1.6037593748197108,
            1.7430298109639781,
            1.875850208824974,
        ]
        got = [q.entropy for q in bruce.quadruples]
        assert got == expected

    def test_hangzhou_entropy_column_is_frozen(self, hangzhou):
        expected = [
            0.85847073649915995,
            0.56609065303474804,
            0.99176014818097347,
            0.1943918578315762,
            1.076297625725199,
            0.74758467982457388,
            0.64694511608550276,
            0.40217919020227277,
        ]
        got = [q.entropy for q in hangzhou.quadruples]
        assert got == expected

    def test_entropy_matches_oracle_on_fixtures(self, bruce, hangzhou):
        for g in (bruce, hangzhou):
            for q in g.quadruples:
                assert q.entropy == pytest.approx(
                    entropy_oracle(q.distribution.confidences), abs=1e-12
                )


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_graphs_build_and_score(seed):
    g = random_graph(np.random.default_rng(seed))
    for q in g.quadruples:
        assert 0.0 <= q.entropy <= math.log2(len(g.relation_set)) + 1e-12
        assert q.top_probability == max(q.distribution.confidences)
