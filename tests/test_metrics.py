"""Occurrence counting, verbalization, and the similarity score."""

import dataclasses
import random
from collections import Counter
from fractions import Fraction
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze import metrics

from conftest import (
    FIXTURE_DIR, SCORING_SURFACE, SCORING_TEXT, make_result, random_graph, scanned,
)


def word_graph(text, surfaces, candidates, labels=("r1", "r2")):
    entities = [kq.Entity(s, s, None) for s in surfaces]
    return kq.build_graph(text, labels, entities, candidates)


class TestCountOccurrences:
    def test_plain_count(self):
        assert kq.count_occurrences("a b a c a", "a") == 3

    def test_non_overlapping(self):
        assert kq.count_occurrences("aaa", "aa") == 1

    def test_whitespace_normalized_both_sides(self):
        assert kq.count_occurrences("Bruce\t Lee  and\nBruce Lee", "Bruce   Lee") == 2

    def test_case_sensitivity_toggle(self):
        assert kq.count_occurrences("Lee lee LEE", "lee") == 1
        assert kq.count_occurrences("Lee lee LEE", "lee", case_insensitive=True) == 3

    def test_empty_surface_rejected(self):
        with pytest.raises(ValueError):
            kq.count_occurrences("anything", "")

    def test_absent_surface(self):
        assert kq.count_occurrences("x y z", "w") == 0

    @pytest.mark.parametrize("surface", [" ", "  ", "\t\n", "\u2003"])
    def test_whitespace_only_surface_rejected(self, surface):
        with pytest.raises(ValueError):
            kq.count_occurrences("a b c", surface, case_insensitive=True)


class TestOccurrenceTable:
    @settings(max_examples=300, deadline=None)
    @given(
        text=SCORING_TEXT,
        recovered=SCORING_TEXT,
        surfaces=st.lists(SCORING_SURFACE, min_size=2, max_size=5),
        case_insensitive=st.booleans(),
    )
    @example(text="aaa a", recovered="aa\taaa", surfaces=["aa", "a"],
             case_insensitive=False)
    @example(text="A\ta  a\nAA", recovered="a a  A\tA", surfaces=["a a", "A", "aA"],
             case_insensitive=True)
    def test_counts_match_reference(self, text, recovered, surfaces, case_insensitive):
        entities = [kq.Entity(f"e{i}", s) for i, s in enumerate(surfaces)]
        candidates = [
            (f"e{i}", f"e{i + 1}", {"r1": 1.0}) for i in range(len(surfaces) - 1)
        ]
        graph = kq.build_graph(text, ("r1", "r2"), entities, candidates)
        result = make_result(range(len(candidates)))
        report = kq.similarity(
            graph, result, recovered, case_insensitive=case_insensitive
        )
        expected = {
            e.id: (
                scanned(text, e.surface, case_insensitive),
                scanned(recovered, e.surface, case_insensitive),
            )
            for e in entities
        }
        assert report.entity_counts == expected


#: Surfaces and relation labels with dots, spaces, tabs and casefold
#: expansions, so surfaces nest in each other and in labels, straddle the
#: spaces around a label and fold together.
VERBALIZED_SURFACE = st.text(alphabet="ab. \tßSİ", min_size=1, max_size=6).filter(
    lambda surface: surface.split()
)
VERBALIZED_LABEL = st.text(alphabet="ab. ßSİ", min_size=1, max_size=5).filter(
    lambda label: label == label.strip()
)


class TestVerbalizedCounts:
    """With no text given, plain surfaces are counted by incidence and the
    counts equal an independent scan of the verbalization; the
    verbalization given as a text, and it plus a newline, is scanned as
    any text is, with the same report."""

    @settings(max_examples=300, deadline=None)
    @given(
        surfaces=st.lists(VERBALIZED_SURFACE, min_size=2, max_size=5),
        labels=st.lists(VERBALIZED_LABEL, min_size=2, max_size=3, unique=True),
        edges=st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(0, 2)),
            min_size=1, max_size=6,
        ),
    )
    @example(surfaces=["Chu Kochen", "1890.3.7", "St. Louis"],
             labels=["born on", "visited"], edges=[(0, 0, 0), (0, 1, 1)])
    @example(surfaces=["Lee", "Bruce Lee", "of"], labels=["teacher of", "son"],
             edges=[(1, 0, 0), (0, 0, 1), (2, 0, 0)])
    @example(surfaces=["Ip Man", "Bruce Lee", "Man teacher", "of Bruce"],
             labels=["teacher of", "student"], edges=[(0, 0, 0), (2, 0, 1)])
    @example(surfaces=["x", "y", "x ab", "bc y"], labels=["abc", "d"],
             edges=[(0, 0, 0), (2, 2, 1), (3, 0, 1)])
    @example(surfaces=["p", "q", "p r q"], labels=["r", "s"],
             edges=[(0, 0, 0), (2, 0, 1)])
    @example(surfaces=["Hangzhou", "Hangzhou", "Zhejiang"],
             labels=["capital", "sight"], edges=[(0, 1, 0), (1, 0, 1)])
    @example(surfaces=["Chu Kochen", "1890 \t"], labels=["born on", "x"],
             edges=[(0, 0, 0)])
    @example(surfaces=["Straße", "STRASSE", "İstanbul", "i\u0307stanbul"],
             labels=["ß", "SS"], edges=[(0, 0, 0), (2, 0, 1)])
    @example(surfaces=["aa", "b", "a a", "aaa"], labels=["a", "aa"],
             edges=[(0, 0, 0), (2, 0, 1), (3, 0, 0)])
    def test_counts_match_a_scan_of_the_verbalization(self, surfaces, labels, edges):
        entities = [kq.Entity(f"e{i}", s) for i, s in enumerate(surfaces)]
        n = len(surfaces)
        candidates = []
        for head, step, label in edges:  # the tail is never the head
            head %= n
            tail = (head + 1 + step % (n - 1)) % n
            candidates.append((f"e{head}", f"e{tail}", {labels[label % len(labels)]: 1.0}))
        graph = kq.build_graph("", labels, entities, candidates)
        result = make_result(range(len(candidates)))
        verbalized = kq.verbalize(result, graph)
        for case_insensitive in (False, True):
            counted, *given = (
                kq.similarity(graph, result, text, 0.5, case_insensitive)
                for text in (None, verbalized, verbalized + "\n")
            )
            assert counted.entity_counts == {
                e: (0, scanned(verbalized, graph.entity(e).surface, case_insensitive))
                for c in candidates for e in c[:2]
            }
            assert given == [counted, counted]


class TestVerbalize:
    def test_sentence_shape(self, hangzhou):
        text = kq.verbalize(make_result([3]), hangzhou)
        assert text == "Chu Kochen born on 1890.3.7."

    def test_selection_order_preserved(self, hangzhou):
        text = kq.verbalize(make_result([7, 0]), hangzhou)
        assert text == (
            "Hangzhou provincial capital Zhejiang. West Lake sight Hangzhou."
        )

    def test_empty_selection_is_empty_text(self, hangzhou):
        assert kq.verbalize(make_result([]), hangzhou) == ""

    def test_uses_top_relation_of_each_quadruple(self, bruce):
        text = kq.verbalize(make_result([0]), bruce)
        assert text == "Ip Man teacher of Bruce Lee."


class TestAccuracyCompleteness:
    def test_identical_text_gives_unity(self, bruce):
        r = make_result(range(len(bruce.quadruples)))
        assert kq.similarity(bruce, r, bruce.text).accuracy == 1.0
        assert kq.similarity(bruce, r, bruce.text).completeness == 1.0

    def test_only_selected_entities_count(self):
        # quad 0 alone: gamma's absence from the recovered text is invisible
        g = word_graph(
            "alpha beta gamma",
            ["alpha", "beta", "gamma"],
            [("alpha", "beta", {"r1": 1.0}), ("beta", "gamma", {"r2": 1.0})],
        )
        assert kq.similarity(g, make_result([0]), "alpha beta").accuracy == 1.0
        assert kq.similarity(g, make_result([0]), "alpha beta").completeness == 1.0

    def test_zero_denominators_give_zero(self):
        g = word_graph(
            "alpha beta",
            ["alpha", "beta"],
            [("alpha", "beta", {"r1": 1.0})],
        )
        r = make_result([0])
        assert kq.similarity(g, r, "nothing relevant").accuracy == 0.0
        report = kq.similarity(g, r, "nothing relevant")
        assert report.similarity == 0.0
        empty = make_result([])
        assert kq.similarity(g, empty, "alpha").accuracy == 0.0
        assert kq.similarity(g, empty, "alpha").completeness == 0.0

    def test_partial_overlap_fractions(self):
        g = word_graph(
            "alpha alpha beta",
            ["alpha", "beta"],
            [("alpha", "beta", {"r1": 1.0})],
        )
        r = make_result([0])
        recovered = "alpha beta beta beta"
        # shared: min(2,1) + min(1,3) = 2; recovered total 4; original 3
        assert kq.similarity(g, r, recovered).accuracy == 2 / 4
        assert kq.similarity(g, r, recovered).completeness == 2 / 3


class TestSimilarity:
    def test_equal_ratios_collapse_the_weighting(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        recovered = bruce.text
        for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
            report = kq.similarity(bruce, r, recovered, phi=phi)
            assert report.accuracy == report.completeness == 1.0
            assert abs(report.similarity - report.theta) <= 1e-12

    def test_phi_validation(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9))
        for phi in (-0.1, 1.0000001, float("nan")):
            with pytest.raises(kq.InvalidPhiError):
                kq.similarity(bruce, r, "text", phi=phi)

    @pytest.mark.parametrize("phi", ["0.5", True, None, Fraction(1, 2)])
    def test_phi_of_another_type_is_invalid(self, bruce, phi):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9))
        with pytest.raises(kq.InvalidPhiError, match="phi must be a number"):
            kq.similarity(bruce, r, kq.verbalize(r, bruce), phi=phi)

    def test_int_phi_is_accepted(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9))
        recovered = kq.verbalize(r, bruce)
        assert (kq.similarity(bruce, r, recovered, phi=1).similarity
                == kq.similarity(bruce, r, recovered, phi=1.0).similarity)

    def test_report_carries_the_occurrence_table(self, hangzhou):
        r = make_result([3])
        report = kq.similarity(hangzhou, r, "Chu Kochen Chu Kochen")
        assert report.entity_counts == {
            "chu_kochen": (1, 2),
            "birth_date": (1, 0),
        }
        assert report.phi == 0.5

    def test_theta_is_summed_top_probability(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9))
        report = kq.similarity(bruce, r, bruce.text)
        expected = fsum(
            bruce.quadruples[i].top_probability for i in r.selected
        )
        assert report.theta == expected

    def test_semantic_uncertainty_is_summed_entropy(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.7, 9))
        report = kq.similarity(bruce, r, bruce.text)
        assert report.semantic_uncertainty == fsum(
            bruce.quadruples[i].entropy for i in r.selected
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_ratios_and_score_stay_bounded(self, seed, phi):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, max_entities=8, max_quadruples=10)
        r = kq.select(
            g, kq.SelectionConfig(float(rng.uniform(0.1, 1.0)), 3)
        )
        report = kq.similarity(g, r, kq.verbalize(r, g), phi=phi)
        assert 0.0 <= report.accuracy <= 1.0
        assert 0.0 <= report.completeness <= 1.0
        assert 0.0 <= report.theta <= len(r.selected) + 1e-9
        assert report.similarity >= 0.0


def fresh_fixture(name):
    """A graph object no other test has filled caches on."""
    return kq.parse_graph_document((FIXTURE_DIR / f"{name}.json").read_bytes())


class TestScoringCaches:
    """Sentences and original-text counts are kept per graph object."""

    def test_original_text_normalized_once_per_graph_and_case_mode(self, monkeypatch):
        calls = Counter()
        original = metrics._normalize

        def counted(text, case_insensitive):
            calls[text, case_insensitive] += 1
            return original(text, case_insensitive)

        monkeypatch.setattr(metrics, "_normalize", counted)
        graph = fresh_fixture("bruce")
        kq.run_sweep(graph, runs=3, seed=1)
        assert calls[graph.text, False] == 1 and calls[graph.text, True] == 0
        endpoints = {x for q in graph.quadruples for x in (q.head, q.tail)}
        for entity_id in endpoints:  # K = 1.0 selects every quadruple
            assert calls[graph.entity(entity_id).surface, False] == 1
        result = kq.select(graph, kq.SelectionConfig(0.5, 2))
        for _ in range(2):
            kq.similarity(graph, result, "Bruce Lee", case_insensitive=True)
        assert calls[graph.text, False] == 1 and calls[graph.text, True] == 1
        kq.run_sweep(fresh_fixture("bruce"), runs=3, seed=1)
        assert calls[graph.text, False] == 2

    def test_verbalization_is_normalized_only_for_a_surface_not_plain(
        self, monkeypatch
    ):
        calls = Counter()
        original = metrics._normalize

        def counted(text, case_insensitive):
            calls[text, case_insensitive] += 1
            return original(text, case_insensitive)

        monkeypatch.setattr(metrics, "_normalize", counted)
        graph = fresh_fixture("bruce")  # every surface is plain
        kq.run_sweep(graph, runs=3, seed=1)
        per_graph = {graph.text, *graph.relation_set}
        per_graph |= {e.surface for e in graph.entities}
        assert {text for text, _ in calls} <= per_graph
        result = kq.select(graph, kq.SelectionConfig(1.0, 2))
        verbalized = kq.verbalize(result, graph)
        kq.similarity(graph, result, None, case_insensitive=True)
        assert calls[verbalized, False] == calls[verbalized, True] == 0

        graph = fresh_fixture("hangzhou")
        result = make_result([3])
        verbalized = kq.verbalize(result, graph)
        assert verbalized == "Chu Kochen born on 1890.3.7."
        for scorings in (1, 2):
            report = kq.similarity(graph, result, None)
            assert calls[verbalized, False] == scorings
        assert report.entity_counts == {"chu_kochen": (1, 1), "birth_date": (1, 1)}
        records = graph.__dict__["_scoring_facts"][False][5]
        assert {entity_id: plain for entity_id, (_, _, plain) in records.items()} == {
            "chu_kochen": True,
            "birth_date": False,
        }

    def test_caches_fill_one_entry_at_a_time(self):
        graph = fresh_fixture("hangzhou")
        result = make_result([3])
        assert kq.verbalize(result, graph) == "Chu Kochen born on 1890.3.7."
        assert graph.__dict__["_sentences"] == {3: "Chu Kochen born on 1890.3.7."}
        assert "_scoring_facts" not in graph.__dict__
        kq.similarity(graph, result, "Chu Kochen")
        modes = graph.__dict__["_scoring_facts"]
        assert list(modes) == [False]
        # (surface, count in the original, plain): plainness is decided
        # only when a verbalization is scored.
        assert modes[False][5] == {
            "chu_kochen": ("Chu Kochen", 1, None),
            "birth_date": ("1890.3.7", 1, None),
        }
        kq.similarity(graph, result, None)
        assert modes[False][5] == {
            "chu_kochen": ("Chu Kochen", 1, True),
            "birth_date": ("1890.3.7", 1, False),
        }
        assert graph.__dict__["_sentences"] == {3: "Chu Kochen born on 1890.3.7."}

    def test_a_given_text_is_scanned_without_rendering_a_sentence(self, monkeypatch):
        # Even a text equal to the verbalization, on a graph that has
        # rendered its sentences, is only scanned.
        graph = fresh_fixture("bruce")
        results = [kq.select(graph, kq.SelectionConfig(k, 2)) for k in (0.1, 0.5, 1.0)]
        texts = [kq.verbalize(result, graph) for result in results]
        calls = []
        render = metrics._sentence
        monkeypatch.setattr(
            metrics, "_sentence", lambda *args: calls.append(args) or render(*args)
        )
        for result, text in zip(results, texts):
            assert kq.verbalize(result, graph) == text
            kq.similarity(graph, result, text)
            kq.similarity(graph, result, text + " ", case_insensitive=True)
        assert calls == []

    def test_entity_counts_is_a_fresh_dict(self):
        graph = fresh_fixture("hangzhou")
        first = kq.similarity(graph, make_result([3]), "Chu Kochen")
        first.entity_counts["chu_kochen"] = (99, 99)
        first.entity_counts["nobody"] = (1, 1)
        second = kq.similarity(graph, make_result([3]), "Chu Kochen")
        assert second.entity_counts == {"chu_kochen": (1, 1), "birth_date": (1, 0)}
        assert second.entity_counts is not first.entity_counts


class TestSelectedIndexRange:
    """A selection parsed without a graph can hold an index past its end."""

    def test_index_past_the_graph_is_a_selection_mismatch(self, bruce):
        import json

        result = kq.select(bruce, kq.SelectionConfig(0.2, 9))
        document = json.loads(kq.emit_selection(result, bruce))
        document["selected"][-1]["index"] = 99
        parsed = kq.parse_selection_document(json.dumps(document).encode())
        assert parsed.selected == (0, 99)
        message = "selected index 99 out of range for a graph of 10 quadruples"
        with pytest.raises(kq.SelectionMismatchError) as raised:
            kq.verbalize(parsed, bruce)
        assert str(raised.value) == message
        for text in ("", bruce.text):
            with pytest.raises(kq.SelectionMismatchError) as raised:
                kq.similarity(bruce, parsed, text)
            assert str(raised.value) == message
        with pytest.raises(kq.SelectionMismatchError) as raised:
            kq.parse_selection_document(json.dumps(document).encode(), bruce)
        assert str(raised.value) == message
        with pytest.raises(kq.SelectionMismatchError) as raised:
            kq.emit_selection(parsed, bruce)
        assert str(raised.value) == message

    def test_negative_index_is_a_selection_mismatch(self, bruce):
        # A hand-built result; a negative index used to read from the end.
        result = dataclasses.replace(
            kq.select(bruce, kq.SelectionConfig(0.2, 2)), selected=(0, -1)
        )
        message = "selected index -1 out of range for a graph of 10 quadruples"
        with pytest.raises(kq.SelectionMismatchError) as raised:
            kq.verbalize(result, bruce)
        assert str(raised.value) == message
        for text in (None, "", bruce.text):
            with pytest.raises(kq.SelectionMismatchError) as raised:
                kq.similarity(bruce, result, text)
            assert str(raised.value) == message
        with pytest.raises(kq.SelectionMismatchError) as raised:
            kq.emit_selection(result, bruce)
        assert str(raised.value) == message


class TestRecoveredTextType:
    @pytest.mark.parametrize("text", [5, b"Bruce Lee", ["Bruce Lee"]])
    def test_a_text_that_is_not_a_str_is_a_type_error(self, text):
        graph = fresh_fixture("bruce")
        result = kq.select(graph, kq.SelectionConfig(0.5, 2))
        with pytest.raises(TypeError) as raised:
            kq.similarity(graph, result, text)
        assert str(raised.value) == (
            f"recovered_text must be a str or None, got {type(text).__name__}"
        )
        assert "_scoring_facts" not in graph.__dict__  # refused before any work


class TestTally:
    """Extending the scoring core by a suffix gives what one pass over the
    whole sequence gives, and what ``similarity`` reports."""

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["bruce", "hangzhou"]),
        order=st.randoms(use_true_random=False),
        size=st.integers(0, 10),
        cuts=st.lists(st.integers(0, 10), max_size=3),
        text=st.sampled_from([None, "original", "verbalized+newline"]),
        case_insensitive=st.booleans(),
        phi=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    )
    # Hangzhou: "Zhejiang" lies inside "Zhejiang University"; "1890.3.7" is dotted.
    @example(name="hangzhou", order=random.Random(0), size=8, cuts=[2, 5],
             text=None, case_insensitive=False, phi=0.5)
    def test_a_suffix_extends_the_whole(
        self, name, order, size, cuts, text, case_insensitive, phi
    ):
        graph = fresh_fixture(name)
        selected = list(range(len(graph.heads)))
        order.shuffle(selected)
        selected = tuple(selected[:size])
        verbalized = kq.verbalize(make_result(selected), graph)
        recovered = {
            None: None, "original": graph.text, "verbalized+newline": verbalized + "\n"
        }[text]
        whole = metrics._Tally(graph, case_insensitive, recovered)
        whole.extend(selected)
        pieces = metrics._Tally(graph, case_insensitive, recovered)
        start = 0
        for cut in sorted(min(cut, len(selected)) for cut in cuts) + [len(selected)]:
            pieces.extend(selected[start:cut])
            start = cut
        assert pieces.selected == whole.selected == selected
        assert list(pieces.incidence.items()) == list(whole.incidence.items())
        assert pieces.read(phi) == whole.read(phi)
        acc, comp, theta, score, counts = pieces.read(phi)
        report = kq.similarity(
            graph, make_result(selected), recovered, phi, case_insensitive
        )
        assert (report.accuracy, report.completeness, report.theta, report.similarity) == (
            acc, comp, theta, score
        )
        assert list(report.entity_counts) == list(pieces.incidence)
        # The verbalization counted by incidence equals it scanned.
        scanned = kq.similarity(
            graph, make_result(selected), verbalized + "\n", phi, case_insensitive
        )
        if recovered is None:
            assert list(report.entity_counts.items()) == list(
                scanned.entity_counts.items()
            )
            assert report == scanned
