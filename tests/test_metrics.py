"""Occurrence counting, verbalization, and the similarity score."""

from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsqueeze as kq

from conftest import random_graph


def make_result(selected):
    """Hand-built selection for metric tests that bypass the selector."""
    return kq.SelectionResult(
        selected=tuple(selected),
        quota=len(selected),
        effective_depth=0,
        semantic_uncertainty=0.0,
        relaxation_steps=0,
        disconnected_fallback=False,
        ratio=1.0,
        strategy="proposed",
        seed=None,
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


#: Texts and surfaces over a tiny alphabet, so overlaps, substrings,
#: case differences and whitespace runs come up often.
SCORING_TEXT = st.text(alphabet="aAb \t\n", max_size=30)
SCORING_SURFACE = st.text(alphabet="aAb \t\n", min_size=1, max_size=6).filter(
    lambda surface: surface.split()
)


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
                kq.count_occurrences(text, e.surface, case_insensitive),
                kq.count_occurrences(recovered, e.surface, case_insensitive),
            )
            for e in entities
        }
        assert report.entity_counts == expected


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
    def test_swapping_texts_swaps_the_two_ratios(self):
        text_a = "alpha beta alpha gamma"
        text_b = "beta beta gamma"
        surfaces = ["alpha", "beta", "gamma"]
        candidates = [
            ("alpha", "beta", {"r1": 1.0}),
            ("beta", "gamma", {"r2": 1.0}),
        ]
        g_a = word_graph(text_a, surfaces, candidates)
        g_b = word_graph(text_b, surfaces, candidates)
        r = make_result([0, 1])
        assert kq.accuracy(g_a, r, text_b) == kq.completeness(g_b, r, text_a)
        assert kq.completeness(g_a, r, text_b) == kq.accuracy(g_b, r, text_a)

    def test_identical_text_gives_unity(self, bruce):
        r = make_result(range(len(bruce.quadruples)))
        assert kq.accuracy(bruce, r, bruce.text) == 1.0
        assert kq.completeness(bruce, r, bruce.text) == 1.0

    def test_only_selected_entities_count(self):
        # quad 0 alone: gamma's absence from the recovered text is invisible
        g = word_graph(
            "alpha beta gamma",
            ["alpha", "beta", "gamma"],
            [("alpha", "beta", {"r1": 1.0}), ("beta", "gamma", {"r2": 1.0})],
        )
        assert kq.accuracy(g, make_result([0]), "alpha beta") == 1.0
        assert kq.completeness(g, make_result([0]), "alpha beta") == 1.0

    def test_zero_denominators_give_zero(self):
        g = word_graph(
            "alpha beta",
            ["alpha", "beta"],
            [("alpha", "beta", {"r1": 1.0})],
        )
        r = make_result([0])
        assert kq.accuracy(g, r, "nothing relevant") == 0.0
        report = kq.similarity(g, r, "nothing relevant")
        assert report.similarity == 0.0
        empty = make_result([])
        assert kq.accuracy(g, empty, "alpha") == 0.0
        assert kq.completeness(g, empty, "alpha") == 0.0

    def test_partial_overlap_fractions(self):
        g = word_graph(
            "alpha alpha beta",
            ["alpha", "beta"],
            [("alpha", "beta", {"r1": 1.0})],
        )
        r = make_result([0])
        recovered = "alpha beta beta beta"
        # shared: min(2,1) + min(1,3) = 2; recovered total 4; original 3
        assert kq.accuracy(g, r, recovered) == 2 / 4
        assert kq.completeness(g, r, recovered) == 2 / 3


class TestSimilarity:
    def test_phi_limits(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9))
        recovered = kq.verbalize(r, bruce)
        at_zero = kq.similarity(bruce, r, recovered, phi=0.0)
        at_one = kq.similarity(bruce, r, recovered, phi=1.0)
        assert abs(at_zero.similarity - at_zero.theta * at_zero.accuracy) <= 1e-12
        assert abs(at_one.similarity - at_one.theta * at_one.completeness) <= 1e-12

    def test_equal_ratios_collapse_the_weighting(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.3, 9))
        recovered = bruce.text
        for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
            report = kq.similarity(bruce, r, recovered, phi=phi)
            assert report.accuracy == report.completeness == 1.0
            assert abs(report.similarity - report.theta) <= 1e-12

    def test_one_hot_graph_scores_the_quota(self):
        g = word_graph(
            "alpha beta gamma",
            ["alpha", "beta", "gamma"],
            [
                ("alpha", "beta", {"r1": 1.0}),
                ("beta", "gamma", {"r2": 1.0}),
            ],
        )
        r = kq.select(g, kq.SelectionConfig(1.0, 2))
        recovered = "alpha beta gamma"
        report = kq.similarity(g, r, recovered)
        assert report.accuracy == report.completeness == 1.0
        assert report.theta == float(r.quota)
        assert report.similarity == float(r.quota)
        assert report.semantic_uncertainty == 0.0

    def test_phi_validation(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9))
        for phi in (-0.1, 1.0000001, float("nan")):
            with pytest.raises(kq.InvalidPhiError):
                kq.similarity(bruce, r, "text", phi=phi)

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

    def test_semantic_uncertainty_matches_helper(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.7, 9))
        assert kq.semantic_uncertainty(r, bruce) == fsum(
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
