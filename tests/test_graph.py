"""Graph construction and entropy scoring."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.graph import SUM_TOLERANCE_BAND, SUM_WARN_TOLERANCE

from conftest import random_confidences


def entropy_oracle(probabilities) -> float:
    """High-precision reference: 50-digit decimal arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in probabilities:
            if p > 0.0:
                mp = mpmath.mpf(p)
                total -= mp * mpmath.log(mp) / mpmath.log(2)
        return float(total)


def two_entities():
    return [kq.Entity("a", "a", 0), kq.Entity("b", "b", 1)]


def tiny_graph(confidences, labels=("r1", "r2", "r3")):
    return kq.build_graph(
        "a b", labels, two_entities(), [("a", "b", confidences)]
    )


class TestRelationEntropy:
    def test_uniform_is_log2_of_size(self):
        dist = kq.RelationDistribution(
            tuple(f"r{i}" for i in range(16)), (1.0 / 16,) * 16
        )
        assert kq.relation_entropy(dist) == 4.0

    def test_one_hot_is_zero_and_positive_signed(self):
        dist = kq.RelationDistribution(("r1", "r2"), (1.0, 0.0))
        value = kq.relation_entropy(dist)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    def test_known_three_way_split(self):
        dist = kq.RelationDistribution(("r1", "r2", "r3"), (0.7, 0.2, 0.1))
        assert kq.relation_entropy(dist) == pytest.approx(
            1.1567796494470394, abs=1e-15
        )

    def test_matches_oracle_on_random_distributions(self):
        rng = np.random.default_rng(42)
        labels = tuple(f"r{i}" for i in range(12))
        for _ in range(300):
            conf = random_confidences(rng, labels)
            got = tiny_graph(conf, labels).quadruples[0].entropy
            assert got == pytest.approx(entropy_oracle(conf.values()), abs=1e-12)

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

    def test_entity_lookup(self, bruce):
        assert bruce.entity("bruce_lee").surface == "Bruce Lee"
        with pytest.raises(kq.UnknownEntityError):
            bruce.entity("nobody")


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
    from conftest import random_graph

    g = random_graph(np.random.default_rng(seed))
    for q in g.quadruples:
        assert 0.0 <= q.entropy <= math.log2(len(g.relation_set)) + 1e-12
        assert q.top_probability == max(q.distribution.confidences)
