"""Quota arithmetic, eligibility, strategies, and the channel budget."""

from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import fsum, isinf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze import selection

from conftest import (
    FIXTURE_DIR, bfs_distances, central_concept, endpoint_slots, random_graph,
    within_depth,
)


def chain_graph(entropy_spec, labels=("r1", "r2")):
    """Path e0-e1-e2-... with quadruple i carrying the given confidences."""
    n = len(entropy_spec) + 1
    entities = [kq.Entity(f"e{i}", f"e{i}", i) for i in range(n)]
    candidates = [
        (f"e{i}", f"e{i+1}", conf) for i, conf in enumerate(entropy_spec)
    ]
    return kq.build_graph(
        " ".join(f"e{i}" for i in range(n)), labels, entities, candidates
    )


def hop_by_hop_relaxation(graph, distances, target, max_depth):
    """Reference relaxation: rescan eligibility one depth at a time, over
    ``bfs_distances`` from the central concept.

    Returns (pool, effective depth, disconnected fallback fired).
    """
    deepest = max(d for d in distances.values() if not isinf(d))
    depth = max_depth
    pool = within_depth(graph, distances, depth)
    while len(pool) < target and depth < deepest:
        depth += 1
        pool = within_depth(graph, distances, depth)
    fallback = len(pool) < target
    if fallback:
        stranded = [i for i in range(len(graph.quadruples)) if i not in pool]
        stranded.sort(key=lambda i: (graph.quadruples[i].entropy, i))
        pool = pool + stranded
    return pool, depth, fallback


def reference_pick(graph, pool, target, config):
    """Reference pick: each strategy's rule applied to the pool itself,
    with numpy's generator for ``random``."""
    strategy = config.strategy
    if strategy == "random":
        chosen = np.random.default_rng(config.seed).choice(len(pool), target, False)
        return sorted(pool[i] for i in chosen.tolist())
    if strategy == "order_front":
        return pool[:target]
    if strategy == "order_back":
        return pool[len(pool) - target :][::-1]
    if strategy == "proposed":
        return sorted(pool, key=lambda i: (graph.quadruples[i].entropy, i))[:target]
    counts = endpoint_slots(graph)
    sign = -1 if strategy == "entity_freq_desc" else 1
    quads = graph.quadruples
    return sorted(
        pool, key=lambda i: (sign * (counts[quads[i].head] + counts[quads[i].tail]), i)
    )[:target]


class TestQuota:
    @pytest.mark.parametrize(
        "ratio,total,expected",
        [
            (0.5, 10, 5),
            (0.45, 10, 5),   # 4.5 rounds half up
            (0.44, 10, 4),
            (1.0, 7, 7),
            (0.01, 10, 1),   # floor would give 0; clamp to 1
            (0.06, 10, 1),
            (0.15, 10, 2),
            (1.0, 1, 1),
        ],
    )
    def test_rounding_and_clamping(self, ratio, total, expected):
        assert kq.quota(ratio, total) == expected

    def test_empty_graph_rejected(self):
        with pytest.raises(kq.EmptyGraphError):
            kq.quota(0.5, 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            kq.SelectionConfig(0.0, 2)
        with pytest.raises(ValueError):
            kq.SelectionConfig(1.1, 2)
        with pytest.raises(ValueError):
            kq.SelectionConfig(0.5, -1)
        with pytest.raises(ValueError):
            kq.SelectionConfig(0.5, 2, "nope")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            kq.SelectionConfig(0.5, 2, "random", -1)
        assert kq.SelectionConfig(0.5, 2, "random", 0).seed == 0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.5, 1.5), "max_depth must be a non-negative int"),
            ((0.5, np.int64(2)), "max_depth must be a non-negative int"),
            ((0.5, True), "max_depth must be a non-negative int"),
            ((True, 2), "ratio must be a number"),
            ((Fraction(1, 2), 2), "ratio must be a number"),
            ((Decimal("0.5"), 2), "ratio must be a number"),
            (("0.5", 2), "ratio must be a number"),
            ((0.5, 2, "random", 1.5), "seed must be an int"),
            ((0.5, 2, "random", True), "seed must be an int"),
            ((0.5, 2, "random", np.int64(7)), "seed must be an int"),
        ],
        ids=["float-depth", "numpy-depth", "bool-depth", "bool-ratio",
             "fraction-ratio", "decimal-ratio", "str-ratio",
             "float-seed", "bool-seed", "numpy-seed"],
    )
    def test_types_a_selection_document_cannot_carry_are_rejected(
        self, args, message
    ):
        with pytest.raises(ValueError, match=message):
            kq.SelectionConfig(*args)

    def test_int_ratio_round_trips(self, bruce):
        result = kq.select(bruce, kq.SelectionConfig(1, 2))
        document = kq.emit_selection(result, bruce)
        assert kq.parse_selection_document(document, bruce) == result

    def test_float_subclass_ratio_round_trips(self, bruce):
        class Ratio(float):
            pass

        result = kq.select(bruce, kq.SelectionConfig(Ratio(0.5), 2))
        document = kq.emit_selection(result, bruce)
        assert kq.parse_selection_document(document, bruce) == result


class TestEligibility:
    def test_depth_one_is_incident_set(self, hangzhou):
        d = kq.all_distances(hangzhou, "hangzhou")
        assert kq.eligible(hangzhou, d, 1) == [0, 1, 5, 6, 7]

    def test_depth_zero_is_empty_on_fixture(self, hangzhou):
        d = kq.all_distances(hangzhou, "hangzhou")
        assert kq.eligible(hangzhou, d, 0) == []

    def test_unreachable_never_eligible(self):
        g = chain_graph([{"r1": 1.0}])
        extra = kq.build_graph(
            "e0 e1 x y",
            ("r1", "r2"),
            list(g.entities)
            + [kq.Entity("x", "x", 2), kq.Entity("y", "y", 3)],
            [("e0", "e1", {"r1": 1.0}), ("x", "y", {"r2": 1.0})],
        )
        d = kq.all_distances(extra, "e0")
        assert kq.eligible(extra, d, 99) == [0]


class TestRelaxation:
    def test_depth_relaxes_until_quota_met(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 2))
        assert r.quota == 5
        assert r.effective_depth == 4
        assert r.relaxation_steps == 2
        assert not r.disconnected_fallback
        assert r.selected == (0, 1, 2, 3, 4)

    def test_no_relaxation_when_pool_is_large_enough(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.3, 2))
        assert r.effective_depth == 2
        assert r.relaxation_steps == 0
        assert r.selected == (0, 1, 2)

    def test_depth_zero_relaxes_to_one(self, hangzhou):
        r = kq.select(hangzhou, kq.SelectionConfig(0.1, 0))
        assert r.quota == 1
        assert r.effective_depth == 1
        assert r.relaxation_steps == 1
        # the lowest-entropy quadruple incident to the centre
        assert r.selected == (7,)

    def test_disconnected_fallback_flags_and_fills(self):
        g = kq.build_graph(
            "e0 e1 e2 x y",
            ("r1", "r2"),
            [kq.Entity(n, n, i) for i, n in enumerate(["e0", "e1", "e2", "x", "y"])],
            [
                ("e0", "e1", {"r1": 1.0}),
                ("e1", "e2", {"r1": 0.5, "r2": 0.5}),
                ("x", "y", {"r1": 0.9, "r2": 0.1}),
            ],
        )
        full = kq.select(g, kq.SelectionConfig(1.0, 1))
        assert full.disconnected_fallback
        assert set(full.selected) == {0, 1, 2}
        partial = kq.select(g, kq.SelectionConfig(0.67, 1))
        assert partial.quota == 2
        assert not partial.disconnected_fallback
        assert set(partial.selected) == {0, 1}

    def test_fallback_orders_stranded_by_entropy(self):
        g = kq.build_graph(
            "e0 e1 x y w z",
            ("r1", "r2"),
            [kq.Entity(n, n, i)
             for i, n in enumerate(["e0", "e1", "x", "y", "w", "z"])],
            [
                ("e0", "e1", {"r1": 1.0}),
                ("x", "y", {"r1": 0.5, "r2": 0.5}),   # 1 bit
                ("w", "z", {"r1": 0.9, "r2": 0.1}),   # less than 1 bit
            ],
        )
        r = kq.select(g, kq.SelectionConfig(0.67, 1))
        assert r.disconnected_fallback
        # the reachable quadruple, then the lower-entropy stranded one
        assert r.selected == (0, 2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_hop_by_hop_relaxation(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)  # often disconnected
        distances = bfs_distances(g, central_concept(g))
        deepest = max(d for d in distances.values() if not isinf(d))
        total = len(g.quadruples)
        for target in range(1, total + 1):
            ratio = target / total
            assert kq.quota(ratio, total) == target
            for max_depth in range(deepest + 3):
                pool, depth, fallback = hop_by_hop_relaxation(
                    g, distances, target, max_depth
                )
                for strategy in kq.STRATEGIES:
                    config = kq.SelectionConfig(ratio, max_depth, strategy, seed)
                    r = kq.select(g, config)
                    assert r.selected == tuple(reference_pick(g, pool, target, config))
                    assert r.effective_depth == depth
                    assert r.relaxation_steps == depth - max_depth
                    assert r.disconnected_fallback == fallback


class TestGraphFacts:
    """Selection's per-graph facts are built once per graph object and reused."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()
        for name in ("all_distances", "select_initial_node"):
            def counted(*args, _name=name, _original=getattr(selection, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(selection, name, counted)
        return counts

    @staticmethod
    def fresh_bruce():
        return kq.parse_graph_document((FIXTURE_DIR / "bruce.json").read_bytes())

    def test_one_distance_pass_per_sweep(self, calls):
        kq.run_sweep(self.fresh_bruce(), runs=3, seed=1)
        assert calls == {"all_distances": 1, "select_initial_node": 1}

    def test_replay_reuses_the_facts_of_the_same_graph(self, calls):
        graph = self.fresh_bruce()
        config = kq.SelectionConfig(0.5, 2, "random", 7)
        document = kq.emit_selection(kq.select(graph, config), graph)
        kq.parse_selection_document(document, graph)
        assert calls == {"all_distances": 1, "select_initial_node": 1}
        kq.parse_selection_document(document, self.fresh_bruce())
        assert calls == {"all_distances": 2, "select_initial_node": 2}

    def test_endpoint_slots_counted_once_per_sweep(self, monkeypatch):
        graphs = []
        original = kq.ProbabilityGraph.occurrence_counts

        def counted(graph):
            graphs.append(graph)
            return original(graph)

        monkeypatch.setattr(kq.ProbabilityGraph, "occurrence_counts", counted)
        kq.run_sweep(self.fresh_bruce(), runs=3, seed=1)
        assert len(graphs) == 1

    def test_facts_are_frozen_tuples(self, hangzhou):
        kq.select(hangzhou, kq.SelectionConfig(0.5, 1))
        reach, sorted_reach, deepest = hangzhou.__dict__["_selection_facts"]
        assert type(hangzhou.__dict__["_selection_facts"]) is tuple
        assert type(reach) is tuple and type(sorted_reach) is tuple
        assert sorted_reach == tuple(sorted(reach))
        assert type(deepest) is int


class TestOrderings:
    """Each deterministic strategy keeps one ordering per graph object."""

    @staticmethod
    def cache_sizes(graph):
        return {
            name: len(value) if isinstance(value, dict) else None
            for name, value in graph.__dict__.items()
        }

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_caches_do_not_grow_with_depths_or_quotas(self, seed):
        g = random_graph(np.random.default_rng(seed))  # often disconnected
        total = len(g.heads)
        deepest = kq.all_distances(g, kq.select_initial_node(g)).max_finite()
        kq.select(g, kq.SelectionConfig(1.0, 0))
        sizes = self.cache_sizes(g)
        for target in range(1, total + 1):
            for max_depth in range(deepest + 3):
                for strategy in kq.STRATEGIES:
                    ratio = target / total
                    kq.select(g, kq.SelectionConfig(ratio, max_depth, strategy, seed))
        orderings = g.__dict__["_orderings"]
        assert set(orderings) == set(kq.STRATEGIES) - {"random"}
        for order in orderings.values():
            assert sorted(order) == list(range(total))
        sizes["_orderings"] = len(orderings)
        assert self.cache_sizes(g) == sizes

    def test_one_shot_select_builds_only_its_own_ordering(self, monkeypatch, tmp_path):
        from kgsqueeze import cli

        graphs = []

        def parsed(document):
            graphs.append(cli_parse(document))
            return graphs[-1]

        cli_parse = cli.parse_graph_document
        monkeypatch.setattr(cli, "parse_graph_document", parsed)
        argv = ["select", "--input", str(FIXTURE_DIR / "hangzhou.json"),
                "--k", "0.5", "--depth", "1", "--output", str(tmp_path / "s.json")]
        assert cli.main(argv) == 0
        assert cli.main([*argv, "--strategy", "order_back"]) == 0
        first, second = graphs
        assert list(first.__dict__["_orderings"]) == ["proposed"]
        assert list(second.__dict__["_orderings"]) == ["order_back"]


class TestStrategies:
    def test_proposed_takes_smallest_entropies(self, hangzhou):
        r = kq.select(hangzhou, kq.SelectionConfig(0.25, 3))
        # two smallest entropies overall: quads 3 (0.194) and 7 (0.402)
        assert r.selected == (3, 7)
        assert r.semantic_uncertainty == fsum(
            hangzhou.quadruples[i].entropy for i in (3, 7)
        )

    def test_entropy_tie_breaks_on_input_order(self):
        g = chain_graph([{"r1": 1.0}, {"r2": 1.0}, {"r1": 0.5, "r2": 0.5}])
        r = kq.select(g, kq.SelectionConfig(0.34, 99))
        assert r.selected == (0,)

    def test_random_requires_seed(self, bruce):
        with pytest.raises(kq.MissingSeedError):
            kq.select(bruce, kq.SelectionConfig(0.5, 9, "random"))

    def test_random_is_reproducible_and_uniformish(self, bruce):
        cfg = kq.SelectionConfig(0.3, 9, "random", seed=11)
        first = kq.select(bruce, cfg)
        second = kq.select(bruce, cfg)
        assert first.selected == second.selected
        other = kq.select(bruce, kq.SelectionConfig(0.3, 9, "random", seed=12))
        seen = {
            kq.select(
                bruce, kq.SelectionConfig(0.3, 9, "random", seed=s)
            ).selected
            for s in range(40)
        }
        assert len(seen) > 10
        assert other.quota == 3

    def test_graph_without_quadruples_rejected(self):
        graph = kq.ProbabilityGraph("a b", ("r1", "r2"), (kq.Entity("a", "a"),), ())
        with pytest.raises(kq.EmptyGraphError, match="cannot select from an empty graph"):
            kq.select(graph, kq.SelectionConfig(0.5, 2))

    def test_random_indices_come_back_sorted(self, bruce):
        r = kq.select(bruce, kq.SelectionConfig(0.5, 9, "random", seed=3))
        assert list(r.selected) == sorted(r.selected)

    def test_entity_freq_desc_prefers_busy_endpoints(self, hangzhou):
        r = kq.select(
            hangzhou, kq.SelectionConfig(0.25, 3, "entity_freq_desc")
        )
        # endpoint sums: quads 1 and 5 touch hangzhou(5) plus a count-2
        # entity, beating every other pair
        assert r.selected == (1, 5)

    def test_entity_freq_asc_prefers_rare_endpoints(self, hangzhou):
        r = kq.select(
            hangzhou, kq.SelectionConfig(0.25, 3, "entity_freq_asc")
        )
        # smallest endpoint sums: quad 3 (4), then quad 2 (5, earlier than
        # quad 4's 5)
        assert r.selected == (3, 2)

    def test_order_front_and_back(self, bruce):
        front = kq.select(bruce, kq.SelectionConfig(0.3, 9, "order_front"))
        back = kq.select(bruce, kq.SelectionConfig(0.3, 9, "order_back"))
        assert front.selected == (0, 1, 2)
        assert back.selected == (9, 8, 7)

    def test_all_strategies_share_quota_and_depth(self, hangzhou):
        results = {}
        for strategy in kq.STRATEGIES:
            seed = 5 if strategy == "random" else None
            results[strategy] = kq.select(
                hangzhou, kq.SelectionConfig(0.75, 1, strategy, seed)
            )
        depths = {r.effective_depth for r in results.values()}
        quotas = {r.quota for r in results.values()}
        assert depths == {2} and quotas == {6}

    def test_empty_graph_rejected(self):
        with pytest.raises(kq.EmptyGraphError):
            kq.quota(0.5, 0)


class TestChannelBudget:
    def test_clamps_at_graph_size(self):
        budget = kq.ChannelBudget(100.0, 1000.0, 3.0, 1.0, 1.0, 400)
        assert kq.budget_to_quota(budget, 10) == 10

    def test_partial_quadruple_is_floored(self):
        budget = kq.ChannelBudget(1.0, 999.0, 3.0, 1.0, 1.0, 400)
        assert kq.budget_to_quota(budget, 10) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            kq.ChannelBudget(1.0, 1.0, 1.0, 1.0, 0.0, 400)
        with pytest.raises(ValueError):
            kq.ChannelBudget(1.0, 1.0, -1.0, 1.0, 1.0, 400)
        with pytest.raises(ValueError):
            kq.ChannelBudget(1.0, 1.0, 1.0, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            kq.ChannelBudget(float("inf"), 1.0, 1.0, 1.0, 1.0, 400)
        for time, bandwidth in ((-1.0, 1.0), (1.0, -1.0)):
            with pytest.raises(ValueError, match="time and bandwidth must be non-negative"):
                kq.ChannelBudget(time, bandwidth, 1.0, 1.0, 1.0, 400)

    @pytest.mark.parametrize("bits", [True, 1.5, 2.0, "400"],
                             ids=["bool", "fraction", "integral-float", "str"])
    def test_bits_per_quadruple_must_be_an_int(self, bits):
        with pytest.raises(ValueError, match="bits_per_quadruple must be an int"):
            kq.ChannelBudget(1.0, 1.0, 1.0, 1.0, 1.0, bits)

    def test_quadruple_wider_than_any_float_transmits_nothing(self):
        budget = kq.ChannelBudget(1.0, 1000.0, 3.0, 1.0, 1.0, 10**400)
        assert kq.budget_to_quota(budget, 10) == 0

    def test_infinite_capacity_carries_everything(self):
        budget = kq.ChannelBudget(1e308, 1e308, 1e308, 1e308, 1e-308, 400)
        assert budget.capacity_bits() == float("inf")
        assert kq.budget_to_quota(budget, 10) == 10

    @pytest.mark.parametrize("time, bandwidth", [(0.0, 1.0), (1.0, 0.0)])
    def test_zero_time_or_bandwidth_on_infinite_snr_carries_nothing(
        self, time, bandwidth
    ):
        budget = kq.ChannelBudget(time, bandwidth, 1e308, 1e308, 1e-308, 400)
        assert kq.budget_to_quota(budget, 10) == 0

    def test_empty_graph_rejected(self):
        budget = kq.ChannelBudget(1.0, 1000.0, 3.0, 1.0, 1.0, 400)
        with pytest.raises(kq.EmptyGraphError):
            kq.budget_to_quota(budget, 0)
