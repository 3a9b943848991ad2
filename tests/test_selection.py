"""Quota arithmetic, eligibility, strategies, and the channel budget."""

import itertools
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.selection import _pick

from conftest import random_graph


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
    """Reference relaxation: rescan eligibility one depth at a time.

    Returns (pool, effective depth, disconnected fallback fired).
    """
    deepest = distances.max_finite()
    depth = max_depth
    pool = kq.eligible(graph, distances, depth)
    while len(pool) < target and depth < deepest:
        depth += 1
        pool = kq.eligible(graph, distances, depth)
    fallback = len(pool) < target
    if fallback:
        stranded = [i for i in range(len(graph.quadruples)) if i not in pool]
        stranded.sort(key=lambda i: (graph.quadruples[i].entropy, i))
        pool = pool + stranded
    return pool, depth, fallback


def brute_force_min_su(graph, pool, size):
    """Exhaustive oracle: smallest total entropy of any ``size`` subset."""
    entropies = [graph.quadruples[i].entropy for i in pool]
    return min(
        fsum(combo) for combo in itertools.combinations(entropies, size)
    )


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
        distances = kq.all_distances(g, kq.select_initial_node(g))
        total = len(g.quadruples)
        for target in range(1, total + 1):
            ratio = target / total
            assert kq.quota(ratio, total) == target
            for max_depth in range(distances.max_finite() + 3):
                pool, depth, fallback = hop_by_hop_relaxation(
                    g, distances, target, max_depth
                )
                for strategy in kq.STRATEGIES:
                    config = kq.SelectionConfig(ratio, max_depth, strategy, seed)
                    r = kq.select(g, config)
                    assert r.selected == tuple(_pick(g, pool, target, config))
                    assert r.effective_depth == depth
                    assert r.relaxation_steps == depth - max_depth
                    assert r.disconnected_fallback == fallback


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


class TestOptimality:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            g = random_graph(rng, max_entities=8, max_quadruples=12)
            ratio = float(rng.uniform(0.05, 1.0))
            depth = int(rng.integers(0, 4))
            r = kq.select(g, kq.SelectionConfig(ratio, depth))
            distances = kq.all_distances(g, kq.select_initial_node(g))
            pool = kq.eligible(g, distances, r.effective_depth)
            if r.disconnected_fallback:
                continue
            assert r.semantic_uncertainty == brute_force_min_su(
                g, pool, r.quota
            )

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nesting_at_fixed_depth(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, connected=True)
        depth = kq.all_distances(g, kq.select_initial_node(g)).max_finite()
        previous = set()
        previous_su = 0.0
        total = len(g.quadruples)
        for quota_target in range(1, total + 1):
            r = kq.select(g, kq.SelectionConfig(quota_target / total, depth))
            current = set(r.selected)
            assert previous <= current
            assert r.semantic_uncertainty >= previous_su - 1e-12
            previous, previous_su = current, r.semantic_uncertainty


class TestChannelBudget:
    def test_exact_textbook_case(self):
        budget = kq.ChannelBudget(
            time=1.0, bandwidth=1000.0, power=3.0,
            channel_gain=1.0, noise_power=1.0, bits_per_quadruple=400,
        )
        assert budget.capacity_bits() == 2000.0
        assert kq.budget_to_quota(budget, 10) == 5

    def test_zero_power_transmits_nothing(self):
        budget = kq.ChannelBudget(1.0, 1000.0, 0.0, 1.0, 1.0, 400)
        assert budget.capacity_bits() == 0.0
        assert kq.budget_to_quota(budget, 10) == 0

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
