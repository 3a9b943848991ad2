"""Central concept choice and relational distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgsqueeze as kq

from conftest import random_graph


def graph_from_edges(edges, n=None, first_token=None):
    """Graph over entities e0..e{n-1} with a one-hot edge per pair."""
    if n is None:
        n = 1 + max(max(h, t) for h, t in edges)
    entities = [
        kq.Entity(
            f"e{i}",
            f"e{i}",
            None if first_token is None else first_token.get(i),
        )
        for i in range(n)
    ]
    candidates = [
        (f"e{h}", f"e{t}", {"r1": 1.0}) for h, t in edges
    ]
    return kq.build_graph(
        " ".join(f"e{i}" for i in range(n)), ("r1", "r2"), entities, candidates
    )


class TestInitialNode:
    def test_most_occurrences_wins(self):
        g = graph_from_edges([(0, 1), (0, 2), (0, 3), (1, 2)])
        assert kq.select_initial_node(g) == "e0"

    def test_tie_broken_by_first_token_index(self):
        g = graph_from_edges(
            [(0, 1), (0, 2), (3, 1), (3, 2)],
            first_token={0: 7, 3: 2, 1: 10, 2: 11},
        )
        # every entity occurs twice; e3 is mentioned earliest
        assert kq.select_initial_node(g) == "e3"

    def test_missing_token_index_loses_tie(self):
        g = graph_from_edges([(0, 1), (0, 2), (3, 1), (3, 2)],
                             first_token={3: 5})
        assert kq.select_initial_node(g) == "e3"

    def test_full_tie_falls_back_to_declaration_order(self):
        g = graph_from_edges([(0, 1), (0, 2), (3, 1), (3, 2)])
        assert kq.select_initial_node(g) == "e0"

    def test_fixture_centres(self, bruce, hangzhou):
        assert kq.select_initial_node(bruce) == "bruce_lee"
        assert kq.select_initial_node(hangzhou) == "hangzhou"

    def test_graph_without_entities_is_an_empty_graph_error(self):
        graph = kq.ProbabilityGraph("", ("a", "b"), ())
        with pytest.raises(
            kq.EmptyGraphError, match="^cannot pick a central concept without entities$"
        ):
            kq.select_initial_node(graph)


class TestDistances:
    def test_direct_and_two_hop(self):
        g = graph_from_edges([(0, 1), (1, 2)])
        d = kq.all_distances(g, "e0")
        assert d.distance == {"e0": 0, "e1": 1, "e2": 2}

    def test_direction_is_ignored(self):
        forward = graph_from_edges([(0, 1), (1, 2)])
        backward = graph_from_edges([(1, 0), (2, 1)])
        assert (
            kq.all_distances(forward, "e0").distance
            == kq.all_distances(backward, "e0").distance
        )

    def test_unreachable_is_infinite(self):
        g = graph_from_edges([(0, 1), (2, 3)])
        d = kq.all_distances(g, "e0")
        assert d.distance["e2"] == kq.UNREACHABLE
        assert math.isinf(kq.UNREACHABLE)
        assert not d.is_reachable("e3")
        assert d.is_reachable("e1")

    def test_max_finite_ignores_unreachable(self):
        g = graph_from_edges([(0, 1), (1, 2), (3, 4)])
        assert kq.all_distances(g, "e0").max_finite() == 2

    def test_parallel_edges_collapse(self):
        g = kq.build_graph(
            "e0 e1",
            ("r1", "r2"),
            [kq.Entity("e0", "e0", 0), kq.Entity("e1", "e1", 1)],
            [
                ("e0", "e1", {"r1": 1.0}),
                ("e1", "e0", {"r2": 1.0}),
            ],
        )
        assert kq.all_distances(g, "e0").distance["e1"] == 1

    def test_shorter_route_wins(self):
        g = graph_from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        assert kq.all_distances(g, "e0").distance["e3"] == 1

    def test_fixture_distances(self, hangzhou, bruce):
        d = kq.all_distances(hangzhou, "hangzhou")
        assert d.distance["west_lake"] == 1
        assert d.distance["birth_date"] == 3
        assert d.distance["chu_kochen"] == 2
        assert d.max_finite() == 3
        db = kq.all_distances(bruce, "bruce_lee")
        assert db.distance["ip_man"] == 1
        assert db.distance["tripoli"] == 9
        assert db.max_finite() == 9

    def test_finite_distances_are_ints(self, hangzhou):
        d = kq.all_distances(hangzhou, "hangzhou")
        assert all(isinstance(v, int) for v in d.distance.values())

    def test_unknown_source_rejected(self, hangzhou):
        with pytest.raises(kq.UnknownEntityError):
            kq.all_distances(hangzhou, "nowhere")

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_adding_an_edge_never_increases_distances(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng)
        ids = [e.id for e in g.entities]
        head, tail = (
            ids[int(i)] for i in rng.choice(len(ids), size=2, replace=False)
        )
        extra = (
            g.text,
            g.relation_set,
            list(g.entities),
            [(q.head, q.tail, dict(zip(q.distribution.labels,
                                       q.distribution.confidences)))
             for q in g.quadruples]
            + [(head, tail, {g.relation_set[0]: 1.0})],
        )
        bigger = kq.build_graph(*extra)
        source = ids[0]
        before = kq.all_distances(g, source).distance
        after = kq.all_distances(bigger, source).distance
        assert all(after[e] <= before[e] for e in ids)
