"""Ratio grid arithmetic and sweep determinism."""

import dataclasses
from collections import Counter
from math import fsum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze import experiments

from conftest import bfs_distances, central_concept, random_graph, within_depth


class TestRatioGrid:
    def test_default_span_has_ten_points(self):
        grid = kq.ratio_grid(0.1, 1.0, 0.1)
        assert len(grid) == 10
        assert grid[0] == 0.1
        assert grid[-1] == 1.0

    def test_points_are_index_arithmetic_not_accumulation(self):
        grid = kq.ratio_grid(0.1, 1.0, 0.1)
        assert grid == [min(0.1 + i * 0.1, 1.0) for i in range(10)]

    def test_single_point_span(self):
        assert kq.ratio_grid(0.5, 0.5, 0.1) == [0.5]

    def test_last_point_capped_at_k_to(self):
        grid = kq.ratio_grid(0.1, 0.25, 0.1)
        assert grid == [0.1, 0.2]

    def test_validation(self):
        with pytest.raises(ValueError):
            kq.ratio_grid(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            kq.ratio_grid(0.5, 0.4, 0.1)
        with pytest.raises(ValueError):
            kq.ratio_grid(0.1, 1.1, 0.1)
        with pytest.raises(ValueError):
            kq.ratio_grid(0.1, 1.0, 0.0)

    def test_grid_size_is_capped(self):
        cap = kq.experiments.MAX_GRID_POINTS
        assert len(kq.ratio_grid(1e-4, 1.0, 1e-4)) == cap
        with pytest.raises(ValueError, match="grid points"):
            kq.ratio_grid(1e-4, 1.0, 9.999e-5)  # cap + 1 points
        # A span of exactly the cap once the slack is added, cap + 1 points.
        with pytest.raises(ValueError, match="grid points"):
            kq.ratio_grid(1e-4, 1.0, 9.999000000001e-05)

    def test_a_step_too_fine_to_tell_points_apart_is_refused(self):
        # 0.5 + 1 * 6e-17 and 0.5 + 2 * 6e-17 round to the same float, so
        # a sweep over this grid would write two rows for one ratio.
        with pytest.raises(ValueError, match=r"^k_step 6e-17 gives equal grid points$"):
            kq.ratio_grid(0.5, 0.5000000000000002, 6e-17)
        assert kq.ratio_grid(0.5, 0.5000000000000002, 1e-16) == [
            0.5, 0.5000000000000001, 0.5000000000000002
        ]


class TestRunSweep:
    def test_row_count_is_grid_times_strategies(self, hangzhou):
        rows, _ = kq.run_sweep(hangzhou, runs=3, seed=1)
        assert len(rows) == 10 * len(kq.STRATEGIES)

    def test_rows_sorted_by_strategy_then_ratio(self, hangzhou):
        rows, _ = kq.run_sweep(hangzhou, runs=2, seed=1)
        keys = [(r.strategy, r.K) for r in rows]
        assert keys == sorted(keys)

    def test_records_in_ratio_then_run_order(self, hangzhou):
        _, records = kq.run_sweep(hangzhou, runs=3, seed=1)
        keys = [(r.K, r.run_index) for r in records]
        assert keys == sorted(keys) and len(set(keys)) == len(keys) == 10 * 3

    def test_same_seed_same_bytes(self, hangzhou):
        first = kq.emit_sweep_table(kq.run_sweep(hangzhou, runs=5, seed=9)[0])
        second = kq.emit_sweep_table(kq.run_sweep(hangzhou, runs=5, seed=9)[0])
        assert first == second

    def test_different_seed_changes_random_rows_only(self, hangzhou):
        rows_a, _ = kq.run_sweep(hangzhou, runs=20, seed=1)
        rows_b, _ = kq.run_sweep(hangzhou, runs=20, seed=2)
        for a, b in zip(rows_a, rows_b):
            if a.strategy != "random":
                assert a == b
        randoms_a = [r for r in rows_a if r.strategy == "random"]
        randoms_b = [r for r in rows_b if r.strategy == "random"]
        assert randoms_a != randoms_b

    def test_random_rows_average_the_run_records(self, hangzhou):
        rows, records = kq.run_sweep(
            hangzhou, k_from=0.3, k_to=0.3, k_step=0.1, runs=8, seed=4
        )
        random_row = next(r for r in rows if r.strategy == "random")
        assert len(records) == 8
        assert random_row.runs_averaged == 8
        assert random_row.SU == fsum(r.SU for r in records) / 8
        assert random_row.SS == fsum(r.SS for r in records) / 8
        assert random_row.A == fsum(r.A for r in records) / 8

    def test_non_random_rows_average_nothing(self, hangzhou):
        rows, _ = kq.run_sweep(
            hangzhou, k_from=0.5, k_to=0.5, k_step=0.1, runs=8, seed=4
        )
        for row in rows:
            if row.strategy != "random":
                assert row.runs_averaged == 1

    def test_record_seeds_derive_from_grid_position(self, hangzhou):
        _, records = kq.run_sweep(
            hangzhou, k_from=0.2, k_to=0.4, k_step=0.2, runs=3, seed=11
        )
        by_point = {}
        for record in records:
            by_point.setdefault(record.K, []).append(record.seed)
        assert set(by_point) == {0.2, 0.4}
        # distinct seeds within a grid point and across grid points
        all_seeds = [s for seeds in by_point.values() for s in seeds]
        assert len(set(all_seeds)) == len(all_seeds)
        # re-running reproduces the exact same derived seeds
        _, again = kq.run_sweep(
            hangzhou, k_from=0.2, k_to=0.4, k_step=0.2, runs=3, seed=11
        )
        assert records == again

    def test_each_evaluation_selects_once_and_renders_no_text(
        self, hangzhou, monkeypatch
    ):
        # A sweep scores each selection through its strategy's tally, not
        # through similarity or verbalize; benchmarks/tracing.py still
        # resolves both names on the module, where they stay unused.
        calls = Counter()
        for name in ("select", "similarity", "verbalize"):
            def counted(*args, _name=name, _original=getattr(experiments, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(experiments, name, counted)
        runs = 3
        kq.run_sweep(hangzhou, runs=runs, seed=1)
        # The five other strategies run once per grid point, random `runs` times.
        evaluations = len(kq.ratio_grid(0.1, 1.0, 0.1)) * (5 + runs)
        assert calls == {"select": evaluations}

    def test_runs_validation(self, hangzhou):
        with pytest.raises(ValueError):
            kq.run_sweep(hangzhou, runs=0)

    @pytest.mark.parametrize(
        "given, message",
        [
            ({"runs": 2.5}, "runs must be an int, got 2.5"),
            ({"runs": True}, "runs must be an int, got True"),
            ({"runs": 0}, "runs must be at least 1"),
            ({"seed": -1}, "seed must be non-negative, got -1"),
            ({"seed": 1.0}, "seed must be an int, got 1.0"),
            ({"seed": None}, "seed must be an int, got None"),
        ],
        ids=["float_runs", "bool_runs", "zero_runs", "negative_seed",
             "float_seed", "none_seed"],
    )
    def test_runs_and_seed_checked_before_any_evaluation(
        self, hangzhou, monkeypatch, given, message
    ):
        def evaluated(*args):
            raise AssertionError("a selection ran before the check")

        monkeypatch.setattr(experiments, "select", evaluated)
        with pytest.raises(ValueError) as raised:
            kq.run_sweep(hangzhou, **given)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "phi, message",
        [
            ("0.5", "phi must be a number (an int or a float), got '0.5'"),
            (True, "phi must be a number (an int or a float), got True"),
            (None, "phi must be a number (an int or a float), got None"),
            (5.0, "phi must be in [0, 1], got 5.0"),
            (float("nan"), "phi must be in [0, 1], got nan"),
        ],
        ids=["str_phi", "bool_phi", "none_phi", "large_phi", "nan_phi"],
    )
    def test_phi_checked_before_any_evaluation(
        self, hangzhou, monkeypatch, phi, message
    ):
        def evaluated(*args):
            raise AssertionError("a selection ran before the check")

        monkeypatch.setattr(experiments, "select", evaluated)
        with pytest.raises(kq.InvalidPhiError) as raised:
            kq.run_sweep(hangzhou, phi=phi)
        assert str(raised.value) == message

    def test_phi_flows_through_to_scores(self, bruce):
        lopsided, records = kq.run_sweep(
            bruce, k_from=0.2, k_to=0.2, k_step=0.1, runs=2, seed=1, phi=1.0
        )
        # at phi=1 every individual score is exactly theta * completeness;
        # averaged random rows only satisfy it run by run
        for row in lopsided:
            if row.strategy != "random":
                assert abs(row.SS - row.theta * row.C) <= 1e-12
        for record in records:
            assert abs(record.SS - record.theta * record.C) <= 1e-12


#: Surfaces whose counts in a verbalization can differ from their
#: incidence: "Lee" lies inside "Bruce Lee", "1890.3.7" holds a dot and
#: "Duke of York" holds the label "of" as a word.
ODD_SURFACES = ("Lee", "Bruce Lee", "1890.3.7", "Duke of York")
PLAIN_SURFACES = ("Ann", "Bob", "Cid", "Dee", "Eve")
ORACLE_LABELS = ("of", "born on", "teacher of")


@st.composite
def oracle_graphs(draw):
    """A graph whose spine is a path through the surfaces above, with
    random extra links within it, mentions and confidences.  Two more
    entities hang off its end without extra links, so some quadruple's
    reach is at least 2 and a depth-0 sweep relaxes mid-grid; with an
    island, K = 1 takes the disconnected fallback."""
    plain = draw(st.integers(1, len(PLAIN_SURFACES)))
    spine = draw(st.permutations(ODD_SURFACES + PLAIN_SURFACES[:plain]))
    island = draw(st.booleans())
    path = list(spine) + ["Ivy", "Jon"]
    surfaces = path + (["Gus", "Hal"] if island else [])
    pairs = list(zip(path, path[1:])) + ([("Gus", "Hal")] if island else [])
    links = st.tuples(st.integers(0, len(spine) - 1), st.integers(1, len(spine) - 1))
    pairs += [
        (spine[i], spine[(i + step) % len(spine)])
        for i, step in draw(st.lists(links, max_size=6))
    ]
    weights = st.lists(st.integers(1, 8), min_size=3, max_size=3)
    candidates = []
    for head, tail in pairs:
        drawn = draw(weights)
        confidences = {label: w / sum(drawn) for label, w in zip(ORACLE_LABELS, drawn)}
        candidates.append((head, tail, confidences))
    mentions = draw(st.lists(st.sampled_from(surfaces), max_size=20))
    entities = [kq.Entity(surface, surface) for surface in surfaces]
    text = " and ".join(mentions)
    return kq.build_graph(text, ORACLE_LABELS, entities, candidates), island


def replayed_sweep(graph, depth, runs, seed, phi, grid=(0.05, 1.0, 0.05)):
    """``run_sweep`` over ``grid``, one public select, verbalize and
    similarity per evaluation on a fresh copy of ``graph``, which holds
    nothing derived before that evaluation.

    Each selection is scored by scanning its verbalization, as given and
    plus a newline, and by incidence with no text given: all three agree.
    """
    from kgsqueeze._rng import derive_seed

    rows, records = [], []
    for strategy in sorted(kq.STRATEGIES):
        seeded = strategy == "random"
        for grid_index, ratio in enumerate(kq.ratio_grid(*grid)):
            figures = []
            for run_index in range(runs if seeded else 1):
                fresh = dataclasses.replace(graph)
                run_seed = derive_seed(seed, grid_index, run_index) if seeded else None
                config = kq.SelectionConfig(ratio, depth, strategy, run_seed)
                result = kq.select(fresh, config)
                text = kq.verbalize(result, fresh)
                report = kq.similarity(fresh, result, text + "\n", phi)
                assert kq.similarity(fresh, result, text, phi) == report
                assert kq.similarity(fresh, result, phi=phi) == report
                run = (report.semantic_uncertainty, report.similarity,
                       report.accuracy, report.completeness, report.theta)
                figures.append(run)
                if seeded:
                    records.append(kq.RunRecord(ratio, run_index, run_seed, *run))
            means = [fsum(column) / len(figures) for column in zip(*figures)]
            rows.append(kq.SweepRow(
                ratio, strategy, *means,
                result.quota, result.effective_depth, len(figures),
            ))
    return rows, records


def random_graphs(seed, connected):
    """``conftest.random_graph``, whose graphs carry no island flag."""
    return random_graph(np.random.default_rng(seed), connected=connected), None


#: One seed for a random graph and its sweep.
GRAPH_SEED = st.shared(st.integers(0, 2**32 - 1), key="graph seed")


class TestSweepOracle:
    """Every sweep row and record equals an independent replay of its
    evaluations through the public functions, each on a fresh graph."""

    @pytest.mark.parametrize(
        "graphs, seeds, depths, phis, examples, fixed",
        [
            (oracle_graphs(), st.integers(0, 2**32 - 1), st.integers(0, 2),
             st.sampled_from([0.0, 0.25, 0.5, 1.0]), 100, []),
            (st.builds(random_graphs, GRAPH_SEED, st.booleans()), GRAPH_SEED,
             st.integers(0, 3), st.just(0.5), 30,
             # Relaxes, then falls back.
             [lambda: dict(drawn=random_graphs(2, False), seed=2, depth=0, runs=2,
                           phi=0.5)]),
        ],
        ids=["oracle_graphs", "random_graph"],
    )
    def test_rows_and_records_match_a_public_replay(
        self, graphs, seeds, depths, phis, examples, fixed
    ):
        @settings(max_examples=examples, deadline=None)
        @given(drawn=graphs, seed=seeds, depth=depths, runs=st.integers(1, 3), phi=phis)
        def check(drawn, seed, depth, runs, phi):
            graph, island = drawn
            swept = kq.run_sweep(
                graph, k_from=0.05, k_to=1.0, k_step=0.05,
                depth=depth, runs=runs, seed=seed, phi=phi,
            )
            assert swept == replayed_sweep(graph, depth, runs, seed, phi)
            if island is None:
                return
            # The oracle graphs exercise what the tally must get right.
            if depth == 0:
                assert len({row.effective_depth for row in swept[0]}) > 1
            whole = kq.select(graph, kq.SelectionConfig(1.0, depth))
            assert whole.disconnected_fallback == island

        for case in fixed:
            check = example(**case())(check)
        check()

    @pytest.mark.parametrize("name", ["bruce", "hangzhou"])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_fixture_sweeps_match_a_public_replay(self, request, name, depth):
        # As `sweep --runs 3 --seed 1`: the default grid, seed and phi.
        graph = request.getfixturevalue(name)
        rows, records = kq.run_sweep(graph, depth=depth, runs=3, seed=1)
        assert records
        assert (rows, records) == replayed_sweep(graph, depth, 3, 1, 0.5, grid=(0.1, 1.0, 0.1))


class TestRandomBaselineStatistics:
    """The ``random`` rows agree with the exact mean of a uniform subset of
    the pool, computed from the independent distance oracles alone."""

    @pytest.mark.parametrize("name", ["bruce", "hangzhou"])
    @pytest.mark.parametrize("depth", [0, 2, 9])
    def test_rows_lie_within_four_standard_errors(self, request, name, depth):
        graph = request.getfixturevalue(name)
        runs = 100
        rows, _ = kq.run_sweep(graph, depth=depth, runs=runs, seed=1)
        distances = bfs_distances(graph, central_concept(graph))
        checked = 0
        for row in rows:
            if row.strategy != "random":
                continue
            pool = within_depth(graph, distances, row.effective_depth)
            if len(pool) < row.H:  # the disconnected fallback: every index
                pool = list(range(len(graph.heads)))
            for figure, column in (("SU", graph.entropies),
                                   ("theta", graph.top_probabilities)):
                values = [column[i] for i in pool]
                size, mean = len(values), fsum(values) / len(values)
                expected = row.H * mean
                observed = getattr(row, figure)
                if row.H == size:
                    assert abs(observed - expected) <= 1e-9, (row, figure)
                    continue
                # Finite-population variance of an H-subset sum, over the runs.
                variance = fsum((v - mean) ** 2 for v in values) / size
                spread = row.H * variance * (size - row.H) / (size - 1) / runs
                assert abs(observed - expected) <= max(4 * spread**0.5, 1e-9), (
                    row, figure
                )
            checked += 1
        assert checked == len(rows) // len(kq.STRATEGIES)
