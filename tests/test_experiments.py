"""Ratio grid arithmetic and sweep determinism."""

from math import fsum

import pytest

import kgsqueeze as kq


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


class TestRunSweep:
    def test_row_count_is_grid_times_strategies(self, hangzhou):
        rows, _ = kq.run_sweep(hangzhou, runs=3, seed=1)
        assert len(rows) == 10 * len(kq.STRATEGIES)

    def test_rows_sorted_by_strategy_then_ratio(self, hangzhou):
        rows, _ = kq.run_sweep(hangzhou, runs=2, seed=1)
        keys = [(r.strategy, r.K) for r in rows]
        assert keys == sorted(keys)

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

    def test_jobs_do_not_change_output(self, bruce):
        serial = kq.run_sweep(bruce, runs=4, seed=7, jobs=1)
        threaded = kq.run_sweep(bruce, runs=4, seed=7, jobs=4)
        assert serial[0] == threaded[0]
        assert serial[1] == threaded[1]
        assert kq.emit_sweep_table(serial[0]) == kq.emit_sweep_table(threaded[0])

    def test_jobs_must_be_positive(self, bruce):
        with pytest.raises(ValueError, match="jobs"):
            kq.run_sweep(bruce, runs=1, seed=7, jobs=0)

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

    def test_runs_validation(self, hangzhou):
        with pytest.raises(ValueError):
            kq.run_sweep(hangzhou, runs=0)

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
