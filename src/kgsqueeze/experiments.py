"""Sweep harness: evaluate every strategy across a compression-ratio grid.

For each ratio on the grid and each strategy, runs the selection and
scores it (uncertainty directly, similarity against the built-in
verbalizer's recovered text).  The random baseline is averaged over a
number of seeded runs; every run's generator is derived from
(seed, grid index, run index), so results depend on nothing but the
arguments.  Grid points are evaluated one after another: the work is
pure Python, so threads did not speed it up, and ``jobs`` is accepted
only so existing callers keep working.
"""

from __future__ import annotations

from math import floor, fsum

import numpy as np

from .graph import ProbabilityGraph
from .io import RunRecord, SweepRow
from .metrics import similarity, verbalize
from .selection import STRATEGIES, SelectionConfig, select

#: Slack when deciding how many grid points a (from, to, step) span holds.
_GRID_EPS = 1e-9

#: Largest ratio grid a sweep accepts; finer steps are refused up front.
MAX_GRID_POINTS = 10_000


def ratio_grid(k_from: float, k_to: float, k_step: float) -> list[float]:
    """Grid points k_from + i * k_step, capped at k_to.

    The point count is decided by index arithmetic, not by accumulating
    floats, so 0.1 .. 1.0 by 0.1 is exactly ten points.  Grids of more
    than ``MAX_GRID_POINTS`` points raise ValueError before any is built.
    """
    if not 0.0 < k_from <= k_to <= 1.0:
        raise ValueError("need 0 < k_from <= k_to <= 1")
    if not k_step > 0.0:
        raise ValueError("k_step must be positive")
    span = (k_to - k_from) / k_step + _GRID_EPS
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"k_step {k_step!r} gives more than {MAX_GRID_POINTS} grid points"
        )
    points = floor(span) + 1
    return [min(k_from + i * k_step, k_to) for i in range(points)]


def _derived_seed(seed: int, grid_index: int, run_index: int) -> int:
    return int(
        np.random.SeedSequence([seed, grid_index, run_index]).generate_state(1)[0]
    )


def run_sweep(
    graph: ProbabilityGraph,
    k_from: float = 0.1,
    k_to: float = 1.0,
    k_step: float = 0.1,
    depth: int = 2,
    runs: int = 100,
    seed: int = 0,
    phi: float = 0.5,
    jobs: int = 1,
) -> tuple[list[SweepRow], list[RunRecord]]:
    """All strategies across the ratio grid; see the module docstring.

    Returns rows sorted by (strategy, K) and the individual
    random-baseline run records sorted by (K, run index).  ``jobs``
    must be positive and changes nothing.
    """
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    rows = []
    records = []
    for grid_index, ratio in enumerate(ratio_grid(k_from, k_to, k_step)):
        for strategy in STRATEGIES:
            if strategy == "random":
                run_seeds = [_derived_seed(seed, grid_index, i) for i in range(runs)]
            else:
                run_seeds = [None]
            figures = []
            for run_index, run_seed in enumerate(run_seeds):
                result = select(graph, SelectionConfig(ratio, depth, strategy, run_seed))
                report = similarity(graph, result, verbalize(result, graph), phi)
                run = (
                    report.semantic_uncertainty,
                    report.similarity,
                    report.accuracy,
                    report.completeness,
                    report.theta,
                )
                figures.append(run)
                if strategy == "random":
                    records.append(RunRecord(ratio, run_index, run_seed, *run))
            means = [fsum(column) / len(figures) for column in zip(*figures)]
            rows.append(
                SweepRow(
                    ratio, strategy, *means,
                    result.quota, result.effective_depth, len(figures),
                )
            )
    rows.sort(key=lambda r: (r.strategy, r.K))
    records.sort(key=lambda r: (r.K, r.run_index))
    return rows, records
