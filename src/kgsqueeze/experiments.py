"""Sweep harness: evaluate every strategy across a compression-ratio grid.

For each ratio on the grid and each strategy, runs the selection and
scores it through the scoring core ``similarity`` wraps, with no text
given: against the built-in verbalization, not rendered unless a
selected surface is not plain.  The random baseline is averaged over a
number of seeded runs; every run's seed is derived from (seed, grid
index, run index) by numpy's ``SeedSequence`` mixing, computed in the
package, so results depend on nothing but the arguments, not on an
installed numpy.  Grid points are evaluated one after another: the work
is pure Python, so threads did not speed it up.  The command line's
``sweep --jobs`` is still accepted and validated, and then ignored.
"""

from __future__ import annotations

from math import floor, fsum

from ._rng import derive_seed
from .graph import ProbabilityGraph
from .io import RunRecord, SweepRow
from .metrics import (
    DEFAULT_PHI,
    _check_phi,
    _Tally,
    similarity,  # unused here; benchmarks/tracing.py wraps this name
    verbalize,  # unused here; benchmarks/tracing.py wraps this name
)
from .selection import STRATEGIES, SelectionConfig, _is_int, select

#: Slack when deciding how many grid points a (from, to, step) span holds.
_GRID_EPS = 1e-9

#: Largest ratio grid a sweep accepts; finer steps are refused up front.
MAX_GRID_POINTS = 10_000


def ratio_grid(k_from: float, k_to: float, k_step: float) -> list[float]:
    """Grid points k_from + i * k_step, capped at k_to.

    The point count is decided by index arithmetic, not by accumulating
    floats, so 0.1 .. 1.0 by 0.1 is exactly ten points.  Grids of more
    than ``MAX_GRID_POINTS`` points raise ValueError before any is built,
    and so does a ``k_step`` too fine for floats to tell two points apart.
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
    grid = [min(k_from + i * k_step, k_to) for i in range(floor(span) + 1)]
    if len(set(grid)) < len(grid):
        raise ValueError(f"k_step {k_step!r} gives equal grid points")
    return grid


def run_sweep(
    graph: ProbabilityGraph,
    k_from: float = 0.1,
    k_to: float = 1.0,
    k_step: float = 0.1,
    depth: int = 2,
    runs: int = 100,
    seed: int = 0,
    phi: float = DEFAULT_PHI,
) -> tuple[list[SweepRow], list[RunRecord]]:
    """All strategies across the ratio grid; see the module docstring.

    Each evaluation is one ``select`` on ``graph``, scored by its
    strategy's tally (see ``metrics``): while the selection starts with
    the tallied sequence, as a deterministic one does while its depth
    limit holds, the tally is extended by the new indices only; otherwise,
    and for every ``random`` run, a fresh tally scores the whole
    selection.  SU is the selection's own.  Every figure is a function of
    the selected sequence alone, so the rows are those of one
    ``similarity`` call per evaluation.  What evaluations share is derived
    once per graph object (see the ``graph`` module), and nothing kept
    grows with the grid.

    Returns rows in (strategy, K) order and the individual
    random-baseline run records in (K, run index) order: strategies run
    in name order, and each walks the grid, whose points are distinct
    and ascending.  ``runs`` must be an int of at least 1 and ``seed``
    one of at least 0 (a bool is neither); anything else raises
    ValueError naming the parameter before any evaluation.  A ``phi``
    that ``similarity`` would refuse raises its InvalidPhiError at the
    same point.
    """
    if not _is_int(runs):
        raise ValueError(f"runs must be an int, got {runs!r}")
    if runs < 1:
        raise ValueError("runs must be at least 1")
    if not _is_int(seed):
        raise ValueError(f"seed must be an int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_phi(phi)
    grid = ratio_grid(k_from, k_to, k_step)
    rows = []
    records = []
    for strategy in sorted(STRATEGIES):
        seeded = strategy == "random"
        tally = _Tally(graph)
        for grid_index, ratio in enumerate(grid):
            figures = []
            for run_index in range(runs if seeded else 1):
                run_seed = derive_seed(seed, grid_index, run_index) if seeded else None
                result = select(graph, SelectionConfig(ratio, depth, strategy, run_seed))
                prefix = tally.selected
                if seeded or result.selected[:len(prefix)] != prefix:
                    tally = _Tally(graph)
                tally.extend(result.selected[len(tally.selected):])
                acc, comp, theta, score, _ = tally.read(phi)
                run = (result.semantic_uncertainty, score, acc, comp, theta)
                figures.append(run)
                if seeded:
                    records.append(RunRecord(ratio, run_index, run_seed, *run))
            means = [fsum(column) / len(figures) for column in zip(*figures)]
            rows.append(
                SweepRow(
                    ratio, strategy, *means,
                    result.quota, result.effective_depth, len(figures),
                )
            )
    return rows, records
