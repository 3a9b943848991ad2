"""Compressing a graph: pick the quota of quadruples with minimum total entropy.

The compression ratio fixes how many quadruples survive (the quota); the
depth constraint keeps every surviving entity within a maximum
relational distance of the central concept.  When the two constraints
cannot hold at once, the depth is relaxed one hop at a time until enough
quadruples qualify.  Graphs with a component unreachable from the
central concept get one further escape hatch: once relaxation has
exhausted all finite distances, unreachable-endpoint quadruples are
admitted too (flagged on the result), so a selection of exactly the
quota size always exists.

The entropy-greedy strategy then takes the quota of smallest-entropy
quadruples from the eligible set, which is exactly the subset of minimum
total entropy.  Five baseline strategies draw from the same eligible
set, so comparisons isolate the selection criterion itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, fsum, isfinite, isinf, log2

import numpy as np

from .distance import DistanceTable, all_distances, select_initial_node
from .errors import EmptyGraphError, MissingSeedError
from .graph import ProbabilityGraph

#: Entropy-greedy selection (the default) plus the five baselines.
STRATEGIES = (
    "proposed",
    "random",
    "entity_freq_desc",
    "entity_freq_asc",
    "order_front",
    "order_back",
)


@dataclass(frozen=True)
class SelectionConfig:
    """Parameters of one selection run.

    ``ratio`` is the compression coefficient: the target fraction of
    quadruples kept, in (0, 1].  ``max_depth`` is the largest allowed
    relational distance from the central concept before relaxation.
    ``seed`` is required by the random strategy only.
    """

    ratio: float
    max_depth: int
    strategy: str = "proposed"
    seed: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio!r}")
        if self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of a selection run.

    ``selected`` holds distinct quadruple indices into the source graph,
    in the order the strategy picked them; its length always equals
    ``quota``.  ``effective_depth`` is the depth actually used after
    relaxation (``relaxation_steps`` above ``max_depth``), and
    ``disconnected_fallback`` records whether unreachable-endpoint
    quadruples had to be admitted.  ``semantic_uncertainty`` is the sum
    of the selected entropies, in bits.
    """

    selected: tuple[int, ...]
    quota: int
    effective_depth: int
    semantic_uncertainty: float
    relaxation_steps: int
    disconnected_fallback: bool
    ratio: float
    strategy: str
    seed: int | None = None


@dataclass(frozen=True)
class ChannelBudget:
    """Link parameters that bound how many quadruples fit in a transmission.

    ``bits_per_quadruple`` is the wire cost of one quadruple; the rest
    parameterize the link capacity time * bandwidth * log2(1 + snr)
    with snr = power * channel_gain / noise_power.
    """

    time: float
    bandwidth: float
    power: float
    channel_gain: float
    noise_power: float
    bits_per_quadruple: int

    def __post_init__(self) -> None:
        values = (
            self.time,
            self.bandwidth,
            self.power,
            self.channel_gain,
            self.noise_power,
        )
        if not all(isfinite(value) for value in values):
            raise ValueError("all channel budget fields must be finite")
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if self.bits_per_quadruple < 1:
            raise ValueError("bits_per_quadruple must be at least 1")
        if self.power < 0 or self.channel_gain < 0:
            raise ValueError("power and channel_gain must be non-negative")
        if self.time < 0 or self.bandwidth < 0:
            raise ValueError("time and bandwidth must be non-negative")

    def capacity_bits(self) -> float:
        snr = self.power * self.channel_gain / self.noise_power
        return self.time * self.bandwidth * log2(1.0 + snr)


def quota(ratio: float, total: int) -> int:
    """Number of quadruples a compression ratio keeps out of ``total``.

    Rounds half up on the floating product and clamps to [1, total]: a
    ratio in (0, 1] always keeps at least one quadruple.
    """
    if total < 1:
        raise EmptyGraphError("quota needs a positive graph size")
    return min(max(floor(ratio * total + 0.5), 1), total)


def budget_to_quota(budget: ChannelBudget, total: int) -> int:
    """How many whole quadruples the channel can carry, at most ``total``.

    Partial quadruples cannot be transmitted, so the capacity is floored;
    zero is a valid outcome (nothing transmittable), unlike ``quota``.
    An infinite capacity carries all ``total``.
    """
    if total < 1:
        raise EmptyGraphError("budget_to_quota needs a positive graph size")
    capacity = budget.capacity_bits()
    if isinf(capacity):
        return total
    # Float-int comparison is exact and keeps an integer beyond the float
    # range out of the division below; a NaN capacity (0 * inf) carries nothing.
    if not capacity >= budget.bits_per_quadruple:
        return 0
    return min(total, floor(capacity / budget.bits_per_quadruple))


def eligible(
    graph: ProbabilityGraph, distances: DistanceTable, depth: int
) -> list[int]:
    """Indices of quadruples whose both endpoints lie within ``depth``.

    Unreachable endpoints never qualify.  Order is input order.
    """
    return [
        i
        for i, q in enumerate(graph.quadruples)
        if distances.distance[q.head] <= depth
        and distances.distance[q.tail] <= depth
    ]


def _candidates_with_relaxation(
    graph: ProbabilityGraph,
    distances: DistanceTable,
    target: int,
    max_depth: int,
) -> tuple[list[int], int, int, bool]:
    """Eligible list after depth relaxation, plus how it was obtained.

    Starting at ``max_depth``, the depth grows one hop at a time while
    fewer than ``target`` quadruples qualify, stopping once every finite
    distance is covered (going further cannot help).  If the list is
    still short, quadruples with unreachable endpoints are appended in
    ascending-entropy order, and the fallback flag is set.

    A quadruple qualifies from depth max(d[head], d[tail]) on, so the
    stopping depth is read off the ``target``-th smallest such reach.

    Returns (candidate indices, effective depth, relaxation steps,
    disconnected fallback fired).
    """
    d = distances.distance
    reach = [max(d[q.head], d[q.tail]) for q in graph.quadruples]
    needed = sorted(reach)[target - 1]
    if isinf(needed):
        needed = distances.max_finite()
    depth = max(max_depth, needed)
    pool = [i for i, r in enumerate(reach) if r <= depth]

    fallback = len(pool) < target
    if fallback:
        stranded = [i for i, r in enumerate(reach) if r > depth]
        stranded.sort(key=lambda i: (graph.quadruples[i].entropy, i))
        pool += stranded
    return pool, depth, depth - max_depth, fallback


def _pick(
    graph: ProbabilityGraph,
    pool: list[int],
    target: int,
    config: SelectionConfig,
) -> list[int]:
    """Choose ``target`` indices from the candidate pool per the strategy."""
    strategy = config.strategy
    if strategy == "proposed":
        return sorted(pool, key=lambda i: (graph.quadruples[i].entropy, i))[:target]
    if strategy == "random":
        if config.seed is None:
            raise MissingSeedError("random strategy needs a seed")
        rng = np.random.default_rng(config.seed)
        chosen = rng.choice(len(pool), size=target, replace=False)
        return sorted(pool[int(i)] for i in chosen)
    if strategy in ("entity_freq_desc", "entity_freq_asc"):
        counts = graph.occurrence_counts()
        sign = -1 if strategy == "entity_freq_desc" else 1

        def score(i: int) -> tuple[int, int]:
            q = graph.quadruples[i]
            return (sign * (counts[q.head] + counts[q.tail]), i)

        return sorted(pool, key=score)[:target]
    if strategy == "order_front":
        return pool[:target]
    if strategy == "order_back":
        return pool[len(pool) - target :][::-1]
    raise ValueError(f"unknown strategy {strategy!r}")


def select(graph: ProbabilityGraph, config: SelectionConfig) -> SelectionResult:
    """Pick ``quota(ratio, len(graph))`` quadruples with the configured strategy.

    Quota and eligibility, with relaxation and the disconnected fallback,
    are the same for every strategy; they differ only in which quota-sized
    subset of the eligible pool they take:

    - ``proposed`` (entropy-greedy): the smallest-entropy quadruples, the
      subset of minimum total entropy; ties break on input order and
      indices come back smallest entropy first;
    - ``random``: uniform subset from a generator seeded with
      ``config.seed`` (required), reported in input order;
    - ``entity_freq_desc`` / ``entity_freq_asc``: by summed endpoint
      occurrence counts over the whole graph, descending/ascending, with
      input-order ties;
    - ``order_front`` / ``order_back``: the first / last quota in input
      order (``order_back``'s indices come back in reverse).
    """
    if not graph.quadruples:
        raise EmptyGraphError("cannot select from an empty graph")
    target = quota(config.ratio, len(graph.quadruples))
    distances = all_distances(graph, select_initial_node(graph))
    pool, depth, steps, fallback = _candidates_with_relaxation(
        graph, distances, target, config.max_depth
    )
    selected = _pick(graph, pool, target, config)
    return SelectionResult(
        selected=tuple(selected),
        quota=target,
        effective_depth=depth,
        semantic_uncertainty=fsum(graph.quadruples[i].entropy for i in selected),
        relaxation_steps=steps,
        disconnected_fallback=fallback,
        ratio=config.ratio,
        strategy=config.strategy,
        seed=config.seed,
    )
