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

Every strategy reads its own ordering of all quadruples up to a reach
limit: the relaxed depth or, under the fallback, none.  The
entropy-greedy strategy orders by entropy, so the quota it keeps is
exactly the subset of minimum total entropy.  The baselines read other
orderings of the same eligible set, or sample it, so comparisons
isolate the selection criterion itself.  The random baseline draws from
the package's own PCG64 stream, which holds the index set of numpy's
``default_rng(seed).choice`` (checked against numpy 2.4.6) without
importing numpy.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from math import floor, fsum, inf, isfinite, isinf, log2

from ._rng import sample_indices
from .distance import DistanceTable, all_distances, select_initial_node
from .errors import EmptyGraphError, MissingSeedError, SelectionMismatchError
from .graph import ProbabilityGraph, _derived, _endpoint_counts, _take

#: Entropy-greedy selection (the default) plus the five baselines.
STRATEGIES = (
    "proposed",
    "random",
    "entity_freq_desc",
    "entity_freq_asc",
    "order_front",
    "order_back",
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SelectionConfig:
    """Parameters of one selection run.

    ``ratio`` is the compression coefficient: the target fraction of
    quadruples kept, in (0, 1].  ``max_depth`` is the largest allowed
    relational distance from the central concept before relaxation.
    ``seed`` (non-negative) is required by the random strategy only.
    ``max_depth`` and ``seed`` must be plain ints and ``ratio`` an int or
    a float (never a bool), the types a selection document carries;
    nothing is converted.
    """

    ratio: float
    max_depth: int
    strategy: str = "proposed"
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.ratio) or isinstance(self.ratio, float)):
            raise ValueError(
                f"ratio must be a number (an int or a float), got {self.ratio!r}"
            )
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"ratio must be in (0, 1], got {self.ratio!r}")
        if not _is_int(self.max_depth) or self.max_depth < 0:
            raise ValueError(
                f"max_depth must be a non-negative int, got {self.max_depth!r}"
            )
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}"
            )
        if self.seed is not None and not _is_int(self.seed):
            raise ValueError(f"seed must be an int, got {self.seed!r}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


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


def _check_in_range(graph: ProbabilityGraph, selected: Sequence[int]) -> None:
    """Raise SelectionMismatchError naming the first selected index outside
    [0, n) for a graph of n quadruples, if there is one."""
    total = len(graph.heads)
    if selected and (max(selected) >= total or min(selected) < 0):
        i = next(i for i in selected if not 0 <= i < total)
        raise SelectionMismatchError(
            f"selected index {i} out of range for a graph of {total} quadruples"
        )


@dataclass(frozen=True)
class ChannelBudget:
    """Link parameters that bound how many quadruples fit in a transmission.

    ``bits_per_quadruple`` is the wire cost of one quadruple, a plain int
    of at least 1 (never a bool); the rest parameterize the link capacity
    time * bandwidth * log2(1 + snr) with snr = power * channel_gain /
    noise_power.
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
        if not _is_int(self.bits_per_quadruple) or self.bits_per_quadruple < 1:
            raise ValueError(
                "bits_per_quadruple must be an int of at least 1, "
                f"got {self.bits_per_quadruple!r}"
            )
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
    d = distances.distance
    return [
        i
        for i, (head, tail) in enumerate(zip(graph.heads, graph.tails))
        if d[head] <= depth and d[tail] <= depth
    ]


def _selection_facts(
    graph: ProbabilityGraph,
) -> tuple[tuple[int | float, ...], tuple[int | float, ...], int]:
    """What selection needs of a graph, whatever the ratio, depth or
    strategy: each quadruple's reach, max(d[head], d[tail]), the reaches
    sorted, and the largest finite distance."""
    distances = all_distances(graph, select_initial_node(graph))
    d = distances.distance
    ends = zip(graph.heads, graph.tails)
    reach = tuple([max(d[head], d[tail]) for head, tail in ends])
    return reach, tuple(sorted(reach)), distances.max_finite()


def _ordering(graph: ProbabilityGraph, strategy: str) -> tuple[int, ...]:
    """Every quadruple index in the order a deterministic strategy prefers
    it: ``proposed`` by (entropy, index), ``entity_freq_desc`` / ``_asc``
    by (-/+ summed endpoint count, index), ``order_front`` the reachable
    quadruples in input order and then the stranded ones by (entropy,
    index), ``order_back`` the reverse of that.  ``random`` samples from
    ``order_front``'s.
    """
    n = len(graph.heads)
    if strategy in ("order_front", "order_back"):
        reach = _derived(graph, "_selection_facts", _selection_facts)[0]
        order = [i for i in range(n) if not isinf(reach[i])]
        stranded = [i for i in range(n) if isinf(reach[i])]
        # A stable sort: equal entropies keep input order.
        order += sorted(stranded, key=graph.entropies.__getitem__)
        return tuple(order if strategy == "order_front" else reversed(order))
    if strategy == "proposed":
        keys = graph.entropies
    else:
        # The counts select_initial_node walked, read without a copy.
        counts = _derived(graph, "_endpoint_counts", _endpoint_counts)
        sign = -1 if strategy == "entity_freq_desc" else 1
        keys = [
            sign * (counts[head] + counts[tail])
            for head, tail in zip(graph.heads, graph.tails)
        ]
    # A stable sort of the indices: equal keys keep input order.
    return tuple(sorted(range(n), key=keys.__getitem__))


def select(graph: ProbabilityGraph, config: SelectionConfig) -> SelectionResult:
    """Pick ``quota(ratio, len(graph))`` quadruples with the configured strategy.

    One rule for every strategy: read its ordering of all quadruples
    (see ``_ordering``) and keep those whose reach, the larger endpoint
    distance from the central concept, is within a limit.  The limit is
    the depth relaxed to the quota-th smallest reach, at most the
    deepest finite distance; a graph still short there takes the
    disconnected fallback, whose limit is infinite.  A deterministic
    strategy keeps the first quota, so ``proposed`` (entropy-greedy)
    keeps the subset of minimum total entropy, smallest entropy first,
    and ``order_back``'s indices come back in reverse.  ``random`` keeps
    a uniform subset of ``order_front``'s within-limit part, drawn from
    a PCG64 generator seeded with ``config.seed`` (required), in input
    order.

    The reach and each ordering depend only on the graph: they are
    derived on its first selection (an ordering on its strategy's first)
    and reused by every later one, the ``metrics`` replay and each sweep
    evaluation included.
    """
    if not graph.heads:
        raise EmptyGraphError("cannot select from an empty graph")
    reach, sorted_reach, deepest = _derived(graph, "_selection_facts", _selection_facts)
    target = quota(config.ratio, len(reach))
    needed = sorted_reach[target - 1]
    # Short of the quota even at the deepest finite distance.
    fallback = isinf(needed)
    depth = max(config.max_depth, deepest if fallback else needed)
    limit = inf if fallback else depth
    if config.strategy == "random":
        if config.seed is None:
            raise MissingSeedError("random strategy needs a seed")
        order = _derived(graph, "_orderings", _ordering, "order_front")
        within = [i for i in order if reach[i] <= limit]
        drawn = sample_indices(config.seed, len(within), target)
        selected = sorted(_take(within, drawn))
    else:
        order = _derived(graph, "_orderings", _ordering, config.strategy)
        selected = list(islice((i for i in order if reach[i] <= limit), target))
    return SelectionResult(
        selected=tuple(selected),
        quota=target,
        effective_depth=depth,
        semantic_uncertainty=fsum(_take(graph.entropies, selected)),
        relaxation_steps=depth - config.max_depth,
        disconnected_fallback=fallback,
        ratio=config.ratio,
        strategy=config.strategy,
        seed=config.seed,
    )
