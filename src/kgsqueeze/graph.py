"""Core domain types: confidence-weighted knowledge graphs.

A relation extractor scores every candidate entity pair against a fixed
relation set, yielding a full confidence distribution per pair rather
than a single relation.  Each pair is stored as a quadruple
``(head, relation, tail, entropy)`` where the relation is the argmax of
the distribution and the entropy (in bits) measures how ambiguous the
extractor's verdict was.  A graph of such quadruples, together with the
source text and the entity table, is the unit every other module
operates on.

All types are frozen dataclasses: immutable after construction and safe
to share across threads.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from math import fsum, log2

from .errors import (
    BadDistributionError,
    EmptyGraphError,
    SelfLoopError,
    UnknownEntityError,
)

# Raw confidence sums outside this band are rejected as broken extractor
# output; inside it they are silently renormalized (with a warning note).
SUM_TOLERANCE_BAND = (0.9, 1.1)

# |sum - 1| above this triggers a normalization warning on the graph.
SUM_WARN_TOLERANCE = 1e-6


@dataclass(frozen=True)
class RelationDistribution:
    """Confidence per relation label for one entity pair.

    ``labels`` is the relation set in its declared order; ``confidences``
    is aligned with it and sums to 1.  Label order matters: argmax ties
    are broken by it.
    """

    labels: tuple[str, ...]
    confidences: tuple[float, ...]

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.labels, self.confidences))

    def top(self) -> tuple[str, float]:
        """Most confident relation; ties go to the earliest label."""
        i = max(range(len(self.confidences)), key=self.confidences.__getitem__)
        return self.labels[i], self.confidences[i]


@dataclass(frozen=True)
class Entity:
    """A node of the graph, as extracted from the source text.

    ``first_token_index`` is the position of the entity's first
    occurrence in the tokenized source, when the extractor reports it;
    it only matters for breaking ties when picking the central concept.
    """

    id: str
    surface: str
    first_token_index: int | None = None


@dataclass(frozen=True)
class Quadruple:
    """One edge: an entity pair with its full relation distribution.

    ``top_relation``/``top_probability`` are the argmax of the
    distribution and ``entropy`` its Shannon entropy in bits, all
    precomputed at construction so downstream selection and metrics
    never re-derive them.
    """

    head: str
    tail: str
    distribution: RelationDistribution
    top_relation: str
    top_probability: float
    entropy: float


@dataclass(frozen=True)
class ProbabilityGraph:
    """An ordered collection of quadruples plus the text they came from.

    Quadruple order is exactly ingestion order; the positional baselines
    and all tie-breaking rules depend on it.  ``warnings`` collects
    ingestion notes (e.g. renormalized confidence sums) and is excluded
    from equality so a serialize/parse round trip compares clean.
    """

    text: str
    relation_set: tuple[str, ...]
    entities: tuple[Entity, ...]
    quadruples: tuple[Quadruple, ...]
    warnings: tuple[str, ...] = field(default=(), compare=False)

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._by_id[entity_id]
        except KeyError:
            raise UnknownEntityError(f"unknown entity id {entity_id!r}") from None

    @property
    def _by_id(self) -> dict[str, Entity]:
        # Frozen dataclass: build the index lazily, cache via object.__setattr__.
        cache = self.__dict__.get("_by_id_cache")
        if cache is None:
            cache = {e.id: e for e in self.entities}
            object.__setattr__(self, "_by_id_cache", cache)
        return cache

    def occurrence_counts(self) -> Counter[str]:
        """How many quadruple endpoint slots each entity fills.

        An entity that is head of one quadruple and tail of another
        counts twice; an entity in no quadruple counts zero.
        """
        counts: Counter[str] = Counter()
        for q in self.quadruples:
            counts[q.head] += 1
            counts[q.tail] += 1
        return counts


def relation_entropy(dist: RelationDistribution) -> float:
    """Shannon entropy of a relation distribution, in bits.

    Zero-confidence labels contribute nothing (0 * log2(0) == 0), so a
    one-hot distribution scores exactly 0.0 and a uniform one scores
    log2(len(labels)).
    """
    h = -fsum(p * log2(p) for p in dist.confidences if p > 0.0)
    return h + 0.0  # fold -0.0 to 0.0


def _build_distribution(
    relation_set: tuple[str, ...],
    confidences: Mapping[str, float],
    where: str,
) -> tuple[RelationDistribution, str | None]:
    """Validate, align to relation-set order, and normalize to sum 1.

    Returns the distribution and an optional warning when the raw sum
    drifted from 1 by more than SUM_WARN_TOLERANCE.
    """
    unknown = set(confidences) - set(relation_set)
    if unknown:
        raise BadDistributionError(
            f"{where}: confidence for unknown relation label(s) "
            f"{sorted(unknown)!r}"
        )
    raw = [float(confidences.get(label, 0.0)) for label in relation_set]
    for label, value in zip(relation_set, raw):
        if not 0.0 <= value <= 1.0:
            raise BadDistributionError(
                f"{where}: confidence {value!r} for {label!r} outside [0, 1]"
            )
    total = fsum(raw)
    low, high = SUM_TOLERANCE_BAND
    if not low <= total <= high:
        raise BadDistributionError(
            f"{where}: confidences sum to {total!r}, outside [{low}, {high}]"
        )
    warning = None
    if abs(total - 1.0) > SUM_WARN_TOLERANCE:
        warning = f"{where}: confidences sum to {total:.6g}, renormalized"
    if abs(total - 1.0) <= 1e-12:
        # Already normalized; don't divide, so re-ingesting serialized
        # output reproduces confidences bit for bit.
        normalized = tuple(raw)
    else:
        normalized = tuple(value / total for value in raw)
    return RelationDistribution(relation_set, normalized), warning


def _validated_relation_set(relation_set: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(relation_set)
    if len(labels) < 2:
        raise BadDistributionError("relation set needs at least 2 labels")
    seen = set()
    for label in labels:
        if not isinstance(label, str) or not label or label != label.strip():
            raise BadDistributionError(
                f"bad relation label {label!r}: must be non-empty, no "
                "leading/trailing whitespace"
            )
        if label in seen:
            raise BadDistributionError(f"duplicate relation label {label!r}")
        seen.add(label)
    return labels


def _validated_entities(entities: Sequence[Entity]) -> tuple[Entity, ...]:
    out = tuple(entities)
    seen = set()
    for e in out:
        if not e.id:
            raise UnknownEntityError("entity with empty id")
        if e.id in seen:
            raise UnknownEntityError(f"duplicate entity id {e.id!r}")
        seen.add(e.id)
        if not e.surface.split():
            raise UnknownEntityError(f"entity {e.id!r} has an empty surface")
        if e.first_token_index is not None and e.first_token_index < 0:
            raise UnknownEntityError(
                f"entity {e.id!r} has negative first_token_index"
            )
    return out


def build_graph(
    text: str,
    relation_set: Sequence[str],
    entities: Sequence[Entity],
    raw_candidates: Sequence[tuple[str, str, Mapping[str, float]]],
) -> ProbabilityGraph:
    """Assemble a graph from raw extractor output.

    Each candidate is ``(head_id, tail_id, confidences)``; its entropy,
    top relation and top probability are computed here.  Candidate order
    is preserved.  Confidence sums inside ``SUM_TOLERANCE_BAND`` are
    renormalized (recorded in ``graph.warnings``); anything else raises.
    """
    labels = _validated_relation_set(relation_set)
    ents = _validated_entities(entities)
    ids = {e.id for e in ents}
    if not raw_candidates:
        raise EmptyGraphError("no quadruple candidates")

    quadruples = []
    warnings: list[str] = []
    for i, (head, tail, confidences) in enumerate(raw_candidates):
        where = f"candidate {i}"
        if head not in ids:
            raise UnknownEntityError(f"{where}: unknown head entity {head!r}")
        if tail not in ids:
            raise UnknownEntityError(f"{where}: unknown tail entity {tail!r}")
        if head == tail:
            raise SelfLoopError(f"{where}: head equals tail ({head!r})")
        dist, warning = _build_distribution(labels, confidences, where)
        if warning:
            warnings.append(warning)
        top_relation, top_probability = dist.top()
        quadruples.append(
            Quadruple(
                head=head,
                tail=tail,
                distribution=dist,
                top_relation=top_relation,
                top_probability=top_probability,
                entropy=relation_entropy(dist),
            )
        )

    return ProbabilityGraph(
        text=text,
        relation_set=labels,
        entities=ents,
        quadruples=tuple(quadruples),
        warnings=tuple(warnings),
    )
