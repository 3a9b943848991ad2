"""Core domain types: confidence-weighted knowledge graphs.

A relation extractor scores every candidate entity pair against a fixed
relation set, yielding a full confidence distribution per pair rather
than a single relation.  Each pair is a quadruple ``(head, relation,
tail, entropy)`` where the relation is the argmax of the distribution
and the entropy (in bits) measures how ambiguous the extractor's verdict
was.  A graph of such quadruples, together with the source text and the
entity table, is the unit every other module operates on.

A graph stores its candidates as columns, one tuple per fact, aligned by
candidate index: heads, tails, each candidate's non-zero (label index,
probability) pairs, top relations, top probabilities and entropies.  So
its size follows its document, not candidates times the relation set.
``graph.quadruples`` builds a ``Quadruple``, with its dense
``RelationDistribution``, only when a caller reads one; the pipeline
reads the columns.

``build_graph`` gives each rule one owner.  One walk over the
candidates, in order, checks each one's rules, names the first fault and
drops its zero confidences, then keeps, renormalizes or refuses its sum;
one builder makes the columns from the maps.

All types are frozen dataclasses, and the sequence ``graph.quadruples``
returns only reads its graph: immutable after construction and safe to
share across threads.  What is derived from a graph alone is built once
per graph object, on first use, through ``_derived``, which keeps it in
the object's instance ``__dict__``, outside equality and hashing: the
entity index ``_by_id``, the ``_endpoint_counts``, the
``_selection_facts`` (each quadruple's reach, sorted too, and the
deepest finite distance), the ``_orderings`` (one per deterministic
strategy), the ``_sentences`` (one per quadruple rendered) and the
``_scoring_facts`` (per case mode, the normalized texts and one record
per entity scored).  None grows with the ratios or depths a caller asks
for.  Every entry is a function of the graph alone, so a lost race only
builds one twice.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Iterable, Mapping, Sequence, Sized
from dataclasses import dataclass, field
from itertools import chain
from math import fsum, log2
from operator import itemgetter, mul

from .errors import (
    BadDistributionError,
    EmptyGraphError,
    MalformedDocumentError,
    SchemaViolationError,
    SelfLoopError,
    UnknownEntityError,
)

# Raw confidence sums outside this band are rejected as broken extractor
# output; inside it they are renormalized.
SUM_TOLERANCE_BAND = (0.9, 1.1)

# |sum - 1| above this triggers a normalization warning on the graph.
SUM_WARN_TOLERANCE = 1e-6

# |sum - 1| at most this keeps the confidences as given, unrenormalized.
_SUM_KEPT = 1e-12


@dataclass(frozen=True)
class RelationDistribution:
    """Confidence per relation label for one entity pair.

    ``labels`` is the relation set in its declared order; ``confidences``
    is aligned with it and sums to 1.  Label order matters: argmax ties
    are broken by it.
    """

    labels: tuple[str, ...]
    confidences: tuple[float, ...]

    def top(self) -> tuple[str, float]:
        """Most confident relation; ties go to the earliest label."""
        i = self.confidences.index(max(self.confidences))
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
    read from the graph's columns, which ``build_graph`` computed.
    """

    head: str
    tail: str
    distribution: RelationDistribution
    top_relation: str
    top_probability: float
    entropy: float


@dataclass(frozen=True)
class ProbabilityGraph:
    """An ordered collection of quadruples, as columns, plus the text they
    came from.

    Item ``i`` of each column is a fact of candidate ``i``: ``heads`` and
    ``tails`` its entity ids, ``confidences`` its non-zero (label index,
    probability) pairs in relation-set order, summing to 1,
    ``top_relations`` and ``top_probabilities`` their argmax (ties go to
    the earliest label) and ``entropies`` their Shannon entropy in bits.
    Candidate order is exactly ingestion order; the positional baselines
    and all tie-breaking rules depend on it.  The constructor checks
    nothing: ``build_graph`` validates and computes the columns, and
    without them a graph has no candidates.  ``warnings`` collects
    ingestion notes (e.g. renormalized confidence sums) and is excluded
    from equality so a serialize/parse round trip compares clean.
    """

    text: str
    relation_set: tuple[str, ...]
    entities: tuple[Entity, ...]
    heads: tuple[str, ...] = ()
    tails: tuple[str, ...] = ()
    confidences: tuple[tuple[tuple[int, float], ...], ...] = ()
    top_relations: tuple[str, ...] = ()
    top_probabilities: tuple[float, ...] = ()
    entropies: tuple[float, ...] = ()
    warnings: tuple[str, ...] = field(default=(), compare=False)

    @property
    def quadruples(self) -> Sequence[Quadruple]:
        """The candidates as a sequence of ``Quadruple``; each is built,
        with its dense distribution, when it is read."""
        return _Quadruples(self)

    def entity(self, entity_id: str) -> Entity:
        return _derived(self, "_by_id", _EntityIndex)[entity_id]

    def occurrence_counts(self) -> Counter[str]:
        """How many quadruple endpoint slots each entity fills.

        An entity that is head of one quadruple and tail of another
        counts twice; an entity in no quadruple counts zero.  Each call
        returns a fresh Counter the caller may mutate.
        """
        return _derived(self, "_endpoint_counts", _endpoint_counts).copy()


def _derived(graph: ProbabilityGraph, name: str, build: Callable, *key: object):
    """``graph``'s derived fact ``name`` or, given a ``key``, that fact's
    entry for it (the fact is then a dict by key), built with
    ``build(graph, *key)`` on first use; see the module docstring."""
    facts = graph.__dict__
    if key:
        facts = facts.setdefault(name, {})
        (name,) = key
    fact = facts.get(name)
    if fact is None:
        fact = facts.setdefault(name, build(graph, *key))
    return fact


class _EntityIndex(dict):
    """A graph's entities by id; an unknown id raises ``UnknownEntityError``."""

    def __init__(self, graph: ProbabilityGraph) -> None:
        super().__init__({e.id: e for e in graph.entities})

    def __missing__(self, entity_id: str):
        raise UnknownEntityError(f"unknown entity id {entity_id!r}")


def _endpoint_counts(graph: ProbabilityGraph) -> Counter[str]:
    """Read-only: ``occurrence_counts`` hands out copies."""
    return Counter(chain.from_iterable(zip(graph.heads, graph.tails)))


class _Quadruples(Sequence):
    """A graph's candidates as ``Quadruple`` objects, each built when read."""

    __slots__ = ("_graph",)

    def __init__(self, graph: ProbabilityGraph) -> None:
        self._graph = graph

    def __len__(self) -> int:
        return len(self._graph.heads)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        g = self._graph
        dense = [0.0] * len(g.relation_set)
        for j, p in g.confidences[i]:
            dense[j] = p
        return Quadruple(
            g.heads[i], g.tails[i], RelationDistribution(g.relation_set, tuple(dense)),
            g.top_relations[i], g.top_probabilities[i], g.entropies[i],
        )

    def __eq__(self, other: object) -> bool:
        return tuple(self) == other


def _take(column: Sequence | Mapping, indices: Sequence) -> tuple:
    """``tuple(column[i] for i in indices)``, gathered in one C call: the
    scoring path reads a column, or a map by index, at every selected index."""
    if len(indices) > 1:
        return itemgetter(*indices)(column)
    return tuple([column[i] for i in indices])


def relation_entropy(dist: RelationDistribution) -> float:
    """Shannon entropy of a relation distribution, in bits.

    Zero-confidence labels contribute nothing (0 * log2(0) == 0), so a
    one-hot distribution scores exactly 0.0 and a uniform one scores
    log2(len(labels)).
    """
    return _entropy([p for p in dist.confidences if p > 0.0])


def _entropy(probabilities: Collection[float]) -> float:
    """Shannon entropy, in bits, of positive probabilities."""
    # fsum is correctly rounded, so the order of the products moves no bit.
    h = -fsum(map(mul, probabilities, map(log2, probabilities)))
    return h + 0.0  # fold -0.0 to 0.0


def _probabilities(
    index: dict[str, int], confidences: Mapping[str, float], i: int
) -> dict[str, float]:
    """Validate candidate ``i``'s confidence map.

    ``index`` maps each relation label to its position.  The rules run in
    this order, and the first broken one raises: every unknown label at
    once, then each confidence in map order (its type, then its range).
    Returns the non-zero confidences as a ``dict`` of ``float``, in map
    order: the map itself when it already is one, else a copy without its
    zeros.  ``build_graph`` checks and normalizes the sum.  Work scales
    with the labels the map gives, not with the relation set.
    """
    # type() first: nearly every map is a dict, nearly every value a float.
    if type(confidences) is not dict and not isinstance(confidences, Mapping):
        got = type(confidences).__name__
        raise SchemaViolationError(
            f"candidate {i}: confidences must be a mapping, got {got}"
        )
    if not index.keys() >= confidences.keys():
        unknown = confidences.keys() - index.keys()
        raise BadDistributionError(
            f"candidate {i}: confidence for unknown relation label(s) "
            f"{sorted(unknown, key=str)!r}"
        )
    as_given = type(confidences) is dict
    for label, value in confidences.items():
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaViolationError(
                    f"candidate {i}: confidence for {label!r} must be a number"
                )
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                raise BadDistributionError(
                    f"candidate {i}: a confidence outside [0, 1]"
                ) from None
            as_given = False
        if not 0.0 < value <= 1.0:  # a NaN fails too
            if value != 0.0:
                raise BadDistributionError(
                    f"candidate {i}: confidence {value!r} for {label!r} outside [0, 1]"
                )
            as_given = False
    if as_given:
        return confidences
    return {label: float(value) for label, value in confidences.items() if value}


def _require_str(value: object, field: str) -> None:
    """Reject a value that is not a ``str``, or a string UTF-8 cannot
    encode (a lone surrogate): no document could carry either, so no
    emitter could write the graph."""
    if not isinstance(value, str):
        raise SchemaViolationError(f"{field} must be a str, got {type(value).__name__}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise MalformedDocumentError(
            f"{field} is not valid UTF-8: it holds the lone surrogate "
            f"{exc.object[exc.start]!r}"
        ) from None


def _items(value: object, field: str) -> tuple:
    """A container's items; a string or a non-iterable is no container,
    and a set has no order, which label and entity ties depend on."""
    if isinstance(value, (str, bytes, set, frozenset)) or not isinstance(value, Iterable):
        raise SchemaViolationError(
            f"{field} must be a sequence, got {type(value).__name__}"
        )
    return tuple(value)


def _validated_relation_set(relation_set: Sequence[str]) -> tuple[str, ...]:
    labels = _items(relation_set, "relation_set")
    if len(labels) < 2:
        raise BadDistributionError("relation set needs at least 2 labels")
    seen = set()
    for i, label in enumerate(labels):
        _require_str(label, f"relation_set[{i}]")
        if not label or label != label.strip():
            raise BadDistributionError(
                f"bad relation label {label!r}: must be non-empty, no "
                "leading/trailing whitespace"
            )
        if label in seen:
            raise BadDistributionError(f"duplicate relation label {label!r}")
        seen.add(label)
    return labels


def _validated_entities(entities: Sequence[Entity]) -> tuple[Entity, ...]:
    out = _items(entities, "entities")
    seen = set()
    for i, e in enumerate(out):
        if not isinstance(e, Entity):
            raise SchemaViolationError(
                f"entities[{i}] must be an Entity, got {type(e).__name__}"
            )
        _require_str(e.id, f"entities[{i}].id")
        _require_str(e.surface, f"entities[{i}].surface")
        index = e.first_token_index
        if isinstance(index, bool) or not isinstance(index, (int, type(None))):
            raise SchemaViolationError(
                f"entities[{i}].first_token_index must be an int, "
                f"got {type(index).__name__}"
            )
        if not e.id:
            raise UnknownEntityError("entity with empty id")
        if e.id in seen:
            raise UnknownEntityError(f"duplicate entity id {e.id!r}")
        seen.add(e.id)
        if not e.surface.split():
            raise UnknownEntityError(f"entity {e.id!r} has an empty surface")
        if index is not None and index < 0:
            raise UnknownEntityError(
                f"entity {e.id!r} has negative first_token_index"
            )
    return out


def _triple(candidate: object, i: int) -> tuple:
    """A candidate as ``(head, tail, confidences)``: any sequence of
    three items except a string."""
    if (
        isinstance(candidate, Sequence)
        and not isinstance(candidate, (str, bytes))
        and len(candidate) == 3
    ):
        return tuple(candidate)
    got = type(candidate).__name__
    if isinstance(candidate, Sized):
        got = f"{got} of length {len(candidate)}"
    raise SchemaViolationError(
        f"candidates[{i}] must be a (head, tail, confidences) triple, got {got}"
    )


def build_graph(
    text: str,
    relation_set: Sequence[str],
    entities: Sequence[Entity],
    raw_candidates: Sequence[tuple[str, str, Mapping[str, float]]],
) -> ProbabilityGraph:
    """Assemble a graph from raw extractor output.

    Each candidate is ``(head_id, tail_id, confidences)``; its entropy,
    top relation and top probability are computed here, and it is stored
    in the graph's columns, with no ``Quadruple`` built.  Candidate order
    is preserved.  A confidence sum within ``_SUM_KEPT`` (1e-12) of 1 is
    kept as given, one within ``SUM_WARN_TOLERANCE`` (1e-6) renormalized
    silently, one further off but inside ``SUM_TOLERANCE_BAND``
    renormalized with a note in ``graph.warnings``; anything else raises.
    Zero confidences are dropped.
    A value of the wrong type (a relation set, entity list or candidate
    list that is a string, a set or no container, an entity not an ``Entity``,
    a candidate not a triple, a text, label, id, surface, head or tail
    not a ``str``, a ``first_token_index`` not an ``int``, a confidence
    map not a mapping, a confidence not an ``int`` or ``float``; a
    ``bool`` is neither) raises ``SchemaViolationError`` naming the field,
    and a lone surrogate in a text, label, id or surface
    ``MalformedDocumentError``; graph documents get these same checks.
    Each candidate's rules run in order, and the first broken one raises:
    its head (type, then known), its tail (type, then known), head equal
    to tail, then its confidences: unknown labels first, then each
    confidence in map order (type, then range), then the sum.

    One walk takes the candidates in order: it checks each one's rules
    and drops its zero confidences, sums its map once, then keeps,
    renormalizes or refuses the sum.  One builder then makes every column
    from the maps.
    """
    _require_str(text, "text")
    labels = _validated_relation_set(relation_set)
    ents = _validated_entities(entities)
    candidates = _items(raw_candidates, "candidates")
    ids = {e.id for e in ents}
    if not candidates:
        raise EmptyGraphError("no quadruple candidates")

    index = {label: i for i, label in enumerate(labels)}
    low, high = SUM_TOLERANCE_BAND
    heads, tails, maps, warnings = [], [], [], []
    for i, candidate in enumerate(candidates):  # the first fault raises
        if type(candidate) is not tuple or len(candidate) != 3:
            candidate = _triple(candidate, i)
        head, tail, confidences = candidate
        if not isinstance(head, str):
            raise SchemaViolationError(
                f"candidate {i}: head must be a str, got {type(head).__name__}"
            )
        if head not in ids:
            raise UnknownEntityError(f"candidate {i}: unknown head entity {head!r}")
        if not isinstance(tail, str):
            raise SchemaViolationError(
                f"candidate {i}: tail must be a str, got {type(tail).__name__}"
            )
        if tail not in ids:
            raise UnknownEntityError(f"candidate {i}: unknown tail entity {tail!r}")
        if head == tail:
            raise SelfLoopError(f"candidate {i}: head equals tail ({head!r})")
        given = _probabilities(index, confidences, i)
        total = fsum(given.values())
        drift = abs(total - 1.0)
        # A sum within _SUM_KEPT of 1 is kept as given, so re-ingesting
        # serialized output reproduces confidences bit for bit.
        if drift > _SUM_KEPT:
            if not low <= total <= high:
                raise BadDistributionError(
                    f"candidate {i}: confidences sum to {total!r}, "
                    f"outside [{low}, {high}]"
                )
            if drift > SUM_WARN_TOLERANCE:
                warnings.append(
                    f"candidate {i}: confidences sum to {total:.6g}, renormalized"
                )
            # v / total rounds to no less than 2**-1074, as v is at least that
            # and total at most 1.1: no quotient is a zero to drop.
            given = {label: v / total for label, v in given.items()}
        heads.append(head)
        tails.append(tail)
        maps.append(given)
    # A map's labels are distinct, so sorting never compares probabilities.
    pairs = tuple([tuple(sorted(zip(map(index.__getitem__, m), m.values()))) for m in maps])
    # The first largest pair: ties go to the earliest label.
    tops = [max(given, key=itemgetter(1)) for given in pairs]
    return ProbabilityGraph(
        text=text,
        relation_set=labels,
        entities=ents,
        heads=tuple(heads),
        tails=tuple(tails),
        confidences=pairs,
        top_relations=tuple([labels[j] for j, _ in tops]),
        top_probabilities=tuple([p for _, p in tops]),
        entropies=tuple(map(_entropy, map(dict.values, maps))),
        warnings=tuple(warnings),
    )
