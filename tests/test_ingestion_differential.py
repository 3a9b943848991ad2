"""``build_graph`` against a frozen copy of its candidate walk.

``build_graph`` walks the candidates in order: it checks each one's
rules, then its sum, renormalizes it and drops its zeros.  ``reference``
below is an earlier spelling of that walk, frozen as the oracle: one
helper checks, sums and normalizes each candidate's map into its pairs,
and the entropies are summed another way.  Every input must give the same
columns and warnings, or the same error class and message, through
``build_graph`` and, where a document can carry it, through
``parse_graph_document``.
"""

import json
import struct
from collections.abc import Mapping
from math import fsum, inf, log2, nan, nextafter
from operator import itemgetter
from types import MappingProxyType

from hypothesis import example, given, settings
from hypothesis import strategies as st

import kgsqueeze as kq
from kgsqueeze.errors import (
    BadDistributionError,
    EmptyGraphError,
    SchemaViolationError,
    SelfLoopError,
    UnknownEntityError,
)
from kgsqueeze.graph import (
    SUM_TOLERANCE_BAND,
    SUM_WARN_TOLERANCE,
    ProbabilityGraph,
    _items,
    _require_str,
    _triple,
    _validated_entities,
    _validated_relation_set,
)


def _entropy(probabilities) -> float:
    # fsum is correctly rounded, so neither the order nor zeros move a bit.
    h = -fsum([p * log2(p) for p in probabilities if p > 0.0])
    return h + 0.0  # fold -0.0 to 0.0


def _probabilities(
    index: dict[str, int], confidences: Mapping[str, float], i: int
) -> tuple[tuple[tuple[int, float], ...], str | None]:
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
    raw = []
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
        if not 0.0 <= value <= 1.0:  # a NaN fails too
            raise BadDistributionError(
                f"candidate {i}: confidence {value!r} for {label!r} outside [0, 1]"
            )
        raw.append(value)
    total = fsum(raw)
    low, high = SUM_TOLERANCE_BAND
    if not low <= total <= high:
        raise BadDistributionError(
            f"candidate {i}: confidences sum to {total!r}, outside [{low}, {high}]"
        )
    drift = abs(total - 1.0)
    warning = None
    if drift > SUM_WARN_TOLERANCE:
        warning = f"candidate {i}: confidences sum to {total:.6g}, renormalized"
    # Within 1e-12 of 1, don't renormalize (x / 1.0 is x), so re-ingesting
    # serialized output reproduces confidences bit for bit.
    divisor = total if drift > 1e-12 else 1.0
    pairs = [
        (index[label], p)
        for label, value in zip(confidences, raw)
        if (p := value / divisor)  # explicit zeros are dropped
    ]
    pairs.sort()  # label indices are distinct, so probabilities are never compared
    return tuple(pairs), warning


def reference(text, relation_set, entities, raw_candidates) -> ProbabilityGraph:
    """``build_graph`` with every candidate walked in turn."""
    _require_str(text, "text")
    labels = _validated_relation_set(relation_set)
    ents = _validated_entities(entities)
    candidates = _items(raw_candidates, "candidates")
    ids = {e.id for e in ents}
    if not candidates:
        raise EmptyGraphError("no quadruple candidates")

    index = {label: i for i, label in enumerate(labels)}
    heads, tails, pairs, warnings = [], [], [], []
    for i, candidate in enumerate(candidates):
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
        given, warning = _probabilities(index, confidences, i)
        if warning:
            warnings.append(warning)
        heads.append(head)
        tails.append(tail)
        pairs.append(given)

    # The first largest pair: ties go to the earliest label.
    tops = [max(given, key=itemgetter(1)) for given in pairs]
    return ProbabilityGraph(
        text=text,
        relation_set=labels,
        entities=ents,
        heads=tuple(heads),
        tails=tuple(tails),
        confidences=tuple(pairs),
        top_relations=tuple([labels[j] for j, _ in tops]),
        top_probabilities=tuple([p for _, p in tops]),
        entropies=tuple([_entropy([p for _, p in given]) for given in pairs]),
        warnings=tuple(warnings),
    )


LABELS = ("r0", "r1", "r2", "r3")
IDS = ("e0", "e1", "e2", "e3")
ENTITIES = [kq.Entity(i, f"entity {i}") for i in IDS]
TEXT = " ".join(e.surface for e in ENTITIES)


class Id(str):
    """A ``str`` subclass, which an entity id, a head or a tail may be."""


class Real(float):
    """A ``float`` subclass, which a confidence may be."""


class NotAnId:
    """Hashes and compares as the id ``e0`` does, but is no ``str``."""

    def __hash__(self):
        return hash("e0")

    def __eq__(self, other):
        return other == "e0"


def outcome(build, candidates):
    """What building a graph from ``candidates`` gives: its columns, with
    every scalar's type and every real's bits, and its warnings; or the
    class and message of the error it raises.  Any other exception
    escapes and fails the test."""
    try:
        graph = build(TEXT, LABELS, ENTITIES, candidates)
    except kq.KgsqueezeError as exc:
        return type(exc), str(exc)
    columns = (graph.heads, graph.tails, graph.confidences, graph.top_relations,
               graph.top_probabilities, graph.entropies)
    scalars = [*graph.heads, *graph.tails, *graph.top_probabilities, *graph.entropies,
               *(p for pairs in graph.confidences for _, p in pairs)]
    return repr(columns), [type(x) for x in scalars], graph.warnings


def drifted(drift):
    return {"r0": 0.5, "r1": 0.5 + drift}


def summing_to(total):
    return {"r0": 0.5, "r1": total - 0.5}


#: Named changes to one candidate ``(head, tail, confidences)``.
CHANGES = {
    "an empty map": lambda h, t, m: (h, t, {}),
    "NaN after a valid value": lambda h, t, m: (h, t, {"r1": 0.5, "r2": nan}),
    "NaN first": lambda h, t, m: (h, t, {"r1": nan, "r2": 0.5}),
    "a -0.0 value": lambda h, t, m: (h, t, {**m, "r3": -0.0}),
    "a 0.0 value": lambda h, t, m: (h, t, {"r3": 0.0, **m}),
    "an int value": lambda h, t, m: (h, t, {"r0": 1}),
    "an int zero": lambda h, t, m: (h, t, {"r0": 0, "r1": 1.0}),
    "a bool value": lambda h, t, m: (h, t, {"r0": True}),
    "a float subclass": lambda h, t, m: (h, t, {k: Real(v) for k, v in m.items()}),
    "a MappingProxyType map": lambda h, t, m: (h, t, MappingProxyType(m)),
    "a list candidate": lambda h, t, m: [h, t, m],
    "a str-subclass head": lambda h, t, m: (Id(h), t, m),
    "a str-subclass tail": lambda h, t, m: (h, Id(t), m),
    "drift just inside 1e-12": lambda h, t, m: (h, t, drifted(0.9e-12)),
    "drift just outside 1e-12": lambda h, t, m: (h, t, drifted(1.1e-12)),
    "drift just below 1 inside 1e-12": lambda h, t, m: (h, t, drifted(-0.9e-12)),
    "drift just outside -1e-12": lambda h, t, m: (h, t, drifted(-1.1e-12)),
    "drift just inside 1e-6": lambda h, t, m: (h, t, drifted(0.9e-6)),
    "drift just outside 1e-6": lambda h, t, m: (h, t, drifted(1.1e-6)),
    "drift just outside -1e-6": lambda h, t, m: (h, t, drifted(-1.1e-6)),
    "sum at the low band edge": lambda h, t, m: (h, t, summing_to(0.9)),
    "sum below the low band edge": lambda h, t, m: (h, t, summing_to(nextafter(0.9, 0))),
    "sum at the high band edge": lambda h, t, m: (h, t, summing_to(1.1)),
    "sum above the high band edge": lambda h, t, m: (h, t, summing_to(nextafter(1.1, 2))),
    "a subnormal renormalized": lambda h, t, m: (h, t, {"r3": 5e-324, **summing_to(1.1)}),
    "a value above 1": lambda h, t, m: (h, t, {"r0": 1.5}),
    "a negative value": lambda h, t, m: (h, t, {"r0": -0.25, "r1": 1.0}),
    "an infinite value": lambda h, t, m: (h, t, {"r0": 0.5, "r1": inf}),
    "an integer beyond floats": lambda h, t, m: (h, t, {"r0": 10**400}),
    "a string value": lambda h, t, m: (h, t, {"r0": "0.5", "r1": 0.5}),
    "an unknown label at zero": lambda h, t, m: (h, t, {**m, "zz": 0.0}),
    "an unknown label": lambda h, t, m: (h, t, {"zz": 0.5, "r0": 0.5}),
    "a list map": lambda h, t, m: (h, t, [0.5, 0.5]),
    "an unknown head": lambda h, t, m: ("zz", t, m),
    "an unknown tail": lambda h, t, m: (h, "zz", m),
    "a head not a str": lambda h, t, m: (5, t, m),
    "a tail equal to an id but no str": lambda h, t, m: (h, NotAnId(), m),
    "a self-loop": lambda h, t, m: (h, h, m),
    "a candidate of two": lambda h, t, m: (h, t),
}


@st.composite
def clean_maps(draw):
    """A valid map: non-zero floats whose sum is 1 to within a few ulps."""
    named = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 1000), min_size=len(named),
                            max_size=len(named)))
    return {label: weight / sum(weights) for label, weight in zip(named, weights)}


ENDS = st.tuples(st.sampled_from(IDS), st.sampled_from(IDS)).filter(lambda e: e[0] != e[1])
CANDIDATES = st.lists(st.tuples(ENDS, clean_maps()).map(lambda c: (*c[0], c[1])),
                      min_size=1, max_size=12)
EDITS = st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(CHANGES))),
                 max_size=3)


def edited(candidates, edits):
    """``candidates`` with each named change made at its position; of two
    changes at one candidate, the first is made."""
    out = list(candidates)
    for n, name in {position % len(out): name for position, name in reversed(edits)}.items():
        out[n] = CHANGES[name](*out[n])
    return out


def expressible(candidate) -> bool:
    """Whether a graph document can carry ``candidate`` as it is."""
    if type(candidate) is not tuple or len(candidate) != 3:
        return False
    head, tail, confidences = candidate
    scalar = (str, int, float, bool, type(None))
    return (
        type(head) in scalar and type(tail) in scalar
        and (type(confidences) is list
             or type(confidences) is dict and all(type(v) in scalar
                                                  for v in confidences.values()))
    )


def document(candidates) -> bytes:
    return json.dumps({
        "schema_version": 1,
        "text": TEXT,
        "relation_set": LABELS,
        "entities": [{"id": e.id, "surface": e.surface} for e in ENTITIES],
        "candidates": [{"head": h, "tail": t, "confidences": c} for h, t, c in candidates],
    }).encode("utf-8")


def float32(x: float) -> float:
    return struct.unpack("f", struct.pack("f", x))[0]


#: Changes to every confidence of a graph at once.  All but the first move
#: nearly every sum from 1: as a float32 pipeline's do, by a silent
#: amount, or by enough for a warning.
EVERY_VALUE = {
    "unchanged": lambda p: p,
    "rounded to float32": float32,
    "1e-9 low": lambda p: p * (1 - 1e-9),
    "1e-9 high, at most 1": lambda p: min(p * (1 + 1e-9), 1.0),
    "1e-3 low": lambda p: p * (1 - 1e-3),
}


def every_value(candidates, name):
    change = EVERY_VALUE[name]
    return [(h, t, {label: change(p) for label, p in m.items()}) for h, t, m in candidates]


@settings(max_examples=600, deadline=None)
@given(candidates=CANDIDATES, values=st.sampled_from(list(EVERY_VALUE)), edits=EDITS)
@example(candidates=[("e0", "e1", {"r0": 1.0})] * 3, values="unchanged",
         edits=[(0, "an empty map"),
                (1, "an empty map"),
                (2, "an empty map")])
def test_build_graph_matches_the_walk(candidates, values, edits):
    candidates = edited(every_value(candidates, values), edits)
    expected = outcome(reference, candidates)
    assert outcome(kq.build_graph, candidates) == expected
    if all(map(expressible, candidates)):
        loaded = [tuple(c.values()) for c in json.loads(document(candidates))["candidates"]]
        expected = outcome(reference, loaded)

        def parse(text, labels, entities, given):
            return kq.parse_graph_document(document(given))

        assert outcome(parse, loaded) == expected


BASE = [("e0", "e1", {"r0": 0.25, "r1": 0.75}), ("e1", "e2", {"r2": 1.0}),
        ("e2", "e3", {"r1": 0.5, "r3": 0.5})]


def test_every_change_is_tried_at_the_first_and_a_later_candidate():
    """Each named change on its own, and whole graphs whose every sum
    drifts or whose every map has zeros, so none rests on what
    hypothesis draws."""
    for name in CHANGES:
        for position in (0, 1, 2):
            candidates = edited(BASE, [(position, name)])
            assert outcome(kq.build_graph, candidates) == outcome(reference, candidates), name
    drifting = every_value(BASE * 4, "1e-9 low")
    zero_padded = [(h, t, dict.fromkeys(LABELS, 0.0) | m) for h, t, m in BASE * 4]
    every_empty = [(h, t, {}) for h, t, _ in BASE]
    for candidates in (drifting, zero_padded, edited(drifting, [(5, "an int value")]),
                       every_empty):
        assert outcome(kq.build_graph, candidates) == outcome(reference, candidates)
