"""Evaluating a selection: uncertainty of the kept quadruples and
similarity between the text they verbalize and the original text.

Semantic uncertainty is the summed entropy of the selection, in bits;
lower means the kept relations are more explicit.  Semantic similarity
compares entity occurrence counts between the original text and a
recovered text: accuracy normalizes the overlap by the recovered counts,
completeness by the original counts, and the similarity score combines
both in a weighted harmonic form scaled by the summed top-relation
probabilities of the selection.

The recovered text is pluggable.  By default (``None``) it is the
built-in verbalization, which ``verbalize`` renders as a deterministic
one-sentence-per-quadruple stand-in; callers with an external recovery
model (e.g. a generative one) pass its output as a ``str`` instead.

There is one scoring core, a tally over a growing sequence of selected
indices, and ``similarity`` wraps it; a sweep extends one tally per
strategy while each selection starts with the previous one.  What
depends on the graph alone is derived once per graph object (see the
``graph`` module): each quadruple's sentence, and per case mode the
normalized original text, every entity's normalized surface and, per
entity first tallied, one record of its surface, its count in the
original text and whether the surface is plain (see ``similarity``).
A tally keeps each entity's incidence and running integer sums; it
counts only in the recovered text, and not even there for a plain
surface when no text is given: its count in the built-in verbalization
is then how often its entity is a selected endpoint, and no text is
rendered unless a selected surface is not plain.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from math import fsum

from .errors import InvalidPhiError
from .graph import ProbabilityGraph, _EntityIndex, _derived, _take
from .selection import SelectionResult, _check_in_range, _is_int

#: Default accuracy/completeness weight: both contribute equally.
DEFAULT_PHI = 0.5


@dataclass(frozen=True)
class MetricsReport:
    """All evaluation figures for one selection against a pair of texts.

    ``theta`` is the summed top-relation probability of the selection
    (so it grows with the selection size, and ``similarity`` with it);
    ``entity_counts`` maps each selected entity id to its occurrence
    counts (original text, recovered text).
    """

    semantic_uncertainty: float
    accuracy: float
    completeness: float
    theta: float
    similarity: float
    phi: float
    entity_counts: Mapping[str, tuple[int, int]]


def _normalize(text: str, case_insensitive: bool) -> str:
    """Collapse whitespace runs to single spaces, then casefold if asked."""
    text = " ".join(text.split())
    return text.casefold() if case_insensitive else text


def count_occurrences(
    text: str, entity_surface: str, case_insensitive: bool = False
) -> int:
    """Non-overlapping occurrences of a surface string in a text.

    Both sides are whitespace-normalized first; matching scans left to
    right, so in "aaa" the surface "aa" occurs once.  Case-sensitive
    unless asked otherwise.  A surface that is empty after normalization
    raises ValueError.
    """
    surface = _normalize(entity_surface, case_insensitive)
    if not surface:
        raise ValueError("entity surface must contain a non-whitespace character")
    return _normalize(text, case_insensitive).count(surface)


def verbalize(result: SelectionResult, graph: ProbabilityGraph) -> str:
    """Render the selection as text, one sentence per quadruple.

    Each sentence is "<head surface> <top relation> <tail surface>.", in
    selection order, joined by single spaces.  Deterministic by
    construction, so reports built on it are reproducible.  A quadruple's
    sentence is rendered on its first use and kept on the graph object.
    A selected index outside the graph raises SelectionMismatchError.
    """
    _check_in_range(graph, result.selected)
    return " ".join(_sentences(graph, result.selected))


def _sentences(graph: ProbabilityGraph, indices: Sequence[int]) -> tuple[str, ...]:
    """The sentences of ``indices``, in order, each rendered on its first use."""
    sentences = _derived(graph, "_sentences", lambda graph: {})
    for i in indices:
        if i not in sentences:
            sentences[i] = _sentence(graph, i)
    return _take(sentences, indices)


def _sentence(graph: ProbabilityGraph, i: int) -> str:
    by_id = _derived(graph, "_by_id", _EntityIndex)
    head, tail = by_id[graph.heads[i]].surface, by_id[graph.tails[i]].surface
    return f"{head} {graph.top_relations[i]} {tail}."


def _scoring_facts(
    graph: ProbabilityGraph, case_insensitive: bool
) -> tuple[str, dict[str, str], str, str, frozenset[str], dict[str, tuple]]:
    """The normalized original text, every entity's normalized surface by
    id, those surfaces joined by newlines, the normalized relation labels
    framed by newlines and as a set, and the entity records, a map
    ``_Tally`` fills one entity at a time with (surface, count in the
    original text, whether the surface is plain), the flag ``None`` until
    the built-in verbalization is tallied.
    """
    surfaces = {e.id: _normalize(e.surface, case_insensitive) for e in graph.entities}
    labels = [_normalize(label, case_insensitive) for label in graph.relation_set]
    return (
        _normalize(graph.text, case_insensitive),
        surfaces,
        "\n".join(surfaces.values()),
        "\n" + "\n".join(labels) + "\n",
        frozenset(labels),
        {},
    )


def _is_plain(
    surface: str, surfaces: str, labels: str, label_set: frozenset[str]
) -> bool:
    """Whether a normalized surface can occur in a normalized verbalization
    only where its own entity is a head or a tail.

    Each sentence normalizes to "<head> <label> <tail>." (or "... <tail> ."),
    so an occurrence without a "." lies inside one surface or label, or
    straddles the spaces between them.  ``surfaces`` and ``labels`` are
    the graph's normalized surfaces joined by newlines and its normalized
    labels framed by newlines; neither holds a newline otherwise.
    """
    if "." in surface or surfaces.count(surface) != 1 or surface in labels:
        return False
    words = surface.split(" ")
    for k in range(1, len(words)):
        # Straddling head|label, the part after the space starts a label;
        # straddling label|tail, the part before it ends one.
        before, after = " ".join(words[:k]), " ".join(words[k:])
        if f"\n{after}" in labels or f"{before}\n" in labels:
            return False
    # Or a whole label lies between the end of a head and the start of a tail.
    return not any(
        " ".join(words[a:b]) in label_set
        for a in range(1, len(words))
        for b in range(a + 1, len(words))
    )


def _check_phi(phi: object) -> None:
    """Refuse a phi that is not an int or a float (a bool is neither) in
    [0, 1] with InvalidPhiError."""
    if not (_is_int(phi) or isinstance(phi, float)):
        raise InvalidPhiError(
            f"phi must be a number (an int or a float), got {phi!r}"
        )
    if not 0.0 <= phi <= 1.0:
        raise InvalidPhiError(f"phi must be in [0, 1], got {phi!r}")


class _Tally:
    """The one scoring core: a tally over a growing sequence of selected
    indices, which ``similarity`` wraps and a sweep extends.

    The recovered text is fixed when the tally is made: ``None`` for the
    built-in verbalization, or a ``str`` scored as given.  The tally keeps
    each selected entity's incidence (how often it is a selected head or
    tail) in first-seen order, and running integer sums.  Without a text,
    a plain surface's incidence is its recovered count; the other
    surfaces, and every surface of a given text, are counted in the text
    when ``read``.  Every figure is a function of the sequence alone, so
    extending a tally by a suffix gives what tallying the whole sequence
    gives.
    """

    def __init__(
        self,
        graph: ProbabilityGraph,
        case_insensitive: bool = False,
        recovered_text: str | None = None,
    ) -> None:
        self.graph = graph
        self.case_insensitive = case_insensitive
        self.recovered_text = recovered_text
        self.facts = _derived(graph, "_scoring_facts", _scoring_facts, case_insensitive)
        #: The graph's entity records for this case mode (see ``_scoring_facts``).
        self.records = self.facts[5]
        self.selected: tuple[int, ...] = ()
        self.incidence: dict[str, int] = {}
        #: Entities counted in the text when read, in first-seen order.
        self.scanned: list[str] = []
        self.shared = self.original = self.recovered = 0

    def extend(self, indices: Sequence[int]) -> None:
        """Append ``indices`` to the tallied sequence."""
        graph = self.graph
        original, surfaces, joined, labels, label_set, records = self.facts
        verbalized = self.recovered_text is None
        incidence, scanned = self.incidence, self.scanned
        shared, in_original_total, recovered = self.shared, self.original, self.recovered
        added = Counter(chain.from_iterable(
            zip(_take(graph.heads, indices), _take(graph.tails, indices))
        ))
        for entity_id, more in added.items():
            record = records.get(entity_id)
            if record is None or verbalized and record[2] is None:
                surface = surfaces[entity_id]
                record = records[entity_id] = (
                    surface,
                    original.count(surface) if record is None else record[1],
                    _is_plain(surface, joined, labels, label_set) if verbalized else None,
                )
            _, in_original, plain = record
            before = incidence.get(entity_id, 0)
            incidence[entity_id] = now = before + more
            if not before:
                in_original_total += in_original
                if not (verbalized and plain):
                    scanned.append(entity_id)
            if verbalized and plain:
                # A plain surface's count in the verbalization is its incidence.
                recovered += more
                if before < in_original:
                    shared += (now if now < in_original else in_original) - before
        self.shared, self.original, self.recovered = shared, in_original_total, recovered
        self.selected += tuple(indices)

    def read(
        self, phi: float
    ) -> tuple[float, float, float, float, dict[str, tuple[int, int]]]:
        """Accuracy, completeness, theta and the similarity score, and the
        (original, recovered) counts of each entity counted in the text.

        The built-in verbalization is rendered only when a surface must be
        counted in it.
        """
        shared, recovered = self.shared, self.recovered
        counts = {}
        if self.scanned:
            recovered_text = self.recovered_text
            if recovered_text is None:
                recovered_text = " ".join(_sentences(self.graph, self.selected))
            text = _normalize(recovered_text, self.case_insensitive)
            records = self.records
            for entity_id in self.scanned:
                surface, in_original, _ = records[entity_id]
                in_recovered = text.count(surface)
                counts[entity_id] = (in_original, in_recovered)
                shared += min(in_original, in_recovered)
                recovered += in_recovered
        acc = shared / recovered if recovered else 0.0
        comp = shared / self.original if self.original else 0.0
        theta = fsum(_take(self.graph.top_probabilities, self.selected))
        denominator = phi * acc + (1.0 - phi) * comp
        score = theta * acc * comp / denominator if denominator > 0.0 else 0.0
        return acc, comp, theta, score, counts


def similarity(
    graph: ProbabilityGraph,
    result: SelectionResult,
    recovered_text: str | None = None,
    phi: float = DEFAULT_PHI,
    case_insensitive: bool = False,
) -> MetricsReport:
    """Full evaluation of a selection against a recovered text: the
    built-in verbalization when ``recovered_text`` is None, else the
    given ``str`` as it is.

    Each distinct entity of the selected quadruples (heads and tails, in
    first-seen order) is counted in both whitespace-normalized texts, as
    ``count_occurrences`` counts.  The shared count sums min(original,
    recovered) per entity; accuracy A divides it by the recovered total,
    completeness C by the original total, and a zero denominator gives 0
    rather than an error: empty selections and degenerate texts are legal
    inputs.

    The similarity score is theta * A * C / (phi * A + (1 - phi) * C),
    where theta is the summed top-relation probabilities of the
    selection.  phi, an int or a float in [0, 1], steers the weighting:
    phi = 1 reduces the score to theta * C, phi = 0 to theta * A.  The
    score is 0 whenever the denominator is.  A ``recovered_text`` that
    is neither a ``str`` nor None raises TypeError before any work, any
    other phi InvalidPhiError, and a selected index outside the graph
    SelectionMismatchError.

    Without a ``recovered_text``, a plain surface is not searched for: it
    occurs in the verbalization once per selected quadruple with its
    entity as head or tail, so that incidence is its count, the same
    number scanning ``verbalize(result, graph)`` gives.  A normalized
    surface is plain when it holds no ".", lies inside no other entity's
    surface (two entities with one surface are not plain) and no relation
    label, and cannot straddle the space between a head and a label or a
    label and a tail.  The verbalization is rendered and normalized only when a
    selected surface is not plain.  A given text is always scanned, even
    one equal to the verbalization, with the same report.

    The original text and each surface are normalized, and each entity's
    count in the original and whether its surface is plain are decided,
    once per graph object and case mode; ``entity_counts`` is a fresh
    dict on every call.
    """
    if not (recovered_text is None or isinstance(recovered_text, str)):
        kind = type(recovered_text).__name__
        raise TypeError(f"recovered_text must be a str or None, got {kind}")
    _check_phi(phi)
    selected = result.selected
    _check_in_range(graph, selected)
    tally = _Tally(graph, case_insensitive, recovered_text)
    tally.extend(selected)
    acc, comp, theta, score, scanned = tally.read(phi)
    return MetricsReport(
        semantic_uncertainty=fsum(_take(graph.entropies, selected)),
        accuracy=acc,
        completeness=comp,
        theta=theta,
        similarity=score,
        phi=phi,
        entity_counts={
            entity_id: scanned.get(entity_id) or (tally.records[entity_id][1], incidence)
            for entity_id, incidence in tally.incidence.items()
        },
    )
