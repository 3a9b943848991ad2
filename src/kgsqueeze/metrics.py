"""Evaluating a selection: uncertainty of the kept quadruples and
similarity between the text they verbalize and the original text.

Semantic uncertainty is the summed entropy of the selection, in bits;
lower means the kept relations are more explicit.  Semantic similarity
compares entity occurrence counts between the original text and a
recovered text: accuracy normalizes the overlap by the recovered counts,
completeness by the original counts, and the similarity score combines
both in a weighted harmonic form scaled by the summed top-relation
probabilities of the selection.

The recovered text is pluggable.  ``verbalize`` renders a deterministic
one-sentence-per-quadruple stand-in; callers with an external recovery
model (e.g. a generative one) pass its output instead.

What depends on the graph alone is computed once per graph object, on
first use, and kept in its instance ``__dict__``: each quadruple's
sentence, and per case mode the normalized original text plus each
entity's normalized surface and its count there.  A scoring then only
normalizes and counts in the recovered text.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import fsum

from .errors import InvalidPhiError
from .graph import ProbabilityGraph
from .selection import SelectionResult

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
    """
    # Kept in the graph's instance __dict__ like its entity index, so
    # outside equality and hashing; filled one quadruple at a time.
    sentences = graph.__dict__.setdefault("_sentences", {})
    for i in result.selected:
        if i not in sentences:
            q = graph.quadruples[i]
            head = graph.entity(q.head).surface
            tail = graph.entity(q.tail).surface
            sentences[i] = f"{head} {q.top_relation} {tail}."
    return " ".join([sentences[i] for i in result.selected])


def _original_counts(
    graph: ProbabilityGraph, case_insensitive: bool
) -> tuple[str, dict[str, tuple[str, int]]]:
    """The graph's normalized text and, per entity id counted so far, its
    normalized surface and that surface's count in the text; one pair per
    case mode, kept in the graph's instance ``__dict__``.  ``similarity``
    fills the map one entity at a time.
    """
    modes = graph.__dict__.setdefault("_original_counts", {})
    entry = modes.get(case_insensitive)
    if entry is None:
        entry = modes.setdefault(
            case_insensitive, (_normalize(graph.text, case_insensitive), {})
        )
    return entry


def similarity(
    graph: ProbabilityGraph,
    result: SelectionResult,
    recovered_text: str,
    phi: float = DEFAULT_PHI,
    case_insensitive: bool = False,
) -> MetricsReport:
    """Full evaluation of a selection against a recovered text.

    Each distinct entity of the selected quadruples (heads and tails, in
    first-seen order) is counted in both whitespace-normalized texts, as
    ``count_occurrences`` counts.  The shared count sums min(original,
    recovered) per entity; accuracy A divides it by the recovered total,
    completeness C by the original total, and a zero denominator gives 0
    rather than an error: empty selections and degenerate texts are legal
    inputs.

    The similarity score is theta * A * C / (phi * A + (1 - phi) * C),
    where theta is the summed top-relation probabilities of the
    selection.  phi in [0, 1] steers the weighting: phi = 1 reduces the
    score to theta * C, phi = 0 to theta * A.  The score is 0 whenever
    the denominator is.

    The original text and each entity's count in it are taken once per
    graph object and case mode; ``entity_counts`` is a fresh dict on
    every call.
    """
    if not 0.0 <= phi <= 1.0:
        raise InvalidPhiError(f"phi must be in [0, 1], got {phi!r}")
    original, surfaces = _original_counts(graph, case_insensitive)
    recovered = _normalize(recovered_text, case_insensitive)
    counts = {}
    for i in result.selected:
        q = graph.quadruples[i]
        for entity_id in (q.head, q.tail):
            if entity_id not in counts:
                if entity_id not in surfaces:
                    surface = _normalize(graph.entity(entity_id).surface, case_insensitive)
                    surfaces[entity_id] = (surface, original.count(surface))
                surface, in_original = surfaces[entity_id]
                counts[entity_id] = (in_original, recovered.count(surface))
    shared = sum(min(o, r) for o, r in counts.values())
    original_total = sum(o for o, _ in counts.values())
    recovered_total = sum(r for _, r in counts.values())
    acc = shared / recovered_total if recovered_total else 0.0
    comp = shared / original_total if original_total else 0.0
    uncertainty = fsum(graph.quadruples[i].entropy for i in result.selected)
    theta = fsum(graph.quadruples[i].top_probability for i in result.selected)
    denominator = phi * acc + (1.0 - phi) * comp
    score = theta * acc * comp / denominator if denominator > 0.0 else 0.0
    return MetricsReport(
        semantic_uncertainty=uncertainty,
        accuracy=acc,
        completeness=comp,
        theta=theta,
        similarity=score,
        phi=phi,
        entity_counts=counts,
    )
