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


def semantic_uncertainty(result: SelectionResult, graph: ProbabilityGraph) -> float:
    """Summed entropy of the selected quadruples, in bits."""
    return fsum(graph.quadruples[i].entropy for i in result.selected)


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
    construction, so reports built on it are reproducible.
    """
    sentences = []
    for i in result.selected:
        q = graph.quadruples[i]
        head = graph.entity(q.head).surface
        tail = graph.entity(q.tail).surface
        sentences.append(f"{head} {q.top_relation} {tail}.")
    return " ".join(sentences)


def _selected_entity_ids(
    result: SelectionResult, graph: ProbabilityGraph
) -> list[str]:
    """Distinct entities of the selected quadruples, first-seen order."""
    seen: dict[str, None] = {}
    for i in result.selected:
        q = graph.quadruples[i]
        seen.setdefault(q.head)
        seen.setdefault(q.tail)
    return list(seen)


def _occurrence_table(
    result: SelectionResult,
    graph: ProbabilityGraph,
    recovered_text: str,
    case_insensitive: bool,
) -> dict[str, tuple[int, int]]:
    original = _normalize(graph.text, case_insensitive)
    recovered = _normalize(recovered_text, case_insensitive)
    table = {}
    for entity_id in _selected_entity_ids(result, graph):
        surface = _normalize(graph.entity(entity_id).surface, case_insensitive)
        table[entity_id] = (original.count(surface), recovered.count(surface))
    return table


def _overlap_ratios(counts: Mapping[str, tuple[int, int]]) -> tuple[float, float]:
    """(accuracy, completeness) from per-entity (original, recovered) counts.

    The shared numerator sums min(original, recovered) per entity;
    accuracy divides by the recovered total, completeness by the
    original total.  A zero denominator yields 0 rather than an error:
    empty selections and degenerate texts are legal inputs.
    """
    shared = sum(min(o, r) for o, r in counts.values())
    recovered_total = sum(r for _, r in counts.values())
    original_total = sum(o for o, _ in counts.values())
    accuracy = shared / recovered_total if recovered_total else 0.0
    completeness = shared / original_total if original_total else 0.0
    return accuracy, completeness


def accuracy(
    graph: ProbabilityGraph,
    result: SelectionResult,
    recovered_text: str,
    case_insensitive: bool = False,
) -> float:
    """Fraction of recovered entity mentions matched by the original text."""
    counts = _occurrence_table(result, graph, recovered_text, case_insensitive)
    return _overlap_ratios(counts)[0]


def completeness(
    graph: ProbabilityGraph,
    result: SelectionResult,
    recovered_text: str,
    case_insensitive: bool = False,
) -> float:
    """Fraction of original entity mentions preserved by the recovered text."""
    counts = _occurrence_table(result, graph, recovered_text, case_insensitive)
    return _overlap_ratios(counts)[1]


def similarity(
    graph: ProbabilityGraph,
    result: SelectionResult,
    recovered_text: str,
    phi: float = DEFAULT_PHI,
    case_insensitive: bool = False,
) -> MetricsReport:
    """Full evaluation of a selection against a recovered text.

    The similarity score is theta * A * C / (phi * A + (1 - phi) * C),
    where A is accuracy, C completeness, and theta the summed
    top-relation probabilities of the selection.  phi in [0, 1] steers
    the weighting: phi = 1 reduces the score to theta * C, phi = 0 to
    theta * A.  The score is 0 whenever the denominator is.
    """
    if not 0.0 <= phi <= 1.0:
        raise InvalidPhiError(f"phi must be in [0, 1], got {phi!r}")
    counts = _occurrence_table(result, graph, recovered_text, case_insensitive)
    acc, comp = _overlap_ratios(counts)
    theta = fsum(graph.quadruples[i].top_probability for i in result.selected)
    denominator = phi * acc + (1.0 - phi) * comp
    score = theta * acc * comp / denominator if denominator > 0.0 else 0.0
    return MetricsReport(
        semantic_uncertainty=semantic_uncertainty(result, graph),
        accuracy=acc,
        completeness=comp,
        theta=theta,
        similarity=score,
        phi=phi,
        entity_counts=counts,
    )
