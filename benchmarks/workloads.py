"""Seeded synthetic graph documents for the three benchmark workloads.

Every workload has a fixed shape (entity count, quadruple count, text
length, path structure); the seed only changes names, confidences,
which pairs are linked and the order of the candidates.  The work a run
does is therefore nearly the same for every seed, which is what keeps
run-to-run spread small.

Confidences are multiples of 1/1024 that sum to exactly 1, so no graph
is renormalized on ingestion and the reference checker needs no
knowledge of how the program renormalizes.

- ``wide-graph``: 300 entities, 1500 random undirected pairs on top of a
  ring, short text, depth 8 (at least the diameter, so no relaxation)
  and K of at most 0.1, so the recovered text stays short.  The O(n^3)
  Floyd-Warshall pass dominates every selection.
- ``long-chain``: an 80-entity path with 40 parallel quadruples per hop,
  one spoke at its first entity, and an 11-entity path the first entity
  cannot reach; depth 0 and a low-K grid.  Selections relax the depth
  hop by hop, rescanning every quadruple at each step; the timed
  ``select`` (K = 0.9) also needs the disconnected fallback.
- ``long-text``: 100 entities, 300 quadruples and a ~5.7k-character text
  that mentions them 260 times, with the full default K grid and 3
  random runs.  Scoring, which re-normalizes the whole text once per
  selected entity, dominates every evaluation.

Run ``python3 benchmarks/workloads.py`` to print each workload's make-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

RELATIONS = tuple(f"relation {i:02d}" for i in range(12))
SYLLABLES = (
    "ka", "ro", "mi", "ten", "sa", "vel", "dor", "lu",
    "pha", "quin", "bri", "zo", "mar", "el", "tho", "nu",
)
VERBS = ("met", "joined", "visited", "wrote to", "followed", "praised", "led")
FILLERS = ("today", "again", "in spring", "at dawn", "with care", "once more")
#: Confidence numerators are integers over this denominator (a power of 2).
DENOMINATOR = 1024

NAMES = ("wide-graph", "long-chain", "long-text")


@dataclass(frozen=True)
class Workload:
    """One generated graph document plus the command parameters run on it.

    ``select_k`` is the ratio of the timed ``select``; ``depth`` is used by
    both ``select`` and ``sweep``.  ``repeats`` is how many ``select`` and
    ``metrics`` calls one round makes next to its one ``sweep``.
    """

    document: bytes
    select_k: float
    depth: int
    k_from: float
    k_to: float
    k_step: float
    runs: int
    repeats: int


def _surfaces(rng: random.Random, count: int) -> list[str]:
    def word() -> str:
        size = rng.choice((2, 2, 3))
        return "".join(rng.choice(SYLLABLES) for _ in range(size)).capitalize()

    seen: set[str] = set()
    out = []
    while len(out) < count:
        surface = f"{word()} {word()}"
        if surface not in seen:
            seen.add(surface)
            out.append(surface)
    return out


def _confidences(rng: random.Random) -> dict[str, float]:
    """1 to 3 labels with dyadic weights summing to exactly 1."""
    labels = rng.sample(RELATIONS, rng.choice((1, 2, 2, 3, 3)))
    cuts = sorted(rng.sample(range(1, DENOMINATOR), len(labels) - 1))
    bounds = [0, *cuts, DENOMINATOR]
    return {
        label: (bounds[i + 1] - bounds[i]) / DENOMINATOR
        for i, label in enumerate(labels)
    }


class _Text:
    """Builds the source text and records each entity's first token index."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.tokens = 0
        self.first: dict[int, int] = {}

    def sentence(self, rng: random.Random, surfaces: list[str], a: int, b: int) -> None:
        words = []
        for entity, lead in ((a, ()), (b, tuple(rng.choice(VERBS).split()))):
            words.extend(lead)
            self.first.setdefault(entity, self.tokens + len(words))
            words.extend(surfaces[entity].split())
        words.extend(rng.choice(FILLERS).split())
        self.tokens += len(words)
        # Paragraph breaks and doubled spaces make whitespace
        # normalization matter when counting mentions.
        gap = rng.choice(("\n\n", "  ", " ", " ", " ")) if self.parts else ""
        self.parts.append(gap + " ".join(words) + ".")

    def text(self) -> str:
        return "".join(self.parts)


def _document(
    rng: random.Random,
    surfaces: list[str],
    pairs: list[tuple[int, int]],
    text: _Text,
) -> bytes:
    """Serialize entities and one candidate per pair, in shuffled order."""
    order = list(pairs)
    rng.shuffle(order)
    candidates = []
    for a, b in order:
        head, tail = (a, b) if rng.random() < 0.5 else (b, a)
        candidates.append(
            {"head": f"e{head:04d}", "tail": f"e{tail:04d}",
             "confidences": _confidences(rng)}
        )
    entities = []
    for i, surface in enumerate(surfaces):
        entity: dict[str, object] = {"id": f"e{i:04d}", "surface": surface}
        if i in text.first:
            entity["first_token_index"] = text.first[i]
        entities.append(entity)
    doc = {
        "schema_version": 1,
        "text": text.text(),
        "relation_set": list(RELATIONS),
        "entities": entities,
        "candidates": candidates,
    }
    return json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _random_pairs(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """A ring over a random permutation (so the graph is connected) plus
    random chords, ``count`` distinct unordered pairs in all."""
    perm = list(range(n))
    rng.shuffle(perm)
    pairs = {tuple(sorted((perm[i], perm[(i + 1) % n]))) for i in range(n)}
    while len(pairs) < count:
        a, b = rng.sample(range(n), 2)
        pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


def wide_graph(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"wide-graph/{seed}")
    n = max(12, round(300 * scale))
    surfaces = _surfaces(rng, n)
    pairs = _random_pairs(rng, n, 5 * n)
    text = _Text()
    for _ in range(max(4, round(40 * scale))):
        text.sentence(rng, surfaces, *rng.sample(range(n), 2))
    return Workload(
        _document(rng, surfaces, pairs, text),
        select_k=0.05, depth=8, k_from=0.05, k_to=0.1, k_step=0.05,
        runs=1, repeats=3,
    )


def long_chain(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"long-chain/{seed}")
    length = max(8, round(80 * scale))
    stranded = max(3, round(11 * scale))
    per_hop = 40
    # The path e0 - e1 - ... - e(length-1), a spoke e0 - e(length), and an
    # island path over the last ``stranded`` entities that e0 cannot reach.
    # e0 has as many endpoint slots as any inner node and is mentioned
    # first, so the documented tie-break makes it the central concept.
    hops = [(i, i + 1) for i in range(length - 1)] + [(0, length)]
    island = range(length + 1, length + 1 + stranded)
    hops += list(zip(island, island[1:]))
    surfaces = _surfaces(rng, length + 1 + stranded)
    pairs = [hop for hop in hops for _ in range(per_hop)]
    text = _Text()
    for a, b in hops:
        text.sentence(rng, surfaces, a, b)
    return Workload(
        _document(rng, surfaces, pairs, text),
        select_k=0.9, depth=0, k_from=0.05, k_to=0.25, k_step=0.1,
        runs=2, repeats=2,
    )


def long_text(seed: int, scale: float = 1.0) -> Workload:
    rng = random.Random(f"long-text/{seed}")
    n = max(10, round(100 * scale))
    surfaces = _surfaces(rng, n)
    pairs = _random_pairs(rng, n, 3 * n)
    # Zipf-like mention weights: a few entities dominate the text.
    weights = [1.0 / (rank + 1) for rank in range(n)]
    text = _Text()
    for _ in range(max(20, round(130 * scale))):
        a = b = rng.choices(range(n), weights)[0]
        while b == a:
            b = rng.choices(range(n), weights)[0]
        text.sentence(rng, surfaces, a, b)
    return Workload(
        _document(rng, surfaces, pairs, text),
        select_k=0.3, depth=2, k_from=0.1, k_to=1.0, k_step=0.1,
        runs=3, repeats=4,
    )


_MAKERS = {"wide-graph": wide_graph, "long-chain": long_chain, "long-text": long_text}


def make(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload ``name`` generated from ``seed``."""
    return _MAKERS[name](seed, scale)


if __name__ == "__main__":
    import reference

    for name in NAMES:
        workload = make(name, 1)
        print(name, json.dumps(reference.describe(workload)))
