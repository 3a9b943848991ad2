"""Shared test fixtures, random instance generators and the independent
oracles that more than one test module compares with."""

from __future__ import annotations

import json
import pathlib
import struct
from collections import Counter, deque
from math import fsum

import mpmath
import numpy as np
import pytest
from hypothesis import strategies as st

import kgsqueeze as kq

FIXTURE_DIR = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def bruce() -> kq.ProbabilityGraph:
    return kq.parse_graph_document((FIXTURE_DIR / "bruce.json").read_bytes())


@pytest.fixture(scope="session")
def hangzhou() -> kq.ProbabilityGraph:
    return kq.parse_graph_document((FIXTURE_DIR / "hangzhou.json").read_bytes())


def float32_document(path: pathlib.Path) -> bytes:
    """The graph document at ``path`` with every confidence rounded to
    float32, as a float32 extractor would give it, written as
    ``print(json.dumps(...))`` writes it."""
    doc = json.loads(path.read_bytes())
    for c in doc["candidates"]:
        c["confidences"] = {label: struct.unpack("f", struct.pack("f", p))[0]
                            for label, p in c["confidences"].items()}
    sums = [fsum(c["confidences"].values()) for c in doc["candidates"]]
    assert any(abs(total - 1.0) > 1e-12 for total in sums), sums
    return (json.dumps(doc) + "\n").encode()


def random_confidences(
    rng: np.random.Generator, labels: tuple[str, ...]
) -> dict[str, float]:
    """A normalized confidence mapping, sometimes sparse, sometimes one-hot."""
    size = len(labels)
    style = rng.integers(0, 4)
    if style == 0:
        values = np.zeros(size)
        values[rng.integers(0, size)] = 1.0
    else:
        values = rng.random(size) + 1e-9
        if style == 1 and size > 2:
            values[rng.choice(size, size=size // 2, replace=False)] = 0.0
    values = values / values.sum()
    return {label: float(v) for label, v in zip(labels, values) if v > 0.0}


def random_graph(
    rng: np.random.Generator,
    max_entities: int = 12,
    max_quadruples: int = 24,
    connected: bool = False,
) -> kq.ProbabilityGraph:
    """A random valid graph; ``connected`` forces one component via a spine."""
    n = int(rng.integers(2, max_entities + 1))
    labels = tuple(f"r{i}" for i in range(int(rng.integers(2, 9))))
    surfaces = [f"e{i}" for i in range(n)]

    pairs: list[tuple[int, int]] = []
    if connected:
        order = rng.permutation(n)
        pairs += [
            (int(order[i - 1]), int(order[i])) for i in range(1, n)
        ]
    extra = int(rng.integers(1, max_quadruples + 1))
    for _ in range(extra):
        head, tail = rng.choice(n, size=2, replace=False)
        pairs.append((int(head), int(tail)))

    candidates = [
        (surfaces[h], surfaces[t], random_confidences(rng, labels))
        for h, t in pairs
    ]
    # Drawn last, so a seed's other draws stay as they were.  Shuffled and
    # with some missing, the first tokens can break a central-concept tie
    # against declaration order.
    tokens = rng.permutation(n)
    entities = [
        kq.Entity(s, s, int(t) if t % 4 else None) for s, t in zip(surfaces, tokens)
    ]
    return kq.build_graph(" ".join(surfaces), labels, entities, candidates)


def make_result(selected) -> kq.SelectionResult:
    """Hand-built selection for tests that bypass the selector."""
    return kq.SelectionResult(
        selected=tuple(selected),
        quota=len(selected),
        effective_depth=0,
        semantic_uncertainty=0.0,
        relaxation_steps=0,
        disconnected_fallback=False,
        ratio=1.0,
        strategy="proposed",
        seed=None,
    )


#: Texts and surfaces over a tiny alphabet, so overlaps, substrings,
#: case differences and whitespace runs come up often.
SCORING_TEXT = st.text(alphabet="aAb \t\n", max_size=30)
SCORING_SURFACE = st.text(alphabet="aAb \t\n", min_size=1, max_size=6).filter(
    lambda surface: surface.split()
)


def entropy_oracle(probabilities) -> float:
    """Independent oracle: Shannon entropy in bits, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in probabilities:
            if p > 0.0:
                mp = mpmath.mpf(p)
                total -= mp * mpmath.log(mp) / mpmath.log(2)
        return float(total)


def stdlib_layout(value) -> bytes:
    """Independent oracle: ``value`` as ``json.dumps(indent=2)`` lays it
    out, with a final newline, in UTF-8."""
    return (json.dumps(value, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def scanned(text: str, surface: str, case_insensitive: bool) -> int:
    """Independent oracle: non-overlapping occurrences of a surface in a
    text, both whitespace-normalized and casefolded if asked."""
    text, surface = (" ".join(s.split()) for s in (text, surface))
    if case_insensitive:
        text, surface = text.casefold(), surface.casefold()
    return text.count(surface)


def endpoint_slots(graph: kq.ProbabilityGraph) -> Counter[str]:
    """Independent oracle: how many quadruple endpoint slots each entity fills."""
    return Counter(graph.heads + graph.tails)


def central_concept(graph: kq.ProbabilityGraph) -> str:
    """Independent oracle: the entity filling the most endpoint slots; ties
    go to the earliest first token, one without a token last, and then to
    declaration order."""
    slots = endpoint_slots(graph)

    def rank(position: int) -> tuple:
        entity = graph.entities[position]
        token = entity.first_token_index
        return (-slots[entity.id], token is None, token or 0, position)

    return graph.entities[min(range(len(graph.entities)), key=rank)].id


def within_depth(
    graph: kq.ProbabilityGraph, distances: dict[str, float], depth: float
) -> list[int]:
    """Independent oracle: the indices, in input order, of the quadruples
    whose head and tail both lie within ``depth`` in ``distances``."""
    return [
        i for i, (head, tail) in enumerate(zip(graph.heads, graph.tails))
        if distances[head] <= depth and distances[tail] <= depth
    ]


def bfs_distances(graph: kq.ProbabilityGraph, source: str) -> dict[str, float]:
    """Independent oracle: breadth-first hop counts, ignoring direction."""
    adjacency: dict[str, set[str]] = {e.id: set() for e in graph.entities}
    for q in graph.quadruples:
        adjacency[q.head].add(q.tail)
        adjacency[q.tail].add(q.head)
    dist: dict[str, float] = {e.id: kq.UNREACHABLE for e in graph.entities}
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if dist[neighbor] == kq.UNREACHABLE:
                dist[neighbor] = dist[node] + 1
                queue.append(neighbor)
    return dist
