"""Shared test fixtures: bundled graphs and random instance generators."""

from __future__ import annotations

import json
import pathlib
import struct
from math import fsum

import numpy as np
import pytest

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
    entities = [kq.Entity(s, s, i) for i, s in enumerate(surfaces)]

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
    return kq.build_graph(" ".join(surfaces), labels, entities, candidates)


def bfs_distances(graph: kq.ProbabilityGraph, source: str) -> dict[str, float]:
    """Independent oracle: breadth-first hop counts, ignoring direction."""
    from collections import deque

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
