"""Independent reference computation for checking kgsqueeze's outputs.

Uses only the standard library and works from the graph document
itself, never from kgsqueeze functions, following the rules the
project README states:

- entropy in bits of each candidate's confidences;
- the central concept (most endpoint slots, then smallest first token
  index, then declaration order);
- breadth-first hop distances from it, edge direction ignored;
- quota ``clamp(floor(K * G + 0.5), 1, G)``;
- depth relaxation one hop at a time up to the largest finite distance,
  then the disconnected fallback;
- the optimal semantic uncertainty, the sum of the H smallest entropies
  in that pool (ties to input order);
- accuracy, completeness, theta and the similarity score against the
  verbalized selection.

The ``check_*`` functions return a list of problems, empty when the
output agrees.
"""

from __future__ import annotations

import csv
import io
import json
from collections import deque
from dataclasses import dataclass
from math import floor, fsum, inf, log2

STRATEGIES = (
    "proposed", "random", "entity_freq_desc", "entity_freq_asc",
    "order_front", "order_back",
)
PHI = 0.5
#: Relative tolerance for reals the program prints (9 significant digits).
TOLERANCE = 1e-8


@dataclass(frozen=True)
class Quad:
    head: str
    tail: str
    entropy: float
    relation: str
    probability: float


class Graph:
    """The parts of a graph document the reference needs."""

    def __init__(self, document: bytes) -> None:
        doc = json.loads(document)
        self.text: str = doc["text"]
        labels = doc["relation_set"]
        self.entities = [
            (e["id"], e["surface"], e.get("first_token_index"))
            for e in doc["entities"]
        ]
        self.surface = {entity_id: surface for entity_id, surface, _ in self.entities}
        self.quads = []
        for c in doc["candidates"]:
            raw = [float(c["confidences"].get(label, 0.0)) for label in labels]
            total = fsum(raw)
            probs = raw if total == 1.0 else [p / total for p in raw]
            entropy = -fsum(p * log2(p) for p in probs if p > 0.0) + 0.0
            top = max(range(len(probs)), key=probs.__getitem__)
            self.quads.append(Quad(c["head"], c["tail"], entropy, labels[top], probs[top]))
        self.center = self._central_concept()
        self.distance = self.bfs(self.center)

    def _central_concept(self) -> str:
        slots = {entity_id: 0 for entity_id, _, _ in self.entities}
        for q in self.quads:
            slots[q.head] += 1
            slots[q.tail] += 1
        ranked = sorted(
            (-slots[entity_id], inf if index is None else index, pos, entity_id)
            for pos, (entity_id, _, index) in enumerate(self.entities)
        )
        return ranked[0][3]

    def neighbours(self) -> dict[str, set[str]]:
        adjacent: dict[str, set[str]] = {e: set() for e, _, _ in self.entities}
        for q in self.quads:
            adjacent[q.head].add(q.tail)
            adjacent[q.tail].add(q.head)
        return adjacent

    def bfs(self, source: str, adjacent: dict[str, set[str]] | None = None) -> dict[str, int]:
        """Hop distance of every entity reachable from ``source``."""
        adjacent = adjacent or self.neighbours()
        distance = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for other in adjacent[node]:
                if other not in distance:
                    distance[other] = distance[node] + 1
                    queue.append(other)
        return distance


def quota(ratio: float, total: int) -> int:
    return min(max(floor(ratio * total + 0.5), 1), total)


def grid(k_from: float, k_to: float, k_step: float) -> list[float]:
    points = floor((k_to - k_from) / k_step + 1e-9) + 1
    return [min(k_from + i * k_step, k_to) for i in range(points)]


@dataclass(frozen=True)
class Expected:
    """What a proposed selection at one K must look like."""

    selected: tuple[int, ...]
    quota: int
    effective_depth: int
    relaxation_steps: int
    fallback: bool
    SU: float
    A: float
    C: float
    theta: float
    SS: float
    counts: dict[str, tuple[int, int]]


def pool(graph: Graph, target: int, max_depth: int) -> tuple[list[int], int, bool]:
    """Candidate indices after relaxation and fallback, the depth used,
    and whether the fallback fired."""
    distance = graph.distance
    deepest = max(distance.values())

    def within(depth: int) -> list[int]:
        return [
            i for i, q in enumerate(graph.quads)
            if distance.get(q.head, inf) <= depth and distance.get(q.tail, inf) <= depth
        ]

    depth = max_depth
    found = within(depth)
    while len(found) < target and depth < deepest:
        depth += 1
        found = within(depth)
    fallback = len(found) < target
    if fallback:
        inside = set(found)
        found += [i for i in range(len(graph.quads)) if i not in inside]
    return found, depth, fallback


def normalize(text: str) -> str:
    return " ".join(text.split())


def verbalize(graph: Graph, selected: tuple[int, ...]) -> str:
    return " ".join(
        f"{graph.surface[q.head]} {q.relation} {graph.surface[q.tail]}."
        for q in (graph.quads[i] for i in selected)
    )


def scores(graph: Graph, selected: tuple[int, ...], phi: float = PHI):
    """(A, C, theta, SS, per-entity (original, recovered) counts)."""
    recovered = normalize(verbalize(graph, selected))
    original = normalize(graph.text)
    counts = {}
    for i in selected:
        for entity_id in (graph.quads[i].head, graph.quads[i].tail):
            if entity_id not in counts:
                surface = normalize(graph.surface[entity_id])
                counts[entity_id] = (original.count(surface), recovered.count(surface))
    shared = sum(min(o, r) for o, r in counts.values())
    recovered_total = sum(r for _, r in counts.values())
    original_total = sum(o for o, _ in counts.values())
    a = shared / recovered_total if recovered_total else 0.0
    c = shared / original_total if original_total else 0.0
    theta = fsum(graph.quads[i].probability for i in selected)
    denominator = phi * a + (1.0 - phi) * c
    ss = theta * a * c / denominator if denominator > 0.0 else 0.0
    return a, c, theta, ss, counts


def proposed(graph: Graph, ratio: float, max_depth: int) -> Expected:
    target = quota(ratio, len(graph.quads))
    found, depth, fallback = pool(graph, target, max_depth)
    selected = tuple(sorted(found, key=lambda i: (graph.quads[i].entropy, i))[:target])
    a, c, theta, ss, counts = scores(graph, selected)
    return Expected(
        selected, target, depth, depth - max_depth, fallback,
        fsum(graph.quads[i].entropy for i in selected), a, c, theta, ss, counts,
    )


def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= TOLERANCE * max(1.0, abs(expected))


def check_selection(document: bytes, expected: Expected) -> list[str]:
    """A ``select --strategy proposed`` document against the reference."""
    doc = json.loads(document)
    problems = []
    selected = tuple(item["index"] for item in doc["selected"])
    if selected != expected.selected:
        problems.append("selected indices differ from the optimal selection")
    for key, want in (
        ("H", expected.quota),
        ("effective_depth", expected.effective_depth),
        ("relaxation_steps", expected.relaxation_steps),
        ("disconnected_fallback", expected.fallback),
    ):
        if doc[key] != want:
            problems.append(f"select {key}={doc[key]!r}, expected {want!r}")
    if not _close(doc["SU"], expected.SU):
        problems.append(f"select SU={doc['SU']!r}, expected {expected.SU!r}")
    return problems


def check_metrics(output: str, expected: Expected) -> list[str]:
    """``metrics`` stdout (built-in verbalizer, default phi) against the reference."""
    doc = json.loads(output)
    problems = []
    for key, want in (("SU", expected.SU), ("A", expected.A), ("C", expected.C),
                      ("theta", expected.theta), ("SS", expected.SS)):
        if not _close(doc[key], want):
            problems.append(f"metrics {key}={doc[key]!r}, expected {want!r}")
    if doc["H"] != expected.quota:
        problems.append(f"metrics H={doc['H']!r}, expected {expected.quota!r}")
    counts = {
        entity_id: (c["original"], c["recovered"])
        for entity_id, c in doc["entity_counts"].items()
    }
    if counts != expected.counts:
        problems.append("metrics entity_counts differ from the reference counts")
    return problems


def check_sweep(
    table: bytes,
    dump: bytes,
    graph: Graph,
    ratios: list[float],
    depth: int,
    runs: int,
) -> list[str]:
    """Properties every sweep must have, and the proposed rows against the
    reference at each K."""
    rows = list(csv.DictReader(io.StringIO(table.decode("utf-8"))))
    problems = []
    if len(rows) != len(ratios) * len(STRATEGIES):
        problems.append(f"sweep has {len(rows)} rows, expected {len(ratios) * len(STRATEGIES)}")
    at: dict[tuple[str, float], dict[str, str]] = {}
    for row in rows:
        at[row["strategy"], float(row["K"])] = row
        want_runs = runs if row["strategy"] == "random" else 1
        if int(row["runs_averaged"]) != want_runs:
            problems.append(f"{row['strategy']} K={row['K']} runs_averaged={row['runs_averaged']}")
    for exact in ratios:
        ratio = float(format(exact, ".9g"))
        missing = [s for s in STRATEGIES if (s, ratio) not in at]
        if missing:
            problems.append(f"K={ratio}: no row for {missing}")
            continue
        best = at["proposed", ratio]
        expected = proposed(graph, exact, depth)
        for key, want in (("SU", expected.SU), ("SS", expected.SS), ("A", expected.A),
                          ("C", expected.C), ("theta", expected.theta)):
            if not _close(float(best[key]), want):
                problems.append(f"proposed K={ratio} {key}={best[key]}, expected {want!r}")
        for key, want in (("H", expected.quota), ("effective_depth", expected.effective_depth)):
            if int(best[key]) != want:
                problems.append(f"proposed K={ratio} {key}={best[key]}, expected {want}")
        for strategy in STRATEGIES[1:]:
            row = at[strategy, ratio]
            if float(best["SU"]) > float(row["SU"]) * (1 + TOLERANCE):
                problems.append(f"K={ratio}: proposed SU above {strategy}")
            if (row["H"], row["effective_depth"]) != (best["H"], best["effective_depth"]):
                problems.append(f"K={ratio}: {strategy} quota or depth differs from proposed")
            if ratio == 1.0:
                for key in ("SU", "SS", "A", "C", "theta"):
                    if not _close(float(row[key]), float(best[key])):
                        problems.append(f"K=1: {strategy} {key} differs from proposed")
    dumped = dump.decode("utf-8").splitlines()
    if len(dumped) != 1 + len(ratios) * runs:
        problems.append(f"dump-runs has {len(dumped) - 1} runs, expected {len(ratios) * runs}")
    return problems


def describe(workload) -> dict[str, object]:
    """Make-up of a workload, for the README."""
    graph = Graph(workload.document)
    adjacent = graph.neighbours()
    reachable = graph.distance
    diameter = max(
        max(graph.bfs(source, adjacent).values())
        for source in adjacent if adjacent[source]
    )
    ratios = grid(workload.k_from, workload.k_to, workload.k_step)
    return {
        "entities": len(graph.entities),
        "quadruples": len(graph.quads),
        "text_chars": len(graph.text),
        "diameter": diameter,
        "center_eccentricity": max(reachable.values()),
        "stranded_quadruples": sum(
            1 for q in graph.quads if q.head not in reachable or q.tail not in reachable
        ),
        "select_k": workload.select_k,
        "depth": workload.depth,
        "k_grid": [round(k, 9) for k in ratios],
        "runs": workload.runs,
        "evaluations_per_sweep": len(ratios) * (len(STRATEGIES) - 1 + workload.runs),
    }
