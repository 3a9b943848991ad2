"""Central concept and relational distances.

A text usually revolves around one central concept; in the graph that is
the entity filling the most quadruple endpoint slots (the "initial
node").  The relational distance between two entities is the minimum
number of edges between them, ignoring edge direction; it bounds how far
a selected quadruple may stray from the central concept.

Selection only needs the distances from the central concept, so they
come from one breadth-first search from that source over the undirected
adjacency (the same hop counts the paper's Floyd's algorithm gives on
this unweighted graph).  Unreachable entities get the explicit value
``UNREACHABLE`` rather than an error, because selection has to reason
about them when relaxing the depth constraint.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import inf, isinf

from .graph import Entity, ProbabilityGraph

#: Explicit distance value for entities with no path to the source.
UNREACHABLE = inf


@dataclass(frozen=True)
class DistanceTable:
    """Relational distances from one source entity to every entity.

    ``distance`` maps entity id to a hop count (int) or ``UNREACHABLE``.
    ``distance[source] == 0`` always.
    """

    source: str
    distance: dict[str, int | float]

    def is_reachable(self, entity_id: str) -> bool:
        return not isinf(self.distance[entity_id])

    def max_finite(self) -> int:
        """Largest finite distance in the table (0 if only the source)."""
        return max(
            (d for d in self.distance.values() if not isinf(d)), default=0
        )


def select_initial_node(graph: ProbabilityGraph) -> str:
    """Pick the central concept: the entity with the most occurrences.

    Occurrences are quadruple endpoint slots (head and tail each count).
    Ties go to the entity appearing earlier in the text, i.e. the
    smallest ``first_token_index``; entities without a token index rank
    after those with one, and any remaining tie falls back to
    declaration order in the entity table.
    """
    counts = graph.occurrence_counts()

    def key(pos_entity: tuple[int, Entity]) -> tuple[int, float, int]:
        pos, e = pos_entity
        index = e.first_token_index if e.first_token_index is not None else inf
        return (-counts[e.id], index, pos)

    _, best = min(enumerate(graph.entities), key=key)
    return best.id


def all_distances(graph: ProbabilityGraph, source: str) -> DistanceTable:
    """Relational distances from ``source`` to every entity in the graph.

    Edges are the quadruples' (head, tail) pairs, undirected and
    unweighted; parallel quadruples between the same pair collapse into
    a single edge.  Entities in no quadruple, and entities in a
    different component, come back ``UNREACHABLE``.
    """
    graph.entity(source)  # raises UnknownEntityError if absent

    adjacency: dict[str, set[str]] = {e.id: set() for e in graph.entities}
    for q in graph.quadruples:
        adjacency[q.head].add(q.tail)
        adjacency[q.tail].add(q.head)
    distance: dict[str, int | float] = dict.fromkeys(adjacency, UNREACHABLE)
    distance[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in adjacency[node]:
            if distance[neighbor] == UNREACHABLE:
                distance[neighbor] = distance[node] + 1
                queue.append(neighbor)
    return DistanceTable(source=source, distance=distance)
