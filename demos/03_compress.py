"""Compress a narrative graph at several ratios and watch what survives.

The selector keeps the H = round(K * G) quadruples with the smallest
entropies among those whose endpoints sit within depth D of the central
concept, relaxing D one hop at a time when the quota cannot be met.
Run on the martial-arts chain, the kept set grows outward from Bruce
Lee, most-certain facts first.
"""

from pathlib import Path

import kgsqueeze as kq

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

graph = kq.parse_graph_document((FIXTURES / "bruce.json").read_bytes())
print(f"{len(graph.quadruples)} quadruples, central concept "
      f"{graph.entity(kq.select_initial_node(graph)).surface!r}\n")

for k in (0.2, 0.5, 1.0):
    result = kq.select(graph, kq.SelectionConfig(ratio=k, max_depth=2))
    print(f"K={k}: keep {result.quota} of {len(graph.quadruples)}, "
          f"SU={result.semantic_uncertainty:.4f} bits, "
          f"depth relaxed {result.relaxation_steps}x to {result.effective_depth}")
    for i in result.selected:
        q = graph.quadruples[i]
        print(f"  [{i}] {graph.entity(q.head).surface} "
              f"--{q.top_relation}--> {graph.entity(q.tail).surface} "
              f"(entropy {q.entropy:.3f})")
    print()

print("Semantic uncertainty rises with K: keeping more means keeping")
print("vaguer.  The depth starts at 2 and relaxes only when the quota")
print("outgrows the neighborhood.")
