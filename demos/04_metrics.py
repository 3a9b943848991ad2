"""Score a selection: verbalize it, then compare texts entity by entity.

Accuracy asks how much of the recovered text's entity usage is backed
by the original; completeness asks how much of the original survived.
Both count non-overlapping surface-string occurrences.  The similarity
score scales their weighted harmonic combination by theta, the summed
top-relation confidence of the kept quadruples.
"""

from pathlib import Path

import kgsqueeze as kq

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

graph = kq.parse_graph_document((FIXTURES / "bruce.json").read_bytes())
result = kq.select(graph, kq.SelectionConfig(ratio=0.4, max_depth=2))

recovered = kq.verbalize(result, graph)
print("recovered text (built-in verbalizer):")
print(f"  {recovered}")
print()

# No recovered text: score against the built-in verbalization above.
report = kq.similarity(graph, result, phi=0.5)
print(f"{'entity':<16} {'original':>8} {'recovered':>9}")
for entity_id, (original, rec) in report.entity_counts.items():
    print(f"{entity_id:<16} {original:>8} {rec:>9}")
print()
print(f"accuracy      A  = {report.accuracy:.4f}")
print(f"completeness  C  = {report.completeness:.4f}")
print(f"theta            = {report.theta:.4f}")
print(f"similarity    SS = {report.similarity:.4f}  (phi = {report.phi})")
print(f"uncertainty   SU = {report.semantic_uncertainty:.4f} bits")
print()
print("Pass a generative model's output as `recovered_text` to score a")
print("real recovery; the arithmetic does not change.")
