"""Race the entropy-guided selector against five baselines across K.

One sweep evaluates every strategy on a shared ratio grid.  The random
baseline is averaged over seeded runs whose generators derive from
(seed, grid index, run index), so the table is reproducible bit for bit.
"""

from pathlib import Path

import kgsqueeze as kq

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

graph = kq.parse_graph_document((FIXTURES / "bruce.json").read_bytes())
rows, _ = kq.run_sweep(graph, depth=2, runs=100, seed=0)

by_strategy = {}
for row in rows:
    by_strategy.setdefault(row.strategy, []).append(row)

grid = [row.K for row in by_strategy["proposed"]]
print("semantic uncertainty (bits), lower is better:")
header = "strategy".ljust(18) + "".join(f"K={k:<6.1f}" for k in grid)
print(header)
for strategy in kq.STRATEGIES:
    cells = "".join(f"{row.SU:<8.3f}" for row in by_strategy[strategy])
    print(f"{strategy:<18}{cells}")

print()
print("semantic similarity, higher is better:")
print(header)
for strategy in kq.STRATEGIES:
    cells = "".join(f"{row.SS:<8.3f}" for row in by_strategy[strategy])
    print(f"{strategy:<18}{cells}")

print()
print("The proposed row is the floor of every SU column and the ceiling")
print("of every SS column; at K=1 all strategies keep everything and")
print("the columns collapse.  `kgsqueeze sweep` emits the same table")
print("as CSV.")
