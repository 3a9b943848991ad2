"""Entropy-guided compression of confidence-weighted knowledge graphs.

A probability graph stores, for every extracted fact, a full confidence
distribution over the relation vocabulary instead of a single label.
This package builds such graphs, measures each quadruple's Shannon
entropy, and selects the subset that a size or channel budget allows
while keeping semantic uncertainty as low as possible and every kept
fact within a bounded relational distance of the text's central
concept.  Baseline strategies, similarity metrics, a sweep harness, and
a small JSON/CSV toolchain round out the experiment loop.
"""

from .distance import UNREACHABLE, DistanceTable, all_distances, select_initial_node
from .errors import (
    BadDistributionError,
    EmptyGraphError,
    InvalidPhiError,
    KgsqueezeError,
    MalformedDocumentError,
    MissingSeedError,
    SchemaViolationError,
    SelectionMismatchError,
    SelfLoopError,
    UnknownEntityError,
)
from .experiments import ratio_grid, run_sweep
from .graph import (
    Entity,
    ProbabilityGraph,
    Quadruple,
    RelationDistribution,
    build_graph,
    relation_entropy,
)
from .io import (
    SWEEP_HEADER,
    RunRecord,
    SweepRow,
    emit_selection,
    emit_sweep_table,
    parse_graph_document,
    parse_selection_document,
    serialize_graph,
)
from .metrics import (
    DEFAULT_PHI,
    MetricsReport,
    count_occurrences,
    similarity,
    verbalize,
)
from .selection import (
    STRATEGIES,
    ChannelBudget,
    SelectionConfig,
    SelectionResult,
    budget_to_quota,
    eligible,
    quota,
    select,
)

__version__ = "0.1.0"

__all__ = [
    "BadDistributionError",
    "ChannelBudget",
    "DEFAULT_PHI",
    "DistanceTable",
    "EmptyGraphError",
    "Entity",
    "InvalidPhiError",
    "KgsqueezeError",
    "MalformedDocumentError",
    "MetricsReport",
    "MissingSeedError",
    "ProbabilityGraph",
    "Quadruple",
    "RelationDistribution",
    "RunRecord",
    "STRATEGIES",
    "SchemaViolationError",
    "SelectionConfig",
    "SelectionMismatchError",
    "SelectionResult",
    "SelfLoopError",
    "SWEEP_HEADER",
    "SweepRow",
    "UNREACHABLE",
    "UnknownEntityError",
    "all_distances",
    "budget_to_quota",
    "build_graph",
    "count_occurrences",
    "eligible",
    "emit_selection",
    "emit_sweep_table",
    "parse_graph_document",
    "parse_selection_document",
    "quota",
    "ratio_grid",
    "relation_entropy",
    "run_sweep",
    "select",
    "select_initial_node",
    "serialize_graph",
    "similarity",
    "verbalize",
    "__version__",
]
