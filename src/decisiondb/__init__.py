"""Content-addressed provenance store for decision sweeps.

The package records every step from a frozen input snapshot to a
decision: representations derived from it, engine runs over them, the
equivalence policy that reduced each raw output to a decision, and the
map rows tying them together. Identifiers are hashes of canonical
payload bytes, so any row can later be recomputed from stored bytes and
compared field by field against what was persisted.

Typical flow: ``freeze_snapshot`` then ``plan_sweep`` then
``declare_representations`` then ``execute_sweep``, then read results
back with ``materialize_map`` and ``classify_axis``, and audit them
with ``replay_all``.
"""

from .canon import (
    Identifier,
    canonical_decode,
    canonical_encode,
    content_id,
    decimal_string,
    parse_identifier,
    payload_hash,
)
from .errors import (
    BlobCorruptionError,
    BrokenChainError,
    CanonicalizationError,
    DecisionDBError,
    DeterminismError,
    EngineFailure,
    ExtractionError,
    IdentifierFormatError,
    IntegrityError,
    InvalidComparisonError,
    PlanNotFoundError,
    ReferentialError,
    StoreOpenError,
    SweepExecutionError,
    UnreachableError,
    ValidationError,
)
from .policy import EquivalencePolicy, extract_decision, load_policy, persist_policy
from .replay import AggregateReport, FieldCheck, ReplayReport, replay_all, replay_decision, replay_entry
from .store import (
    DecisionRecord,
    EngineRunRecord,
    FMapEntry,
    ManifestEntry,
    RepresentationRecord,
    SnapshotRecord,
    Store,
    open_store,
)
from .sweep import (
    Axis,
    AxisStructureReport,
    BoundaryRefinement,
    DecisionMap,
    SweepPlan,
    classify_axis,
    declare_representations,
    execute_sweep,
    freeze_snapshot,
    load_plan,
    materialize_map,
    persist_plan,
    plan_sweep,
    refine_boundary,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport",
    "Axis",
    "AxisStructureReport",
    "BlobCorruptionError",
    "BoundaryRefinement",
    "BrokenChainError",
    "CanonicalizationError",
    "DecisionDBError",
    "DecisionMap",
    "DecisionRecord",
    "DeterminismError",
    "EngineFailure",
    "EngineRunRecord",
    "EquivalencePolicy",
    "ExtractionError",
    "FMapEntry",
    "FieldCheck",
    "Identifier",
    "IdentifierFormatError",
    "IntegrityError",
    "InvalidComparisonError",
    "ManifestEntry",
    "PlanNotFoundError",
    "ReferentialError",
    "ReplayReport",
    "RepresentationRecord",
    "SnapshotRecord",
    "Store",
    "StoreOpenError",
    "SweepExecutionError",
    "SweepPlan",
    "UnreachableError",
    "ValidationError",
    "canonical_decode",
    "canonical_encode",
    "classify_axis",
    "content_id",
    "declare_representations",
    "decimal_string",
    "execute_sweep",
    "extract_decision",
    "freeze_snapshot",
    "load_plan",
    "load_policy",
    "materialize_map",
    "open_store",
    "parse_identifier",
    "payload_hash",
    "persist_plan",
    "persist_policy",
    "plan_sweep",
    "refine_boundary",
    "replay_all",
    "replay_decision",
    "replay_entry",
]
