"""Sweep orchestration: freeze, declare, plan, execute, extract.

A sweep varies representation parameters over one frozen snapshot and a
fixed engine, persisting every stage through content-addressed records
so the resulting decision map can be audited or replayed byte for byte.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import time
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation, localcontext
from typing import Any, Optional, Protocol

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import (
    CanonicalizationError,
    DeterminismError,
    EngineFailure,
    InvalidComparisonError,
    PlanNotFoundError,
    ReferentialError,
    SweepExecutionError,
    ValidationError,
)
from .policy import extract_decision, extracted_hash, load_policy
from .store import (
    EngineRunRecord,
    FMapEntry,
    ManifestEntry,
    RepresentationRecord,
    SnapshotRecord,
    Store,
    _now,
)


class RepresentationFactory(Protocol):
    """Deterministically encodes snapshot artifacts under given parameters."""

    name: str
    version: str

    def encode(self, artifacts: Mapping[str, bytes], params: Mapping[str, str]) -> bytes:
        ...


class EngineAdapter(Protocol):
    """Evaluates one encoded representation against a fixed query."""

    name: str
    version: str

    def evaluate(self, representation: bytes, query: Any) -> Mapping[str, Any]:
        ...


@dataclass(frozen=True)
class Axis:
    param: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class SweepPlan:
    """A declared sweep; constructing one normalizes it and derives its id.

    ``snapshot_id`` and ``policy_id`` are checked with ``parse_identifier``
    against their kind. Each axis's values are sorted ascending and
    deduplicated, a parameter may be declared only once, and ``plan_id``
    is derived from ``payload()``. Pure; persists nothing.
    """

    plan_id: Identifier = field(init=False)
    snapshot_id: Identifier
    factory_name: str
    factory_version: str
    axes: tuple[Axis, ...]
    fixed_params: Mapping[str, str]
    engine_name: str
    engine_version: str
    query: Any
    policy_id: Identifier
    experiment_id: str
    version: str = SCHEMA_VERSION

    def __post_init__(self):
        setattr_ = object.__setattr__
        setattr_(self, "snapshot_id", canon.parse_identifier(self.snapshot_id, "snap"))
        setattr_(self, "policy_id", canon.parse_identifier(self.policy_id, "pol"))
        if not self.experiment_id:
            raise ValidationError("experiment_id must be a non-empty string")
        for name, value in self.fixed_params.items():
            if not isinstance(value, str):
                raise ValidationError(f"fixed parameter {name!r} value {value!r} is not a string")
        axes = []
        seen_params = set(self.fixed_params)
        for axis in self.axes:
            axis = _normalize_axis(axis)
            if axis.param in seen_params:
                raise ValidationError(f"parameter {axis.param!r} declared more than once")
            seen_params.add(axis.param)
            axes.append(axis)
        setattr_(self, "axes", tuple(axes))
        setattr_(self, "fixed_params", dict(self.fixed_params))
        setattr_(self, "plan_id", canon.content_id("plan", self.payload()))

    def payload(self) -> dict:
        # experiment_id scopes map rows but does not identify the plan itself.
        return {name: getattr(self, name) for name in _PLAN_FIELD_TYPES} | {
            "axes": [{"param": a.param, "values": list(a.values)} for a in self.axes],
            "fixed_params": dict(self.fixed_params),
        }

    @classmethod
    def from_payload(cls, payload: Any, experiment_id: str) -> "SweepPlan":
        """Rebuild a plan from its payload form, as stored or as shipped in a file.

        A missing ``version`` means the current schema version. A payload
        that is not a mapping, or lacks a field, or holds one of the wrong
        type raises ValidationError naming the field.
        """
        if not isinstance(payload, Mapping):
            raise ValidationError(f"plan payload is a {type(payload).__name__}, not a mapping")
        fields = {"version": SCHEMA_VERSION, **payload}
        for name, kind in _PLAN_FIELD_TYPES.items():
            if name not in fields:
                raise ValidationError(f"plan payload is missing field {name!r}")
            if not isinstance(fields[name], kind):
                raise ValidationError(f"plan field {name!r} is not a {kind.__name__}")
        axes = []
        for axis in fields["axes"]:
            if not (
                isinstance(axis, Mapping)
                and isinstance(axis.get("param"), str)
                and isinstance(axis.get("values"), list)
            ):
                raise ValidationError(f"plan axis {axis!r} is not a {{param, values}} mapping")
            axes.append(Axis(param=axis["param"], values=tuple(axis["values"])))
        kwargs = {name: fields[name] for name in _PLAN_FIELD_TYPES}
        return cls(**kwargs | {"axes": axes}, experiment_id=experiment_id)

    def _representation(self, params: Mapping[str, str]) -> RepresentationRecord:
        # The encoded artifact is not identifying, so no bytes are needed.
        return RepresentationRecord(
            None, self.snapshot_id, self.factory_name, self.factory_version, params, ""
        )

    @functools.cached_property
    def _repr_frame(self) -> tuple[bytes, bytes]:
        """The canonical bytes of this plan's representation payload before
        and after its params, cut from the payload with empty params; no
        other ``"params":`` can occur, since a quote in a string is escaped."""
        data = canon.canonical_encode(self._representation({}).identifying_payload())
        head, _, tail = data.partition(b'"params":{}')
        return head + b'"params":', tail

    def repr_id(self, params: Mapping[str, str]) -> Identifier:
        """Identifier of the representation this plan declares for one grid
        point: the hash of the point's params encoded between the plan's
        frame, the same bytes as the record's whole payload."""
        try:
            encoded = canon.canonical_encode(dict(params))
        except CanonicalizationError:
            # Refused params: the record's own derivation raises its error.
            return self._representation(params).derived_id()
        head, tail = self._repr_frame
        return Identifier("repr", canon.payload_hash(head + encoded + tail))

    def grid_points(self) -> list[dict[str, str]]:
        """Parameter assignments in grid order: declared axes, values ascending."""
        names = [axis.param for axis in self.axes]
        return [
            {**self.fixed_params, **dict(zip(names, combo))}
            for combo in itertools.product(*(axis.values for axis in self.axes))
        ]


_PLAN_FIELD_TYPES = {
    "snapshot_id": str,
    "factory_name": str,
    "factory_version": str,
    "axes": list,
    "fixed_params": Mapping,
    "engine_name": str,
    "engine_version": str,
    "query": object,
    "policy_id": str,
    "version": str,
}


def _normalize_axis(axis: Axis) -> Axis:
    """Sort axis values ascending by numeric value, dropping duplicates."""
    if not isinstance(axis.param, str):
        raise ValidationError(f"axis parameter name {axis.param!r} is not a string")
    if not axis.param:
        raise ValidationError("axis parameter name must not be empty")
    if isinstance(axis.values, str):
        raise ValidationError(
            f"axis {axis.param!r} values {axis.values!r} are a string, not a sequence of strings"
        )
    if not axis.values:
        raise ValidationError(f"axis {axis.param!r} has no values")
    first_spelling: dict[Decimal, str] = {}
    for value in axis.values:
        if not isinstance(value, str):
            raise ValidationError(f"axis {axis.param!r} value {value!r} is not a string")
        try:
            num = Decimal(value)
        except InvalidOperation as exc:
            raise ValidationError(
                f"axis {axis.param!r} value {value!r} is not a decimal string"
            ) from exc
        if num.is_nan():
            raise ValidationError(f"axis {axis.param!r} value {value!r} is not a number")
        first_spelling.setdefault(num, value)
    ordered = sorted(first_spelling.items(), key=lambda pair: pair[0])
    return Axis(param=axis.param, values=tuple(text for _, text in ordered))


def freeze_snapshot(
    store: Store,
    artifacts: Mapping[str, Any],
    time_window: tuple[str, str],
) -> SnapshotRecord:
    """Persist a world state as content-addressed blobs plus a snapshot row."""
    manifest = []
    for name in sorted(artifacts):
        ref = store.put_blob(canon.canonical_encode(artifacts[name]))
        manifest.append(ManifestEntry(name=name, artifact_ref=ref))
    record = SnapshotRecord.create(time_window, manifest)
    store.put_record(record)
    return record


def persist_plan(store: Store, plan: SweepPlan) -> SweepPlan:
    """Validate a plan's references and persist its spec as a blob."""
    if store.get_record(plan.snapshot_id) is None:
        raise ReferentialError(f"plan references missing snapshot {plan.snapshot_id}")
    if not store.has_blob(plan.policy_id.digest16):
        raise ReferentialError(f"plan references missing policy {plan.policy_id}")
    store.put_blob(canon.canonical_encode(plan.payload()))
    return plan


def plan_sweep(store: Store, **kwargs) -> SweepPlan:
    """Build a plan from ``SweepPlan`` keywords and persist it."""
    return persist_plan(store, SweepPlan(**kwargs))


def load_plan(
    store: Store, plan_id: str, experiment_id: str
) -> SweepPlan:
    plan_id = canon.parse_identifier(plan_id, "plan")
    data = store.read_blob_unverified(plan_id.digest16)
    if data is None:
        raise PlanNotFoundError(f"no persisted plan {plan_id}")
    plan = SweepPlan.from_payload(canon.canonical_decode(data), experiment_id)
    if plan.plan_id != plan_id:
        raise PlanNotFoundError(
            f"stored plan spec re-derives to {plan.plan_id}, not {plan_id}"
        )
    return plan


# The three reads of _statuses, each over the plan's family or map, or
# with a repr id over one point. Runs are read from engine_runs outward
# (CROSS JOIN fixes the loop order), so SQLite builds no automatic index
# on engine_runs; a map row is complete when every row it references exists.
_STORED_SQL = (
    "SELECT repr_id, encoded_artifact_ref, created_at FROM representations"
    " WHERE snapshot_id = ? AND factory_name = ? AND factory_version = ?"
)
_RUNS_SQL = (
    "SELECT e.repr_id, e.run_id, e.raw_output_ref"
    " FROM engine_runs AS e CROSS JOIN representations AS r ON r.repr_id = e.repr_id"
    " WHERE e.engine_name = ? AND e.engine_version = ? AND e.query = ? AND e.status = 'ok'"
    " AND r.snapshot_id = ? AND r.factory_name = ? AND r.factory_version = ?"
)
_MAP_ROWS_SQL = (
    "SELECT repr_id, run_id, decision_id, "
    + " AND ".join(
        f"EXISTS (SELECT 1 FROM {table.name} WHERE {column} = f.{column})"
        for column, table in FMapEntry.TABLE.references.items()
    )
    + " FROM f_map AS f WHERE experiment_id = ? AND plan_id = ?"
)


@dataclass(slots=True)
class _Status:
    """What the store holds for one representation of a plan: its row's
    (encoded_artifact_ref, created_at), () without a row; its ok runs
    under the plan's engine and query, as (run id, raw_output_ref); and
    its rows on the plan's map in query_fmap order, as (run id, decision
    id, complete), where a complete row's whole chain is stored. A part
    not read is None."""

    stored: Optional[tuple[str, ...]] = None
    runs: Optional[list[tuple[str, str]]] = None
    rows: Optional[list[tuple[str, str, bool]]] = None


def _statuses(
    store: Store,
    plan: SweepPlan,
    stored: bool = True,
    runs: bool = True,
    rows: bool = True,
    repr_id: Optional[str] = None,
) -> defaultdict[str, _Status]:
    """Each of a plan's points' status by repr id, one statement for each
    part read (all three by default); with ``repr_id``, that one point's,
    each statement a keyed read. Every point the store holds nothing for
    reads as empty in each part read."""
    statuses = defaultdict(
        lambda: _Status(() if stored else None, [] if runs else None, [] if rows else None)
    )

    def read(sql, params, column="repr_id", order=""):
        if repr_id is not None:
            sql, params = f"{sql} AND {column} = ?", (*params, repr_id)
        return store._execute(sql + order, params)

    family = (plan.snapshot_id, plan.factory_name, plan.factory_version)
    if stored:
        for rep_id, ref, created_at in read(_STORED_SQL, family):
            statuses[rep_id].stored = (ref, created_at)
    if runs:
        query = canon.canonical_encode(plan.query).decode("utf-8")
        engine = (plan.engine_name, plan.engine_version, query)
        for rep_id, run_id, raw_ref in read(_RUNS_SQL, engine + family, "e.repr_id"):
            statuses[rep_id].runs.append((run_id, raw_ref))
    if rows:
        plan_key = (plan.experiment_id, plan.plan_id)
        order = FMapEntry.TABLE.order_sql
        for rep_id, run_id, decision_id, complete in read(_MAP_ROWS_SQL, plan_key, order=order):
            statuses[rep_id].rows.append((run_id, decision_id, bool(complete)))
    return statuses


class _KeyedStatuses(dict):
    """A plan's statuses read one point at a time, for a call that
    decides a few points of a large plan. A point's first lookup reads
    its representation row and its map rows by key; its ok runs are read
    only when it is stored with no map row, the one case a call runs it
    from them. Runs are read through the representation row, so a point
    without one has none. That keyed read of ok runs scans engine_runs
    (``EXPLAIN QUERY PLAN`` shows ``SCAN e``), which has no index on
    repr_id, so it grows with the store until the store format adds one."""

    def __init__(self, store: Store, plan: SweepPlan):
        super().__init__()
        self.store, self.plan = store, plan

    def __missing__(self, rep_id: str) -> _Status:
        status = _statuses(self.store, self.plan, runs=False, repr_id=rep_id)[rep_id]
        if not status.stored:
            status.runs = []
        elif not status.rows:
            keyed = _statuses(self.store, self.plan, stored=False, rows=False, repr_id=rep_id)
            status.runs = keyed[rep_id].runs
        self[rep_id] = status
        return status


class _PlanRun:
    """One call's checked hold on a plan: declares or runs its points.

    Building one checks the engine, then the factory, against the plan's
    (name, version), and ``axis``, when given, against the plan's axes
    (``base`` holds the other parameters). With an engine it then needs
    the persisted plan and loads the policy. Last, without ``axis``, it
    reads every point's status once, inside the call's batch: the
    representation rows alone without an engine, and their ok runs and
    map rows as well with one; with ``axis`` it reads each point's
    status by key when first needed. It keeps them equal to a fresh
    read as it writes: the representation row it declares, the ok run
    it stores, and the map row it adds or completes. A point whose
    representation row and blob are stored is trusted and not encoded;
    a point with exactly one ok run takes its decision from that run;
    and a chain whose map row is complete is not written again. The
    decision record of each distinct extracted payload is derived once
    per call, and keeps the time of that first derivation. The
    snapshot's artifacts are loaded on the first encode.
    """

    def __init__(
        self,
        store: Store,
        plan: SweepPlan,
        factory: Optional[RepresentationFactory] = None,
        engine: Optional[EngineAdapter] = None,
        axis: Optional[str] = None,
    ):
        for kind, plugin, name, version in (
            ("engine", engine, plan.engine_name, plan.engine_version),
            ("factory", factory, plan.factory_name, plan.factory_version),
        ):
            if plugin is not None and (plugin.name, plugin.version) != (name, version):
                raise ValidationError(
                    f"{kind} {plugin.name}/{plugin.version} does not match plan's {name}/{version}"
                )
        self.store, self.plan, self.factory, self.engine = store, plan, factory, engine
        self.base = None if axis is None else _single_axis_base(plan, axis)
        if engine is not None:
            if not store.has_blob(plan.plan_id.digest16):
                raise PlanNotFoundError(f"plan {plan.plan_id} has not been persisted")
            self.policy = load_policy(store, plan.policy_id)
            self.decisions = {}
        if axis is None:
            executes = engine is not None
            self.statuses = _statuses(store, plan, runs=executes, rows=executes)
        else:
            self.statuses = _KeyedStatuses(store, plan)

    @functools.cached_property
    def artifacts(self) -> dict[str, bytes]:
        """The snapshot's artifacts, read verified."""
        snapshot = self.store.get_record(self.plan.snapshot_id)
        if snapshot is None:
            raise ReferentialError(f"plan references missing snapshot {self.plan.snapshot_id}")
        return {
            entry.name: self.store.get_blob(entry.artifact_ref)
            for entry in snapshot.artifact_manifest
        }

    def declare(self, params: Mapping[str, str], rep_id: Identifier) -> RepresentationRecord:
        """The stored record of a point whose row and blob are stored, with
        no encode. A stored point whose blob was deleted is encoded once,
        refused if its bytes do not hash to the row's blob, and stored
        again; any other point is encoded twice, refused if the bytes
        differ, and stored under ``rep_id``."""
        store, plan = self.store, self.plan
        stored = self.statuses[rep_id].stored
        ref, created_at = stored or (None, _now())
        if ref is None or not store.has_blob(ref):
            first = self.factory.encode(self.artifacts, params)
            if ref is None and first != self.factory.encode(self.artifacts, params):
                raise DeterminismError(
                    f"factory {self.factory.name} produced differing artifacts "
                    f"for params {dict(params)}"
                )
            if ref is not None and canon.payload_hash(first) != ref:
                raise DeterminismError(
                    f"factory {self.factory.name} encodes params {dict(params)} to bytes "
                    f"other than those stored for {rep_id}"
                )
            ref = store.put_blob(first)
        record = RepresentationRecord(
            rep_id, plan.snapshot_id, plan.factory_name, plan.factory_version, params, ref,
            created_at=created_at,
        )
        if not stored:
            store.put_record(record)
            self.statuses[rep_id].stored = (ref, created_at)
        return record

    def run(
        self, params: Mapping[str, str], rep_id: Identifier
    ) -> tuple[Optional[FMapEntry], Optional[str]]:
        """Decide one point, declaring it first when it is not stored and
        this run has a factory; returns (entry, None) or (None, failure).

        A point with exactly one stored ok run re-extracts its decision
        from that run's raw output, read verified, and the engine is not
        called; a deleted output is evaluated again, which stores it."""
        store, plan = self.store, self.plan
        status = self.statuses[rep_id]
        if not status.stored:
            if self.factory is None:
                raise ReferentialError(
                    f"representation not declared for params {dict(params)} ({rep_id})"
                )
            self.declare(params, rep_id)
        # Read verified even when the stored run's output is used instead.
        encoded = store.get_blob(status.stored[0])
        raw = None
        if len(status.runs) == 1:
            ((run_id, raw_ref),) = status.runs
            try:
                raw = canon.canonical_decode(store.get_blob(raw_ref))
            except ReferentialError:
                pass  # a deleted raw output: evaluating again stores it
        if raw is not None:
            run_id = canon.parse_identifier(run_id)
        else:
            run_id, raw, failure = self._evaluate(encoded, rep_id)
            if failure is not None:
                return None, failure
        # A decision id is a pure function of the policy and the payload
        # hash, so each distinct payload's record is derived once a call.
        payload_hash = extracted_hash(raw, self.policy)
        decision = self.decisions.get(payload_hash)
        if decision is None:
            decision = self.decisions[payload_hash] = extract_decision(raw, self.policy)
        decision_id = decision.decision_id
        entry = FMapEntry.create(
            plan.experiment_id, plan.snapshot_id, rep_id, run_id, decision_id, plan.plan_id
        )
        if (run_id, decision_id, True) not in status.rows:
            store.put_record(decision)
            store.put_record(entry)
            # put_record found every row the entry references, so its map
            # row is complete now, whether new or stored incomplete.
            if (run_id, decision_id, False) in status.rows:
                status.rows.remove((run_id, decision_id, False))
            bisect.insort(status.rows, (run_id, decision_id, True))
        return entry, None

    def _evaluate(
        self, encoded: bytes, rep_id: Identifier
    ) -> tuple[Identifier, Mapping[str, Any], Optional[str]]:
        """Call the engine and store its raw output and run; returns the
        run id, the output and the failure message, if any."""
        store, plan = self.store, self.plan
        started = time.perf_counter()
        failure = None
        try:
            raw = self.engine.evaluate(encoded, plan.query)
        except EngineFailure as exc:
            failure = str(exc)
            raw = {"error": failure, "version": SCHEMA_VERSION}
        elapsed = f"{(time.perf_counter() - started) * 1000:.3f}"
        if not isinstance(raw, Mapping):
            raise ValidationError(
                f"engine {plan.engine_name} returned {type(raw).__name__}, expected a mapping"
            )
        raw_ref = store.put_blob(canon.canonical_encode(raw))
        run = EngineRunRecord.create(
            rep_id,
            plan.engine_name,
            plan.engine_version,
            plan.query,
            raw_ref,
            elapsed,
            status="ok" if failure is None else "failed",
        )
        # A chain already stored would only have its inserts ignored, and
        # an ok run already stored is in the status already.
        status = self.statuses[rep_id]
        if not any(r == run.run_id and complete for r, _, complete in status.rows):
            if store.put_record(run) == "inserted" and failure is None:
                status.runs.append((run.run_id, raw_ref))
        return run.run_id, raw, failure


def declare_representations(
    store: Store, plan: SweepPlan, factory: RepresentationFactory
) -> list[RepresentationRecord]:
    """Encode and persist one representation per grid point, in grid order.

    A point whose row and blob are stored is trusted: its stored record
    is returned and the factory is not called, so a factory that drifted
    under its (name, version) is left to ``replay`` with ``reexecute``.
    A stored point whose blob was deleted is encoded once; bytes that do
    not hash to its ``encoded_artifact_ref`` mean the factory drifted,
    and bytes that do are stored again. Every other point is encoded
    twice, and differing bytes mean the factory is not deterministic.
    Either refusal comes before anything is written for its point. Rows
    are written in one batch, so the points declared before a refusal
    stay stored.
    """
    with store.batch():
        plan_run = _PlanRun(store, plan, factory=factory)
        return [plan_run.declare(p, plan.repr_id(p)) for p in plan.grid_points()]


def execute_sweep(store: Store, plan: SweepPlan, engine: EngineAdapter) -> list[FMapEntry]:
    """Run the engine over every declared grid point and persist the chain.

    A point with exactly one stored ok run takes its decision from that
    run's raw output and the engine is not called; every other point is
    evaluated and its raw output blob stored (again, if it was deleted).
    A point whose whole chain is stored writes no row.
    Engine failures mark their run ``failed`` and the sweep carries on; a
    summary error listing the failed points is raised at the end, with
    the completed entries attached, once the batch holding every row of
    the sweep has committed.
    """
    entries = []
    failures = []
    with store.batch():
        plan_run = _PlanRun(store, plan, engine=engine)
        for params in plan.grid_points():
            entry, failure = plan_run.run(params, plan.repr_id(params))
            if entry is not None:
                entries.append(entry)
            else:
                failures.append((dict(params), failure))
    if failures:
        described = "; ".join(f"{params}: {msg}" for params, msg in failures)
        raise SweepExecutionError(
            f"{len(failures)} grid point(s) failed: {described}",
            entries=entries,
            failures=failures,
        )
    return entries


@dataclass(frozen=True)
class MapPoint:
    params: Mapping[str, str]
    repr_id: Identifier
    run_id: Identifier
    decision_id: Identifier


def params_key(params: Mapping[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(params.items()))


@dataclass
class DecisionMap:
    """Grid point -> (representation, run, decision), in grid order."""

    plan: SweepPlan
    points: dict[tuple[tuple[str, str], ...], MapPoint]

    def get(self, params: Mapping[str, str]) -> Optional[MapPoint]:
        return self.points.get(params_key(params))

    def __len__(self) -> int:
        return len(self.points)

    def values(self):
        return self.points.values()


def materialize_map(store: Store, plan_id: str, experiment_id: str) -> DecisionMap:
    """Read-only view of a plan's persisted grid results.

    A point with more than one f_map row shows the first in query_fmap
    order, the row refine_boundary reads for the same point.
    """
    plan = load_plan(store, plan_id, experiment_id)
    statuses = _statuses(store, plan, stored=False, runs=False)
    points = {}
    for params in plan.grid_points():
        rep_id = plan.repr_id(params)
        rows = statuses[rep_id].rows
        if rows:
            run_id, decision_id = map(canon.parse_identifier, rows[0][:2])
            points[params_key(params)] = MapPoint(dict(params), rep_id, run_id, decision_id)
    return DecisionMap(plan=plan, points=points)


@dataclass(frozen=True)
class Segment:
    lo: str
    hi: str
    decision_id: Identifier


@dataclass(frozen=True)
class BoundaryInterval:
    lo: str
    hi: str


@dataclass(frozen=True)
class AxisStructureReport:
    axis: str
    segments: tuple[Segment, ...]
    boundaries: tuple[BoundaryInterval, ...]

    def to_payload(self) -> dict:
        return {
            "axis": self.axis,
            "segments": [
                {
                    "value_range": [s.lo, s.hi],
                    "decision_id": s.decision_id,
                }
                for s in self.segments
            ],
            "boundaries": [
                {"between": [b.lo, b.hi]} for b in self.boundaries
            ],
            "version": SCHEMA_VERSION,
        }


def _single_axis_base(plan: SweepPlan, axis: str) -> dict[str, str]:
    """Non-axis parameter assignment; requires every other axis be single-valued."""
    if not any(candidate.param == axis for candidate in plan.axes):
        raise ValidationError(f"plan does not sweep an axis named {axis!r}")
    base = dict(plan.fixed_params)
    for candidate in plan.axes:
        if candidate.param == axis:
            continue
        if len(candidate.values) > 1:
            raise InvalidComparisonError(
                f"axis {candidate.param!r} also varies; points are not comparable along {axis!r}"
            )
        base[candidate.param] = candidate.values[0]
    return base


def classify_axis(dmap: DecisionMap, axis: str) -> AxisStructureReport:
    """Segment an axis into runs of constant decision.

    Boundaries are reported as the open interval between adjacent sampled
    values whose decisions differ; the sweep never locates a crossing
    more precisely than its sampling.
    """
    plan = dmap.plan
    base = _single_axis_base(plan, axis)
    values = next(a.values for a in plan.axes if a.param == axis)
    sampled = []
    for value in values:
        point = dmap.get({**base, axis: value})
        if point is not None:
            sampled.append((value, point.decision_id))
    if not sampled:
        raise ValidationError(f"map has no evaluated points along axis {axis!r}")
    segments = []
    boundaries = []
    seg_lo, seg_hi, seg_dec = sampled[0][0], sampled[0][0], sampled[0][1]
    for value, decision in sampled[1:]:
        if decision == seg_dec:
            seg_hi = value
        else:
            segments.append(Segment(lo=seg_lo, hi=seg_hi, decision_id=seg_dec))
            boundaries.append(BoundaryInterval(lo=seg_hi, hi=value))
            seg_lo, seg_hi, seg_dec = value, value, decision
    segments.append(Segment(lo=seg_lo, hi=seg_hi, decision_id=seg_dec))
    return AxisStructureReport(
        axis=axis, segments=tuple(segments), boundaries=tuple(boundaries)
    )


@dataclass(frozen=True)
class BoundaryRefinement:
    axis: str
    lo: str
    hi: str
    lo_decision: Identifier
    hi_decision: Identifier
    evaluations: int
    multi_region: bool


def refine_boundary(
    store: Store,
    plan: SweepPlan,
    axis: str,
    interval: tuple[str, str],
    engine: EngineAdapter,
    factory: RepresentationFactory,
    max_evals: int,
    resolution: Optional[str] = None,
) -> BoundaryRefinement:
    """Bisect a decision boundary down to a bracketing interval.

    Each midpoint runs through the full declare/execute/extract pipeline
    and leaves an f_map row under the plan, the same provenance trail as
    the original sweep, but it does not join the plan's declared grid.
    Endpoint evaluations do not count against max_evals; midpoints do.
    A point's decision is the first map row of its status, which the
    call reads by key when it first decides the point and then keeps
    current, so a point already on the map is not run again and no point
    the call does not decide is read. Stops early when the
    interval width reaches the resolution (default: 1e-6 of the starting
    span) or when a midpoint's decision matches neither endpoint, which
    reports the interval as multi-region. All rows are written in one
    store batch.
    """
    with store.batch(), localcontext() as ctx:
        plan_run = _PlanRun(store, plan, factory, engine, axis)
        try:
            lo, hi = Decimal(interval[0]), Decimal(interval[1])
            res = None if resolution is None else Decimal(resolution)
        except (InvalidOperation, TypeError) as exc:
            raise ValidationError(
                f"interval endpoints and resolution must be decimal strings: {exc}"
            ) from exc
        if any(value is not None and not value.is_finite() for value in (lo, hi, res)):
            raise ValidationError("interval endpoints and resolution must be finite")
        if not lo < hi:
            raise ValidationError(f"interval is empty: [{interval[0]}, {interval[1]}]")
        if max_evals < 0:
            raise ValidationError("max_evals must be non-negative")
        ctx.prec = 60
        if res is None:
            res = (hi - lo) * Decimal("0.000001")

        def decide(value: Decimal) -> Identifier:
            """Decision at one point: its first row on the map when it has
            one, else a run through the full chain."""
            params = {**plan_run.base, axis: canon.decimal_string(value)}
            rep_id = plan.repr_id(params)
            rows = plan_run.statuses[rep_id].rows
            if rows:
                return canon.parse_identifier(rows[0][1])
            entry, failure = plan_run.run(params, rep_id)
            if entry is None:
                raise SweepExecutionError(
                    f"engine failed at {params}: {failure}",
                    failures=[(params, failure)],
                )
            return entry.decision_id

        lo_dec = decide(lo)
        hi_dec = decide(hi)
        if lo_dec == hi_dec:
            raise ValidationError(
                f"decisions at both endpoints of [{interval[0]}, {interval[1]}] are identical"
            )
        evaluations = 0
        multi_region = False
        while evaluations < max_evals and (hi - lo) > res:
            mid = (lo + hi) / 2
            mid_dec = decide(mid)
            evaluations += 1
            if mid_dec == lo_dec:
                lo = mid
            elif mid_dec == hi_dec:
                hi = mid
            else:
                multi_region = True
                break
    return BoundaryRefinement(
        axis=axis,
        lo=canon.decimal_string(lo),
        hi=canon.decimal_string(hi),
        lo_decision=lo_dec,
        hi_decision=hi_dec,
        evaluations=evaluations,
        multi_region=multi_region,
    )
