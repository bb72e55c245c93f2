"""Sweep orchestration: freeze, declare, plan, execute, extract.

A sweep varies representation parameters over one frozen snapshot and a
fixed engine, persisting every stage through content-addressed records
so the resulting decision map can be audited or replayed byte for byte.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from typing import Any, Mapping, Optional, Protocol, Sequence, Union

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import (
    DeterminismError,
    EngineFailure,
    InvalidComparisonError,
    PlanNotFoundError,
    ReferentialError,
    SweepExecutionError,
    ValidationError,
)
from .policy import EquivalencePolicy, extract_decision, load_policy
from .store import (
    EngineRunRecord,
    FMapEntry,
    ManifestEntry,
    RepresentationRecord,
    SnapshotRecord,
    Store,
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
    plan_id: Identifier
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

    def payload(self) -> dict:
        # experiment_id scopes map rows but does not identify the plan itself.
        return {
            "snapshot_id": str(self.snapshot_id),
            "factory_name": self.factory_name,
            "factory_version": self.factory_version,
            "axes": [
                {"param": a.param, "values": list(a.values)} for a in self.axes
            ],
            "fixed_params": dict(self.fixed_params),
            "engine_name": self.engine_name,
            "engine_version": self.engine_version,
            "query": self.query,
            "policy_id": str(self.policy_id),
            "version": self.version,
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
        return build_plan(**kwargs | {"axes": axes}, experiment_id=experiment_id)

    def repr_id(self, params: Mapping[str, str]) -> Identifier:
        """Identifier of the representation this plan declares for one grid point.

        The encoded artifact is not identifying, so no bytes are needed.
        """
        return RepresentationRecord(
            None, self.snapshot_id, self.factory_name, self.factory_version, params, ""
        ).derived_id()

    def grid_points(self) -> list[dict[str, str]]:
        """Parameter assignments in grid order: declared axes, values ascending."""
        if not self.axes:
            return [dict(self.fixed_params)]
        points = []
        for combo in itertools.product(*(a.values for a in self.axes)):
            params = dict(self.fixed_params)
            for axis, value in zip(self.axes, combo):
                params[axis.param] = value
            points.append(params)
        return points


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
    if not axis.param:
        raise ValidationError("axis parameter name must not be empty")
    if not axis.values:
        raise ValidationError(f"axis {axis.param!r} has no values")
    first_spelling: dict[Decimal, str] = {}
    for value in axis.values:
        try:
            num = Decimal(value)
        except (InvalidOperation, TypeError) as exc:
            raise ValidationError(
                f"axis {axis.param!r} value {value!r} is not a decimal string"
            ) from exc
        if num.is_nan():
            raise ValidationError(f"axis {axis.param!r} value {value!r} is not a number")
        first_spelling.setdefault(num, value)
    ordered = sorted(first_spelling.items(), key=lambda pair: pair[0])
    return Axis(param=axis.param, values=tuple(text for _, text in ordered))


def build_plan(
    *,
    snapshot_id: Union[str, Identifier],
    factory_name: str,
    factory_version: str,
    axes: Sequence[Axis],
    fixed_params: Mapping[str, str],
    engine_name: str,
    engine_version: str,
    query: Any,
    policy_id: Union[str, Identifier],
    experiment_id: str,
    version: str = SCHEMA_VERSION,
) -> SweepPlan:
    """Assemble a plan and derive its identifier. Pure; persists nothing."""
    if isinstance(snapshot_id, str):
        snapshot_id = Identifier.parse(snapshot_id)
    if isinstance(policy_id, str):
        policy_id = Identifier.parse(policy_id)
    if not experiment_id:
        raise ValidationError("experiment_id must be a non-empty string")
    norm_axes = []
    seen_params = set(fixed_params)
    for axis in axes:
        axis = _normalize_axis(axis)
        if axis.param in seen_params:
            raise ValidationError(f"parameter {axis.param!r} declared more than once")
        seen_params.add(axis.param)
        norm_axes.append(axis)
    plan = SweepPlan(
        plan_id=Identifier("plan", "0" * 16),
        snapshot_id=snapshot_id,
        factory_name=factory_name,
        factory_version=factory_version,
        axes=tuple(norm_axes),
        fixed_params=dict(fixed_params),
        engine_name=engine_name,
        engine_version=engine_version,
        query=query,
        policy_id=policy_id,
        experiment_id=experiment_id,
        version=version,
    )
    ident = canon.content_id("plan", plan.payload())
    object.__setattr__(plan, "plan_id", ident)
    return plan


def freeze_snapshot(
    store: Store,
    artifacts: Mapping[str, Any],
    time_window: tuple[str, str],
    version: str = SCHEMA_VERSION,
) -> SnapshotRecord:
    """Persist a world state as content-addressed blobs plus a snapshot row."""
    manifest = []
    for name in sorted(artifacts):
        ref = store.put_blob(canon.canonical_encode(artifacts[name]))
        manifest.append(ManifestEntry(name=name, artifact_ref=ref.hash))
    record = SnapshotRecord.create(time_window, manifest, version=version)
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
    """Build a plan from ``build_plan`` keywords and persist it."""
    return persist_plan(store, build_plan(**kwargs))


def load_plan(
    store: Store, plan_id: Union[str, Identifier], experiment_id: str
) -> SweepPlan:
    if isinstance(plan_id, str):
        plan_id = Identifier.parse(plan_id)
    if plan_id.prefix != "plan":
        raise ValidationError(f"not a plan identifier: {plan_id}")
    data = store.read_blob_unverified(plan_id.digest16)
    if data is None:
        raise PlanNotFoundError(f"no persisted plan {plan_id}")
    plan = SweepPlan.from_payload(canon.canonical_decode(data), experiment_id)
    if plan.plan_id != plan_id:
        raise PlanNotFoundError(
            f"stored plan spec re-derives to {plan.plan_id}, not {plan_id}"
        )
    return plan


def _load_artifacts(store: Store, plan: SweepPlan) -> dict[str, bytes]:
    snapshot = store.get_record(plan.snapshot_id)
    if snapshot is None:
        raise ReferentialError(f"plan references missing snapshot {plan.snapshot_id}")
    return {
        entry.name: store.get_blob(entry.artifact_ref)
        for entry in snapshot.artifact_manifest
    }


def _declare_point(
    store: Store,
    plan: SweepPlan,
    factory: RepresentationFactory,
    artifacts: Mapping[str, bytes],
    params: Mapping[str, str],
) -> RepresentationRecord:
    first = factory.encode(artifacts, params)
    second = factory.encode(artifacts, params)
    if canon.payload_hash(first) != canon.payload_hash(second):
        raise DeterminismError(
            f"factory {factory.name} produced differing artifacts for params {dict(params)}"
        )
    ref = store.put_blob(first)
    record = RepresentationRecord.create(
        plan.snapshot_id,
        plan.factory_name,
        plan.factory_version,
        params,
        ref.hash,
    )
    store.put_record(record)
    return record


def _require_plugin(kind: str, plugin: Any, name: str, version: str) -> None:
    """Refuse a factory or engine whose (name, version) is not the plan's."""
    if (plugin.name, plugin.version) != (name, version):
        raise ValidationError(
            f"{kind} {plugin.name}/{plugin.version} does not match plan's {name}/{version}"
        )


def declare_representations(
    store: Store, plan: SweepPlan, factory: RepresentationFactory
) -> list[RepresentationRecord]:
    """Encode and persist one representation per grid point, in grid order.

    Every point is encoded twice; differing bytes mean the factory is not
    deterministic and the declaration is refused.
    """
    _require_plugin("factory", factory, plan.factory_name, plan.factory_version)
    artifacts = _load_artifacts(store, plan)
    return [
        _declare_point(store, plan, factory, artifacts, params)
        for params in plan.grid_points()
    ]


def _run_point(
    store: Store,
    plan: SweepPlan,
    engine: EngineAdapter,
    pol: EquivalencePolicy,
    rep: RepresentationRecord,
) -> tuple[Optional[FMapEntry], Optional[str]]:
    """Evaluate one declared point; returns (entry, None) or (None, failure)."""
    encoded = store.get_blob(rep.encoded_artifact_ref)
    started = time.perf_counter()
    failure = None
    try:
        raw = engine.evaluate(encoded, plan.query)
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
        rep.repr_id,
        plan.engine_name,
        plan.engine_version,
        plan.query,
        raw_ref.hash,
        elapsed,
        status="ok" if failure is None else "failed",
    )
    store.put_record(run)
    if failure is not None:
        return None, failure
    decision = extract_decision(raw, pol)
    store.put_record(decision)
    entry = FMapEntry.create(
        plan.experiment_id,
        plan.snapshot_id,
        rep.repr_id,
        run.run_id,
        decision.decision_id,
        plan.plan_id,
    )
    store.put_record(entry)
    return entry, None


def execute_sweep(
    store: Store, plan: SweepPlan, engine: EngineAdapter
) -> list[FMapEntry]:
    """Run the engine over every declared grid point and persist the chain.

    Engine failures mark their run ``failed`` and the sweep carries on; a
    summary error listing the failed points is raised at the end, with
    the completed entries attached.
    """
    _require_plugin("engine", engine, plan.engine_name, plan.engine_version)
    if not store.has_blob(plan.plan_id.digest16):
        raise PlanNotFoundError(f"plan {plan.plan_id} has not been persisted")
    pol = load_policy(store, plan.policy_id)
    entries = []
    failures = []
    for params in plan.grid_points():
        rep_id = plan.repr_id(params)
        rep = store.get_record(rep_id)
        if rep is None:
            raise ReferentialError(
                f"representation not declared for params {dict(params)} ({rep_id})"
            )
        entry, failure = _run_point(store, plan, engine, pol, rep)
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


def materialize_map(
    store: Store, plan_id: Union[str, Identifier], experiment_id: str
) -> DecisionMap:
    """Read-only view of a plan's persisted grid results."""
    plan = load_plan(store, plan_id, experiment_id)
    by_repr = {
        str(entry.repr_id): entry
        for entry in store.query_fmap(experiment_id, plan_id=plan.plan_id)
    }
    points = {}
    for params in plan.grid_points():
        entry = by_repr.get(str(plan.repr_id(params)))
        if entry is not None:
            points[params_key(params)] = MapPoint(
                params=dict(params),
                repr_id=entry.repr_id,
                run_id=entry.run_id,
                decision_id=entry.decision_id,
            )
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
                    "decision_id": str(s.decision_id),
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

    def to_payload(self) -> dict:
        return {
            "axis": self.axis,
            "interval": [self.lo, self.hi],
            "lo_decision": str(self.lo_decision),
            "hi_decision": str(self.hi_decision),
            "evaluations": self.evaluations,
            "multi_region": self.multi_region,
            "version": SCHEMA_VERSION,
        }


def _point_decision(
    store: Store,
    plan: SweepPlan,
    factory: RepresentationFactory,
    engine: EngineAdapter,
    pol: EquivalencePolicy,
    artifacts: Mapping[str, bytes],
    params: Mapping[str, str],
) -> Identifier:
    """Decision at a parameter point, evaluating through the full pipeline
    and persisting the chain when the point is not already on the map."""
    rep_id = plan.repr_id(params)
    for entry in store.query_fmap(plan.experiment_id, plan_id=plan.plan_id):
        if entry.repr_id == rep_id:
            return entry.decision_id
    rep = store.get_record(rep_id)
    if rep is None:
        rep = _declare_point(store, plan, factory, artifacts, params)
    entry, failure = _run_point(store, plan, engine, pol, rep)
    if entry is None:
        raise SweepExecutionError(
            f"engine failed at {dict(params)}: {failure}",
            failures=[(dict(params), failure)],
        )
    return entry.decision_id


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
    Stops early when the interval width reaches the resolution (default:
    1e-6 of the starting span) or when a midpoint's decision matches
    neither endpoint, which reports the interval as multi-region.
    """
    _require_plugin("engine", engine, plan.engine_name, plan.engine_version)
    _require_plugin("factory", factory, plan.factory_name, plan.factory_version)
    base = _single_axis_base(plan, axis)
    if not store.has_blob(plan.plan_id.digest16):
        raise PlanNotFoundError(f"plan {plan.plan_id} has not been persisted")
    pol = load_policy(store, plan.policy_id)
    artifacts = _load_artifacts(store, plan)
    try:
        lo = Decimal(interval[0])
        hi = Decimal(interval[1])
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
    with localcontext() as ctx:
        ctx.prec = 60
        if res is None:
            res = (hi - lo) * Decimal("0.000001")

        def decide(value: Decimal) -> Identifier:
            value_str = canon.decimal_string(value)
            return _point_decision(
                store, plan, factory, engine, pol, artifacts, {**base, axis: value_str}
            )

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
