"""Replay verification: recompute decision identities from stored bytes.

Replay walks one map entry's chain backward, rehashes what the blobs
actually contain, and compares against what the rows claim. Mismatches
are findings in the report, never exceptions, so one corrupt byte still
yields a complete account of which fields diverged. Only a structurally
broken chain raises, since then there is nothing left to compare
against: a missing row, a missing or unreadable blob, or a row that does
not decode, be it a cell that is not text, a malformed blob hash or the
map entry's own f_map row. It is that entry's error, and every other
entry is still replayed.

When a blob fails its address check, the recomputed value falls back to
the hash of the bytes actually present, so any single-byte change shows
up as a persisted/recomputed divergence rather than being silently
re-derived from corrupt input.

Re-execution goes one step further back: it runs the registered factory
and engine again and compares what they produce now with what the rows
recorded, so a plugin that drifted under an unchanged (name, version)
shows up as a mismatch. A missing or failing plugin is a finding too.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Any, NamedTuple, Optional

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import (
    BrokenChainError,
    CanonicalizationError,
    ExtractionError,
    StoreOpenError,
    ValidationError,
)
from .policy import EquivalencePolicy, extracted_hash
from .store import DecisionRecord, EngineRunRecord, FMapEntry, RepresentationRecord, Store


# The map-entry fields a report names, in column order: all but the build time.
_ENTRY_FIELDS = tuple(f.name for f in fields(FMapEntry) if f.name != "created_at")


@dataclass(frozen=True)
class FieldCheck:
    field: str
    persisted: str
    recomputed: str

    @property
    def match(self) -> bool:
        return self.persisted == self.recomputed

    def to_payload(self) -> dict:
        return {
            "field": self.field,
            "persisted": self.persisted,
            "recomputed": self.recomputed,
            "match": self.match,
        }


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of replaying one map entry."""

    entry: FMapEntry
    checks: tuple[FieldCheck, ...]

    @cached_property
    def ok(self) -> bool:
        return all(check.match for check in self.checks)

    def mismatches(self) -> tuple[FieldCheck, ...]:
        return tuple(check for check in self.checks if not check.match)

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ReplayReport":
        """The report whose ``to_payload`` is ``payload``."""
        entry = [payload["entry"][name] for name in _ENTRY_FIELDS]
        return cls(
            entry=FMapEntry.from_row([*entry, ""]),
            checks=tuple(
                FieldCheck(check["field"], check["persisted"], check["recomputed"])
                for check in payload["checks"]
            ),
        )

    def to_payload(self) -> dict:
        return {
            "entry": {name: getattr(self.entry, name) for name in _ENTRY_FIELDS},
            "checks": [check.to_payload() for check in self.checks],
            "ok": self.ok,
            "version": SCHEMA_VERSION,
        }


def _row(store: Store, ident: Identifier, what: str):
    record = store.get_record(ident)
    if record is None:
        raise BrokenChainError(f"{what} row {ident} is missing")
    return record


def _linked(store: Store, chain: Sequence, at: int, cls, ident: Identifier, what: str):
    """The ``cls`` row ``ident`` names: decoded from ``chain[at]``, its
    cells of the chain read, or read by its key when the chain read holds
    no such cells. A None key marks a missing row, reported as ``_row``
    reports it."""
    if len(chain) <= at:
        return _row(store, ident, what)
    cells = chain[at]
    if cells[0] is None:
        raise BrokenChainError(f"{what} row {ident} is missing")
    return cls.from_row(cells)


def _read(store: Store, ref: str, what: str) -> bytes:
    try:
        data = store.read_blob_unverified(ref)
    except StoreOpenError as exc:
        raise BrokenChainError(f"{what} {exc}") from exc
    if data is None:
        raise BrokenChainError(f"{what} blob {ref} is missing")
    return data


def _hash(store: Store, ref: str, what: str) -> str:
    return canon.payload_hash(_read(store, ref, what))


def _decision_id(policy_hash: str, payload_hash: str, version: str) -> Identifier:
    """The identifier of the decision these three values make."""
    return DecisionRecord(None, Identifier("pol", policy_hash), payload_hash, version).derived_id()


def _policy(store: Store, ref: str) -> tuple[Optional[EquivalencePolicy], str]:
    """The policy stored under ``ref``, None when it does not decode, and
    the hash of its bytes."""
    data = _read(store, ref, "policy")
    try:
        policy = EquivalencePolicy.from_payload(canon.canonical_decode(data))
    except (CanonicalizationError, ValidationError):
        policy = None
    return policy, canon.payload_hash(data)


def _output(store: Store, memo: "ReplayMemo", raw_ref: str, pol_ref: str) -> tuple[str, str]:
    """The hash of the raw output's bytes and the payload hash the policy
    extracts from them. The latter falls back to the former when the
    bytes fail their address, the policy does not decode, or extraction
    fails. The raw output is read before the policy."""
    data = _read(store, raw_ref, "raw output")
    actual = canon.payload_hash(data)
    policy, _ = memo.once(("policy", pol_ref), _policy, store, pol_ref)
    if actual != raw_ref or policy is None:
        return actual, actual
    try:
        return actual, extracted_hash(canon.canonical_decode(data), policy)
    except (ExtractionError, CanonicalizationError):
        return actual, actual


class Plugins(NamedTuple):
    """The factories and engines re-execution runs, keyed by (name,
    version) like ``routing.FACTORIES`` and ``routing.ENGINES``."""

    factories: Mapping[tuple[str, str], Any]
    engines: Mapping[tuple[str, str], Any]


def _encode(store: Store, memo: "ReplayMemo", plugins: Plugins, rep: RepresentationRecord) -> str:
    """The hash of what the registered factory encodes now from the
    snapshot's artifacts and the row's params, or a finding."""
    factory = plugins.factories.get((rep.factory_name, rep.factory_version))
    if factory is None:
        return f"no registered factory {rep.factory_name}/{rep.factory_version}"
    snapshot = memo.once(("row", rep.snapshot_id), _row, store, rep.snapshot_id, "snapshot")
    artifacts = memo.once(("artifacts", rep.snapshot_id), lambda: {
        entry.name: _read(store, entry.artifact_ref, "snapshot artifact")
        for entry in snapshot.artifact_manifest
    })
    try:
        return canon.payload_hash(factory.encode(artifacts, rep.params))
    except Exception as exc:  # any plugin failure is a finding
        return f"factory raised {type(exc).__name__}: {exc}"


def _evaluate(
    store: Store, plugins: Plugins, run: EngineRunRecord, rep: RepresentationRecord
) -> tuple[str, Any]:
    """The hash of what the registered engine answers now for the stored
    representation bytes and the run's query, and the answer; a finding
    and None when there is no answer."""
    engine = plugins.engines.get((run.engine_name, run.engine_version))
    if engine is None:
        return f"no registered engine {run.engine_name}/{run.engine_version}", None
    encoded = _read(store, rep.encoded_artifact_ref, "encoded artifact")
    try:
        raw = engine.evaluate(encoded, run.query)
        return canon.payload_hash(canon.canonical_encode(raw)), raw
    except Exception as exc:  # any plugin failure is a finding
        return f"engine raised {type(exc).__name__}: {exc}", None


def _redecide(
    store: Store, memo: "ReplayMemo", evaluated: tuple[str, Any], pol_ref: str, version: str
) -> str:
    """The decision the stored policy takes from a recomputed answer, or a
    finding."""
    finding, raw = evaluated
    if raw is None:
        return finding
    policy, pol_hash = memo.once(("policy", pol_ref), _policy, store, pol_ref)
    if policy is None:
        return f"policy {pol_ref} does not decode"
    try:
        return _decision_id(pol_hash, extracted_hash(raw, policy), version)
    except (ExtractionError, CanonicalizationError) as exc:
        return f"no decision: {exc}"


def _reexecute(
    store: Store,
    memo: "ReplayMemo",
    plugins: Plugins,
    entry: FMapEntry,
    run: EngineRunRecord,
    rep: RepresentationRecord,
    decision: DecisionRecord,
) -> list[FieldCheck]:
    """One entry's chain run again: each distinct representation is
    encoded, and each distinct run evaluated, once per memo."""
    encoded = memo.once(("encode", rep.repr_id), _encode, store, memo, plugins, rep)
    evaluated = memo.once(("evaluate", run.run_id), _evaluate, store, plugins, run, rep)
    made = (decision.policy_id.digest16, decision.version)
    decided = memo.once(("redecide", run.run_id, *made), _redecide, store, memo, evaluated, *made)
    return [
        FieldCheck("reexec:encoded_artifact_ref", rep.encoded_artifact_ref, encoded),
        FieldCheck("reexec:raw_output_ref", run.raw_output_ref, evaluated[0]),
        FieldCheck("reexec:decision_id", entry.decision_id, decided),
    ]


class ReplayMemo:
    """What one replay command has already read and derived.

    Entries of one map share rows and blobs: the snapshot and its
    artifacts, the policy, decisions, and raw outputs that two runs
    produced alike. The memo reads, re-hashes and decodes each of them
    once per command. It keeps blob hashes, decoded policies, the
    snapshot and decision rows and derived identifiers, and no blob
    bytes but, when re-executing, the snapshot's artifacts and each
    run's recomputed output; run and representation rows are one per
    entry, so they are not kept. Each key is a tuple whose first item
    names what was computed. A computation that raises is not kept, so
    every entry that needs a missing row or blob reports its own broken
    chain.
    """

    def __init__(self):
        self._values: dict[tuple, object] = {}

    def once(self, key: tuple, compute, *args):
        """``compute(*args)``, computed on the first call for ``key``."""
        # The memo itself marks a missing key: no computation returns it.
        value = self._values.get(key, self)
        if value is self:
            value = self._values[key] = compute(*args)
        return value


def replay_entry(
    store: Store,
    entry: FMapEntry,
    deep: bool = False,
    memo: Optional[ReplayMemo] = None,
    reexecute: Optional[Plugins] = None,
    chain: Sequence = (),
) -> ReplayReport:
    """Re-derive the entry's decision from its stored raw output.

    The basic pass verifies the raw output blob, the policy blob, the
    extracted payload hash, and the decision identifier. ``deep`` also
    rehashes the upstream representation and snapshot blobs and the
    plan's spec blob (``plan_spec``), re-derives every row identifier
    from its own columns, and re-checks the row-to-row links.
    ``reexecute`` also runs the chain again with its plugins: the
    factory on the snapshot's artifacts and the row's params
    (``reexec:encoded_artifact_ref``), the engine on the stored
    representation bytes and the run's query (``reexec:raw_output_ref``),
    and the decision's policy on that answer (``reexec:decision_id``).
    Entries replayed with one ``memo`` share what it has read and run;
    without one, the entry gets a memo of its own. ``chain`` holds the
    cells of the entry's run row and then, when deep or re-executing, of
    its representation row, as the chain read (``_replay``) returns them;
    a row without cells there is read by its key.
    """
    if memo is None:
        memo = ReplayMemo()
    run = _linked(store, chain, 0, EngineRunRecord, entry.run_id, "engine run")
    decision = memo.once(("row", entry.decision_id), _row, store, entry.decision_id, "decision")
    raw_ref = run.raw_output_ref
    pol_ref = decision.policy_id.digest16
    raw_actual, recomputed_hash = memo.once(
        ("output", raw_ref, pol_ref), _output, store, memo, raw_ref, pol_ref
    )
    _, pol_actual_hash = memo.once(("policy", pol_ref), _policy, store, pol_ref)
    made = (pol_actual_hash, recomputed_hash, decision.version)
    recomputed_decision = memo.once(("decision", *made), _decision_id, *made)

    checks = [
        FieldCheck("raw_output_ref", raw_ref, raw_actual),
        FieldCheck("policy_id", decision.policy_id, f"pol_{pol_actual_hash}"),
        FieldCheck("payload_hash", decision.payload_hash, recomputed_hash),
        FieldCheck("decision_id", entry.decision_id, recomputed_decision),
    ]

    rep = None
    if deep:
        rep = _linked(store, chain, 1, RepresentationRecord, entry.repr_id, "representation")
        snapshot = memo.once(("row", entry.snapshot_id), _row, store, entry.snapshot_id, "snapshot")
        blobs = [("encoded_artifact_ref", rep.encoded_artifact_ref, "encoded artifact")]
        blobs.extend(
            (f"artifact:{manifest_entry.name}", manifest_entry.artifact_ref, "snapshot artifact")
            for manifest_entry in snapshot.artifact_manifest
        )
        blobs.append(("plan_spec", entry.plan_id.digest16, "plan spec"))
        checks.extend(
            FieldCheck(field, ref, memo.once(("hash", ref), _hash, store, ref, what))
            for field, ref, what in blobs
        )
        # Each row's identifier re-derived from its own columns, then the
        # row-to-row links.
        rows = (
            ("snapshot_row", entry.snapshot_id, memo.once(("id", entry.snapshot_id), snapshot.derived_id)),
            ("representation_row", entry.repr_id, rep.derived_id()),
            ("run_row", entry.run_id, run.derived_id()),
            ("decision_row", entry.decision_id, memo.once(("id", entry.decision_id), decision.derived_id)),
            ("run_links_representation", entry.repr_id, run.repr_id),
            ("representation_links_snapshot", entry.snapshot_id, rep.snapshot_id),
        )
        checks.extend(FieldCheck(*row) for row in rows)

    if reexecute is not None:
        rep = rep or _linked(store, chain, 1, RepresentationRecord, entry.repr_id, "representation")
        checks.extend(_reexecute(store, memo, reexecute, entry, run, rep, decision))

    return ReplayReport(entry=entry, checks=tuple(checks))


@dataclass(frozen=True)
class AggregateReport:
    """Replay outcomes for every entry of one experiment or one decision.

    Each entry's report is kept only as the canonical encoding of its
    payload, in stored order (``spool``), together with the count of
    entries whose every check matched.
    """

    subject: Mapping[str, str]
    spool: canon.EncodedList
    matched: int
    errors: tuple[tuple[str, str], ...]
    counts_before: Mapping[str, int]
    counts_after: Mapping[str, int]

    @property
    def ok(self) -> bool:
        return not self.errors and self.matched == self.verified

    @property
    def verified(self) -> int:
        return len(self.spool)

    @cached_property
    def reports(self) -> tuple[ReplayReport, ...]:
        """Every entry's report in stored order, rebuilt from the spool."""
        return tuple(map(ReplayReport.from_payload, self.spool))

    @property
    def store_unchanged(self) -> bool:
        return dict(self.counts_before) == dict(self.counts_after)

    def spooled_payload(self) -> dict:
        """``to_payload`` with the reports left as the spool, for
        ``canon.write_canonical`` to copy."""
        return {
            **self.subject,
            "verified": self.verified,
            "matched": self.matched,
            "mismatched": self.verified - self.matched,
            "errors": [
                {"entry": entry, "error": message}
                for entry, message in self.errors
            ],
            "reports": self.spool,
            "ok": self.ok,
            "store_unchanged": self.store_unchanged,
        }

    def to_payload(self) -> dict:
        return {**self.spooled_payload(), "reports": list(self.spool)}


def _replay(
    store: Store,
    subject: Mapping[str, str],
    rows: list[tuple],
    deep: bool,
    reexecute: Optional[Plugins],
) -> AggregateReport:
    """Replay the entry each chain row holds, capturing a broken chain,
    the f_map row's own among them, as an error line. Each report is
    spooled as its payload's canonical encoding once made.

    The store never deletes a row, so one count of the tables on each
    side of the loop shows whether anything was written.
    """
    counts_before = store.table_counts()
    memo = ReplayMemo()
    spool = canon.EncodedList()
    matched = 0
    errors = []
    rows.reverse()  # popped in stored order, each row let go once replayed
    while rows:
        row = rows.pop()
        try:
            entry = FMapEntry.from_row(row[0])
            report = replay_entry(
                store, entry, deep=deep, memo=memo, reexecute=reexecute, chain=row[1:]
            )
        except BrokenChainError as exc:
            run_id, decision_id = (row[0][_ENTRY_FIELDS.index(f)] for f in ("run_id", "decision_id"))
            errors.append((f"{run_id}/{decision_id}", str(exc)))
            continue
        spool.append(report.to_payload())
        matched += report.ok
    return AggregateReport(
        subject=subject,
        spool=spool,
        matched=matched,
        errors=tuple(errors),
        counts_before=counts_before,
        counts_after=store.table_counts(),
    )


def _chain_rows(store: Store, deep: bool, reexecute: Optional[Plugins], **filters) -> list[tuple]:
    """The chain read: each selected f_map row with its engine_runs row
    and, when deep or re-executing, its representations row."""
    linked = deep or reexecute is not None
    join = (EngineRunRecord, RepresentationRecord) if linked else (EngineRunRecord,)
    return store.fmap_rows(**filters, join=join)


def replay_all(
    store: Store,
    experiment_id: str,
    plan_id: Optional[str] = None,
    deep: bool = False,
    reexecute: Optional[Plugins] = None,
) -> AggregateReport:
    """Replay an experiment's whole map, capturing per-entry failures.

    A broken chain on one entry becomes an error line and the rest of
    the map is still verified. ``deep`` and ``reexecute`` are
    ``replay_entry``'s.
    """
    rows = _chain_rows(store, deep, reexecute, experiment_id=experiment_id, plan_id=plan_id)
    if not rows:
        scope = "" if plan_id is None else f" for plan {plan_id}"
        raise ValidationError(f"experiment {experiment_id!r} has no map entries{scope}")
    return _replay(store, {"experiment_id": experiment_id}, rows, deep, reexecute)


def replay_decision(
    store: Store, decision_id: str, deep: bool = False, reexecute: Optional[Plugins] = None
) -> AggregateReport:
    """Replay every map entry behind one decision, like ``replay_all``."""
    decision_id = canon.parse_identifier(decision_id, "dec")
    rows = _chain_rows(store, deep, reexecute, decision_id=decision_id)
    if not rows:
        raise BrokenChainError(
            f"decision {decision_id} has no map entry linking it to a run"
        )
    return _replay(store, {"decision_id": decision_id}, rows, deep, reexecute)
