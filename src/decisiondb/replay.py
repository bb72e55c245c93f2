"""Replay verification: recompute decision identities from stored bytes.

Replay walks one map entry's chain backward, rehashes what the blobs
actually contain, and compares against what the rows claim. Mismatches
are findings in the report, never exceptions, so one corrupt byte still
yields a complete account of which fields diverged. Only a structurally
broken chain (a missing row or blob) raises, since then there is
nothing left to compare against.

When a blob fails its address check, the recomputed value falls back to
the hash of the bytes actually present, so any single-byte change shows
up as a persisted/recomputed divergence rather than being silently
re-derived from corrupt input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import (
    BrokenChainError,
    CanonicalizationError,
    ExtractionError,
    ValidationError,
)
from .policy import EquivalencePolicy, extracted_hash
from .store import DecisionRecord, FMapEntry, Store


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
    counts_before: Mapping[str, int]
    counts_after: Mapping[str, int]

    @property
    def ok(self) -> bool:
        return all(check.match for check in self.checks)

    @property
    def store_unchanged(self) -> bool:
        return dict(self.counts_before) == dict(self.counts_after)

    def mismatches(self) -> tuple[FieldCheck, ...]:
        return tuple(check for check in self.checks if not check.match)

    def to_payload(self) -> dict:
        return {
            "entry": {
                "experiment_id": self.entry.experiment_id,
                "plan_id": str(self.entry.plan_id),
                "snapshot_id": str(self.entry.snapshot_id),
                "repr_id": str(self.entry.repr_id),
                "run_id": str(self.entry.run_id),
                "decision_id": str(self.entry.decision_id),
            },
            "checks": [check.to_payload() for check in self.checks],
            "ok": self.ok,
            "store_unchanged": self.store_unchanged,
            "version": SCHEMA_VERSION,
        }


def _decode_policy(pol_bytes: bytes) -> Optional[EquivalencePolicy]:
    try:
        return EquivalencePolicy.from_payload(canon.canonical_decode(pol_bytes))
    except (CanonicalizationError, ValidationError):
        return None


def _row(store: Store, ident: Identifier, what: str):
    record = store.get_record(ident)
    if record is None:
        raise BrokenChainError(f"{what} row {ident} is missing")
    return record


def _blob(store: Store, ref: str, what: str) -> bytes:
    data = store.read_blob_unverified(ref)
    if data is None:
        raise BrokenChainError(f"{what} blob {ref} is missing")
    return data


def replay_entry(store: Store, entry: FMapEntry, deep: bool = False) -> ReplayReport:
    """Re-derive the entry's decision from its stored raw output.

    The basic pass verifies the raw output blob, the policy blob, the
    extracted payload hash, and the decision identifier. ``deep`` also
    rehashes the upstream representation and snapshot blobs, re-derives
    every row identifier from its own columns, and re-checks the
    row-to-row links.
    """
    counts_before = store.table_counts()
    run = _row(store, entry.run_id, "engine run")
    decision = _row(store, entry.decision_id, "decision")
    raw_bytes = _blob(store, run.raw_output_ref, "raw output")
    raw_actual = canon.payload_hash(raw_bytes)
    pol_bytes = _blob(store, decision.policy_id.digest16, "policy")
    pol_actual_hash = canon.payload_hash(pol_bytes)

    policy = _decode_policy(pol_bytes)
    recomputed_hash = raw_actual
    if raw_actual == run.raw_output_ref and policy is not None:
        try:
            recomputed_hash = extracted_hash(canon.canonical_decode(raw_bytes), policy)
        except (ExtractionError, CanonicalizationError):
            pass

    recomputed_decision = DecisionRecord(
        None, Identifier("pol", pol_actual_hash), recomputed_hash, decision.version
    ).derived_id()

    checks = [
        FieldCheck("raw_output_ref", run.raw_output_ref, raw_actual),
        FieldCheck("policy_id", str(decision.policy_id), f"pol_{pol_actual_hash}"),
        FieldCheck("payload_hash", decision.payload_hash, recomputed_hash),
        FieldCheck("decision_id", str(entry.decision_id), str(recomputed_decision)),
    ]

    if deep:
        rep = _row(store, entry.repr_id, "representation")
        snapshot = _row(store, entry.snapshot_id, "snapshot")
        encoded = _blob(store, rep.encoded_artifact_ref, "encoded artifact")
        checks.append(
            FieldCheck(
                "encoded_artifact_ref",
                rep.encoded_artifact_ref,
                canon.payload_hash(encoded),
            )
        )
        for manifest_entry in snapshot.artifact_manifest:
            artifact = _blob(store, manifest_entry.artifact_ref, "snapshot artifact")
            checks.append(
                FieldCheck(
                    f"artifact:{manifest_entry.name}",
                    manifest_entry.artifact_ref,
                    canon.payload_hash(artifact),
                )
            )
        rows = (
            ("snapshot_row", entry.snapshot_id, snapshot),
            ("representation_row", entry.repr_id, rep),
            ("run_row", entry.run_id, run),
            ("decision_row", entry.decision_id, decision),
        )
        checks.extend(
            FieldCheck(field, str(ident), str(record.derived_id()))
            for field, ident, record in rows
        )
        checks.extend(
            [
                FieldCheck(
                    "run_links_representation",
                    str(entry.repr_id),
                    str(run.repr_id),
                ),
                FieldCheck(
                    "representation_links_snapshot",
                    str(entry.snapshot_id),
                    str(rep.snapshot_id),
                ),
            ]
        )

    return ReplayReport(
        entry=entry,
        checks=tuple(checks),
        counts_before=counts_before,
        counts_after=store.table_counts(),
    )


def replay_decision(
    store: Store, decision_id: Union[str, Identifier], deep: bool = False
) -> tuple[ReplayReport, ...]:
    """Replay every map entry that produced the given decision."""
    if isinstance(decision_id, str):
        decision_id = Identifier.parse(decision_id)
    if decision_id.prefix != "dec":
        raise ValidationError(f"not a decision identifier: {decision_id}")
    entries = store.fmap_for_decision(decision_id)
    if not entries:
        raise BrokenChainError(
            f"decision {decision_id} has no map entry linking it to a run"
        )
    return tuple(replay_entry(store, entry, deep=deep) for entry in entries)


@dataclass(frozen=True)
class AggregateReport:
    """Replay outcomes for every entry in one experiment's map."""

    experiment_id: str
    reports: tuple[ReplayReport, ...]
    errors: tuple[tuple[str, str], ...]
    counts_before: Mapping[str, int]
    counts_after: Mapping[str, int]

    @property
    def ok(self) -> bool:
        return not self.errors and all(report.ok for report in self.reports)

    @property
    def verified(self) -> int:
        return len(self.reports)

    @property
    def matched(self) -> int:
        return sum(1 for report in self.reports if report.ok)

    @property
    def store_unchanged(self) -> bool:
        return dict(self.counts_before) == dict(self.counts_after)

    def to_payload(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "verified": self.verified,
            "matched": self.matched,
            "mismatched": self.verified - self.matched,
            "errors": [
                {"entry": subject, "error": message}
                for subject, message in self.errors
            ],
            "reports": [report.to_payload() for report in self.reports],
            "ok": self.ok,
            "store_unchanged": self.store_unchanged,
            "version": SCHEMA_VERSION,
        }


def replay_all(
    store: Store,
    experiment_id: str,
    plan_id: Optional[Union[str, Identifier]] = None,
    deep: bool = False,
) -> AggregateReport:
    """Replay an experiment's whole map, capturing per-entry failures.

    A broken chain on one entry becomes an error line and the rest of
    the map is still verified.
    """
    counts_before = store.table_counts()
    entries = store.query_fmap(experiment_id, plan_id=plan_id)
    if not entries:
        raise ValidationError(f"experiment {experiment_id!r} has no map entries")
    reports = []
    errors = []
    for entry in entries:
        try:
            reports.append(replay_entry(store, entry, deep=deep))
        except BrokenChainError as exc:
            errors.append((f"{entry.run_id}/{entry.decision_id}", str(exc)))
    return AggregateReport(
        experiment_id=experiment_id,
        reports=tuple(reports),
        errors=tuple(errors),
        counts_before=counts_before,
        counts_after=store.table_counts(),
    )
