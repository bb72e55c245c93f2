"""Append-only relational store plus write-once blob area.

A store is a directory holding one SQLite database and a ``blobs/`` tree
fanned out by content hash. Rows are keyed by content-derived
identifiers; a row whose primary key is already stored is skipped, so
re-storing the same entity is a no-op and nothing is ever updated or
deleted.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import (
    Any,
    ClassVar,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Union,
    get_type_hints,
)

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import (
    BlobCorruptionError,
    DecisionDBError,
    IdentifierFormatError,
    IntegrityError,
    ReferentialError,
    StoreOpenError,
)

DB_FILENAME = "store.sqlite"
BLOB_DIRNAME = "blobs"
STORE_FORMAT_VERSION = "1"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS snapshots (
    snapshot_id TEXT PRIMARY KEY,
    time_window_start TEXT NOT NULL,
    time_window_end TEXT NOT NULL,
    artifact_manifest TEXT NOT NULL,
    version TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS representations (
    repr_id TEXT PRIMARY KEY,
    snapshot_id TEXT NOT NULL REFERENCES snapshots(snapshot_id),
    factory_name TEXT NOT NULL,
    factory_version TEXT NOT NULL,
    params TEXT NOT NULL,
    encoded_artifact_ref TEXT NOT NULL,
    version TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS engine_runs (
    run_id TEXT PRIMARY KEY,
    repr_id TEXT NOT NULL REFERENCES representations(repr_id),
    engine_name TEXT NOT NULL,
    engine_version TEXT NOT NULL,
    query TEXT NOT NULL,
    raw_output_ref TEXT NOT NULL,
    exec_time_ms TEXT NOT NULL,
    status TEXT NOT NULL CHECK (status IN ('ok', 'failed')),
    version TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS decisions (
    decision_id TEXT PRIMARY KEY,
    policy_id TEXT NOT NULL,
    payload_hash TEXT NOT NULL,
    version TEXT NOT NULL,
    created_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS f_map (
    experiment_id TEXT NOT NULL,
    snapshot_id TEXT NOT NULL REFERENCES snapshots(snapshot_id),
    repr_id TEXT NOT NULL REFERENCES representations(repr_id),
    run_id TEXT NOT NULL REFERENCES engine_runs(run_id),
    decision_id TEXT NOT NULL REFERENCES decisions(decision_id),
    plan_id TEXT NOT NULL,
    created_at TEXT NOT NULL,
    PRIMARY KEY (experiment_id, plan_id, repr_id, run_id, decision_id)
);
"""


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


def _as_identifier(value: Union[str, Identifier], expected_prefix: str) -> Identifier:
    ident = Identifier.parse(value) if isinstance(value, str) else value
    if ident.prefix != expected_prefix:
        raise IdentifierFormatError(
            f"expected a {expected_prefix} identifier, got {ident}"
        )
    return ident


@dataclass(frozen=True)
class BlobRef:
    """Address and length of a stored byte sequence."""

    hash: str
    length: int


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    artifact_ref: str


# Record class -> Table, in the order tables are listed and counted.
_TABLES: dict[type, "Table"] = {}


class Table:
    """How a record class maps onto its table; decorates the record class.

    Columns follow the record's fields in order, and an identified
    record's first field is its key. A ``split`` field spreads its tuple
    over the named columns. A ``json`` field is stored as the canonical
    encoding of its entry in the identifying payload and read back
    through the given converter (None keeps the decoded value).
    ``references`` lists identifier fields that must name an existing
    row; each is the key column of the table it points into. ``blobs``
    gives the blob hashes a record references; a policy or plan spec
    blob is addressed by its identifier's digest.
    """

    def __init__(self, name, blobs, prefix=None, json=None, split=None, references=()):
        self.name = name
        self.blobs = blobs
        self.prefix = prefix
        self.json = json or {}
        self.split = split or {}
        self.references = references

    def __call__(self, cls):
        """Work out the record class's columns and SQL text once, and register it."""
        name = self.name
        self.cls = cls
        self.key = fields(cls)[0].name if self.prefix else None
        self.values_of = attrgetter(*(f.name for f in fields(cls)))
        hints = get_type_hints(cls)
        columns = []
        self.splits = []
        self.ids = []
        self.jsons = []
        for at, f in enumerate(fields(cls)):
            if f.name in self.split:
                self.splits.append((at, len(columns), len(self.split[f.name])))
                columns.extend(self.split[f.name])
                continue
            columns.append(f.name)
            if f.name in self.json:
                self.jsons.append((at, f.name))
            elif hints[f.name] is Identifier:
                self.ids.append(at)
        names = ", ".join(columns)
        marks = ", ".join("?" * len(columns))
        self.insert_sql = (
            f"INSERT INTO {name} ({names}) VALUES ({marks}) ON CONFLICT DO NOTHING"
        )
        self.select_sql = f"SELECT {names} FROM {name}"
        if self.key:
            self.select_by_key_sql = f"{self.select_sql} WHERE {self.key} = ?"
            self.exists_sql = f"SELECT 1 FROM {name} WHERE {self.key} = ? LIMIT 1"
        cls.TABLE = _TABLES[cls] = self
        return cls

    def row(self, record, payload: Optional[Mapping[str, Any]]) -> list:
        """Column values in insert order; JSON columns come from ``payload``."""
        values = list(self.values_of(record))
        for at in self.ids:
            values[at] = str(values[at])
        for at, name in self.jsons:
            values[at] = canon.canonical_encode(payload[name]).decode("utf-8")
        for at, _, _ in reversed(self.splits):
            values[at : at + 1] = values[at]
        return values

    def record(self, row: Sequence[Any]):
        values = list(row)
        for _, at, width in reversed(self.splits):
            values[at : at + width] = [tuple(values[at : at + width])]
        for at in self.ids:
            values[at] = Identifier.parse(values[at])
        for at, name in self.jsons:
            value = canon.canonical_decode(values[at].encode("utf-8"))
            values[at] = value if self.json[name] is None else self.json[name](value)
        return self.cls(*values)


class _Record:
    """Behaviour shared by the five row classes; ``TABLE`` describes each.

    ``created_at`` is left out of comparisons, so two builds of the same
    content are equal records.
    """

    TABLE: ClassVar[Table]

    @classmethod
    def create(cls, *fields, **named):
        """Build a record from its fields in order, less the key and
        ``created_at``; stamps the time and derives a keyed table's key."""
        key = cls.TABLE.key
        if key is None:
            return cls(*fields, **named, created_at=_now())
        record = cls(None, *fields, **named, created_at=_now())
        object.__setattr__(record, key, record.derived_id())
        return record

    def derived_id(self) -> Identifier:
        """The identifier this record's identifying payload hashes to."""
        return canon.content_id(self.TABLE.prefix, self.identifying_payload())


@Table(
    "snapshots",
    blobs=lambda r: [e.artifact_ref for e in r.artifact_manifest],
    prefix="snap",
    json={"artifact_manifest": lambda value: tuple(ManifestEntry(**e) for e in value)},
    split={"time_window": ("time_window_start", "time_window_end")},
)
@dataclass(frozen=True)
class SnapshotRecord(_Record):
    snapshot_id: Identifier
    time_window: tuple[str, str]
    artifact_manifest: tuple[ManifestEntry, ...]
    version: str = SCHEMA_VERSION
    created_at: str = field(default="", compare=False)

    def __post_init__(self):
        """Window as a tuple, manifest sorted by name: built and loaded agree."""
        manifest =tuple(sorted(self.artifact_manifest, key=attrgetter("name")))
        object.__setattr__(self, "time_window", tuple(self.time_window))
        object.__setattr__(self, "artifact_manifest", manifest)

    def identifying_payload(self) -> dict:
        return {
            "time_window": {"start": self.time_window[0], "end": self.time_window[1]},
            "artifact_manifest": [
                {"name": e.name, "artifact_ref": e.artifact_ref}
                for e in self.artifact_manifest
            ],
            "version": self.version,
        }


@Table(
    "representations",
    blobs=lambda r: [r.encoded_artifact_ref],
    prefix="repr",
    json={"params": None},
    references=("snapshot_id",),
)
@dataclass(frozen=True)
class RepresentationRecord(_Record):
    repr_id: Identifier
    snapshot_id: Identifier
    factory_name: str
    factory_version: str
    params: Mapping[str, str]
    encoded_artifact_ref: str
    version: str = SCHEMA_VERSION
    created_at: str = field(default="", compare=False)

    def identifying_payload(self) -> dict:
        # The encoded artifact is a deterministic function of the other
        # fields, so its hash is deliberately not identifying.
        return {
            "snapshot_id": str(self.snapshot_id),
            "factory_name": self.factory_name,
            "factory_version": self.factory_version,
            "params": dict(self.params),
            "version": self.version,
        }


@Table(
    "engine_runs",
    blobs=lambda r: [r.raw_output_ref],
    prefix="run",
    json={"query": None},
    references=("repr_id",),
)
@dataclass(frozen=True)
class EngineRunRecord(_Record):
    run_id: Identifier
    repr_id: Identifier
    engine_name: str
    engine_version: str
    query: Any
    raw_output_ref: str
    exec_time_ms: str
    status: str = "ok"
    version: str = SCHEMA_VERSION
    created_at: str = field(default="", compare=False)

    def identifying_payload(self) -> dict:
        return {
            "repr_id": str(self.repr_id),
            "engine_name": self.engine_name,
            "engine_version": self.engine_version,
            "query": self.query,
            "raw_output_ref": self.raw_output_ref,
            "version": self.version,
        }


@Table("decisions", blobs=lambda r: [r.policy_id.digest16], prefix="dec")
@dataclass(frozen=True)
class DecisionRecord(_Record):
    decision_id: Identifier
    policy_id: Identifier
    payload_hash: str
    version: str = SCHEMA_VERSION
    created_at: str = field(default="", compare=False)

    def identifying_payload(self) -> dict:
        return {
            "policy_id": str(self.policy_id),
            "payload_hash": self.payload_hash,
            "version": self.version,
        }


@Table(
    "f_map",
    blobs=lambda r: [r.plan_id.digest16],
    references=("snapshot_id", "repr_id", "run_id", "decision_id"),
)
@dataclass(frozen=True)
class FMapEntry(_Record):
    """One materialized map row: grid point, run, and resulting decision."""

    experiment_id: str
    snapshot_id: Identifier
    repr_id: Identifier
    run_id: Identifier
    decision_id: Identifier
    plan_id: Identifier
    created_at: str = field(default="", compare=False)


TABLES = tuple(table.name for table in _TABLES.values())
_BY_PREFIX = {t.prefix: t for t in _TABLES.values() if t.prefix}
_BY_KEY = {t.key: t for t in _TABLES.values() if t.key}


class Store:
    """Handle on one store directory. Writers must not be shared across processes."""

    def __init__(self, location: Union[str, Path]):
        self.location = Path(location)
        self.blob_dir = self.location / BLOB_DIRNAME
        self._lock = threading.RLock()
        self._conn = self._open_connection()

    def _open_connection(self) -> sqlite3.Connection:
        db_path = self.location / DB_FILENAME
        if self.location.exists() and not self.location.is_dir():
            raise StoreOpenError(f"store location {self.location} is not a directory")
        existing = db_path.exists()
        try:
            self.location.mkdir(parents=True, exist_ok=True)
            self.blob_dir.mkdir(exist_ok=True)
            conn = sqlite3.connect(db_path, check_same_thread=False)
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA foreign_keys = ON")
            if existing:
                self._check_integrity(conn)
            with conn:
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                    ("store_format", STORE_FORMAT_VERSION),
                )
        except sqlite3.Error as exc:
            raise StoreOpenError(f"cannot open store at {self.location}: {exc}") from exc
        return conn

    @staticmethod
    def _check_integrity(conn: sqlite3.Connection) -> None:
        try:
            names = {
                row[0]
                for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        except sqlite3.DatabaseError as exc:
            raise StoreOpenError(f"existing database is unreadable: {exc}") from exc
        if "meta" not in names:
            raise StoreOpenError("existing database has no meta table")
        missing = [t for t in TABLES if t not in names]
        if missing:
            raise StoreOpenError(f"existing database is missing tables: {missing}")
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'store_format'"
        ).fetchone()
        if row is None or row[0] != STORE_FORMAT_VERSION:
            found = None if row is None else row[0]
            raise StoreOpenError(
                f"store format mismatch: found {found!r}, expected {STORE_FORMAT_VERSION!r}"
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- blob area ---------------------------------------------------------

    def _blob_path(self, ref: str) -> Path:
        if not canon.is_payload_hash(ref):
            raise IdentifierFormatError(f"malformed blob hash: {ref!r}")
        return self.blob_dir / ref[:2] / ref[2:4] / ref

    def put_blob(self, data: bytes) -> BlobRef:
        """Store bytes under their content hash. Re-storing is a no-op."""
        ref = canon.payload_hash(data)
        path = self._blob_path(ref)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.parent / f".{ref}.{os.getpid()}.{threading.get_ident()}.tmp"
            tmp.write_bytes(data)
            os.replace(tmp, path)
        return BlobRef(hash=ref, length=len(data))

    def get_blob(self, ref: str) -> bytes:
        """Load bytes by hash, verifying them against their address."""
        data = self.read_blob_unverified(ref)
        if data is None:
            raise ReferentialError(f"blob {ref} is not stored")
        actual = canon.payload_hash(data)
        if actual != ref:
            raise BlobCorruptionError(
                f"blob {ref} re-hashes to {actual}; stored bytes are corrupt"
            )
        return data

    def read_blob_unverified(self, ref: str) -> Optional[bytes]:
        """Raw blob read without the re-hash check; None when absent.

        Verification audits use this so that corruption can be reported
        as a finding instead of an exception.
        """
        path = self._blob_path(ref)
        try:
            return path.read_bytes()
        except FileNotFoundError:
            return None

    def has_blob(self, ref: str) -> bool:
        return self._blob_path(ref).exists()

    def iter_blob_hashes(self) -> Iterator[str]:
        for path in sorted(self.blob_dir.glob("*/*/*")):
            if not path.name.startswith("."):
                yield path.name

    def blob_count(self) -> int:
        return sum(1 for _ in self.iter_blob_hashes())

    # -- rows --------------------------------------------------------------

    def _require_row(self, column: str, ident: Identifier, owner: str) -> None:
        cur = self._conn.execute(_BY_KEY[column].exists_sql, (str(ident),))
        if cur.fetchone() is None:
            raise ReferentialError(f"{owner} references missing {column} {ident}")

    def _check_fmap_links(self, entry: FMapEntry) -> None:
        rep = self.get_record(entry.repr_id)
        if rep.snapshot_id != entry.snapshot_id:
            raise IntegrityError(
                f"f_map entry snapshot {entry.snapshot_id} does not match "
                f"representation snapshot {rep.snapshot_id}"
            )
        run = self.get_record(entry.run_id)
        if run.repr_id != entry.repr_id:
            raise IntegrityError(
                f"f_map entry representation {entry.repr_id} does not match "
                f"run representation {run.repr_id}"
            )

    def put_record(self, record: _Record) -> str:
        """Insert a record, returning "inserted" or "ignored".

        The record's identifier is recomputed from its identifying
        payload and every reference is checked before the write, so the
        tables stay closed under the chain invariants. Only a row whose
        primary key is already stored is ignored; any other failed
        constraint raises DecisionDBError.
        """
        table = _TABLES.get(type(record))
        if table is None:
            raise TypeError(f"not a storable record: {type(record).__name__}")
        owner = f"{table.name} row"
        payload = None
        if table.prefix is not None:
            payload = record.identifying_payload()
            stored = getattr(record, table.key)
            recomputed = canon.content_id(table.prefix, payload)
            if recomputed != stored:
                raise IntegrityError(
                    f"stored identifier {stored} does not match recomputed {recomputed}"
                )
            owner = f"{owner} {stored}"
        for column in table.references:
            self._require_row(column, getattr(record, column), owner)
        for ref in table.blobs(record):
            if not self.has_blob(ref):
                raise ReferentialError(f"{owner} references missing blob {ref}")
        if isinstance(record, FMapEntry):
            self._check_fmap_links(record)
        try:
            with self._lock, self._conn:
                cur = self._conn.execute(table.insert_sql, table.row(record, payload))
        except sqlite3.Error as exc:
            raise DecisionDBError(f"cannot write {owner}: {exc}") from exc
        return "inserted" if cur.rowcount else "ignored"

    def get_record(self, ident: Union[str, Identifier]):
        """Fetch the row addressed by an identifier, or None when absent.

        Policy and plan identifiers address blob-backed specs, not rows,
        so they always resolve to None here.
        """
        if isinstance(ident, str):
            ident = Identifier.parse(ident)
        table = _BY_PREFIX.get(ident.prefix)
        if table is None:
            return None
        row = self._conn.execute(table.select_by_key_sql, (str(ident),)).fetchone()
        return None if row is None else table.record(row)

    def table_counts(self) -> dict[str, int]:
        counts = {}
        for table in TABLES:
            counts[table] = self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
        return counts

    def table_rows(self, table: str) -> list[dict]:
        """All rows of one table as dicts, in a deterministic order."""
        if table not in TABLES:
            raise ValueError(f"unknown table {table!r}")
        cur = self._conn.execute(f"SELECT * FROM {table}")
        rows = [dict(row) for row in cur.fetchall()]
        rows.sort(key=lambda r: tuple(str(v) for v in r.values()))
        return rows

    def query_fmap(
        self,
        experiment_id: str,
        snapshot_id: Optional[Union[str, Identifier]] = None,
        plan_id: Optional[Union[str, Identifier]] = None,
    ) -> list[FMapEntry]:
        """Map rows for an experiment, sorted by repr then run then plan."""
        sql = f"{FMapEntry.TABLE.select_sql} WHERE experiment_id = ?"
        args: list[str] = [experiment_id]
        if snapshot_id is not None:
            sql += " AND snapshot_id = ?"
            args.append(str(_as_identifier(snapshot_id, "snap")))
        if plan_id is not None:
            sql += " AND plan_id = ?"
            args.append(str(_as_identifier(plan_id, "plan")))
        sql += " ORDER BY repr_id, run_id, plan_id"
        return [FMapEntry.TABLE.record(row) for row in self._conn.execute(sql, args)]

    def fmap_for_decision(self, decision_id: Union[str, Identifier]) -> list[FMapEntry]:
        ident = _as_identifier(decision_id, "dec")
        cur = self._conn.execute(
            f"{FMapEntry.TABLE.select_sql} WHERE decision_id = ? "
            "ORDER BY experiment_id, repr_id, run_id, plan_id",
            (str(ident),),
        )
        return [FMapEntry.TABLE.record(row) for row in cur.fetchall()]


def open_store(location: Union[str, Path]) -> Store:
    """Open a store directory, creating an empty one when absent."""
    return Store(location)
