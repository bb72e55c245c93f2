"""Append-only relational store plus write-once blob area.

A store is a directory holding one SQLite database and a ``blobs/`` tree
fanned out by content hash. Rows are keyed by content-derived
identifiers; a row whose primary key is already stored is skipped, so
re-storing the same entity is a no-op and nothing is ever updated or
deleted.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import threading
import time
import urllib.parse
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, ClassVar, NewType, Optional, Union, get_type_hints

from . import canon
from .canon import Identifier, SCHEMA_VERSION
from .errors import (
    BlobCorruptionError,
    BrokenChainError,
    DecisionDBError,
    IdentifierFormatError,
    IntegrityError,
    ReferentialError,
    StoreOpenError,
    ValidationError,
)

DB_FILENAME = "store.sqlite"
BLOB_DIRNAME = "blobs"
STORE_FORMAT_VERSION = "1"

# Longest a batch keeps one transaction open before committing what it
# holds. It bounds the rows a killed process can lose, and the dirty
# pages held in SQLite's page cache, whose spill to the database file
# takes an exclusive lock that blocks readers.
_COMMIT_INTERVAL_S = 0.5

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


# A column holding a blob's content hash; a row holding anything else does not decode.
BlobHash = NewType("BlobHash", str)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime())


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    artifact_ref: str


def _manifest(value: Any) -> tuple[ManifestEntry, ...]:
    """A decoded artifact manifest: a list of {name, artifact_ref} objects
    of strings, each artifact_ref a blob hash."""
    shape = {"name": str, "artifact_ref": str}
    if isinstance(value, list) and all(
        isinstance(e, dict) and {k: type(v) for k, v in e.items()} == shape for e in value
    ):
        bad = [e["artifact_ref"] for e in value if not canon.is_payload_hash(e["artifact_ref"])]
        if bad:
            raise IdentifierFormatError(f"malformed blob hash: {bad[0]!r}")
        return tuple(ManifestEntry(**e) for e in value)
    raise ValidationError("not a list of {name, artifact_ref} objects of strings")


def _object(value: Any) -> dict:
    if isinstance(value, dict):
        return value
    raise ValidationError("not an object")


# Record class -> Table, in the order tables are listed and counted.
_TABLES: dict[type, "Table"] = {}


class Table:
    """How a record class maps onto its table; decorates the record class.

    Columns follow the record's fields in order, and an identified
    record's first field is its key. A ``split`` field spreads its tuple
    over the named columns. A ``json`` field is stored as the canonical
    encoding of its entry in the identifying payload and read back
    through the given converter, which refuses a wrong shape (None keeps any value).
    A field typed ``Identifier`` is parsed as one, and a ``BlobHash`` field
    must hold a blob's hash. ``references`` lists identifier fields that
    must name an existing row; each is the key column of the table it
    points into. ``links`` maps a reference to a column that the
    referenced row must share with the record, and the message for a
    mismatch. ``blobs`` gives the blob hashes a record references; a
    policy or plan spec blob is addressed by its identifier's digest.

    The table's DDL follows from the same description: every column is
    ``TEXT NOT NULL`` apart from the key, ``primary_key`` names the
    columns of a composite key, and ``allowed`` limits a column to the
    listed values. ``order`` is the row order of every read of its rows.
    """

    def __init__(
        self,
        name,
        blobs,
        prefix=None,
        json=None,
        split=None,
        references=(),
        links=None,
        primary_key=(),
        allowed=None,
        order=(),
    ):
        self.name = name
        self.blobs = blobs
        self.prefix = prefix
        self.json = json or {}
        self.split = split or {}
        self.references = references
        self.links = links or {}
        self.primary_key = primary_key
        self.allowed = allowed or {}
        self.order = order
        self.order_sql = f" ORDER BY {', '.join(order)}" if order else ""

    def __call__(self, cls):
        """Work out the record class's columns and SQL text once, and register it."""
        name = self.name
        self.cls = cls
        self.key = fields(cls)[0].name if self.prefix else None
        self.values_of = attrgetter(*(f.name for f in fields(cls)))
        hints = get_type_hints(cls)
        self.columns = columns = []
        self.splits = []
        self.ids = []
        self.hashes = []
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
                self.ids.append((at, f.name))
            elif hints[f.name] is BlobHash:
                self.hashes.append((at, f.name))
        self.key_at = [columns.index(c) for c in self.primary_key or (self.key,)]
        # A referenced table is keyed by the referencing column and is
        # declared before the tables that point into it.
        keyed = {table.key: table for table in _TABLES.values() if table.key}
        self.references = {column: keyed[column] for column in self.references}
        # One statement reads every referenced row: its key, or the
        # column a link compares. NULL marks a missing row, since the
        # key is the looked-up value and every other column is NOT NULL.
        self.references_sql = "SELECT " + ", ".join(
            f"(SELECT {self.links.get(column, (column,))[0]} "
            f"FROM {target.name} WHERE {column} = ?)"
            for column, target in self.references.items()
        )
        self.link_checks = [
            (at, *self.links[column])
            for at, column in enumerate(self.references)
            if column in self.links
        ]
        self.create_sql = self._create_sql(columns)
        names = ", ".join(columns)
        marks = ", ".join("?" * len(columns))
        self.insert_sql = (
            f"INSERT INTO {name} ({names}) VALUES ({marks}) ON CONFLICT DO NOTHING"
        )
        if self.key:
            self.select_by_key_sql = f"SELECT {names} FROM {name} WHERE {self.key} = ?"
        cls.TABLE = _TABLES[cls] = self
        return cls

    def _create_sql(self, columns: list[str]) -> str:
        lines = []
        for column in columns:
            constraint = "PRIMARY KEY" if column == self.key else "NOT NULL"
            line = f"{column} TEXT {constraint}"
            if column in self.references:
                line += f" REFERENCES {self.references[column].name}({column})"
            if column in self.allowed:
                values = ", ".join(f"'{value}'" for value in self.allowed[column])
                line += f" CHECK ({column} IN ({values}))"
            lines.append(line)
        if self.primary_key:
            lines.append(f"PRIMARY KEY ({', '.join(self.primary_key)})")
        body = ",\n    ".join(lines)
        return f"CREATE TABLE IF NOT EXISTS {self.name} (\n    {body}\n)"

    def row(self, record, payload: Optional[Mapping[str, Any]]) -> list:
        """Column values in insert order; JSON columns come from ``payload``."""
        values = list(self.values_of(record))
        for at, name in self.jsons:
            values[at] = canon.canonical_encode(payload[name]).decode("utf-8")
        for at, _, _ in reversed(self.splits):
            values[at : at + 1] = values[at]
        return values

    def record(self, row: Sequence[Any]):
        """The record a stored row holds. A cell that is not text (every
        column is TEXT), checked before any cell is decoded, and a column
        that does not decode into its field raise BrokenChainError naming
        the table, key and column."""
        try:
            for column, value in zip(self.columns, row):
                if type(value) is not str:
                    raise ValidationError(f"stored as {type(value).__name__}, not text")
            values = list(row)
            for _, at, width in reversed(self.splits):
                values[at : at + width] = [tuple(values[at : at + width])]
            for at, column in self.ids:
                values[at] = canon.parse_identifier(values[at])
            for at, column in self.hashes:
                if not canon.is_payload_hash(values[at]):
                    raise IdentifierFormatError(f"malformed blob hash: {values[at]!r}")
            for at, column in self.jsons:
                value = canon.canonical_decode(values[at].encode("utf-8"))
                values[at] = value if self.json[column] is None else self.json[column](value)
        except DecisionDBError as exc:
            key = "/".join(str(row[i]) for i in self.key_at)
            raise BrokenChainError(f"{self.name} row {key} column {column}: {exc}") from exc
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

    @classmethod
    def from_row(cls, row: Sequence[Any]):
        """The record a stored row of the class's table holds; see ``Table.record``."""
        return cls.TABLE.record(row)

    def derived_id(self) -> Identifier:
        """The identifier this record's identifying payload hashes to."""
        return canon.content_id(self.TABLE.prefix, self.identifying_payload())


@Table(
    "snapshots",
    blobs=lambda r: [e.artifact_ref for e in r.artifact_manifest],
    prefix="snap",
    json={"artifact_manifest": _manifest},
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
    json={"params": _object},
    references=("snapshot_id",),
)
@dataclass(frozen=True)
class RepresentationRecord(_Record):
    repr_id: Identifier
    snapshot_id: Identifier
    factory_name: str
    factory_version: str
    params: Mapping[str, str]
    encoded_artifact_ref: BlobHash
    version: str = SCHEMA_VERSION
    created_at: str = field(default="", compare=False)

    def identifying_payload(self) -> dict:
        # The encoded artifact is a deterministic function of the other
        # fields, so its hash is deliberately not identifying.
        return {
            "snapshot_id": self.snapshot_id,
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
    allowed={"status": ("ok", "failed")},
)
@dataclass(frozen=True)
class EngineRunRecord(_Record):
    run_id: Identifier
    repr_id: Identifier
    engine_name: str
    engine_version: str
    query: Any
    raw_output_ref: BlobHash
    exec_time_ms: str
    status: str = "ok"
    version: str = SCHEMA_VERSION
    created_at: str = field(default="", compare=False)

    def identifying_payload(self) -> dict:
        return {
            "repr_id": self.repr_id,
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
            "policy_id": self.policy_id,
            "payload_hash": self.payload_hash,
            "version": self.version,
        }


@Table(
    "f_map",
    blobs=lambda r: [r.plan_id.digest16],
    references=("snapshot_id", "repr_id", "run_id", "decision_id"),
    links={
        "repr_id": (
            "snapshot_id",
            "f_map entry snapshot {} does not match representation snapshot {}",
        ),
        "run_id": (
            "repr_id",
            "f_map entry representation {} does not match run representation {}",
        ),
    },
    primary_key=("experiment_id", "plan_id", "repr_id", "run_id", "decision_id"),
    order=("experiment_id", "repr_id", "run_id", "plan_id"),
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
# Every table's row count from one read, so all of them see one state.
_COUNTS_SQL = "SELECT " + ", ".join(f"(SELECT COUNT(*) FROM {t})" for t in TABLES)
# The reads of sweep's point statuses and decision map and of sweep report, by
# name: (statement, the column a repr id narrows it on, row order). Runs are read
# from engine_runs outward (CROSS JOIN fixes the loop order), so no automatic index
# is built on engine_runs; a map row is complete when every row it references exists.
_READS = {
    "stored": (
        "SELECT repr_id, encoded_artifact_ref FROM representations"
        " WHERE snapshot_id = ? AND factory_name = ? AND factory_version = ?",
        "repr_id", ""),
    "runs": (
        "SELECT e.repr_id, e.run_id, e.raw_output_ref"
        " FROM engine_runs AS e CROSS JOIN representations AS r ON r.repr_id = e.repr_id"
        " WHERE e.engine_name = ? AND e.engine_version = ? AND e.query = ? AND e.status = 'ok'"
        " AND r.snapshot_id = ? AND r.factory_name = ? AND r.factory_version = ?",
        "e.repr_id", ""),
    "map_rows": (
        "SELECT repr_id, run_id, decision_id, "
        + " AND ".join(
            f"EXISTS (SELECT 1 FROM {table.name} WHERE {column} = f.{column})"
            for column, table in FMapEntry.TABLE.references.items()
        )
        + " FROM f_map AS f WHERE experiment_id = ? AND plan_id = ?",
        "repr_id", FMapEntry.TABLE.order_sql),
    "raw_output_refs": (
        "SELECT run_id, raw_output_ref FROM engine_runs WHERE run_id IN"
        " (SELECT run_id FROM f_map WHERE experiment_id = ? AND plan_id = ?)",
        None, ""),
}


def _locked(exc: sqlite3.Error) -> bool:
    """SQLITE_BUSY, left after the busy timeout; matched on its message,
    since Python 3.10 exposes no SQLite error code."""
    return str(exc) == "database is locked"


def _interrupted(exc: sqlite3.Error) -> bool:
    """SQLITE_READONLY on a read: a read-only connection found a hot
    journal, left by a writer that stopped mid-transaction, and may not
    roll it back."""
    return str(exc) == "attempt to write a readonly database"


def _table_names(conn: sqlite3.Connection) -> set[str]:
    try:
        return {
            row[0]
            for row in conn.execute("SELECT name FROM sqlite_master WHERE type = 'table'")
        }
    except sqlite3.DatabaseError as exc:
        if _locked(exc) or _interrupted(exc):
            raise
        raise StoreOpenError(f"existing database is unreadable: {exc}") from exc


class Store:
    """Handle on one store directory. Writers must not be shared across processes."""

    def __init__(self, location: Union[str, Path], create: bool = True):
        self.location = Path(location)
        self.blob_dir = self.location / BLOB_DIRNAME
        self._blob_root = str(self.blob_dir)
        self._lock = threading.RLock()
        self._depth = 0
        self._opened = 0.0
        self._read_only = not create
        self._conn = self._open_connection(create)

    def _open_connection(self, create: bool) -> sqlite3.Connection:
        db_path = self.location / DB_FILENAME
        if self.location.exists() and not self.location.is_dir():
            raise StoreOpenError(f"store location {self.location} is not a directory")
        try:
            if create:
                self.location.mkdir(parents=True, exist_ok=True)
                self.blob_dir.mkdir(exist_ok=True)
            # Mode "ro" opens an existing database file and never writes
            # to it, not even to roll back a hot journal.
            mode = "rwc" if create else "ro"
            conn = sqlite3.connect(
                f"file:{urllib.parse.quote(str(db_path))}?mode={mode}",
                uri=True,
                check_same_thread=False,
            )
            try:
                conn.execute("PRAGMA foreign_keys = ON")
                # A store that has tables is only read here, so opening one
                # never waits on another connection's write transaction.
                if create and not _table_names(conn):
                    self._create_layout(conn)
                self._check_integrity(conn)
            except BaseException:
                conn.close()
                raise
        except (sqlite3.Error, OSError) as exc:
            raise self.error(exc, "open") from exc
        return conn

    def error(self, exc: Exception, doing: str = "use") -> StoreOpenError:
        """The error to report for a SQLite or OS error raised while opening
        (``doing="open"``) or using this store."""
        if _locked(exc):
            return StoreOpenError(f"store at {self.location} is locked by another connection")
        if self._read_only and _interrupted(exc):
            return StoreOpenError(
                "a write to this store was interrupted; run a write command "
                "(e.g. decisiondb init) to recover"
            )
        return StoreOpenError(f"cannot {doing} store at {self.location}: {exc}")

    @staticmethod
    def _create_layout(conn: sqlite3.Connection) -> None:
        """Write the tables and the meta row in one transaction.

        Another process may be creating the same store: whoever takes
        the write lock first creates it, and the others find its tables
        once they get the lock, and write nothing.
        """
        conn.execute("BEGIN IMMEDIATE")
        try:
            if not _table_names(conn):
                # One execute per statement: executescript commits first.
                conn.execute(_SCHEMA)
                for table in _TABLES.values():
                    conn.execute(table.create_sql)
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("store_format", STORE_FORMAT_VERSION),
                )
            conn.commit()
        except BaseException:
            conn.rollback()
            raise

    @staticmethod
    def _check_integrity(conn: sqlite3.Connection) -> None:
        names = _table_names(conn)
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

    def _execute(self, sql: str, params: Sequence = ()) -> list:
        """Run one statement under the lock and return all its rows, so a
        read waits for another thread's open batch; a SQLite error is
        reported through ``error``."""
        with self._lock:
            try:
                return self._conn.execute(sql, params).fetchall()
            except sqlite3.Error as exc:
                raise self.error(exc) from exc

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- blob area ---------------------------------------------------------

    def _blob_path(self, ref: str) -> str:
        """The blob's file path as a string: a sweep reads and writes
        blobs per point, and building ``Path`` objects for each costs
        more than the file calls themselves."""
        if not canon.is_payload_hash(ref):
            raise IdentifierFormatError(f"malformed blob hash: {ref!r}")
        sep = os.sep
        return f"{self._blob_root}{sep}{ref[:2]}{sep}{ref[2:4]}{sep}{ref}"

    def put_blob(self, data: bytes) -> str:
        """Store bytes under their content hash and return it; re-storing is
        a no-op, and a directory at its path is refused."""
        ref = canon.payload_hash(data)
        path = self._blob_path(ref)
        if not os.path.isfile(path):
            if os.path.isdir(path):
                raise StoreOpenError(f"blob {ref} cannot be written: its path is a directory")
            parent = path[: -len(ref) - 1]
            # One mkdir in the common cases; makedirs for a new first level.
            try:
                os.mkdir(parent)
            except FileExistsError:
                pass
            except FileNotFoundError:
                os.makedirs(parent, exist_ok=True)
            tmp = f"{parent}{os.sep}.{ref}.{os.getpid()}.{threading.get_ident()}.tmp"
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        return ref

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
        """Raw blob read without the re-hash check; None when absent, and
        StoreOpenError naming the blob when the OS refuses the read.

        Verification audits use this so that corruption can be reported
        as a finding instead of an exception.
        """
        try:
            with open(self._blob_path(ref), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreOpenError(f"blob {ref} cannot be read: {exc}") from exc

    def has_blob(self, ref: str) -> bool:
        return os.path.isfile(self._blob_path(ref))

    def iter_blob_hashes(self) -> Iterator[str]:
        for path in sorted(self.blob_dir.glob("*/*/*")):
            if not path.name.startswith(".") and path.is_file():
                yield path.name

    def blob_count(self) -> int:
        return sum(1 for _ in self.iter_blob_hashes())

    # -- rows --------------------------------------------------------------

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """Hold the write lock and one open transaction across many writes.

        Re-entrant; only the outermost batch commits on exit, and it
        does so whether its body returned or raised. Inside a batch a row
        is also committed once the open transaction is older than
        ``_COMMIT_INTERVAL_S``. Every row is checked before its insert,
        so whatever prefix of a batch's rows is durable is a state that
        committing each row on its own allows too. Writes from another
        thread wait until the batch ends.
        """
        with self._lock:
            self._depth += 1
            try:
                yield
            finally:
                self._depth -= 1
                if not self._depth:
                    self._commit()

    def _commit(self) -> None:
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            self._conn.rollback()
            raise DecisionDBError(f"cannot commit to store at {self.location}: {exc}") from exc

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
        found = ()
        if table.references:
            idents = [getattr(record, column) for column in table.references]
            (found,) = self._execute(table.references_sql, idents)
            for column, ident, value in zip(table.references, idents, found):
                if value is None:
                    raise ReferentialError(f"{owner} references missing {column} {ident}")
        for ref in table.blobs(record):
            if not self.has_blob(ref):
                raise ReferentialError(f"{owner} references missing blob {ref}")
        for at, column, message in table.link_checks:
            if found[at] != getattr(record, column):
                raise IntegrityError(message.format(getattr(record, column), found[at]))
        with self.batch():
            if not self._conn.in_transaction:
                self._opened = time.monotonic()
            try:
                cur = self._conn.execute(table.insert_sql, table.row(record, payload))
            except sqlite3.Error as exc:
                raise DecisionDBError(f"cannot write {owner}: {exc}") from exc
            if time.monotonic() - self._opened >= _COMMIT_INTERVAL_S:
                self._commit()
        return "inserted" if cur.rowcount else "ignored"

    def get_record(self, ident: str):
        """Fetch the row addressed by an identifier, or None when absent.

        Policy and plan identifiers address blob-backed specs, not rows,
        so they always resolve to None here.
        """
        ident = canon.parse_identifier(ident)
        table = _BY_PREFIX.get(ident.prefix)
        if table is None:
            return None
        rows = self._execute(table.select_by_key_sql, (ident,))
        return table.record(rows[0]) if rows else None

    def table_counts(self) -> dict[str, int]:
        return dict(zip(TABLES, self._execute(_COUNTS_SQL)[0]))

    def read(self, name: str, key: Sequence, repr_id: Optional[str] = None) -> list:
        """The rows of ``_READS[name]`` bound to ``key``; with ``repr_id``, only that point's."""
        sql, column, order = _READS[name]
        if repr_id is not None:
            sql, key = f"{sql} AND {column} = ?", (*key, repr_id)
        return self._execute(sql + order, key)

    def query_fmap(
        self,
        experiment_id: Optional[str] = None,
        plan_id: Optional[str] = None,
        decision_id: Optional[str] = None,
    ) -> list[FMapEntry]:
        """Map rows matching every filter given, in the f_map table's order."""
        rows = self.fmap_rows(experiment_id, plan_id, decision_id)
        return [FMapEntry.from_row(row) for row in rows]

    def fmap_rows(
        self,
        experiment_id: Optional[str] = None,
        plan_id: Optional[str] = None,
        decision_id: Optional[str] = None,
        join: Sequence[type] = (),
    ) -> list[tuple]:
        """``query_fmap``'s rows as stored, not decoded, so a reader can
        decode each one (``FMapEntry.from_row``) on its own.

        ``join`` lists record classes whose key is an f_map column
        (``EngineRunRecord``, ``RepresentationRecord``). Each row is then a
        tuple of cell tuples: the f_map row's, then, per class in that
        order, those of the row its key names, all None where that row is
        missing. So one statement reads every entry's chain. The f_map
        rows and their order are the same with or without ``join``.
        """
        filters = {} if experiment_id is None else {"experiment_id": experiment_id}
        for column, prefix, value in (
            ("plan_id", "plan", plan_id),
            ("decision_id", "dec", decision_id),
        ):
            if value is not None:
                filters[column] = canon.parse_identifier(value, prefix)
        table = FMapEntry.TABLE
        columns = [f"f.{column}" for column in table.columns]
        joins = ""
        bounds = [0, len(columns)]
        for n, cls in enumerate(join):
            other = cls.TABLE
            columns.extend(f"j{n}.{column}" for column in other.columns)
            joins += f" LEFT JOIN {other.name} AS j{n} ON j{n}.{other.key} = f.{other.key}"
            bounds.append(len(columns))
        sql = f"SELECT {', '.join(columns)} FROM {table.name} AS f{joins}"
        if filters:
            sql += " WHERE " + " AND ".join(f"f.{column} = ?" for column in filters)
        sql += " ORDER BY " + ", ".join(f"f.{column}" for column in table.order)
        rows = self._execute(sql, list(filters.values()))
        if join:
            parts = list(zip(bounds, bounds[1:]))
            rows = [tuple(row[start:end] for start, end in parts) for row in rows]
        return rows


def open_store(location: Union[str, Path], create: bool = True) -> Store:
    """Open a store directory, creating an empty one when absent.

    A database with no tables counts as absent. With ``create=False``
    the database is opened read-only and nothing is created, initialised
    or rolled back: a missing database, one with no tables, or one with
    a hot journal is refused.
    """
    return Store(location, create)
