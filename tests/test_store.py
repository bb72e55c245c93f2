import ast
import contextlib
import copy
import hashlib
import multiprocessing
import pickle
import random
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from decisiondb import canon, cli, store as store_module
from decisiondb.errors import (
    BlobCorruptionError,
    BrokenChainError,
    DecisionDBError,
    IdentifierFormatError,
    IntegrityError,
    ReferentialError,
    StoreOpenError,
    SweepExecutionError,
    ValidationError,
)
from decisiondb.store import (
    TABLES,
    DecisionRecord,
    EngineRunRecord,
    FMapEntry,
    ManifestEntry,
    RepresentationRecord,
    SnapshotRecord,
    open_store,
)
from decisiondb.replay import replay_all
from decisiondb.sweep import materialize_map
from toy_arena import StepEngine, make_plan, run_plan, setup_world

WINDOW = ("2025-01-01T00:00:00Z", "2025-01-08T00:00:00Z")
# f_map's referenced rows in declared order, with their identifier prefixes.
FMAP_REFERENCES = [("snapshot_id", "snap"), ("repr_id", "repr"),
                   ("run_id", "run"), ("decision_id", "dec")]


@pytest.fixture
def store(tmp_path):
    with open_store(tmp_path / "db") as s:
        yield s


def _policy_blob(store):
    payload = {
        "canonicalization_rule": "canonical_json_utf8",
        "hash_source": ["answer"],
        "match_rule": "sha256_equality",
        "version": "1",
    }
    store.put_blob(canon.canonical_encode(payload))
    return canon.content_id("pol", payload)


def _plan_blob(store):
    payload = {"axes": [], "query": {"q": 1}, "version": "1"}
    store.put_blob(canon.canonical_encode(payload))
    return canon.content_id("plan", payload)


def build_chain(store, experiment_id="exp", answer=None):
    """Persist one snapshot -> representation -> run -> decision -> map row."""
    answer = answer if answer is not None else [1, 2]
    artifact = {"data": [1, 2, 3], "version": "1"}
    art_ref = store.put_blob(canon.canonical_encode(artifact))
    snap = SnapshotRecord.create(WINDOW, [ManifestEntry("world", art_ref)])
    store.put_record(snap)

    enc_ref = store.put_blob(b'{"encoded":true,"version":"1"}')
    rep = RepresentationRecord.create(
        snap.snapshot_id, "fac", "1", {"w": "0.5"}, enc_ref
    )
    store.put_record(rep)

    raw = {"answer": answer, "cost": "3.5", "version": "1"}
    raw_ref = store.put_blob(canon.canonical_encode(raw))
    run = EngineRunRecord.create(
        rep.repr_id, "eng", "1", {"q": 1}, raw_ref, "1.000"
    )
    store.put_record(run)

    pol_id = _policy_blob(store)
    dec = DecisionRecord.create(
        pol_id, canon.payload_hash(canon.canonical_encode(answer))
    )
    store.put_record(dec)

    plan_id = _plan_blob(store)
    entry = FMapEntry.create(
        experiment_id, snap.snapshot_id, rep.repr_id, run.run_id, dec.decision_id, plan_id
    )
    store.put_record(entry)
    return {
        "snapshot": snap,
        "representation": rep,
        "run": run,
        "decision": dec,
        "entry": entry,
        "raw_ref": raw_ref,
        "plan_id": plan_id,
        "policy_id": pol_id,
    }


def _open_fresh_stores(root, rounds, barrier, log):
    """Open one fresh store per round, in step with the other workers."""
    for i in range(rounds):
        try:
            barrier.wait(timeout=60)
            open_store(root / f"round{i}").close()
        except Exception as exc:
            with open(log, "a") as fh:
                fh.write(f"round {i}: {exc!r}\n")


class TestOpen:
    def test_concurrent_opens_of_a_fresh_store_all_succeed(self, tmp_path):
        # Every worker opens the same new path at once: one creates the
        # layout, the others must wait for it and then only check it.
        workers, rounds = 4, 20
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(workers)
        logs = [tmp_path / f"worker{n}.log" for n in range(workers)]
        procs = [
            ctx.Process(target=_open_fresh_stores, args=(tmp_path, rounds, barrier, log))
            for log in logs
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
            if proc.is_alive():
                proc.kill()
        assert [proc.exitcode for proc in procs] == [0] * workers
        failures = "".join(log.read_text() for log in logs if log.exists())
        assert failures == ""
        for i in range(rounds):
            with open_store(tmp_path / f"round{i}") as s:
                assert s.table_counts() == dict.fromkeys(TABLES, 0)

    def test_open_without_create_refuses_a_missing_database(self, tmp_path):
        loc = tmp_path / "db"
        loc.mkdir()
        with pytest.raises(StoreOpenError, match="cannot open store"):
            open_store(loc, create=False)
        assert list(loc.iterdir()) == []

    def test_open_creates_layout(self, tmp_path):
        s = open_store(tmp_path / "db")
        assert (tmp_path / "db" / "store.sqlite").exists()
        assert (tmp_path / "db" / "blobs").is_dir()
        assert s.table_counts() == {
            "snapshots": 0,
            "representations": 0,
            "engine_runs": 0,
            "decisions": 0,
            "f_map": 0,
        }
        s.close()

    def test_reopen_preserves_chain_counts(self, tmp_path):
        s = open_store(tmp_path / "db")
        build_chain(s)
        s.close()
        s = open_store(tmp_path / "db")
        assert s.table_counts() == {
            "snapshots": 1,
            "representations": 1,
            "engine_runs": 1,
            "decisions": 1,
            "f_map": 1,
        }
        s.close()

    def test_open_on_file_fails(self, tmp_path):
        target = tmp_path / "afile"
        target.write_text("hello")
        with pytest.raises(StoreOpenError):
            open_store(target)

    def test_open_on_garbage_database_fails(self, tmp_path):
        loc = tmp_path / "db"
        loc.mkdir()
        (loc / "store.sqlite").write_bytes(b"not a database at all" * 10)
        with pytest.raises(StoreOpenError, match="unreadable"):
            open_store(loc)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("UPDATE meta SET value = '2' WHERE key = 'store_format'",
             "store format mismatch: found '2', expected '1'"),
            ("DROP TABLE f_map", r"missing tables: \['f_map'\]"),
        ],
        ids=["format-mismatch", "missing-table"],
    )
    def test_open_refuses_a_damaged_layout(self, tmp_path, damage, message):
        open_store(tmp_path / "db").close()
        conn = sqlite3.connect(tmp_path / "db" / "store.sqlite")
        with conn:
            conn.execute(damage)
        conn.close()
        with pytest.raises(StoreOpenError, match=message):
            open_store(tmp_path / "db")

    def test_open_on_foreign_database_fails(self, tmp_path):
        import sqlite3

        loc = tmp_path / "db"
        loc.mkdir()
        conn = sqlite3.connect(loc / "store.sqlite")
        conn.execute("CREATE TABLE unrelated (x INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StoreOpenError):
            open_store(loc)

    @pytest.mark.parametrize(
        "damage, creates",
        [
            ("CREATE TABLE unrelated (x INTEGER)", (True, False)),
            ("UPDATE meta SET value = '2' WHERE key = 'store_format'", (True, False)),
            ("DROP TABLE f_map", (True, False)),
            ("garbage", (True, False)),
            ("hot journal", (False,)),
        ],
        ids=["no-meta-table", "format-mismatch", "missing-table", "garbage", "sqlite-error"],
    )
    def test_a_refused_open_closes_its_connection(self, tmp_path, monkeypatch, damage, creates):
        # No Store is built, so only the connections themselves can show
        # a leak: a closed one refuses every statement.
        loc = tmp_path / "db"
        if damage == "hot journal":
            loc, _, journal, target = executed_store_and_journal(tmp_path)
            target.write_bytes(journal)
        elif damage == "garbage":
            loc.mkdir()
            (loc / "store.sqlite").write_bytes(b"not a database at all" * 10)
        else:
            if damage.startswith("CREATE"):
                loc.mkdir()
            else:
                open_store(loc).close()
            with contextlib.closing(sqlite3.connect(loc / "store.sqlite")) as conn, conn:
                conn.execute(damage)
        opened = []
        connect = sqlite3.connect

        def recording(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(store_module.sqlite3, "connect", recording)
        for create in creates:
            opened.clear()
            with pytest.raises(StoreOpenError):
                open_store(loc, create)
            assert len(opened) == 1
            with pytest.raises(sqlite3.ProgrammingError, match="closed"):
                opened[0].execute("SELECT 1")


    def test_a_failed_layout_is_rolled_back(self, tmp_path, monkeypatch):
        # The last table's DDL fails once meta and the other tables exist
        # in the open transaction; none of them may stay.
        with monkeypatch.context() as patched:
            patched.setattr(FMapEntry.TABLE, "create_sql", "CREATE TABLE f_map (")
            with pytest.raises(StoreOpenError, match=r"^cannot open store at .*: incomplete input$"):
                open_store(tmp_path / "db")
        with contextlib.closing(sqlite3.connect(tmp_path / "db" / "store.sqlite")) as conn:
            assert conn.execute("SELECT name FROM sqlite_master").fetchall() == []
        with open_store(tmp_path / "db") as s:
            assert s.table_counts() == dict.fromkeys(TABLES, 0)



class TestBlobs:
    def test_round_trip(self, store):
        ref = store.put_blob(b"some bytes")
        assert ref == canon.payload_hash(b"some bytes")
        assert store.get_blob(ref) == b"some bytes"

    def test_put_is_idempotent(self, store):
        a = store.put_blob(b"xyz")
        before = store.blob_count()
        b = store.put_blob(b"xyz")
        assert a == b
        assert store.blob_count() == before

    def test_distinct_bytes_distinct_refs(self, store):
        rng = random.Random(7)
        refs = set()
        for _ in range(50):
            data = rng.randbytes(rng.randrange(0, 64))
            refs.add(store.put_blob(data))
        assert len(refs) >= 49  # allows the empty-bytes repeat

    def test_missing_blob(self, store):
        with pytest.raises(ReferentialError):
            store.get_blob("0" * 16)
        assert store.read_blob_unverified("0" * 16) is None
        assert not store.has_blob("0" * 16)

    def test_unreadable_blob_named_with_the_os_error(self, store):
        ref = store.put_blob(b"payload")
        path = Path(store._blob_path(ref))
        path.unlink()
        path.mkdir()
        message = f"^blob {ref} cannot be read: \\[Errno 21\\] Is a directory: "
        for read in (store.read_blob_unverified, store.get_blob):
            with pytest.raises(StoreOpenError, match=message):
                read(ref)

    def test_a_directory_at_a_blob_path_is_no_blob(self, store):
        ref = canon.payload_hash(b"payload")
        path = Path(store._blob_path(ref))
        path.mkdir(parents=True)
        assert not store.has_blob(ref)
        assert store.blob_count() == 0
        with pytest.raises(StoreOpenError, match=f"^blob {ref} cannot be written: "):
            store.put_blob(b"payload")
        # Refused before a temp file was written beside it.
        assert list(path.parent.iterdir()) == [path]

    def test_malformed_ref(self, store):
        with pytest.raises(IdentifierFormatError):
            store.get_blob("not-a-hash")

    def test_ref_with_a_trailing_newline_refused(self, store):
        ref = store.put_blob(b"payload")
        with pytest.raises(IdentifierFormatError):
            store._blob_path(ref + "\n")
        with pytest.raises(IdentifierFormatError):
            store.read_blob_unverified(ref + "\n")

    def test_corruption_detected_on_read(self, store):
        ref = store.put_blob(b"fragile payload")
        path = Path(store._blob_path(ref))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BlobCorruptionError):
            store.get_blob(ref)

    def test_threads_writing_the_same_blobs(self, store):
        blobs = [f"shared blob {i}".encode() * 64 for i in range(300)]
        start = threading.Barrier(4)
        errors = []

        def write_all():
            start.wait(timeout=30)
            try:
                for data in blobs:
                    store.put_blob(data)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        threads = [threading.Thread(target=write_all) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for data in blobs:
            assert store.get_blob(canon.payload_hash(data)) == data
        assert list(store.blob_dir.rglob("*.tmp")) == []


class TestRecords:
    def test_insert_then_ignore(self, store):
        art = store.put_blob(b"a1")
        snap = SnapshotRecord.create(WINDOW, [ManifestEntry("a", art)])
        assert store.put_record(snap) == "inserted"
        assert store.put_record(snap) == "ignored"
        assert store.table_counts()["snapshots"] == 1

    def test_first_write_wins_for_non_identifying_fields(self, store):
        art = store.put_blob(b"a1")
        snap = SnapshotRecord.create(WINDOW, [ManifestEntry("a", art)])
        store.put_record(snap)
        later = SnapshotRecord(
            snapshot_id=snap.snapshot_id,
            time_window=snap.time_window,
            artifact_manifest=snap.artifact_manifest,
            version=snap.version,
            created_at="2099-01-01T00:00:00+00:00",
        )
        assert store.put_record(later) == "ignored"
        stored = store.get_record(snap.snapshot_id)
        assert stored.created_at == snap.created_at

    def test_manifest_order_does_not_change_snapshot(self, store):
        a, b = store.put_blob(b"a1"), store.put_blob(b"b1")
        entries = [ManifestEntry("a", a), ManifestEntry("b", b)]
        snap = SnapshotRecord.create(WINDOW, entries)
        backwards = SnapshotRecord.create(list(WINDOW), entries[::-1])
        assert backwards.snapshot_id == snap.snapshot_id
        store.put_record(backwards)
        assert store.get_record(snap.snapshot_id) == backwards == snap

    def test_created_at_is_utc_to_the_second(self, store):
        chain = build_chain(store)
        for name in ("snapshot", "representation", "run", "decision", "entry"):
            assert re.fullmatch(
                r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", chain[name].created_at
            )

    def test_identifier_mismatch_rejected(self, store):
        art = store.put_blob(b"a1")
        good = SnapshotRecord.create(WINDOW, [ManifestEntry("a", art)])
        forged = SnapshotRecord(
            snapshot_id=canon.Identifier("snap", "deadbeefdeadbeef"),
            time_window=good.time_window,
            artifact_manifest=good.artifact_manifest,
            version=good.version,
            created_at=good.created_at,
        )
        with pytest.raises(IntegrityError):
            store.put_record(forged)
        assert store.table_counts()["snapshots"] == 0

    def test_snapshot_requires_manifest_blob(self, store):
        snap = SnapshotRecord.create(WINDOW, [ManifestEntry("a", "ab" * 8)])
        with pytest.raises(ReferentialError):
            store.put_record(snap)

    def test_representation_requires_snapshot(self, store):
        enc = store.put_blob(b"enc")
        ghost = canon.content_id("snap", {"version": "1", "nope": 1})
        rep = RepresentationRecord.create(ghost, "fac", "1", {"w": "1"}, enc)
        with pytest.raises(ReferentialError):
            store.put_record(rep)

    def test_run_requires_representation_and_blob(self, store):
        chain = build_chain(store)
        rep = chain["representation"]
        run = EngineRunRecord.create(rep.repr_id, "eng", "1", {}, "0" * 16, "1.0")
        with pytest.raises(ReferentialError):
            store.put_record(run)
        ghost_rep = canon.content_id("repr", {"version": "1", "nope": 2})
        run2 = EngineRunRecord.create(
            ghost_rep, "eng", "1", {}, chain["raw_ref"], "1.0"
        )
        with pytest.raises(ReferentialError):
            store.put_record(run2)

    def test_decision_requires_policy_blob(self, store):
        ghost_pol = canon.content_id("pol", {"version": "1", "nope": 3})
        dec = DecisionRecord.create(ghost_pol, "ab" * 8)
        with pytest.raises(ReferentialError):
            store.put_record(dec)

    def test_fmap_rejects_inconsistent_snapshot(self, store):
        chain = build_chain(store)
        art = store.put_blob(b"other world")
        other_snap = SnapshotRecord.create(
            ("2030-01-01T00:00:00Z", "2030-01-02T00:00:00Z"),
            [ManifestEntry("w", art)],
        )
        store.put_record(other_snap)
        entry = FMapEntry.create(
            "exp2",
            other_snap.snapshot_id,
            chain["representation"].repr_id,
            chain["run"].run_id,
            chain["decision"].decision_id,
            chain["plan_id"],
        )
        with pytest.raises(IntegrityError, match="does not match representation snapshot"):
            store.put_record(entry)

    def test_fmap_rejects_run_of_another_representation(self, store):
        chain = build_chain(store)
        other_rep = RepresentationRecord.create(
            chain["snapshot"].snapshot_id, "fac", "1", {"w": "0.75"},
            chain["representation"].encoded_artifact_ref,
        )
        store.put_record(other_rep)
        entry = FMapEntry.create(
            "exp2",
            chain["snapshot"].snapshot_id,
            other_rep.repr_id,
            chain["run"].run_id,
            chain["decision"].decision_id,
            chain["plan_id"],
        )
        with pytest.raises(IntegrityError, match="does not match run representation"):
            store.put_record(entry)

    def test_fmap_requires_plan_blob(self, store):
        chain = build_chain(store)
        ghost_plan = canon.content_id("plan", {"version": "1", "nope": 4})
        entry = FMapEntry.create(
            "exp3",
            chain["snapshot"].snapshot_id,
            chain["representation"].repr_id,
            chain["run"].run_id,
            chain["decision"].decision_id,
            ghost_plan,
        )
        with pytest.raises(ReferentialError):
            store.put_record(entry)

    @pytest.mark.parametrize("column, prefix", FMAP_REFERENCES)
    def test_fmap_names_the_missing_row(self, store, column, prefix):
        chain = build_chain(store)
        ghost = canon.content_id(prefix, {"version": "1", "nope": 5})
        entry = FMapEntry.create(
            "exp4", **{**self._fmap_fields(chain), column: ghost}
        )
        with pytest.raises(ReferentialError) as raised:
            store.put_record(entry)
        assert str(raised.value) == f"f_map row references missing {column} {ghost}"

    def test_fmap_reports_references_in_declared_order(self, store):
        chain = build_chain(store)
        ghosts = {
            column: canon.content_id(prefix, {"version": "1", "nope": 6})
            for column, prefix in FMAP_REFERENCES
        }
        entry = FMapEntry.create("exp4", **{**self._fmap_fields(chain), **ghosts})
        with pytest.raises(ReferentialError) as raised:
            store.put_record(entry)
        assert str(raised.value) == (
            f"f_map row references missing snapshot_id {ghosts['snapshot_id']}"
        )

    def test_fmap_reports_a_missing_plan_blob_before_a_link_mismatch(self, store):
        chain = build_chain(store)
        art = store.put_blob(b"another world")
        other_snap = SnapshotRecord.create(WINDOW, [ManifestEntry("w", art)])
        store.put_record(other_snap)
        ghost_plan = canon.content_id("plan", {"version": "1", "nope": 7})
        entry = FMapEntry.create(
            "exp4",
            **{**self._fmap_fields(chain), "snapshot_id": other_snap.snapshot_id,
               "plan_id": ghost_plan},
        )
        with pytest.raises(ReferentialError) as raised:
            store.put_record(entry)
        assert str(raised.value) == (
            f"f_map row references missing blob {ghost_plan.digest16}"
        )

    @staticmethod
    def _fmap_fields(chain):
        return {
            "snapshot_id": chain["snapshot"].snapshot_id,
            "repr_id": chain["representation"].repr_id,
            "run_id": chain["run"].run_id,
            "decision_id": chain["decision"].decision_id,
            "plan_id": chain["plan_id"],
        }

    def test_constraint_failure_raises_instead_of_ignoring(self, store):
        chain = build_chain(store)
        run = EngineRunRecord.create(
            chain["representation"].repr_id, "eng", "1", {"q": 2},
            chain["raw_ref"], "1.0", status="bogus",
        )
        before = store.table_counts()
        with pytest.raises(DecisionDBError):
            store.put_record(run)
        assert store.table_counts() == before

    def test_unknown_record_type_rejected(self, store):
        with pytest.raises(TypeError):
            store.put_record({"not": "a record"})


class TestLookups:
    def test_get_record_round_trip(self, store):
        chain = build_chain(store)
        snap = store.get_record(str(chain["snapshot"].snapshot_id))
        assert snap == chain["snapshot"]
        rep = store.get_record(chain["representation"].repr_id)
        assert rep == chain["representation"]
        run = store.get_record(chain["run"].run_id)
        assert run == chain["run"]
        dec = store.get_record(chain["decision"].decision_id)
        assert dec == chain["decision"]

    def test_get_record_absent(self, store):
        ghost = canon.content_id("snap", {"version": "1", "who": "nobody"})
        assert store.get_record(ghost) is None

    def test_get_record_blob_backed_prefixes(self, store):
        chain = build_chain(store)
        assert store.get_record(chain["plan_id"]) is None
        assert store.get_record(chain["policy_id"]) is None

    @pytest.mark.parametrize(
        "table, column, value, message",
        [
            ("snapshots", "artifact_manifest", "[1]", "not a list of {name, artifact_ref} objects"),
            ("snapshots", "artifact_manifest", '[{"name":"a"}]', "not a list of"),
            ("snapshots", "artifact_manifest", '[{"artifact_ref":1,"name":"a"}]', "not a list of"),
            ("snapshots", "artifact_manifest", '{"a":"b"}', "not a list of"),
            ("representations", "params", "[1]", "not an object"),
            ("engine_runs", "query", "{bad", "input is not valid JSON"),
            ("engine_runs", "repr_id", "garbage", "malformed identifier: 'garbage'"),
            ("decisions", "policy_id", "garbage", "malformed identifier: 'garbage'"),
            ("engine_runs", "query", b"{}", "stored as bytes, not text"),
            ("decisions", "payload_hash", b"\x00", "stored as bytes, not text"),
            ("representations", "factory_name", b"A", "stored as bytes, not text"),
            ("engine_runs", "raw_output_ref", "zz", "malformed blob hash: 'zz'"),
            ("representations", "encoded_artifact_ref", "nothex", "malformed blob hash: 'nothex'"),
            ("snapshots", "artifact_manifest", '[{"artifact_ref":"zz","name":"a"}]', "malformed blob hash: 'zz'"),
        ],
    )
    def test_a_column_that_does_not_decode_names_its_row(self, store, table, column, value, message):
        build_chain(store)
        key = store._conn.execute(f"SELECT * FROM {table}").fetchone()[0]
        store._conn.execute("PRAGMA foreign_keys = OFF")
        with store._conn:
            store._conn.execute(f"UPDATE {table} SET {column} = ?", (value,))
        expected = f"^{re.escape(f'{table} row {key} column {column}: {message}')}"
        with pytest.raises(BrokenChainError, match=expected):
            store.get_record(key)

    def test_get_record_malformed(self, store):
        with pytest.raises(IdentifierFormatError):
            store.get_record("zzz_0123456789abcdef")

    def test_query_fmap_filters(self, store):
        chain = build_chain(store, experiment_id="e1")
        assert len(store.query_fmap("e1")) == 1
        assert store.query_fmap("nope") == []
        assert len(store.query_fmap("e1", plan_id=chain["plan_id"])) == 1
        other_plan = canon.content_id("plan", {"version": "1", "other": True})
        store.put_blob(canon.canonical_encode({"version": "1", "other": True}))
        assert store.query_fmap("e1", plan_id=other_plan) == []
        with pytest.raises(ValidationError, match="not a plan identifier"):
            store.query_fmap("e1", plan_id=chain["snapshot"].snapshot_id)
        with pytest.raises(IdentifierFormatError):
            store.query_fmap("e1", plan_id="plan_nothex")

    def test_query_fmap_is_deterministic(self, store):
        build_chain(store, experiment_id="e1", answer=[1])
        build_chain(store, experiment_id="e1", answer=[2])
        first = store.query_fmap("e1")
        second = store.query_fmap("e1")
        assert first == second
        assert len(first) == 2

    def test_fmap_for_decision(self, store):
        chain = build_chain(store)
        found = store.query_fmap(decision_id=chain["decision"].decision_id)
        assert len(found) == 1
        assert found[0].run_id == chain["run"].run_id


# Columns, foreign keys and indexes of a fresh store as SQLite reports
# them. The DDL is generated from the record classes' Table descriptions;
# this pins what it creates, so a change to how it is written cannot
# change the schema of new stores.
FRESH_SCHEMA = {
    "meta": {
        "table_xinfo": [
            (0, "key", "TEXT", 0, None, 1, 0),
            (1, "value", "TEXT", 1, None, 0, 0),
        ],
        "foreign_key_list": [],
        "index_list": [
            (0, "sqlite_autoindex_meta_1", 1, "pk", 0),
        ],
        "index_xinfo": {
            "sqlite_autoindex_meta_1": [
                (0, 0, "key", 0, "BINARY", 1),
                (1, -1, None, 0, "BINARY", 0),
            ],
        },
    },
    "snapshots": {
        "table_xinfo": [
            (0, "snapshot_id", "TEXT", 0, None, 1, 0),
            (1, "time_window_start", "TEXT", 1, None, 0, 0),
            (2, "time_window_end", "TEXT", 1, None, 0, 0),
            (3, "artifact_manifest", "TEXT", 1, None, 0, 0),
            (4, "version", "TEXT", 1, None, 0, 0),
            (5, "created_at", "TEXT", 1, None, 0, 0),
        ],
        "foreign_key_list": [],
        "index_list": [
            (0, "sqlite_autoindex_snapshots_1", 1, "pk", 0),
        ],
        "index_xinfo": {
            "sqlite_autoindex_snapshots_1": [
                (0, 0, "snapshot_id", 0, "BINARY", 1),
                (1, -1, None, 0, "BINARY", 0),
            ],
        },
    },
    "representations": {
        "table_xinfo": [
            (0, "repr_id", "TEXT", 0, None, 1, 0),
            (1, "snapshot_id", "TEXT", 1, None, 0, 0),
            (2, "factory_name", "TEXT", 1, None, 0, 0),
            (3, "factory_version", "TEXT", 1, None, 0, 0),
            (4, "params", "TEXT", 1, None, 0, 0),
            (5, "encoded_artifact_ref", "TEXT", 1, None, 0, 0),
            (6, "version", "TEXT", 1, None, 0, 0),
            (7, "created_at", "TEXT", 1, None, 0, 0),
        ],
        "foreign_key_list": [
            (0, 0, "snapshots", "snapshot_id", "snapshot_id", "NO ACTION", "NO ACTION", "NONE"),
        ],
        "index_list": [
            (0, "sqlite_autoindex_representations_1", 1, "pk", 0),
        ],
        "index_xinfo": {
            "sqlite_autoindex_representations_1": [
                (0, 0, "repr_id", 0, "BINARY", 1),
                (1, -1, None, 0, "BINARY", 0),
            ],
        },
    },
    "engine_runs": {
        "table_xinfo": [
            (0, "run_id", "TEXT", 0, None, 1, 0),
            (1, "repr_id", "TEXT", 1, None, 0, 0),
            (2, "engine_name", "TEXT", 1, None, 0, 0),
            (3, "engine_version", "TEXT", 1, None, 0, 0),
            (4, "query", "TEXT", 1, None, 0, 0),
            (5, "raw_output_ref", "TEXT", 1, None, 0, 0),
            (6, "exec_time_ms", "TEXT", 1, None, 0, 0),
            (7, "status", "TEXT", 1, None, 0, 0),
            (8, "version", "TEXT", 1, None, 0, 0),
            (9, "created_at", "TEXT", 1, None, 0, 0),
        ],
        "foreign_key_list": [
            (0, 0, "representations", "repr_id", "repr_id", "NO ACTION", "NO ACTION", "NONE"),
        ],
        "index_list": [
            (0, "sqlite_autoindex_engine_runs_1", 1, "pk", 0),
        ],
        "index_xinfo": {
            "sqlite_autoindex_engine_runs_1": [
                (0, 0, "run_id", 0, "BINARY", 1),
                (1, -1, None, 0, "BINARY", 0),
            ],
        },
    },
    "decisions": {
        "table_xinfo": [
            (0, "decision_id", "TEXT", 0, None, 1, 0),
            (1, "policy_id", "TEXT", 1, None, 0, 0),
            (2, "payload_hash", "TEXT", 1, None, 0, 0),
            (3, "version", "TEXT", 1, None, 0, 0),
            (4, "created_at", "TEXT", 1, None, 0, 0),
        ],
        "foreign_key_list": [],
        "index_list": [
            (0, "sqlite_autoindex_decisions_1", 1, "pk", 0),
        ],
        "index_xinfo": {
            "sqlite_autoindex_decisions_1": [
                (0, 0, "decision_id", 0, "BINARY", 1),
                (1, -1, None, 0, "BINARY", 0),
            ],
        },
    },
    "f_map": {
        "table_xinfo": [
            (0, "experiment_id", "TEXT", 1, None, 1, 0),
            (1, "snapshot_id", "TEXT", 1, None, 0, 0),
            (2, "repr_id", "TEXT", 1, None, 3, 0),
            (3, "run_id", "TEXT", 1, None, 4, 0),
            (4, "decision_id", "TEXT", 1, None, 5, 0),
            (5, "plan_id", "TEXT", 1, None, 2, 0),
            (6, "created_at", "TEXT", 1, None, 0, 0),
        ],
        "foreign_key_list": [
            (0, 0, "decisions", "decision_id", "decision_id", "NO ACTION", "NO ACTION", "NONE"),
            (1, 0, "engine_runs", "run_id", "run_id", "NO ACTION", "NO ACTION", "NONE"),
            (2, 0, "representations", "repr_id", "repr_id", "NO ACTION", "NO ACTION", "NONE"),
            (3, 0, "snapshots", "snapshot_id", "snapshot_id", "NO ACTION", "NO ACTION", "NONE"),
        ],
        "index_list": [
            (0, "sqlite_autoindex_f_map_1", 1, "pk", 0),
        ],
        "index_xinfo": {
            "sqlite_autoindex_f_map_1": [
                (0, 0, "experiment_id", 0, "BINARY", 1),
                (1, 5, "plan_id", 0, "BINARY", 1),
                (2, 2, "repr_id", 0, "BINARY", 1),
                (3, 3, "run_id", 0, "BINARY", 1),
                (4, 4, "decision_id", 0, "BINARY", 1),
                (5, -1, None, 0, "BINARY", 0),
            ],
        },
    },
}


def schema_of(conn, table):
    def pragma(name, arg):
        return [tuple(row) for row in conn.execute(f"PRAGMA {name}({arg})")]

    indexes = pragma("index_list", table)
    return {
        "table_xinfo": pragma("table_xinfo", table),
        "foreign_key_list": pragma("foreign_key_list", table),
        "index_list": indexes,
        "index_xinfo": {index[1]: pragma("index_xinfo", index[1]) for index in indexes},
    }


@pytest.mark.parametrize(
    "duplicate",
    [
        *(
            pytest.param(lambda value, protocol=protocol: pickle.loads(pickle.dumps(value, protocol)),
                         id=f"pickle-{protocol}")
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
        ),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
    ],
)
def test_identifiers_and_map_rows_survive_pickle_and_copy(duplicate):
    idents = {prefix: canon.content_id(prefix, {"version": "1"}) for prefix in canon.PREFIXES}
    entry = FMapEntry.create(
        "exp", *(idents[prefix] for prefix in ("snap", "repr", "run", "dec", "plan"))
    )
    for value in (*idents.values(), entry):
        copied = duplicate(value)
        assert type(copied) is type(value) and copied == value
    assert duplicate(entry).created_at == entry.created_at


def test_fresh_store_schema_is_pinned(store):
    tables = ("meta", *TABLES)
    assert {table: schema_of(store._conn, table) for table in tables} == FRESH_SCHEMA


# Digest of every row (created_at and exec_time_ms left out) and every
# blob hash of the toy chain below. It pins the exact column text the
# insert path writes, the JSON columns included; any change to a stored
# byte changes it.
GOLDEN_STORE_DIGEST = "2773a01456303b8deb4e214e9848e1a7e59eb23c4a11802bc0edacc91654121c"


def raw_rows(store, table):
    """One table's rows as dicts of the stored column text, in a fixed order."""
    cur = store._conn.execute(f"SELECT * FROM {table}")
    names = [column[0] for column in cur.description]
    rows = (dict(zip(names, row)) for row in cur)
    return sorted(rows, key=lambda r: [str(v) for v in r.values()])


def store_digest(store):
    rows = []
    for table in TABLES:
        for row in raw_rows(store, table):
            row.pop("created_at")
            row.pop("exec_time_ms", None)
            rows.append(canon.canonical_encode({"table": table, "row": row, "version": "1"}))
    digest = hashlib.sha256()
    for encoded in sorted(rows):
        digest.update(encoded + b"\n")
    for ref in store.iter_blob_hashes():
        digest.update(ref.encode("ascii") + b"\n")
    return digest.hexdigest()


class TestStoredBytes:
    def test_toy_chain_digest_is_frozen(self, store):
        snap, pol_id = setup_world(store)
        plan = make_plan(store, snap, pol_id, fixed={"gain": "1"})
        with pytest.raises(SweepExecutionError):
            run_plan(store, plan, StepEngine(refuse={"3"}))
        run_plan(store, plan)
        runs = raw_rows(store, "engine_runs")
        assert sorted(row["status"] for row in runs) == ["failed", "ok", "ok", "ok", "ok"]
        assert store_digest(store) == GOLDEN_STORE_DIGEST


def committed_counts(path):
    """Row counts another connection sees; it reads only committed rows."""
    conn = sqlite3.connect(path / store_module.DB_FILENAME)
    try:
        return {t: conn.execute(f"SELECT COUNT(*) FROM {t}").fetchone()[0] for t in TABLES}
    finally:
        conn.close()


class TestBatch:
    @pytest.mark.parametrize("interval", [3600, 0], ids=["long-interval", "zero-interval"])
    def test_outermost_exit_commits_even_on_error(self, store, tmp_path, monkeypatch, interval):
        monkeypatch.setattr(store_module, "_COMMIT_INTERVAL_S", interval)
        statements = []
        store._conn.set_trace_callback(statements.append)
        with pytest.raises(RuntimeError):
            with store.batch():
                with store.batch():
                    build_chain(store)
                inside = (statements.count("COMMIT"), committed_counts(tmp_path / "db"))
                raise RuntimeError("stop")
        if interval:
            assert inside == (0, dict.fromkeys(TABLES, 0))
        else:
            assert inside == (5, dict.fromkeys(TABLES, 1))
        assert statements.count("COMMIT") == (1 if interval else 5)
        with open_store(tmp_path / "db") as other:
            assert other.table_counts() == dict.fromkeys(TABLES, 1)

    def test_blocked_commit_is_rolled_back_and_reported(self, store, tmp_path):
        store._conn.execute("PRAGMA busy_timeout = 50")
        reader = sqlite3.connect(tmp_path / "db" / store_module.DB_FILENAME)
        reader.execute("BEGIN")
        reader.execute("SELECT COUNT(*) FROM snapshots").fetchone()
        try:
            with pytest.raises(DecisionDBError, match="cannot commit .*database is locked"):
                build_chain(store)
        finally:
            reader.close()
        assert not store._conn.in_transaction
        build_chain(store)
        assert committed_counts(tmp_path / "db") == dict.fromkeys(TABLES, 1)

    def test_a_read_waits_for_another_threads_batch(self, store, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "_COMMIT_INTERVAL_S", 3600)
        snap = SnapshotRecord.create(WINDOW, [ManifestEntry("a", store.put_blob(b"a1"))])
        reading = threading.Event()
        seen = []

        def read():
            reading.set()
            seen.append(store.table_counts()["snapshots"])
            seen.append(committed_counts(tmp_path / "db")["snapshots"])

        reader = threading.Thread(target=read)
        with store.batch():
            store.put_record(snap)
            reader.start()
            assert reading.wait(timeout=30)
            reader.join(timeout=0.2)
            assert reader.is_alive() and seen == []
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert seen == [1, 1]

    def test_lone_put_record_commits_at_once(self, store, tmp_path, monkeypatch):
        monkeypatch.setattr(store_module, "_COMMIT_INTERVAL_S", 3600)
        build_chain(store)
        assert committed_counts(tmp_path / "db") == dict.fromkeys(TABLES, 1)


PROBE = Path(__file__).resolve().parent / "sweep_probe.py"
CRASH_XS = [str(x) for x in range(1, 11)]


def executed_store_and_journal(tmp_path):
    """A store holding an executed toy plan, the plan, the bytes of a
    journal that would be hot in that store once its writer died, and
    the path that journal belongs at."""
    db = tmp_path / "db"
    with open_store(db) as st:
        plan = make_plan(st, *setup_world(st))
        run_plan(st, plan)
    # A write transaction open on a copy leaves a journal there; a
    # one-page cache spills it, which syncs the journal and writes its
    # header.
    source = tmp_path / "source"
    shutil.copytree(db, source)
    writer = sqlite3.connect(source / store_module.DB_FILENAME)
    writer.execute("PRAGMA cache_size = 1")
    writer.execute("BEGIN IMMEDIATE")
    writer.execute("INSERT INTO meta (key, value) VALUES ('probe', ?)", ("x" * 20000,))
    journal = (source / (store_module.DB_FILENAME + "-journal")).read_bytes()
    writer.rollback()
    writer.close()
    assert journal
    return db, plan, journal, db / (store_module.DB_FILENAME + "-journal")


class TestCrash:
    @pytest.mark.parametrize(
        "interval, runs_left", [("0", 4), ("3600", 0)], ids=["zero-interval", "long-interval"]
    )
    def test_rerun_after_kill_restores_the_uninterrupted_store(self, tmp_path, interval, runs_left):
        killed = tmp_path / "killed"
        result = subprocess.run(
            [sys.executable, str(PROBE), str(killed), interval, "5", *CRASH_XS],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        digests = []
        for path in (killed, tmp_path / "whole"):
            with open_store(path) as st:
                if path == killed:
                    counts = st.table_counts()
                    assert (counts["representations"], counts["engine_runs"]) == (10, runs_left)
                plan = make_plan(st, *setup_world(st), xs=CRASH_XS)
                run_plan(st, plan)
                assert replay_all(st, "exp").ok
                assert st.table_counts()["f_map"] == 10
                digests.append(store_digest(st))
        assert digests[0] == digests[1]

    def test_a_journal_left_after_open_exits_one(self, tmp_path, capsys, monkeypatch):
        db, _, journal, target = executed_store_and_journal(tmp_path)

        def open_then_crash(location, create=True):
            opened = open_store(location, create)
            target.write_bytes(journal)
            return opened

        monkeypatch.setattr(cli, "open_store", open_then_crash)
        for argv in (["inspect"], ["replay", "--experiment", "exp", "--deep"]):
            assert cli.main([*argv, "--db", str(db)]) == 1, argv
            assert capsys.readouterr().err == (
                "error: a write to this store was interrupted; run a write command "
                "(e.g. decisiondb init) to recover\n"
            )
            assert target.read_bytes() == journal
            target.unlink()

    @pytest.mark.parametrize(
        "read",
        [
            lambda st, plan: replay_all(st, "exp"),
            lambda st, plan: materialize_map(st, plan.plan_id, "exp"),
            lambda st, plan: st.query_fmap("exp"),
            lambda st, plan: st.get_record(plan.snapshot_id),
            lambda st, plan: st.table_counts(),
        ],
        ids=["replay_all", "materialize_map", "query_fmap", "get_record", "table_counts"],
    )
    def test_a_journal_left_after_open_is_reported_by_the_api(self, tmp_path, read):
        db, plan, journal, target = executed_store_and_journal(tmp_path)
        with open_store(db, create=False) as st:
            target.write_bytes(journal)
            with pytest.raises(StoreOpenError, match="^a write to this store was interrupted"):
                read(st, plan)
        assert target.read_bytes() == journal

    def test_read_commands_leave_a_hot_journal_alone(self, tmp_path, capsys):
        killed = tmp_path / "killed"
        xs = [str(x) for x in range(1, 21)]
        # A one-page cache spills the open execute batch into the
        # database file, so the kill leaves a hot journal behind.
        result = subprocess.run(
            [sys.executable, str(PROBE), str(killed), "3600", "15", *xs, "--cache-pages", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == -signal.SIGKILL, result.stderr
        database = killed / store_module.DB_FILENAME
        files = (database, database.with_name(database.name + "-journal"))
        before = [path.read_bytes() for path in files]
        assert before[1]
        with open_store(tmp_path / "fresh") as st:
            plan_id = str(make_plan(st, *setup_world(st), xs=xs).plan_id)
        db = ["--db", str(killed)]
        report = ["--plan", plan_id, "--experiment", "exp"]
        for argv in (
            ["inspect", *db],
            ["map", *db, *report],
            ["sweep", "report", *db, *report],
            ["replay", *db, "--experiment", "exp"],
            ["replay", *db, "--experiment", "exp", "--deep", "--json"],
        ):
            assert cli.main(argv) == 1, argv
            assert capsys.readouterr().err == (
                "error: a write to this store was interrupted; run a write command "
                "(e.g. decisiondb init) to recover\n"
            )
            assert [path.read_bytes() for path in files] == before, argv
        assert cli.main(["init", *db]) == 0
        assert not files[1].exists()
        with open_store(killed, create=False) as st:
            counts = st.table_counts()
        assert (counts["representations"], counts["engine_runs"]) == (20, 0)


# An SQL keyword as a statement spells it; prose in docstrings does not.
SQL_WORDS = re.compile(r"\b(SELECT|INSERT|UPDATE|DELETE|CREATE|DROP|PRAGMA|BEGIN|FROM|WHERE)\b")


def test_only_store_py_speaks_sql():
    # The schema and every statement over it are written in store.py
    # alone, so a change of store format edits one module.
    found = []
    for path in sorted(Path(store_module.__file__).parent.glob("*.py")):
        if path.name == "store.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if SQL_WORDS.search(node.value):
                    found.append(f"{path.name}:{node.lineno}: {node.value!r}")
            elif isinstance(node, ast.Attribute) and node.attr in ("_execute", "_conn", "TABLE"):
                found.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert found == []
