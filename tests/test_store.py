import hashlib
import random
import re
import sys
import threading

import pytest

from decisiondb import canon
from decisiondb.errors import (
    BlobCorruptionError,
    DecisionDBError,
    IdentifierFormatError,
    IntegrityError,
    ReferentialError,
    StoreOpenError,
    SweepExecutionError,
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
from toy_arena import StepEngine, make_plan, run_plan, setup_world

WINDOW = ("2025-01-01T00:00:00Z", "2025-01-08T00:00:00Z")


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
    snap = SnapshotRecord.create(WINDOW, [ManifestEntry("world", art_ref.hash)])
    store.put_record(snap)

    enc_ref = store.put_blob(b'{"encoded":true,"version":"1"}')
    rep = RepresentationRecord.create(
        snap.snapshot_id, "fac", "1", {"w": "0.5"}, enc_ref.hash
    )
    store.put_record(rep)

    raw = {"answer": answer, "cost": "3.5", "version": "1"}
    raw_ref = store.put_blob(canon.canonical_encode(raw))
    run = EngineRunRecord.create(
        rep.repr_id, "eng", "1", {"q": 1}, raw_ref.hash, "1.000"
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


class TestOpen:
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
        with pytest.raises(StoreOpenError):
            open_store(loc)

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


class TestBlobs:
    def test_round_trip(self, store):
        ref = store.put_blob(b"some bytes")
        assert ref.length == len(b"some bytes")
        assert store.get_blob(ref.hash) == b"some bytes"

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
            refs.add(store.put_blob(data).hash)
        assert len(refs) >= 49  # allows the empty-bytes repeat

    def test_missing_blob(self, store):
        with pytest.raises(ReferentialError):
            store.get_blob("0" * 16)
        assert store.read_blob_unverified("0" * 16) is None
        assert not store.has_blob("0" * 16)

    def test_malformed_ref(self, store):
        with pytest.raises(IdentifierFormatError):
            store.get_blob("not-a-hash")

    def test_corruption_detected_on_read(self, store):
        ref = store.put_blob(b"fragile payload")
        path = store._blob_path(ref.hash)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(BlobCorruptionError):
            store.get_blob(ref.hash)

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
        snap = SnapshotRecord.create(WINDOW, [ManifestEntry("a", art.hash)])
        assert store.put_record(snap) == "inserted"
        assert store.put_record(snap) == "ignored"
        assert store.table_counts()["snapshots"] == 1

    def test_first_write_wins_for_non_identifying_fields(self, store):
        art = store.put_blob(b"a1")
        snap = SnapshotRecord.create(WINDOW, [ManifestEntry("a", art.hash)])
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
        entries = [ManifestEntry("a", a.hash), ManifestEntry("b", b.hash)]
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
        good = SnapshotRecord.create(WINDOW, [ManifestEntry("a", art.hash)])
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
        rep = RepresentationRecord.create(ghost, "fac", "1", {"w": "1"}, enc.hash)
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
            ghost_rep, "eng", "1", {}, chain["raw_ref"].hash, "1.0"
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
            [ManifestEntry("w", art.hash)],
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
        with pytest.raises(IntegrityError):
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

    def test_constraint_failure_raises_instead_of_ignoring(self, store):
        chain = build_chain(store)
        run = EngineRunRecord.create(
            chain["representation"].repr_id, "eng", "1", {"q": 2},
            chain["raw_ref"].hash, "1.0", status="bogus",
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

    def test_get_record_malformed(self, store):
        with pytest.raises(IdentifierFormatError):
            store.get_record("zzz_0123456789abcdef")

    def test_query_fmap_filters(self, store):
        chain = build_chain(store, experiment_id="e1")
        assert len(store.query_fmap("e1")) == 1
        assert store.query_fmap("nope") == []
        assert (
            len(store.query_fmap("e1", snapshot_id=chain["snapshot"].snapshot_id)) == 1
        )
        assert len(store.query_fmap("e1", plan_id=chain["plan_id"])) == 1
        other_plan = canon.content_id("plan", {"version": "1", "other": True})
        store.put_blob(canon.canonical_encode({"version": "1", "other": True}))
        assert store.query_fmap("e1", plan_id=other_plan) == []

    def test_query_fmap_is_deterministic(self, store):
        build_chain(store, experiment_id="e1", answer=[1])
        build_chain(store, experiment_id="e1", answer=[2])
        first = store.query_fmap("e1")
        second = store.query_fmap("e1")
        assert first == second
        assert len(first) == 2

    def test_fmap_for_decision(self, store):
        chain = build_chain(store)
        found = store.fmap_for_decision(chain["decision"].decision_id)
        assert len(found) == 1
        assert found[0].run_id == chain["run"].run_id

    def test_table_rows_sorted(self, store):
        build_chain(store)
        rows = store.table_rows("snapshots")
        assert len(rows) == 1
        with pytest.raises(ValueError):
            store.table_rows("sqlite_master")


# Digest of every row (created_at and exec_time_ms left out) and every
# blob hash of the toy chain below. It pins the exact column text the
# insert path writes, the JSON columns included; any change to a stored
# byte changes it.
GOLDEN_STORE_DIGEST = "2773a01456303b8deb4e214e9848e1a7e59eb23c4a11802bc0edacc91654121c"


def store_digest(store):
    rows = []
    for table in TABLES:
        for row in store.table_rows(table):
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
        runs = store.table_rows("engine_runs")
        assert sorted(row["status"] for row in runs) == ["failed", "ok", "ok", "ok", "ok"]
        assert store_digest(store) == GOLDEN_STORE_DIGEST
