"""Replay verification tests.

Corruption is injected by editing blob files underneath the store,
exactly the failure mode replay exists to catch.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from decisiondb import canon, replay, sweep
from decisiondb.errors import BrokenChainError, ValidationError
from decisiondb.policy import EquivalencePolicy, persist_policy
from decisiondb.store import DecisionRecord, Store, open_store
from test_store import store_digest
from toy_arena import (
    CountingEngine,
    CountingFactory,
    DriftedEngine,
    DriftedFactory,
    StepEngine,
    StepFactory,
    make_plan,
    run_plan,
    setup_world,
    toy_plugins,
)


@pytest.fixture()
def st(tmp_path):
    with open_store(tmp_path / "db") as s:
        yield s


@pytest.fixture()
def executed(st):
    snap, pol_id = setup_world(st)
    plan = make_plan(st, snap, pol_id)
    entries = run_plan(st, plan)
    return plan, entries


def flip_byte(st, ref, position=None):
    path = Path(st._blob_path(ref))
    data = bytearray(path.read_bytes())
    index = len(data) // 2 if position is None else position
    data[index] ^= 0x01
    path.write_bytes(bytes(data))


def swap_bytes(st, ref, old, new):
    path = Path(st._blob_path(ref))
    data = path.read_bytes()
    assert old in data
    path.write_bytes(data.replace(old, new, 1))


BASIC_FIELDS = ["raw_output_ref", "policy_id", "payload_hash", "decision_id"]


class TestCleanReplay:
    def test_every_entry_matches(self, st, executed):
        report = replay.replay_all(st, "exp")
        assert report.verified == 4
        assert report.matched == 4
        assert report.ok
        assert report.errors == ()
        assert report.store_unchanged

    def test_basic_check_fields(self, st, executed):
        _, entries = executed
        report = replay.replay_entry(st, entries[0])
        assert [check.field for check in report.checks] == BASIC_FIELDS
        assert all(check.match for check in report.checks)
        assert report.mismatches() == ()

    def test_deep_checks_cover_upstream_chain(self, st, executed):
        _, entries = executed
        report = replay.replay_entry(st, entries[0], deep=True)
        fields = [check.field for check in report.checks]
        assert fields[:4] == BASIC_FIELDS
        for expected in (
            "encoded_artifact_ref",
            "artifact:table",
            "plan_spec",
            "snapshot_row",
            "representation_row",
            "run_row",
            "decision_row",
            "run_links_representation",
            "representation_links_snapshot",
        ):
            assert expected in fields
        assert report.ok

    def test_replay_decision_covers_all_its_entries(self, st, executed):
        _, entries = executed
        target = entries[0].decision_id
        reports = replay.replay_decision(st, target).reports
        # Threshold 5 over x in 1,3,7,9: two points share each decision.
        assert len(reports) == 2
        assert all(r.entry.decision_id == target for r in reports)
        assert all(r.ok for r in reports)

    def test_replay_is_read_only(self, st, executed):
        before = st.table_counts()
        replay.replay_all(st, "exp", deep=True)
        assert st.table_counts() == before

    def test_report_payload_is_canonical(self, st, executed):
        report = replay.replay_all(st, "exp")
        payload = report.to_payload()
        assert canon.canonical_decode(canon.canonical_encode(payload)) == payload
        assert payload["matched"] == 4

    def test_payload_reads_each_check_twice(self, st, executed, monkeypatch):
        # Once for its report's ok, which the aggregate's ok, matched and
        # mismatched share, and once for the check's own payload, both while
        # the report is spooled; the aggregate's payload reads the spool.
        visits = []
        match = replay.FieldCheck.match.fget
        monkeypatch.setattr(
            replay.FieldCheck, "match", property(lambda c: visits.append(c) or match(c))
        )
        report = replay.replay_all(st, "exp", deep=True)
        spooled = len(visits)
        payload = report.to_payload()
        assert (payload["ok"], payload["matched"], payload["mismatched"]) == (True, 4, 0)
        assert spooled == len(visits) == 2 * sum(len(r["checks"]) for r in payload["reports"])

    def test_scoped_to_plan(self, st, executed):
        plan, _ = executed
        report = replay.replay_all(st, "exp", plan_id=plan.plan_id)
        assert report.verified == 4

    @pytest.mark.parametrize("deep", [False, True])
    def test_shared_memo_gives_the_reports_of_separate_replays(self, st, executed, deep):
        _, entries = executed
        memo = replay.ReplayMemo()
        for entry in entries:
            alone = replay.replay_entry(st, entry, deep=deep)
            assert replay.replay_entry(st, entry, deep=deep, memo=memo) == alone

    def test_outputs_shared_by_two_policies_verify_under_each(self, st, executed):
        plan, _ = executed
        snap = st.get_record(plan.snapshot_id)
        by_x = persist_policy(st, EquivalencePolicy(hash_source=("x",)))
        run_plan(st, make_plan(st, snap, by_x))
        report = replay.replay_all(st, "exp", deep=True)
        assert len({r.entry.run_id for r in report.reports}) == 4
        assert report.verified == report.matched == 8


class TestReads:
    # 4 entries with 2 decisions, 4 raw outputs, 1 policy, 4 encoded
    # artifacts, 1 snapshot artifact and 1 plan spec: each blob is read
    # once.
    @pytest.mark.parametrize("deep, blobs", [(False, 5), (True, 11)])
    def test_each_blob_is_read_once(self, st, executed, monkeypatch, deep, blobs):
        calls = []
        method = Store.read_blob_unverified
        monkeypatch.setattr(
            Store, "read_blob_unverified", lambda self, ref: calls.append(ref) or method(self, ref)
        )
        assert replay.replay_all(st, "exp", deep=deep).ok
        assert len(calls) == len(set(calls)) == blobs

    # Two table counts, the chain read, the 2 decision rows and, deep, the
    # snapshot row: no statement per entry, so 4 and 40 entries run as many.
    @pytest.mark.parametrize("deep, statements", [(False, 5), (True, 6)])
    def test_statements_do_not_grow_with_the_entries(self, st, deep, statements):
        snap, pol_id = setup_world(st)
        small = make_plan(st, snap, pol_id)
        run_plan(st, small)
        large = make_plan(st, snap, pol_id, xs=[str(x) for x in range(1, 41)], experiment="large")
        run_plan(st, large)
        for experiment, entries in (("exp", 4), ("large", 40)):
            traced = []
            st._conn.set_trace_callback(traced.append)
            try:
                report = replay.replay_all(st, experiment, deep=deep)
            finally:
                st._conn.set_trace_callback(None)
            assert report.ok and report.verified == entries
            assert len(traced) == statements, (experiment, traced)


REEXEC_FIELDS = ["reexec:encoded_artifact_ref", "reexec:raw_output_ref", "reexec:decision_id"]


def mismatched(report):
    return [[check.field for check in r.mismatches()] for r in report.reports]


class TestReexecute:
    @pytest.mark.parametrize("deep", [False, True])
    def test_clean_store_matches_every_reexecuted_field(self, st, executed, deep):
        report = replay.replay_all(st, "exp", deep=deep, reexecute=toy_plugins())
        assert report.ok and report.matched == 4
        for r in report.reports:
            fields = [check.field for check in r.checks]
            assert fields[:4] == BASIC_FIELDS and fields[-3:] == REEXEC_FIELDS
            assert len(fields) == (16 if deep else 7)

    @pytest.mark.parametrize(
        "plugins, flagged",
        [
            (toy_plugins(factory=DriftedFactory()), ["reexec:encoded_artifact_ref"]),
            (toy_plugins(engine=DriftedEngine()), ["reexec:raw_output_ref", "reexec:decision_id"]),
        ],
        ids=["factory", "engine"],
    )
    def test_drift_is_caught_by_reexecute_alone(self, st, executed, plugins, flagged):
        for deep in (False, True):
            assert replay.replay_all(st, "exp", deep=deep).ok
        report = replay.replay_all(st, "exp", reexecute=plugins)
        assert mismatched(report) == [flagged] * 4
        assert report.store_unchanged

    def test_unregistered_plugins_are_findings(self, st, executed):
        report = replay.replay_all(st, "exp", reexecute=replay.Plugins({}, {}))
        assert mismatched(report) == [REEXEC_FIELDS] * 4
        recomputed = [check.recomputed for check in report.reports[0].checks[-3:]]
        assert recomputed == [
            "no registered factory step-table/1",
            "no registered engine step-compare/1",
            "no registered engine step-compare/1",
        ]

    def test_plugins_that_raise_are_findings(self, st, executed):
        class Broken(StepFactory):
            def encode(self, artifacts, params):
                raise KeyError("threshold")

        engine = StepEngine(refuse={"3"})
        report = replay.replay_all(st, "exp", reexecute=toy_plugins(Broken(), engine))
        assert not report.errors
        by_x = {r.entry.repr_id: r for r in report.reports}
        x3 = by_x[executed[0].repr_id({"x": "3"})].checks[-3:]
        assert [check.recomputed for check in x3] == [
            "factory raised KeyError: 'threshold'",
            "engine raised EngineFailure: engine refuses x=3",
            "engine raised EngineFailure: engine refuses x=3",
        ]
        assert mismatched(report).count(REEXEC_FIELDS) == 1

    def test_each_representation_encoded_and_each_run_evaluated_once(self, st, executed):
        # A second plan under another policy shares all four runs: 8
        # entries, 4 representations, 4 runs.
        plan, _ = executed
        by_x = persist_policy(st, EquivalencePolicy(hash_source=("x",)))
        run_plan(st, make_plan(st, st.get_record(plan.snapshot_id), by_x))
        factory, engine = CountingFactory(), CountingEngine()
        report = replay.replay_all(st, "exp", deep=True, reexecute=toy_plugins(factory, engine))
        assert report.ok and report.verified == 8
        assert (factory.calls, sorted(engine.evaluated)) == (4, ["1", "3", "7", "9"])

    def test_reexecute_writes_nothing(self, st, executed):
        before = store_digest(st)
        plugins = toy_plugins(DriftedFactory(), DriftedEngine())
        assert not replay.replay_all(st, "exp", deep=True, reexecute=plugins).ok
        assert store_digest(st) == before

    def test_shared_memo_gives_the_reports_of_separate_replays(self, st, executed):
        _, entries = executed
        memo, plugins = replay.ReplayMemo(), toy_plugins(engine=DriftedEngine())
        for entry in entries:
            alone = replay.replay_entry(st, entry, reexecute=plugins)
            assert replay.replay_entry(st, entry, memo=memo, reexecute=plugins) == alone


class TestCorruption:
    def test_raw_output_flip_flags_three_fields(self, st, executed):
        _, entries = executed
        entry = entries[0]
        run = st.get_record(entry.run_id)
        flip_byte(st, run.raw_output_ref)
        before = st.table_counts()
        report = replay.replay_entry(st, entry)
        assert not report.ok
        assert [c.field for c in report.mismatches()] == [
            "raw_output_ref",
            "payload_hash",
            "decision_id",
        ]
        assert st.table_counts() == before

    @pytest.mark.parametrize("position", [0, 1, -1])
    def test_any_byte_position_is_detected(self, st, executed, position):
        _, entries = executed
        entry = entries[2]
        run = st.get_record(entry.run_id)
        size = len(st.read_blob_unverified(run.raw_output_ref))
        flip_byte(st, run.raw_output_ref, position % size)
        report = replay.replay_entry(st, entry)
        assert not report.ok
        fields = [c.field for c in report.mismatches()]
        assert "payload_hash" in fields

    def test_other_entries_still_verify(self, st, executed):
        _, entries = executed
        run = st.get_record(entries[0].run_id)
        flip_byte(st, run.raw_output_ref)
        report = replay.replay_all(st, "exp")
        assert report.verified == 4
        assert report.matched == 3
        assert not report.ok

    def test_policy_blob_tamper_detected(self, st, executed):
        plan, entries = executed
        swap_bytes(st, plan.policy_id.digest16, b"label", b"mabel")
        report = replay.replay_entry(st, entries[0])
        assert [c.field for c in report.mismatches()] == [
            "policy_id",
            "payload_hash",
            "decision_id",
        ]

    @pytest.mark.parametrize("deep", [False, True])
    def test_corrupt_policy_is_flagged_on_every_entry(self, st, executed, deep):
        plan, _ = executed
        flip_byte(st, plan.policy_id.digest16)
        report = replay.replay_all(st, "exp", deep=deep)
        assert report.verified == 4
        assert report.matched == 0
        for entry_report in report.reports:
            assert "policy_id" in [c.field for c in entry_report.mismatches()]

    def test_swapped_raw_output_detected(self, st, executed):
        # Replace one run's output with another's intact, valid output:
        # the address check fails even though the bytes decode cleanly.
        _, entries = executed
        run_a = st.get_record(entries[0].run_id)
        run_b = st.get_record(entries[3].run_id)
        other = st.read_blob_unverified(run_b.raw_output_ref)
        Path(st._blob_path(run_a.raw_output_ref)).write_bytes(other)
        report = replay.replay_entry(st, entries[0])
        assert not report.ok
        assert "raw_output_ref" in [c.field for c in report.mismatches()]

    def test_missing_raw_blob_breaks_chain(self, st, executed):
        _, entries = executed
        run = st.get_record(entries[1].run_id)
        Path(st._blob_path(run.raw_output_ref)).unlink()
        with pytest.raises(BrokenChainError, match=run.raw_output_ref):
            replay.replay_entry(st, entries[1])

    def test_missing_raw_output_is_named_before_a_missing_policy(self, st, executed):
        plan, entries = executed
        run = st.get_record(entries[0].run_id)
        Path(st._blob_path(run.raw_output_ref)).unlink()
        Path(st._blob_path(plan.policy_id.digest16)).unlink()
        with pytest.raises(
            BrokenChainError, match=f"raw output blob {run.raw_output_ref} is missing"
        ):
            replay.replay_entry(st, entries[0])

    def test_replay_all_reports_broken_chains_as_errors(self, st, executed):
        _, entries = executed
        run = st.get_record(entries[1].run_id)
        Path(st._blob_path(run.raw_output_ref)).unlink()
        report = replay.replay_all(st, "exp")
        assert report.verified == 3
        assert len(report.errors) == 1
        assert run.raw_output_ref in report.errors[0][1]
        assert not report.ok

    def test_corrupt_encoded_artifact_needs_deep(self, st, executed):
        _, entries = executed
        rep = st.get_record(entries[0].repr_id)
        flip_byte(st, rep.encoded_artifact_ref)
        assert replay.replay_entry(st, entries[0]).ok
        deep = replay.replay_entry(st, entries[0], deep=True)
        assert [c.field for c in deep.mismatches()] == ["encoded_artifact_ref"]

    def test_corrupt_snapshot_artifact_needs_deep(self, st, executed):
        plan, entries = executed
        snap = st.get_record(plan.snapshot_id)
        flip_byte(st, snap.artifact_manifest[0].artifact_ref)
        deep = replay.replay_entry(st, entries[0], deep=True)
        assert [c.field for c in deep.mismatches()] == ["artifact:table"]

    def test_sql_tamper_of_run_row_needs_deep(self, st, executed):
        _, entries = executed
        entry = entries[0]
        with st._conn:
            st._conn.execute(
                "UPDATE engine_runs SET query = ? WHERE run_id = ?",
                ('{"q":2}', str(entry.run_id)),
            )
        assert replay.replay_entry(st, entry).ok
        deep = replay.replay_entry(st, entry, deep=True)
        assert [c.field for c in deep.mismatches()] == ["run_row"]


class TestInputs:
    def test_decision_without_map_entry(self, st):
        snap, pol_id = setup_world(st)
        orphan = DecisionRecord.create(pol_id, "ab" * 8)
        st.put_record(orphan)
        with pytest.raises(BrokenChainError, match="no map entry"):
            replay.replay_decision(st, orphan.decision_id)

    def test_wrong_prefix_rejected(self, st):
        with pytest.raises(ValidationError, match="not a decision"):
            replay.replay_decision(st, "run_" + "ab" * 8)

    def test_empty_experiment_rejected(self, st):
        with pytest.raises(ValidationError) as raised:
            replay.replay_all(st, "nothing-here")
        assert str(raised.value) == "experiment 'nothing-here' has no map entries"

    def test_unknown_decision(self, st, executed):
        with pytest.raises(BrokenChainError):
            replay.replay_decision(st, "dec_" + "ab" * 8)
