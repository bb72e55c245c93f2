"""Sweep orchestration tests, run against a transparent toy arena.

The toy factory copies a threshold out of the snapshot and the toy
engine labels each point by comparing x * gain against it, so every
decision, boundary, and refinement outcome here is predictable by eye.
"""

from __future__ import annotations

from decimal import Decimal

import pytest

from decisiondb import canon, sweep
from decisiondb.errors import (
    DeterminismError,
    InvalidComparisonError,
    PlanNotFoundError,
    ReferentialError,
    SweepExecutionError,
    ValidationError,
)
from decisiondb.policy import EquivalencePolicy, extract_decision, load_policy
from decisiondb.store import open_store
from toy_arena import (
    WINDOW,
    FlakyFactory,
    StepEngine,
    StepFactory,
    make_plan,
    run_plan,
    setup_world,
)


@pytest.fixture()
def st(tmp_path):
    return open_store(tmp_path / "db")


@pytest.fixture()
def world(st):
    return setup_world(st)


class TestFreeze:
    def test_idempotent(self, st):
        first = sweep.freeze_snapshot(st, {"table": {"threshold": "5"}}, WINDOW)
        second = sweep.freeze_snapshot(st, {"table": {"threshold": "5"}}, WINDOW)
        assert first.snapshot_id == second.snapshot_id
        assert st.table_counts()["snapshots"] == 1

    def test_manifest_sorted_by_name(self, st):
        snap = sweep.freeze_snapshot(st, {"b": {"v": 1}, "a": {"v": 2}}, WINDOW)
        assert [e.name for e in snap.artifact_manifest] == ["a", "b"]

    def test_artifact_bytes_retrievable(self, st):
        payload = {"threshold": "5"}
        snap = sweep.freeze_snapshot(st, {"table": payload}, WINDOW)
        (entry,) = snap.artifact_manifest
        assert st.get_blob(entry.artifact_ref) == canon.canonical_encode(payload)


class TestPlans:
    def test_axis_values_sorted_numerically(self, st, world):
        plan = make_plan(st, *world, xs=("10", "9"))
        assert plan.axes[0].values == ("9", "10")

    def test_axis_values_deduplicated_keeping_first_spelling(self, st, world):
        plan = make_plan(st, *world, xs=("0.50", "1.0", "0.5", "0.25"))
        assert plan.axes[0].values == ("0.25", "0.50", "1.0")
        plan = make_plan(st, *world, xs=("1.0", "0.50", "1", "0.5"))
        assert plan.axes[0].values == ("0.50", "1.0")

    def test_experiment_id_not_part_of_identity(self, st, world):
        a = make_plan(st, *world, experiment="exp-a")
        b = make_plan(st, *world, experiment="exp-b")
        assert a.plan_id == b.plan_id

    def test_identity_stable_across_processes_of_construction(self, world, st):
        a = make_plan(st, *world)
        b = make_plan(st, *world)
        assert a == b

    def test_grid_points_in_declared_order(self, st, world):
        snap, pol_id = world
        plan = make_plan(
            st,
            snap,
            pol_id,
            axes=[
                sweep.Axis(param="x", values=("3", "1")),
                sweep.Axis(param="gain", values=("2", "1")),
            ],
        )
        assert plan.grid_points() == [
            {"x": "1", "gain": "1"},
            {"x": "1", "gain": "2"},
            {"x": "3", "gain": "1"},
            {"x": "3", "gain": "2"},
        ]

    def test_fixed_params_merged_into_grid(self, st, world):
        plan = make_plan(st, *world, xs=("1", "2"), fixed={"gain": "3"})
        assert all(p["gain"] == "3" for p in plan.grid_points())

    def test_param_collision_rejected(self, st, world):
        with pytest.raises(ValidationError, match="more than once"):
            make_plan(st, *world, fixed={"x": "1"})

    def test_empty_axis_rejected(self, st, world):
        with pytest.raises(ValidationError, match="no values"):
            make_plan(st, *world, xs=())

    def test_non_decimal_axis_value_rejected(self, st, world):
        with pytest.raises(ValidationError, match="decimal"):
            make_plan(st, *world, xs=("1", "fast"))

    @pytest.mark.parametrize("value", ["NaN", "sNaN"])
    def test_nan_axis_value_rejected(self, st, world, value):
        with pytest.raises(ValidationError, match="not a number"):
            make_plan(st, *world, xs=("1", value))

    def test_plan_requires_frozen_snapshot(self, st, world):
        _, pol_id = world
        from decisiondb.store import ManifestEntry, SnapshotRecord

        ghost = SnapshotRecord.create(WINDOW, [ManifestEntry("x", "0" * 16)])
        with pytest.raises(ReferentialError, match="snapshot"):
            make_plan(st, ghost, pol_id)

    def test_plan_requires_persisted_policy(self, st, world):
        snap, _ = world
        from decisiondb.policy import policy_identifier

        ghost = policy_identifier(EquivalencePolicy(hash_source=("nothing",)))
        with pytest.raises(ReferentialError, match="policy"):
            make_plan(st, snap, ghost)

    def test_load_plan_round_trip(self, st, world):
        plan = make_plan(st, *world)
        loaded = sweep.load_plan(st, plan.plan_id, "exp")
        assert loaded == plan

    def test_load_plan_unknown(self, st, world):
        with pytest.raises(PlanNotFoundError):
            sweep.load_plan(st, "plan_" + "ab" * 8, "exp")

    def test_load_plan_rejects_other_prefixes(self, st, world):
        with pytest.raises(ValidationError):
            sweep.load_plan(st, "snap_" + "ab" * 8, "exp")


class TestDeclare:
    def test_one_record_per_grid_point(self, st, world):
        plan = make_plan(st, *world)
        records = sweep.declare_representations(st, plan, StepFactory())
        assert [r.params["x"] for r in records] == ["1", "3", "7", "9"]
        for record in records:
            assert st.get_record(record.repr_id) is not None
            assert st.get_blob(record.encoded_artifact_ref)

    def test_declare_is_idempotent(self, st, world):
        plan = make_plan(st, *world)
        first = sweep.declare_representations(st, plan, StepFactory())
        second = sweep.declare_representations(st, plan, StepFactory())
        assert [r.repr_id for r in first] == [r.repr_id for r in second]
        assert st.table_counts()["representations"] == 4

    def test_factory_identity_must_match_plan(self, st, world):
        plan = make_plan(st, *world)
        factory = StepFactory()
        factory.name = "other-factory"
        with pytest.raises(ValidationError, match="does not match"):
            sweep.declare_representations(st, plan, factory)

    def test_nondeterministic_factory_refused(self, st, world):
        plan = make_plan(st, *world)
        with pytest.raises(DeterminismError):
            sweep.declare_representations(st, plan, FlakyFactory())


class TestExecute:
    def test_full_chain_counts_and_decisions(self, st, world):
        plan = make_plan(st, *world)
        entries = run_plan(st, plan)
        assert len(entries) == 4
        counts = st.table_counts()
        assert counts["representations"] == 4
        assert counts["engine_runs"] == 4
        assert counts["decisions"] == 2
        assert counts["f_map"] == 4
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        lo = dmap.get({"x": "1"}).decision_id
        assert dmap.get({"x": "3"}).decision_id == lo
        hi = dmap.get({"x": "7"}).decision_id
        assert dmap.get({"x": "9"}).decision_id == hi
        assert lo != hi

    def test_extracted_decision_equals_stored_row(self, st, world):
        plan = make_plan(st, *world)
        entries = run_plan(st, plan)
        pol = load_policy(st, plan.policy_id)
        for entry in entries:
            run = st.get_record(entry.run_id)
            raw = canon.canonical_decode(st.get_blob(run.raw_output_ref))
            assert extract_decision(raw, pol) == st.get_record(entry.decision_id)

    def test_reexecution_adds_nothing(self, st, world):
        plan = make_plan(st, *world)
        first = run_plan(st, plan)
        before = st.table_counts()
        second = sweep.execute_sweep(st, plan, StepEngine())
        assert [e.run_id for e in first] == [e.run_id for e in second]
        assert st.table_counts() == before

    def test_requires_persisted_plan(self, st, world):
        snap, pol_id = world
        plan = sweep.build_plan(
            snapshot_id=snap.snapshot_id,
            factory_name="step-table",
            factory_version="1",
            axes=[sweep.Axis(param="x", values=("1",))],
            fixed_params={},
            engine_name="step-compare",
            engine_version="1",
            query={"q": 1},
            policy_id=pol_id,
            experiment_id="exp",
        )
        with pytest.raises(PlanNotFoundError):
            sweep.execute_sweep(st, plan, StepEngine())

    def test_requires_declared_representations(self, st, world):
        plan = make_plan(st, *world)
        with pytest.raises(ReferentialError, match="not declared"):
            sweep.execute_sweep(st, plan, StepEngine())

    def test_engine_identity_must_match_plan(self, st, world):
        plan = make_plan(st, *world)
        sweep.declare_representations(st, plan, StepFactory())
        engine = StepEngine()
        engine.version = "2"
        with pytest.raises(ValidationError, match="does not match"):
            sweep.execute_sweep(st, plan, engine)

    def test_failed_point_recorded_and_sweep_continues(self, st, world):
        plan = make_plan(st, *world)
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(SweepExecutionError) as excinfo:
            sweep.execute_sweep(st, plan, StepEngine(refuse={"7"}))
        assert len(excinfo.value.entries) == 3
        assert excinfo.value.failures == [({"x": "7"}, "engine refuses x=7")]
        counts = st.table_counts()
        assert counts["engine_runs"] == 4
        assert counts["f_map"] == 3
        statuses = sorted(
            row["status"] for row in st.table_rows("engine_runs")
        )
        assert statuses == ["failed", "ok", "ok", "ok"]

    def test_failed_run_keeps_error_message(self, st, world):
        plan = make_plan(st, *world, xs=("7",))
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(SweepExecutionError):
            sweep.execute_sweep(st, plan, StepEngine(refuse={"7"}))
        (row,) = st.table_rows("engine_runs")
        error = canon.canonical_decode(st.get_blob(row["raw_output_ref"]))
        assert error["error"] == "engine refuses x=7"

    def test_repair_after_failure_preserves_failed_run(self, st, world):
        plan = make_plan(st, *world)
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(SweepExecutionError):
            sweep.execute_sweep(st, plan, StepEngine(refuse={"7"}))
        entries = sweep.execute_sweep(st, plan, StepEngine())
        assert len(entries) == 4
        counts = st.table_counts()
        assert counts["engine_runs"] == 5
        assert counts["f_map"] == 4


class TestMaterialize:
    def test_points_keyed_by_params(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        assert len(dmap) == 4
        point = dmap.get({"x": "7"})
        assert point.params == {"x": "7"}
        assert point.decision_id.prefix == "dec"
        assert dmap.get({"x": "99"}) is None

    def test_read_only(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        before = st.table_counts()
        sweep.materialize_map(st, plan.plan_id, "exp")
        assert st.table_counts() == before

    def test_partial_map_after_failure(self, st, world):
        plan = make_plan(st, *world)
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(SweepExecutionError):
            sweep.execute_sweep(st, plan, StepEngine(refuse={"3"}))
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        assert len(dmap) == 3
        assert dmap.get({"x": "3"}) is None

    def test_scoped_by_experiment(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        assert len(sweep.materialize_map(st, plan.plan_id, "elsewhere")) == 0


class TestClassify:
    def test_two_segments_one_boundary(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        report = sweep.classify_axis(sweep.materialize_map(st, plan.plan_id, "exp"), "x")
        assert [(s.lo, s.hi) for s in report.segments] == [("1", "3"), ("7", "9")]
        assert report.segments[0].decision_id != report.segments[1].decision_id
        assert [(b.lo, b.hi) for b in report.boundaries] == [("3", "7")]

    def test_constant_axis_has_no_boundary(self, st, world):
        plan = make_plan(st, *world, xs=("1", "2", "3"))
        run_plan(st, plan)
        report = sweep.classify_axis(sweep.materialize_map(st, plan.plan_id, "exp"), "x")
        assert [(s.lo, s.hi) for s in report.segments] == [("1", "3")]
        assert report.boundaries == ()

    def test_single_point_axis(self, st, world):
        plan = make_plan(st, *world, xs=("7",))
        run_plan(st, plan)
        report = sweep.classify_axis(sweep.materialize_map(st, plan.plan_id, "exp"), "x")
        assert [(s.lo, s.hi) for s in report.segments] == [("7", "7")]
        assert report.boundaries == ()

    def test_alternating_decisions(self, st):
        snap, pol_id = setup_world(st)
        plan = make_plan(st, snap, pol_id, xs=("4", "6"), fixed={"gain": "1"})
        run_plan(st, plan, StepEngine(peak_at="6"))
        report = sweep.classify_axis(sweep.materialize_map(st, plan.plan_id, "exp"), "x")
        assert len(report.segments) == 2
        assert len(report.boundaries) == 1

    def test_unknown_axis(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        with pytest.raises(ValidationError, match="does not sweep"):
            sweep.classify_axis(dmap, "y")

    def test_second_varying_axis_blocks_comparison(self, st, world):
        snap, pol_id = world
        plan = make_plan(
            st,
            snap,
            pol_id,
            axes=[
                sweep.Axis(param="x", values=("1", "9")),
                sweep.Axis(param="gain", values=("1", "2")),
            ],
        )
        run_plan(st, plan)
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        with pytest.raises(InvalidComparisonError, match="also varies"):
            sweep.classify_axis(dmap, "x")

    def test_empty_map(self, st, world):
        plan = make_plan(st, *world)
        sweep.declare_representations(st, plan, StepFactory())
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        with pytest.raises(ValidationError, match="no evaluated points"):
            sweep.classify_axis(dmap, "x")

    def test_report_payload_is_canonical(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        report = sweep.classify_axis(sweep.materialize_map(st, plan.plan_id, "exp"), "x")
        payload = report.to_payload()
        assert canon.canonical_decode(canon.canonical_encode(payload)) == payload


class TestRefine:
    def refined(self, st, world, max_evals, resolution=None, engine=None, xs=("1", "9")):
        plan = make_plan(st, *world, xs=xs)
        run_plan(st, plan, engine)
        result = sweep.refine_boundary(
            st,
            plan,
            "x",
            (xs[0], xs[-1]),
            engine or StepEngine(),
            StepFactory(),
            max_evals,
            resolution=resolution,
        )
        return plan, result

    def test_budget_zero_returns_input_interval(self, st, world):
        _, result = self.refined(st, world, max_evals=0)
        assert (result.lo, result.hi) == ("1", "9")
        assert result.evaluations == 0
        assert result.lo_decision != result.hi_decision

    def test_three_bisections_land_on_exact_halves(self, st, world):
        # Threshold 5: mid 5 is hi, then 3 is lo, then 4 is lo.
        _, result = self.refined(st, world, max_evals=3)
        assert (result.lo, result.hi) == ("4", "5")
        assert result.evaluations == 3
        assert not result.multi_region

    def test_midpoints_join_the_map(self, st, world):
        plan, _ = self.refined(st, world, max_evals=3)
        dmap = sweep.materialize_map(st, plan.plan_id, "exp")
        assert len(dmap) == 2
        assert st.table_counts()["f_map"] == 5
        for entry in st.query_fmap("exp", plan_id=plan.plan_id):
            assert st.get_record(entry.repr_id) is not None

    def test_resolution_stops_early(self, st, world):
        _, result = self.refined(st, world, max_evals=50, resolution="3")
        assert result.evaluations == 2
        assert (result.lo, result.hi) == ("3", "5")

    def test_fractional_interval_bisects_exactly(self, st, world):
        plan = make_plan(st, *world, xs=("4.9", "5.2"))
        run_plan(st, plan)
        result = sweep.refine_boundary(
            st, plan, "x", ("4.9", "5.2"), StepEngine(), StepFactory(), 2
        )
        # Midpoints: 5.05 (hi), then 4.975 (lo).
        assert (result.lo, result.hi) == ("4.975", "5.05")

    def test_equal_endpoint_decisions_rejected(self, st, world):
        plan = make_plan(st, *world, xs=("1", "3"))
        run_plan(st, plan)
        with pytest.raises(ValidationError, match="identical"):
            sweep.refine_boundary(
                st, plan, "x", ("1", "3"), StepEngine(), StepFactory(), 4
            )

    def test_empty_interval_rejected(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        with pytest.raises(ValidationError, match="empty"):
            sweep.refine_boundary(
                st, plan, "x", ("9", "1"), StepEngine(), StepFactory(), 4
            )

    @pytest.mark.parametrize(
        "interval, resolution",
        [
            (("NaN", "9"), None),
            (("1", "sNaN"), None),
            (("1", "9"), "abc"),
            (("1", "9"), "NaN"),
            (("1", "Infinity"), None),
        ],
        ids=[
            "nan-endpoint",
            "snan-endpoint",
            "non-decimal-resolution",
            "nan-resolution",
            "infinite-endpoint",
        ],
    )
    def test_bad_decimal_input_rejected(self, st, world, interval, resolution):
        plan = make_plan(st, *world, xs=("1", "9"))
        run_plan(st, plan)
        before = (st.table_counts(), st.blob_count())
        with pytest.raises(ValidationError):
            sweep.refine_boundary(
                st, plan, "x", interval, StepEngine(), StepFactory(), 3, resolution=resolution
            )
        assert (st.table_counts(), st.blob_count()) == before

    def test_third_decision_marks_multi_region(self, st, world):
        engine = StepEngine(peak_at="9")
        _, result = self.refined(st, world, max_evals=8, engine=engine)
        # Endpoints are lo and peak; the first midpoint lands on hi.
        assert result.multi_region
        assert result.evaluations == 1

    @pytest.mark.parametrize("renamed", ["engine", "factory"])
    def test_plugin_identity_must_match_plan(self, st, world, renamed):
        plan = make_plan(st, *world, xs=("1", "9"))
        run_plan(st, plan)
        engine, factory = StepEngine(), StepFactory()
        if renamed == "engine":
            engine.name = "some-other-engine"
        else:
            factory.name = "other-factory"
        before = (st.table_counts(), st.blob_count())
        with pytest.raises(ValidationError, match="does not match"):
            sweep.refine_boundary(st, plan, "x", ("1", "9"), engine, factory, 3)
        assert (st.table_counts(), st.blob_count()) == before

    def test_engine_failure_surfaces(self, st, world):
        engine = StepEngine(refuse={"5"})
        plan = make_plan(st, *world)
        run_plan(st, plan, engine)
        with pytest.raises(SweepExecutionError, match="x': '5'"):
            sweep.refine_boundary(
                st, plan, "x", ("1", "9"), engine, StepFactory(), 3
            )
