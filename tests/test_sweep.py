"""Sweep orchestration tests, run against a transparent toy arena.

The toy factory copies a threshold out of the snapshot and the toy
engine labels each point by comparing x * gain against it, so every
decision, boundary, and refinement outcome here is predictable by eye.
"""

from __future__ import annotations

import copy
import pickle
import random
import re
import sqlite3
import types
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies

from decisiondb import canon, replay, store, sweep
from decisiondb.errors import (
    BlobCorruptionError,
    CanonicalizationError,
    DeterminismError,
    IdentifierFormatError,
    InvalidComparisonError,
    PlanNotFoundError,
    ReferentialError,
    SweepExecutionError,
    ValidationError,
)
from decisiondb.policy import EquivalencePolicy, extract_decision, load_policy, persist_policy
from decisiondb.store import RepresentationRecord, open_store
from test_replay import flip_byte
from test_store import raw_rows, store_digest
from toy_arena import (
    WINDOW,
    CountingEngine,
    CountingFactory,
    DriftedFactory,
    FlakyFactory,
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
def world(st):
    return setup_world(st)


def unpersisted_plan(snap, pol_id, xs=("1",)):
    """The toy plan over ``xs``, built but not persisted."""
    return sweep.SweepPlan(
        snapshot_id=snap.snapshot_id,
        factory_name="step-table",
        factory_version="1",
        axes=[sweep.Axis(param="x", values=tuple(xs))],
        fixed_params={},
        engine_name="step-compare",
        engine_version="1",
        query={"q": 1},
        policy_id=pol_id,
        experiment_id="exp",
    )


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

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"axes": [{"param": "x", "values": [1, 3]}]}, "axis 'x' value 1"),
            ({"axes": [{"param": "x", "values": ["1", True]}]}, "axis 'x' value True"),
            ({"fixed_params": {"gain": 2}}, "fixed parameter 'gain' value 2"),
        ],
        ids=["number-axis-value", "bool-axis-value", "number-fixed-param"],
    )
    def test_non_string_plan_value_rejected(self, st, world, change, named):
        # A number would name another representation than its decimal
        # string, the spelling refine gives an endpoint.
        payload = {**make_plan(st, *world).payload(), **change}
        with pytest.raises(ValidationError, match=f"{named} is not a string"):
            sweep.SweepPlan.from_payload(payload, "exp")

    @pytest.mark.parametrize(
        "axis, message",
        [
            (sweep.Axis(param=1, values=("1",)), "axis parameter name 1 is not a string"),
            (sweep.Axis(param="x", values="13"), "axis 'x' values '13' are a string"),
        ],
        ids=["number-param", "string-values"],
    )
    def test_bad_axis_shape_rejected_at_construction(self, st, world, axis, message):
        # A string of values would sweep its characters, x = 1 and 3.
        with pytest.raises(ValidationError, match=message):
            make_plan(st, *world, axes=[axis])

    @pytest.mark.parametrize("name", ["snapshot_id", "policy_id"])
    def test_identifier_of_the_wrong_kind_rejected(self, st, world, name):
        plan = make_plan(st, *world)
        payload = {**plan.payload(), name: "run_" + "ab" * 8}
        with pytest.raises(ValidationError, match="not a"):
            sweep.SweepPlan.from_payload(payload, "exp")

    @pytest.mark.parametrize("name, value", [("snapshot_id", None), ("policy_id", 123)])
    def test_identifier_that_is_not_a_string_rejected(self, world, name, value):
        with pytest.raises(IdentifierFormatError, match=f"malformed identifier: {value}"):
            replace(unpersisted_plan(*world), **{name: value})

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


_POLICY_ID = canon.Identifier("pol", "ab" * 8)
# Text a repr id's bytes must carry through unchanged: quotes, backslashes,
# the frame's own cut point, non-ASCII and control characters.
_TRICKY = strategies.just('"params":{}') | strategies.text(
    alphabet='"\\{}:,params x\u00e9\u4e16\U0001f600\n\x00', max_size=12
)
_NAMES = _TRICKY | strategies.text(
    alphabet=strategies.characters(blacklist_categories=("Cs",)), max_size=12
)
_PARAM_VALUES = (
    _NAMES
    | strategies.integers()
    | strategies.floats()
    | strategies.none()
    | strategies.just(object())
    | strategies.just("lone \ud800 surrogate")
)
_PARAM_KEYS = _NAMES | strategies.just("\udfff") | strategies.integers()


def _outcome(derive):
    try:
        return "id", derive()
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(
    strategies.from_regex(r"[0-9a-f]{16}", fullmatch=True),
    _NAMES,
    _NAMES,
    strategies.dictionaries(_PARAM_KEYS, _PARAM_VALUES, max_size=4).flatmap(
        lambda params: strategies.sampled_from(
            [params, types.MappingProxyType(params), list(params.items())]
        )
    ),
)
def test_repr_id_is_the_records_derived_id(digest, name, version, params):
    snap = canon.Identifier("snap", digest)
    plan = sweep.SweepPlan(
        snapshot_id=snap,
        factory_name=name,
        factory_version=version,
        axes=[sweep.Axis("x", ("1",))],
        fixed_params={},
        engine_name="step-compare",
        engine_version="1",
        query={"q": 1},
        policy_id=_POLICY_ID,
        experiment_id="exp",
    )
    reference = RepresentationRecord(None, snap, name, version, params, "")
    expected = _outcome(reference.derived_id)
    assert _outcome(lambda: plan.repr_id(params)) == expected
    # Twice, now with the plan's frame already cut.
    assert _outcome(lambda: plan.repr_id(params)) == expected


def test_plan_pickles_and_copies_after_deriving_repr_ids(world, st):
    plan = make_plan(st, *world)
    rep_id = plan.repr_id({"x": "1"})
    for twin in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan), copy.copy(plan)):
        assert twin == plan
        assert twin.repr_id({"x": "1"}) == rep_id


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
        with pytest.raises(PlanNotFoundError):
            sweep.execute_sweep(st, unpersisted_plan(*world), StepEngine())

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

    def test_engine_is_checked_before_the_plan_is_looked_up(self, st, world):
        plan = unpersisted_plan(*world)
        engine = StepEngine()
        engine.version = "2"
        with pytest.raises(ValidationError, match="engine step-compare/2 does not match"):
            sweep.execute_sweep(st, plan, engine)

    def test_mapping_output_that_is_not_a_dict_refused(self, st, world):
        class ProxyEngine(StepEngine):
            def evaluate(self, representation, query):
                return types.MappingProxyType(super().evaluate(representation, query))

        plan = make_plan(st, *world)
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(CanonicalizationError, match=r"type mappingproxy at \$ has no"):
            sweep.execute_sweep(st, plan, ProxyEngine())
        assert st.table_counts()["engine_runs"] == 0

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
            row["status"] for row in raw_rows(st, "engine_runs")
        )
        assert statuses == ["failed", "ok", "ok", "ok"]

    def test_failed_run_keeps_error_message(self, st, world):
        plan = make_plan(st, *world, xs=("7",))
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(SweepExecutionError):
            sweep.execute_sweep(st, plan, StepEngine(refuse={"7"}))
        (row,) = raw_rows(st, "engine_runs")
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

    def test_first_row_wins_when_a_point_has_two_decisions(self, st, world):
        class AlternatingEngine(StepEngine):
            calls = 0

            def evaluate(self, representation, query):
                self.calls += 1
                raw = super().evaluate(representation, query)
                return {**raw, "label": "lo" if self.calls % 2 else "hi"}

        plan = make_plan(st, *world, xs=("1",))
        engine = AlternatingEngine()
        run_plan(st, plan, engine)
        # Without its raw output the point's one run cannot be reused,
        # so the second call evaluates it again.
        delete_blob(st, "engine_runs", "raw_output_ref")
        run_plan(st, plan, engine)
        rows = st.query_fmap("exp", plan_id=plan.plan_id)
        assert len({row.decision_id for row in rows}) == 2
        # The point's status holds both decisions, in query_fmap order.
        status = sweep._statuses(st, plan)[plan.repr_id({"x": "1"})]
        assert status.rows == [(row.run_id, row.decision_id, True) for row in rows]
        point = sweep.materialize_map(st, plan.plan_id, "exp").get({"x": "1"})
        assert (point.run_id, point.decision_id) == (rows[0].run_id, rows[0].decision_id)
        # Refine reads the same row for the point as an endpoint; x=9
        # is a third label, so the endpoints' decisions differ.
        refined = sweep.refine_boundary(
            st, plan, "x", ("1", "9"), StepEngine(peak_at="9"), StepFactory(), 0
        )
        assert refined.lo_decision == point.decision_id


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

    def test_preconditions_are_checked_in_order(self, st, world):
        # Every precondition fails at first; each is mended in turn, and
        # the next one in line is the error reported.
        plan = unpersisted_plan(*world, xs=("1", "9"))
        engine, factory = StepEngine(), StepFactory()
        engine.name, factory.name = "other-engine", "other-factory"
        axis = "y"

        def refine():
            sweep.refine_boundary(st, plan, axis, ("1", "nine"), engine, factory, 3)

        with pytest.raises(ValidationError, match="engine other-engine/1 does not match"):
            refine()
        engine.name = "step-compare"
        with pytest.raises(ValidationError, match="factory other-factory/1 does not match"):
            refine()
        factory.name = "step-table"
        with pytest.raises(ValidationError, match="does not sweep an axis named 'y'"):
            refine()
        axis = "x"
        with pytest.raises(PlanNotFoundError):
            refine()
        sweep.persist_plan(st, plan)
        with pytest.raises(ValidationError, match="must be decimal strings"):
            refine()
        assert st.table_counts()["representations"] == 0

    def test_engine_failure_surfaces(self, st, world):
        engine = StepEngine(refuse={"5"})
        plan = make_plan(st, *world)
        run_plan(st, plan, engine)
        with pytest.raises(SweepExecutionError, match="x': '5'"):
            sweep.refine_boundary(
                st, plan, "x", ("1", "9"), engine, StepFactory(), 3
            )


SWEEP_CALLS = {
    "declare": lambda st, plan: sweep.declare_representations(st, plan, StepFactory()),
    "execute": lambda st, plan: sweep.execute_sweep(st, plan, StepEngine()),
    "refine": lambda st, plan: sweep.refine_boundary(
        st, plan, "x", ("1", "9"), StepEngine(), StepFactory(), 3
    ),
}


def traced(st):
    """SQL statements the store's connection runs from here on."""
    statements = []
    st._conn.set_trace_callback(statements.append)
    return statements


class TestBatchedWrites:
    @pytest.mark.parametrize("call", SWEEP_CALLS)
    @pytest.mark.parametrize("interval", [3600, 0], ids=["long-interval", "zero-interval"])
    def test_one_commit_per_call_or_one_per_row(self, st, world, monkeypatch, call, interval):
        monkeypatch.setattr(store, "_COMMIT_INTERVAL_S", interval)
        plan = make_plan(st, *world, xs=("1", "9"))
        names = list(SWEEP_CALLS)
        for name in names[: names.index(call)]:
            SWEEP_CALLS[name](st, plan)
        statements = traced(st)
        SWEEP_CALLS[call](st, plan)
        inserts = sum(s.startswith("INSERT") for s in statements)
        assert inserts > 1
        assert statements.count("COMMIT") == (1 if interval else inserts)

    def test_hundred_point_sweep_commits_twice(self, st, world, monkeypatch):
        monkeypatch.setattr(store, "_COMMIT_INTERVAL_S", 3600)
        plan = make_plan(st, *world, xs=[str(x) for x in range(100)])
        statements = traced(st)
        run_plan(st, plan)
        assert sum(s.startswith("INSERT") for s in statements) == 400
        assert statements.count("COMMIT") == 2

    # Each sweep fails at its third point (x=7); the rows written before
    # the failure must be committed, as when every row committed alone.
    @pytest.mark.parametrize(
        "factory, engine, error, counts",
        [
            (FlakyFactory(steady=4), StepEngine(), DeterminismError, (2, 0, 0, 0)),
            (StepFactory(), StepEngine(malformed={"7"}), ValidationError, (4, 2, 1, 2)),
            (StepFactory(), StepEngine(refuse={"7"}), SweepExecutionError, (4, 4, 2, 3)),
        ],
        ids=["nondeterministic-factory", "non-mapping-output", "engine-failure"],
    )
    def test_error_keeps_earlier_rows(
        self, st, world, tmp_path, monkeypatch, factory, engine, error, counts
    ):
        monkeypatch.setattr(store, "_COMMIT_INTERVAL_S", 3600)
        plan = make_plan(st, *world)
        with pytest.raises(error):
            sweep.declare_representations(st, plan, factory)
            sweep.execute_sweep(st, plan, engine)
        with open_store(tmp_path / "db") as other:
            found = other.table_counts()
        assert (
            found["representations"], found["engine_runs"], found["decisions"], found["f_map"]
        ) == counts


class CoinFlipEngine(CountingEngine):
    """Answers a label of the point's own on a seeded coin flip, so some
    points' outputs differ from a StepEngine run and the rest do not."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)
        self.flipped = []

    def evaluate(self, representation, query):
        raw = super().evaluate(representation, query)
        if self.rng.random() < 0.5:
            self.flipped.append(raw["x"])
            raw = {**raw, "label": f"flip-{raw['x']}"}
        return raw


def delete_row(st, table, column, index=0):
    """Delete one row through a second connection, foreign keys off, as
    hand damage to a store would."""
    value = raw_rows(st, table)[index][column]
    conn = sqlite3.connect(st.location / store.DB_FILENAME)
    try:
        conn.execute("PRAGMA foreign_keys = OFF")
        conn.execute(f"DELETE FROM {table} WHERE {column} = ?", (value,))
        conn.commit()
    finally:
        conn.close()


def delete_blob(st, table, column, index=0):
    ref = raw_rows(st, table)[index][column]
    Path(st._blob_path(ref)).unlink()


# Hand damage to a store that a rerun of the toy plan repairs.
DAMAGES = {
    "decision-row": lambda st: delete_row(st, "decisions", "decision_id"),
    "run-row": lambda st: delete_row(st, "engine_runs", "run_id", index=2),
    "fmap-row": lambda st: delete_row(st, "f_map", "run_id", index=1),
    "raw-output-blob": lambda st: delete_blob(st, "engine_runs", "raw_output_ref", index=3),
    "representation-blob": lambda st: delete_blob(st, "representations", "encoded_artifact_ref"),
}


class TestRerun:
    def test_rerun_runs_no_insert_and_encodes_nothing(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        factory = CountingFactory()
        statements = traced(st)
        sweep.declare_representations(st, plan, factory)
        assert factory.calls == 0
        sweep.execute_sweep(st, plan, StepEngine())
        assert not [s for s in statements if s.startswith("INSERT")]
        assert "COMMIT" not in statements

    def test_rerun_returns_the_stored_records(self, st, world):
        plan = make_plan(st, *world)
        first = run_plan(st, plan)
        declared = sweep.declare_representations(st, plan, StepFactory())
        assert declared == [st.get_record(entry.repr_id) for entry in first]
        assert sweep.execute_sweep(st, plan, StepEngine()) == first

    def test_drifted_factory_writes_nothing_and_reexecute_reports_it(self, st, world):
        # A rerun trusts the stored rows, so the drift is left to replay.
        plan = make_plan(st, *world)
        first = run_plan(st, plan)
        digest = store_digest(st)
        sweep.declare_representations(st, plan, DriftedFactory())
        assert sweep.execute_sweep(st, plan, StepEngine()) == first
        assert store_digest(st) == digest
        report = replay.replay_all(st, "exp", reexecute=toy_plugins(factory=DriftedFactory()))
        assert [[c.field for c in r.mismatches()] for r in report.reports] == (
            [["reexec:encoded_artifact_ref"]] * 4
        )

    def test_drifted_factory_refused_when_the_blob_was_deleted(self, st, world):
        plan = make_plan(st, *world, xs=("1",))
        run_plan(st, plan)
        delete_blob(st, "representations", "encoded_artifact_ref")
        counts, blobs = st.table_counts(), st.blob_count()
        rep_id = plan.repr_id({"x": "1"})
        with pytest.raises(DeterminismError, match=re.escape(str(rep_id))):
            sweep.declare_representations(st, plan, DriftedFactory())
        assert (st.table_counts(), st.blob_count()) == (counts, blobs)

    def test_rerun_statements_do_not_grow_with_the_grid(self, st, world):
        counts = []
        reads = []
        for size in (4, 16):
            plan = make_plan(st, *world, xs=[str(x) for x in range(size)])
            run_plan(st, plan)
            statements = traced(st)
            run_plan(st, plan)
            counts.append(len(statements))
            statements = traced(st)
            sweep.materialize_map(st, plan.plan_id, "exp")
            reads.append(len(statements))
        assert counts == [4, 4]
        assert reads == [1, 1]

    def test_refine_reads_do_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        # The grid's first two points are the interval's endpoints, and
        # no midpoint is on the grid, so both refines take the same path.
        reads = []
        for size in (4, 400):
            with open_store(tmp_path / str(size)) as st:
                xs = ["1", "9", *map(str, range(10, 8 + size))]
                plan = make_plan(st, *setup_world(st), xs=xs)
                run_plan(st, plan)
                statements = traced(st)
                rows = []
                execute = st._execute

                def counting(sql, params=()):
                    found = execute(sql, params)
                    rows.append(len(found))
                    return found

                monkeypatch.setattr(st, "_execute", counting)
                refined = sweep.refine_boundary(
                    st, plan, "x", ("1", "9"), StepEngine(), StepFactory(), 4
                )
            assert refined.evaluations == 4
            # The trace binds each parameter as a quoted literal.
            shapes = [re.sub(r"'[^']*'", "?", sql) for sql in statements]
            reads.append((shapes, rows))
        assert reads[0] == reads[1]

    def test_refine_reads_by_key_and_again_runs_nothing(self, st, world):
        plan = make_plan(st, *world, xs=("1", "9"))
        run_plan(st, plan)

        def refine(max_evals, factory, engine):
            statements = traced(st)
            result = sweep.refine_boundary(st, plan, "x", ("1", "9"), engine, factory, max_evals)
            return result, statements

        for max_evals in (2, 6):
            result, statements = refine(max_evals, StepFactory(), StepEngine())
            assert result.evaluations == max_evals
            for sql in statements:
                if sql.startswith("SELECT"):
                    steps = st._conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
                    scans = [step[-1] for step in steps if step[-1].startswith("SCAN")]
                    assert set(scans) <= {"SCAN CONSTANT ROW"}, sql
        # The same refine again finds every point it needs on the map.
        factory, engine = CountingFactory(), CountingEngine()
        again, statements = refine(6, factory, engine)
        assert again == result
        assert (factory.calls, engine.evaluated) == (0, [])
        assert not [s for s in statements if s.startswith("INSERT")]

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
    def test_refine_over_a_damaged_store_matches_a_whole_plan_read(
        self, tmp_path, monkeypatch, damage
    ):
        # The reference refine holds every point's status from one
        # whole-plan read.
        outcomes = []
        for name in ("keyed", "whole"):
            if name == "whole":
                monkeypatch.setattr(sweep, "_KeyedStatuses", sweep._statuses)
            with open_store(tmp_path / name) as st:
                plan = make_plan(st, *setup_world(st))
                first = run_plan(st, plan)
                damage(st)
                refined = sweep.refine_boundary(
                    st, plan, "x", ("1", "9"), StepEngine(), StepFactory(), 3
                )
                outcomes.append((refined, store_digest(st)))
            # The decision-row damage leaves the x=1 endpoint only an
            # incomplete map row, whose decision it still takes.
            assert refined.lo_decision == first[0].decision_id
        assert outcomes[0] == outcomes[1]

    def test_refine_reuses_the_run_of_a_point_off_its_map(self, st, world):
        # Another plan over the same family stored the points' runs; none
        # of them has a row on this plan's map.
        other = make_plan(st, *world)
        run_plan(st, other)
        sweep.refine_boundary(st, other, "x", ("1", "9"), StepEngine(), StepFactory(), 3)
        plan = make_plan(st, *world, xs=("1", "9"))
        factory, engine = CountingFactory(), CountingEngine()
        statements = traced(st)
        refined = sweep.refine_boundary(st, plan, "x", ("1", "9"), engine, factory, 3)
        assert (refined.lo, refined.hi, refined.evaluations) == ("4", "5", 3)
        assert (factory.calls, engine.evaluated) == (0, [])
        # Each of the five points read its runs, and wrote one map row.
        runs_read = sweep._RUNS_SQL.split("?")[0]
        assert sum(s.startswith(runs_read) for s in statements) == 5
        assert len(st.query_fmap("exp", plan_id=plan.plan_id)) == 5

    def test_status_reads_build_no_automatic_index(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        statements = traced(st)
        sweep._statuses(st, plan)
        assert len(statements) == 3
        for sql in statements:
            steps = st._conn.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
            assert not [step for step in steps if "AUTOMATIC" in step[-1]], sql

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
    def test_rerun_restores_a_damaged_store(self, st, world, damage):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        intact = store_digest(st)
        damage(st)
        assert store_digest(st) != intact
        run_plan(st, plan)
        assert store_digest(st) == intact

    @pytest.mark.parametrize("seed", [3, 17])
    def test_rerun_stores_each_output_that_differs(self, st, world, seed):
        # A point's one stored run is reused, so a drifting engine is not
        # called and changes nothing. Only a point whose raw output was
        # deleted is evaluated again; its answer is the first coin flip,
        # which seed 3 flips and seed 17 does not.
        plan = make_plan(st, *world, xs=[str(x) for x in range(8)])
        run_plan(st, plan)
        before, blobs = st.table_counts(), st.blob_count()
        engine = CoinFlipEngine(seed)
        run_plan(st, plan, engine)
        assert engine.evaluated == []
        assert (st.table_counts(), st.blob_count()) == (before, blobs)
        delete_blob(st, "engine_runs", "raw_output_ref", index=3)
        run_plan(st, plan, engine)
        assert len(engine.evaluated) == 1
        assert engine.flipped == (engine.evaluated if seed == 3 else [])
        added = {table: st.table_counts()[table] - before[table] for table in before}
        flipped = len(engine.flipped)
        assert added == {
            "snapshots": 0,
            "representations": 0,
            "engine_runs": flipped,
            "decisions": flipped,
            "f_map": flipped,
        }


class TestReuse:
    """A point with exactly one stored ok run takes its decision from that
    run's raw output, read verified, and the engine is not called."""

    def test_rerun_calls_no_engine_and_runs_no_insert(self, st, world):
        plan = make_plan(st, *world)
        first = run_plan(st, plan)
        engine = CountingEngine()
        statements = traced(st)
        assert run_plan(st, plan, engine) == first
        assert engine.evaluated == []
        assert not [s for s in statements if s.startswith("INSERT")]

    def test_rerun_derives_each_decision_id_once(self, st, world, monkeypatch):
        plan = make_plan(st, *world, xs=[str(x) for x in range(10)])
        entries = run_plan(st, plan)
        assert len({entry.decision_id for entry in entries}) == 2
        derived = []
        content_id = canon.content_id

        def counting(prefix, payload):
            derived.append(prefix)
            return content_id(prefix, payload)

        monkeypatch.setattr(canon, "content_id", counting)
        assert run_plan(st, plan) == entries
        assert derived.count("dec") == 2

    def test_plan_differing_only_in_policy_reuses_each_run(self, st, world, tmp_path):
        snap, _ = world
        plan = make_plan(st, *world)
        run_plan(st, plan)
        before = st.table_counts()
        pol_id = persist_policy(st, EquivalencePolicy(hash_source=("x",)))
        other = make_plan(st, snap, pol_id)
        engine = CountingEngine()
        entries = run_plan(st, other, engine)
        assert engine.evaluated == []
        added = {table: st.table_counts()[table] - before[table] for table in before}
        assert added == {
            "snapshots": 0, "representations": 0, "engine_runs": 0, "decisions": 4, "f_map": 4
        }
        assert replay.replay_all(st, "exp", deep=True).ok
        # A fresh store running only that plan writes the same rows.
        def written(store, table, column, value):
            rows = [row for row in raw_rows(store, table) if row[column] == str(value)]
            return [{k: v for k, v in row.items() if k != "created_at"} for row in rows]

        with open_store(tmp_path / "fresh") as fresh:
            fresh_snap, _ = setup_world(fresh)
            persist_policy(fresh, EquivalencePolicy(hash_source=("x",)))
            assert run_plan(fresh, make_plan(fresh, fresh_snap, pol_id)) == entries
            for table, column, value in (
                ("decisions", "policy_id", pol_id),
                ("f_map", "plan_id", other.plan_id),
            ):
                assert written(st, table, column, value) == written(fresh, table, column, value)

    def test_plan_with_another_query_calls_the_engine(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        other = sweep.persist_plan(st, replace(plan, query={"q": 2}))
        engine = CountingEngine()
        run_plan(st, other, engine)
        assert engine.evaluated == ["1", "3", "7", "9"]

    def test_corrupt_raw_output_refused_before_any_write(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        ref = raw_rows(st, "engine_runs")[2]["raw_output_ref"]
        flip_byte(st, ref)
        counts, blobs = st.table_counts(), st.blob_count()
        with pytest.raises(BlobCorruptionError, match=f"blob {ref} re-hashes"):
            run_plan(st, plan)
        assert (st.table_counts(), st.blob_count()) == (counts, blobs)

    def test_point_with_two_ok_runs_is_evaluated(self, st, world):
        # x=1 gets a second ok run with another output; x=9 keeps one.
        plan = make_plan(st, *world, xs=("1", "9"))
        run_plan(st, plan)
        rep_id = plan.repr_id({"x": "1"})
        other = {"label": "other", "x": "1", "echo": {"q": 1}, "version": "1"}
        run = store.EngineRunRecord.create(
            rep_id, "step-compare", "1", {"q": 1}, st.put_blob(canon.canonical_encode(other)), "0"
        )
        st.put_record(run)
        assert len(sweep._statuses(st, plan)[rep_id].runs) == 2
        counts, blobs = st.table_counts(), st.blob_count()
        engine = CountingEngine()
        run_plan(st, plan, engine)
        # Its output matches the first run, whose chain is stored.
        assert engine.evaluated == ["1"]
        assert (st.table_counts(), st.blob_count()) == (counts, blobs)

    def test_failed_runs_alone_are_evaluated_again(self, st, world):
        plan = make_plan(st, *world, xs=("1", "9"))
        sweep.declare_representations(st, plan, StepFactory())
        with pytest.raises(SweepExecutionError):
            sweep.execute_sweep(st, plan, StepEngine(refuse={"1"}))
        engine = CountingEngine()
        run_plan(st, plan, engine)
        assert engine.evaluated == ["1"]
        assert st.table_counts()["engine_runs"] == 3

    def test_corrupt_representation_refused_before_any_write(self, st, world):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        ref = raw_rows(st, "representations")[1]["encoded_artifact_ref"]
        flip_byte(st, ref)
        counts, blobs = st.table_counts(), st.blob_count()
        with pytest.raises(BlobCorruptionError, match=f"blob {ref} re-hashes"):
            sweep.execute_sweep(st, plan, StepEngine())
        assert (st.table_counts(), st.blob_count()) == (counts, blobs)


@pytest.fixture()
def plan_runs(monkeypatch):
    """Every _PlanRun built from here on, in order."""
    built = []

    class Recorded(sweep._PlanRun):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(sweep, "_PlanRun", Recorded)
    return built


class TestStatusesKeptCurrent:
    """A call's statuses, kept as it writes, equal a fresh read after it."""

    @staticmethod
    def assert_current(st, plan, plan_run):
        def view(status):
            # Runs are read in no set order; rows are in query_fmap order.
            return status.stored, sorted(status.runs), status.rows

        kept, fresh = plan_run.statuses, sweep._statuses(st, plan)
        assert kept
        for rep_id in set(kept) | set(fresh):
            assert view(kept[rep_id]) == view(fresh[rep_id]), rep_id

    def test_after_execute(self, st, world, plan_runs):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        self.assert_current(st, plan, plan_runs[-1])

    def test_after_refine(self, st, world, plan_runs):
        plan = make_plan(st, *world, xs=("1", "9"))
        run_plan(st, plan)
        sweep.refine_boundary(st, plan, "x", ("1", "9"), StepEngine(), StepFactory(), 3)
        kept, fresh = plan_runs[-1].statuses, sweep._statuses(st, plan)
        # The endpoints, then the midpoints 5, 3 and 4, and no other point.
        decided = {plan.repr_id({"x": x}): x for x in ("1", "9", "5", "3", "4")}
        assert set(kept) == set(decided)
        for rep_id, status in kept.items():
            assert status.stored == fresh[rep_id].stored
            assert status.rows == fresh[rep_id].rows
            # An endpoint is decided from its map row, so its runs stay
            # unread; a midpoint's are kept from the run it stored.
            if decided[rep_id] in ("1", "9"):
                assert status.runs is None
            else:
                assert status.runs == fresh[rep_id].runs

    @pytest.mark.parametrize("damage", DAMAGES.values(), ids=DAMAGES)
    def test_after_a_rerun_over_a_damaged_store(self, st, world, plan_runs, damage):
        plan = make_plan(st, *world)
        run_plan(st, plan)
        damage(st)
        run_plan(st, plan)
        self.assert_current(st, plan, plan_runs[-1])

    def test_after_a_rerun_that_adds_a_second_decision(self, st, world, plan_runs):
        plan = make_plan(st, *world, xs=[str(x) for x in range(8)])
        run_plan(st, plan)
        delete_blob(st, "engine_runs", "raw_output_ref", index=3)
        engine = CoinFlipEngine(3)
        run_plan(st, plan, engine)
        assert engine.flipped
        self.assert_current(st, plan, plan_runs[-1])
