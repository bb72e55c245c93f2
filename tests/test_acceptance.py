"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line straight to the terminal (bypassing capture), so a full run reads
as a checklist. Expected values come from hand-worked oracles: the
affine route-cost model for refinement, exhaustive path enumeration for
the engine, and separately seeded subprocesses for identifier
stability.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from decisiondb import canon, cli, replay, routing, sweep
from decisiondb.errors import UnreachableError
from decisiondb.policy import EquivalencePolicy, persist_policy
from decisiondb.routing import Edge, GraphSnapshot, Node
from decisiondb.store import open_store
from payload_gen import random_payload
from test_routing import direct_rep, enumerate_routes
from test_store import raw_rows

TESTS_DIR = Path(__file__).resolve().parent
PROBE = TESTS_DIR / "process_probe.py"
TUNING_SCRIPT = TESTS_DIR.parent / "scripts" / "tune_demo_seed.py"


@pytest.fixture()
def criterion(capsys):
    @contextmanager
    def _criterion(number, label):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number:2d} FAIL  {label}")
            raise
        with capsys.disabled():
            print(f"criterion {number:2d} pass  {label}")

    return _criterion


@pytest.fixture(scope="module")
def demo_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "db"
    with open_store(path) as st:
        routing.run_demo(st)
    return path


def run_cli_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def checks_by_field(report_payload):
    return {check["field"]: check for check in report_payload["checks"]}


class TestAcceptance:
    def test_criterion_01_replay_exactness(self, demo_db, capsys, criterion):
        with criterion(1, "replay recomputes all three identity fields on 4/4 entries"):
            started = time.perf_counter()
            code, payload = run_cli_json(
                capsys, ["replay", "--db", str(demo_db), "--experiment", "demo"]
            )
            elapsed = time.perf_counter() - started
            assert code == 0
            assert payload["verified"] == 4
            assert payload["matched"] == 4
            for report in payload["reports"]:
                fields = checks_by_field(report)
                for name in ("policy_id", "payload_hash", "decision_id"):
                    assert fields[name]["persisted"] == fields[name]["recomputed"]
                    assert fields[name]["match"] is True
            assert elapsed < 5.0

    def test_criterion_02_replay_read_only(self, demo_db, criterion):
        with criterion(2, "table counts identical before and after replay"):
            with open_store(demo_db) as st:
                before = st.table_counts()
                aggregate = replay.replay_all(st, "demo", deep=True)
                after = st.table_counts()
            assert aggregate.ok
            assert before == after
            assert dict(aggregate.counts_before) == dict(aggregate.counts_after)

    def test_criterion_03_single_chain_counts(self, tmp_path, criterion):
        with criterion(3, "one-representation plan yields 1 run, 1 decision, 1 map entry"):
            with open_store(tmp_path / "db") as st:
                graph = routing.generate_demo_graph(5, 36)
                snap = sweep.freeze_snapshot(
                    st, {"graph": graph.to_payload()}, routing.DEMO_TIME_WINDOW
                )
                pol_id = persist_policy(st, EquivalencePolicy(hash_source=("route_nodes",)))
                plan = sweep.plan_sweep(
                    st,
                    snapshot_id=snap.snapshot_id,
                    factory_name=routing.FACTORY_NAME,
                    factory_version=routing.FACTORY_VERSION,
                    axes=[sweep.Axis(param="neighbor_weight", values=("0.5",))],
                    fixed_params={"second_order_weight": "0.25"},
                    engine_name=routing.ENGINE_NAME,
                    engine_version=routing.ENGINE_VERSION,
                    query={"start": 0, "end": 35},
                    policy_id=pol_id,
                    experiment_id="single",
                )
                sweep.declare_representations(st, plan, routing.CostSurfaceFactory())
                entries = sweep.execute_sweep(st, plan, routing.DijkstraEngine())
                counts = st.table_counts()
                assert len(entries) == 1
                assert counts["engine_runs"] == 1
                assert counts["decisions"] == 1
                assert counts["f_map"] == 1
                assert replay.replay_all(st, "single").ok

    def test_criterion_04_persistence_and_fracture(self, demo_db, criterion):
        with criterion(4, "demo sweep 1 keeps one decision, sweep 2 fractures"):
            _, plans = routing.demo_arena()
            with open_store(demo_db) as st:
                maps = [
                    sweep.materialize_map(st, plan.plan_id, plan.experiment_id)
                    for plan in plans
                ]
                reports = [
                    sweep.classify_axis(dmap, plan.axes[0].param)
                    for dmap, plan in zip(maps, plans)
                ]
            first_decisions = {str(p.decision_id) for p in maps[0].values()}
            second_decisions = {str(p.decision_id) for p in maps[1].values()}
            assert len(maps[0]) == len(maps[1]) == 2
            assert len(first_decisions) == 1
            assert reports[0].boundaries == ()
            assert len(second_decisions) == 2
            assert len(reports[1].boundaries) == 1
            assert TUNING_SCRIPT.exists()

    def test_criterion_05_engine_oracle(self, criterion):
        with criterion(5, "route totals and sequences match exhaustive enumeration"):
            started = time.perf_counter()
            cases = 0
            menu = [
                "1.000000000000",
                "1.500000000000",
                "2.000000000000",
                "2.500000000000",
            ]
            for seed in range(170):
                rng = random.Random(1000 + seed)
                n = rng.randrange(4, 9)
                rep = direct_rep(
                    {
                        (i, j): rng.choice(menu)
                        for i in range(n)
                        for j in range(n)
                        if i != j and rng.random() < 0.4
                    },
                    n,
                )
                cases += self._check_against_enumeration(rep, 0, n - 1)
            for seed in range(40):
                n = random.Random(seed).randrange(4, 11)
                graph = routing.generate_demo_graph(seed, n)
                rng = random.Random(2000 + seed)
                rep = routing.build_cost_representation(
                    graph,
                    str(Decimal(rng.randrange(0, 20)).scaleb(-1)),
                    str(Decimal(rng.randrange(0, 20)).scaleb(-1)),
                )
                cases += self._check_against_enumeration(rep, 0, n - 1)
            elapsed = time.perf_counter() - started
            assert cases >= 200
            assert elapsed < 30.0

    @staticmethod
    def _check_against_enumeration(rep, start, end):
        routes = enumerate_routes(rep, start, end)
        if not routes:
            with pytest.raises(UnreachableError):
                routing.dijkstra_route(rep, start, end)
            return 1
        best_cost, best_path = min(routes)
        found = routing.dijkstra_route(rep, start, end)
        assert found.route_nodes == best_path
        assert Decimal(found.total_cost) == best_cost
        return 1

    def test_criterion_06_cross_process_identifiers(self, criterion):
        with criterion(6, "identifiers stable across processes and key orders"):
            def probe(hash_seed, key_order):
                env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                result = subprocess.run(
                    [
                        sys.executable,
                        str(PROBE),
                        "--count",
                        "1000",
                        "--seed",
                        "424242",
                        "--key-order",
                        key_order,
                    ],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=env,
                )
                return result.stdout.splitlines()

            first = probe("0", "sorted")
            second = probe("31337", "sorted")
            reversed_order = probe("7", "reversed")
            rng = random.Random(424242)
            local = [
                str(canon.content_id("snap", random_payload(rng)))
                for _ in range(1000)
            ]
            assert len(first) == 1000
            assert first == second == reversed_order == local

    def test_criterion_07_idempotent_rerun(self, demo_db, tmp_path, criterion):
        with criterion(7, "re-running both demo sweeps changes no table and no blob"):
            db = tmp_path / "db"
            shutil.copytree(demo_db, db)
            with open_store(db) as st:
                counts_before = st.table_counts()
                blobs_before = list(st.iter_blob_hashes())
                routing.run_demo(st)
                assert st.table_counts() == counts_before
                assert list(st.iter_blob_hashes()) == blobs_before

    def test_criterion_08_corruption_sensitivity(self, demo_db, tmp_path, capsys, criterion):
        with criterion(8, "every sampled single-byte flip is caught with exit 2"):
            db = tmp_path / "db"
            shutil.copytree(demo_db, db)
            with open_store(db) as st:
                raw_refs = sorted(
                    {row["raw_output_ref"] for row in raw_rows(st, "engine_runs")}
                )
                paths = {ref: Path(st._blob_path(ref)) for ref in raw_refs}
            rng = random.Random(808)
            caught = 0
            for _ in range(100):
                ref = rng.choice(raw_refs)
                original = paths[ref].read_bytes()
                position = rng.randrange(len(original))
                mutated = bytearray(original)
                mutated[position] ^= 1 << rng.randrange(8)
                paths[ref].write_bytes(bytes(mutated))
                try:
                    code, payload = run_cli_json(
                        capsys, ["replay", "--db", str(db), "--experiment", "demo"]
                    )
                finally:
                    paths[ref].write_bytes(original)
                assert code == 2
                mismatched_fields = {
                    check["field"]
                    for report in payload["reports"]
                    for check in report["checks"]
                    if not check["match"]
                }
                assert "payload_hash" in mismatched_fields
                caught += 1
            assert caught == 100

    def test_criterion_09_evaluation_time(self, criterion):
        with criterion(9, "one route evaluation on the demo graph under 50 ms"):
            graph = routing.generate_demo_graph(routing.DEMO_SEED)
            rep = routing.build_cost_representation(graph, "0.5", "0.25")
            timings = []
            for _ in range(5):
                started = time.perf_counter()
                routing.dijkstra_route(rep, routing.DEMO_QUERY["start"], routing.DEMO_QUERY["end"])
                timings.append(time.perf_counter() - started)
            assert min(timings) < 0.050

    def test_criterion_10_refinement_oracle(self, tmp_path, criterion):
        with criterion(10, "bisection brackets the analytic crossing at budget 20"):
            # Two disjoint routes whose costs are affine in t
            # (second_order_weight) with neighbor_weight fixed at 0.25:
            #   upper 0-1-2-5: 10(1 + 0.25*0.2 + 0.9t) + 10(1 + 0.25*0.9) + 10
            #                = 32.75 + 9t
            #   lower 0-3-4-5: 10(1 + 0.25*0.2 + 0.1t) + 10(1 + 0.25*0.1) + 13.1
            #                = 33.85 + t
            # They cross where 8t = 1.1.
            upper_base, upper_slope = Fraction("32.75"), Fraction(9)
            lower_base, lower_slope = Fraction("33.85"), Fraction(1)
            t_star = (lower_base - upper_base) / (upper_slope - lower_slope)
            assert t_star == Fraction(11, 80)

            graph = GraphSnapshot(
                nodes=tuple(Node(id=i, x=i, y=0) for i in range(6)),
                edges=(
                    Edge(0, 1, "10.000", "0.500"),
                    Edge(1, 2, "10.000", "0.200"),
                    Edge(2, 5, "10.000", "0.900"),
                    Edge(0, 3, "10.000", "0.500"),
                    Edge(3, 4, "10.000", "0.200"),
                    Edge(4, 5, "13.100", "0.100"),
                ),
            )
            with open_store(tmp_path / "db") as st:
                snap = sweep.freeze_snapshot(
                    st, {"graph": graph.to_payload()}, routing.DEMO_TIME_WINDOW
                )
                pol_id = persist_policy(
                    st, EquivalencePolicy(hash_source=("route_nodes",))
                )
                plan = sweep.plan_sweep(
                    st,
                    snapshot_id=snap.snapshot_id,
                    factory_name=routing.FACTORY_NAME,
                    factory_version=routing.FACTORY_VERSION,
                    axes=[sweep.Axis(param="second_order_weight", values=("0", "1"))],
                    fixed_params={"neighbor_weight": "0.25"},
                    engine_name=routing.ENGINE_NAME,
                    engine_version=routing.ENGINE_VERSION,
                    query={"start": 0, "end": 5},
                    policy_id=pol_id,
                    experiment_id="twopath",
                )
                factory = routing.CostSurfaceFactory()
                engine = routing.DijkstraEngine()
                sweep.declare_representations(st, plan, factory)
                sweep.execute_sweep(st, plan, engine)

                # The sampled endpoints must sit on opposite sides of the
                # crossing, riding the affine model exactly.
                dmap = sweep.materialize_map(st, plan.plan_id, "twopath")
                assert len(dmap) == 2
                lo_point = dmap.get(
                    {"neighbor_weight": "0.25", "second_order_weight": "0"}
                )
                hi_point = dmap.get(
                    {"neighbor_weight": "0.25", "second_order_weight": "1"}
                )
                assert lo_point.decision_id != hi_point.decision_id

                result = sweep.refine_boundary(
                    st,
                    plan,
                    "second_order_weight",
                    ("0", "1"),
                    engine,
                    factory,
                    max_evals=20,
                )
            assert not result.multi_region
            lo, hi = Fraction(result.lo), Fraction(result.hi)
            assert lo < t_star < hi
            resolution = Fraction(1, 10**6)
            assert hi - lo <= Fraction(1, 2**20) + resolution
