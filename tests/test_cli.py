"""Command-line interface tests.

The demo store is built once per module; read-only commands share it
and corruption tests work on throwaway copies.
"""

from __future__ import annotations

import json
import re
import shutil
import sqlite3
from pathlib import Path

import pytest

from decisiondb import canon, cli, routing, sweep
from decisiondb.policy import EquivalencePolicy
from decisiondb.store import TABLES, Store, open_store
from test_store import raw_rows
from toy_arena import make_plan, setup_world


@pytest.fixture(scope="module")
def demo_db(tmp_path_factory):
    path = tmp_path_factory.mktemp("clistore") / "db"
    assert cli.main(["demo", "sweep", "--db", str(path)]) == 0
    return path


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def demo_plan_ids(capsys, demo_db):
    code, payload = run_json(capsys, ["demo", "generate", "--db", str(demo_db)])
    assert code == 0
    return payload["plan_ids"]


def delete_raw_output(db):
    """Delete one engine run's raw-output blob; return the decision it backs."""
    st = open_store(db)
    run = raw_rows(st, "engine_runs")[0]
    decision = next(
        row["decision_id"] for row in raw_rows(st, "f_map") if row["run_id"] == run["run_id"]
    )
    path = Path(st._blob_path(run["raw_output_ref"]))
    st.close()
    path.unlink()
    return decision


def readme_output(command):
    """The output README's quickstart shows under ``$ decisiondb COMMAND``."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index(f"$ decisiondb {command} --db /tmp/demo") + 1
    block = []
    for line in lines[start:]:
        if line.startswith(("```", "$ ")):
            break
        block.append(line)
    return "\n".join(block).rstrip("\n") + "\n"


class TestParsing:
    def test_no_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 1

    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["conjure"])
        assert excinfo.value.code == 1

    def test_replay_needs_a_subject(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["replay", "--db", str(tmp_path / "db")])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "subject",
        [
            ["--experiment", "nonexistent", "--decision", "dec_" + "ab" * 8],
            ["--decision", "dec_" + "ab" * 8, "--plan", "plan_" + "cd" * 8],
        ],
        ids=["experiment-and-decision", "decision-and-plan"],
    )
    def test_replay_refuses_mixed_subjects(self, demo_db, capsys, subject):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["replay", "--db", str(demo_db), *subject])
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: decisiondb replay ")
        assert "not allowed with" in err

    def test_parser_is_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_missing_db_exits_one(self, monkeypatch):
        monkeypatch.delenv(cli.ENV_DB, raising=False)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["inspect"])
        assert excinfo.value.code == 1

    def test_missing_db_refused_with_the_commands_usage(self, monkeypatch, capsys):
        monkeypatch.delenv(cli.ENV_DB, raising=False)
        with pytest.raises(SystemExit):
            cli.main(["inspect"])
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: decisiondb inspect ")
        assert err[-1] == f"decisiondb inspect: error: no store given: pass --db or set {cli.ENV_DB}"

    def test_env_fallback_supplies_db(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv(cli.ENV_DB, str(tmp_path / "db"))
        assert cli.main(["init"]) == 0
        assert "store ready" in capsys.readouterr().out


class TestInitInspect:
    def test_init_creates_empty_store(self, tmp_path, capsys):
        code, payload = run_json(capsys, ["init", "--db", str(tmp_path / "db")])
        assert code == 0
        assert payload["tables"] == {
            "snapshots": 0,
            "representations": 0,
            "engine_runs": 0,
            "decisions": 0,
            "f_map": 0,
        }
        assert payload["blobs"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["inspect"],
            ["map", "--plan", "plan_" + "cd" * 8, "--experiment", "demo"],
            ["sweep", "report", "--plan", "plan_" + "cd" * 8, "--experiment", "demo"],
            ["replay", "--experiment", "demo"],
            ["demo", "replay"],
        ],
        ids=["inspect", "map", "sweep-report", "replay", "demo-replay"],
    )
    def test_read_commands_refuse_a_missing_store(self, tmp_path, capsys, argv):
        db = tmp_path / "typo"
        assert cli.main([*argv, "--db", str(db)]) == 1
        assert capsys.readouterr().err.startswith("error: no store at")
        assert not db.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["inspect"],
            ["map", "--plan", "plan_" + "cd" * 8, "--experiment", "demo"],
            ["sweep", "report", "--plan", "plan_" + "cd" * 8, "--experiment", "demo"],
            ["replay", "--experiment", "demo"],
            ["demo", "replay"],
        ],
        ids=["inspect", "map", "sweep-report", "replay", "demo-replay"],
    )
    def test_read_commands_refuse_a_store_without_tables(self, tmp_path, capsys, argv):
        # A write command would create the layout in this file; a read
        # command must leave it as it found it.
        db = tmp_path / "db"
        db.mkdir()
        (db / "store.sqlite").write_bytes(b"")
        assert cli.main([*argv, "--db", str(db)]) == 1
        assert capsys.readouterr().err == "error: existing database has no meta table\n"
        assert [p.name for p in db.iterdir()] == ["store.sqlite"]
        assert (db / "store.sqlite").read_bytes() == b""

    @pytest.mark.parametrize("argv", [["init"], ["demo", "sweep"]], ids=["init", "demo-sweep"])
    def test_a_db_path_under_a_regular_file_exits_one(self, tmp_path, capsys, argv):
        afile = tmp_path / "afile"
        afile.write_bytes(b"not a directory")
        db = afile / "sub"
        assert cli.main([*argv, "--db", str(db)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            f"error: cannot open store at {re.escape(str(db))}: .*Not a directory.*\n",
            captured.err,
        )
        assert afile.read_bytes() == b"not a directory"

    def test_write_command_initialises_a_store_without_tables(self, tmp_path, capsys):
        db = tmp_path / "db"
        db.mkdir()
        (db / "store.sqlite").write_bytes(b"")
        code, payload = run_json(capsys, ["init", "--db", str(db)])
        assert code == 0
        assert payload["tables"] == dict.fromkeys(TABLES, 0)

    def test_locked_store_reported_as_locked(self, tmp_path, capsys):
        db = tmp_path / "db"
        assert cli.main(["init", "--db", str(db)]) == 0
        capsys.readouterr()
        holder = sqlite3.connect(db / "store.sqlite", isolation_level=None)
        holder.execute("BEGIN EXCLUSIVE")
        try:
            assert cli.main(["inspect", "--db", str(db)]) == 1
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert capsys.readouterr().err == (
            f"error: store at {db} is locked by another connection\n"
        )

    def test_read_commands_run_while_a_writer_holds_the_store(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        holder = sqlite3.connect(db / "store.sqlite", isolation_level=None)
        holder.execute("BEGIN IMMEDIATE")
        try:
            assert cli.main(["inspect", "--db", str(db), "--json"]) == 0
            assert cli.main(["replay", "--db", str(db), "--experiment", "demo"]) == 0
        finally:
            holder.execute("ROLLBACK")
            holder.close()
        assert capsys.readouterr().err == ""

    def test_inspect_json_is_canonical(self, tmp_path, capsys):
        db = str(tmp_path / "db")
        assert cli.main(["init", "--db", db]) == 0
        capsys.readouterr()
        assert cli.main(["inspect", "--db", db, "--json"]) == 0
        out = capsys.readouterr().out
        payload = canon.canonical_decode(out.strip().encode("utf-8"))
        assert canon.canonical_encode(payload) == out.strip().encode("utf-8")


class TestDemo:
    def test_counts_after_demo(self, demo_db, capsys):
        code, payload = run_json(capsys, ["inspect", "--db", str(demo_db)])
        assert code == 0
        assert payload["tables"] == {
            "snapshots": 1,
            "representations": 3,
            "engine_runs": 3,
            "decisions": 2,
            "f_map": 4,
        }
        assert payload["blobs"] == 10

    def test_generate_is_idempotent(self, demo_db, capsys):
        first = demo_plan_ids(capsys, demo_db)
        second = demo_plan_ids(capsys, demo_db)
        assert first == second

    def test_sweep_report_shows_boundary_only_on_second_axis(self, demo_db, capsys):
        plan_ids = demo_plan_ids(capsys, demo_db)
        assert cli.main(
            ["sweep", "report", "--db", str(demo_db), "--plan", plan_ids[0], "--experiment", "demo"]
        ) == 0
        neighbor = capsys.readouterr().out
        assert "no boundary along neighbor_weight" in neighbor
        assert cli.main(
            ["sweep", "report", "--db", str(demo_db), "--plan", plan_ids[1], "--experiment", "demo"]
        ) == 0
        second_order = capsys.readouterr().out
        assert "boundary intervals along second_order_weight: (0.25, 0.5)" in second_order
        assert "A = dec_" in second_order
        assert "B = dec_" in second_order

    def test_report_rows_carry_route_sizes(self, demo_db, capsys):
        plan_ids = demo_plan_ids(capsys, demo_db)
        code, payload = run_json(
            capsys,
            ["sweep", "report", "--db", str(demo_db), "--plan", plan_ids[0], "--experiment", "demo"],
        )
        assert code == 0
        assert len(payload["points"]) == 2
        for point in payload["points"]:
            assert point["route_nodes"] > 1

    def test_map_lists_grid_points(self, demo_db, capsys):
        plan_ids = demo_plan_ids(capsys, demo_db)
        code, payload = run_json(
            capsys, ["map", "--db", str(demo_db), "--plan", plan_ids[1], "--experiment", "demo"]
        )
        assert code == 0
        assert len(payload["points"]) == 2
        decisions = {point["decision_id"] for point in payload["points"]}
        assert len(decisions) == 2

    def test_map_text_lists_points_and_legend(self, demo_db, capsys):
        plan_id = demo_plan_ids(capsys, demo_db)[1]
        _, payload = run_json(
            capsys, ["map", "--db", str(demo_db), "--plan", plan_id, "--experiment", "demo"]
        )
        assert cli.main(
            ["map", "--db", str(demo_db), "--plan", plan_id, "--experiment", "demo"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"plan {plan_id}: 2 of 2 points evaluated"
        assert lines[1].split() == ["params", "decision", "run"]
        points = payload["points"]
        for line, point, letter in zip(lines[3:5], points, "AB"):
            assert line.split() == [
                "neighbor_weight=0.5,",
                f"second_order_weight={point['params']['second_order_weight']}",
                letter,
                point["run_id"],
            ]
        assert lines[5:] == [f"{letter} = {point['decision_id']}" for letter, point in zip("AB", points)]

    def test_map_missing_plan_exits_one(self, demo_db, capsys):
        code = cli.main(
            ["map", "--db", str(demo_db), "--plan", "plan_" + "f" * 16, "--experiment", "demo"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["map"], ["sweep", "report"]])
    def test_non_plan_blob_under_plan_prefix_exits_one(self, demo_db, capsys, command):
        code, payload = run_json(capsys, ["demo", "generate", "--db", str(demo_db)])
        assert code == 0
        # The policy spec blob is stored, but it is not a plan payload.
        plan_id = "plan_" + payload["policy_id"].split("_", 1)[1]
        code = cli.main(
            command + ["--db", str(demo_db), "--plan", plan_id, "--experiment", "demo"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'snapshot_id'" in err

    @pytest.mark.parametrize(
        "damage, message", [("corrupt", "re-hashes to"), ("delete", "is not stored")]
    )
    def test_report_refuses_a_damaged_raw_output(
        self, demo_db, tmp_path, capsys, damage, message
    ):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        st = open_store(db)
        run = raw_rows(st, "engine_runs")[0]
        plan_id = next(
            row["plan_id"] for row in raw_rows(st, "f_map") if row["run_id"] == run["run_id"]
        )
        path = Path(st._blob_path(run["raw_output_ref"]))
        st.close()
        if damage == "corrupt":
            data = path.read_bytes()
            at = data.index(b'"total_cost":"') + len(b'"total_cost":"')
            digit = b"1" if data[at:at + 1] != b"1" else b"2"
            path.write_bytes(data[:at] + digit + data[at + 1:])
        else:
            path.unlink()
        code = cli.main(
            ["sweep", "report", "--db", str(db), "--plan", plan_id, "--experiment", "demo"]
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: blob ") and message in err

    def test_sweep_writes_deleted_blobs_again(self, demo_db, tmp_path):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        with open_store(db) as st:
            intact = {table: raw_rows(st, table) for table in TABLES}
            blobs = list(st.iter_blob_hashes())
            refs = [
                raw_rows(st, "engine_runs")[0]["raw_output_ref"],
                raw_rows(st, "representations")[0]["encoded_artifact_ref"],
            ]
            paths = [Path(st._blob_path(ref)) for ref in refs]
        for path in paths:
            path.unlink()
        assert cli.main(["demo", "sweep", "--db", str(db)]) == 0
        with open_store(db) as st:
            assert {table: raw_rows(st, table) for table in TABLES} == intact
            assert list(st.iter_blob_hashes()) == blobs
        assert cli.main(["demo", "replay", "--deep", "--db", str(db)]) == 0


class TestReplayCommand:
    def test_clean_replay_exits_zero(self, demo_db, capsys):
        assert cli.main(["demo", "replay", "--db", str(demo_db)]) == 0
        out = capsys.readouterr().out
        assert "4 verified, 4 matched, 0 mismatched, 0 broken" in out
        assert "store unchanged" in out

    def test_deep_replay_exits_zero(self, demo_db, capsys):
        assert cli.main(["demo", "replay", "--db", str(demo_db), "--deep"]) == 0

    def test_replay_json_payload(self, demo_db, capsys):
        code, payload = run_json(capsys, ["demo", "replay", "--db", str(demo_db)])
        assert code == 0
        assert payload["ok"] is True
        assert payload["verified"] == 4
        assert payload["store_unchanged"] is True

    def test_replay_names_the_plan_it_found_no_entries_for(self, demo_db, capsys):
        plan = "plan_0123456789abcdef"
        argv = ["replay", "--experiment", "demo", "--plan", plan, "--db", str(demo_db)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: experiment 'demo' has no map entries for plan {plan}\n"
        )

    def test_replay_single_decision(self, demo_db, capsys):
        plan_ids = demo_plan_ids(capsys, demo_db)
        _, payload = run_json(
            capsys, ["map", "--db", str(demo_db), "--plan", plan_ids[0], "--experiment", "demo"]
        )
        decision = payload["points"][0]["decision_id"]
        code = cli.main(["replay", "--db", str(demo_db), "--decision", decision])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 verified, 3 matched, 0 mismatched, 0 broken" in out
        assert "store unchanged" in out

    def test_corrupted_blob_exits_two(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        st = open_store(db)
        ref = raw_rows(st, "engine_runs")[0]["raw_output_ref"]
        path = Path(st._blob_path(ref))
        st.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        code = cli.main(["demo", "replay", "--db", str(db)])
        assert code == 2
        out = capsys.readouterr().out
        assert "NO" in out
        assert "1 mismatched" in out

    @pytest.mark.parametrize("subject", ["--decision", "--plan"])
    def test_identifier_with_a_trailing_newline_exits_one(self, demo_db, capsys, subject):
        st = open_store(demo_db, create=False)
        row = raw_rows(st, "f_map")[0]
        st.close()
        ident = row["decision_id" if subject == "--decision" else "plan_id"] + "\n"
        argv = ["replay", "--db", str(demo_db), subject, ident]
        if subject == "--plan":
            argv += ["--experiment", "demo"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: malformed identifier: {ident!r}\n"

    def test_missing_blob_exits_two(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        delete_raw_output(db)
        code = cli.main(["demo", "replay", "--db", str(db)])
        assert code == 2
        assert "broken chain" in capsys.readouterr().out

    def test_decision_with_broken_chain_exits_two(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        decision = delete_raw_output(db)
        code = cli.main(["replay", "--db", str(db), "--decision", decision])
        assert code == 2
        out = capsys.readouterr().out
        assert "broken chain" in out
        assert "1 broken" in out

    def test_corrupt_graph_is_flagged_on_every_deep_entry(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        st = open_store(db)
        (graph,) = json.loads(raw_rows(st, "snapshots")[0]["artifact_manifest"])
        path = Path(st._blob_path(graph["artifact_ref"]))
        st.close()
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 1
        path.write_bytes(bytes(data))
        code, payload = run_json(
            capsys, ["replay", "--deep", "--experiment", "demo", "--db", str(db)]
        )
        assert code == 2
        assert payload["verified"] == 4
        for report in payload["reports"]:
            flagged = [c["field"] for c in report["checks"] if not c["match"]]
            assert flagged == ["artifact:graph"]

    def test_missing_policy_is_a_broken_chain_on_every_entry(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        st = open_store(db)
        policy_ref = raw_rows(st, "decisions")[0]["policy_id"].removeprefix("pol_")
        Path(st._blob_path(policy_ref)).unlink()
        st.close()
        assert cli.main(["replay", "--experiment", "demo", "--db", str(db)]) == 2
        broken = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("broken chain ")
        ]
        assert len(broken) == 4
        assert all(line.endswith(f": policy blob {policy_ref} is missing") for line in broken)

    def test_deep_replay_reads_each_distinct_blob_once(self, demo_db, capsys, monkeypatch):
        refs = []
        read = Store.read_blob_unverified

        def counted(self, ref):
            refs.append(ref)
            return read(self, ref)

        monkeypatch.setattr(Store, "read_blob_unverified", counted)
        assert cli.main(["replay", "--deep", "--experiment", "demo", "--db", str(demo_db)]) == 0
        assert len(refs) == len(set(refs)) == 8

    def test_missing_decision_row_is_a_broken_chain(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        raw = sqlite3.connect(db / "store.sqlite")
        decision = raw.execute("SELECT decision_id FROM f_map LIMIT 1").fetchone()[0]
        with raw:
            raw.execute("DELETE FROM decisions WHERE decision_id = ?", (decision,))
        raw.close()
        assert cli.main(["replay", "--db", str(db), "--experiment", "demo"]) == 2
        broken = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("broken chain ")
        ]
        assert broken
        assert all(line.endswith(f": decision row {decision} is missing") for line in broken)


class TestOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["init", "--db", "{fresh}"],
            ["inspect", "--db", "{db}"],
            ["freeze", "--db", "{db}", "--window", "a", "b", "graph={artifact}"],
            ["demo", "generate", "--db", "{db}"],
            ["demo", "sweep", "--db", "{db}"],
            ["sweep", "run", "--db", "{db}", "--plan", "{plan}", "--experiment", "demo"],
            ["sweep", "report", "--db", "{db}", "--plan", "{plan}", "--experiment", "demo"],
            ["map", "--db", "{db}", "--plan", "{plan}", "--experiment", "demo"],
            ["replay", "--db", "{db}", "--experiment", "demo"],
            ["replay", "--db", "{db}", "--decision", "{decision}"],
        ],
        ids=[
            "init",
            "inspect",
            "freeze",
            "demo-generate",
            "demo-sweep",
            "sweep-run",
            "sweep-report",
            "map",
            "replay-experiment",
            "replay-decision",
        ],
    )
    def test_json_is_canonical_and_versioned(self, demo_db, tmp_path, capsys, argv):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        artifact = tmp_path / "graph.json"
        artifact.write_bytes(canon.canonical_encode({"edges": []}))
        plan = demo_plan_ids(capsys, db)[1]
        _, mapped = run_json(
            capsys, ["map", "--db", str(db), "--plan", plan, "--experiment", "demo"]
        )
        fields = {
            "fresh": tmp_path / "fresh",
            "db": db,
            "artifact": artifact,
            "plan": plan,
            "decision": mapped["points"][1]["decision_id"],
        }
        assert cli.main([arg.format(**fields) for arg in argv] + ["--json"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert out.endswith(b"\n") and out.count(b"\n") == 1
        payload = canon.canonical_decode(out[:-1])
        assert canon.canonical_encode(payload) == out[:-1]
        assert payload["version"] == "1"

    def test_text_matches_readme_quickstart(self, tmp_path, capsys):
        db = str(tmp_path / "db")
        for command in (["demo", "sweep"], ["inspect"]):
            assert cli.main([*command, "--db", db]) == 0
            assert capsys.readouterr().out == readme_output(" ".join(command))


class TestSweepRun:
    def test_runs_generated_plan(self, tmp_path, capsys):
        db = str(tmp_path / "db")
        plan_ids = json_payload = None
        assert cli.main(["demo", "generate", "--db", db]) == 0
        capsys.readouterr()
        code, json_payload = run_json(capsys, ["demo", "generate", "--db", db])
        plan_ids = json_payload["plan_ids"]
        assert code == 0
        code = cli.main(["sweep", "run", "--db", db, "--plan", plan_ids[0], "--experiment", "demo"])
        assert code == 0
        assert "executed 2 grid points" in capsys.readouterr().out

    def test_unregistered_factory_exits_one(self, tmp_path, capsys):
        st = open_store(tmp_path / "db")
        snap, pol_id = setup_world(st)
        plan = make_plan(st, snap, pol_id)
        st.close()
        code = cli.main(
            [
                "sweep",
                "run",
                "--db",
                str(tmp_path / "db"),
                "--plan",
                str(plan.plan_id),
                "--experiment",
                "exp",
            ]
        )
        assert code == 1
        assert "no registered factory" in capsys.readouterr().err

    def test_unregistered_engine_exits_one(self, tmp_path, capsys):
        db = tmp_path / "db"
        with open_store(db) as st:
            snap, pol_id = setup_world(st)
            plan = sweep.plan_sweep(
                st,
                snapshot_id=snap.snapshot_id,
                factory_name=routing.FACTORY_NAME,
                factory_version=routing.FACTORY_VERSION,
                axes=[sweep.Axis(param="neighbor_weight", values=("0.5",))],
                fixed_params={"second_order_weight": "0.25"},
                engine_name="step-compare",
                engine_version="1",
                query={"q": 1},
                policy_id=pol_id,
                experiment_id="exp",
            )
        code = cli.main(
            ["sweep", "run", "--db", str(db), "--plan", str(plan.plan_id), "--experiment", "exp"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: no registered engine step-compare/1\n"


class TestFileWorkflow:
    """freeze + sweep run driven entirely by payload files."""

    @pytest.fixture()
    def world_files(self, tmp_path):
        graph = routing.generate_demo_graph(5, 36)
        policy_payload = EquivalencePolicy(hash_source=("route_nodes",)).payload()
        graph_file = tmp_path / "graph.json"
        graph_file.write_bytes(canon.canonical_encode(graph.to_payload()))
        policy_file = tmp_path / "policy.json"
        policy_file.write_bytes(canon.canonical_encode(policy_payload))
        pol_id = "pol_" + canon.payload_hash(canon.canonical_encode(policy_payload))
        return tmp_path, graph_file, policy_file, pol_id

    def freeze(self, db, graph_file, capsys):
        code = cli.main(
            [
                "freeze",
                "--db",
                db,
                "--window",
                "2025-06-02T00:00:00Z",
                "2025-06-09T00:00:00Z",
                f"graph={graph_file}",
                "--json",
            ]
        )
        assert code == 0
        return json.loads(capsys.readouterr().out)["snapshot_id"]

    def plan_file(self, tmp_path, snap_id, pol_id):
        # Deliberately pretty-printed: ingestion must not depend on the
        # file bytes being in canonical form.
        payload = {
            "snapshot_id": snap_id,
            "factory_name": routing.FACTORY_NAME,
            "factory_version": routing.FACTORY_VERSION,
            "axes": [{"param": "neighbor_weight", "values": ["0.5", "1.5"]}],
            "fixed_params": {"second_order_weight": "0.25"},
            "engine_name": routing.ENGINE_NAME,
            "engine_version": routing.ENGINE_VERSION,
            "query": {"start": 0, "end": 35},
            "policy_id": pol_id,
            "version": "1",
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload, indent=2))
        return path

    def test_freeze_persists_snapshot(self, tmp_path, capsys, world_files):
        root, graph_file, _, _ = world_files
        db = str(root / "db")
        snap_id = self.freeze(db, graph_file, capsys)
        assert snap_id.startswith("snap_")
        code, counts = run_json(capsys, ["inspect", "--db", db])
        assert code == 0
        assert counts["tables"]["snapshots"] == 1

    def test_freeze_rejects_malformed_artifact_argument(self, tmp_path, capsys, world_files):
        root, graph_file, _, _ = world_files
        code = cli.main(
            ["freeze", "--db", str(root / "db"), "--window", "a", "b", str(graph_file)]
        )
        assert code == 1
        assert "NAME=FILE" in capsys.readouterr().err

    def test_plan_and_policy_files_execute(self, tmp_path, capsys, world_files):
        root, graph_file, policy_file, pol_id = world_files
        db = str(root / "db")
        snap_id = self.freeze(db, graph_file, capsys)
        plan_path = self.plan_file(root, snap_id, pol_id)
        code = cli.main(
            [
                "sweep",
                "run",
                "--db",
                db,
                "--plan",
                str(plan_path),
                "--policy",
                str(policy_file),
                "--experiment",
                "filecheck",
            ]
        )
        assert code == 0
        assert "executed 2 grid points" in capsys.readouterr().out
        code = cli.main(["replay", "--db", db, "--experiment", "filecheck"])
        assert code == 0
        assert "2 verified, 2 matched" in capsys.readouterr().out

    def test_plan_file_without_policy_blob_exits_one(self, tmp_path, capsys, world_files):
        root, graph_file, _, pol_id = world_files
        db = str(root / "db")
        snap_id = self.freeze(db, graph_file, capsys)
        plan_path = self.plan_file(root, snap_id, pol_id)
        code = cli.main(
            ["sweep", "run", "--db", db, "--plan", str(plan_path), "--experiment", "x"]
        )
        assert code == 1
        assert "missing policy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mangle, named",
        [
            (lambda payload: [payload], "not a mapping"),
            (lambda payload: {**payload, "axes": [1]}, "plan axis 1"),
            (lambda payload: {k: v for k, v in payload.items() if k != "engine_name"}, "'engine_name'"),
            (
                lambda payload: {**payload, "axes": [{"param": "neighbor_weight", "values": ["NaN"]}]},
                "'NaN' is not a number",
            ),
        ],
        ids=["not-a-mapping", "axis-not-a-mapping", "missing-field", "nan-axis-value"],
    )
    def test_malformed_plan_file_exits_one(self, tmp_path, capsys, world_files, mangle, named):
        root, graph_file, _, pol_id = world_files
        db = str(root / "db")
        snap_id = self.freeze(db, graph_file, capsys)
        plan_path = self.plan_file(root, snap_id, pol_id)
        plan_path.write_text(json.dumps(mangle(json.loads(plan_path.read_text()))))
        code = cli.main(
            ["sweep", "run", "--db", db, "--plan", str(plan_path), "--experiment", "x"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    def test_missing_plan_file_named_plainly(self, tmp_path, capsys, world_files):
        root, graph_file, _, _ = world_files
        db = str(root / "db")
        self.freeze(db, graph_file, capsys)
        code = cli.main(
            ["sweep", "run", "--db", db, "--plan", str(root / "nope.json"), "--experiment", "x"]
        )
        assert code == 1
        assert "plan file not found" in capsys.readouterr().err
