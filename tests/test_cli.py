"""Command-line interface tests.

The demo store is built once per module; read-only commands share it
and corruption tests work on throwaway copies.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import sqlite3
from pathlib import Path

import pytest

from decisiondb import canon, cli, routing, sweep
from decisiondb.errors import SweepExecutionError
from decisiondb.policy import EquivalencePolicy
from decisiondb.store import TABLES, Store, open_store
from test_store import FRESH_SCHEMA, raw_rows
from toy_arena import StepEngine, StepFactory, make_plan, run_plan, setup_world


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


def blob_into_directory(db, ref):
    """Put a directory where a blob's file was, so reading it fails."""
    with open_store(db) as st:
        path = Path(st._blob_path(ref))
    path.unlink()
    path.mkdir()


def edit_first_row(db, table, column, value):
    """Set one column of a table's first row, past the store's checks; return
    the row's key as an error names it: its key columns' stored text, joined by "/"."""
    conn = sqlite3.connect(db / "store.sqlite")
    with conn:
        first = f"(SELECT MIN(rowid) FROM {table})"
        conn.execute(f"UPDATE {table} SET {column} = ? WHERE rowid = {first}", (value,))
        info = sorted(conn.execute(f"PRAGMA table_info({table})"), key=lambda c: c[5])
        keys = ", ".join(c[1] for c in info if c[5])
        row = conn.execute(f"SELECT {keys} FROM {table} WHERE rowid = {first}").fetchone()
        key = "/".join(map(str, row))
    conn.close()
    return key


# A stored cell that does not decode into its field (a bytes value is
# stored as a BLOB, where every column holds text), as (table, column,
# value, replay flags that read the row).
UNDECODABLE = {
    "run-query": ("engine_runs", "query", "{bad", []),
    "run-repr-id": ("engine_runs", "repr_id", "garbage", []),
    "decision-policy-id": ("decisions", "policy_id", "garbage", []),
    "snapshot-manifest": ("snapshots", "artifact_manifest", "[1]", ["--deep"]),
    "representation-params": ("representations", "params", "[1]", ["--deep"]),
    "run-query-blob": ("engine_runs", "query", b"{}", []),
    "decision-payload-hash-blob": ("decisions", "payload_hash", b"\x00", []),
    "snapshot-manifest-blob": ("snapshots", "artifact_manifest", b"{}", ["--deep"]),
    "representation-params-blob": ("representations", "params", b"{}", ["--deep"]),
    "representation-factory-name-blob": ("representations", "factory_name", b"A", ["--deep"]),
    "run-raw-output-ref": ("engine_runs", "raw_output_ref", "zz", []),
    "representation-artifact-ref": (
        "representations", "encoded_artifact_ref", "nothex", ["--deep"]
    ),
    "snapshot-manifest-artifact-ref": (
        "snapshots", "artifact_manifest", '[{"artifact_ref":"zz","name":"graph"}]', ["--deep"]
    ),
    "fmap-run-id": ("f_map", "run_id", "garbage", []),
}


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

    def test_report_takes_an_axis_and_refuses_to_pick_one_of_two(self, tmp_path, capsys):
        db = tmp_path / "db"
        with open_store(db) as st:
            snap, pol_id = setup_world(st)
            x = sweep.Axis(param="x", values=("1", "9"))
            plans = [
                make_plan(st, snap, pol_id, axes=[x, sweep.Axis(param="gain", values=gains)])
                for gains in (("1",), ("1", "2"))
            ]
            for plan in plans:
                run_plan(st, plan)
        argv = ["sweep", "report", "--db", str(db), "--experiment", "exp", "--plan"]
        code, payload = run_json(capsys, [*argv, plans[0].plan_id, "--axis", "x"])
        assert code == 0
        assert payload["axis"] == "x"
        assert payload["boundaries"] == [{"between": ["1", "9"]}]
        assert cli.main([*argv, plans[1].plan_id]) == 1
        assert capsys.readouterr().err == "error: plan sweeps more than one axis; pick one with --axis\n"

    def test_report_on_a_plan_of_one_point_picks_its_one_axis(self, tmp_path, capsys):
        db = tmp_path / "db"
        with open_store(db) as st:
            plan = make_plan(st, *setup_world(st), xs=("7",))
            run_plan(st, plan)
        argv = ["sweep", "report", "--db", str(db), "--experiment", "exp", "--plan", plan.plan_id]
        code, payload = run_json(capsys, argv)
        assert code == 0
        assert payload["axis"] == "x"
        assert [s["value_range"] for s in payload["segments"]] == [["7", "7"]]
        assert cli.main(argv) == 0
        assert "no boundary along x\n" in capsys.readouterr().out

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

    def test_report_reads_route_sizes_in_statements_that_do_not_grow_with_the_grid(
        self, tmp_path, capsys, monkeypatch
    ):
        statements = []
        execute = Store._execute
        monkeypatch.setattr(
            Store,
            "_execute",
            lambda self, sql, params=(): statements.append(sql) or execute(self, sql, params),
        )
        counts = []
        for size in (4, 16):
            db = tmp_path / str(size)
            with open_store(db) as st:
                plan = make_plan(st, *setup_world(st), xs=[str(x) for x in range(size)])
                run_plan(st, plan)
            statements.clear()
            code, payload = run_json(
                capsys,
                ["sweep", "report", "--db", str(db), "--plan", plan.plan_id, "--experiment", "exp"],
            )
            assert code == 0
            # The toy engine's outputs hold no route.
            assert [point["route_nodes"] for point in payload["points"]] == [None] * size
            counts.append(len(statements))
        assert counts[0] == counts[1]

    def test_report_shows_no_route_size_for_a_deleted_run(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        plan = demo_plan_ids(capsys, db)[1]
        with open_store(db) as st:
            run_id = next(row["run_id"] for row in raw_rows(st, "f_map") if row["plan_id"] == plan)
        conn = sqlite3.connect(db / "store.sqlite")
        conn.execute("PRAGMA foreign_keys = OFF")
        conn.execute("DELETE FROM engine_runs WHERE run_id = ?", (run_id,))
        conn.commit()
        conn.close()
        code, payload = run_json(
            capsys, ["sweep", "report", "--db", str(db), "--plan", plan, "--experiment", "demo"]
        )
        assert code == 0
        nodes = {point["route_nodes"] is None for point in payload["points"]}
        assert nodes == {True, False}

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

    @pytest.mark.parametrize(
        "command, blob",
        [
            ("sweep report", "raw-output"),
            ("sweep run", "raw-output"),
            ("sweep report", "plan"),
            ("map", "plan"),
            ("sweep run", "plan"),
        ],
    )
    def test_unreadable_blob_exits_one(self, demo_db, tmp_path, capsys, command, blob):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        with open_store(db) as st:
            run = raw_rows(st, "engine_runs")[0]
            plan_id = next(
                row["plan_id"] for row in raw_rows(st, "f_map") if row["run_id"] == run["run_id"]
            )
        ref = run["raw_output_ref"] if blob == "raw-output" else plan_id.removeprefix("plan_")
        blob_into_directory(db, ref)
        argv = command.split() + ["--db", str(db), "--plan", plan_id, "--experiment", "demo"]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: blob {ref} cannot be read: [Errno 21] Is a directory: ")
        assert err.count("\n") == 1

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

    def test_unreadable_blob_is_a_broken_chain(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        with open_store(db) as st:
            run = raw_rows(st, "engine_runs")[0]
            backed = [row for row in raw_rows(st, "f_map") if row["run_id"] == run["run_id"]]
        ref = run["raw_output_ref"]
        blob_into_directory(db, ref)
        assert cli.main(["replay", "--experiment", "demo", "--db", str(db)]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        broken = [line for line in out.splitlines() if line.startswith("broken chain")]
        assert len(broken) == len(backed) > 0
        for line in broken:
            assert f": raw output blob {ref} cannot be read: [Errno 21] Is a directory: " in line
        assert f"{4 - len(backed)} verified" in out

    def test_deeply_nested_policy_is_a_finding(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        with open_store(db) as st:
            pol_ref = raw_rows(st, "decisions")[0]["policy_id"].removeprefix("pol_")
            Path(st._blob_path(pol_ref)).write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["replay", "--experiment", "demo", "--db", str(db)]) == 2
        out, err = capsys.readouterr()
        assert err == ""
        assert "4 verified, 0 matched, 4 mismatched, 0 broken" in out

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

    @pytest.mark.parametrize("table, column, value, flags", UNDECODABLE.values(), ids=UNDECODABLE)
    def test_a_row_that_does_not_decode_is_a_broken_chain(
        self, demo_db, tmp_path, capsys, table, column, value, flags
    ):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        key = edit_first_row(db, table, column, value)
        code, payload = run_json(capsys, ["replay", *flags, "--experiment", "demo", "--db", str(db)])
        assert code == 2
        errors = [error["error"] for error in payload["errors"]]
        assert errors and all(e.startswith(f"{table} row {key} column {column}: ") for e in errors)
        # Every other entry is still verified.
        assert payload["verified"] == payload["matched"] == 4 - len(errors)

    def test_demo_sweep_over_an_undecodable_manifest_exits_one(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        key = edit_first_row(db, "snapshots", "artifact_manifest", "[1]")
        assert cli.main(["demo", "sweep", "--db", str(db)]) == 1
        assert capsys.readouterr().err == (
            f"error: snapshots row {key} column artifact_manifest: "
            "not a list of {name, artifact_ref} objects of strings\n"
        )


def store_files(db):
    """The store file's hash and each blob file's path and size."""
    blobs = sorted((str(p.relative_to(db)), p.stat().st_size) for p in (db / "blobs").rglob("*"))
    return hashlib.sha256((db / "store.sqlite").read_bytes()).hexdigest(), blobs


@pytest.fixture(scope="session")
def toy_db(tmp_path_factory):
    """A toy store: two plans of experiment "exp", one failed run and one
    refine midpoint. Returns its path and the plan ids."""
    path = tmp_path_factory.mktemp("toystore") / "db"
    with open_store(path) as st:
        snap, pol_id = setup_world(st)
        first = make_plan(st, snap, pol_id)
        run_plan(st, first)
        sweep.refine_boundary(st, first, "x", ("3", "7"), StepEngine(), StepFactory(), max_evals=1)
        second = make_plan(st, snap, pol_id, xs=("2", "4", "6"), fixed={"gain": "2"})
        with pytest.raises(SweepExecutionError):
            run_plan(st, second, StepEngine(refuse={"4"}))
    return path, [first.plan_id, second.plan_id]


DATA_COLUMNS = [(table, info[1]) for table in TABLES for info in FRESH_SCHEMA[table]["table_xinfo"]]
# The kinds of value one damaged cell takes. SQLite stores a number bound
# to a TEXT column as its text, so only the bytes reach a reader as other
# than text.
CELL_VALUES = {"blob": b"{}", "integer": 7, "real": 1.5, "empty": "", "garbage": "garbage"}
# The column of a map entry that keys each table's row in its chain.
ENTRY_KEYS = {
    "snapshots": "snapshot_id",
    "representations": "repr_id",
    "engine_runs": "run_id",
    "decisions": "decision_id",
}


class TestCellCorruption:
    """One damaged cell at a time, in every column of every data table, of
    the row the first map entry's chain reads from that table.

    Every read command exits 0, 1 or 2 without a traceback and leaves the
    store's file and blobs as they were. Deep replay exits 2, names each
    entry whose chain reads the row and verifies every other entry, but
    for the stated exceptions:

    - ``created_at`` and ``exec_time_ms`` holding text: no check reads
      either (ROADMAP item 6);
    - ``f_map.experiment_id``: the entry leaves the audited experiment,
      which only a check of the grid's map rows can see (item 2c);
    - ``engine_runs.status``: its CHECK refuses every value kind.
    """

    @pytest.mark.parametrize(
        "table, column", DATA_COLUMNS, ids=[f"{table}.{column}" for table, column in DATA_COLUMNS]
    )
    def test_one_damaged_cell(self, toy_db, tmp_path, capsys, table, column):
        source, plan_ids = toy_db
        conn = sqlite3.connect(f"file:{source / 'store.sqlite'}?mode=ro", uri=True)
        conn.row_factory = sqlite3.Row
        entries = conn.execute("SELECT rowid, * FROM f_map ORDER BY rowid").fetchall()
        rowid = entries[0]["rowid"]
        if table != "f_map":
            key = ENTRY_KEYS[table]
            target = entries[0][key]
            (rowid,) = conn.execute(f"SELECT rowid FROM {table} WHERE {key} = ?", (target,)).fetchone()
            damaged = {f"{e['run_id']}/{e['decision_id']}" for e in entries if e[key] == target}
        conn.close()
        commands = [["inspect"], ["replay", "--experiment", "exp"]]
        for plan_id in plan_ids:
            commands.append(["map", "--plan", plan_id, "--experiment", "exp"])
            commands.append(["sweep", "report", "--plan", plan_id, "--experiment", "exp"])
        deep = ["replay", "--deep", "--json", "--experiment", "exp"]
        for kind, value in CELL_VALUES.items():
            case = f"{table}.{column} = {kind}"
            db = tmp_path / kind
            shutil.copytree(source, db)
            conn = sqlite3.connect(db / "store.sqlite")
            try:
                with conn:
                    conn.execute(f"UPDATE {table} SET {column} = ? WHERE rowid = ?", (value, rowid))
                if table == "f_map":
                    run_id, decision_id = conn.execute(
                        "SELECT run_id, decision_id FROM f_map WHERE rowid = ?", (rowid,)
                    ).fetchone()
                    damaged = {f"{run_id}/{decision_id}"}
            except sqlite3.IntegrityError:
                assert column == "status", case
                continue
            finally:
                conn.close()
            before = store_files(db)
            for argv in [*commands, deep]:
                code = cli.main([*argv, "--db", str(db)])
                out, err = capsys.readouterr()
                assert code in (0, 1, 2), (case, argv, err)
                assert store_files(db) == before, (case, argv)
            assert code != 1, (case, err)
            payload = json.loads(out)
            checked = (code, payload["verified"], payload["matched"])
            if column == "experiment_id":
                assert checked == (0, len(entries) - 1, len(entries) - 1), case
            elif column in ("created_at", "exec_time_ms") and not isinstance(value, bytes):
                assert checked == (0, len(entries), len(entries)), case
            else:
                named = {error["entry"] for error in payload["errors"]} | {
                    f"{report['entry']['run_id']}/{report['entry']['decision_id']}"
                    for report in payload["reports"]
                    if not report["ok"]
                }
                assert code == 2 and named == damaged, (case, payload["errors"])
                assert payload["matched"] == len(entries) - len(damaged), case
                assert payload["verified"] + len(payload["errors"]) == len(entries), case


class DriftedSurface(routing.CostSurfaceFactory):
    """The demo factory's (name, version), with every neighbor weight moved."""

    def encode(self, artifacts, params):
        return super().encode(artifacts, {**params, "neighbor_weight": "0.75"})


class DriftedRoute(routing.DijkstraEngine):
    """The demo engine's (name, version), answering each route backwards."""

    def evaluate(self, representation, query):
        raw = super().evaluate(representation, query)
        return {**raw, "route_nodes": raw["route_nodes"][::-1]}


class NodelessRoute(routing.DijkstraEngine):
    """The demo engine's (name, version), answering without a route."""

    def evaluate(self, representation, query):
        raw = super().evaluate(representation, query)
        return {key: value for key, value in raw.items() if key != "route_nodes"}


class TestReexecute:
    def test_fresh_demo_store_verifies_and_stays_byte_identical(self, demo_db, capsys):
        before = store_files(demo_db)
        code, payload = run_json(
            capsys, ["replay", "--reexecute", "--experiment", "demo", "--db", str(demo_db)]
        )
        assert code == 0
        assert payload["ok"] is True and payload["verified"] == payload["matched"] == 4
        for report in payload["reports"]:
            reexecuted = [c["field"] for c in report["checks"] if c["field"].startswith("reexec:")]
            assert len(reexecuted) == 3
        assert store_files(demo_db) == before

    @pytest.mark.parametrize(
        "registry, drifted, flagged",
        [
            ("FACTORIES", DriftedSurface(), ["reexec:encoded_artifact_ref"]),
            ("ENGINES", DriftedRoute(), ["reexec:raw_output_ref", "reexec:decision_id"]),
        ],
        ids=["factory", "engine"],
    )
    def test_drift_exits_two_and_only_reexecute_sees_it(
        self, demo_db, capsys, monkeypatch, registry, drifted, flagged
    ):
        key = (drifted.name, drifted.version)
        monkeypatch.setitem(getattr(routing, registry), key, drifted)
        for extra in ([], ["--deep"]):
            assert cli.main(["demo", "replay", "--db", str(demo_db), *extra]) == 0
        capsys.readouterr()
        code, payload = run_json(capsys, ["demo", "replay", "--reexecute", "--db", str(demo_db)])
        assert code == 2
        for report in payload["reports"]:
            assert [c["field"] for c in report["checks"] if not c["match"]] == flagged

    def test_unregistered_plugins_exit_two_without_a_traceback(self, demo_db, capsys, monkeypatch):
        monkeypatch.setattr(routing, "FACTORIES", {})
        monkeypatch.setattr(routing, "ENGINES", {})
        argv = ["replay", "--reexecute", "--experiment", "demo", "--db", str(demo_db)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "no registered factory stress-cost-surface/1" in captured.out
        assert "no registered engine dijkstra-shortest-path/1" in captured.out
        assert "4 verified, 0 matched, 4 mismatched, 0 broken" in captured.out

    def test_a_policy_that_does_not_decode_is_a_finding(self, demo_db, tmp_path, capsys):
        db = tmp_path / "db"
        shutil.copytree(demo_db, db)
        with open_store(db) as st:
            pol_ref = raw_rows(st, "decisions")[0]["policy_id"].removeprefix("pol_")
            Path(st._blob_path(pol_ref)).write_bytes(b"[]")
        code, payload = run_json(capsys, ["replay", "--reexecute", "--experiment", "demo", "--db", str(db)])
        assert code == 2
        for report in payload["reports"]:
            (check,) = [c for c in report["checks"] if c["field"] == "reexec:decision_id"]
            assert check["recomputed"] == f"policy {pol_ref} does not decode"

    def test_an_answer_the_policy_cannot_decide_is_a_finding(self, demo_db, capsys, monkeypatch):
        engine = NodelessRoute()
        monkeypatch.setitem(routing.ENGINES, (engine.name, engine.version), engine)
        code, payload = run_json(capsys, ["demo", "replay", "--reexecute", "--db", str(demo_db)])
        assert code == 2
        for report in payload["reports"]:
            (check,) = [c for c in report["checks"] if c["field"] == "reexec:decision_id"]
            assert check["recomputed"] == (
                "no decision: hash_source path 'route_nodes' does not resolve: missing 'route_nodes'"
            )


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
            ["replay", "--db", "{db}", "--decision", "{decision}", "--reexecute"],
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
            "replay-reexecute",
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

    def test_json_output_bytes_are_pinned(self, tmp_path, capsys):
        # sha256 of each command's --json output on a fresh demo store,
        # the second plan's for map and sweep report. The outputs hold no
        # path or time, so a changed digest is a changed printed byte.
        db = str(tmp_path / "db")
        assert cli.main(["demo", "sweep", "--db", db, "--json"]) == 0
        outputs = {"demo sweep": capsys.readouterr().out}
        plan = demo_plan_ids(capsys, db)[1]
        for name, argv in {
            "map": ["map", "--db", db, "--plan", plan, "--experiment", "demo"],
            "sweep report": ["sweep", "report", "--db", db, "--plan", plan, "--experiment", "demo"],
            "replay --deep": ["replay", "--deep", "--db", db, "--experiment", "demo"],
        }.items():
            assert cli.main(argv + ["--json"]) == 0
            outputs[name] = capsys.readouterr().out
        digests = {
            name: hashlib.sha256(out.encode("utf-8")).hexdigest() for name, out in outputs.items()
        }
        assert digests == {
            "demo sweep": "99292973767a54557b9103519ecc654ce1f22f22e15657beddbb6c006e16010f",
            "map": "ca10a36332b1c9449ac1e2d24c4c35282ec301c60907cbd83f607159851be389",
            "sweep report": "e77381d36f287828554d640c52e47ff8384cf85d93ef9919e741bedaac4f38a6",
            "replay --deep": "fa895c8caf81152fc38c941c9f0435ec6114ff1252d4ce8081fe6e2ea490a058",
        }


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

    @pytest.mark.parametrize("unreadable", [True, False], ids=["unreadable", "invalid-json"])
    def test_artifact_file_that_does_not_load_exits_one(self, tmp_path, capsys, unreadable):
        path = tmp_path / "graph.json"
        if unreadable:
            path.mkdir()
            message = f"error: cannot read {path}: [Errno 21] Is a directory: '{path}'\n"
        else:
            path.write_bytes(b"{")
            message = f"error: {path}: input is not valid JSON: "
        argv = ["freeze", "--db", str(tmp_path / "db"), "--window", "a", "b", f"graph={path}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["freeze", "sweep run"])
    def test_deeply_nested_file_exits_one(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        db = str(tmp_path / "db")
        if command == "freeze":
            path.write_text("[" * 100_000 + "]" * 100_000)
            argv = ["freeze", "--db", db, "--window", "a", "b", f"graph={path}"]
        else:
            path.write_text('{"a":' * 50_000 + "1" + "}" * 50_000)
            argv = ["sweep", "run", "--db", db, "--plan", str(path), "--experiment", "x"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: input nests too deeply: ")
        assert err.count("\n") == 1

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
            (lambda payload: {**payload, "engine_name": 1}, "plan field 'engine_name' is not a str"),
            (
                lambda payload: {**payload, "axes": [{"param": "neighbor_weight", "values": ["NaN"]}]},
                "'NaN' is not a number",
            ),
        ],
        ids=["not-a-mapping", "axis-not-a-mapping", "missing-field", "field-of-wrong-type",
             "nan-axis-value"],
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

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"axes": [{"param": "neighbor_weight", "values": [1, 3]}]}, "axis 'neighbor_weight'"),
            ({"fixed_params": {"second_order_weight": 2}}, "fixed parameter 'second_order_weight'"),
        ],
        ids=["number-axis-value", "number-fixed-param"],
    )
    def test_non_string_plan_value_exits_one(self, tmp_path, capsys, world_files, change, named):
        root, graph_file, policy_file, pol_id = world_files
        db = str(root / "db")
        snap_id = self.freeze(db, graph_file, capsys)
        plan_path = self.plan_file(root, snap_id, pol_id)
        plan_path.write_text(json.dumps({**json.loads(plan_path.read_text()), **change}))
        code = cli.main(
            ["sweep", "run", "--db", db, "--plan", str(plan_path), "--policy", str(policy_file),
             "--experiment", "x"]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        _, counts = run_json(capsys, ["inspect", "--db", db])
        assert counts["tables"]["representations"] == 0

    def test_missing_plan_file_named_plainly(self, tmp_path, capsys, world_files):
        root, graph_file, _, _ = world_files
        db = str(root / "db")
        self.freeze(db, graph_file, capsys)
        code = cli.main(
            ["sweep", "run", "--db", db, "--plan", str(root / "nope.json"), "--experiment", "x"]
        )
        assert code == 1
        assert "plan file not found" in capsys.readouterr().err
