"""Command-line interface.

Exit codes: 0 success, 1 usage or execution error, 2 verification
mismatch. Each command returns one payload; --json prints it as its
canonical encoding, the same payload the library APIs expose, and
otherwise the command's text renderer lays it out as tables.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

from . import canon, replay, routing, sweep
from .errors import CanonicalizationError, DecisionDBError, ValidationError
from .policy import EquivalencePolicy, persist_policy
from .store import DB_FILENAME, Store, open_store

ENV_DB = "DECISIONDB_PATH"


class Parser(argparse.ArgumentParser):
    """argparse with usage failures on exit code 1; 2 means mismatch."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def fmt_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


class DecisionLetters:
    """Stable short labels (A, B, ...) for decision identifiers."""

    def __init__(self):
        self.assigned: dict[str, str] = {}

    def label(self, decision_id: str) -> str:
        if decision_id not in self.assigned:
            index = len(self.assigned)
            self.assigned[decision_id] = (
                chr(ord("A") + index) if index < 26 else f"D{index}"
            )
        return self.assigned[decision_id]

    def legend(self) -> list[str]:
        return [f"{letter} = {key}" for key, letter in self.assigned.items()]


def route_length(store: Store, raw_ref: Optional[str]) -> Optional[int]:
    """Node count of a route output, read verified; None without a run or a route."""
    if raw_ref is None:
        return None
    payload = canon.canonical_decode(store.get_blob(raw_ref))
    if isinstance(payload, Mapping) and isinstance(payload.get("route_nodes"), list):
        return len(payload["route_nodes"])
    return None


def sweep_axis_name(plan: sweep.SweepPlan, requested: Optional[str]) -> str:
    if requested:
        return requested
    axes = [a.param for a in plan.axes if len(a.values) > 1] or [a.param for a in plan.axes]
    if len(axes) == 1:
        return axes[0]
    raise DecisionDBError(
        "plan sweeps more than one axis; pick one with --axis"
    )


def axis_report_payload(
    store: Store, dmap: sweep.DecisionMap, axis: str
) -> dict:
    payload = sweep.classify_axis(dmap, axis).to_payload()
    plan = dmap.plan
    payload["plan_id"] = plan.plan_id
    raw_refs = dict(store.read("raw_output_refs", (plan.experiment_id, plan.plan_id)))
    payload["points"] = [
        {
            "params": dict(point.params),
            "decision_id": point.decision_id,
            "route_nodes": route_length(store, raw_refs.get(point.run_id)),
        }
        for point in dmap.values()
    ]
    return payload


def render_axis_reports(reports: list[Mapping[str, Any]]) -> None:
    letters = DecisionLetters()
    for payload in reports:
        axis = payload["axis"]
        rows = []
        previous = None
        for point in payload["points"]:
            decision = point["decision_id"]
            if previous is None:
                boundary = ""
            else:
                boundary = "yes" if decision != previous else "no"
            nodes = point["route_nodes"]
            rows.append(
                [
                    axis,
                    point["params"][axis],
                    letters.label(decision),
                    "-" if nodes is None else str(nodes),
                    boundary,
                ]
            )
            previous = decision
        print(f"plan {payload['plan_id']}")
        print(fmt_table(["parameter", "value", "decision", "nodes", "boundary"], rows))
        crossings = payload["boundaries"]
        if crossings:
            described = ", ".join(f"({b['between'][0]}, {b['between'][1]})" for b in crossings)
            print(f"boundary intervals along {axis}: {described}")
        else:
            print(f"no boundary along {axis}")
        print()
    for line in letters.legend():
        print(line)


def render_replay(store: Store, payload: Mapping[str, Any]) -> None:
    for report in payload["reports"]:
        entry = report["entry"]
        print(f"decision {entry['decision_id']} (run {entry['run_id']})")
        rows = [
            [c["field"], c["persisted"], c["recomputed"], "yes" if c["match"] else "NO"]
            for c in report["checks"]
        ]
        print(fmt_table(["field", "persisted", "recomputed", "match"], rows))
        print()
    for error in payload["errors"]:
        print(f"broken chain {error['entry']}: {error['error']}")
    print(
        f"{payload['verified']} verified, {payload['matched']} matched, "
        f"{payload['mismatched']} mismatched, {len(payload['errors'])} broken"
    )
    print("store unchanged" if payload["store_unchanged"] else "STORE MODIFIED")


def load_payload_file(path: str) -> Any:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DecisionDBError(f"cannot read {path}: {exc}") from exc
    try:
        return canon.canonical_decode(data)
    except CanonicalizationError as exc:
        raise DecisionDBError(f"{path}: {exc}") from exc


def cmd_init(store: Store, args) -> dict:
    return {"location": str(store.location), **cmd_inspect(store, args)}


def cmd_inspect(store: Store, args) -> dict:
    return {"tables": store.table_counts(), "blobs": store.blob_count()}


def render_inspect(store: Store, payload: Mapping[str, Any]) -> None:
    rows = [[name, str(count)] for name, count in payload["tables"].items()]
    rows.append(["blobs", str(payload["blobs"])])
    print(fmt_table(["table", "rows"], rows))


def cmd_freeze(store: Store, args) -> dict:
    artifacts: dict[str, Any] = {}
    for item in args.artifacts:
        name, sep, path = item.partition("=")
        if not sep or not name or not path:
            raise DecisionDBError(f"artifact must be NAME=FILE, got {item!r}")
        artifacts[name] = load_payload_file(path)
    snap = sweep.freeze_snapshot(store, artifacts, tuple(args.window))
    return {
        "snapshot_id": snap.snapshot_id,
        "artifacts": sorted(artifacts),
        "time_window": list(snap.time_window),
    }


def cmd_demo_generate(store: Store, args) -> dict:
    plans = routing.persist_demo(store, args.seed)
    return {
        "experiment_id": routing.DEMO_EXPERIMENT,
        "seed": args.seed,
        "snapshot_id": plans[0].snapshot_id,
        "policy_id": plans[0].policy_id,
        "plan_ids": [plan.plan_id for plan in plans],
    }


def render_demo_generate(store: Store, payload: Mapping[str, Any]) -> None:
    print(f"experiment: {payload['experiment_id']} (seed {payload['seed']})")
    print(f"snapshot:   {payload['snapshot_id']}")
    print(f"policy:     {payload['policy_id']}")
    for plan_id in payload["plan_ids"]:
        print(f"plan:       {plan_id}")


def cmd_demo_sweep(store: Store, args) -> dict:
    reports = []
    for plan in routing.run_demo(store, args.seed):
        dmap = sweep.materialize_map(store, plan.plan_id, plan.experiment_id)
        reports.append(axis_report_payload(store, dmap, sweep_axis_name(plan, None)))
    return {"experiment_id": routing.DEMO_EXPERIMENT, "plans": reports}


def ingest_plan_file(store: Store, source: str, experiment_id: str) -> sweep.SweepPlan:
    """Persist a plan shipped as a payload file and return it, validated."""
    try:
        plan = sweep.SweepPlan.from_payload(load_payload_file(source), experiment_id)
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc
    return sweep.persist_plan(store, plan)


def cmd_sweep_run(store: Store, args) -> dict:
    if args.policy:
        persist_policy(
            store, EquivalencePolicy.from_payload(load_payload_file(args.policy))
        )
    if os.path.exists(args.plan):
        plan = ingest_plan_file(store, args.plan, args.experiment)
    elif os.sep in args.plan or args.plan.endswith(".json"):
        raise DecisionDBError(f"plan file not found: {args.plan}")
    else:
        plan = sweep.load_plan(store, args.plan, args.experiment)
    entries = routing.run_plan(store, plan)
    return {
        "plan_id": plan.plan_id,
        "experiment_id": plan.experiment_id,
        "entries": len(entries),
    }


def cmd_sweep_report(store: Store, args) -> dict:
    dmap = sweep.materialize_map(store, args.plan, args.experiment)
    return axis_report_payload(store, dmap, sweep_axis_name(dmap.plan, args.axis))


def cmd_map(store: Store, args) -> dict:
    dmap = sweep.materialize_map(store, args.plan, args.experiment)
    points = [
        {
            "params": dict(point.params),
            "repr_id": point.repr_id,
            "run_id": point.run_id,
            "decision_id": point.decision_id,
        }
        for point in dmap.values()
    ]
    return {
        "plan_id": dmap.plan.plan_id,
        "experiment_id": args.experiment,
        "points": points,
    }


def render_map(store: Store, payload: Mapping[str, Any]) -> None:
    plan = sweep.load_plan(store, payload["plan_id"], payload["experiment_id"])
    points = payload["points"]
    letters = DecisionLetters()
    rows = [
        [
            ", ".join(f"{k}={v}" for k, v in sorted(point["params"].items())),
            letters.label(point["decision_id"]),
            point["run_id"],
        ]
        for point in points
    ]
    print(f"plan {plan.plan_id}: {len(points)} of {len(plan.grid_points())} points evaluated")
    print(fmt_table(["params", "decision", "run"], rows))
    for line in letters.legend():
        print(line)


def cmd_replay(store: Store, args) -> dict:
    plugins = replay.Plugins(routing.FACTORIES, routing.ENGINES) if args.reexecute else None
    checks = {"deep": args.deep, "reexecute": plugins}
    if args.decision:
        return replay.replay_decision(store, args.decision, **checks).spooled_payload()
    return replay.replay_all(store, args.experiment, plan_id=args.plan, **checks).spooled_payload()


def arg(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


# One row per command; a row without a handler is a group of commands. A
# command that `reads` refuses a path with no store rather than create one.
# `fixed` presets namespace values; `exclusive` is one required group.
class Command(NamedTuple):
    path: str
    help: str
    handler: Optional[Callable] = None
    render: Optional[Callable] = None
    reads: bool = False
    args: tuple = ()
    fixed: Mapping[str, Any] = {}
    exclusive: tuple = ()


SEED = arg("--seed", type=int, default=routing.DEMO_SEED)
DEEP = arg("--deep", action="store_true", help="also verify upstream blobs and rows")
REEXECUTE = arg("--reexecute", action="store_true",
                help="also re-run each entry's registered factory and engine (slow: "
                     "one encode and one evaluate per distinct representation and run)")
PLAN = arg("--plan", required=True)
EXPERIMENT = arg("--experiment", required=True)

COMMANDS = (
    Command("init", "create or open a store", cmd_init,
            lambda store, payload: print(f"store ready at {payload['location']}")),
    Command("inspect", "table and blob counts", cmd_inspect, render_inspect, reads=True),
    Command("freeze", "persist a snapshot from artifact payload files", cmd_freeze,
            lambda store, payload: print(f"snapshot {payload['snapshot_id']} "
                                         f"({len(payload['artifacts'])} artifact(s))"),
            args=(arg("--window", nargs=2, metavar=("START", "END"), required=True,
                      help="time window the artifacts describe"),
                  arg("artifacts", nargs="+", metavar="NAME=FILE",
                      help="artifact payloads as JSON files"))),
    Command("demo", "built-in routing demonstration"),
    Command("demo generate", "freeze the demo snapshot, policy, and plans",
            cmd_demo_generate, render_demo_generate, args=(SEED,)),
    Command("demo sweep", "execute both demo sweeps and report the maps", cmd_demo_sweep,
            lambda store, payload: render_axis_reports(payload["plans"]), args=(SEED,)),
    Command("demo replay", "verify every demo decision by recomputation", cmd_replay,
            render_replay, reads=True, args=(DEEP, REEXECUTE),
            fixed={"decision": None, "experiment": routing.DEMO_EXPERIMENT, "plan": None}),
    Command("sweep", "run or report a persisted plan"),
    Command("sweep run", "execute a plan's grid", cmd_sweep_run,
            lambda store, payload: print(f"executed {payload['entries']} grid points "
                                         f"for plan {payload['plan_id']}"),
            args=(arg("--plan", required=True, help="plan identifier or plan payload file"),
                  arg("--experiment", required=True, help="experiment the map rows belong to"),
                  arg("--policy", help="policy payload file to persist before execution"))),
    Command("sweep report", "axis structure of a plan's map", cmd_sweep_report,
            lambda store, payload: render_axis_reports([payload]), reads=True,
            args=(PLAN, EXPERIMENT,
                  arg("--axis", help="swept parameter (default: the only multi-valued axis)"))),
    Command("map", "list a plan's evaluated grid points", cmd_map, render_map, reads=True,
            args=(PLAN, EXPERIMENT)),
    Command("replay", "recompute and compare decisions", cmd_replay, render_replay, reads=True,
            exclusive=(arg("--experiment", help="replay every map entry of this experiment"),
                       arg("--decision", help="replay the chains behind one decision id")),
            args=(arg("--plan", help="restrict --experiment to one plan"), DEEP, REEXECUTE)),
)


@functools.cache
def build_parser() -> Parser:
    """The whole command tree, built once per process; parsing does not change it."""
    parser = Parser(prog="decisiondb", description=__doc__)
    common = Parser(add_help=False)
    common.add_argument("--db", help=f"store directory (or set {ENV_DB})")
    common.add_argument(
        "--json", action="store_true", help="emit canonical JSON instead of tables"
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for row in COMMANDS:
        group, _, name = row.path.rpartition(" ")
        if row.handler is None:
            p = groups[group].add_parser(name, help=row.help)
            groups[row.path] = p.add_subparsers(dest=f"{name}_command", required=True)
            continue
        p = groups[group].add_parser(name, parents=[common], help=row.help)
        if row.exclusive:
            subject = p.add_mutually_exclusive_group(required=True)
            for flags, kwargs in row.exclusive:
                subject.add_argument(*flags, **kwargs)
        for flags, kwargs in row.args:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(
            handler=row.handler, render=row.render, reads=row.reads, parser=p, **row.fixed
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "decision", None) and getattr(args, "plan", None):
        args.parser.error("argument --plan: not allowed with argument --decision")
    db = args.db or os.environ.get(ENV_DB)
    if not db:
        args.parser.error(f"no store given: pass --db or set {ENV_DB}")
    try:
        if args.reads and not (Path(db) / DB_FILENAME).exists():
            raise DecisionDBError(f"no store at {db}")
        with open_store(db, create=not args.reads) as store:
            payload = args.handler(store, args)
            if args.json:
                payload = {**payload, "version": canon.SCHEMA_VERSION}
                canon.write_canonical(payload, sys.stdout)
                print()
            else:
                args.render(store, payload)
    except DecisionDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if payload.get("ok", True) else 2


if __name__ == "__main__":
    sys.exit(main())
