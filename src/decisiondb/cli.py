"""Command-line interface.

Exit codes: 0 success, 1 usage or execution error, 2 verification
mismatch. Each command returns one payload; --json prints it as its
canonical encoding, the same payload the library APIs expose, and
otherwise the command's text renderer lays it out as tables.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Any, Mapping, Optional

from . import canon, replay, routing, sweep
from .errors import CanonicalizationError, DecisionDBError, ValidationError
from .policy import EquivalencePolicy, persist_policy
from .store import DB_FILENAME, Store, open_store

ENV_DB = "DECISIONDB_PATH"

FACTORIES = {
    (routing.FACTORY_NAME, routing.FACTORY_VERSION): routing.CostSurfaceFactory(),
}
ENGINES = {
    (routing.ENGINE_NAME, routing.ENGINE_VERSION): routing.DijkstraEngine(),
}


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

    def label(self, decision_id) -> str:
        key = str(decision_id)
        if key not in self.assigned:
            index = len(self.assigned)
            self.assigned[key] = (
                chr(ord("A") + index) if index < 26 else f"D{index}"
            )
        return self.assigned[key]

    def legend(self) -> list[str]:
        return [f"{letter} = {key}" for key, letter in self.assigned.items()]


def route_length(store: Store, run_id) -> Optional[int]:
    """Node count of a persisted route output, when one is recoverable."""
    run = store.get_record(run_id)
    if run is None:
        return None
    raw = store.read_blob_unverified(run.raw_output_ref)
    if raw is None:
        return None
    try:
        payload = canon.canonical_decode(raw)
    except CanonicalizationError:
        return None
    if isinstance(payload, Mapping) and isinstance(payload.get("route_nodes"), list):
        return len(payload["route_nodes"])
    return None


def sweep_axis_name(plan: sweep.SweepPlan, requested: Optional[str]) -> str:
    if requested:
        return requested
    multi = [a.param for a in plan.axes if len(a.values) > 1]
    if len(multi) == 1:
        return multi[0]
    if len(plan.axes) == 1:
        return plan.axes[0].param
    raise DecisionDBError(
        "plan sweeps more than one axis; pick one with --axis"
    )


def axis_report_payload(
    store: Store, dmap: sweep.DecisionMap, axis: str
) -> dict:
    payload = sweep.classify_axis(dmap, axis).to_payload()
    payload["plan_id"] = str(dmap.plan.plan_id)
    payload["points"] = [
        {
            "params": dict(point.params),
            "decision_id": str(point.decision_id),
            "route_nodes": route_length(store, point.run_id),
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
        "snapshot_id": str(snap.snapshot_id),
        "artifacts": sorted(artifacts),
        "time_window": list(snap.time_window),
    }


def cmd_demo_generate(store: Store, args) -> dict:
    arena = routing.persist_demo(store, args.seed)
    return {
        "experiment_id": arena.experiment_id,
        "seed": arena.seed,
        "snapshot_id": str(arena.snapshot_record.snapshot_id),
        "policy_id": str(arena.plans[0].policy_id),
        "plan_ids": [str(plan.plan_id) for plan in arena.plans],
    }


def render_demo_generate(store: Store, payload: Mapping[str, Any]) -> None:
    print(f"experiment: {payload['experiment_id']} (seed {payload['seed']})")
    print(f"snapshot:   {payload['snapshot_id']}")
    print(f"policy:     {payload['policy_id']}")
    for plan_id in payload["plan_ids"]:
        print(f"plan:       {plan_id}")


def cmd_demo_sweep(store: Store, args) -> dict:
    arena = routing.run_demo(store, args.seed)
    reports = []
    for plan in arena.plans:
        dmap = sweep.materialize_map(store, plan.plan_id, arena.experiment_id)
        reports.append(axis_report_payload(store, dmap, sweep_axis_name(plan, None)))
    return {"experiment_id": arena.experiment_id, "plans": reports}


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
    factory = FACTORIES.get((plan.factory_name, plan.factory_version))
    engine = ENGINES.get((plan.engine_name, plan.engine_version))
    if factory is None:
        raise DecisionDBError(
            f"no registered factory {plan.factory_name}/{plan.factory_version}"
        )
    if engine is None:
        raise DecisionDBError(
            f"no registered engine {plan.engine_name}/{plan.engine_version}"
        )
    sweep.declare_representations(store, plan, factory)
    entries = sweep.execute_sweep(store, plan, engine)
    return {
        "plan_id": str(plan.plan_id),
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
            "repr_id": str(point.repr_id),
            "run_id": str(point.run_id),
            "decision_id": str(point.decision_id),
        }
        for point in dmap.values()
    ]
    return {
        "plan_id": str(dmap.plan.plan_id),
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
    if args.decision:
        return replay.replay_decision(store, args.decision, deep=args.deep).to_payload()
    return replay.replay_all(
        store, args.experiment, plan_id=args.plan, deep=args.deep
    ).to_payload()


# Handlers that only read a store; a path without one is refused, not created.
READERS = (cmd_inspect, cmd_sweep_report, cmd_map, cmd_replay)


def build_parser() -> Parser:
    parser = Parser(prog="decisiondb", description=__doc__)
    common = Parser(add_help=False)
    common.add_argument("--db", help=f"store directory (or set {ENV_DB})")
    common.add_argument(
        "--json", action="store_true", help="emit canonical JSON instead of tables"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", parents=[common], help="create or open a store")
    p.set_defaults(
        handler=cmd_init,
        render=lambda store, payload: print(f"store ready at {payload['location']}"),
    )

    p = sub.add_parser("inspect", parents=[common], help="table and blob counts")
    p.set_defaults(handler=cmd_inspect, render=render_inspect)

    p = sub.add_parser(
        "freeze", parents=[common], help="persist a snapshot from artifact payload files"
    )
    p.add_argument(
        "--window",
        nargs=2,
        metavar=("START", "END"),
        required=True,
        help="time window the artifacts describe",
    )
    p.add_argument(
        "artifacts",
        nargs="+",
        metavar="NAME=FILE",
        help="artifact payloads as JSON files",
    )
    p.set_defaults(
        handler=cmd_freeze,
        render=lambda store, payload: print(
            f"snapshot {payload['snapshot_id']} ({len(payload['artifacts'])} artifact(s))"
        ),
    )

    demo = sub.add_parser("demo", help="built-in routing demonstration").add_subparsers(
        dest="demo_command", required=True
    )
    p = demo.add_parser(
        "generate", parents=[common], help="freeze the demo snapshot, policy, and plans"
    )
    p.add_argument("--seed", type=int, default=routing.DEMO_SEED)
    p.set_defaults(handler=cmd_demo_generate, render=render_demo_generate)
    p = demo.add_parser(
        "sweep", parents=[common], help="execute both demo sweeps and report the maps"
    )
    p.add_argument("--seed", type=int, default=routing.DEMO_SEED)
    p.set_defaults(
        handler=cmd_demo_sweep,
        render=lambda store, payload: render_axis_reports(payload["plans"]),
    )
    p = demo.add_parser(
        "replay", parents=[common], help="verify every demo decision by recomputation"
    )
    p.add_argument("--deep", action="store_true", help="also verify upstream blobs and rows")
    p.set_defaults(
        handler=cmd_replay,
        render=render_replay,
        decision=None,
        experiment=routing.DEMO_EXPERIMENT,
        plan=None,
    )

    swp = sub.add_parser("sweep", help="run or report a persisted plan").add_subparsers(
        dest="sweep_command", required=True
    )
    p = swp.add_parser("run", parents=[common], help="execute a plan's grid")
    p.add_argument("--plan", required=True, help="plan identifier or plan payload file")
    p.add_argument("--experiment", required=True, help="experiment the map rows belong to")
    p.add_argument("--policy", help="policy payload file to persist before execution")
    p.set_defaults(
        handler=cmd_sweep_run,
        render=lambda store, payload: print(
            f"executed {payload['entries']} grid points for plan {payload['plan_id']}"
        ),
    )
    p = swp.add_parser("report", parents=[common], help="axis structure of a plan's map")
    p.add_argument("--plan", required=True)
    p.add_argument("--experiment", required=True)
    p.add_argument("--axis", help="swept parameter (default: the only multi-valued axis)")
    p.set_defaults(
        handler=cmd_sweep_report,
        render=lambda store, payload: render_axis_reports([payload]),
    )

    p = sub.add_parser("map", parents=[common], help="list a plan's evaluated grid points")
    p.add_argument("--plan", required=True)
    p.add_argument("--experiment", required=True)
    p.set_defaults(handler=cmd_map, render=render_map)

    p = sub.add_parser("replay", parents=[common], help="recompute and compare decisions")
    subject = p.add_mutually_exclusive_group(required=True)
    subject.add_argument("--experiment", help="replay every map entry of this experiment")
    subject.add_argument("--decision", help="replay the chains behind one decision id")
    p.add_argument("--plan", help="restrict --experiment to one plan")
    p.add_argument("--deep", action="store_true", help="also verify upstream blobs and rows")
    p.set_defaults(handler=cmd_replay, render=render_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "replay" and args.decision and args.plan:
        parser.error("argument --plan: not allowed with argument --decision")
    db = args.db or os.environ.get(ENV_DB)
    if not db:
        parser.error(f"no store given: pass --db or set {ENV_DB}")
    try:
        if args.handler in READERS and not (Path(db) / DB_FILENAME).exists():
            raise DecisionDBError(f"no store at {db}")
        with open_store(db) as store:
            payload = args.handler(store, args)
            if args.json:
                payload = {**payload, "version": canon.SCHEMA_VERSION}
                print(canon.canonical_encode(payload).decode("utf-8"))
            else:
                args.render(store, payload)
    except DecisionDBError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if payload.get("ok", True) else 2


if __name__ == "__main__":
    sys.exit(main())
