"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is generated here from the
run's seed: the demo road graph and its weight grid, or the toy
threshold table and its x axis. The toy step factory and engine are
defined here rather than imported from the test suite, and they use
only the standard library, so toy workloads spend their time in the
store and sweep layers, not in the plugin or in ``canon``.

Expected decision identifiers are derived independently of the
package, from the canonical-JSON rules in README.md, so the checks do
not trust the code they check.
"""

from __future__ import annotations

import hashlib
import json
import random
from decimal import Decimal

from decisiondb import routing, sweep
from decisiondb.canon import decimal_string
from decisiondb.policy import EquivalencePolicy, persist_policy

EXPERIMENT = "bench"
WINDOW = ("2025-06-02T00:00:00Z", "2025-06-09T00:00:00Z")
SCHEMA = "1"

# README decisions A and B on the seed-22 demo graph, at neighbor_weight
# 0.5 and the given second_order_weight.
README_GRAPH_SEED = 22
README_DECISIONS = {"0.25": "dec_6df28d39adbec721", "0.5": "dec_5b6f472be2bb4b6f"}


def canonical(value) -> bytes:
    return json.dumps(
        value, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def digest16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def expected_decision(hash_source: tuple[str, ...], value) -> str:
    """Decision identifier a policy assigns to an extracted value."""
    policy = {
        "hash_source": list(hash_source),
        "canonicalization_rule": "canonical_json_utf8",
        "match_rule": "sha256_equality",
        "version": SCHEMA,
    }
    payload = {
        "policy_id": "pol_" + digest16(canonical(policy)),
        "payload_hash": digest16(canonical(value)),
        "version": SCHEMA,
    }
    return "dec_" + digest16(canonical(payload))


class StepFactory:
    """Copies the snapshot's threshold next to the point's parameters."""

    name = "bench-step-table"
    version = "1"

    def encode(self, artifacts, params):
        table = json.loads(artifacts["table"])
        return canonical(
            {
                "threshold": table["threshold"],
                "x": params["x"],
                "gain": params["gain"],
                "version": SCHEMA,
            }
        )


class StepEngine:
    """Labels a point ``hi`` when x * gain reaches the threshold.

    The raw output echoes x, so every grid point has its own raw blob
    while the decision takes only two values.
    """

    name = "bench-step-compare"
    version = "1"

    def evaluate(self, representation, query):
        rep = json.loads(representation)
        value = Decimal(rep["x"]) * Decimal(rep["gain"])
        label = "hi" if value >= Decimal(rep["threshold"]) else "lo"
        return {"label": label, "x": rep["x"], "version": SCHEMA}


class ToyInputs:
    """One x axis of ``points`` values, 0.01 apart, around a seeded threshold.

    The threshold lies strictly between two grid values and off every
    bisection midpoint, so the map has exactly one boundary and
    refinement must bracket it.
    """

    axis = "x"
    gain = "1"
    hash_source = ("label",)

    def __init__(self, seed: int, points: int):
        rng = random.Random(seed)
        self.points = points
        self.values = [decimal_string(Decimal(i) / 100) for i in range(points)]
        k = rng.randrange(points // 10, points - points // 10 - 1)
        frac = rng.choice([i for i in range(1, 100) if i % 25])
        self.threshold = Decimal(self.values[k]) + Decimal(frac) / 10000
        rng.shuffle(self.values)
        self.factory = StepFactory()
        self.engine = StepEngine()
        self.labels = {
            label: expected_decision(self.hash_source, label) for label in ("lo", "hi")
        }

    def describe(self) -> dict:
        return {"points": self.points, "threshold": decimal_string(self.threshold)}

    def label_at(self, x: str) -> str:
        return "hi" if Decimal(x) * Decimal(self.gain) >= self.threshold else "lo"

    def setup(self, store):
        snap = sweep.freeze_snapshot(
            store, {"table": {"threshold": decimal_string(self.threshold)}}, WINDOW
        )
        policy_id = persist_policy(store, EquivalencePolicy(hash_source=self.hash_source))
        return sweep.plan_sweep(
            store,
            snapshot_id=snap.snapshot_id,
            factory_name=self.factory.name,
            factory_version=self.factory.version,
            axes=[sweep.Axis(param=self.axis, values=tuple(self.values))],
            fixed_params={"gain": self.gain},
            engine_name=self.engine.name,
            engine_version=self.engine.version,
            query={"probe": "threshold"},
            policy_id=policy_id,
            experiment_id=EXPERIMENT,
        )

    def map_errors(self, dmap, report) -> list[str]:
        errors = []
        for point in dmap.values():
            x = point.params[self.axis]
            if str(point.decision_id) != self.labels[self.label_at(x)]:
                errors.append(f"decision at x={x} disagrees with the analytic label")
        if len(report.boundaries) != 1:
            errors.append(f"expected 1 boundary, classify_axis found {len(report.boundaries)}")
        return errors

    def refine_errors(self, ref) -> list[str]:
        errors = []
        if not Decimal(ref.lo) < self.threshold <= Decimal(ref.hi):
            errors.append(f"refined [{ref.lo}, {ref.hi}] does not bracket {self.threshold}")
        if (str(ref.lo_decision), str(ref.hi_decision)) != (self.labels["lo"], self.labels["hi"]):
            errors.append("refined endpoint decisions are not lo/hi")
        return errors


class DemoInputs:
    """The demo road graph swept along second_order_weight in [0, 1).

    The graph seed is the first one at or after the run's seed whose
    route differs between the two ends of the grid, so every run has a
    boundary to refine; seed 22 keeps the README graph.
    """

    axis = "second_order_weight"
    neighbor_weight = "0.5"
    hash_source = ("route_nodes",)

    def __init__(self, seed: int, points: int):
        if points % 4:
            raise ValueError("demo grid size must be a multiple of 4 to hold 0.25 and 0.5")
        self.points = points
        self.values = [decimal_string(Decimal(i) / points) for i in range(points)]
        self.graph_seed = self._graph_seed(seed, self.values[0], self.values[-1])
        random.Random(seed).shuffle(self.values)
        self.factory = routing.CostSurfaceFactory()
        self.engine = routing.DijkstraEngine()

    def _graph_seed(self, seed: int, low: str, high: str) -> int:
        start, end = routing.DEMO_QUERY["start"], routing.DEMO_QUERY["end"]
        for candidate in range(seed, seed + 200):
            graph = routing.generate_demo_graph(candidate)
            routes = {
                routing.dijkstra_route(
                    routing.build_cost_representation(graph, self.neighbor_weight, w),
                    start,
                    end,
                ).route_nodes
                for w in (low, high)
            }
            if len(routes) == 2:
                return candidate
        raise ValueError(f"no demo graph seed in [{seed}, {seed + 200}) has a boundary")

    def describe(self) -> dict:
        return {"points": self.points, "graph_seed": self.graph_seed}

    def setup(self, store):
        graph = routing.generate_demo_graph(self.graph_seed)
        snap = sweep.freeze_snapshot(store, {"graph": graph.to_payload()}, routing.DEMO_TIME_WINDOW)
        policy_id = persist_policy(store, EquivalencePolicy(hash_source=self.hash_source))
        return sweep.plan_sweep(
            store,
            snapshot_id=snap.snapshot_id,
            factory_name=self.factory.name,
            factory_version=self.factory.version,
            axes=[sweep.Axis(param=self.axis, values=tuple(self.values))],
            fixed_params={"neighbor_weight": self.neighbor_weight},
            engine_name=self.engine.name,
            engine_version=self.engine.version,
            query=dict(routing.DEMO_QUERY),
            policy_id=policy_id,
            experiment_id=EXPERIMENT,
        )

    def map_errors(self, dmap, report) -> list[str]:
        errors = []
        if len(dmap) != self.points:
            errors.append(f"map holds {len(dmap)} of {self.points} points")
        if not report.boundaries:
            errors.append("classify_axis found no boundary")
        if self.graph_seed == README_GRAPH_SEED:
            for weight, expected in README_DECISIONS.items():
                point = dmap.get({"neighbor_weight": self.neighbor_weight, self.axis: weight})
                if point is None or str(point.decision_id) != expected:
                    errors.append(f"decision at {self.axis}={weight} is not README's {expected}")
        return errors

    def refine_errors(self, ref) -> list[str]:
        if ref.lo_decision == ref.hi_decision or not Decimal(ref.lo) < Decimal(ref.hi):
            return [f"refined [{ref.lo}, {ref.hi}] is not a boundary"]
        return []
