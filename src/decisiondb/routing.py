"""Reference routing arena: a seeded graph, a stress-modulated cost
surface, and a deterministic shortest-path engine.

Costs use fixed-precision decimal arithmetic (12 fractional digits,
round half even) so every platform derives identical bytes. Equal-cost
routes are broken toward the lexicographically smaller node sequence,
which makes the route itself, not just its cost, reproducible.
"""

from __future__ import annotations

import functools
import heapq
import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, localcontext
from typing import Any

from . import canon, sweep
from .canon import SCHEMA_VERSION, decimal_string
from .errors import DecisionDBError, EngineFailure, UnreachableError, ValidationError
from .policy import EquivalencePolicy, persist_policy, policy_identifier
from .store import FMapEntry, ManifestEntry, SnapshotRecord

TWELVE_PLACES = Decimal("0.000000000001")
THREE_PLACES = Decimal("0.001")

FACTORY_NAME = "stress-cost-surface"
FACTORY_VERSION = "1"
ENGINE_NAME = "dijkstra-shortest-path"
ENGINE_VERSION = "1"

DEMO_NODE_COUNT = 564
DEMO_QUERY = {"start": 85, "end": 50}
DEMO_EXPERIMENT = "demo"
DEMO_TIME_WINDOW = ("2025-06-02T00:00:00Z", "2025-06-09T00:00:00Z")
# Chosen by scripts/tune_demo_seed.py: the first seed whose sweep over
# neighbor_weight {0.5, 1.0} keeps one route while the sweep over
# second_order_weight {0.25, 0.5} fractures into two. Re-run the script
# after any change to the generator or the cost formula.
DEMO_SEED = 22


def _q12(value: Decimal) -> Decimal:
    return value.quantize(TWELVE_PLACES)


@dataclass(frozen=True)
class Node:
    id: int
    x: int
    y: int


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    baseline_cost: str
    stress: str


@dataclass(frozen=True)
class GraphSnapshot:
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    version: str = SCHEMA_VERSION

    def to_payload(self) -> dict:
        return {
            "nodes": [{"id": n.id, "x": n.x, "y": n.y} for n in self.nodes],
            "edges": [
                {
                    "from": e.tail,
                    "to": e.head,
                    "baseline_cost": e.baseline_cost,
                    "stress": e.stress,
                }
                for e in self.edges
            ],
            "version": self.version,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "GraphSnapshot":
        nodes = tuple(
            Node(id=n["id"], x=n["x"], y=n["y"]) for n in payload["nodes"]
        )
        edges = tuple(
            Edge(
                tail=e["from"],
                head=e["to"],
                baseline_cost=e["baseline_cost"],
                stress=e["stress"],
            )
            for e in payload["edges"]
        )
        return cls(nodes=nodes, edges=edges, version=payload["version"])


def _distance(a: tuple[int, int], b: tuple[int, int]) -> str:
    with localcontext() as ctx:
        ctx.prec = 28
        squared = Decimal((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2)
        return decimal_string(squared.sqrt().quantize(THREE_PLACES))


def generate_demo_graph(seed: int, n_nodes: int = DEMO_NODE_COUNT) -> GraphSnapshot:
    """Deterministic jittered-grid graph with per-edge stress in [0, 1].

    Nodes sit near a square lattice; every lattice neighbor pair gets
    edges both ways, plus seeded diagonal shortcuts, so the graph stays
    strongly connected while leaving room for near-tied alternatives.
    """
    if n_nodes < 2:
        raise ValidationError(f"graph needs at least 2 nodes, got {n_nodes}")
    rng = random.Random(seed)
    side = math.isqrt(n_nodes - 1) + 1
    positions = []
    for i in range(n_nodes):
        row, col = divmod(i, side)
        positions.append(
            (col * 10 + rng.randrange(-3, 4), row * 10 + rng.randrange(-3, 4))
        )
    nodes = tuple(Node(id=i, x=x, y=y) for i, (x, y) in enumerate(positions))

    pairs: list[tuple[int, int]] = []
    for i in range(n_nodes):
        row, col = divmod(i, side)
        if col < side - 1 and i + 1 < n_nodes:
            pairs.append((i, i + 1))
            pairs.append((i + 1, i))
        if i + side < n_nodes:
            pairs.append((i, i + side))
            pairs.append((i + side, i))
        if col < side - 1 and i + side + 1 < n_nodes and rng.random() < 0.3:
            pairs.append((i, i + side + 1))
            pairs.append((i + side + 1, i))

    edges = []
    for tail, head in pairs:
        stress = decimal_string(Decimal(rng.randrange(0, 1001)).scaleb(-3))
        edges.append(
            Edge(
                tail=tail,
                head=head,
                baseline_cost=_distance(positions[tail], positions[head]),
                stress=stress,
            )
        )
    edges.sort(key=lambda e: (e.tail, e.head))
    return GraphSnapshot(nodes=nodes, edges=tuple(edges))


@dataclass(frozen=True)
class CostRepresentation:
    """One priced view of a graph: node ids plus per-edge decimal costs."""

    params: Mapping[str, str]
    node_ids: tuple[int, ...]
    edge_costs: Mapping[tuple[int, int], str]

    def to_payload(self) -> dict:
        return {
            "nodes": list(self.node_ids),
            "edges": [
                {"from": tail, "to": head, "cost": self.edge_costs[(tail, head)]}
                for tail, head in sorted(self.edge_costs)
            ],
            "params": dict(self.params),
            "version": SCHEMA_VERSION,
        }

    @classmethod
    def from_payload(cls, payload: Any) -> "CostRepresentation":
        """Read a decoded representation; one of another shape raises
        ValidationError naming the part at fault."""
        if not isinstance(payload, Mapping):
            raise ValidationError(f"representation payload is a {type(payload).__name__}, not a mapping")
        parts = []
        for key, read, kind in (
            ("params", dict, Mapping), ("nodes", tuple, list),
            ("edges", lambda edges: {(e["from"], e["to"]): e["cost"] for e in edges}, list),
        ):
            try:
                parts.append(read(payload[key]))
                if not isinstance(payload[key], kind):  # a str reads as nodes, pairs as params
                    raise TypeError(f"a {type(payload[key]).__name__}, not a {kind.__name__}")
            except KeyError as exc:
                raise ValidationError(f"representation payload is missing key {exc.args[0]!r}") from exc
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"representation {key} are malformed: {exc}") from exc
        return cls(*parts)


def _parse_weight(name: str, value: str) -> Decimal:
    try:
        weight = Decimal(value)
    except (InvalidOperation, TypeError) as exc:
        raise ValidationError(f"{name} {value!r} is not a decimal string") from exc
    if not weight.is_finite():
        raise ValidationError(f"{name} must be finite, got {value}")
    if weight < 0:
        raise ValidationError(f"{name} must be non-negative, got {value}")
    return weight


@dataclass(frozen=True)
class _Prepared:
    """One graph's weight-independent half of the cost formula, and the
    representation bytes around the per-point values.

    ``edges`` holds each distinct (tail, head) once, in sorted order; a
    repeated pair keeps its last baseline, as ``edge_costs`` keeps its
    last cost. ``edge_texts`` holds, per edge, the canonical text that
    follow its cost string; ``nodes_text`` is the encoded node list.
    """

    node_ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    baselines: tuple[Decimal, ...]
    means: Mapping[int, tuple[Decimal, Decimal]]  # (N1, N2) per head node
    edge_texts: tuple[str, ...]
    nodes_text: str


def _prepare(graph: GraphSnapshot) -> _Prepared:
    """Compute everything about a graph that no weight changes.

    N1 and N2 are quantized as in build_cost_representation.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        out_edges: dict[int, list[Edge]] = {n.id: [] for n in graph.nodes}
        for edge in graph.edges:
            out_edges[edge.tail].append(edge)

        stress_sum = {}
        out_count = {}
        for node_id, edges in out_edges.items():
            stress_sum[node_id] = sum(
                (Decimal(e.stress) for e in edges), Decimal(0)
            )
            out_count[node_id] = len(edges)

        def mean_one_hop(node_id: int) -> Decimal:
            count = out_count[node_id]
            if count == 0:
                return Decimal(0)
            return _q12(stress_sum[node_id] / count)

        def mean_two_hop(node_id: int) -> Decimal:
            total = Decimal(0)
            count = 0
            for e in out_edges[node_id]:
                total += stress_sum[e.head]
                count += out_count[e.head]
            if count == 0:
                return Decimal(0)
            return _q12(total / count)

        baseline = {(e.tail, e.head): Decimal(e.baseline_cost) for e in graph.edges}
        edges = tuple(sorted(baseline))
        means = {
            head: (mean_one_hop(head), mean_two_hop(head))
            for head in {head for _, head in edges}
        }
    node_ids = tuple(n.id for n in graph.nodes)
    text = {node_id: canon.canonical_encode(node_id).decode("utf-8") for node_id in node_ids}
    return _Prepared(
        node_ids=node_ids,
        edges=edges,
        baselines=tuple(baseline[edge] for edge in edges),
        means=means,
        edge_texts=tuple(f'","from":{text[tail]},"to":{text[head]}}}' for tail, head in edges),
        nodes_text=canon.canonical_encode(list(node_ids)).decode("utf-8"),
    )


def _cost_strings(
    prepared: _Prepared, neighbor_weight: str, second_order_weight: str
) -> list[str]:
    """The per-point half: q12(baseline * (1 + nw * N1 + sw * N2)) per edge.

    The factor in parentheses depends on the edge's head alone, so it is
    computed once per head node.
    """
    nw = _parse_weight("neighbor_weight", neighbor_weight)
    sw = _parse_weight("second_order_weight", second_order_weight)
    with localcontext() as ctx:
        ctx.prec = 50
        one = Decimal(1)
        factor = {head: one + nw * n1 + sw * n2 for head, (n1, n2) in prepared.means.items()}
        return [
            decimal_string(_q12(baseline * factor[head]))
            for (_, head), baseline in zip(prepared.edges, prepared.baselines)
        ]


def build_cost_representation(
    graph: GraphSnapshot, neighbor_weight: str, second_order_weight: str
) -> CostRepresentation:
    """Price every edge by its baseline scaled with downstream stress.

    cost(e) = baseline(e) * (1 + nw * N1(e) + sw * N2(e)), where N1 is
    the mean stress over edges leaving e's head and N2 the mean over
    edges leaving the heads of those edges; an empty edge set
    contributes 0. Every product and mean is quantized to 12 fractional
    digits, round half even.
    """
    prepared = _prepare(graph)
    costs = _cost_strings(prepared, neighbor_weight, second_order_weight)
    return CostRepresentation(
        params={
            "neighbor_weight": neighbor_weight,
            "second_order_weight": second_order_weight,
        },
        node_ids=prepared.node_ids,
        edge_costs=dict(zip(prepared.edges, costs)),
    )


@functools.lru_cache(maxsize=1)
def _prepared_graph(graph_bytes: bytes) -> _Prepared:
    # One entry: a sweep prices every point of one snapshot, and the
    # determinism check prices each point twice.
    return _prepare(GraphSnapshot.from_payload(canon.canonical_decode(graph_bytes)))


@dataclass(frozen=True)
class RouteOutput:
    route_nodes: tuple[int, ...]
    total_cost: str


def dijkstra_route(rep: CostRepresentation, start: int, end: int) -> RouteOutput:
    """Minimum-cost route; ties broken toward the smaller node sequence.

    Runs one Dijkstra pass backward from the end to get exact
    cost-to-go, then walks forward always picking the smallest next node
    that still lies on a cheapest route. Costs stay exact Decimals
    throughout, so tie detection is exact rather than approximate.

    The backward pass stops once it settles the start. Every cost is
    positive, so each step of the walk lands on a node whose cost-to-go
    is strictly below the start's, and Dijkstra settles all of those
    before the start. Every edge is still checked for a finite, positive cost.
    """
    try:
        known = set(rep.node_ids)
    except TypeError as exc:
        raise ValidationError(f"representation nodes are malformed: {exc}") from exc
    if start not in known:
        raise EngineFailure(f"start node {start} is not in the graph")
    if end not in known:
        raise EngineFailure(f"end node {end} is not in the graph")
    zero = _q12(Decimal(0))
    if start == end:
        return RouteOutput(route_nodes=(start,), total_cost=decimal_string(zero))

    with localcontext() as ctx:
        ctx.prec = 50
        forward: dict[int, list[tuple[int, Decimal]]] = {n: [] for n in rep.node_ids}
        backward: dict[int, list[tuple[int, Decimal]]] = {n: [] for n in rep.node_ids}
        try:
            for (tail, head), cost_text in rep.edge_costs.items():
                try:
                    cost = Decimal(cost_text)
                except (InvalidOperation, TypeError, ValueError) as exc:
                    raise ValidationError(
                        f"edge ({tail}, {head}) cost {cost_text!r} is not a decimal string"
                    ) from exc
                if not cost.is_finite():
                    raise ValidationError(
                        f"edge ({tail}, {head}) has non-finite cost {cost_text}"
                    )
                if cost <= 0:
                    raise ValidationError(
                        f"edge ({tail}, {head}) has non-positive cost {cost_text}"
                    )
                forward[tail].append((head, cost))
                backward[head].append((tail, cost))
        except KeyError as exc:
            raise ValidationError(
                f"edge ({tail}, {head}) names node {exc.args[0]!r}, which is not in nodes"
            ) from exc

        cost_to_end: dict[int, Decimal] = {}
        heap: list[tuple[Decimal, int]] = [(zero, end)]
        while heap:
            dist, node = heapq.heappop(heap)
            if node in cost_to_end:
                continue
            cost_to_end[node] = dist
            if node == start:
                break
            for tail, cost in backward[node]:
                if tail not in cost_to_end:
                    heapq.heappush(heap, (dist + cost, tail))

        if start not in cost_to_end:
            raise UnreachableError(f"no route from {start} to {end}")

        route = [start]
        current = start
        while current != end:
            best = None
            for head, cost in forward[current]:
                if head in cost_to_end and cost + cost_to_end[head] == cost_to_end[current]:
                    if best is None or head < best:
                        best = head
            assert best is not None, "cost-to-go table lost the optimal successor"
            route.append(best)
            current = best
            assert len(route) <= len(rep.node_ids), "route revisited a node"
        total = _q12(cost_to_end[start])
    return RouteOutput(route_nodes=tuple(route), total_cost=decimal_string(total))


class CostSurfaceFactory:
    """Representation factory over a single "graph" artifact."""

    name = FACTORY_NAME
    version = FACTORY_VERSION

    def encode(self, artifacts: Mapping[str, bytes], params: Mapping[str, str]) -> bytes:
        if "graph" not in artifacts:
            raise ValidationError("snapshot has no artifact named 'graph'")
        for required in ("neighbor_weight", "second_order_weight"):
            if required not in params:
                raise ValidationError(f"params are missing {required!r}")
        nw, sw = params["neighbor_weight"], params["second_order_weight"]
        prepared = _prepared_graph(artifacts["graph"])
        costs = _cost_strings(prepared, nw, sw)
        # The canonical encoding of build_cost_representation's payload:
        # keys in sorted order, edges in (tail, head) order.
        edges = ",".join([f'{{"cost":"{c}{t}' for c, t in zip(costs, prepared.edge_texts)])
        params_text = canon.canonical_encode(
            {"neighbor_weight": nw, "second_order_weight": sw}
        ).decode("utf-8")
        return (
            f'{{"edges":[{edges}],"nodes":{prepared.nodes_text},'
            f'"params":{params_text},"version":"{SCHEMA_VERSION}"}}'
        ).encode("utf-8")


class DijkstraEngine:
    """Engine adapter wrapping dijkstra_route for sweep execution."""

    name = ENGINE_NAME
    version = ENGINE_VERSION

    def evaluate(self, representation: bytes, query: Any) -> dict:
        if (
            not isinstance(query, Mapping)
            or not isinstance(query.get("start"), int)
            or not isinstance(query.get("end"), int)
        ):
            raise ValidationError(f"query must be {{start: int, end: int}}, got {query!r}")
        rep = CostRepresentation.from_payload(canon.canonical_decode(representation))
        route = dijkstra_route(rep, query["start"], query["end"])
        return {
            "route_nodes": list(route.route_nodes),
            "total_cost": route.total_cost,
            "engine": {"name": self.name, "version": self.version},
            "query": {"start": query["start"], "end": query["end"]},
            "version": SCHEMA_VERSION,
        }


# The one registry of plugins a plan may name, keyed by (name, version).
FACTORIES = {(FACTORY_NAME, FACTORY_VERSION): CostSurfaceFactory()}
ENGINES = {(ENGINE_NAME, ENGINE_VERSION): DijkstraEngine()}


def run_plan(store, plan: sweep.SweepPlan) -> list[FMapEntry]:
    """Declare and execute a persisted plan with the registered plugins it names."""
    factory = FACTORIES.get((plan.factory_name, plan.factory_version))
    if factory is None:
        raise DecisionDBError(f"no registered factory {plan.factory_name}/{plan.factory_version}")
    engine = ENGINES.get((plan.engine_name, plan.engine_version))
    if engine is None:
        raise DecisionDBError(f"no registered engine {plan.engine_name}/{plan.engine_version}")
    sweep.declare_representations(store, plan, factory)
    return sweep.execute_sweep(store, plan, engine)


DEMO_POLICY = EquivalencePolicy(hash_source=("route_nodes",))
DemoPlans = tuple[sweep.SweepPlan, sweep.SweepPlan]


def demo_arena(seed: int = DEMO_SEED) -> tuple[dict[str, Any], DemoPlans]:
    """The demo's artifacts and its two sweep plans over them.

    Pure construction; identifiers are content-derived, so nothing needs
    a store until the caller freezes and executes.
    """
    graph_payload = generate_demo_graph(seed, DEMO_NODE_COUNT).to_payload()
    graph_ref = canon.payload_hash(canon.canonical_encode(graph_payload))
    snapshot = SnapshotRecord.create(
        DEMO_TIME_WINDOW, [ManifestEntry(name="graph", artifact_ref=graph_ref)]
    )
    shared = dict(
        snapshot_id=snapshot.snapshot_id,
        factory_name=FACTORY_NAME,
        factory_version=FACTORY_VERSION,
        engine_name=ENGINE_NAME,
        engine_version=ENGINE_VERSION,
        query=dict(DEMO_QUERY),
        policy_id=policy_identifier(DEMO_POLICY),
        experiment_id=DEMO_EXPERIMENT,
    )
    plan_neighbor = sweep.SweepPlan(
        axes=[sweep.Axis(param="neighbor_weight", values=("0.5", "1.0"))],
        fixed_params={"second_order_weight": "0.25"},
        **shared,
    )
    plan_second_order = sweep.SweepPlan(
        axes=[sweep.Axis(param="second_order_weight", values=("0.25", "0.5"))],
        fixed_params={"neighbor_weight": "0.5"},
        **shared,
    )
    return {"graph": graph_payload}, (plan_neighbor, plan_second_order)


def persist_demo(store, seed: int = DEMO_SEED) -> DemoPlans:
    """Freeze the demo snapshot and persist its policy and both plans."""
    artifacts, plans = demo_arena(seed)
    sweep.freeze_snapshot(store, artifacts, DEMO_TIME_WINDOW)
    persist_policy(store, DEMO_POLICY)
    for plan in plans:
        sweep.persist_plan(store, plan)
    return plans


def run_demo(store, seed: int = DEMO_SEED) -> DemoPlans:
    """Freeze, declare, and execute both demo sweeps into a store."""
    plans = persist_demo(store, seed)
    for plan in plans:
        run_plan(store, plan)
    return plans
