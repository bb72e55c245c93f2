"""Routing arena tests.

The cost formula is checked against hand-worked examples on tiny graphs,
and the shortest-path engine against exhaustive simple-path enumeration,
so the fast implementations never define their own expected values.
"""

from __future__ import annotations

import json
import random
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decisiondb import canon, routing, sweep
from decisiondb.errors import EngineFailure, UnreachableError, ValidationError
from decisiondb.routing import (
    CostRepresentation,
    Edge,
    GraphSnapshot,
    Node,
    build_cost_representation,
    dijkstra_route,
    generate_demo_graph,
)
from decisiondb.store import open_store


def make_graph(nodes, edges):
    """Tiny-graph helper: nodes as (id, x, y), edges as (tail, head, baseline, stress)."""
    return GraphSnapshot(
        nodes=tuple(Node(id=i, x=x, y=y) for i, x, y in nodes),
        edges=tuple(
            Edge(tail=t, head=h, baseline_cost=b, stress=s) for t, h, b, s in edges
        ),
    )


class TestGenerator:
    def test_same_seed_same_bytes(self):
        a = generate_demo_graph(22, 100)
        b = generate_demo_graph(22, 100)
        assert canon.canonical_encode(a.to_payload()) == canon.canonical_encode(
            b.to_payload()
        )

    def test_different_seed_different_bytes(self):
        a = generate_demo_graph(1, 100)
        b = generate_demo_graph(2, 100)
        assert canon.canonical_encode(a.to_payload()) != canon.canonical_encode(
            b.to_payload()
        )

    def test_demo_graph_shape(self):
        graph = generate_demo_graph(routing.DEMO_SEED)
        assert len(graph.nodes) == routing.DEMO_NODE_COUNT
        assert [n.id for n in graph.nodes] == list(range(routing.DEMO_NODE_COUNT))

    def test_edge_fields_are_three_place_decimals(self):
        graph = generate_demo_graph(5, 64)
        for edge in graph.edges:
            assert re.fullmatch(r"\d+\.\d{3}", edge.baseline_cost)
            assert re.fullmatch(r"\d\.\d{3}", edge.stress)
            assert Decimal(edge.baseline_cost) > 0
            assert Decimal("0") <= Decimal(edge.stress) <= Decimal("1")

    def test_edges_sorted_and_unique(self):
        graph = generate_demo_graph(9, 64)
        keys = [(e.tail, e.head) for e in graph.edges]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_demo_graph_strongly_connected(self):
        graph = generate_demo_graph(routing.DEMO_SEED)
        forward = {n.id: [] for n in graph.nodes}
        backward = {n.id: [] for n in graph.nodes}
        for e in graph.edges:
            forward[e.tail].append(e.head)
            backward[e.head].append(e.tail)
        for adj in (forward, backward):
            seen = {0}
            queue = [0]
            while queue:
                node = queue.pop()
                for nxt in adj[node]:
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
            assert len(seen) == len(graph.nodes)

    def test_payload_round_trip(self):
        graph = generate_demo_graph(3, 50)
        again = GraphSnapshot.from_payload(
            canon.canonical_decode(canon.canonical_encode(graph.to_payload()))
        )
        assert again == graph

    def test_too_small(self):
        with pytest.raises(ValidationError):
            generate_demo_graph(0, 1)


class TestCostFormula:
    def test_chain_costs_by_hand(self):
        # 0 -> 1 -> 2 -> 3. For edge (0,1): N1 is the stress of (1,2) and
        # N2 the stress of (2,3). For (1,2): N1 is the stress of (2,3),
        # N2 is empty. For (2,3): both neighborhoods are empty.
        graph = make_graph(
            nodes=[(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)],
            edges=[
                (0, 1, "10.000", "0.100"),
                (1, 2, "20.000", "0.400"),
                (2, 3, "30.000", "0.800"),
            ],
        )
        rep = build_cost_representation(graph, "0.5", "0.25")
        # 10 * (1 + 0.5*0.4 + 0.25*0.8) = 14
        assert rep.edge_costs[(0, 1)] == "14.000000000000"
        # 20 * (1 + 0.5*0.8 + 0.25*0) = 28
        assert rep.edge_costs[(1, 2)] == "28.000000000000"
        # 30 * (1 + 0 + 0) = 30
        assert rep.edge_costs[(2, 3)] == "30.000000000000"

    def test_branching_two_hop_mean_by_hand(self):
        # Node 1 fans out to 2 and 3, which each continue to 4. For edge
        # (0,1): N1 = (0.2 + 0.6)/2 = 0.4 and N2 pools both second-hop
        # edge sets: (0.9 + 0.3)/2 = 0.6.
        graph = make_graph(
            nodes=[(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 2, 1), (4, 3, 0)],
            edges=[
                (0, 1, "8.000", "0.500"),
                (1, 2, "5.000", "0.200"),
                (1, 3, "5.000", "0.600"),
                (2, 4, "5.000", "0.900"),
                (3, 4, "5.000", "0.300"),
            ],
        )
        rep = build_cost_representation(graph, "0.5", "0.25")
        # 8 * (1 + 0.5*0.4 + 0.25*0.6) = 8 * 1.35 = 10.8
        assert rep.edge_costs[(0, 1)] == "10.800000000000"

    def test_zero_weights_reduce_to_baseline(self):
        graph = generate_demo_graph(4, 30)
        rep = build_cost_representation(graph, "0", "0")
        for edge in graph.edges:
            assert Decimal(rep.edge_costs[(edge.tail, edge.head)]) == Decimal(
                edge.baseline_cost
            )

    def test_all_costs_have_twelve_places(self):
        graph = generate_demo_graph(4, 30)
        rep = build_cost_representation(graph, "0.7", "0.3")
        for text in rep.edge_costs.values():
            assert re.fullmatch(r"\d+\.\d{12}", text)

    @pytest.mark.parametrize(
        "nw,sow",
        [("-0.1", "0"), ("0.5", "-1"), ("abc", "0"), ("0", ""), ("NaN", "0"), ("0", "Infinity"), ("sNaN", "0")],
    )
    def test_bad_weights_rejected(self, nw, sow):
        graph = generate_demo_graph(4, 30)
        with pytest.raises(ValidationError):
            build_cost_representation(graph, nw, sow)

    def test_representation_payload_round_trip(self):
        graph = generate_demo_graph(4, 30)
        rep = build_cost_representation(graph, "0.5", "0.25")
        again = CostRepresentation.from_payload(
            canon.canonical_decode(canon.canonical_encode(rep.to_payload()))
        )
        assert again == rep


def direct_rep(edge_costs, n_nodes):
    return CostRepresentation(
        params={"neighbor_weight": "0", "second_order_weight": "0"},
        node_ids=tuple(range(n_nodes)),
        edge_costs={k: v for k, v in edge_costs.items()},
    )


def enumerate_routes(rep, start, end):
    """Every simple path start -> end with its exact total cost; with end
    None, every simple path from start, the one-node path included."""
    adjacency: dict[int, list[tuple[int, Decimal]]] = {}
    for (tail, head), cost in rep.edge_costs.items():
        adjacency.setdefault(tail, []).append((head, Decimal(cost)))
    found = []

    def walk(node, seen, path, total):
        if end is None:
            found.append((total, tuple(path)))
        elif node == end:
            found.append((total, tuple(path)))
            return
        for nxt, cost in adjacency.get(node, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, path + [nxt], total + cost)

    walk(start, {start}, [start], Decimal(0))
    return found


class TestDijkstra:
    def test_straight_line(self):
        rep = direct_rep({(0, 1): "2.500000000000", (1, 2): "3.000000000000"}, 3)
        route = dijkstra_route(rep, 0, 2)
        assert route.route_nodes == (0, 1, 2)
        assert route.total_cost == "5.500000000000"

    def test_start_equals_end(self):
        rep = direct_rep({(0, 1): "1.000000000000"}, 2)
        route = dijkstra_route(rep, 0, 0)
        assert route.route_nodes == (0,)
        assert route.total_cost == "0.000000000000"

    def test_tie_breaks_to_smaller_nodes(self):
        # Two routes of identical cost through 1 or 2; the smaller wins.
        rep = direct_rep(
            {
                (0, 1): "2.000000000000",
                (0, 2): "2.000000000000",
                (1, 3): "2.000000000000",
                (2, 3): "2.000000000000",
            },
            4,
        )
        assert dijkstra_route(rep, 0, 3).route_nodes == (0, 1, 3)

    def test_tie_break_is_lexicographic_not_greedy(self):
        # Greedy-by-first-hop would pick 1, but only 2 leads onward at
        # equal total cost; among full routes 0-2-3 is the only optimum.
        rep = direct_rep(
            {
                (0, 1): "1.000000000000",
                (0, 2): "1.000000000000",
                (1, 3): "9.000000000000",
                (2, 3): "1.000000000000",
            },
            4,
        )
        assert dijkstra_route(rep, 0, 3).route_nodes == (0, 2, 3)

    def test_unreachable(self):
        rep = direct_rep({(1, 0): "1.000000000000"}, 2)
        with pytest.raises(UnreachableError):
            dijkstra_route(rep, 0, 1)

    @pytest.mark.parametrize("start,end", [(9, 0), (0, 9)])
    def test_unknown_endpoint(self, start, end):
        rep = direct_rep({(0, 1): "1.000000000000"}, 2)
        with pytest.raises(EngineFailure):
            dijkstra_route(rep, start, end)

    def test_non_positive_cost_rejected(self):
        rep = direct_rep({(0, 1): "0.000000000000"}, 2)
        with pytest.raises(ValidationError):
            dijkstra_route(rep, 0, 1)

    @pytest.mark.parametrize(
        "cost, message",
        [
            ("NaN", "has non-finite cost NaN"),
            ("sNaN", "has non-finite cost sNaN"),
            ("Infinity", "has non-finite cost Infinity"),
            ("abc", "cost 'abc' is not a decimal string"),
        ],
    )
    def test_non_decimal_cost_rejected(self, cost, message):
        rep = direct_rep({(0, 1): "1.000000000000", (1, 2): cost}, 3)
        with pytest.raises(ValidationError, match=rf"^edge \(1, 2\) {message}$"):
            dijkstra_route(rep, 0, 2)

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_exhaustive_enumeration(self, seed):
        # Costs come from a small menu so exact ties are common and the
        # lexicographic rule actually gets exercised.
        rng = random.Random(seed)
        n = rng.randrange(4, 8)
        menu = ["1.000000000000", "1.500000000000", "2.000000000000"]
        edge_costs = {
            (i, j): rng.choice(menu)
            for i in range(n)
            for j in range(n)
            if i != j and rng.random() < 0.4
        }
        rep = direct_rep(edge_costs, n)
        start, end = 0, n - 1
        routes = enumerate_routes(rep, start, end)
        if not routes:
            with pytest.raises(UnreachableError):
                dijkstra_route(rep, start, end)
            return
        best_cost, best_path = min(routes)
        route = dijkstra_route(rep, start, end)
        assert route.route_nodes == best_path
        assert Decimal(route.total_cost) == best_cost

    def test_lattice_with_equal_costs_agrees_with_brute_force_on_every_pair(self):
        # A 4x4 lattice with every edge both ways at one cost, so most
        # pairs have many cheapest routes; node 16 only leaves the
        # lattice, so no route ends there.
        side, cost = 4, "1.000000000000"
        edge_costs = {(16, 0): cost}
        for node in range(side * side):
            row, col = divmod(node, side)
            for nxt, inside in ((node + 1, col < side - 1), (node + side, row < side - 1)):
                if inside:
                    edge_costs[(node, nxt)] = cost
                    edge_costs[(nxt, node)] = cost
        rep = direct_rep(edge_costs, side * side + 1)
        for start in rep.node_ids:
            best = {}
            for total, path in enumerate_routes(rep, start, None):
                if path[-1] not in best or (total, path) < best[path[-1]]:
                    best[path[-1]] = (total, path)
            assert set(best) == set(range(16)) | {start}
            for end in rep.node_ids:
                if end not in best:
                    with pytest.raises(UnreachableError):
                        dijkstra_route(rep, start, end)
                    continue
                route = dijkstra_route(rep, start, end)
                assert route.route_nodes == best[end][1]
                assert route.total_cost == canon.decimal_string(best[end][0].quantize(routing.TWELVE_PLACES))

    def test_demo_query_reproducible(self):
        graph = generate_demo_graph(routing.DEMO_SEED)
        rep = build_cost_representation(graph, "0.5", "0.25")
        first = dijkstra_route(rep, routing.DEMO_QUERY["start"], routing.DEMO_QUERY["end"])
        second = dijkstra_route(rep, routing.DEMO_QUERY["start"], routing.DEMO_QUERY["end"])
        assert first == second
        assert first.route_nodes[0] == routing.DEMO_QUERY["start"]
        assert first.route_nodes[-1] == routing.DEMO_QUERY["end"]


# Payload hashes of the demo graph's representations at the README grid
# points; a change here changes every stored demo identifier.
DEMO_REPRESENTATION_HASHES = {
    ("0.5", "0.25"): "eff0e7f645d57bb4",
    ("1.0", "0.25"): "5afa87d4e4c5a685",
    ("0.5", "0.5"): "8936aa196937f8fc",
}


class TestAdapters:
    @pytest.fixture()
    def artifacts(self):
        graph = generate_demo_graph(6, 40)
        return {"graph": canon.canonical_encode(graph.to_payload())}

    def test_factory_is_deterministic(self, artifacts):
        factory = routing.CostSurfaceFactory()
        params = {"neighbor_weight": "0.5", "second_order_weight": "0.25"}
        assert factory.encode(artifacts, params) == factory.encode(artifacts, params)

    @pytest.mark.parametrize("nw,sow", [("0", "0"), ("0.5", "0.25"), ("0.5", "0.5"), ("1", "0.999")])
    def test_factory_matches_build_cost_representation(self, nw, sow):
        # Alternating graphs: the factory's cached preparation must follow
        # the artifact it is given.
        factory = routing.CostSurfaceFactory()
        params = {"neighbor_weight": nw, "second_order_weight": sow}
        for seed in (6, 7, 6):
            graph = generate_demo_graph(seed, 40)
            artifacts = {"graph": canon.canonical_encode(graph.to_payload())}
            expected = build_cost_representation(graph, nw, sow).to_payload()
            assert factory.encode(artifacts, params) == canon.canonical_encode(expected)

    @pytest.mark.parametrize(
        "graph, nw, sow",
        [
            (make_graph([(0, 0, 0), (1, 1, 0)], []), "0.5", "0.25"),
            (
                make_graph(
                    [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
                    [(0, 1, "1.000", "0.500"), (1, 2, "2.000", "0.100"), (0, 1, "3.000", "0.900")],
                ),
                "0.5",
                "0.25",
            ),
            (make_graph([(0, 0, 0), (1, 1, 0)], [(0, 1, "4.000", "0.300")]), "1", "1"),
            (generate_demo_graph(8, 30), "0.123456789012345678901234567890123", "0.5"),
            (generate_demo_graph(8, 30), 1, "0.25"),
            (generate_demo_graph(8, 30), "0", "0.75"),
        ],
        ids=["no-edges", "duplicate-edge", "sink-node", "long-weight", "int-weight", "zero-weight"],
    )
    def test_factory_matches_reference_on_edge_cases(self, graph, nw, sow):
        artifacts = {"graph": canon.canonical_encode(graph.to_payload())}
        params = {"neighbor_weight": nw, "second_order_weight": sow}
        expected = canon.canonical_encode(build_cost_representation(graph, nw, sow).to_payload())
        assert routing.CostSurfaceFactory().encode(artifacts, params) == expected

    def test_duplicate_edge_keeps_the_last_cost(self):
        # (0, 1) twice: the second baseline prices the edge. N1(1) = 0.1
        # and N2(1) = 0, so the cost is 3 * (1 + 0.5 * 0.1) = 3.15.
        graph = make_graph(
            [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
            [(0, 1, "1.000", "0.500"), (1, 2, "2.000", "0.100"), (0, 1, "3.000", "0.900")],
        )
        payload = canon.canonical_decode(
            routing.CostSurfaceFactory().encode(
                {"graph": canon.canonical_encode(graph.to_payload())},
                {"neighbor_weight": "0.5", "second_order_weight": "0.25"},
            )
        )
        assert payload["edges"] == [
            {"from": 0, "to": 1, "cost": "3.150000000000"},
            {"from": 1, "to": 2, "cost": "2.000000000000"},
        ]

    @pytest.mark.parametrize(
        "with_graph, params, message",
        [
            (False, {"neighbor_weight": "0.5", "second_order_weight": "0.25"},
             "snapshot has no artifact named 'graph'"),
            (True, {"second_order_weight": "0.25"}, "params are missing 'neighbor_weight'"),
            (True, {"neighbor_weight": "0.5"}, "params are missing 'second_order_weight'"),
            (True, {"neighbor_weight": "-0.1", "second_order_weight": "0.25"},
             "neighbor_weight must be non-negative, got -0.1"),
            (True, {"neighbor_weight": "0.5", "second_order_weight": "abc"},
             "second_order_weight 'abc' is not a decimal string"),
        ],
        ids=["missing-graph", "missing-neighbor", "missing-second-order", "negative", "not-decimal"],
    )
    def test_factory_errors(self, artifacts, with_graph, params, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            routing.CostSurfaceFactory().encode(artifacts if with_graph else {}, params)

    @pytest.mark.parametrize("nw,sow", sorted(DEMO_REPRESENTATION_HASHES))
    def test_demo_representation_bytes_are_frozen(self, nw, sow):
        graph = generate_demo_graph(routing.DEMO_SEED)
        artifacts = {"graph": canon.canonical_encode(graph.to_payload())}
        params = {"neighbor_weight": nw, "second_order_weight": sow}
        encoded = routing.CostSurfaceFactory().encode(artifacts, params)
        assert canon.payload_hash(encoded) == DEMO_REPRESENTATION_HASHES[(nw, sow)]

    def test_factory_requires_graph_artifact(self):
        factory = routing.CostSurfaceFactory()
        with pytest.raises(ValidationError, match="graph"):
            factory.encode({}, {"neighbor_weight": "0.5", "second_order_weight": "0.25"})

    def test_factory_requires_both_weights(self, artifacts):
        factory = routing.CostSurfaceFactory()
        with pytest.raises(ValidationError, match="second_order_weight"):
            factory.encode(artifacts, {"neighbor_weight": "0.5"})

    def test_engine_output_is_canonical_and_complete(self, artifacts):
        factory = routing.CostSurfaceFactory()
        engine = routing.DijkstraEngine()
        encoded = factory.encode(
            artifacts, {"neighbor_weight": "0.5", "second_order_weight": "0.25"}
        )
        out = engine.evaluate(encoded, {"start": 0, "end": 39})
        assert out["route_nodes"][0] == 0
        assert out["route_nodes"][-1] == 39
        assert Decimal(out["total_cost"]) > 0
        assert out["version"] == canon.SCHEMA_VERSION
        decoded = canon.canonical_decode(canon.canonical_encode(out))
        assert decoded == out

    @pytest.mark.parametrize(
        "query",
        [None, [], {"start": 0}, {"end": 3}, {"start": "0", "end": 3}, {"start": 0.0, "end": 3}],
    )
    def test_engine_rejects_malformed_query(self, artifacts, query):
        factory = routing.CostSurfaceFactory()
        engine = routing.DijkstraEngine()
        encoded = factory.encode(
            artifacts, {"neighbor_weight": "0.5", "second_order_weight": "0.25"}
        )
        with pytest.raises(ValidationError):
            engine.evaluate(encoded, query)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"edges": [{"from": 0, "to": 7, "cost": "1.000000000000"}]}, r"edge \(0, 7\) names node 7"),
            ({"edges": [{"from": 0, "to": 1}]}, "missing key 'cost'"),
            ({"params": None}, "missing key 'params'"),
            ({"edges": [[0, 1, "1.000000000000"]]}, "edges are malformed: list indices"),
            ({"nodes": 5}, "nodes are malformed: 'int' object is not iterable"),
            (lambda payload: [payload], "payload is a list, not a mapping"),
            ({"nodes": [[0], 1]}, "nodes are malformed: unhashable type: 'list'"),
            ({"edges": [{"from": [0], "to": 1, "cost": "1.0"}]}, "edges are malformed: unhashable type: 'list'"),
            ({"params": [1]}, "params are malformed: cannot convert"),
            (lambda payload: {**payload, "edges": None}, "edges are malformed: 'NoneType' object is not iterable"),
            ({"params": ["ab"]}, "params are malformed: a list, not a Mapping"),
            ({"nodes": "01"}, "nodes are malformed: a str, not a list"),
        ],
        ids=[
            "edge-to-unknown-node", "edge-without-cost", "no-params", "edge-as-list",
            "number-nodes", "list-payload", "list-node", "list-edge-end", "list-params",
            "null-edges", "pair-list-params", "string-nodes",
        ],
    )
    def test_engine_refuses_a_malformed_representation(self, change, message):
        payload = {
            "nodes": [0, 1],
            "edges": [{"from": 0, "to": 1, "cost": "1.000000000000"}],
            "params": {},
            "version": canon.SCHEMA_VERSION,
        }
        if callable(change):
            payload = change(payload)
        else:
            payload = {key: value for key, value in {**payload, **change}.items() if value is not None}
        with pytest.raises(ValidationError, match=message):
            routing.DijkstraEngine().evaluate(canon.canonical_encode(payload), {"start": 0, "end": 1})

    def test_engine_failure_on_unknown_node(self, artifacts):
        factory = routing.CostSurfaceFactory()
        engine = routing.DijkstraEngine()
        encoded = factory.encode(
            artifacts, {"neighbor_weight": "0.5", "second_order_weight": "0.25"}
        )
        with pytest.raises(EngineFailure):
            engine.evaluate(encoded, {"start": 0, "end": 4000})


def outcome(call):
    """A call's result, or its exception's type and message."""
    try:
        return "ok", call()
    except Exception as exc:  # compared by type and message, whatever it is
        return type(exc), str(exc)


def engine_outcome(representation, query, engine=None):
    """The engine's result, from a fresh engine unless one is given."""

    def route():
        out = (engine or routing.DijkstraEngine()).evaluate(representation, query)
        return tuple(out["route_nodes"]), out["total_cost"]

    return outcome(route)


def reference_outcome(representation, query):
    """The generic path: decode the whole representation, read it, route."""

    def route():
        rep = CostRepresentation.from_payload(canon.canonical_decode(representation))
        found = dijkstra_route(rep, query["start"], query["end"])
        return found.route_nodes, found.total_cost

    return outcome(route)


# A sink node (3 has no out-edge), and costs that fall below 1e-6 or to
# zero, which str() would spell with an exponent.
SINK_GRAPH = make_graph(
    [(0, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)],
    [(0, 1, "2.000", "0.500"), (1, 2, "1.000", "0.250"), (2, 3, "3.000", "0.750"),
     (0, 2, "4.000", "0.100"), (2, 0, "1.500", "0.900")],
)
TINY_COST_GRAPH = make_graph(
    [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
    [(0, 1, "0.0000001", "0.000"), (1, 2, "0.000000000004", "0.500"), (0, 2, "1.000", "0.300")],
)
ZERO_COST_GRAPH = make_graph(
    [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
    [(0, 1, "0.000", "0.200"), (1, 2, "1.000", "0.500"), (0, 2, "2.000", "0.000")],
)
_graphs = st.one_of(
    st.builds(generate_demo_graph, st.integers(0, 10_000), st.integers(2, 60)),
    st.sampled_from([SINK_GRAPH, TINY_COST_GRAPH, ZERO_COST_GRAPH]),
)
_weights = st.one_of(
    st.integers(0, 3),
    st.integers(0, 3).map(str),
    st.decimals(0, 3, places=40).map(canon.decimal_string),
)


def _first_cost(cost):
    return lambda data: re.sub(rb'"cost":"[^"]*"', b'"cost":"%s"' % cost.encode(), data, count=1)


def _reordered(data):
    payload = json.loads(data)
    edges = [{"to": e["to"], "cost": e["cost"], "from": e["from"]} for e in payload["edges"]]
    reorder = {"nodes": payload["nodes"], "version": payload["version"],
               "params": payload["params"], "edges": edges}
    return json.dumps(reorder, separators=(",", ":")).encode()


def _repeated_pair(data):
    first = re.search(rb'\{"cost":"[^"]*"(,"from":[0-9]+,"to":[0-9]+\})', data)
    return data.replace(first.group(0), first.group(0) + b',{"cost":"7.5"' + first.group(1), 1)


# One change each to factory output, all of which the generic path reads.
LAYOUT_CHANGES = {
    "whitespace": lambda data: data.replace(b',"nodes":', b', "nodes":', 1),
    "leading-whitespace": lambda data: b" " + data,
    "byte-order-mark": lambda data: b"\xef\xbb\xbf" + data,
    "reordered-keys": _reordered,
    "duplicate-nodes-key": lambda data: data.replace(b',"params":', b',"nodes":[0,1],"params":', 1),
    "version-2": lambda data: data.replace(b'"version":"1"}', b'"version":"2"}'),
    "no-edges": lambda data: re.sub(rb'"edges":\[[^\]]*\]', b'"edges":[]', data),
    "cost-zero": _first_cost("0.000"),
    "cost-empty": _first_cost(""),
    "cost-space": _first_cost(" 1.5"),
    "cost-negative": _first_cost("-1.5"),
    "cost-exponent": _first_cost("1e3"),
    "cost-leading-zero": _first_cost("01.5"),
    "cost-two-points": _first_cost("1.2.3"),
    "cost-comma": _first_cost("1,5"),
    "cost-trailing-point": _first_cost("1."),
    "node-007": lambda data: data.replace(b",7,", b",007,", 1),
    "node-minus-zero": lambda data: data.replace(b'"nodes":[0,', b'"nodes":[-0,', 1),
    "node-1.0": lambda data: data.replace(b",1,", b",1.0,", 1),
    "edge-from-minus-zero": lambda data: data.replace(b'"from":0,', b'"from":-0,', 1),
    "edge-from-007": lambda data: data.replace(b'"from":7,', b'"from":007,', 1),
    "edge-to-1.0": lambda data: data.replace(b'"to":1}', b'"to":1.0}', 1),
    "repeated-pair": _repeated_pair,
    "unknown-node": lambda data: data.replace(b'"to":1}', b'"to":99}', 1),
    "params-list": lambda data: re.sub(rb'"params":\{[^}]*\}', b'"params":["ab"]', data),
    "params-number": lambda data: re.sub(rb'"params":\{[^}]*\}', b'"params":5', data),
    "params-extra-key": lambda data: data.replace(b'"version":"1"}', b'"edges":[],"version":"1"}'),
    "trailing-space": lambda data: data + b" ",
    "trailing-bytes": lambda data: data + b"x",
    "invalid-utf-8": lambda data: data.replace(b'"params":{', b'"params":{"\xff":"1",', 1),
    "edge-keys-out-of-order": lambda data: re.sub(
        rb'"from":([0-9]+),"to":([0-9]+)\}', rb'"to":\2,"from":\1}', data, count=1),
    "separators-out-of-order": lambda data: re.sub(
        rb'","from":([0-9]+),"to":([0-9]+)\}', rb',"to":\1","from":\2}', data, count=1),
    "missing-comma": lambda data: data.replace(b"},{", b"}{", 1),
    "doubled-comma": lambda data: data.replace(b"},{", b"},,{", 1),
    "comma-moved-to-the-end": lambda data: data.replace(b"},{", b"}{", 1).replace(b"}],", b"},],", 1),
}


def encode_at(graph, second_order_weights, neighbor_weight="0.5"):
    """The factory's output for a graph at each second-order weight."""
    artifacts = {"graph": canon.canonical_encode(graph.to_payload())}
    factory = routing.CostSurfaceFactory()
    return [
        factory.encode(artifacts, {"neighbor_weight": neighbor_weight, "second_order_weight": sw})
        for sw in second_order_weights
    ]


def warm_engine(representation):
    """An engine that has evaluated ``representation``, so its memo holds
    that layout when the layout reader accepts it."""
    engine = routing.DijkstraEngine()
    outcome(lambda: engine.evaluate(representation, {"start": 0, "end": 0}))
    return engine


class TestLayoutReader:
    """DijkstraEngine.evaluate reads factory output in place and anything
    else through the generic path, with the same result either way, from
    an engine with an empty memo and from one holding the layout of the
    snapshot's other factory output."""

    @settings(deadline=None, max_examples=150)
    @given(graph=_graphs, nw=_weights, sw=_weights, data=st.data())
    def test_engine_agrees_with_the_generic_path(self, graph, nw, sw, data):
        (encoded,) = encode_at(graph, [sw], nw)
        assert encoded == canon.canonical_encode(build_cost_representation(graph, nw, sw).to_payload())
        costs = [edge["cost"] for edge in canon.canonical_decode(encoded)["edges"]]
        assert all(re.fullmatch(r"[0-9]+\.[0-9]{12}", cost) for cost in costs)
        ids = st.integers(-1, len(graph.nodes))
        query = {"start": data.draw(ids), "end": data.draw(ids)}
        warm = warm_engine(*encode_at(graph, ["1"], "1"))
        for engine in (routing.DijkstraEngine(), warm):
            assert engine_outcome(encoded, query, engine) == reference_outcome(encoded, query)
        in_place = bool(costs) and all(Decimal(cost) > 0 for cost in costs)
        assert (routing._read_layout(encoded) is not None) == in_place
        assert warm._layout is None or (routing._memo_read(warm._layout, encoded) is not None) == in_place

    @pytest.fixture(scope="class")
    def factory_output(self):
        return encode_at(generate_demo_graph(6, 12), ["0.25"])[0]

    QUERY = {"start": 0, "end": 11}

    @pytest.mark.parametrize("change", sorted(LAYOUT_CHANGES))
    def test_changed_factory_output_gets_the_generic_result(self, factory_output, change):
        changed = LAYOUT_CHANGES[change](factory_output)
        assert changed != factory_output
        warm = warm_engine(factory_output)
        assert warm._layout is not None
        for engine in (routing.DijkstraEngine(), warm):
            assert engine_outcome(changed, self.QUERY, engine) == reference_outcome(changed, self.QUERY)

    def spy(self, monkeypatch, representation):
        """Count the whole-representation decodes and from_payload calls."""
        calls = {"decode": 0, "from_payload": 0}
        decode, from_payload = canon.canonical_decode, CostRepresentation.from_payload

        def counting_decode(data):
            calls["decode"] += data == representation
            return decode(data)

        def counting_from_payload(cls, payload):
            calls["from_payload"] += 1
            return from_payload(payload)

        monkeypatch.setattr(canon, "canonical_decode", counting_decode)
        monkeypatch.setattr(CostRepresentation, "from_payload", classmethod(counting_from_payload))
        return calls

    def test_factory_output_is_read_in_place(self, factory_output, monkeypatch):
        calls = self.spy(monkeypatch, factory_output)
        out = routing.DijkstraEngine().evaluate(factory_output, self.QUERY)
        assert calls == {"decode": 0, "from_payload": 0}
        assert out["route_nodes"][0] == 0 and out["route_nodes"][-1] == 11

    @pytest.mark.parametrize("change", sorted(LAYOUT_CHANGES))
    def test_changed_factory_output_takes_the_generic_path(self, factory_output, change, monkeypatch):
        changed = LAYOUT_CHANGES[change](factory_output)
        decodes = outcome(lambda: canon.canonical_decode(changed))[0] == "ok"
        engines = (routing.DijkstraEngine(), warm_engine(factory_output))
        calls = self.spy(monkeypatch, changed)
        for engine in engines:
            outcome(lambda: engine.evaluate(changed, self.QUERY))
        assert calls == {"decode": 2, "from_payload": 2 * int(decodes)}

    def test_a_second_evaluate_of_one_snapshot_skips_the_full_validator(self, monkeypatch):
        first, second = encode_at(generate_demo_graph(6, 12), ["0.25", "0.75"])
        read = []
        read_layout = routing._read_layout
        monkeypatch.setattr(routing, "_read_layout", lambda data: read.append(data) or read_layout(data))
        engine = routing.DijkstraEngine()
        for representation in (first, second, first):
            assert engine_outcome(representation, self.QUERY, engine) == reference_outcome(representation, self.QUERY)
        assert read == [first]

    def test_alternating_graphs_get_the_generic_result(self):
        graph_a, graph_b = generate_demo_graph(6, 12), generate_demo_graph(7, 12)
        engine = routing.DijkstraEngine()
        for graph, sw in ((graph_a, "0.25"), (graph_b, "0.25"), (graph_a, "0.75")):
            (representation,) = encode_at(graph, [sw])
            assert engine_outcome(representation, self.QUERY, engine) == reference_outcome(representation, self.QUERY)

    def test_two_threads_sharing_an_engine_get_the_generic_results(self):
        groups = [encode_at(generate_demo_graph(seed, 60), ["0.25", "0.5", "0.75"]) for seed in (6, 7)]
        query = {"start": 0, "end": 59}
        expected = {rep: reference_outcome(rep, query) for group in groups for rep in group}
        engine = routing.DijkstraEngine()
        seen = []

        def evaluate(first_group):
            for i in range(25):
                representation = groups[(first_group + i) % 2][i % 3]
                seen.append((representation, engine_outcome(representation, query, engine)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(group,)) for group in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 50
        assert all(out == expected[rep] for rep, out in seen)

    def test_a_warm_evaluate_allocates_a_bounded_multiple_of_its_bytes(self):
        """On Python 3.11 a warm evaluate of the demo representation peaks
        near 5.2 times its length and a cold one, which reads the layout
        in full, near 11.5; a regex that backtracks over the joined costs
        would add some 1.2 MB, about 10 times the length."""
        first, second = encode_at(generate_demo_graph(routing.DEMO_SEED), ["0.25", "0.5"])
        engine = warm_engine(first)
        assert engine._layout is not None
        tracemalloc.start()
        try:
            engine.evaluate(second, routing.DEMO_QUERY)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * len(second)


class TestDemoArena:
    def test_arena_is_pure_and_stable(self):
        _, a = routing.demo_arena()
        _, b = routing.demo_arena()
        assert a[0].snapshot_id == b[0].snapshot_id
        assert [str(p.plan_id) for p in a] == [str(p.plan_id) for p in b]
        assert a[0].plan_id != a[1].plan_id

    def test_plans_share_snapshot_and_policy(self):
        _, plans = routing.demo_arena()
        assert plans[0].snapshot_id == plans[1].snapshot_id
        assert plans[0].policy_id == plans[1].policy_id
        assert plans[0].query == routing.DEMO_QUERY

    def test_grids_overlap_on_shared_point(self):
        _, plans = routing.demo_arena()
        grids = [plan.grid_points() for plan in plans]
        shared = {"neighbor_weight": "0.5", "second_order_weight": "0.25"}
        assert shared in grids[0]
        assert shared in grids[1]


class CountingDijkstra(routing.DijkstraEngine):
    calls = 0

    def evaluate(self, representation, query):
        self.calls += 1
        return super().evaluate(representation, query)


class TestDemoReuse:
    @pytest.fixture()
    def st(self, tmp_path):
        with open_store(tmp_path / "db") as s:
            yield s

    def test_rerun_of_a_one_point_plan_calls_no_engine(self, st):
        _, second_order = routing.persist_demo(st)
        plan = sweep.persist_plan(
            st, replace(second_order, axes=[sweep.Axis("second_order_weight", ("0.5",))])
        )
        first = routing.run_plan(st, plan)
        statements = []
        st._conn.set_trace_callback(statements.append)
        engine = CountingDijkstra()
        sweep.declare_representations(st, plan, routing.CostSurfaceFactory())
        assert sweep.execute_sweep(st, plan, engine) == first
        assert engine.calls == 0
        assert not [s for s in statements if s.startswith("INSERT")]

    def test_second_demo_plan_reuses_the_shared_point(self, st):
        first, second = routing.persist_demo(st)
        routing.run_plan(st, first)
        engine = CountingDijkstra()
        sweep.declare_representations(st, second, routing.CostSurfaceFactory())
        sweep.execute_sweep(st, second, engine)
        # (0.5, 0.25) is on both grids; only (0.5, 0.5) is new.
        assert engine.calls == 1
