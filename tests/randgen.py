"""Deterministic random generators shared by the property suites."""

from __future__ import annotations

import random

from drloci.decorations import TwrDecoration, site_key, validate_twr
from drloci.graphs import LevelStructure, MarkedDualGraph, half_edge_id


def random_connected_graph(rng: random.Random, max_vertices: int = 8,
                           max_extra_edges: int = 3, max_legs: int = 4, max_genus: int = 2):
    n = rng.randint(1, max_vertices)
    vertices = [(f"v{i}", rng.randint(0, max_genus)) for i in range(n)]
    edges = []
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((f"e{len(edges)}", (f"v{j}", f"v{i}")))
    for _ in range(rng.randint(0, max_extra_edges)):
        a, b = rng.randrange(n), rng.randrange(n)
        edges.append((f"e{len(edges)}", (f"v{a}", f"v{b}")))
    legs = []
    for _ in range(rng.randint(0, max_legs)):
        legs.append((f"l{len(legs)}", f"v{rng.randrange(n)}", rng.randint(-3, 3)))
    return MarkedDualGraph.build(vertices, edges, legs)


def random_levels(rng: random.Random, graph: MarkedDualGraph) -> LevelStructure:
    depth = rng.randint(0, max(0, len(graph.vertices) - 1))
    raw = {v: -rng.randint(0, depth) for v in graph.vertex_ids}
    return LevelStructure.normalize(raw)


def random_twr(rng: random.Random, max_vertices: int = 6, max_ord: int = 6):
    """A valid, stable, decorated level graph with |ord| <= max_ord."""
    while True:
        n = rng.randint(2, max_vertices)
        vertices = [[f"v{i}", 0] for i in range(n)]
        edges = []
        for i in range(1, n):
            j = rng.randrange(i)
            edges.append((f"e{len(edges)}", (f"v{j}", f"v{i}")))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.append((f"e{len(edges)}", (f"v{a}", f"v{b}")))
        graph0 = MarkedDualGraph.build(vertices, edges)
        levels = random_levels(rng, graph0)

        orders: dict[str, tuple[int, bool]] = {}
        zero_marks: set[str] = set()
        for e, (a, b) in graph0.edges:
            la, lb = levels.of[a], levels.of[b]
            h0, h1 = half_edge_id(e, 0), half_edge_id(e, 1)
            if la == lb:
                orders[h0] = (rng.randint(0, 2), False)
                orders[h1] = (rng.randint(0, 2), False)
            else:
                up, dn = (h0, h1) if la > lb else (h1, h0)
                if rng.random() < 0.6:
                    m = rng.randint(1, (max_ord - 1) // 2)
                    odn = -m - 1
                    oup = rng.randint(max(0, -2 - odn), max_ord - 1)
                    orders[dn] = (odn, True)
                    orders[up] = (oup, False)
                else:
                    orders[up] = (rng.randint(0, 2), False)
                    orders[dn] = (rng.randint(0, 2), False)

        pole_total: dict[str, int] = {v: 0 for v, _ in vertices}
        nodal_zero: dict[str, int] = {v: 0 for v, _ in vertices}
        ord_sum: dict[str, int] = {v: 0 for v, _ in vertices}
        for e, (a, b) in graph0.edges:
            for side, v in ((0, a), (1, b)):
                o, pole = orders[half_edge_id(e, side)]
                ord_sum[v] += o
                if pole:
                    pole_total[v] += -o - 1

        legs = []
        values: dict[str, int] = {}
        for v, _ in vertices:
            deg = pole_total[v]
            if deg == 0:
                mu = rng.randint(1, 3)
                legs.append((f"m{len(legs)}", v, -mu))
                ord_sum[v] += -mu - 1
                deg = mu
            # optionally mark nodal zeros within the degree budget
            for e, side in graph0.edges_at(v):
                hid = half_edge_id(e, side)
                o, pole = orders[hid]
                if pole or rng.random() > 0.3:
                    continue
                if nodal_zero[v] + o + 1 <= deg:
                    nodal_zero[v] += o + 1
                    zero_marks.add(site_key(v, hid))
            rest = deg - nodal_zero[v]
            if rest > 0 and rng.random() < 0.5:
                legs.append((f"m{len(legs)}", v, rest))
                ord_sum[v] += rest - 1

        genus = {}
        for v, _ in vertices:
            g = max(0, -(-(ord_sum[v] + 2) // 2))  # ceil((s+2)/2)
            genus[v] = g + rng.randint(0, 1)

        graph = MarkedDualGraph.build(
            [(v, genus[v]) for v, _ in vertices], graph0.edges, legs)
        if not all(graph.vertex_stable(v) for v in graph.vertex_ids):
            continue
        dec = TwrDecoration.build(orders, {s: 0 for s in zero_marks})
        if validate_twr(graph, levels, dec).ok:
            return graph, levels, dec
