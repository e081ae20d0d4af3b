"""Twisting and stabilization.

Twisting turns an inequality-form decoration into a fully marked one:
every edge whose order sum exceeds -2 receives a genus-0 bridge whose
two node orders are -ord(q+)-2 and -ord(q-)-2, the bridge's remaining
critical points are marked as simple extra-critical legs, and per-vertex
order deficits become simple extra-critical legs on the original
vertices.  Bridge levels are intermediate: just above the lower end when
that end is a pole, just below both ends when both are zeros.  Levels
are realized on a doubled integer scale (vertex v at 2*l(v), bridges at
odd values), which makes the two intermediate slots between consecutive
levels coincide the way the construction requires.

Stabilization is the inverse direction: drop the extra-critical legs,
delete rational tails outright and contract rational bridges, merging
each contracted chain into a single edge that keeps the outer order data.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decorations import (DecorationReport, TwdrDecoration, TwrDecoration,
                          site_key, validate_twdr, validate_twr)
from .graphs import LevelStructure, MarkedDualGraph, half_edge_id, incident


class TwistError(ValueError):
    pass


@dataclass
class ContractionMap:
    """Bookkeeping of a stabilization Gamma' -> Gamma.

    ``edge_map`` sends every source edge to (image edge, +-1) when the
    edge survives into the image, ("", 0) when the cellular contraction
    collapses it to a point (the second half of a bridge chain), or None
    for deleted tail edges, which no relative cycle may cross.
    ``site_map`` renames surviving value sites.
    """

    vertex_map: dict[str, str]
    contracted_vertices: dict[str, tuple[str, str]]  # v -> ("bridge", edge) | ("tail", anchor)
    edge_map: dict[str, tuple[str, int] | None]
    site_map: dict[str, str]
    shared_levels_src: dict[str, int]
    shared_levels_dst: dict[str, int]

    def to_json(self) -> dict:
        return {
            "vertices": dict(self.vertex_map),
            "contracted": {v: list(k) for v, k in self.contracted_vertices.items()},
            "edges": {e: (list(im) if im else None) for e, im in self.edge_map.items()},
        }


@dataclass
class TwistResult:
    graph: MarkedDualGraph
    levels: LevelStructure
    decoration: TwdrDecoration
    contraction: ContractionMap
    shared_levels: dict[str, int]
    extended_partition: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "levels": self.levels.to_json(),
            "decoration": self.decoration.to_json(),
            "contraction": self.contraction.to_json(),
            "extended_partition": list(self.extended_partition),
        }


def twist(graph: MarkedDualGraph, levels: LevelStructure,
          dec: TwrDecoration) -> TwistResult:
    """Canonical twist of a valid inequality-form decoration.

    Implements the one construction recipe: simple extra-critical legs
    close every vertex deficit, a bridge is inserted exactly at the edges
    with order sum > -2, and bridge levels follow the pole-side rule.
    """
    report = validate_twr(graph, levels, dec)
    if not report.ok:
        raise TwistError(f"input is not a valid twistable decoration: {report.violations}")

    shared: dict[str, int] = {v: 2 * levels.of[v] for v in graph.vertex_ids}
    new_edges: list[tuple[str, tuple[str, str]]] = []
    new_vertices: list[tuple[str, int]] = list(graph.vertices)
    orders: dict[str, tuple[int, bool]] = {}
    extra_legs: list[tuple[str, str, int]] = []
    site_map: dict[str, str] = {}
    vertex_map: dict[str, str] = {v: v for v in graph.vertex_ids}
    contracted: dict[str, tuple[str, str]] = {}
    edge_map: dict[str, tuple[str, int] | None] = {}

    for v, g in graph.vertices:
        for k in range(report.deficits[v]):
            extra_legs.append((f"c:{v}:{k}", v, 1))

    for e, (a, b) in graph.edges:
        h0, h1 = half_edge_id(e, 0), half_edge_id(e, 1)
        (o0, p0), (o1, p1) = dec.order_of[h0], dec.order_of[h1]
        if o0 + o1 == -2:
            new_edges.append((e, (a, b)))
            orders[h0] = (o0, p0)
            orders[h1] = (o1, p1)
            site_map[site_key(a, h0)] = site_key(a, h0)
            site_map[site_key(b, h1)] = site_key(b, h1)
            edge_map[e] = (e, 1)
            continue
        w = f"tw:{e}"
        new_vertices.append((w, 0))
        ea, eb = f"{e}:a", f"{e}:b"
        new_edges.append((ea, (a, w)))
        new_edges.append((eb, (w, b)))
        orders[half_edge_id(ea, 0)] = (o0, p0)
        orders[half_edge_id(ea, 1)] = (-o0 - 2, -o0 - 2 < 0)
        orders[half_edge_id(eb, 0)] = (-o1 - 2, -o1 - 2 < 0)
        orders[half_edge_id(eb, 1)] = (o1, p1)
        s_total = o0 + o1 + 2
        for k in range(s_total):
            extra_legs.append((f"c:{w}:{k}", w, 1))
        lv_a, lv_b = levels.of[a], levels.of[b]
        if p0:
            shared[w] = 2 * lv_a + 1
        elif p1:
            shared[w] = 2 * lv_b + 1
        else:
            shared[w] = 2 * min(lv_a, lv_b) - 1
        site_map[site_key(a, half_edge_id(ea, 0))] = site_key(a, h0)
        site_map[site_key(b, half_edge_id(eb, 1))] = site_key(b, h1)
        contracted[w] = ("bridge", e)
        edge_map[ea] = (e, 1)
        edge_map[eb] = ("", 0)

    rename_to_new = {old: new for new, old in site_map.items()}
    values = {rename_to_new.get(k, k): v for k, v in dec.value_of.items()}

    new_graph = MarkedDualGraph.build(new_vertices, new_edges, graph.legs)
    new_levels = LevelStructure.normalize({v: shared[v] for v, _ in new_vertices})
    base = TwrDecoration.build(orders, values, dec.marked_zero_vertices)
    twdr = TwdrDecoration.build(base, extra_legs)
    contraction = ContractionMap(
        vertex_map=vertex_map,
        contracted_vertices=contracted,
        edge_map=edge_map,
        site_map=site_map,
        shared_levels_src={v: shared[v] for v, _ in new_vertices},
        shared_levels_dst={v: shared[v] for v in graph.vertex_ids},
    )
    mu_hat = tuple(m - 1 for m in graph.mu) + tuple(sorted(o for _, _, o in extra_legs))
    result = TwistResult(new_graph, new_levels, twdr, contraction,
                         {v: shared[v] for v, _ in new_vertices}, mu_hat)
    check = validate_twdr(new_graph, new_levels, twdr)
    if not check.ok:
        raise TwistError(f"twist produced an invalid decoration: {check.violations}")
    return result


def check_local_max(graph: MarkedDualGraph, levels: LevelStructure,
                    dec: TwdrDecoration) -> DecorationReport:
    """Both clauses of the stabilization lemma on unstable components:
    no marked zero or pole, and two-node components are not local maxima
    for the level order."""
    report = DecorationReport()
    for v, g in graph.vertices:
        unstable = g == 0 and len(graph.edges_at(v)) + len(graph.legs_of(v)) <= 2
        if unstable and graph.legs_of(v):
            report.add("local-max", v, "unstable component carries a marked zero or pole")
        if unstable and len(graph.edges_at(v)) == 2:
            nb = [graph.edge_ends[e][1 - s] for e, s in graph.edges_at(v)]
            if all(levels.of[u] < levels.of[v] for u in nb):
                report.add("local-max", v, "two-node unstable component is a local maximum")
    return report


def stabilize(graph: MarkedDualGraph, levels: LevelStructure,
              dec: TwdrDecoration,
              shared_levels: dict[str, int] | None = None
              ) -> tuple[MarkedDualGraph, LevelStructure, TwrDecoration, ContractionMap]:
    """Drop extra-critical legs and contract unstable chains.

    Tails without marked points vanish with no replacement leg; each
    bridge chain becomes a single edge carrying the outer order data.
    Inputs violating the local-maximum lemma are rejected: they are not
    stabilizations of anything valid.
    """
    check = validate_twdr(graph, levels, dec)
    if not check.ok:
        raise TwistError(f"input is not a valid fully-marked decoration: {check.violations}")
    lm = check_local_max(graph, levels, dec)
    if not lm.ok:
        raise TwistError(f"local-maximum violations: {lm.violations}")

    shared = dict(shared_levels) if shared_levels else {v: levels.of[v] for v, _ in graph.vertices}
    vertices = {v: g for v, g in graph.vertices}
    edges = {e: ends for e, ends in graph.edges}
    orders = dict(dec.base.order_of)
    values = dict(dec.base.value_of)
    site_map: dict[str, str] = {site_key(graph.half_edge_vertex(h), h):
                                site_key(graph.half_edge_vertex(h), h)
                                for h in graph.half_edges()}
    edge_map: dict[str, tuple[str, int] | None] = {e: (e, 1) for e in edges}
    contracted: dict[str, tuple[str, str]] = {}
    legs_by_vertex: dict[str, list] = {}
    for l, v, m in graph.legs:
        legs_by_vertex.setdefault(v, []).append((l, v, m))

    def unstable_on(v: str, nodes: int) -> list[tuple[str, int]] | None:
        """The nodes at v, when v is an unmarked rational vertex on ``nodes`` of them."""
        at = incident(edges.items(), v)
        return at if vertices[v] == 0 and v not in legs_by_vertex and len(at) == nodes else None

    # delete rational tails, cascading
    changed = True
    while changed:
        changed = False
        for v in list(vertices):
            if at := unstable_on(v, 1):
                (e, s) = at[0]
                anchor = edges[e][1 - s]
                # the anchor keeps no trace of the removed node
                for side in (0, 1):
                    hid = half_edge_id(e, side)
                    orders.pop(hid, None)
                    vv = graph.edge_ends[e][side] if e in graph.edge_ends else edges[e][side]
                    values.pop(site_key(vv, hid), None)
                    site_map.pop(site_key(vv, hid), None)
                del edges[e]
                del vertices[v]
                edge_map[e] = None
                contracted[v] = ("tail", anchor)
                changed = True

    # contract rational bridges, one middle vertex at a time
    while (mid := next((v for v in vertices if unstable_on(v, 2)), None)) is not None:
        (e1, s1), (e2, s2) = incident(edges.items(), mid)
        if e1 == e2:
            raise TwistError(f"unstable self-loop at {mid} cannot be contracted")
        # f1 is traversed outer -> mid, f2 mid -> outer; keep twist naming
        base1, _, suf1 = e1.rpartition(":")
        base2, _, suf2 = e2.rpartition(":")
        if base1 and base1 == base2 and {suf1, suf2} == {"a", "b"}:
            new_id = base1
            (f1, t1), (f2, t2) = ((e1, s1), (e2, s2)) if suf1 == "a" else ((e2, s2), (e1, s1))
        else:
            new_id = f"ctr:{min(e1, e2)}"
            (f1, t1), (f2, t2) = sorted(((e1, s1), (e2, s2)))
        outer1 = half_edge_id(f1, 1 - t1)
        outer2 = half_edge_id(f2, 1 - t2)
        new_ends = (edges[f1][1 - t1], edges[f2][1 - t2])
        orders[half_edge_id(new_id, 0)] = orders.pop(outer1)
        orders[half_edge_id(new_id, 1)] = orders.pop(outer2)
        orders.pop(half_edge_id(f1, t1), None)
        orders.pop(half_edge_id(f2, t2), None)
        for old_h, new_side, vv in ((outer1, 0, new_ends[0]), (outer2, 1, new_ends[1])):
            old_site = site_key(vv, old_h)
            new_site = site_key(vv, half_edge_id(new_id, new_side))
            if old_site in values:
                values[new_site] = values.pop(old_site)
            for src, dst in list(site_map.items()):
                if dst == old_site:
                    site_map[src] = new_site
        # f1 carries the image (sign per orientation), f2 collapses
        sign1 = 1 if t1 == 1 else -1
        for old_e, im in list(edge_map.items()):
            if im and im[0] == f1:
                edge_map[old_e] = (new_id, im[1] * sign1)
            elif im and im[0] == f2:
                edge_map[old_e] = ("", 0)
        del edges[f1]
        del edges[f2]
        edges[new_id] = new_ends
        del vertices[mid]
        contracted[mid] = ("bridge", new_id)

    for v in vertices:
        if vertices[v] == 0 and len(incident(edges.items(), v) + legs_by_vertex.get(v, [])) <= 2:
            raise TwistError(f"stabilization leaves marked component {v} unstable")

    # rebuild preserving the source ordering so round trips are bit-exact
    vertex_order = [(v, vertices[v]) for v, _ in graph.vertices if v in vertices]
    edge_order: list[tuple[str, tuple[str, str]]] = []
    emitted: set[str] = set()
    for e, _ in graph.edges:
        im = edge_map.get(e)
        if im is None or im[1] == 0:
            continue
        eid = im[0]
        if eid in edges and eid not in emitted:
            edge_order.append((eid, edges[eid]))
            emitted.add(eid)
    for eid, ends in edges.items():
        if eid not in emitted:
            edge_order.append((eid, ends))
    new_graph = MarkedDualGraph.build(vertex_order, edge_order, graph.legs)
    shared_out = {v: shared[v] for v in vertices}
    new_levels = LevelStructure.normalize(shared_out)
    out_orders = {h: orders[h] for h in new_graph.half_edges()}
    out_values = {k: v for k, v in values.items()
                  if k.split(":", 1)[0] in vertices}
    new_dec = TwrDecoration.build(out_orders, out_values,
                                  dec.base.marked_zero_vertices)
    surviving = {site_key(new_graph.half_edge_vertex(h), h)
                 for h in new_graph.half_edges()}
    site_map = {src: dst for src, dst in site_map.items() if dst in surviving}
    cm = ContractionMap(
        vertex_map={v: v for v in vertices},
        contracted_vertices=contracted,
        edge_map=edge_map,
        site_map=site_map,
        shared_levels_src=shared,
        shared_levels_dst=shared_out,
    )
    final = validate_twr(new_graph, new_levels, new_dec)
    if not final.ok:
        raise TwistError(f"stabilization produced an invalid decoration: {final.violations}")
    return new_graph, new_levels, new_dec, cm
