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
let ``graphs.stabilize_graph`` delete rational tails and contract
rational bridges, each merged edge keeping the outer order data.  Its
``graphs.Contraction`` is the record both directions return.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .decorations import (DecorationReport, TwdrDecoration, TwrDecoration,
                          site_key, validate_twdr, validate_twr)
from .graphs import (Contraction, LevelStructure, MarkedDualGraph, bridge_stem,
                     half_edge_id, stabilize_graph)


class TwistError(ValueError):
    pass


@dataclass
class TwistResult:
    graph: MarkedDualGraph
    levels: LevelStructure
    decoration: TwdrDecoration
    contraction: Contraction
    extended_partition: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "graph": self.graph.to_json(),
            "levels": self.levels.to_json(),
            "decoration": self.decoration.to_json(),
            "contraction": self.contraction.to_json(self.graph.vertex_ids),
            "extended_partition": list(self.extended_partition),
        }


def twist(graph: MarkedDualGraph, levels: LevelStructure,
          dec: TwrDecoration) -> TwistResult:
    """Canonical twist of a valid inequality-form decoration.

    Implements the one construction recipe: simple extra-critical legs
    close every vertex deficit, a bridge is inserted exactly at the edges
    with order sum > -2, and bridge levels follow the pole-side rule.  The
    twist is checked by ``stabilize``, which must give back the input
    exactly, and its contraction record is the one ``stabilize`` returns.
    """
    report = validate_twr(graph, levels, dec)
    if not report.ok:
        raise TwistError(f"input is not a valid twistable decoration: {report.violations}")

    shared: dict[str, int] = {v: 2 * levels.of[v] for v in graph.vertex_ids}
    new_edges: list[tuple[str, tuple[str, str]]] = []
    new_vertices: list[tuple[str, int]] = list(graph.vertices)
    orders: dict[str, tuple[int, bool]] = {}
    extra_legs: list[tuple[str, str, int]] = []
    rename: dict[str, str] = {}  # the end sites of a bridged edge move onto its bridge

    for v, g in graph.vertices:
        for k in range(report.deficits[v]):
            extra_legs.append((f"c:{v}:{k}", v, 1))
    # bridges are named tw0, tw1, ... in edge order, skipping the graph's vertex ids
    bridge_ids = (w for k in itertools.count() if (w := f"tw{k}") not in graph.genus_of)
    # bridge edges <stem>:a, <stem>:b avoid the edges and the legs read as half-edges
    taken = {*graph.edge_ends, *(l.rsplit(".", 1)[0] for l in graph.leg_info)}

    for e, (a, b) in graph.edges:
        h0, h1 = half_edge_id(e, 0), half_edge_id(e, 1)
        (o0, p0), (o1, p1) = dec.order_of[h0], dec.order_of[h1]
        if o0 + o1 == -2:
            new_edges.append((e, (a, b)))
            orders[h0] = (o0, p0)
            orders[h1] = (o1, p1)
            continue
        w = next(bridge_ids)
        new_vertices.append((w, 0))
        stem = bridge_stem(e, taken)
        ea, eb = f"{stem}:a", f"{stem}:b"
        taken |= {ea, eb}
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
        rename[site_key(a, h0)] = site_key(a, half_edge_id(ea, 0))
        rename[site_key(b, h1)] = site_key(b, half_edge_id(eb, 1))

    values = {rename.get(k, k): v for k, v in dec.value_of.items()}

    new_graph = MarkedDualGraph.build(new_vertices, new_edges, graph.legs)
    new_levels = LevelStructure.normalize(shared)
    base = TwrDecoration.build(orders, values, dec.marked_zero_vertices)
    twdr = TwdrDecoration.build(base, extra_legs)
    back_graph, back_levels, back_dec, contraction = stabilize(new_graph, new_levels, twdr)
    if (back_graph, back_levels, back_dec) != (graph, levels, dec):
        raise TwistError("the stabilization of the twist is not its input")
    mu_hat = tuple(m - 1 for m in graph.mu) + tuple(sorted(o for _, _, o in extra_legs))
    return TwistResult(new_graph, new_levels, twdr, contraction, mu_hat)


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


def stabilize(graph: MarkedDualGraph, levels: LevelStructure, dec: TwdrDecoration
              ) -> tuple[MarkedDualGraph, LevelStructure, TwrDecoration, Contraction]:
    """Drop extra-critical legs and contract unstable chains.

    ``graphs.stabilize_graph`` deletes the tails, which carry no marked
    point, and turns each bridge chain into a single edge carrying the
    outer order data.  Inputs violating the local-maximum lemma, or
    leaving a marked or self-looped component unstable, are rejected:
    they are not stabilizations of anything valid.
    """
    check = validate_twdr(graph, levels, dec)
    if not check.ok:
        raise TwistError(f"input is not a valid fully-marked decoration: {check.violations}")
    lm = check_local_max(graph, levels, dec)
    if not lm.ok:
        raise TwistError(f"local-maximum violations: {lm.violations}")

    new_graph, record = stabilize_graph(graph)
    unstable = [v for v, g in new_graph.vertices if g == 0 and new_graph.valence(v) <= 2]
    if loops := [v for v in unstable if new_graph.edges_at(v) and not new_graph.legs_of(v)]:
        raise TwistError(f"unstable self-loop at {loops[0]} cannot be contracted")
    if left := [*record.moved_legs.values(), *unstable]:
        raise TwistError(f"stabilization leaves marked component {left[0]} unstable")

    orders: dict[str, tuple[int, bool]] = {}
    rename: dict[str, str] = {}
    for h, src in record.under.items():
        v = new_graph.half_edge_vertex(h)
        orders[h] = dec.base.order_of[src]
        rename[site_key(v, src)] = site_key(v, h)
    # no leg moved, so leg sites keep their keys; other sites not mapped are gone
    values = {rename.get(k, k): x for k, x in dec.base.value_of.items()
              if k in rename or k.split(":", 1)[1] in graph.leg_info}
    new_levels = LevelStructure.normalize({v: levels.of[v] for v in new_graph.vertex_ids})
    new_dec = TwrDecoration.build(orders, values, dec.base.marked_zero_vertices)
    final = validate_twr(new_graph, new_levels, new_dec)
    if not final.ok:
        raise TwistError(f"stabilization produced an invalid decoration: {final.violations}")
    return new_graph, new_levels, new_dec, record
