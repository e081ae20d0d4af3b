"""The unpruned decoration enumeration: the reference that the pruned
``closure._decorations`` must reproduce yield for yield.

Edges are placed in graph order, each over all of its admissible option
pairs; a vertex is checked against its degree bounds after every
placement and against the closing conditions only once all of its
half-edges are placed.
"""

from __future__ import annotations

from drloci.graphs import LevelStructure, MarkedDualGraph, half_edge_id


def edge_options(graph: MarkedDualGraph, levels: LevelStructure, e: str,
                 max_deg: int) -> list[tuple[tuple[int, bool, bool], tuple[int, bool, bool]]]:
    """Admissible (order, pole, nodal-zero) pairs for the two sides of edge
    ``e``, in the order whose indices make a decoration's rank."""
    a, b = graph.edge_ends[e]
    la, lb = levels.of[a], levels.of[b]
    regular = [(o, False, zmark) for o in range(max_deg) for zmark in (False, True)]
    poles = [(-m - 1, True, False) for m in range(1, max_deg + 1)]
    opts = []
    if la == lb:
        for s0 in regular:
            for s1 in regular:
                opts.append((s0, s1))
        return opts
    upper_is_0 = la > lb
    for su in regular:
        for sl in regular + poles:
            if su[0] + sl[0] < -2:
                continue
            opts.append((su, sl) if upper_is_0 else (sl, su))
    return opts


def plain_decorations(graph: MarkedDualGraph, levels: LevelStructure,
                      max_deg: int):
    edges = [e for e, _ in graph.edges]
    leg_zero: dict[str, int] = {}
    leg_pole: dict[str, int] = {}
    leg_ord: dict[str, int] = {}
    marked: dict[str, bool] = {}
    remaining: dict[str, int] = {}
    for v, g in graph.vertices:
        leg_zero[v] = sum(m for _, m in graph.legs_of(v) if m > 0)
        leg_pole[v] = sum(-m for _, m in graph.legs_of(v) if m < 0)
        leg_ord[v] = sum(m - 1 for _, m in graph.legs_of(v))
        marked[v] = any(m > 0 for _, m in graph.legs_of(v))
        remaining[v] = len(graph.edges_at(v))
    pole_sum = {v: 0 for v in leg_zero}
    zero_sum = {v: 0 for v in leg_zero}
    ord_sum = {v: 0 for v in leg_zero}
    assignment: dict[str, tuple[int, bool]] = {}
    zero_marks: set[str] = set()

    def vertex_ok_partial(v: str) -> bool:
        return (leg_pole[v] + pole_sum[v] <= max_deg
                and leg_zero[v] + zero_sum[v] <= max_deg)

    def vertex_ok_final(v: str, g: int) -> bool:
        p = leg_pole[v] + pole_sum[v]
        z = leg_zero[v] + zero_sum[v]
        if p < 1 or p > max_deg:
            return False
        if marked[v] and z != p:
            return False
        if z > p:
            return False
        return leg_ord[v] + ord_sum[v] <= 2 * g - 2

    genus = dict(graph.vertices)

    def place(side_v: str, hid: str, opt: tuple[int, bool, bool], sign: int):
        o, pole, zmark = opt
        ord_sum[side_v] += sign * o
        if pole:
            pole_sum[side_v] += sign * (-o - 1)
        if zmark:
            zero_sum[side_v] += sign * (o + 1)
        remaining[side_v] += -sign
        if sign > 0:
            assignment[hid] = (o, pole)
            if zmark:
                zero_marks.add(hid)
        else:
            assignment.pop(hid, None)
            zero_marks.discard(hid)

    def rec(idx: int):
        if idx == len(edges):
            yield dict(assignment), set(zero_marks)
            return
        e = edges[idx]
        a, b = graph.edge_ends[e]
        for s0, s1 in edge_options(graph, levels, e, max_deg):
            place(a, half_edge_id(e, 0), s0, +1)
            place(b, half_edge_id(e, 1), s1, +1)
            ok = vertex_ok_partial(a) and vertex_ok_partial(b)
            if ok and remaining[a] == 0:
                ok = vertex_ok_final(a, genus[a])
            if ok and remaining[b] == 0 and b != a:
                ok = vertex_ok_final(b, genus[b])
            if ok:
                yield from rec(idx + 1)
            place(b, half_edge_id(e, 1), s1, -1)
            place(a, half_edge_id(e, 0), s0, -1)

    yield from rec(0)


def judged_plain_decorations(graph: MarkedDualGraph, levels: LevelStructure,
                             max_deg: int, judge_of):
    """The plain enumeration as (rank, orders, zero marks), keeping only the
    decorations whose zero pattern ``judge_of`` maps to a judge that gives
    every vertex a verdict.  The rank names, edge by edge, the index of the
    option taken in the edge's option list, so this is in rank order."""
    options = [edge_options(graph, levels, e, max_deg) for e, _ in graph.edges]
    judges: dict[frozenset, object] = {}
    for orders, zero_marks in plain_decorations(graph, levels, max_deg):
        zero_marks = frozenset(zero_marks)
        if zero_marks not in judges:
            judges[zero_marks] = judge_of(zero_marks)
        judge = judges[zero_marks]
        if judge is None or not all(judge.verdict(v, orders) for v in graph.vertex_ids):
            continue
        rank = tuple(opts.index(tuple((*orders[h], h in zero_marks)
                                      for h in (half_edge_id(e, 0), half_edge_id(e, 1))))
                     for (e, _), opts in zip(graph.edges, options))
        yield rank, orders, zero_marks
