"""The admissible-cover stabilization as it stood before the graph-level
``graphs.stabilize_graph`` replaced it: a reference that the contraction
rules are compared against up to isomorphism.

It interleaves tail deletion and bridge contraction in one sweep and
names every merged edge ``ctr:<least edge>``, so only the isomorphism
class of its output is expected to agree.
"""

from __future__ import annotations

from drloci.graphs import MarkedDualGraph, incident


def stabilize_marked_graph(graph: MarkedDualGraph) -> MarkedDualGraph:
    """Graph-level stabilization: drop unstable rational components,
    contracting bridges, deleting bare tails, and sliding the marked
    point of a one-node one-leg tail onto its neighbor."""
    vertices = {v: g for v, g in graph.vertices}
    edges = {e: ends for e, ends in graph.edges}
    legs = {l: (v, m) for l, v, m in graph.legs}

    def legs_at(v):
        return [l for l, (vv, _) in legs.items() if vv == v]

    changed = True
    while changed:
        changed = False
        for v in list(vertices):
            if vertices[v] != 0:
                continue
            inc = incident(edges.items(), v)
            ls = legs_at(v)
            if len(inc) + len(ls) > 2:
                continue
            if len(inc) == 1:
                (e, s) = inc[0]
                anchor = edges[e][1 - s]
                for l in ls:
                    legs[l] = (anchor, legs[l][1])
                del edges[e]
                del vertices[v]
                changed = True
            elif len(inc) == 2 and not ls:
                (e1, s1), (e2, s2) = inc
                if e1 == e2:
                    continue  # unstable self-loop: not a stabilization input
                new_id = f"ctr:{min(e1, e2)}"
                new_ends = (edges[e1][1 - s1], edges[e2][1 - s2])
                del edges[e1]
                del edges[e2]
                edges[new_id] = new_ends
                del vertices[v]
                changed = True
    return MarkedDualGraph.build(sorted(vertices.items()), sorted(edges.items()),
                                 sorted((l, v, m) for l, (v, m) in legs.items()))
