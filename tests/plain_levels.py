"""The plain level-structure enumeration: the reference that
``graphs.enumerate_level_structures`` must reproduce structure for
structure, in the same order.

It computes a canonical key for every ordered set partition of the
vertices and keeps the first partition reached with each key.  Colour
refinement here returns colours whose nesting depth is its round count,
so keys of different depth cannot be compared and the final sort raises
``TypeError`` on graphs such as genus-0 cycles and paths of length >= 4.
"""

from __future__ import annotations

import itertools

from drloci.graphs import EnumerationCapExceeded, LevelStructure, MarkedDualGraph


def _vertex_colors(graph: MarkedDualGraph, levels: LevelStructure | None) -> dict[str, tuple]:
    colors = {}
    for v, g in graph.vertices:
        mus = tuple(sorted(m for _, m in graph.legs_of(v)))
        lv = levels.of[v] if levels else 0
        colors[v] = (g, lv, mus, len(graph.edges_at(v)))
    return colors


def _refine(graph: MarkedDualGraph, colors: dict[str, tuple]) -> dict[str, tuple]:
    for _ in range(len(graph.vertices)):
        new = {}
        for v in graph.vertex_ids:
            nb = sorted(colors[graph.edge_ends[e][1 - s]] for e, s in graph.edges_at(v))
            new[v] = (colors[v], tuple(nb))
        if len(set(new.values())) == len(set(colors.values())) and all(
                (new[a] == new[b]) == (colors[a] == colors[b])
                for a in graph.vertex_ids for b in graph.vertex_ids):
            break
        colors = new
    return colors


def canonical_key(graph: MarkedDualGraph, levels: LevelStructure | None = None,
                  edge_data=None) -> tuple:
    colors = _refine(graph, _vertex_colors(graph, levels))
    classes: dict[tuple, list[str]] = {}
    for v in graph.vertex_ids:
        classes.setdefault(colors[v], []).append(v)
    ordered_classes = [sorted(classes[c]) for c in sorted(classes)]

    best = None
    for perms in itertools.product(*[itertools.permutations(c) for c in ordered_classes]):
        label: dict[str, int] = {}
        for cls in perms:
            for v in cls:
                label[v] = len(label)
        vrow = tuple(sorted((label[v], colors[v]) for v in graph.vertex_ids))
        erow = []
        for e, (a, b) in graph.edges:
            d0 = edge_data(e, 0) if edge_data else ()
            d1 = edge_data(e, 1) if edge_data else ()
            s0 = (label[a], d0)
            s1 = (label[b], d1)
            erow.append(tuple(sorted((s0, s1))))
        lrow = tuple(sorted((label[v], m) for _, v, m in graph.legs))
        key = (vrow, tuple(sorted(erow)), lrow)
        if best is None or key < best:
            best = key
    return best


def enumerate_level_structures(graph: MarkedDualGraph, max_levels: int | None = None,
                               cap: int = 200_000) -> list[LevelStructure]:
    vs = list(graph.vertex_ids)
    limit = max_levels if max_levels is not None else len(vs)

    seen: dict[tuple, LevelStructure] = {}
    count = 0

    def assign(remaining: list[str], classes: list[tuple[str, ...]]):
        nonlocal count
        if not remaining:
            if not classes:
                return
            mapping = {}
            for depth, cls in enumerate(classes):
                for v in cls:
                    mapping[v] = -depth
            count += 1
            if count > cap:
                raise EnumerationCapExceeded(cap)
            ls = LevelStructure.build(mapping)
            key = canonical_key(graph, ls)
            if key not in seen:
                seen[key] = ls
            return
        if len(classes) == limit:
            return
        for r in range(1, len(remaining) + 1):
            for subset in itertools.combinations(remaining, r):
                chosen = set(subset)
                rest = [x for x in remaining if x not in chosen]
                assign(rest, classes + [subset])

    assign(vs, [])
    return [seen[k] for k in sorted(seen)]
