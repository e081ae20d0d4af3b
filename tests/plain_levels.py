"""The plain level-structure enumeration: the reference that
``graphs.enumerate_level_structures`` must reproduce structure for
structure, in the same order.

It computes a canonical key for every ordered set partition of the
vertices and keeps the first partition reached with each key.  Colour
refinement here returns colours whose nesting depth is its round count,
so keys of different depth cannot be compared and the final sort raises
``TypeError`` on graphs such as genus-0 cycles and paths of length >= 4.
``orbit_walk`` walks the same candidates as level tuples, keeps the first
of each automorphism orbit and sorts full keys, which always compare.
"""

from __future__ import annotations

import itertools
import operator

from drloci.graphs import (EnumerationCapExceeded, LevelStructure, MarkedDualGraph,
                           _automorphism_generators)


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


def orbit_walk(graph: MarkedDualGraph, max_levels: int | None = None, cap: int = 200_000,
               pole_carrying: bool = False) -> list[LevelStructure]:
    """The level tuples walked depth by depth, the first of each
    automorphism orbit kept, every candidate counted toward ``cap`` as it
    is reached, and each kept tuple keyed with the labeller's full key, as
    ``canonical_key`` keys it.  Full keys of any round counts compare, so
    this is the reference where the plain enumeration above raises
    ``TypeError``: where keys of round 0 and rounds >= 1 mix.
    """
    if max_levels is not None and max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    vs = graph.vertex_ids
    n = len(vs)
    limit = n if max_levels is None else max_levels
    lab = graph._labeller
    key, poles = lab.key, {i for i, m in lab.legs if m < 0}
    # a generator exists only with >= 2 vertices, so each getter returns a tuple
    moves = [operator.itemgetter(*p) for p in _automorphism_generators(graph)]
    # positions in id order (a repeated id's last, as a dict keeps); the trailing
    # 0, which zip drops, keeps the getter's result a tuple when n == 1
    index = {v: i for i, v in enumerate(vs)}
    ids = sorted(index)
    in_id_order = operator.itemgetter(*[index[v] for v in ids], 0)

    covered: set[tuple[int, ...]] = set()
    kept: list[tuple[tuple, tuple[int, ...]]] = []  # an orbit is a class: keys all differ
    level, count = [0] * n, 0

    def walk(remaining: tuple[int, ...], depth: int):
        nonlocal count
        size, pool = len(remaining), remaining
        if pole_carrying:  # a vertex here needs a pole leg or a neighbour placed higher
            pool = tuple([i for i in remaining if i in poles
                          or any(j not in remaining for j in lab.nbrs[i])])
        # at the last allowed depth only the subset of every remaining vertex ends in a leaf
        for r in range(1 if depth + 1 < limit else size, len(pool) + 1):
            for subset in itertools.combinations(pool, r):
                for i in subset:
                    level[i] = -depth
                if r < size:
                    walk(tuple([i for i in remaining if i not in subset]), depth + 1)
                    continue
                count += 1
                if count > cap:
                    raise EnumerationCapExceeded(cap)
                current = tuple(level)
                if moves:  # a rigid graph's orbits are single tuples
                    if current in covered:
                        continue
                    # earlier orbits are closed, so an image already covered is in this one
                    covered.add(current)
                    frontier = [current]
                    while frontier:
                        member = frontier.pop()
                        for move in moves:
                            image = move(member)
                            if image not in covered:
                                covered.add(image)
                                frontier.append(image)
                kept.append((key(current), current))

    if n:
        walk(tuple(range(n)), 0)
    kept.sort(key=operator.itemgetter(0))
    return [LevelStructure(tuple(zip(ids, in_id_order(t)))) for _, t in kept]
