"""Marked dual graphs of stable curves and their level structures.

A marked dual graph has vertices labeled by geometric genus, edges for
the nodes (self-loops and parallel edges allowed), and legs for the
marked points, each leg carrying an integer order label mu.  A level
structure is a normalized map from vertices to {0,-1,...,-L}; it splits
edges into horizontal (equal levels) and vertical ones.  The evaluation
machinery in ``homology`` reads from it the down-set below a level and
the level slice in which every edge descending from the level is cut in
the middle.  ``stabilize_graph`` contracts the unstable rational
components of a graph, for twisting and admissible covers alike.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property


class EnumerationCapExceeded(RuntimeError):
    """Raised when level-structure enumeration would exceed the cap."""

    def __init__(self, bound: int):
        super().__init__(f"level structure enumeration exceeds cap ({bound} candidates)")


def json_int(value, what: str) -> int:
    """``value`` when it is a JSON integer (a boolean is not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def half_edge_id(edge_id: str, side: int) -> str:
    return f"{edge_id}.{side}"


def split_half_edge(hid: str) -> tuple[str, int]:
    """(edge id, side) of "<edge id>.<side>"; ValueError unless the side is 0 or 1."""
    edge_id, side = hid.rsplit(".", 1)
    return edge_id, ("0", "1").index(side)


def incident(edges, v: str) -> list[tuple[str, int]]:
    """(edge id, side) pairs at v among ``edges``, an iterable of (edge id,
    (end 0, end 1)) pairs; a self-loop appears twice."""
    return [(e, s) for e, ends in edges for s in (0, 1) if ends[s] == v]


@dataclass(frozen=True)
class MarkedDualGraph:
    """Dual graph: vertices (id, genus), edges (id, (v,v)), legs (id, v, mu)."""

    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, tuple[str, str]], ...]
    legs: tuple[tuple[str, str, int], ...]

    @staticmethod
    def build(vertices, edges, legs=()) -> "MarkedDualGraph":
        return MarkedDualGraph(
            tuple((str(v), int(g)) for v, g in vertices),
            tuple((str(e), (str(a), str(b))) for e, (a, b) in edges),
            tuple((str(l), str(v), int(m)) for l, v, m in legs),
        )

    @cached_property
    def genus_of(self) -> dict[str, int]:
        return {v: g for v, g in self.vertices}

    @cached_property
    def edge_ends(self) -> dict[str, tuple[str, str]]:
        return {e: ends for e, ends in self.edges}

    @cached_property
    def leg_info(self) -> dict[str, tuple[str, int]]:
        return {l: (v, m) for l, v, m in self.legs}

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    @cached_property
    def _labeller(self) -> "_Labeller":
        return _Labeller(self)

    @cached_property
    def memos(self) -> defaultdict[str, dict]:
        """Memos of pure stages on this graph (stage -> key -> value); they die with it."""
        return defaultdict(dict)

    def legs_of(self, v: str) -> list[tuple[str, int]]:
        return [(l, m) for l, vv, m in self.legs if vv == v]

    def edges_at(self, v: str) -> list[tuple[str, int]]:
        """(edge id, side) pairs incident to v; self-loops appear twice."""
        return incident(self.edges, v)

    def valence(self, v: str) -> int:
        return len(self.edges_at(v)) + len(self.legs_of(v))

    def half_edges(self) -> list[str]:
        return [half_edge_id(e, s) for e, _ in self.edges for s in (0, 1)]

    def half_edge_vertex(self, hid: str) -> str:
        e, s = split_half_edge(hid)
        return self.edge_ends[e][s]

    @cached_property
    def mu(self) -> tuple[int, ...]:
        return tuple(m for _, _, m in self.legs)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        nbrs = self._labeller.nbrs
        seen, frontier = {0}, [0]
        while frontier:
            for w in nbrs[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)

    @property
    def total_genus(self) -> int:  # the genera plus the first Betti number
        return sum(g for _, g in self.vertices) + len(self.edges) - len(self.vertices) + 1

    def vertex_stable(self, v: str) -> bool:
        return 2 * self.genus_of[v] - 2 + self.valence(v) > 0

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": v, "genus": g} for v, g in self.vertices],
            "edges": [{"id": e, "ends": list(ends)} for e, ends in self.edges],
            "legs": [{"id": l, "vertex": v, "mu": m} for l, v, m in self.legs],
        }

    @staticmethod
    def from_json(doc: dict) -> "MarkedDualGraph":
        return MarkedDualGraph.build(
            [(v["id"], json_int(v["genus"], f"genus of {v['id']}"))
             for v in doc.get("vertices", [])],
            [(e["id"], tuple(e["ends"])) for e in doc.get("edges", [])],
            [(l["id"], l["vertex"], json_int(l["mu"], f"mu of {l['id']}"))
             for l in doc.get("legs", [])],
        )


@dataclass
class GraphReport:
    errors: list[tuple[str, str]]
    connected: bool
    total_genus: int
    unstable_vertices: list[str]
    mu_sum: int

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def stable(self) -> bool:
        return not self.unstable_vertices

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "errors": [{"code": c, "where": w} for c, w in self.errors],
            "connected": self.connected,
            "genus": self.total_genus,
            "stable": self.stable,
            "unstable_vertices": self.unstable_vertices,
            "mu_sum": self.mu_sum,
        }


def validate(graph: MarkedDualGraph) -> GraphReport:
    """Structural diagnostics: ids, incidences, connectivity, genus, stability.
    Site keys read "<vertex>:<point>", so no vertex id may hold ":" and no
    leg id may equal a half-edge id."""
    errors: list[tuple[str, str]] = []
    seen_v = set()
    for v, g in graph.vertices:
        if v in seen_v:
            errors.append(("duplicate-vertex-id", v))
        if ":" in v:
            errors.append(("colon-in-vertex-id", v))
        seen_v.add(v)
        if g < 0:
            errors.append(("negative-genus", v))
    seen_e = set()
    for e, (a, b) in graph.edges:
        if e in seen_e:
            errors.append(("duplicate-edge-id", e))
        seen_e.add(e)
        for end in (a, b):
            if end not in seen_v:
                errors.append(("dangling-half-edge", f"{e}->{end}"))
    seen_l = set()
    half_edges = set(graph.half_edges())
    for l, v, _ in graph.legs:
        if l in seen_l:
            errors.append(("duplicate-leg-id", l))
        if l in half_edges:
            errors.append(("leg-id-is-half-edge-id", l))
        seen_l.add(l)
        if v not in seen_v:
            errors.append(("dangling-leg", f"{l}->{v}"))
    connected = graph.is_connected() if not errors else False
    if not connected and not errors:
        errors.append(("disconnected", "graph"))
    unstable = [v for v, _ in graph.vertices if not graph.vertex_stable(v)]
    return GraphReport(
        errors=errors,
        connected=connected,
        total_genus=graph.total_genus if not errors or connected else 0,
        unstable_vertices=unstable,
        mu_sum=sum(graph.mu),
    )


@dataclass
class Contraction:
    """What ``stabilize_graph`` did to the source graph, and the record
    that ``twisting.stabilize`` and ``twisting.twist`` return.

    ``edge_map`` sends every source edge to (image edge, +-1) when it
    survives into the image, to ("", 0) when the cellular contraction
    collapses it to a point (the second half of a contracted pair), and
    to None when it is deleted with a tail.  ``contracted`` sends each
    removed vertex to ("tail", anchor) or ("bridge", merged edge);
    ``under`` sends each image half-edge to the source half-edge it
    continues; ``moved_legs`` sends each leg slid off a tail to the
    vertex it first sat on.  No vertex is renamed.
    """

    edge_map: dict[str, tuple[str, int] | None]
    contracted: dict[str, tuple[str, str]]
    under: dict[str, str]
    moved_legs: dict[str, str]

    def to_json(self, source_vertex_ids) -> dict:
        return {
            "vertices": {v: v for v in source_vertex_ids if v not in self.contracted},
            "contracted": {v: list(k) for v, k in self.contracted.items()},
            "edges": {e: (list(im) if im else None) for e, im in self.edge_map.items()},
        }


def bridge_source(stem: str) -> str:
    """The edge that a bridge pair ``<stem>:a``/``<stem>:b`` stands for:
    ``stem`` less one escape prefix ``tw:``, ``tw2:``, ``tw3:``, ... when it
    has one, else ``stem``."""
    head, sep, rest = stem.partition(":")
    return rest if sep and head.rstrip("0123456789") == "tw" else stem


def bridge_stem(e: str, taken: set[str]) -> str:
    """The stem of the bridge pair ``twist`` inserts on the edge ``e``: the
    first of ``e``, ``tw:e``, ``tw2:e``, ... that ``bridge_source`` reads
    back as ``e`` and whose pair names are not ``taken``."""
    escaped = (f"tw{k if k > 1 else ''}:{e}" for k in itertools.count(1))
    return next(stem for stem in itertools.chain([e], escaped)
                if bridge_source(stem) == e and not {f"{stem}:a", f"{stem}:b"} & taken)


def stabilize_graph(graph: MarkedDualGraph) -> tuple[MarkedDualGraph, Contraction]:
    """Contract the unstable rational components of ``graph``.

    Rational tails (one node, at most one leg) go first, cascading, and a
    tail's leg moves to its anchor.  Then each legless rational vertex on
    two distinct nodes is contracted, one at a time, merging its nodes
    into one that starts at the outer end of the least edge: a bridge pair
    ``<stem>:a``/``<stem>:b`` becomes ``bridge_source(stem)``, any other
    pair ``ctr:<least edge>``.  A rational vertex on a lone self-loop is kept.
    The image keeps the source order of vertices and legs; edges follow
    their first source preimage.
    """
    vertices = dict(graph.vertices)
    edges = dict(graph.edges)
    legs = {l: v for l, v, _ in graph.legs}
    record = Contraction({e: (e, 1) for e in edges}, {}, {h: h for h in graph.half_edges()}, {})

    def rational_on(v: str, nodes: int, max_legs: int) -> list[tuple[str, int]] | None:
        at = incident(edges.items(), v)
        n_legs = sum(1 for w in legs.values() if w == v)
        return at if vertices[v] == 0 and len(at) == nodes and n_legs <= max_legs else None

    changed = True
    while changed:
        changed = False
        for v in list(vertices):
            if at := rational_on(v, 1, 1):
                [(e, s)] = at
                anchor = edges.pop(e)[1 - s]
                del vertices[v], record.under[half_edge_id(e, 0)], record.under[half_edge_id(e, 1)]
                record.edge_map[e] = None
                record.contracted[v] = ("tail", anchor)
                for l in [l for l, w in legs.items() if w == v]:
                    legs[l] = anchor
                    record.moved_legs.setdefault(l, v)
                changed = True

    while (mid := next((v for v in vertices
                        if (at := rational_on(v, 2, 0)) and at[0][0] != at[1][0]), None)) is not None:
        # the least edge f1 is traversed outer -> mid and carries the image; f2 collapses
        (f1, t1), (f2, t2) = sorted(at)
        twist_pair = f1.endswith(":a") and f2 == f1[:-1] + "b"
        new_id = bridge_source(f1[:-2]) if twist_pair else f"ctr:{f1}"
        while new_id in edges:  # the graph already has an edge of that name
            new_id = f"ctr:{new_id}"
        edges[new_id] = (edges.pop(f1)[1 - t1], edges.pop(f2)[1 - t2])
        del vertices[mid]
        for side, (f, t) in enumerate(((f1, t1), (f2, t2))):
            record.under[half_edge_id(new_id, side)] = record.under.pop(half_edge_id(f, 1 - t))
            del record.under[half_edge_id(f, t)]
        sign1 = 1 if t1 == 1 else -1
        for e, im in record.edge_map.items():
            if im and im[1] and im[0] in (f1, f2):
                record.edge_map[e] = (new_id, im[1] * sign1) if im[0] == f1 else ("", 0)
        record.contracted[mid] = ("bridge", new_id)

    images = dict.fromkeys(im[0] for e, _ in graph.edges if (im := record.edge_map[e]) and im[1])
    stable = MarkedDualGraph.build(vertices.items(), [(e, edges[e]) for e in images],
                                   [(l, legs[l], m) for l, _, m in graph.legs])
    return stable, record


@dataclass(frozen=True)
class LevelStructure:
    """Normalized level function on the vertices: values {0,-1,...,-L}."""

    level: tuple[tuple[str, int], ...]

    @staticmethod
    def build(mapping: dict[str, int]) -> "LevelStructure":
        return LevelStructure(tuple(sorted(mapping.items())))

    @cached_property
    def of(self) -> dict[str, int]:
        return {v: lv for v, lv in self.level}

    @staticmethod
    def normalize(mapping: dict[str, int]) -> "LevelStructure":
        """Relabel attained levels order-preservingly onto {0,...,-L}."""
        attained = sorted(set(mapping.values()), reverse=True)
        relabel = {lv: -i for i, lv in enumerate(attained)}
        return LevelStructure.build({v: relabel[lv] for v, lv in mapping.items()})

    def check_normalized(self, graph: MarkedDualGraph) -> None:
        vals = {self.of[v] for v in graph.vertex_ids}
        if max(vals) != 0 or vals != set(range(0, min(vals) - 1, -1)):
            raise ValueError(f"level structure not normalized: {sorted(vals)}")
        if set(self.of) != set(graph.vertex_ids):
            raise ValueError("level structure does not match vertex set")

    @property
    def depth(self) -> int:
        return -min(v for _, v in self.level)

    def attained(self) -> list[int]:
        return sorted({lv for _, lv in self.level}, reverse=True)

    def is_horizontal(self, graph: MarkedDualGraph, edge_id: str) -> bool:
        a, b = graph.edge_ends[edge_id]
        return self.of[a] == self.of[b]

    def to_json(self) -> dict:
        return dict(self.level)

    @staticmethod
    def from_json(doc: dict) -> "LevelStructure":
        return LevelStructure.build({str(k): json_int(v, f"level of {k}")
                                     for k, v in doc.items()})


# ---------------------------------------------------------------------------
# colored isomorphism / canonical labeling


class _Labeller:
    """Canonical labelling of one graph, built once per graph as index
    arrays over ``vertex_ids``: edge ends, legs and neighbours.  The colour
    (genus, level, sorted leg mus, degree) of each vertex at each level is
    tabulated with an integer code that sorts and compares as it does.  It
    keeps no reference to the graph, which holds it."""

    def __init__(self, graph: MarkedDualGraph):
        ids = graph.vertex_ids
        index = {v: i for i, v in enumerate(ids)}
        self.n, self.genera = len(ids), [g for _, g in graph.vertices]
        self.edge_ids = [e for e, _ in graph.edges]
        self.ends = [(index[a], index[b]) for _, (a, b) in graph.edges]
        self.legs = [(index[v], m) for _, v, m in graph.legs]
        # the far end of every half-edge at each vertex; a loop counts twice
        self.nbrs = [[b for a, b in self.ends if a == i] + [a for a, b in self.ends if b == i]
                     for i in range(self.n)]
        self.rows: dict[tuple, tuple[tuple, tuple]] = {}  # _rows without edge data
        self._tabulate(range(0, -self.n, -1))

    def _tabulate(self, levels) -> None:
        base = [(g, tuple(sorted(m for v, m in self.legs if v == i)), len(self.nbrs[i]))
                for i, g in enumerate(self.genera)]
        self.colour = [{lv: (g, lv, mus, deg) for lv in levels} for g, mus, deg in base]
        code = {c: i for i, c in enumerate(sorted({c for r in self.colour for c in r.values()}))}
        self.code = [{lv: code[c] for lv, c in row.items()} for row in self.colour]

    def refine(self, level: tuple[int, ...]):
        """Colour refinement: each round replaces the colour c of v by (c,
        sorted colours of v's neighbours) until a round splits no class.
        Returns the ranks each round sorted neighbours by, keys that sort and
        compare as the colours do (a round sorts rank and sorted neighbour
        ranks, never nested colours), and the number of classes."""
        try:
            keys = [row[lv] for row, lv in zip(self.code, level)]
        except KeyError:  # a level outside {0, ..., 1-n}: not normalized
            self._tabulate(set(level).union(self.colour[0]))
            return self.refine(level)
        ranks, classes = [], len(set(keys))
        while classes < self.n:
            index = {c: i for i, c in enumerate(sorted(set(keys)))}
            rank = [index[c] for c in keys]
            sig = [(r, tuple(sorted([rank[u] for u in ns]))) for r, ns in zip(rank, self.nbrs)]
            split = len(set(sig))
            # each new class lies inside an old one: equal counts, equal partitions
            if split == classes:
                break
            ranks.append(rank)
            keys, classes = sig, split
        return ranks, keys, classes

    def key(self, level: tuple[int, ...], edge_data=None) -> tuple:
        """``canonical_key`` at ``level``, one level per vertex in ``vertex_ids``:
        (refinement rounds, vertex row, edge row, leg row).  Enumeration calls
        it only for a candidate whose round-0 colour classes are not all
        singletons, and to break a tie between round-0 candidates with the
        same colour multiset; there the vertex rows are equal, so the edge and
        leg rows decide, as they do in the sort of ``canonical_key``."""
        ranks, keys, classes = self.refine(level)
        chain = tuple(sorted(range(self.n), key=keys.__getitem__))
        groups = chain if classes == self.n else tuple(
            tuple(c) for _, c in itertools.groupby(chain, keys.__getitem__))
        if edge_data:
            rows = self._rows(groups, [(a, b, edge_data(e, 0), edge_data(e, 1))
                                       for (a, b), e in zip(self.ends, self.edge_ids)])
        elif (rows := self.rows.get(groups)) is None:  # without edge data: by the classes alone
            rows = self.rows[groups] = self._rows(groups, [(a, b, (), ()) for a, b in self.ends])
        colours = [row[lv] for row, lv in zip(self.colour, level)]
        for rank in ranks:  # one nesting per round
            colours = [(c, tuple([colours[u] for u in sorted(ns, key=rank.__getitem__)]))
                       for c, ns in zip(colours, self.nbrs)]
        return (len(ranks), tuple(zip(range(self.n), [colours[v] for v in chain])), *rows)

    def _rows(self, groups: tuple, ends: list) -> tuple[tuple, tuple]:
        """Least edge row over the numberings of the classes (in order, each
        permuted), and the leg row; ``groups`` is flat if all are singletons."""
        labellings = [groups]  # class order, also the first of the product
        if len(groups) < self.n:
            labellings = (itertools.chain.from_iterable(p)
                          for p in itertools.product(*map(itertools.permutations, groups)))
        label, best = [0] * self.n, None
        for perm in labellings:
            for i, v in enumerate(perm):
                label[v] = i
            erow = []
            for a, b, d0, d1 in ends:
                s0, s1 = (label[a], d0), (label[b], d1)
                erow.append((s1, s0) if s1 < s0 else (s0, s1))
            erow.sort()
            if best is None:
                best, lrow = erow, tuple(sorted([(label[v], m) for v, m in self.legs]))
            elif erow < best:
                best = erow
        return tuple(best), lrow


def canonical_key(graph: MarkedDualGraph, levels: LevelStructure | None = None,
                  edge_data=None) -> tuple:
    """Canonical form of the (colored, leveled, decorated) graph.

    ``edge_data(edge_id, side) -> hashable`` attaches per-half-edge data
    (decorations) to the key.
    The key is (refinement rounds, vertex row, edge row, leg row); the
    round count also fixes how deeply the vertex colours are nested, so
    any two keys compare.  The graph's labeller (built once per graph)
    numbers the refined colour classes in colour order.  The vertex and leg
    rows are the same under every such numbering (a class shares its
    colour, hence its legs), so only the edge row is minimised, over the
    permutations within classes.
    """
    of = levels.of if levels is not None else dict.fromkeys(graph.vertex_ids, 0)
    return graph._labeller.key(tuple(of[v] for v in graph.vertex_ids), edge_data)


def isomorphic(a: MarkedDualGraph, b: MarkedDualGraph,
               levels_a: LevelStructure | None = None,
               levels_b: LevelStructure | None = None) -> bool:
    """Bijection of vertices/edges/legs preserving genus, mu, incidence, levels."""
    return canonical_key(a, levels_a) == canonical_key(b, levels_b)


def _automorphism_generators(graph: MarkedDualGraph) -> list[tuple[int, ...]]:
    """Generators of the graph's vertex automorphisms (permutations
    preserving genus, leg mu-labels per vertex and edge multiplicities) as
    index tuples over ``vertex_ids``: for each vertex i, from the last, and
    each later vertex j not yet in the orbit of i, one automorphism (if
    any) fixing the vertices before i and sending i to j.  These coset
    representatives along the chain of pointwise stabilizers generate the
    group.  Images are searched within the refined colour classes, which
    every automorphism preserves.
    """
    lab = graph._labeller
    n = lab.n
    mult = [[ns.count(j) for j in range(n)] for ns in lab.nbrs]  # a loop counts twice
    color = lab.refine((0,) * n)[1]

    def fits(image: list[int], j: int) -> bool:
        i = len(image)
        return (color[j] == color[i] and j not in image and mult[j][j] == mult[i][i]
                and all(mult[i][k] == mult[j][image[k]] for k in range(i)))

    def extend(image: list[int]) -> tuple[int, ...] | None:
        if len(image) == n:
            return tuple(image)
        for j in range(n):
            if fits(image, j):
                found = extend(image + [j])
                if found is not None:
                    return found
        return None

    gens = []
    for i in reversed(range(n)):  # gens so far generate the stabilizer of 0..i
        fixed, orbit = list(range(i)), {i}
        for j in range(i + 1, n):
            if j not in orbit and fits(fixed, j) and (perm := extend(fixed + [j])) is not None:
                gens.append(perm)
                while grown := {p[k] for p in gens for k in orbit} - orbit:
                    orbit |= grown
    return gens


def enumerate_level_structures(graph: MarkedDualGraph, max_levels: int | None = None,
                               cap: int = 200_000,
                               pole_carrying: bool = False) -> list[LevelStructure]:
    """All normalized level structures up to levelled-graph isomorphism.

    The candidates are the ordered set partitions of the vertices (top
    class first), walked per depth by subset size in ``combinations``
    order.  A candidate is an integer summing one weight per vertex at its
    depth: byte i holds the depth of vertex i, and the bits above hold V,
    the sum of B**(K-1-c) over vertices, c the labeller's code of the
    vertex colour at its level, K the number of codes and B a power of two
    above n, so no digit carries.  The candidates below each (remaining
    set, depth) are memoized, so one costs an addition per level.  Of each
    automorphism orbit (an isomorphism class) the first reached is kept.

    Ascending sorted codes, the order of round-0 ``canonical_key``s, are
    descending V.  A candidate whose V digits are all 0 or 1 (a mask test)
    has singleton round-0 classes, so a round-0 key, which is never built.
    The others are keyed once; keys of rounds >= 1 sort last, by key.
    Round-0 candidates sort by descending V, and equal V (equal vertex
    rows) by key.

    ``pole_carrying`` draws each depth from the remaining vertices with a
    leg of mu < 0 or a neighbour placed higher (a component's df needs a
    pole): the full list filtered, in its order.  ``cap`` bounds the
    candidates walked.  Only when the ordered set partitions into at most
    ``max_levels`` blocks exceed it is a pole-carrying walk counted,
    memoized, before any candidate is built.
    """
    if max_levels is not None and max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    vs = graph.vertex_ids
    n = len(vs)
    limit = n if max_levels is None else max_levels
    lab = graph._labeller
    poles = {i for i, m in lab.legs if m < 0}

    def choices(remaining: tuple[int, ...], depth: int):
        """(subset placed at ``depth``, rest) pairs below one walk node, in order."""
        size, pool = len(remaining), remaining
        if pole_carrying:  # a vertex here needs a pole leg or a neighbour placed higher
            pool = tuple([i for i in remaining if i in poles
                          or any(j not in remaining for j in lab.nbrs[i])])
        # at the last allowed depth only the subset of every remaining vertex ends in a leaf
        for r in range(1 if depth + 1 < limit else size, len(pool) + 1):
            for subset in itertools.combinations(pool, r):
                yield subset, tuple([i for i in remaining if i not in subset])

    @cache
    def count(remaining: tuple[int, ...], depth: int) -> int:  # exact up to cap + 1
        total = 0
        for _, rest in choices(remaining, depth):
            total += count(rest, depth + 1) if rest else 1
            if total > cap:
                break
        return total

    everything = tuple(range(n))  # the walk without pole_carrying: the ordered set partitions
    partitions = sum((-1) ** i * math.comb(j, i) * (j - i) ** n
                     for j in range(1, min(n, limit) + 1) for i in range(j + 1))
    if partitions > cap and (not pole_carrying or count(everything, 0) > cap):
        raise EnumerationCapExceeded(cap)
    if min(n, limit) > 256:  # a depth is one byte of a candidate
        raise ValueError(f"at most 256 levels can be enumerated, got {min(n, limit)}")

    top = max([c for row in lab.code for c in row.values()], default=0)
    bits, low = n.bit_length(), 8 * n  # a V digit counts at most n vertices
    weight = [[(1 << bits * (top - row[-d]) + low) + (d << 8 * i) for i, row in enumerate(lab.code)]
              for d in range(min(n, limit))]
    multi = sum((1 << bits) - 2 << bits * c for c in range(top + 1)) << low
    depths = (1 << low) - 1

    @cache
    def completions(remaining: tuple[int, ...], depth: int) -> list[int]:
        out, at = [], weight[depth].__getitem__
        for subset, rest in choices(remaining, depth):
            w = sum(map(at, subset))
            out += [w + x for x in completions(rest, depth + 1)] if rest else [w]
        return out

    def level(x: int) -> tuple[int, ...]:
        return tuple([-d for d in (x & depths).to_bytes(n, "little")])

    # a generator exists only with >= 2 vertices, so each getter returns a tuple
    moves = [operator.itemgetter(*p) for p in _automorphism_generators(graph)]
    covered: set[tuple[int, ...]] = set()
    round0, later, keys = [], [], {}
    for x in completions(everything, 0) if n else ():
        if moves:  # a rigid graph's orbits are single candidates
            current = tuple((x & depths).to_bytes(n, "little"))
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
        if x & multi:  # a round-0 class holds two vertices: refine
            key = lab.key(level(x))
            if key[0]:
                later.append((key, x))
                continue
            keys[x] = key
        round0.append(x)

    round0.sort(reverse=True)
    if len(set(high := [x >> low for x in round0])) < len(high):  # equal V: the key decides
        runs = (list(run) for _, run in itertools.groupby(round0, lambda x: x >> low))
        round0 = [x for run in runs for x in (
            sorted(run, key=lambda x: keys.get(x) or lab.key(level(x))) if len(run) > 1 else run)]
    later.sort(key=operator.itemgetter(0))
    # positions in id order (a repeated id's last, as a dict keeps); the trailing
    # 0, which map drops, keeps the getter's result a tuple when n == 1
    index = {v: i for i, v in enumerate(vs)}
    ids = sorted(index)
    in_id_order = operator.itemgetter(*[index[v] for v in ids], 0)
    pairs = [[(v, -d) for d in range(n)] for v in ids]  # (id, level) by id position and depth
    return [LevelStructure(tuple(map(operator.getitem, pairs,
                                     in_id_order((x & depths).to_bytes(n, "little")))))
            for x in round0 + [x for _, x in later]]
