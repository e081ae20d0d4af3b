"""Marked dual graphs of stable curves and their level structures.

A marked dual graph has vertices labeled by geometric genus, edges for
the nodes (self-loops and parallel edges allowed), and legs for the
marked points, each leg carrying an integer order label mu.  A level
structure is a normalized map from vertices to {0,-1,...,-L}; it splits
edges into horizontal (equal levels) and vertical ones and induces the
level subcomplexes used by the evaluation machinery: the full subgraph
below a level, and the level slice in which every edge descending from
the level is cut in the middle.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property


class EnumerationCapExceeded(RuntimeError):
    """Raised when level-structure enumeration would exceed the cap."""

    def __init__(self, bound: int):
        super().__init__(f"level structure enumeration exceeds cap ({bound} candidates)")
        self.bound = bound


def half_edge_id(edge_id: str, side: int) -> str:
    return f"{edge_id}.{side}"


def split_half_edge(hid: str) -> tuple[str, int]:
    edge_id, side = hid.rsplit(".", 1)
    return edge_id, int(side)


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
    def neighbours(self) -> dict[str, tuple[str, ...]]:
        """Far end of every half-edge at each vertex; a self-loop counts twice."""
        out: dict[str, list[str]] = {v: [] for v in self.vertex_ids}
        for _, (a, b) in self.edges:
            out[a].append(b)
            out[b].append(a)
        return {v: tuple(ns) for v, ns in out.items()}

    @cached_property
    def leg_mus(self) -> dict[str, tuple[int, ...]]:
        """Sorted mu-labels of the legs at each vertex."""
        out: dict[str, list[int]] = {v: [] for v in self.vertex_ids}
        for _, v, m in self.legs:
            out[v].append(m)
        return {v: tuple(sorted(ms)) for v, ms in out.items()}

    @cached_property
    def leg_info(self) -> dict[str, tuple[str, int]]:
        return {l: (v, m) for l, v, m in self.legs}

    @cached_property
    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.vertices)

    def legs_of(self, v: str) -> list[tuple[str, int]]:
        return [(l, m) for l, vv, m in self.legs if vv == v]

    def edges_at(self, v: str) -> list[tuple[str, int]]:
        """(edge id, side) pairs incident to v; self-loops appear twice."""
        out = []
        for e, (a, b) in self.edges:
            if a == v:
                out.append((e, 0))
            if b == v:
                out.append((e, 1))
        return out

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
        seen = {self.vertices[0][0]}
        frontier = [self.vertices[0][0]]
        adj: dict[str, set[str]] = {v: set() for v, _ in self.vertices}
        for _, (a, b) in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == len(self.vertices)

    @property
    def first_betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @property
    def total_genus(self) -> int:
        return sum(g for _, g in self.vertices) + self.first_betti

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
            [(v["id"], v["genus"]) for v in doc.get("vertices", [])],
            [(e["id"], tuple(e["ends"])) for e in doc.get("edges", [])],
            [(l["id"], l["vertex"], l["mu"]) for l in doc.get("legs", [])],
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
    """Structural diagnostics: ids, incidences, connectivity, genus, stability."""
    errors: list[tuple[str, str]] = []
    seen_v = set()
    for v, g in graph.vertices:
        if v in seen_v:
            errors.append(("duplicate-vertex-id", v))
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
    for l, v, _ in graph.legs:
        if l in seen_l:
            errors.append(("duplicate-leg-id", l))
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


@dataclass(frozen=True)
class LevelStructure:
    """Normalized level function on the vertices: values {0,-1,...,-L}."""

    level: tuple[tuple[str, int], ...]

    @staticmethod
    def build(mapping: dict[str, int]) -> "LevelStructure":
        return LevelStructure(tuple(sorted(mapping.items())))

    @cached_property
    def of(self) -> dict[str, int]:
        return dict(self.level)

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

    def upper_side(self, graph: MarkedDualGraph, edge_id: str) -> int:
        """Side index of q_e^+.

        For horizontal edges the choice is arbitrary in principle; we fix
        the side at the lexicographically smaller vertex id (side 0 for
        self-loops) so that outputs are reproducible.
        """
        a, b = graph.edge_ends[edge_id]
        la, lb = self.of[a], self.of[b]
        if la > lb:
            return 0
        if lb > la:
            return 1
        return 0 if a <= b else 1

    def edge_levels(self, graph: MarkedDualGraph, edge_id: str) -> tuple[int, int]:
        """(l(e+), l(e-))."""
        up = self.upper_side(graph, edge_id)
        ends = graph.edge_ends[edge_id]
        return self.of[ends[up]], self.of[ends[1 - up]]

    def to_json(self) -> dict:
        return {v: lv for v, lv in self.level}

    @staticmethod
    def from_json(doc: dict) -> "LevelStructure":
        return LevelStructure.build({str(k): int(v) for k, v in doc.items()})


@dataclass(frozen=True)
class LevelSubcomplex:
    """A level slice or down-set of a level graph, as a cell complex fragment.

    ``half_legs`` lists the cut legs h(q_e^+) of the slice: pairs
    (edge id, side of q_e^+), one per edge descending from the level.
    """

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    legs: tuple[str, ...]
    half_legs: tuple[tuple[str, int], ...] = ()


def subcomplex_leq(graph: MarkedDualGraph, levels: LevelStructure, i: int) -> LevelSubcomplex:
    """Down-set: vertices of level <= i, edges between them, their legs."""
    vs = tuple(v for v in graph.vertex_ids if levels.of[v] <= i)
    vset = set(vs)
    es = tuple(e for e, (a, b) in graph.edges if a in vset and b in vset)
    ls = tuple(l for l, v, _ in graph.legs if v in vset)
    return LevelSubcomplex(vs, es, ls)


def subcomplex_eq(graph: MarkedDualGraph, levels: LevelStructure, i: int) -> LevelSubcomplex:
    """Level slice: level-i vertices, horizontal edges among them, legs,
    plus one cut half-leg per edge from level i down to a lower level."""
    vs = tuple(v for v in graph.vertex_ids if levels.of[v] == i)
    vset = set(vs)
    es = []
    half = []
    for e, (a, b) in graph.edges:
        la, lb = levels.of[a], levels.of[b]
        if la == i and lb == i:
            es.append(e)
        elif la == i and lb < i:
            half.append((e, 0))
        elif lb == i and la < i:
            half.append((e, 1))
    ls = tuple(l for l, v, _ in graph.legs if v in vset)
    return LevelSubcomplex(vs, tuple(es), ls, tuple(half))


# ---------------------------------------------------------------------------
# colored isomorphism / canonical labeling


def _vertex_colors(graph: MarkedDualGraph, levels: LevelStructure | None,
                   extra: dict[str, tuple] | None) -> dict[str, tuple]:
    nbrs, mus = graph.neighbours, graph.leg_mus
    return {v: (g, levels.of[v] if levels else 0, mus[v], len(nbrs[v]),
                extra.get(v, ()) if extra else ())
            for v, g in graph.vertices}


def _ranks(colors: dict) -> tuple[dict, int]:
    """Each key's position among the sorted distinct values, and their count."""
    index = {c: i for i, c in enumerate(sorted(set(colors.values())))}
    return {v: index[c] for v, c in colors.items()}, len(index)


def _refine(graph: MarkedDualGraph,
            colors: dict[str, tuple]) -> tuple[int, dict[str, tuple], dict[str, int]]:
    """Colour refinement: each round replaces the colour c of v by
    (c, sorted colours of v's neighbours), until a round splits no class.

    Returns the number of rounds, the colours (nested once per round) and
    each vertex's rank among the sorted distinct colours.  A round sorts
    (rank, sorted neighbour ranks), which orders the new colours as the
    nested tuples would, so nested colours are never compared.
    """
    nbrs = graph.neighbours
    rank, classes = _ranks(colors)
    rounds = 0
    for _ in range(len(graph.vertices)):
        if classes == len(rank):  # discrete: nothing left to split
            break
        sig = {v: (r, tuple(sorted(rank[u] for u in nbrs[v]))) for v, r in rank.items()}
        new, new_classes = _ranks(sig)
        # each new class lies inside an old one: equal counts, equal partitions
        if new_classes == classes:
            break
        colors = {v: (colors[v], tuple(colors[u] for u in sorted(nbrs[v], key=rank.get)))
                  for v in rank}
        rank, classes = new, new_classes
        rounds += 1
    return rounds, colors, rank


def canonical_key(graph: MarkedDualGraph, levels: LevelStructure | None = None,
                  edge_data=None, vertex_data=None) -> tuple:
    """Canonical form of the (colored, leveled, decorated) graph.

    ``edge_data(edge_id, side) -> hashable`` attaches per-half-edge data
    (decorations) to the key; ``vertex_data(v) -> hashable`` likewise.
    The key is (refinement rounds, vertex row, edge row, leg row).  The
    round count is an isomorphism invariant that also fixes how deeply the
    colours in the vertex row are nested, so any two keys compare.
    Brute force over the labelings that number the colour classes in
    colour order; dual graphs in scope are small, and colour refinement
    collapses most symmetry up front.  The vertex and leg rows are the same
    under all these labelings (a class shares its colour, hence its legs),
    so only the edge row is minimised.
    """
    extra = {v: (vertex_data(v),) for v in graph.vertex_ids} if vertex_data else None
    rounds, colors, rank = _refine(graph, _vertex_colors(graph, levels, extra))
    classes: list[list[str]] = [[] for _ in set(rank.values())]
    for v in sorted(graph.vertex_ids):
        classes[rank[v]].append(v)
    first = {v: i for i, v in enumerate(itertools.chain.from_iterable(classes))}
    vrow = tuple((i, colors[v]) for v, i in first.items())
    lrow = tuple(sorted((first[v], m) for _, v, m in graph.legs))
    ends = [(a, b, edge_data(e, 0), edge_data(e, 1)) if edge_data else (a, b, (), ())
            for e, (a, b) in graph.edges]

    best = None
    for perms in itertools.product(*[itertools.permutations(c) for c in classes]):
        label = {v: i for i, v in enumerate(itertools.chain.from_iterable(perms))}
        erow = []
        for a, b, d0, d1 in ends:
            s0, s1 = (label[a], d0), (label[b], d1)
            erow.append((s1, s0) if s1 < s0 else (s0, s1))
        erow = tuple(sorted(erow))
        if best is None or erow < best:
            best = erow
    return rounds, vrow, best, lrow


def isomorphic(a: MarkedDualGraph, b: MarkedDualGraph,
               levels_a: LevelStructure | None = None,
               levels_b: LevelStructure | None = None) -> bool:
    """Bijection of vertices/edges/legs preserving genus, mu, incidence, levels."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges) \
            or len(a.legs) != len(b.legs):
        return False
    return canonical_key(a, levels_a) == canonical_key(b, levels_b)


def _automorphism_generators(graph: MarkedDualGraph) -> list[tuple[int, ...]]:
    """Generators of the graph's vertex automorphisms: the permutations
    preserving genus, the leg mu-labels at each vertex and the number of
    edges between every two vertices, as index tuples over ``vertex_ids``.

    For each vertex i and each later vertex j, one automorphism (if any)
    that fixes the vertices before i and sends i to j.  These coset
    representatives along the chain of pointwise stabilizers generate the
    group.  Images are searched within the refined colour classes of the
    graph, which every automorphism preserves.
    """
    vs = graph.vertex_ids
    n = len(vs)
    index = {v: i for i, v in enumerate(vs)}
    mult = [[0] * n for _ in range(n)]
    for _, (a, b) in graph.edges:
        i, j = index[a], index[b]
        mult[i][j] += 1
        if i != j:
            mult[j][i] += 1
    _, _, rank = _refine(graph, _vertex_colors(graph, None, None))
    color = [rank[v] for v in vs]

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
    for i in range(n):
        fixed = list(range(i))
        for j in range(i + 1, n):
            if fits(fixed, j):
                perm = extend(fixed + [j])
                if perm is not None:
                    gens.append(perm)
    return gens


def enumerate_level_structures(graph: MarkedDualGraph, max_levels: int | None = None,
                               cap: int = 200_000) -> list[LevelStructure]:
    """All normalized level structures up to levelled-graph isomorphism.

    Candidates are the ordered set partitions of the vertex set (top class
    first), walked in a fixed order.  Two candidates are isomorphic exactly
    when a vertex automorphism of the graph maps one onto the other.  So
    the first candidate reached in each automorphism orbit is kept, its
    whole orbit is marked covered, and later members of the orbit are
    skipped; every candidate still counts toward ``cap``.  Deterministic
    order: sorted canonical keys, one computed per kept structure.
    """
    vs = list(graph.vertex_ids)
    limit = max_levels if max_levels is not None else len(vs)
    index = {v: i for i, v in enumerate(vs)}
    # a generator exists only with >= 2 vertices, so each getter returns a tuple
    moves = [operator.itemgetter(*p) for p in _automorphism_generators(graph)]

    covered: set[tuple[int, ...]] = set()
    kept: dict[tuple, LevelStructure] = {}
    count = 0

    def assign(remaining: list[str], classes: list[tuple[str, ...]]):
        nonlocal count
        if not remaining:
            if not classes:
                return
            count += 1
            if count > cap:
                raise EnumerationCapExceeded(cap)
            level = [0] * len(vs)
            for depth, cls in enumerate(classes):
                for v in cls:
                    level[index[v]] = -depth
            level = tuple(level)
            if level in covered:
                return
            # earlier orbits are closed, so an image already covered is in this one
            covered.add(level)
            frontier = [level]
            while frontier:
                current = frontier.pop()
                for move in moves:
                    image = move(current)
                    if image not in covered:
                        covered.add(image)
                        frontier.append(image)
            ls = LevelStructure.build(dict(zip(vs, level)))
            kept.setdefault(canonical_key(graph, ls), ls)
            return
        if len(classes) == limit:
            return
        for r in range(1, len(remaining) + 1):
            for subset in itertools.combinations(remaining, r):
                chosen = set(subset)
                rest = [x for x in remaining if x not in chosen]
                assign(rest, classes + [subset])

    assign(vs, [])
    return [kept[k] for k in sorted(kept)]
