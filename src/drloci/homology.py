"""Relative graph homology, the level filtration, and evaluation systems.

The dual graph with its marked-zero legs is a 1-dimensional cell complex:
1-cells are the edges and the zero legs (pole legs never support chains).
Relative cycles are integer chains whose boundary lies on the zero
endpoints; for a 1-complex these chains represent their classes uniquely,
so lattice membership questions reduce to support checks.

Evaluating a cycle at a level sums, over the edge-ends lying on that
level, the signed value of the function at the corresponding node
preimage.  This is the per-vertex-segment reading of "evaluate at the
endpoints of the restriction": a segment crossing a horizontal node picks
up the two one-sided values, and the upper halves of descending edges end
at the cut points q_e^+.  Values are exact rationals or named unknowns,
so a system of evaluations is a rational linear system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .decorations import TwrDecoration, site_key
from .exact import AffineSubspace, LinearForm, integer_kernel_basis, solve_forms
from .graphs import LevelStructure, MarkedDualGraph, half_edge_id, subcomplex_leq

Cell = tuple[str, str]  # ("edge", id) or ("leg", id)
Chain = dict[Cell, int]


def default_zero_legs(graph: MarkedDualGraph) -> tuple[str, ...]:
    """Legs counted into Z: mu >= 0 (orders zero are classified as zeros)."""
    return tuple(l for l, _, m in graph.legs if m >= 0)


def chain_support_top_level(chain: Chain, graph: MarkedDualGraph,
                            levels: LevelStructure) -> int | None:
    """Least level i with the chain supported on the down-set of i."""
    top: int | None = None
    for (kind, cid), c in chain.items():
        if c == 0:
            continue
        if kind == "edge":
            a, b = graph.edge_ends[cid]
            lv = max(levels.of[a], levels.of[b])
        else:
            lv = levels.of[graph.leg_info[cid][0]]
        top = lv if top is None else max(top, lv)
    return top


def _kernel_chains(graph: MarkedDualGraph,
                   edge_ids: list[str], leg_ids: list[str]) -> list[Chain]:
    """Integer kernel of the boundary map C1 -> C0/<Z> on the given cells."""
    vs = [v for v, _ in graph.vertices]
    vindex = {v: i for i, v in enumerate(vs)}
    cols: list[tuple[Cell, dict[int, int]]] = []
    for e in edge_ids:
        a, b = graph.edge_ends[e]
        col: dict[int, int] = {}
        col[vindex[a]] = col.get(vindex[a], 0) - 1
        col[vindex[b]] = col.get(vindex[b], 0) + 1
        cols.append((("edge", e), col))
    for l in leg_ids:
        v = graph.leg_info[l][0]
        # the marked endpoint is killed in the quotient, leaving -[v]
        cols.append((("leg", l), {vindex[v]: -1}))
    if not cols:
        return []
    rows = [[col.get(i, 0) for _, col in cols] for i in range(len(vs))]
    basis = integer_kernel_basis(rows)
    chains = []
    for vec in basis:
        chain: Chain = {}
        for (cell, _), c in zip(cols, vec):
            if c:
                chain[cell] = c
        chains.append(chain)
    return chains


def relative_h1(graph: MarkedDualGraph, zero_legs=None) -> list[Chain]:
    """Basis of H1(graph, Z; Z) as integer chains on edges and zero legs.

    Rank = |E| - |V| + 1 + max(|Z| - 1, 0) on connected graphs.
    """
    if zero_legs is None:
        zero_legs = default_zero_legs(graph)
    return _kernel_chains(graph, [e for e, _ in graph.edges], list(zero_legs))


@dataclass
class LevelFiltration:
    """Generating chains of the level sublattices, keyed by level."""

    levels: list[int]
    generators: dict[int, list[Chain]]
    ambient: list[Chain]
    top_levels: list[int | None]


def level_filtration(graph: MarkedDualGraph, levels: LevelStructure,
                     zero_legs=None) -> LevelFiltration:
    """For each attained level i, generators of the image of the down-set
    homology inside the ambient relative homology; also the top level of
    each ambient basis element."""
    if zero_legs is None:
        zero_legs = default_zero_legs(graph)
    zlegs = list(zero_legs)
    gen: dict[int, list[Chain]] = {}
    for i in levels.attained():
        sub = subcomplex_leq(graph, levels, i)
        vset = set(sub.vertices)
        sub_edges = list(sub.edges)
        sub_legs = [l for l in zlegs if graph.leg_info[l][0] in vset]
        gen[i] = _kernel_chains(graph, sub_edges, sub_legs)
    ambient = relative_h1(graph, zlegs)
    tops = [chain_support_top_level(c, graph, levels) for c in ambient]
    return LevelFiltration(levels.attained(), gen, ambient, tops)


@dataclass(frozen=True)
class LevelChain:
    """Restriction of a chain to a level slice.

    ``edges``: horizontal cells at the level, with their chain coefficient.
    ``half``: upper halves of descending edges; the stored coefficient is
    signed so that the cell's evaluation is coeff * f(q_e^+).
    ``legs``: zero legs at the level (evaluation 0 at marked zeros).
    """

    level: int
    edges: tuple[tuple[str, int], ...]
    half: tuple[tuple[str, int], ...]  # half-edge id of q_e^+, signed coeff
    legs: tuple[tuple[str, int], ...]


def restrict_to_level(chain: Chain, graph: MarkedDualGraph,
                      levels: LevelStructure, i: int) -> LevelChain:
    """Cut the chain down to the level-i slice.

    Requires support on the down-set of i.  Horizontal cells survive
    whole; an edge descending from level i contributes its upper half up
    to the cut point, with sign +coeff when the chain traverses the edge
    out of the upper vertex (tail side) and -coeff into it (head side).
    """
    top = chain_support_top_level(chain, graph, levels)
    if top is not None and top > i:
        raise ValueError(f"chain has top level {top}, not supported on levels <= {i}")
    edges: dict[str, int] = {}
    half: dict[str, int] = {}
    legs: dict[str, int] = {}
    for (kind, cid), c in chain.items():
        if c == 0:
            continue
        if kind == "leg":
            if levels.of[graph.leg_info[cid][0]] == i:
                legs[cid] = c
            continue
        a, b = graph.edge_ends[cid]
        la, lb = levels.of[a], levels.of[b]
        if la == i and lb == i:
            edges[cid] = c
        elif la == i and lb < i:
            half[half_edge_id(cid, 0)] = half.get(half_edge_id(cid, 0), 0) + c
        elif lb == i and la < i:
            half[half_edge_id(cid, 1)] = half.get(half_edge_id(cid, 1), 0) - c
    return LevelChain(i, tuple(sorted(edges.items())), tuple(sorted(half.items())),
                      tuple(sorted(legs.items())))


class MissingValue(KeyError):
    def __init__(self, site: str):
        super().__init__(site)
        self.site = site


def site_form(graph: MarkedDualGraph, dec: TwrDecoration | None,
              vertex: str, point: str) -> LinearForm:
    """Value of the function at a site, as a linear form.

    Marked zeros and nodal zeros give 0, explicit rationals constants,
    "?name" a shared unknown, and an unadorned non-pole node preimage a
    site-named unknown.  Pole sites are never evaluated.
    """
    key = site_key(vertex, point)
    if point in graph.leg_info:
        m = graph.leg_info[point][1]
        if m >= 0:
            return LinearForm()
        raise MissingValue(key)
    if dec is not None:
        if point in dec.order_of and dec.is_pole(point):
            raise MissingValue(key)
        val = dec.value_of.get(key)
        if val is not None:
            if isinstance(val, str):
                return LinearForm.build({val.lstrip("?"): Fraction(1)})
            return LinearForm((), val)
    return LinearForm.build({key: Fraction(1)})


def evaluate(level_chain: LevelChain, graph: MarkedDualGraph,
             dec: TwrDecoration | None) -> LinearForm:
    """Signed sum of function values at the segment endpoints of the
    restricted chain: per horizontal cell f(tail side) - f(head side),
    per cut half coeff * f(q_e^+); legs contribute f = 0."""
    total = LinearForm()
    for eid, c in level_chain.edges:
        a, b = graph.edge_ends[eid]
        tail = site_form(graph, dec, a, half_edge_id(eid, 0))
        head = site_form(graph, dec, b, half_edge_id(eid, 1))
        total = total + (tail - head).scale(Fraction(c))
    for hid, c in level_chain.half:
        eid = hid.rsplit(".", 1)[0]
        side = int(hid.rsplit(".", 1)[1])
        v = graph.edge_ends[eid][side]
        total = total + site_form(graph, dec, v, hid).scale(Fraction(c))
    return total


@dataclass
class LevelBlock:
    level: int
    generators: list[Chain]
    rows: list[LinearForm]

    def verdict(self) -> bool | str:
        if all(r.is_zero for r in self.rows):
            return True
        if all(r.is_constant for r in self.rows):
            return False
        return "conditional"

    def normalized_rows(self, symbols: list[str]) -> list[tuple[int, ...]]:
        out = {r.normalized_vector(symbols) for r in self.rows if not r.is_zero}
        return sorted(out)


@dataclass
class EvaluationSystem:
    """Per-level evaluation forms over the unknown node values."""

    graph: MarkedDualGraph
    levels: LevelStructure
    blocks: list[LevelBlock] = field(default_factory=list)

    def block(self, level: int) -> LevelBlock:
        for b in self.blocks:
            if b.level == level:
                return b
        raise KeyError(level)

    @property
    def symbols(self) -> list[str]:
        syms: set[str] = set()
        for b in self.blocks:
            for r in b.rows:
                syms.update(k for k, _ in r.coeffs)
        return sorted(syms)

    def all_rows(self) -> list[LinearForm]:
        return [r for b in self.blocks for r in b.rows]

    def solution_space(self) -> AffineSubspace | None:
        return solve_forms(self.all_rows(), self.symbols)

    def to_json(self) -> dict:
        out = {}
        for b in self.blocks:
            syms = sorted({k for r in b.rows for k, _ in r.coeffs})
            space = solve_forms(b.rows, syms)
            out[str(b.level)] = {
                "vanishes": b.verdict(),
                "constraints": [r.render() for r in b.rows if not r.is_zero],
                "solution_dim": -1 if space is None else space.dim,
            }
        return out


def evaluation_system(graph: MarkedDualGraph, levels: LevelStructure,
                      dec: TwrDecoration | None, zero_legs=None,
                      filtration: LevelFiltration | None = None) -> EvaluationSystem:
    """Evaluation forms of a generating set of every level sublattice.

    ``filtration``, when given, must be ``level_filtration(graph, levels,
    zero_legs)``; callers that evaluate many decorations of one level
    structure compute it once.
    """
    filt = filtration if filtration is not None else level_filtration(graph, levels, zero_legs)
    blocks = []
    for i in filt.levels:
        gens = filt.generators[i]
        rows = [evaluate(restrict_to_level(g, graph, levels, i), graph, dec)
                for g in gens]
        blocks.append(LevelBlock(i, gens, rows))
    return EvaluationSystem(graph, levels, blocks)


def solve_constraints(system: EvaluationSystem) -> AffineSubspace | None:
    """Affine solution space of the full system over Q; None if inconsistent."""
    return system.solution_space()
