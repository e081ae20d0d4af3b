"""Relative graph homology, the level filtration, and evaluation systems.

The dual graph with its marked-zero legs is a 1-dimensional cell complex:
1-cells are the edges and the zero legs (pole legs never support chains).
Relative cycles are integer chains whose boundary lies on the zero
endpoints; for a 1-complex these chains represent their classes uniquely,
so lattice membership questions reduce to support checks.

Evaluating a cycle at a level (``evaluate``) sums, over the edge-ends
lying on that level, the signed value of the function at the
corresponding node preimage: +c at the side-0 end and -c at the side-1
end of an edge the cycle crosses with coefficient c.  This is the
per-vertex-segment reading of "evaluate at the endpoints of the
restriction", done without building the restriction: a segment crossing
a horizontal node picks up the two one-sided values, the upper halves of
descending edges end at the cut points q_e^+, and zero legs end where
the function vanishes.  Each node preimage is the unknown named by its
site key, and a decoration's exact or symbolic values are substituted
into that form, so a system of evaluations is a rational linear system.

Two eliminations serve this module: cycle lattices come from
``integer_kernel_basis`` (unimodular column reduction over Z) and
solution spaces from ``solve_forms`` (row reduction over Q).  The kernel
of ``solve_forms`` has integer generators on these incidence matrices
too, but other ones, so with it the evaluation rows, and the bytes of
``ev`` and ``constraints``, would change.
"""

from __future__ import annotations

from fractions import Fraction

from .decorations import TwrDecoration, site_key
from .exact import AffineSubspace, LinearForm, integer_kernel_basis, solve_forms
from .graphs import LevelStructure, MarkedDualGraph, half_edge_id

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


def relative_h1(graph: MarkedDualGraph) -> list[Chain]:
    """Basis of H1(graph, Z; Z) as integer chains on edges and zero legs.

    Rank = |E| - |V| + 1 + max(|Z| - 1, 0) on connected graphs.
    """
    return _kernel_chains(graph, [e for e, _ in graph.edges], list(default_zero_legs(graph)))


def level_filtration(graph: MarkedDualGraph, levels: LevelStructure) -> dict[int, list[Chain]]:
    """For each attained level i, top first, generators of the image of the
    homology of the down-set of i (the vertices of level <= i, the edges
    among them and their zero legs) inside the relative homology.  The
    down-set of the top level is the whole graph, so its generators are
    ``relative_h1``."""
    zlegs = default_zero_legs(graph)
    gen: dict[int, list[Chain]] = {}
    for i in levels.attained():
        vset = {v for v in graph.vertex_ids if levels.of[v] <= i}
        sub_edges = [e for e, (a, b) in graph.edges if a in vset and b in vset]
        sub_legs = [l for l in zlegs if graph.leg_info[l][0] in vset]
        gen[i] = _kernel_chains(graph, sub_edges, sub_legs)
    return gen


def _node_values(dec: TwrDecoration) -> dict[str, Fraction | str]:
    """``dec``'s values as ``LinearForm.substitute`` takes them: a rational
    is a constant and "?name" the shared unknown ``name``."""
    return {k: v.lstrip("?") if isinstance(v, str) else v for k, v in dec.values}


def evaluate(chain: Chain, graph: MarkedDualGraph, levels: LevelStructure,
             level: int, dec: TwrDecoration | None = None) -> LinearForm:
    """Signed sum of function values at the segment endpoints of the
    chain's slice at ``level``.  The chain must be supported on the
    down-set of ``level`` (else ``ValueError``), so an edge cell with
    coefficient c adds +c at the site of its side 0 and -c at the site of
    its side 1, each only when that side's vertex sits on ``level``: a
    horizontal edge gives f(tail side) - f(head side), an edge descending
    from the level its upper half up to the cut point q_e^+.  Legs end at
    marked zeros, where f = 0.

    Each node preimage is the unknown named by its site key; ``dec``'s
    values are then substituted, a rational as a constant and "?name" as
    the shared unknown ``name``.  A pole site stays an unknown: ``ev`` and
    ``constraints`` reject a decoration with a pole on an evaluated site
    (the level-compatibility clause of ``validate_twr``).
    """
    top = chain_support_top_level(chain, graph, levels)
    if top is not None and top > level:
        raise ValueError(f"chain has top level {top}, not supported on levels <= {level}")
    coeffs: dict[str, Fraction] = {}
    for (kind, cid), c in chain.items():
        if kind == "edge":
            for side, v in enumerate(graph.edge_ends[cid]):
                if levels.of[v] == level:
                    key = site_key(v, half_edge_id(cid, side))
                    coeffs[key] = coeffs.get(key, 0) + Fraction(-c if side else c)
    form = LinearForm.build(coeffs)
    return form if dec is None else form.substitute(_node_values(dec))


def evaluation_system(graph: MarkedDualGraph, levels: LevelStructure,
                      dec: TwrDecoration | None = None) -> dict[int, list[LinearForm]]:
    """The evaluation forms of the generators of every level sublattice, by
    attained level, top first.  The rows with every node preimage an
    unknown are memoized per graph by level structure; ``dec``'s values are
    substituted into them."""
    memo = graph.memos["level_rows"]
    if levels not in memo:
        memo[levels] = {i: [evaluate(g, graph, levels, i) for g in gens]
                        for i, gens in level_filtration(graph, levels).items()}
    if dec is None:
        return memo[levels]
    values = _node_values(dec)
    return {i: [r.substitute(values) for r in rows] for i, rows in memo[levels].items()}


def vanishes(rows: list[LinearForm]) -> bool | str:
    """True when every row is zero, False when every row is constant and
    one is not zero, else "conditional" (on the unknowns)."""
    if all(r.is_zero for r in rows):
        return True
    return False if all(r.is_constant for r in rows) else "conditional"


def normalized_rows(rows: list[LinearForm], symbols: list[str]) -> list[tuple[int, ...]]:
    """The distinct nonzero rows as primitive integer vectors in ``symbols``, sorted."""
    return sorted({r.normalized_vector(symbols) for r in rows if not r.is_zero})


def solved_rows(graph: MarkedDualGraph, levels: LevelStructure,
                values: dict[str, Fraction]) -> tuple[list[LinearForm], AffineSubspace | None]:
    """Rows and solution space of the evaluation system under exact node
    ``values``, all levels in one list (pole sites are never evaluated)."""
    rows = [r.substitute(values) for block in evaluation_system(graph, levels).values()
            for r in block]
    return rows, solve_forms(rows)
