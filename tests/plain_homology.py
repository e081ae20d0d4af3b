"""References for ``homology``, as it stood before two simplifications.

The two-step evaluation of a chain at a level, as it stood before
``homology.evaluate`` did it in one step: ``restrict_to_level`` cuts the
chain down to a ``LevelChain`` of sorted tuples (horizontal cells, cut
halves and legs), and ``evaluate`` turns that slice into a
``LinearForm``, dropping the legs.

The evaluation system as classes, as it stood before
``homology.evaluation_system`` returned plain rows by level:
``EvaluationSystem`` holds one ``LevelBlock`` per attained level, each
generator evaluated with the decoration's values substituted, and its
``to_json`` is the ``levels`` payload of ``drloci ev --all``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from drloci.decorations import TwrDecoration, site_key
from drloci.exact import AffineSubspace, LinearForm, solve_forms
from drloci.graphs import LevelStructure, MarkedDualGraph, half_edge_id
from drloci.homology import Chain, chain_support_top_level, level_filtration


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


def evaluate(level_chain: LevelChain, graph: MarkedDualGraph,
             dec: TwrDecoration | None) -> LinearForm:
    """Signed sum of function values at the segment endpoints of the
    restricted chain: per horizontal cell f(tail side) - f(head side),
    per cut half coeff * f(q_e^+); legs contribute f = 0.

    Each node preimage is the unknown named by its site key; ``dec``'s
    values are then substituted, a rational as a constant and "?name" as
    the shared unknown ``name``.  A pole site stays an unknown: ``ev`` and
    ``constraints`` reject a decoration with a pole on an evaluated site
    (the level-compatibility clause of ``validate_twr``).
    """
    coeffs: dict[str, Fraction] = {}
    ends = [(half_edge_id(e, s), -c if s else c) for e, c in level_chain.edges for s in (0, 1)]
    for h, c in ends + list(level_chain.half):
        key = site_key(graph.half_edge_vertex(h), h)
        coeffs[key] = coeffs.get(key, 0) + Fraction(c)
    form = LinearForm.build(coeffs)
    return form if dec is None else form.substitute(
        {k: v.lstrip("?") if isinstance(v, str) else v for k, v in dec.values})


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

    blocks: list[LevelBlock]

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
                      dec: TwrDecoration | None) -> EvaluationSystem:
    """Evaluation forms of a generating set of every level sublattice, each
    generator restricted and evaluated on its own, with ``dec``'s values."""
    blocks = []
    for i, gens in level_filtration(graph, levels).items():
        blocks.append(LevelBlock(i, gens, [evaluate(restrict_to_level(g, graph, levels, i),
                                                    graph, dec) for g in gens]))
    return EvaluationSystem(blocks)
