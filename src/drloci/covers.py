"""Combinatorial admissible covers of a genus-0 nodal target.

A cover is a graph morphism from the source dual graph onto a target
tree of rational vertices, with a positive multiplicity at every
half-edge and leg: nodes lie over nodes with equal multiplicities on the
two branches, the per-component Riemann-Hurwitz count closes, and every
special point of the target pulls back to a full degree-d fiber.

Target legs encode the branch data by their mu labels: positive for the
0-point, negative for the infinity-point, zero for further (simple)
branch points.  Source legs carry the mu-orders of the function at the
marked zeros/poles and 0 on the remaining marked branch preimages.

These validators serve as an independent membership route: a stable
curve lies in the closure when a cover of type (mu, 1, ..., 1) exists on
a model whose stabilization (keeping only the fibers over 0 and
infinity; ``graphs.stabilize_graph``) is the given stable graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .graphs import MarkedDualGraph, half_edge_id, isomorphic, json_int, stabilize_graph


@dataclass(frozen=True)
class CombinatorialCover:
    source: MarkedDualGraph
    target: MarkedDualGraph
    vertex_map: tuple[tuple[str, str], ...]
    edge_map: tuple[tuple[str, str], ...]
    leg_map: tuple[tuple[str, str], ...]
    mults: tuple[tuple[str, int], ...]  # source half-edge or leg id -> multiplicity
    degrees: tuple[tuple[str, int], ...]  # source vertex -> local degree

    @staticmethod
    def build(source, target, vertex_map, edge_map, leg_map, mults, degrees):
        return CombinatorialCover(
            source, target,
            tuple(sorted(vertex_map.items())),
            tuple(sorted(edge_map.items())),
            tuple(sorted(leg_map.items())),
            tuple(sorted(mults.items())),
            tuple(sorted(degrees.items())),
        )

    @cached_property
    def vmap(self) -> dict[str, str]:
        return dict(self.vertex_map)

    @cached_property
    def emap(self) -> dict[str, str]:
        return dict(self.edge_map)

    @cached_property
    def lmap(self) -> dict[str, str]:
        return dict(self.leg_map)

    @cached_property
    def mult_of(self) -> dict[str, int]:
        return dict(self.mults)

    @cached_property
    def degree_of(self) -> dict[str, int]:
        return dict(self.degrees)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "map": dict(self.vertex_map) | dict(self.edge_map) | dict(self.leg_map),
            "mults": dict(self.mults),
            "degrees": dict(self.degrees),
        }

    @staticmethod
    def from_json(doc: dict) -> "CombinatorialCover":
        source = MarkedDualGraph.from_json(doc["source"])
        target = MarkedDualGraph.from_json(doc["target"])
        mapping = doc.get("map", {})
        vmap = {v: mapping[v] for v, _ in source.vertices if v in mapping}
        emap = {e: mapping[e] for e, _ in source.edges if e in mapping}
        lmap = {l: mapping[l] for l, _, _ in source.legs if l in mapping}
        return CombinatorialCover.build(
            source, target, vmap, emap, lmap,
            {k: json_int(v, f"mult of {k}") for k, v in doc.get("mults", {}).items()},
            {k: json_int(v, f"degree of {k}") for k, v in doc.get("degrees", {}).items()},
        )


@dataclass
class CoverReport:
    violations: list[tuple[str, str, str]]
    degree: int | None
    type_profiles: dict[str, tuple[int, ...]]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [{"clause": c, "where": w, "detail": d}
                           for c, w, d in self.violations],
            "degree": self.degree,
            "type": {k: list(v) for k, v in self.type_profiles.items()},
        }


def _edge_side_correspondence(cover: CombinatorialCover, e: str,
                              te: str) -> dict[int, int] | None:
    """Which source side lies over which target side, or None if the maps
    do not respect the incidences."""
    a, b = cover.source.edge_ends[e]
    ta, tb = cover.target.edge_ends[te]
    va, vb = cover.vmap.get(a), cover.vmap.get(b)
    if va == ta and vb == tb:
        return {0: 0, 1: 1}
    if va == tb and vb == ta:
        return {0: 1, 1: 0}
    return None


def validate_cover(cover: CombinatorialCover) -> CoverReport:
    """All structural invariants of an admissible cover, plus its type
    (the multiplicity profile over every marked target point)."""
    errs: list[tuple[str, str, str]] = []
    src, tgt = cover.source, cover.target
    vmap, emap, lmap = cover.vmap, cover.emap, cover.lmap
    mult, degs = cover.mult_of, cover.degree_of

    if any(g != 0 for _, g in tgt.vertices):
        errs.append(("target", "genus", "target vertices must be rational"))
    if len(tgt.edges) != len(tgt.vertices) - 1 or not tgt.is_connected():
        errs.append(("target", "tree", "target must be a tree"))

    for v, _ in src.vertices:
        if vmap.get(v) not in tgt.genus_of:
            errs.append(("map", v, "vertex not mapped to a target vertex"))
        if degs.get(v, 0) < 1:
            errs.append(("degree", v, "missing or nonpositive local degree"))
    for l, v, _ in src.legs:
        tl = lmap.get(l)
        if tl is None or tl not in tgt.leg_info:
            errs.append(("map", l, "leg not mapped to a target leg"))
        elif tgt.leg_info[tl][0] != vmap.get(v):
            errs.append(("map", l, "leg image not on the image vertex"))
        if mult.get(l, 0) < 1:
            errs.append(("mult", l, "missing or nonpositive multiplicity"))
    side_over: dict[tuple[str, int], tuple[str, int]] = {}
    for e, _ in src.edges:
        te = emap.get(e)
        if te is None or te not in tgt.edge_ends:
            errs.append(("map", e, "node not mapped to a target node"))
            continue
        corr = _edge_side_correspondence(cover, e, te)
        if corr is None:
            errs.append(("map", e, "node image incompatible with vertex images"))
            continue
        for s in (0, 1):
            side_over[(e, s)] = (te, corr[s])
        m0 = mult.get(half_edge_id(e, 0), 0)
        m1 = mult.get(half_edge_id(e, 1), 0)
        if m0 < 1 or m1 < 1:
            errs.append(("mult", e, "missing half-edge multiplicity"))
        elif m0 != m1:
            errs.append(("node-mult", e, f"branch multiplicities differ: {m0} != {m1}"))

    if errs:
        return CoverReport(errs, None, {})

    # per-component Riemann-Hurwitz
    for v, g in src.vertices:
        d_v = degs[v]
        ram = 0
        for l, _ in src.legs_of(v):
            ram += mult[l] - 1
        for e, s in src.edges_at(v):
            ram += mult[half_edge_id(e, s)] - 1
        if 2 * g - 2 != -2 * d_v + ram:
            errs.append(("riemann-hurwitz", v,
                         f"2g-2 = {2 * g - 2} but -2d + sum(m-1) = {-2 * d_v + ram}"))

    # fibers: target vertices, target legs, and both sides of target nodes
    degree: int | None = None
    for t, _ in tgt.vertices:
        total = sum(degs[v] for v, _ in src.vertices if vmap[v] == t)
        if degree is None:
            degree = total
        elif total != degree:
            errs.append(("fiber-degree", t, f"component degrees sum to {total} != {degree}"))
    profiles: dict[str, tuple[int, ...]] = {}
    for tl, _, _ in tgt.legs:
        fiber = sorted((mult[l] for l, _, _ in src.legs if lmap[l] == tl), reverse=True)
        profiles[tl] = tuple(fiber)
        if sum(fiber) != degree:
            errs.append(("fiber-degree", tl, f"leg fiber sums to {sum(fiber)} != {degree}"))
    for te, _ in tgt.edges:
        for ts in (0, 1):
            fiber = [mult[half_edge_id(e, s)]
                     for (e, s), over in side_over.items() if over == (te, ts)]
            if sum(fiber) != degree:
                errs.append(("fiber-degree", f"{te}.{ts}",
                             f"node fiber sums to {sum(fiber)} != {degree}"))

    return CoverReport(errs, degree, profiles)


def stabilize_marked_graph(graph: MarkedDualGraph) -> MarkedDualGraph:
    """The stable graph of ``graphs.stabilize_graph``, with vertices, edges
    and legs sorted by id."""
    stable, _ = stabilize_graph(graph)
    return MarkedDualGraph.build(sorted(stable.vertices), sorted(stable.edges), sorted(stable.legs))


def closure_via_covers(stable_graph: MarkedDualGraph, mu: tuple[int, ...],
                       cover: CombinatorialCover) -> dict:
    """Membership certificate of the admissible-cover flavor.

    Accepts when the cover is valid, of type (mu, 1, ..., 1), and the
    source with only the fibers over 0 and infinity kept stabilizes to
    the given stable graph.
    """
    report = validate_cover(cover)
    out = {"accepted": False, "cover": report.to_json(), "reasons": []}
    if not report.ok:
        out["reasons"].append("invalid cover")
        return out

    tgt = cover.target
    zero_legs = [l for l, _, m in tgt.legs if m > 0]
    inf_legs = [l for l, _, m in tgt.legs if m < 0]
    branch_legs = [l for l, _, m in tgt.legs if m == 0]
    if len(zero_legs) != 1 or len(inf_legs) != 1:
        out["reasons"].append("target must have one 0-point and one infinity-point")
        return out
    zero_profile = tuple(sorted((m for m in mu if m > 0), reverse=True))
    pole_profile = tuple(sorted((-m for m in mu if m < 0), reverse=True))
    if report.type_profiles.get(zero_legs[0]) != zero_profile:
        out["reasons"].append(
            f"profile over 0 is {report.type_profiles.get(zero_legs[0])}, wanted {zero_profile}")
    if report.type_profiles.get(inf_legs[0]) != pole_profile:
        out["reasons"].append(
            f"profile over infinity is {report.type_profiles.get(inf_legs[0])}, wanted {pole_profile}")
    d = report.degree or 0
    simple = tuple([2] + [1] * (d - 2))
    for bl in branch_legs:
        if report.type_profiles[bl] != simple:
            out["reasons"].append(f"branch point {bl} not simple: {report.type_profiles[bl]}")
    # source legs over 0/infinity must carry the matching mu labels
    lmap = cover.lmap
    for l, v, m in cover.source.legs:
        img = lmap[l]
        if img == zero_legs[0] and m != cover.mult_of[l]:
            out["reasons"].append(f"leg {l} over 0 carries mu {m} != mult {cover.mult_of[l]}")
        elif img == inf_legs[0] and m != -cover.mult_of[l]:
            out["reasons"].append(f"leg {l} over infinity carries mu {m} != -mult")
        elif img in branch_legs and m != 0:
            out["reasons"].append(f"branch preimage {l} must carry mu 0")
    if out["reasons"]:
        return out

    kept = MarkedDualGraph.build(
        cover.source.vertices, cover.source.edges,
        [(l, v, m) for l, v, m in cover.source.legs if m != 0])
    stabilized = stabilize_marked_graph(kept)
    if not isomorphic(stabilized, stable_graph):
        out["reasons"].append("stabilized source does not match the stable graph")
        return out
    out["accepted"] = True
    out["stabilized"] = stabilized.to_json()
    return out
