"""The pushforward compatibility check across a stabilization: a
reference checker that twist and stabilize round trips are compared
against.

A twist of a decorated level graph followed by its stabilization must
keep the level filtration ("the top level can only go down") and give,
on a generating set of every level sublattice, the same evaluation rows
after renaming each site of a source half-edge to the site of the image
half-edge that continues it (the contraction's ``under``, read backwards).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from drloci.decorations import TwdrDecoration, TwrDecoration, site_key
from drloci.exact import LinearForm, solve_forms
from drloci.graphs import Contraction, LevelStructure, MarkedDualGraph
from drloci.homology import Chain, chain_support_top_level, evaluate, level_filtration

from plain_exact import same_space


def push_chain(contraction: Contraction, chain: Chain) -> Chain:
    """Image of a chain under the cellular contraction."""
    out: Chain = {}
    for (kind, cid), c in chain.items():
        if c == 0:
            continue
        if kind == "leg":
            out[("leg", cid)] = out.get(("leg", cid), 0) + c
            continue
        image = contraction.edge_map[cid]
        if image is None:
            raise ValueError(f"chain crosses deleted tail edge {cid}")
        eid, sign = image
        if sign == 0:
            continue
        out[("edge", eid)] = out.get(("edge", eid), 0) + sign * c
    return {k: v for k, v in out.items() if v != 0}


@dataclass
class PushforwardReport:
    inclusion_ok: bool
    rows_match: bool
    vanishing_equivalent: bool
    details: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.inclusion_ok and self.rows_match and self.vanishing_equivalent


def _translate_form(form: LinearForm, site_map: dict[str, str]) -> LinearForm | None:
    coeffs: dict[str, Fraction] = {}
    for s, v in form.coeffs:
        if s in site_map:
            t = site_map[s]
        elif s.startswith("?") or ":" not in s:
            t = s
        else:
            return None
        coeffs[t] = coeffs.get(t, Fraction(0)) + v
    return LinearForm.build(coeffs, form.const)


def pushforward_check(src_graph: MarkedDualGraph, src_ls: LevelStructure,
                      src_dec: TwdrDecoration,
                      dst_graph: MarkedDualGraph, dst_dec: TwrDecoration,
                      contraction: Contraction) -> PushforwardReport:
    """Compatibility of evaluation across a stabilization.

    The stabilized graph is read on the source's levels restricted to its
    vertices, so that the two share one level scale.  Checks, per level:
    the pushforward keeps the level filtration ("the top level can only go
    down"), and on a generating set the evaluation of the stabilized
    decoration equals the source evaluation after renaming sites.  Also
    reports whether the two full systems have identical solution sets over
    the shared unknowns.
    """
    dst_ls = LevelStructure.build({v: src_ls.of[v] for v in dst_graph.vertex_ids})
    rename: dict[str, str] = {}
    for h, src in contraction.under.items():
        v = dst_graph.half_edge_vertex(h)
        rename[site_key(v, src)] = site_key(v, h)

    inclusion_ok = True
    rows_match = True
    details: list[str] = []
    src_rows: list[LinearForm] = []
    dst_rows: list[LinearForm] = []
    filt = level_filtration(src_graph, src_ls)
    for j, gens in filt.items():
        for gamma in gens:
            pushed = push_chain(contraction, gamma)
            top = chain_support_top_level(pushed, dst_graph, dst_ls)
            if top is not None and top > j:
                inclusion_ok = False
                details.append(f"pushforward raised top level at shared level {j}")
                continue
            lhs = evaluate(gamma, src_graph, src_ls, j, src_dec.base)
            lhs_t = _translate_form(lhs, rename)
            rhs = evaluate(pushed, dst_graph, dst_ls, j, dst_dec) if pushed else LinearForm()
            src_rows.append(lhs)
            dst_rows.append(rhs)
            if lhs_t is None:
                if not lhs.is_zero:
                    rows_match = False
                    details.append(f"untranslatable nonzero row at shared level {j}")
                continue
            if lhs_t != rhs:
                rows_match = False
                details.append(f"evaluation mismatch at shared level {j}: "
                               f"{lhs_t.render()} vs {rhs.render()}")
    translated = [_translate_form(r, rename) for r in src_rows]
    if any(t is None for t in translated):
        vanish_eq = all(r.is_zero for r, t in zip(src_rows, translated) if t is None)
        translated = [t for t in translated if t is not None]
    else:
        vanish_eq = True
    syms = sorted({k for r in translated + dst_rows for k, _ in r.coeffs})
    s1 = solve_forms(list(translated), syms)
    s2 = solve_forms(dst_rows, syms)
    if (s1 is None) != (s2 is None):
        vanish_eq = False
    elif s1 is not None and s2 is not None and not same_space(s1, s2):
        vanish_eq = False
    return PushforwardReport(inclusion_ok, rows_match, vanish_eq, details)
