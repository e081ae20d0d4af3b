import dataclasses
import json
import gc
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from drloci.closure import SearchBounds, search, verify_certificate
from drloci.decorations import TwrDecoration, component_divisor
from drloci.exact import LinearForm, solve_forms
from drloci.fixtures import FIXTURES, load_graph
from drloci.graphs import MarkedDualGraph, validate


def all_equal_space(symbols):
    first = symbols[0]
    forms = [LinearForm.build({first: Fraction(1), s: Fraction(-1)})
             for s in symbols[1:]]
    return solve_forms(forms, symbols)


def test_dollar_split_families():
    g = load_graph("dollar_unmarked_zeros")
    certs = search(g, (1, 1, 1, -3))
    assert len(certs) == 2
    # only the pole-vertex-on-top structure admits decorations
    assert all(c.levels.of == {"v1": 0, "v2": -1} for c in certs)
    line = [c for c in certs if c.solution_dim == 1]
    point = [c for c in certs if c.solution_dim == 0]
    assert len(line) == len(point) == 1
    assert line[0].forced_groups == [["v1:q1.0", "v1:q2.0", "v1:q3.0"]]
    # the degenerate family marks all three node preimages as zeros
    zero_sites = [k for k, v in point[0].decoration.values if v == 0]
    assert zero_sites == ["v1:q1.0", "v1:q2.0", "v1:q3.0"]


def test_verify_accepts_search_output():
    for name in ("dollar_unmarked_zeros", "dollar_cover", "dollar_matching"):
        g = load_graph(name)
        for cert in search(g, g.mu):
            verdict = verify_certificate(g, g.mu, cert)
            assert verdict["verdict"].startswith("accepted"), verdict


def test_verify_rejects_corrupted_certificate():
    g = load_graph("dollar_unmarked_zeros")
    cert = search(g, g.mu)[0]
    orders = dict(cert.decoration.order_of)
    orders["q1.1"] = (-3, True)  # edge sum drops below -2
    from drloci.decorations import TwrDecoration
    bad = TwrDecoration.build(orders, dict(cert.decoration.value_of))
    import dataclasses
    broken = dataclasses.replace(cert, decoration=bad)
    verdict = verify_certificate(g, g.mu, broken)
    assert verdict["verdict"] == "rejected"


def test_verify_rejects_an_impossible_order_opposite_a_pole():
    # validate_twr once raised ValueError on this edge instead of reporting
    g = load_graph("dollar_unmarked_zeros")
    cert = search(g, g.mu)[0]
    bad = TwrDecoration.build({**cert.decoration.order_of, "q1.0": (-1, False)},
                              cert.decoration.value_of)
    verdict = verify_certificate(g, g.mu, dataclasses.replace(cert, decoration=bad))
    assert verdict["verdict"] == "rejected"
    assert "ord(df) = -1 is impossible" in verdict["reasons"][0]


def test_compact_type_node_order_forced():
    g = MarkedDualGraph.build(
        [("a", 1), ("b", 1)], [("q", ("a", "b"))],
        [("z", "a", 2), ("p", "b", -2)])
    certs = search(g, (2, -2))
    assert certs
    for c in certs:
        # the pole-leg vertex must sit on top and the node order is forced
        assert c.levels.of == {"a": -1, "b": 0}
        assert c.decoration.order_of["q.0"] == (-3, True)
        assert c.decoration.order_of["q.1"] == (1, False)


def test_unsatisfiable_distribution_yields_empty():
    # zeros split across the node make every per-vertex balance fail
    g = MarkedDualGraph.build(
        [("v1", 1), ("v2", 1)],
        [(q, ("v1", "v2")) for q in ("q1", "q2", "q3")],
        [("z1", "v1", 1), ("z2", "v2", 1), ("z3", "v2", 1), ("p", "v2", -3)])
    assert search(g, (1, 1, 1, -3)) == []


def test_chain4_yields_empty():
    g = MarkedDualGraph.build(
        [("a", 1), ("b", 0), ("c", 0), ("d", 1)],
        [("e1", ("a", "b")), ("e2", ("b", "c")), ("e3", ("c", "d")), ("e4", ("b", "c"))],
        [("z1", "b", 2), ("z2", "c", 1), ("p", "a", -3)])
    assert search(g, g.mu) == []


def test_poleless_lone_vertex_yields_empty():
    # no half-edges, so only the component check sees the missing pole
    g = MarkedDualGraph.build([("v", 2)], [], [("z", "v", 0)])
    assert search(g, g.mu) == []


def test_monotone_in_bounds():
    g = load_graph("dollar_unmarked_zeros")
    small = search(g, g.mu, SearchBounds(max_degree=3))
    large = search(g, g.mu, SearchBounds(max_degree=4))
    small_keys = {c.key(g) for c in small}
    large_keys = {c.key(g) for c in large}
    assert small_keys <= large_keys


def test_relabeling_symmetry():
    g = load_graph("dollar_unmarked_zeros")
    relabeled = MarkedDualGraph.build(
        [("w2", 0), ("w1", 0)],
        [("r3", ("w1", "w2")), ("r1", ("w1", "w2")), ("r2", ("w1", "w2"))],
        [("pp", "w1", -3), ("y1", "w2", 1), ("y2", "w2", 1), ("y3", "w2", 1)])
    a = search(g, g.mu)
    b = search(relabeled, relabeled.mu)
    assert len(a) == len(b)
    assert sorted(c.key(g) for c in a) == sorted(c.key(relabeled) for c in b)


def test_search_rejects_bad_inputs():
    g = load_graph("dollar_unmarked_zeros")
    with pytest.raises(ValueError):
        search(g, (1, 1, -2))  # mu mismatch
    unstable = MarkedDualGraph.build([("v", 0)], [], [("z", "v", 1), ("p", "v", -1)])
    with pytest.raises(ValueError):
        search(unstable, (1, -1))


def test_deterministic_output():
    g = load_graph("dollar_cover")
    a = [c.to_json() for c in search(g, g.mu)]
    b = [c.to_json() for c in search(g, g.mu)]
    assert a == b


def test_horizontal_graph_unique_certificate():
    from drloci.fixtures import load_decoration, load_levels
    g = load_graph("horizontal_nodes")
    certs = search(g, (1, 1, 1, -3))
    assert len(certs) == 1
    cert = certs[0]
    assert cert.levels == load_levels("horizontal_nodes")
    assert cert.decoration == load_decoration("horizontal_nodes")
    # the genus-1 component leaves the honest analytic gap
    assert cert.verdict == "accepted-modulo-genericity"
    assert any("witness" in n for n in cert.notes)
    assert cert.forced_groups == [["v2:q3.0", "v3:q3.1"]]


def test_certificates_twist_with_equivalent_systems():
    from drloci.twisting import stabilize, twist
    from plain_pushforward import pushforward_check
    for name in ("dollar_unmarked_zeros", "dollar_cover", "dollar_matching", "cherry"):
        g = load_graph(name)
        for cert in search(g, g.mu):
            tw = twist(g, cert.levels, cert.decoration)
            g2, lv2, dec2, cm = stabilize(tw.graph, tw.levels, tw.decoration,
                                          tw.contraction.shared_levels_src)
            assert (g2, lv2, dec2) == (g, cert.levels, cert.decoration)
            pf = pushforward_check(tw.graph, cm.shared_levels_src, tw.decoration,
                                   g2, cm.shared_levels_dst, dec2, cm)
            assert pf.ok, (name, pf.details)


def test_rescaling_gauge_freedom():
    # pinning any single node value of one component to an arbitrary
    # nonzero constant never obstructs the matching constraints
    g = load_graph("dollar_matching")
    cert = search(g, g.mu)[0]
    from drloci.homology import evaluation_system
    space = evaluation_system(g, cert.levels, cert.decoration).solution_space()
    pinned = space.pinned("v2:q1.1", Fraction(7))
    assert pinned is not None
    assert pinned.forces_value("v1:q1.0") == 7


def test_nonseparating_node_case():
    g = MarkedDualGraph.build([("v", 1)], [("e", ("v", "v"))],
                              [("z", "v", 2), ("p", "v", -2)])
    certs = search(g, (2, -2))
    assert len(certs) == 1
    cert = certs[0]
    # the two node preimages must lie in one fiber of the degree-2 map
    assert cert.forced_groups == [["v:e.0", "v:e.1"]]
    assert cert.solution_dim == 1
    assert cert.verdict == "accepted-modulo-genericity"


def test_hurwitz_cap_exhaustion_reported():
    g = load_graph("dollar_unmarked_zeros")
    certs = search(g, g.mu, SearchBounds(hurwitz_cap=2))
    assert certs
    for c in certs:
        assert all(info["cap_hit"] for info in c.components.values())
        assert any("cap" in n for n in c.notes)


@pytest.mark.parametrize("bound", ["max_degree", "hurwitz_cap", "level_cap"])
@pytest.mark.parametrize("value", [0, -1])
def test_search_bounds_must_be_positive(bound, value):
    # max_degree=0 once searched at the default degree
    with pytest.raises(ValueError, match=bound):
        SearchBounds(**{bound: value})
    with pytest.raises(ValueError, match=bound):
        SearchBounds.from_strings([f"{bound}={value}"])
    assert SearchBounds(**{bound: 1}) != SearchBounds()
    # frozen, so the check holds for the object's whole life
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(SearchBounds(), bound, value)


def _random_stable_mu_graph(rng):
    while True:
        n = rng.randint(1, 3)
        vertices = [(f"v{i}", rng.randint(0, 2)) for i in range(n)]
        edges = []
        for i in range(1, n):
            edges.append((f"e{len(edges)}", (f"v{rng.randrange(i)}", f"v{i}")))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randrange(n), rng.randrange(n)
            edges.append((f"e{len(edges)}", (f"v{a}", f"v{b}")))
        pos = rng.choice([(1,), (2,), (1, 1)])
        neg_total = sum(pos)
        negs = []
        while neg_total > 0:
            take = rng.randint(1, neg_total)
            negs.append(-take)
            neg_total -= take
        legs = []
        for m in list(pos) + negs:
            legs.append((f"m{len(legs)}", f"v{rng.randrange(n)}", m))
        g = MarkedDualGraph.build(vertices, edges, legs)
        rep = validate(g)
        if rep.ok and rep.stable:
            return g


def test_search_fuzz_sound_and_deterministic():
    import random
    rng = random.Random(321)
    found_any = 0
    for _ in range(40):
        g = _random_stable_mu_graph(rng)
        certs = search(g, g.mu)
        again = search(g, g.mu)
        assert [c.to_json() for c in certs] == [c.to_json() for c in again]
        for cert in certs:
            verdict = verify_certificate(g, g.mu, cert)
            assert verdict["verdict"].startswith("accepted"), (g.to_json(), verdict)
        found_any += bool(certs)
    assert found_any >= 5


def test_partial_order_decoration_accepted_on_both_tilts():
    from drloci.fixtures import load_decoration, load_levels
    g = load_graph("partial_order")
    certs = search(g, (4, -4))
    dec = load_decoration("partial_order")
    l1 = load_levels("partial_order", "levels_1")
    l2 = load_levels("partial_order", "levels_2")
    assert any(c.levels == l1 and c.decoration == dec for c in certs)
    assert any(c.levels == l2 and c.decoration == dec for c in certs)
    # the third tilt is isomorphic to the second and stays deduplicated
    mirrored = {"v1": 0, "v2": -2, "v3": -1}
    assert not any(c.levels.of == mirrored for c in certs)


def _tampered(cert):
    """Copies of a certificate, each broken in one field."""
    dec = cert.decoration
    from drloci.decorations import TwrDecoration
    from drloci.graphs import LevelStructure
    out = {}
    h, (o, _) = next((h, op) for h, op in dec.orders if not op[1])
    out["orders"] = TwrDecoration.build({**dec.order_of, h: (o + 10, False)}, dec.value_of)
    if cert.sample:
        s = min(cert.sample)
        out["sample"] = {**cert.sample, s: cert.sample[s] + 1}
    poles = [h for h, (_, pole) in dec.orders if pole]
    # flattening puts a pole on a horizontal edge; a flat structure instead
    # gets a vertex lowered, which changes its evaluation system
    levels = dict(cert.levels.of)
    levels = dict.fromkeys(levels, 0) if poles else {**levels, min(levels): -1}
    out["levels"] = LevelStructure.build(levels)
    if poles:
        out["pole"] = TwrDecoration.build(
            {**dec.order_of, poles[0]: (dec.order_of[poles[0]][0], False)}, dec.value_of)
    field_of = {"orders": "decoration", "pole": "decoration"}
    return {k: dataclasses.replace(cert, **{field_of.get(k, k): v}) for k, v in out.items()}


@pytest.mark.parametrize("name", ["dollar_unmarked_zeros", "dollar_cover", "dollar_matching",
                                  "partial_order", "horizontal_nodes", "cherry"])
def test_memos_do_not_leak_acceptance(name):
    # one graph object: the search and every verification fill and read its memos
    g = load_graph(name)
    certs = search(g, g.mu)
    assert certs
    for cert in certs:
        assert verify_certificate(g, g.mu, cert)["verdict"].startswith("accepted")
    seen = set()
    for cert in certs:
        for kind, bad in _tampered(cert).items():
            seen.add(kind)
            verdict = verify_certificate(g, g.mu, bad)
            assert verdict["verdict"] == "rejected", (kind, bad.to_json())
    assert {"orders", "levels"} <= seen


def test_verification_on_shared_and_fresh_graphs_agrees():
    checked = 0
    for name in FIXTURES:
        if "graph" not in FIXTURES[name]:
            continue
        g = load_graph(name)
        if not validate(g).stable:
            continue  # search refuses it
        certs = search(g, g.mu)
        shared = [verify_certificate(g, g.mu, c) for c in certs]
        fresh = MarkedDualGraph.from_json(g.to_json())
        assert shared == [verify_certificate(fresh, fresh.mu, c) for c in certs], name
        checked += 1
    assert checked >= 7


def test_graph_and_memos_freed_without_the_cycle_collector():
    names = [n for n in FIXTURES if "graph" in FIXTURES[n] and validate(load_graph(n)).stable]
    assert len(names) >= 7
    gc.disable()
    try:
        for name in names:
            g = load_graph(name)
            for cert in search(g, g.mu):
                verify_certificate(g, g.mu, cert)
            alive = weakref.ref(g)
            del g
            assert alive() is None, name
    finally:
        gc.enable()


def _cap_sensitive_graph():
    # a degree-6 component that cap 4 leaves undecided is infeasible under
    # cap 6, so cap 4 accepts one certificate more
    return MarkedDualGraph.build(
        [("v", 0)], [("e0", ("v", "v")), ("e1", ("v", "v"))],
        [("a", "v", 2), ("b", "v", 2), ("c", "v", 2), ("p", "v", -4), ("q", "v", -2)])


def test_memoized_hurwitz_answers_do_not_cross_caps():
    def fresh():
        return _cap_sensitive_graph()

    def as_json(certs):
        return [c.to_json() for c in certs]

    cap4, cap6 = SearchBounds(hurwitz_cap=4), SearchBounds(hurwitz_cap=6)
    g = fresh()
    under6 = search(g, g.mu, cap6)
    assert ([verify_certificate(g, g.mu, c, 4) for c in under6]
            == [verify_certificate(fresh(), g.mu, c, 4) for c in under6])
    under4 = search(g, g.mu, cap4)
    assert as_json(under4) == as_json(search(fresh(), g.mu, cap4))
    assert len(under4) == len(under6) + 1
    # the other order: answers beyond cap 4 were never stored
    h = fresh()
    under4 = search(h, h.mu, cap4)
    assert as_json(search(h, h.mu, cap6)) == as_json(under6)
    keys6 = {c.key(h) for c in under6}
    extra = [c for c in under4 if c.key(h) not in keys6]
    assert len(extra) == 1
    assert verify_certificate(h, h.mu, extra[0], 6)["verdict"] == "rejected"
    assert verify_certificate(h, h.mu, extra[0], 4)["verdict"].startswith("accepted")


def test_validate_runs_once_per_graph(monkeypatch):
    from drloci import closure
    calls = []

    def counting(graph):
        calls.append(graph)
        return validate(graph)

    monkeypatch.setattr(closure, "validate", counting)
    g = load_graph("partial_order")
    certs = search(g, g.mu)
    assert certs
    for cert in certs:
        assert verify_certificate(g, g.mu, cert)["verdict"].startswith("accepted")
    assert len(calls) == 1


def test_search_without_certificates_keeps_no_solved_system():
    # level_dependence with v5 raised to genus 1, so it is stable, and mu (2, -2):
    # the search solves over a thousand zero patterns and finds no certificate
    doc = FIXTURES["level_dependence"]["graph"]
    g = MarkedDualGraph.from_json({
        **doc,
        "vertices": [{**v, "genus": 1} if v["id"] == "v5" else v for v in doc["vertices"]],
        "legs": [{**l, "mu": 2 if l["mu"] > 0 else -2} for l in doc["legs"]]})
    assert search(g, g.mu) == []
    assert g.memos["solved_system"] == {}


def test_search_writes_no_solved_system_and_verification_fills_it(monkeypatch):
    from drloci import closure, homology
    solves = []

    def counting(*args):
        solves.append(args)
        return solve_forms(*args)

    monkeypatch.setattr(homology, "solve_forms", counting)
    judged = []

    def judging(graph, levels, values):
        judged.append((levels, frozenset(values)))
        return homology.solved_rows(graph, levels, values)

    monkeypatch.setattr(closure, "solved_rows", judging)
    g = load_graph("dollar_matching")
    [cert] = search(g, g.mu)
    # one solve per level structure and zero set at the sites its rows mention;
    # the per-vertex flag choices give 12 patterns, but every one of them leaves
    # the mentioned sites free, so the 3 structures with patterns solve once each
    assert len(solves) == len(judged) == len(set(judged)) == 3
    assert {zeros for _, zeros in judged} == {frozenset()} and "level_filtration" not in g.memos
    assert g.memos["solved_system"] == {}
    for _ in range(2):
        assert verify_certificate(g, g.mu, cert)["verdict"] == "accepted-exact"
        assert len(solves) == 4 and len(g.memos["solved_system"]) == 1


def test_symbolic_node_value_is_rejected_with_a_reason():
    g = load_graph("dollar_matching")
    [cert] = search(g, g.mu)
    site = next(iter(cert.sample))
    doc = cert.decoration.to_json()
    doc["values"] = {**doc.get("values", {}), site: "?x"}
    dec = TwrDecoration.from_json(doc)
    verdict = verify_certificate(g, g.mu, dataclasses.replace(cert, decoration=dec))
    assert verdict["verdict"] == "rejected"
    assert any("symbolic" in r and site in r for r in verdict["reasons"])


def test_readme_memo_table_names_the_memos_a_search_and_verification_fill():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("| Memo | Key |"):]
    table = section[:section.index("\n\n")].splitlines()[2:]
    names = sorted(row.split("`")[1] for row in table)
    g = load_graph("partial_order")
    certs = search(g, g.mu)
    assert certs
    for cert in certs:
        verify_certificate(g, g.mu, cert)
    assert names == sorted(g.memos)


def test_component_verdicts_compiled_once_per_search(monkeypatch):
    from drloci import closure
    calls = []
    compile_component = closure._component_verdict

    def counting(graph, v, divisor, groups, cap):
        calls.append((v, *(tuple(sorted(d.items())) for d in divisor),
                      tuple(map(tuple, groups)), cap))
        return compile_component(graph, v, divisor, groups, cap)

    monkeypatch.setattr(closure, "_component_verdict", counting)
    g = load_graph("partial_order")
    certs = search(g, g.mu)
    assert certs and len(calls) == len(set(calls))
    searched = len(calls)
    verdicts = [verify_certificate(g, g.mu, c) for c in certs]
    # the verifier compiles every component itself, on any graph object
    assert len(calls) == searched + len(certs) * len(g.vertices)
    fresh = MarkedDualGraph.from_json(g.to_json())
    assert verdicts == [verify_certificate(fresh, fresh.mu, c) for c in certs]
    assert all(v["verdict"].startswith("accepted") for v in verdicts)


def _genus0_triangle_with_a_double_edge():
    return MarkedDualGraph.build(
        [("v0", 0), ("v1", 0), ("v2", 0)],
        [("e0", ("v0", "v1")), ("e1", ("v1", "v2")), ("e2", ("v1", "v0")),
         ("e3", ("v2", "v0"))],
        [("l0", "v1", 1), ("l1", "v1", 3), ("l2", "v2", -2), ("l3", "v0", -2)])


def test_a_witness_needs_the_fourth_vertex_order(monkeypatch):
    # the first vertex order is not always enough: on this genus-0 graph two
    # certificates have an exact witness only from the order (v1, v2, v0)
    from drloci import closure
    g = _genus0_triangle_with_a_double_edge()

    def frozen(divisors):
        return tuple((v, *(tuple(sorted(d.items())) for d in div)) for v, div in divisors.items())

    tried: dict[tuple, list] = {}
    realize = closure._realize_in_order

    def recording(divisors, start, order):
        result = realize(divisors, start, order)
        tried.setdefault(frozen(divisors), []).append((order, result is not None))
        return result

    monkeypatch.setattr(closure, "_realize_in_order", recording)
    certs = search(g, g.mu)
    assert len(certs) == 22
    tries = {c.decoration: tried.get(frozen({v: component_divisor(g, c.decoration, v)
                                             for v in g.vertex_ids})) for c in certs}
    late = [c for c in certs if c.verdict == "accepted-exact"
            and tries[c.decoration][0] == (("v0", "v1", "v2"), False)]
    assert len(late) == 2
    for c in late:
        assert tries[c.decoration] == [(("v0", "v1", "v2"), False), (("v0", "v2", "v1"), False),
                                       (("v1", "v0", "v2"), False), (("v1", "v2", "v0"), True)]
        assert verify_certificate(g, g.mu, c)["verdict"] == "accepted-exact"
        orders = c.decoration.order_of
        assert [orders[h] for h in ("e0.0", "e0.1", "e1.0", "e1.1", "e2.0", "e2.1", "e3.0")] == [
            (0, False), (-2, True), (-3, True), (1, False), (-2, True), (0, False), (0, False)]
        assert orders["e3.1"] in ((0, False), (1, False))
        assert [k for k, v in c.decoration.values if v == 0] == ["v0:e0.0", "v0:e2.1"]


def test_each_certificate_reads_each_component_divisor_once(monkeypatch):
    # a component's problem, free sites and witness read only its divisor:
    # building a certificate reads it once per vertex, however many vertex
    # orders the witness search tries, and so does verifying one, through
    # the validate_twr report
    import sys
    from drloci import closure, decorations
    reads = []
    read = decorations.component_divisor

    def counting(graph, dec, v):
        reads.append(v)
        return read(graph, dec, v)

    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "drloci"]:
        if getattr(module, "component_divisor", None) is read:
            monkeypatch.setattr(module, "component_divisor", counting)
    built, orders_tried = [], []
    certificate, realize = closure._certificate, closure._realize_in_order

    def building(*args):
        before, tries = len(reads), len(orders_tried)
        cert = certificate(*args)
        built.append((sorted(reads[before:]), len(orders_tried) - tries))
        return cert

    def trying(*args):
        orders_tried.append(args[-1])
        return realize(*args)

    monkeypatch.setattr(closure, "_certificate", building)
    monkeypatch.setattr(closure, "_realize_in_order", trying)
    g = _genus0_triangle_with_a_double_edge()
    certs = search(g, g.mu)
    assert len(built) == len(certs) == 22
    assert max(tries for _, tries in built) == 6  # every order of three vertices
    assert all(vs == ["v0", "v1", "v2"] for vs, _ in built)
    for cert in certs:
        del reads[:]
        assert verify_certificate(g, g.mu, cert)["verdict"].startswith("accepted")
        assert sorted(reads) == ["v0", "v1", "v2"]
    from drloci import hurwitz
    assert not hasattr(hurwitz, "component_divisor")


def _renamed(doc: dict, vertex=lambda v: v, leg=lambda l: l) -> dict:
    return {"vertices": [{**v, "id": vertex(v["id"])} for v in doc["vertices"]],
            "edges": [{**e, "ends": [vertex(x) for x in e["ends"]]} for e in doc["edges"]],
            "legs": [{**l, "id": leg(l["id"]), "vertex": vertex(l["vertex"])}
                     for l in doc["legs"]]}


# site keys are "<vertex>:<point>": a leg named like a half-edge made search
# return 34 certificates instead of 2 (one rejected by the verifier), and
# vertex ids "x:v1", ... turned certificates into rejected ones
ID_CLASHES = [
    ("dollar_unmarked_zeros", dict(leg=lambda l: "q1.0" if l == "z1" else l),
     ("leg-id-is-half-edge-id", "q1.0")),
    *((name, dict(vertex=lambda v: f"x:{v}"), ("colon-in-vertex-id", "x:v1"))
      for name in ("dollar_unmarked_zeros", "horizontal_nodes", "dollar_matching")),
]


@pytest.mark.parametrize("name, rename, error", ID_CLASHES,
                         ids=["leg-named-q1.0", "colon-dollar", "colon-horizontal",
                              "colon-matching"])
def test_ids_that_clash_with_site_keys_are_rejected(capsys, tmp_path, name, rename, error):
    from drloci.cli import main
    doc = _renamed(FIXTURES[name]["graph"], **rename)
    g = MarkedDualGraph.from_json(doc)
    assert error in validate(g).errors
    with pytest.raises(ValueError, match="invalid graph"):
        search(g, g.mu)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code = main(["check-closure", "--graph", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert error[0] in json.loads(captured.err)["error"]
