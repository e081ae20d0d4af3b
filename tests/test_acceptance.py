"""Acceptance criteria, one test per criterion.

Every criterion is checked at its stated tolerance (exact rational
arithmetic throughout, so "zero tolerance" means equality).  Each test
prints a single PASS line on success; pytest -v gives the per-criterion
verdict lines either way.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from drloci.closure import search
from drloci.covers import closure_via_covers
from drloci.decorations import TwrDecoration
from drloci.exact import LinearForm, solve_forms
from drloci.fixtures import load_cover, load_decoration, load_graph, load_levels
from drloci.graphs import LevelStructure, enumerate_level_structures, isomorphic
from drloci.homology import default_zero_legs, evaluate, evaluation_system, \
    level_filtration, normalized_rows, relative_h1
from drloci.hurwitz import HurwitzProblem, exists, rh_check
from drloci.twisting import stabilize, twist
from plain_exact import same_space
from plain_pushforward import pushforward_check
from randgen import random_connected_graph, random_levels, random_twr

PASS = "ACCEPTANCE {}: PASS - {}"


def _all_equal_space(symbols):
    first = symbols[0]
    return solve_forms([LinearForm.build({first: Fraction(1), s: Fraction(-1)})
                        for s in symbols[1:]], symbols)


def _pairs_space(pairs, symbols):
    return solve_forms([LinearForm.build({a: Fraction(1), b: Fraction(-1)})
                        for a, b in pairs], symbols)


def _space(graph, levels, dec):
    """The solution space of the evaluation system, all levels together."""
    return solve_forms([r for rows in evaluation_system(graph, levels, dec).values()
                        for r in rows])


def _symbols(*systems):
    return sorted({k for system in systems for rows in system.values()
                   for r in rows for k, _ in r.coeffs})


def test_criterion_1_dollar_theorem_reproduction():
    # alternative 1 on the zeros|pole split: the q+ values all equal
    g1 = load_graph("dollar_unmarked_zeros")
    certs1 = search(g1, (1, 1, 1, -3))
    assert all(c.levels.of == {"v1": 0, "v2": -1} for c in certs1)
    syms = ["v1:q1.0", "v1:q2.0", "v1:q3.0"]
    line = [c for c in certs1 if c.solution_dim == 1]
    assert len(line) == 1
    space = _space(g1, line[0].levels, line[0].decoration)
    assert same_space(space, _all_equal_space(syms))

    # alternative 2 on the all-on-one-vertex dollar: the top-component
    # node values all equal (every certificate sits on that structure)
    g2 = load_graph("dollar_cover")
    certs2 = search(g2, (1, 1, 1, -3))
    assert certs2 and all(c.levels.of == {"v1": -1, "v2": 0} for c in certs2)
    syms2 = ["v2:q1.1", "v2:q2.1", "v2:q3.1"]
    for c in certs2:
        sp = _space(g2, c.levels, c.decoration)
        expected = _all_equal_space(sorted(set(syms2) | set(sp.symbols)))
        assert all(sp.column(a) == sp.column(b) for a, b in
                   itertools.combinations([s for s in syms2 if s in sp.symbols], 2))
    minimal = [c for c in certs2
               if all(o == (0, False) or o == (-2, True)
                      for _, o in c.decoration.orders) and not c.decoration.values]
    assert minimal
    sp = _space(g2, minimal[0].levels, minimal[0].decoration)
    assert same_space(sp, _all_equal_space(syms2))

    # alternative 3 on the zero-sum split: values match across every node
    g3 = load_graph("dollar_matching")
    certs3 = search(g3, (2, 1, -2, -1))
    assert len(certs3) == 1
    c3 = certs3[0]
    assert c3.levels.of == {"v1": 0, "v2": 0}
    sp3 = _space(g3, c3.levels, c3.decoration)
    pairs = [("v1:q1.0", "v2:q1.1"), ("v1:q2.0", "v2:q2.1"), ("v1:q3.0", "v2:q3.1")]
    assert same_space(sp3, _pairs_space(pairs, sorted(sp3.symbols)))

    # the alternatives not realized by a distribution stay empty on both
    # sides: (1,1,1,-3) admits no zero-sum split across two components, so
    # the both-top alternative imposes an unsatisfiable divisor balance
    splits = itertools.chain.from_iterable(
        itertools.combinations((1, 1, 1, -3), k) for k in (1, 2, 3))
    assert all(sum(s) != 0 for s in splits)
    assert not any(c.levels.of == {"v1": 0, "v2": 0} for c in certs1 + certs2)
    print(PASS.format(1, "dollar families match the three alternatives exactly"))


def test_criterion_2_unmarked_zeros_example():
    g = load_graph("dollar_unmarked_zeros")
    system = evaluation_system(g, load_levels("dollar_unmarked_zeros"),
                               load_decoration("dollar_unmarked_zeros"))
    space = solve_forms(system[0])
    assert same_space(space, _all_equal_space(["v1:q1.0", "v1:q2.0", "v1:q3.0"]))
    assert all(r.is_zero for r in system[-1])
    print(PASS.format(2, "level-0 space is the equal-values line; level -1 vanishes identically"))


def test_criterion_3_horizontal_nodes_example():
    g = load_graph("horizontal_nodes")
    lv = load_levels("horizontal_nodes")
    dec = load_decoration("horizontal_nodes")
    # with the node values left unknown the top level forces both to zero
    unknowns = TwrDecoration.build(dict(dec.order_of))
    system = evaluation_system(g, lv, unknowns)
    space = solve_forms([r for rows in system.values() for r in rows])
    assert space.forces_value("v1:q1.0") == 0
    assert space.forces_value("v1:q2.0") == 0
    # the level -1 condition matches the two-sided horizontal evaluation
    assert space.column("v2:q3.0") == space.column("v3:q3.1")
    syms = _symbols(system)
    rows = normalized_rows(system[-1], syms)
    idx = {s: i for i, s in enumerate(syms)}
    expected = [0] * (len(syms) + 1)
    expected[idx["v2:q3.0"]] = 1
    expected[idx["v3:q3.1"]] = -1
    assert rows == [tuple(expected)]
    # the fixture decoration (with the nodal zeros marked) is the
    # stabilization data of a three-level fully marked model
    tw = twist(g, lv, dec)
    assert tw.levels.depth + 1 == 3
    g2, lv2, dec2, _ = stabilize(tw.graph, tw.levels, tw.decoration)
    horiz = [e for e, _ in g2.edges if lv2.is_horizontal(g2, e)]
    assert horiz == ["q3"] and lv2.depth + 1 == 2
    print(PASS.format(3, "forced divisor identity, horizontal matching, and 2-level stabilization"))


def test_criterion_4_partial_order_and_level_dependence():
    g = load_graph("partial_order")
    dec = load_decoration("partial_order")
    s1 = evaluation_system(g, load_levels("partial_order", "levels_1"), dec)
    s2 = evaluation_system(g, load_levels("partial_order", "levels_2"), dec)
    syms = _symbols(s1, s2)
    assert normalized_rows(s1[0], syms) == normalized_rows(s2[0], syms)
    assert normalized_rows(s1[0], syms)  # nonempty comparison

    g = load_graph("level_dependence")
    dec = load_decoration("level_dependence")
    sys1 = evaluation_system(g, load_levels("level_dependence", "levels_1"), dec)
    sys2 = evaluation_system(g, load_levels("level_dependence", "levels_2"), dec)
    syms = _symbols(sys1, sys2)
    idx = {s: i for i, s in enumerate(syms)}

    def vec(coeffs):
        out = [0] * (len(syms) + 1)
        for s, c in coeffs.items():
            out[idx[s]] = c
        return tuple(out)

    four_term = vec({"v2:q3.0": 1, "v2:q5.0": -1, "v3:q4.0": -1, "v3:q6.0": 1})
    two_term = vec({"v2:q3.0": 1, "v2:q5.0": -1})
    top_term = vec({"v1:q1.0": 1, "v1:q2.0": -1})
    assert normalized_rows(sys1[-1], syms) == [four_term]
    assert normalized_rows(sys2[-1], syms) == [two_term]
    assert normalized_rows(sys1[0], syms) == [top_term]
    assert normalized_rows(sys2[0], syms) == [top_term]
    assert normalized_rows(sys2[-2], syms) == []
    print(PASS.format(4, "identical top systems; 4-term vs 2-term rows verbatim"))


def test_criterion_5_round_trip_500_random_twrs():
    rng = random.Random(20240817)
    count = 0
    while count < 500:
        graph, levels, dec = random_twr(rng, max_vertices=6, max_ord=6)
        tw = twist(graph, levels, dec)
        from drloci.decorations import validate_twdr
        assert validate_twdr(tw.graph, tw.levels, tw.decoration).ok
        g2, lv2, dec2, cm = stabilize(tw.graph, tw.levels, tw.decoration)
        assert (g2, lv2, dec2) == (graph, levels, dec)
        pf = pushforward_check(tw.graph, tw.levels, tw.decoration, g2, dec2, cm)
        assert pf.ok, pf.details
        count += 1
    print(PASS.format(5, f"{count} random round trips bit-exact with agreeing systems"))


def test_criterion_6_well_definedness_and_rank_formula():
    rng = random.Random(99)
    graphs = 0
    reroutes = 0
    while graphs < 200:
        g = random_connected_graph(rng, max_vertices=8, max_extra_edges=5)
        z = default_zero_legs(g)
        assert len(relative_h1(g)) == len(g.edges) - len(g.vertices) + 1 + max(len(z) - 1, 0)
        lv = random_levels(rng, g)
        filt = level_filtration(g, lv)
        for i in filt:
            lower = filt.get(i - 1, [])
            for gamma in filt[i][:3]:
                for c in lower[:3]:
                    moved = dict(gamma)
                    for cell, x in c.items():
                        moved[cell] = moved.get(cell, 0) + 2 * x
                    lhs = evaluate(gamma, g, lv, i)
                    rhs = evaluate(moved, g, lv, i)
                    assert lhs == rhs
                    reroutes += 1
        graphs += 1
    assert reroutes > 100
    print(PASS.format(6, f"rank formula on {graphs} graphs; {reroutes} invariant reroutings"))


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def _sweep(d, genus, max_branch):
    parts = [p for p in _partitions(d) if any(x > 1 for x in p)]
    target = 2 * d - 2 + 2 * genus
    for r in range(1, max_branch + 1):
        for profs in itertools.combinations_with_replacement(parts, r):
            if sum(d - len(p) for p in profs) == target:
                yield profs


def test_criterion_7_hurwitz_oracle():
    # exists implies the count identity on the exhaustive d <= 4 sweep
    # (profile lists with at most 6 branch values)
    swept = 0
    for d in (2, 3, 4):
        for genus in (0, 1, 2):
            for profs in _sweep(d, genus, 6):
                problem = HurwitzProblem.build(d, genus, profs)
                swept += 1
                if exists(problem):
                    assert rh_check(problem)
    assert swept > 50
    bad = HurwitzProblem.build(4, 0, [(2, 2), (2, 2), (3, 1)])
    assert rh_check(bad) and not exists(bad)
    t0 = time.time()
    good = HurwitzProblem.build(3, 1, [(3,), (1, 1, 1)] + [(2, 1)] * 4)
    assert exists(good)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    t0 = time.time()
    swept5 = 0
    for genus in (0, 1):
        for profs in _sweep(5, genus, 6):
            problem = HurwitzProblem.build(5, genus, profs)
            swept5 += 1
            if exists(problem):
                assert rh_check(problem)
    sweep5 = time.time() - t0
    assert swept5 > 30 and sweep5 < 60.0
    print(PASS.format(7, f"sweeps clean; d=3 fixture {elapsed * 1000:.0f}ms; d=5 sweep {sweep5:.1f}s"))


def test_criterion_8_cross_oracle_agreement():
    for name in ("dollar_cover", "cherry"):
        g = load_graph(name)
        certs = search(g, g.mu)
        cover_verdict = closure_via_covers(g, g.mu, load_cover(name))
        assert bool(certs) == cover_verdict["accepted"] is True
    g = load_graph("cherry")
    certs = search(g, g.mu)
    l1 = LevelStructure.build({"vt": 0, "va": -1, "vb": -2})
    l2 = LevelStructure.build({"vt": 0, "va": -2, "vb": -1})
    assert any(c.levels == l1 for c in certs)
    assert any(c.levels == l2 for c in certs)
    assert not isomorphic(g, g, l1, l2)
    print(PASS.format(8, "cover and decoration routes agree; cherry tilts both accepted"))


def test_criterion_9_enumeration_and_determinism():
    g = load_graph("dollar_unmarked_zeros")
    structures = enumerate_level_structures(g)
    assert len(structures) == 3
    dump1 = json.dumps([s.to_json() for s in enumerate_level_structures(g)], sort_keys=True)
    dump2 = json.dumps([s.to_json() for s in enumerate_level_structures(g)], sort_keys=True)
    assert dump1 == dump2
    run1 = json.dumps([c.to_json() for c in search(g, g.mu)], sort_keys=True)
    run2 = json.dumps([c.to_json() for c in search(g, g.mu)], sort_keys=True)
    assert run1 == run2
    print(PASS.format(9, "3 dollar level structures; repeated runs byte-identical"))
