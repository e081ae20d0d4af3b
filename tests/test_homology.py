import random

import pytest

from drloci.decorations import TwrDecoration
from drloci.exact import LinearForm
from drloci.fixtures import FIXTURES, fixture_names, load_decoration, load_graph, load_levels
from drloci.graphs import LevelStructure, MarkedDualGraph, enumerate_level_structures
from drloci.homology import (chain_support_top_level, default_zero_legs,
                             evaluate, evaluation_system, level_filtration,
                             relative_h1)
from randgen import random_connected_graph, random_levels


def dollar():
    return load_graph("dollar_unmarked_zeros")


def test_rank_theta():
    g = MarkedDualGraph.build(
        [("v1", 0), ("v2", 0)],
        [(e, ("v1", "v2")) for e in ("e1", "e2", "e3")])
    assert len(relative_h1(g)) == 2


def test_rank_dollar_with_zero_legs():
    assert len(relative_h1(dollar())) == 4


def test_rank_single_vertex_one_leg():
    g = MarkedDualGraph.build([("v", 1)], [], [("z", "v", 1)])
    assert len(relative_h1(g)) == 0


def test_rank_formula_on_random_graphs():
    rng = random.Random(7)
    for _ in range(500):
        g = random_connected_graph(rng)
        z = default_zero_legs(g)
        expected = len(g.edges) - len(g.vertices) + 1 + max(len(z) - 1, 0)
        assert len(relative_h1(g)) == expected


def test_filtration_dollar():
    g = dollar()
    lv = load_levels("dollar_unmarked_zeros")
    filt = level_filtration(g, lv)
    assert len(filt.generators[0]) == 4
    assert len(filt.generators[-1]) == 2
    for c in filt.generators[-1]:
        assert all(kind == "leg" for (kind, _), x in c.items() if x)
    # filtration is increasing: every deeper generator lies below level 0
    for c in filt.generators[-1]:
        assert chain_support_top_level(c, g, lv) == -1


def test_filtration_reports_top_levels():
    g = dollar()
    lv = load_levels("dollar_unmarked_zeros")
    tops = [chain_support_top_level(c, g, lv) for c in relative_h1(g)]
    assert sorted(tops) == [-1, -1, 0, 0]


def test_top_level_generators_are_relative_h1():
    # the top level's down-set is the whole graph
    cases = [(load_graph(name), lv) for name in fixture_names() if "graph" in FIXTURES[name]
             for lv in enumerate_level_structures(load_graph(name))]
    rng = random.Random(5)
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=6)
        cases.append((g, random_levels(rng, g)))
    for g, lv in cases:
        assert level_filtration(g, lv).generators[lv.attained()[0]] == relative_h1(g)


def test_filtration_compact_type_tree():
    g = load_graph("cherry")
    lv = LevelStructure.build({"vt": 0, "va": -1, "vb": -2})
    filt = level_filtration(g, lv)
    assert len(filt.generators[0]) == 1  # the z1-z2 path on the top vertex
    assert filt.generators[-1] == []
    assert filt.generators[-2] == []


def test_restrict_dollar_loop():
    g = dollar()
    lv = load_levels("dollar_unmarked_zeros")
    chain = {("edge", "q1"): 1, ("edge", "q2"): -1}
    # no horizontal cell: the two upper halves, cut at q1+ and q2+
    assert evaluate(chain, g, lv, 0).coeff_map() == {"v1:q1.0": 1, "v1:q2.0": -1}
    form = evaluate(chain, g, lv, 0, load_decoration("dollar_unmarked_zeros"))
    assert form.coeff_map() == {"v1:q1.0": 1, "v1:q2.0": -1}


def test_restrict_rejects_unsupported_chain():
    g = dollar()
    lv = load_levels("dollar_unmarked_zeros")
    with pytest.raises(ValueError):
        evaluate({("edge", "q1"): 1, ("edge", "q2"): -1}, g, lv, -1)


def test_restrict_cycle_below_level_is_empty():
    g = load_graph("level_dependence")
    lv = LevelStructure.from_json({"v1": 0, "v2": -1, "v3": -1, "v4": -2, "v5": -2})
    square = {("edge", "q3"): 1, ("edge", "q4"): -1,
              ("edge", "q6"): 1, ("edge", "q5"): -1}
    assert evaluate(square, g, lv, 0).is_zero


def test_zero_to_zero_path_evaluates_to_zero():
    g = dollar()
    lv = load_levels("dollar_unmarked_zeros")
    chain = {("leg", "z1"): 1, ("leg", "z2"): -1}
    assert evaluate(chain, g, lv, -1, load_decoration("dollar_unmarked_zeros")).is_zero


def test_horizontal_crossing_two_sided_values():
    g = load_graph("horizontal_nodes")
    lv = load_levels("horizontal_nodes")
    dec = load_decoration("horizontal_nodes")
    chain = {("leg", "z2"): -1, ("edge", "q3"): 1, ("leg", "z3"): 1}
    form = evaluate(chain, g, lv, -1, dec)
    assert form.coeff_map() == {"v2:q3.0": 1, "v3:q3.1": -1}


def test_self_loop_crossing_forces_equal_values():
    g = MarkedDualGraph.build([("v", 1)], [("e", ("v", "v"))], [("z", "v", 2), ("p", "v", -2)])
    lv = LevelStructure.build({"v": 0})
    dec = TwrDecoration.build({"e.0": (0, False), "e.1": (0, False)})
    system = evaluation_system(g, lv, dec)
    rows = [r for r in system.block(0).rows if not r.is_zero]
    assert len(rows) == 1
    assert rows[0].coeff_map() in (
        {"v:e.0": 1, "v:e.1": -1}, {"v:e.0": -1, "v:e.1": 1})


def test_ev_vanishes_on_lower_filtration():
    rng = random.Random(11)
    for _ in range(50):
        g = random_connected_graph(rng, max_vertices=6)
        lv = random_levels(rng, g)
        filt = level_filtration(g, lv)
        for i in filt.levels:
            below = [c for c in filt.generators.get(i - 1, [])]
            for c in below:
                form = evaluate(c, g, lv, i)
                assert form.is_zero


def test_well_definedness_under_lower_rerouting():
    # adding a relative cycle supported strictly below the level never
    # changes the evaluation
    rng = random.Random(13)
    checked = 0
    for _ in range(300):
        g = random_connected_graph(rng, max_vertices=7, max_extra_edges=5)
        lv = random_levels(rng, g)
        filt = level_filtration(g, lv)
        for i in filt.levels:
            gens = filt.generators[i]
            lower = filt.generators.get(i - 1, [])
            if not gens or not lower:
                continue
            gamma = rng.choice(gens)
            c = rng.choice(lower)
            k = rng.randint(-2, 2)
            moved = dict(gamma)
            for cell, x in c.items():
                moved[cell] = moved.get(cell, 0) + k * x
            lhs = evaluate(gamma, g, lv, i)
            rhs = evaluate(moved, g, lv, i)
            assert lhs == rhs
            checked += 1
    assert checked > 100


def test_evaluation_system_dollar_expected_spaces():
    g = dollar()
    lv = load_levels("dollar_unmarked_zeros")
    system = evaluation_system(g, lv, load_decoration("dollar_unmarked_zeros"))
    assert system.block(-1).verdict() is True
    assert system.block(0).verdict() == "conditional"
    space = system.solution_space()
    assert space.dim == 1
    assert space.column("v1:q1.0") == space.column("v1:q2.0")
    assert space.column("v1:q1.0") == space.column("v1:q3.0")


def test_integer_matrix_entries_bounded_by_chain_coefficients():
    rng = random.Random(17)
    for _ in range(50):
        g = random_connected_graph(rng, max_vertices=6)
        lv = random_levels(rng, g)
        system = evaluation_system(g, lv, None)
        for block in system.blocks:
            for gen, row in zip(block.generators, block.rows):
                bound = sum(abs(c) for c in gen.values())
                assert all(abs(v) <= bound for _, v in row.coeffs)


def test_inconsistent_system_detected():
    from drloci.exact import solve_forms
    from fractions import Fraction
    forms = [LinearForm.build({"v": Fraction(1)}),
             LinearForm.build({"v": Fraction(1)}, Fraction(-1))]
    assert solve_forms(forms) is None


def test_mu_zero_legs_join_relative_homology():
    g = MarkedDualGraph.build(
        [("v", 0)], [("e", ("v", "v"))],
        [("z", "v", 1), ("x", "v", 0), ("p", "v", -1)])
    # zero legs are z and x (orders >= 0): rank 1 + max(2-1, 0) = 2
    assert len(relative_h1(g)) == 2
    chain = {("leg", "z"): 1, ("leg", "x"): -1}
    lv = LevelStructure.build({"v": 0})
    form = evaluate(chain, g, lv, 0)
    assert form.is_zero  # both endpoints carry the value 0 by convention


def test_solve_constraints_named_operation():
    g = dollar()
    system = evaluation_system(g, load_levels("dollar_unmarked_zeros"),
                               load_decoration("dollar_unmarked_zeros"))
    space = system.solution_space()
    assert space is not None and space.dim == 1
