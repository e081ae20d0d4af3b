import itertools
from fractions import Fraction

import pytest

from drloci.decorations import TwrDecoration, component_divisor
from drloci.fixtures import load_decoration, load_graph
from drloci.graphs import MarkedDualGraph
from drloci.hurwitz import (INF, DegreeCapExceeded, HurwitzProblem,
                            InfeasibleComponent, component_problem, exists,
                            realize_genus0, rh_check)


def P(d, g, profiles):
    return HurwitzProblem.build(d, g, profiles)


def test_rh_examples():
    assert not rh_check(P(4, 0, [(2, 1, 1)] * 3))      # sum 3 != 6
    assert rh_check(P(3, 1, [(3,), (1, 1, 1)] + [(2, 1)] * 4))
    assert rh_check(P(1, 0, []))
    assert not rh_check(P(3, 0, [(2, 2)]))             # not a partition of 3


def test_exists_examples():
    assert exists(P(2, 0, [(2,), (2,)]))
    assert exists(P(3, 1, [(3,), (1, 1, 1)] + [(2, 1)] * 4))
    assert not exists(P(4, 0, [(2, 2), (2, 2), (3, 1)]))
    assert exists(P(1, 0, []))


def test_exists_implies_rh_exhaustive_d_le_4():
    # every nontrivial profile multiset with at most 6 branch points
    for d in (2, 3, 4):
        parts = [p for n in (d,) for p in _partitions(d) if any(x > 1 for x in p)]
        for r in range(1, 5):
            for profs in itertools.combinations_with_replacement(parts, r):
                ram = sum(d - len(p) for p in profs)
                if (ram - 2 * d + 2) % 2 or ram < 2 * d - 2:
                    g = None
                else:
                    g = (ram - 2 * d + 2) // 2
                for genus in ({g} if g is not None else {0, 1}):
                    if genus is None:
                        continue
                    problem = P(d, genus, profs)
                    if exists(problem):
                        assert rh_check(problem)


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def test_exists_agrees_with_rh_for_d_le_3_genus_0():
    # no exceptional non-realizable data at these degrees
    for d in (1, 2, 3):
        parts = [p for p in _partitions(d) if any(x > 1 for x in p)]
        for r in range(0, 7):
            for profs in itertools.combinations_with_replacement(parts, r):
                problem = P(d, 0, profs)
                assert exists(problem) == rh_check(problem)


def test_exists_invariant_under_profile_order():
    profs = [(3,), (2, 1), (2, 1), (1, 1, 1), (2, 1), (2, 1)]
    base = exists(P(3, 1, profs))
    for perm in itertools.islice(itertools.permutations(profs), 24):
        assert exists(P(3, 1, list(perm))) == base


def test_cap_refusal():
    with pytest.raises(DegreeCapExceeded):
        exists(P(7, 0, [(7,), (7,)]), cap=6)


def test_component_problem_dollar_top_vertex():
    g = load_graph("dollar_unmarked_zeros")
    dec = load_decoration("dollar_unmarked_zeros")
    groups = [["v1:q1.0", "v1:q2.0", "v1:q3.0"]]
    problem = component_problem(g.genus_of["v1"], component_divisor(g, dec, "v1"), groups)
    assert problem == P(3, 0, [(3,), (1, 1, 1), (1, 1, 1), (2, 1), (2, 1)])
    assert exists(problem)


def test_component_problem_power_map():
    for d in (1, 2, 3, 4):
        g = MarkedDualGraph.build([("v", 0)], [], [("z", "v", d), ("p", "v", -d)])
        dec = TwrDecoration.build({})
        problem = component_problem(0, component_divisor(g, dec, "v"))
        assert problem.degree == d
        assert exists(problem)


def test_component_problem_degree_mismatch():
    g = MarkedDualGraph.build(
        [("v", 0), ("w", 0)], [("e", ("v", "w"))],
        [("z", "v", 3), ("p", "v", -1)])
    dec = TwrDecoration.build({"e.0": (0, False), "e.1": (-2, True)})
    with pytest.raises(InfeasibleComponent):
        component_problem(0, component_divisor(g, dec, "v"))


def test_negative_residual_reported():
    # genus 0, degree 2, but four forced branch points
    g = MarkedDualGraph.build(
        [("v", 0), ("w", 2)],
        [("e1", ("v", "w")), ("e2", ("v", "w")), ("e3", ("v", "w")), ("e4", ("v", "w"))],
        [("z", "v", 2), ("p", "v", -2)])
    dec = TwrDecoration.build({
        "e1.0": (1, False), "e1.1": (-3, True),
        "e2.0": (1, False), "e2.1": (-3, True),
        "e3.0": (1, False), "e3.1": (-3, True),
        "e4.0": (1, False), "e4.1": (-3, True)})
    with pytest.raises(InfeasibleComponent):
        component_problem(0, component_divisor(g, dec, "v"))


def test_realize_genus0_examples():
    r = realize_genus0({Fraction(1): 1, Fraction(-1): 1}, {INF: 2},
                       Fraction(1), [Fraction(0)])
    assert r.values[Fraction(0)] == -1
    r = realize_genus0({Fraction(0): 2}, {INF: 2}, Fraction(1),
                       [Fraction(2), Fraction(0)])
    assert r.values[Fraction(2)] == 4
    assert r.values[Fraction(0)] == 0


def test_realize_genus0_rescaling_cocycle():
    zeros = {Fraction(0): 1, Fraction(2): 1}
    poles = {Fraction(1): 1, INF: 1}
    qs = [Fraction(3), Fraction(5), Fraction(7)]
    base = realize_genus0(zeros, poles, Fraction(1), qs)
    scaled = realize_genus0(zeros, poles, Fraction(4), qs)
    for q in qs:
        assert scaled.values[q] == 4 * base.values[q]


def test_realize_genus0_coordinate_collision():
    with pytest.raises(ValueError):
        realize_genus0({Fraction(1): 1}, {Fraction(1): 1})


def _exists_unpruned(d, genus, profiles):
    # independent route: enumerate full tuples without fixing any factor
    from drloci.hurwitz import _cycle_type, _compose
    from plain_oracles import _transitive
    problem = P(d, genus, profiles)
    if not rh_check(problem):
        return False
    if d == 1:
        return True
    perms = list(itertools.permutations(range(d)))
    pools = [[p for p in perms if _cycle_type(p) == tuple(prof)]
             for prof in problem.profiles]
    for tup in itertools.product(*pools):
        prod = tuple(range(d))
        for t in tup:
            prod = _compose(prod, t)
        if prod == tuple(range(d)) and _transitive(list(tup), d):
            return True
    return False


def test_exists_agrees_with_unpruned_oracle():
    cases = [
        (2, 0, [(2,), (2,)]),
        (3, 0, [(3,), (3,), (3,)]),
        (3, 0, [(3,), (2, 1), (2, 1), (2, 1)]),
        (3, 1, [(3,), (3,), (2, 1), (2, 1)]),
        (4, 0, [(2, 2), (2, 2), (3, 1)]),
        (4, 0, [(4,), (4,), (2, 1, 1), (2, 1, 1)]),
        (4, 0, [(2, 2), (4,), (3, 1)]),
        (4, 1, [(4,), (2, 2), (2, 2), (2, 2)]),
    ]
    for d, genus, profs in cases:
        assert exists(P(d, genus, profs)) == _exists_unpruned(d, genus, profs)
