"""The solution space each zero pattern of a search shares, against its own solve.

``search`` solves a level structure's evaluation system once per set of
nodal zeros at the sites its rows mention, and every pattern with that set
shares the solution.  Wrapped around the walk of a real search, each judged
pattern's shared space must equal ``solve_forms`` of the undecorated rows
with all of the pattern's nodal zeros substituted (symbols, particular
solution and basis, and the same forced-equal columns), and a pattern must
be skipped exactly when that system is inconsistent or forces a regular
node value to zero.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

from drloci import closure
from drloci.closure import search
from drloci.decorations import site_key
from drloci.exact import solve_forms
from drloci.homology import evaluation_system

from test_judged_walk import stable_graphs
from test_search_equivalence import random_searchable_graph


@contextmanager
def shared_spaces_checked():
    """Check every pattern the search judges; yields the counts of patterns
    judged, kept, and with a nodal zero at a site no row mentions."""
    walk, counts = closure._decorations, {"judged": 0, "kept": 0, "unmentioned": 0}

    def checking(graph, levels, max_deg, judge_of):
        rows = [r for block in evaluation_system(graph, levels, None).values() for r in block]
        mentioned = {s for r in rows for s, _ in r.coeffs}

        def checked_judge_of(zero_marks):
            judge = judge_of(zero_marks)
            values = {site_key(graph.half_edge_vertex(h), h): Fraction(0) for h in zero_marks}
            want = solve_forms([r.substitute(values) for r in rows])
            skipped = want is None or any(want.forces_value(s) == 0 for s in want.symbols)
            assert (judge is None) == skipped
            if judge is not None:
                got = judge.space
                assert (got.symbols, got.particular, got.basis) == \
                    (want.symbols, want.particular, want.basis)
                ids = {}
                assert judge.columns == {s: ids.setdefault(want.column(s), len(ids))
                                         for s in want.symbols}
                assert judge.zero_marks == zero_marks and judge.zero_values == values
                counts["kept"] += 1
            counts["judged"] += 1
            counts["unmentioned"] += not mentioned.issuperset(values)
            return judge

        yield from walk(graph, levels, max_deg, checked_judge_of)

    with mock.patch.object(closure, "_decorations", checking):
        yield counts


def test_shared_space_is_the_patterns_own_on_named_graphs():
    with shared_spaces_checked() as counts:
        for graph in stable_graphs().values():
            search(graph, graph.mu)
    assert counts["judged"] > counts["kept"] > 0 and counts["unmentioned"] > 0


def test_shared_space_is_the_patterns_own_on_random_graphs():
    rng = random.Random(1801)
    with shared_spaces_checked() as counts:
        for _ in range(25):
            graph = random_searchable_graph(rng)
            search(graph, graph.mu)
    assert counts["judged"] > counts["kept"] > 0 and counts["unmentioned"] > 0
