"""Evaluation rows built once per level structure.

``closure._solved_system`` takes the undecorated rows of a level
structure, memoized per graph, and substitutes a decoration's values: a
zero site drops out, a rational becomes a constant, and pole sites never
appear.  The rows, and the symbols, particular solution and basis of the
solution space, must equal those of ``evaluation_system`` on the
decoration itself.
"""

import random
from fractions import Fraction

import pytest

from drloci.closure import _solved_system, search
from drloci.decorations import TwrDecoration, component_divisor
from drloci.fixtures import FIXTURES, load_decoration, load_graph, load_levels
from drloci.graphs import validate
from drloci.homology import evaluation_system

from randgen import random_twr
from test_scale_times import scale_times


def with_rationals(graph, dec, rng):
    """``dec`` with nonzero rationals on some of its free node sites."""
    values = dict(dec.values)
    for site in [s for v in graph.vertex_ids for s in component_divisor(graph, dec, v)[2]]:
        if rng.random() < 0.6:
            values[site] = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 3))
    return TwrDecoration.build(dec.order_of, values, dec.marked_zero_vertices)


def assert_same_system(graph, levels, dec) -> set[str]:
    """Compare with the direct system; return the kinds of data ``dec`` has."""
    rows, space = _solved_system(graph, levels, dec)
    system = evaluation_system(graph, levels, dec)
    assert rows == system.all_rows()
    want = system.solution_space()
    if want is None:
        assert space is None
    else:
        assert (space.symbols, space.particular, space.basis) == (
            want.symbols, want.particular, want.basis)
    values = [v for _, v in dec.values]
    return ({"zero"} if 0 in values else set()) | ({"rational"} if any(values) else set()) | (
        {"pole"} if any(pole for _, (_, pole) in dec.orders) else set())


def fixture_decorations():
    for name, fixture in FIXTURES.items():
        for key in fixture:
            if "decoration" in fixture and key.startswith("levels"):
                yield name, load_levels(name, key), load_decoration(name)


def test_rows_memo_matches_direct_systems_on_fixtures():
    rng = random.Random(15)
    kinds = set()
    graphs = {}
    for name, levels, dec in fixture_decorations():
        graph = graphs.setdefault(name, load_graph(name))
        for d in (dec, with_rationals(graph, dec, rng)):
            kinds |= assert_same_system(graph, levels, d)
    for name in ("dollar_matching", "partial_order", "cherry", "horizontal_nodes"):
        graph = graphs.setdefault(name, load_graph(name))
        for cert in search(graph, graph.mu):
            sample = {s: v for s, v in cert.sample.items() if v != 0}
            rational = TwrDecoration.build(cert.decoration.order_of,
                                           {**dict(cert.decoration.values), **sample})
            for d in (cert.decoration, rational, with_rationals(graph, cert.decoration, rng)):
                kinds |= assert_same_system(graph, cert.levels, d)
    assert kinds == {"zero", "rational", "pole"}


@pytest.mark.parametrize("seed", range(40))
def test_rows_memo_matches_direct_systems_on_random_twr(seed):
    rng = random.Random(seed)
    graph, levels, dec = random_twr(rng, max_vertices=5)
    assert_same_system(graph, levels, dec)
    assert_same_system(graph, levels, with_rationals(graph, dec, rng))


def test_search_keeps_the_rows_of_its_certificates_level_structures():
    checked = 0
    for name, fixture in FIXTURES.items():
        if "graph" not in fixture or not validate(load_graph(name)).stable:
            continue
        graph = load_graph(name)
        certs = search(graph, graph.mu)
        assert set(graph.memos["level_rows"]) == {c.levels for c in certs}, name
        checked += bool(certs)
    assert checked >= 5
    graph = scale_times.build("ld9-m2")
    assert search(graph, graph.mu) == [] and graph.memos["level_rows"] == {}
