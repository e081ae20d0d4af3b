"""``homology.evaluate`` against the two-step reference in
``plain_homology``: the same form for every generator of the relative
homology and of each level sublattice, at every level where the chain is
supported, with and without node values, and the same refusal elsewhere."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from drloci.decorations import TwrDecoration, site_key
from drloci.fixtures import FIXTURES, fixture_names, load_graph
from drloci.graphs import enumerate_level_structures, half_edge_id
from drloci.homology import evaluate, level_filtration, relative_h1
from plain_homology import evaluate as plain_evaluate, restrict_to_level
from randgen import random_connected_graph, random_levels


def node_values(rng, graph):
    """Values at about two thirds of the node sites: rationals, and "?name"
    unknowns of which several sites share one."""
    values = {}
    for e, ends in graph.edges:
        for side, v in enumerate(ends):
            roll = rng.random()
            if roll < 0.35:
                values[site_key(v, half_edge_id(e, side))] = Fraction(rng.randint(-3, 3),
                                                                      rng.randint(1, 3))
            elif roll < 0.7:
                values[site_key(v, half_edge_id(e, side))] = f"?{rng.choice('xyz')}"
    return TwrDecoration.build({}, values)


def assert_same_evaluations(graph, levels, dec, counts):
    """Compare on every chain and attained level, counting the forms
    compared and the chains both refused."""
    filt = level_filtration(graph, levels)
    chains = relative_h1(graph) + [c for i in filt.levels for c in filt.generators[i]]
    # a zero coefficient on every other edge changes neither form
    chains += [{**{("edge", e): 0 for e, _ in graph.edges}, **c} for c in chains]
    for chain in chains:
        for i in levels.attained():
            try:
                want = plain_evaluate(restrict_to_level(chain, graph, levels, i), graph, dec)
            except ValueError:
                with pytest.raises(ValueError):
                    evaluate(chain, graph, levels, i, dec)
                counts["refused"] += 1
                continue
            assert evaluate(chain, graph, levels, i, dec) == want, (chain, levels, i)
            counts["compared"] += 1


@pytest.mark.parametrize("with_values", [False, True])
def test_same_forms_on_fixture_level_structures(with_values):
    rng = random.Random(41)
    counts = Counter()
    for name in fixture_names():
        if "graph" not in FIXTURES[name]:
            continue
        g = load_graph(name)
        for lv in enumerate_level_structures(g):
            dec = node_values(rng, g) if with_values else None
            assert_same_evaluations(g, lv, dec, counts)
    assert counts["compared"] > 1000 and counts["refused"] > 100


@pytest.mark.parametrize("with_values", [False, True])
def test_same_forms_on_random_graphs(with_values):
    rng = random.Random(43)
    counts = Counter()
    for _ in range(100):
        g = random_connected_graph(rng, max_vertices=6)
        lv = random_levels(rng, g)
        dec = node_values(rng, g) if with_values else None
        assert_same_evaluations(g, lv, dec, counts)
    assert counts["compared"] > 1000 and counts["refused"] > 100
