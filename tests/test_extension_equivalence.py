"""``validate_twdr`` types the orders against an extension of mu in one
inequality; the reference spells it out through the associated partition
(``plain_extension``).  Both must give the same violation lists."""

import random

from drloci.decorations import TwdrDecoration, validate_twdr
from drloci.graphs import MarkedDualGraph
from drloci.twisting import twist
from plain_extension import extension_typing
from randgen import random_twr


def mutations(graph, dec):
    """The twist itself, then each way of breaking its extra legs or legs."""
    yield graph, dec
    extras = list(dec.extra_legs)
    for k, (l, v, o) in enumerate(extras[:2]):
        for order in (0, -1):  # in place of an extra, and beside them
            yield graph, TwdrDecoration.build(dec.base, [*extras[:k], (l, v, order), *extras[k + 1:]])
            yield graph, TwdrDecoration.build(dec.base, [*extras, (f"{l}'", v, order)])
        yield graph, TwdrDecoration.build(dec.base, [*extras[:k], (l, "nowhere", o), *extras[k + 1:]])
        yield graph, TwdrDecoration.build(dec.base, extras[:k] + extras[k + 1:])
        yield graph, TwdrDecoration.build(dec.base, [*extras, (f"{l}'", v, o)])
    for leg, _, _ in graph.legs:
        kept = [l for l in graph.legs if l[0] != leg]
        yield MarkedDualGraph.build(graph.vertices, graph.edges, kept), dec


def test_extension_typing_matches_the_reference_on_random_twists():
    rng = random.Random(25)
    cases = fired = 0
    for _ in range(500):
        tw = twist(*random_twr(rng))
        for k, (graph, dec) in enumerate(mutations(tw.graph, tw.decoration)):
            got = validate_twdr(graph, tw.levels, dec).violations
            want = [v for v in got if v[0] != "extension-typing"] + extension_typing(graph, dec)
            assert got == want, (graph, dec)
            assert k > 0 or got == []
            cases += 1
            fired += any(v[0] == "extension-typing" for v in got)
    assert cases > 5000 and fired > 300, (cases, fired)
