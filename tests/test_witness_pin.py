"""The bytes of ``realize_component`` on a seeded family of component
shapes, pinned: the realization JSON and the values at the flexible
points.  The family reaches every strategy (degree one, untargeted, a
single fiber with and without marked zeros), with flexible points on
each, and target values that some fresh coordinates would map to zero."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

from drloci import witnesses
from drloci.witnesses import ComponentShape, realize_component

# sha256 of the family's output, computed before the fresh-coordinate
# draw became one generator
REALIZE_SHA256 = "fd245cd9e810564bb705acc40e085671557737a844bc782467b7f62cd0df0d88"


def _parts(rng: random.Random, total: int, most: int) -> list[int]:
    """A random composition of at most ``total`` into at most ``most`` parts."""
    out: list[int] = []
    while len(out) < most and sum(out) < total and (not out or rng.random() < 0.7):
        out.append(rng.randint(1, total - sum(out)))
    return out


def _shape(rng: random.Random, kind: int) -> ComponentShape:
    flexible = {f"s{i}": rng.randint(1, 2) for i in range(rng.randint(0, 3))}
    zeros: dict[str, int] = {}
    targets: dict[str, Fraction] = {}
    mults = dict(flexible)
    if kind == 0:  # degree one
        poles = {"p": 1}
        zeros = rng.choice([{}, {"z": 1}])
        for i in range(rng.randint(0, 3)):
            targets[f"t{i}"] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    elif kind == 1:  # no targets
        poles = {f"p{i}": m for i, m in enumerate(_parts(rng, 5, 3) or [2])}
        zeros = {f"z{i}": m for i, m in enumerate(_parts(rng, sum(poles.values()), 3))}
    else:  # one pole point and one target value, zeros unmarked or marked
        d = rng.randint(2, 5)
        poles = {"p": d}
        w = rng.choice([Fraction(-rng.randint(1, 60)), Fraction(rng.randint(1, 9), rng.randint(1, 4))])
        for i, m in enumerate(_parts(rng, d, 3) or [1]):
            targets[f"t{i}"], mults[f"t{i}"] = w, m
        if kind == 3:
            zeros = {f"z{i}": m for i, m in enumerate(_parts(rng, d, 3) or [1])}
    return ComponentShape("v", zeros, poles, targets, flexible, mults)


def _encode(result) -> object:
    if result is None:
        return None
    real, vals = result
    return {"realization": real.to_json(), "values": {k: str(v) for k, v in sorted(vals.items())}}


def test_realize_component_bytes_are_pinned(monkeypatch):
    reached: Counter = Counter()
    for name in ("_degree_one", "_untargeted", "_single_fiber"):
        def count(shape, name=name, strategy=getattr(witnesses, name)):
            result = strategy(shape)
            key = name + ("/zeros" if name == "_single_fiber" and shape.zeros else "")
            reached[key] += 1
            reached[key, "realized with flexible points"] += bool(result and shape.flexible)
            if name == "_single_fiber" and result:
                reached["fiber points"] += len(shape.flexible)
            return result
        monkeypatch.setattr(witnesses, name, count)
    evaluate = witnesses._eval_poly

    def count_draws(coeffs, x):
        reached["fiber draws"] += 1
        return evaluate(coeffs, x)

    monkeypatch.setattr(witnesses, "_eval_poly", count_draws)
    rng = random.Random(2803)
    out = [_encode(realize_component(_shape(rng, k % 4))) for k in range(400)]
    for key in ("_degree_one", "_untargeted", "_single_fiber", "_single_fiber/zeros"):
        assert reached[key] >= 40 and reached[key, "realized with flexible points"] >= 10, reached
    assert reached["fiber draws"] > reached["fiber points"]  # some draws were rejected
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == REALIZE_SHA256
