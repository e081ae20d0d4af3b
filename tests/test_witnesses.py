from fractions import Fraction

import pytest

from drloci import witnesses
from drloci.hurwitz import INF
from drloci.witnesses import ComponentShape, _expand, _eval_poly, \
    realize_component, split_shift_pair


def test_expand_and_eval():
    coeffs = _expand([1, 2, 3])  # (z-1)(z-2)(z-3)
    assert _eval_poly(coeffs, Fraction(0)) == -6
    assert _eval_poly(coeffs, Fraction(4)) == 6


def test_split_shift_pair_simple_triples():
    pair = split_shift_pair((1, 1, 1), (1, 1, 1))
    assert pair is not None
    zroots, froots, k = pair
    assert len(set(zroots)) == 3 and len(set(froots)) == 3
    P = _expand(list(zroots))
    Q = _expand(list(froots))
    assert P[1:] == Q[1:]
    assert P[0] - Q[0] == k != 0


def test_split_shift_pair_rejects_unbalanced():
    assert split_shift_pair((2, 1), (1, 1, 1, 1)) is None


CUT_PAIRS = [
    # Riemann-Hurwitz: p + q - d - 1 < 0
    ((3, 2), (4, 1)), ((5, 1), (3, 3)), ((4, 2), (3, 3)),
    ((4,), (2, 1, 1)), ((5,), (3, 1, 1)), ((6,), (3, 2, 1)),
    # Rolle: z^3 = k has one real root
    ((3,), (1, 1, 1)),
]


@pytest.mark.parametrize("zero,fiber", CUT_PAIRS, ids=[
    "_".join("-".join(map(str, m)) for m in pair) for pair in CUT_PAIRS])
def test_split_shift_pair_cuts_decide_without_roots(monkeypatch, zero, fiber):
    def no_roots(*args):
        raise AssertionError("root tuples enumerated")

    monkeypatch.setattr(witnesses, "_root_tuples", no_roots)
    split_shift_pair.cache_clear()
    try:
        assert split_shift_pair(zero, fiber) is None
    finally:
        split_shift_pair.cache_clear()


def test_untargeted_component():
    shape = ComponentShape("v", zeros={"z": 2}, poles={"p": 3, "q": 1},
                           targets={}, flexible={"s1": 1, "s2": 1},
                           mults={"s1": 1, "s2": 1})
    real, vals = realize_component(shape)
    assert set(vals) == {"s1", "s2"}
    assert all(v != 0 and v != INF for v in vals.values())
    assert sum(real.poles.values()) == 4


def test_degree_one_hits_any_targets():
    shape = ComponentShape("v", zeros={"z": 1}, poles={"p": 1},
                           targets={"a": Fraction(5), "b": Fraction(-7, 3)},
                           flexible={"c": 1}, mults={"a": 1, "b": 1, "c": 1})
    real, vals = realize_component(shape)
    assert real is not None
    assert vals["c"] not in (0, INF)


def test_degree_one_rejects_shared_fiber():
    shape = ComponentShape("v", zeros={}, poles={"p": 1},
                           targets={"a": Fraction(5), "b": Fraction(5)},
                           flexible={}, mults={"a": 1, "b": 1})
    assert realize_component(shape) is None


def test_single_fiber_with_marked_zeros():
    # degree 3 with three simple marked zeros and a full fiber over w
    shape = ComponentShape("v", zeros={"z1": 1, "z2": 1, "z3": 1},
                           poles={"p": 3},
                           targets={"a": Fraction(-60), "b": Fraction(-60),
                                    "c": Fraction(-60)},
                           flexible={}, mults={"a": 1, "b": 1, "c": 1})
    result = realize_component(shape)
    assert result is not None
    real, _ = result
    assert real.poles == {INF: 3}
    assert sum(real.zeros.values()) == 3


def test_single_fiber_unmarked_zeros():
    shape = ComponentShape("v", zeros={}, poles={"p": 3},
                           targets={"a": Fraction(5), "b": Fraction(5),
                                    "c": Fraction(5)},
                           flexible={}, mults={"a": 1, "b": 1, "c": 1})
    assert realize_component(shape) is not None


def test_zero_valued_target_rejected():
    shape = ComponentShape("v", zeros={}, poles={"p": 2},
                           targets={"a": Fraction(0)}, flexible={},
                           mults={"a": 1})
    assert realize_component(shape) is None


def test_single_fiber_values_at_flexible_points():
    # both branches: unmarked zeros (f = w + P) and marked zeros (split shift pair)
    for zeros in ({}, {"z1": 1, "z2": 1, "z3": 1}):
        shape = ComponentShape("v", zeros=zeros, poles={"p": 3},
                               targets={"a": Fraction(5), "b": Fraction(5),
                                        "c": Fraction(5)},
                               flexible={"s": 1, "t": 1},
                               mults={"a": 1, "b": 1, "c": 1, "s": 1, "t": 1})
        real, vals = realize_component(shape)
        assert real.poles == {INF: 3}
        assert set(vals) == {"s", "t"}
        assert all(v not in (0, 5, INF) for v in vals.values())
