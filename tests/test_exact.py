from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drloci.exact import (LinearForm, format_rational, integer_kernel_basis,
                          parse_rational, primitive, solve_forms, solve_rational)

from plain_exact import plain_solve_forms


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-5") == Fraction(-5)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-5)) == "-5"


def test_integer_kernel_theta_incidence():
    # incidence matrix of the theta graph: kernel rank 2, integer vectors
    rows = [[-1, -1, -1], [1, 1, 1]]
    basis = integer_kernel_basis(rows)
    assert len(basis) == 2
    for vec in basis:
        assert all(isinstance(x, int) for x in vec)
        assert sum(vec) == 0


def test_integer_kernel_saturated():
    # kernel of (2 4) over Z is generated by (2, -1), not (4, -2)
    basis = integer_kernel_basis([[2, 4]])
    assert len(basis) == 1
    assert primitive(basis[0]) in ([2, -1], [-2, 1])
    assert basis[0] in ([2, -1], [-2, 1])


def test_solve_rational_inconsistent():
    assert solve_rational([[Fraction(1)], [Fraction(1)]],
                          [Fraction(0), Fraction(1)]) is None


def test_solve_forms_affine_space():
    forms = [LinearForm.build({"x": Fraction(1), "y": Fraction(-1)}),
             LinearForm.build({"z": Fraction(1)}, Fraction(-2))]
    space = solve_forms(forms, ["x", "y", "z", "w"])
    assert space.dim == 2  # y free, w free
    assert space.forces_value("z") == 2
    assert space.forces_equal("x", "y")
    assert space.forces_value("x") is None


def test_space_equality_and_containment():
    a = solve_forms([LinearForm.build({"x": Fraction(1), "y": Fraction(-1)})], ["x", "y"])
    b = solve_forms([LinearForm.build({"x": Fraction(2), "y": Fraction(-2)})], ["x", "y"])
    c = solve_forms([LinearForm.build({"x": Fraction(1), "y": Fraction(1)})], ["x", "y"])
    assert a.equals(b)
    assert not a.equals(c)
    assert a.contains({"x": Fraction(7), "y": Fraction(7)})
    assert not a.contains({"x": Fraction(7), "y": Fraction(8)})


def test_pinned():
    space = solve_forms([LinearForm.build({"x": Fraction(1), "y": Fraction(-1)})],
                        ["x", "y"])
    pinned = space.pinned("x", Fraction(5))
    assert pinned.dim == 0
    assert pinned.forces_value("y") == 5
    assert pinned.pinned("y", Fraction(5)) is pinned  # consistent no-op
    assert pinned.pinned("y", Fraction(6)) is None
    assert space.pinned("unrelated", Fraction(1)) is space


def test_normalized_vector():
    form = LinearForm.build({"a": Fraction(-2, 3), "b": Fraction(2, 3)})
    assert form.normalized_vector(["a", "b"]) == (1, -1, 0)
    const = LinearForm((), Fraction(5, 2))
    assert const.normalized_vector(["a", "b"]) == (0, 0, 1)


def test_render():
    form = LinearForm.build({"a": Fraction(1), "b": Fraction(-1, 2)}, Fraction(3))
    text = form.render()
    assert "a" in text and "b" in text and "3" in text
    assert LinearForm().render() == "0"


def test_substitute_and_value():
    form = LinearForm.build({"a": Fraction(2), "b": Fraction(1)}, Fraction(-4))
    assert form.value({"a": Fraction(1), "b": Fraction(2)}) == 0
    partial = form.substitute({"a": Fraction(1)})
    assert partial.coeff_map() == {"b": Fraction(1)}
    with pytest.raises(ValueError):
        form.value({"a": Fraction(1)})


@st.composite
def form_systems(draw):
    """Small systems over up to five unknowns with entries in -3..3, some
    rows repeated or combined so that rank drops and conflicts occur."""
    names = draw(st.lists(st.sampled_from("abcde"), min_size=0, max_size=5, unique=True))
    entry = st.integers(min_value=-3, max_value=3).map(Fraction)
    forms = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        coeffs = {s: draw(entry) for s in names if draw(st.booleans())}
        forms.append(LinearForm.build(coeffs, draw(entry)))
    if forms and draw(st.booleans()):
        k = draw(entry)
        forms.append(forms[0].scale(k) + forms[-1])
    extra = draw(st.lists(st.sampled_from("abcdefg"), max_size=3, unique=True))
    return forms, extra


@settings(max_examples=300, deadline=None)
@given(form_systems())
def test_solve_forms_matches_two_pass_reference(system):
    forms, extra = system
    got = solve_forms(forms, extra)
    want = plain_solve_forms(forms, extra)
    if want is None:
        assert got is None
        return
    assert got.symbols == want.symbols
    assert got.particular == want.particular
    assert got.basis == want.basis
