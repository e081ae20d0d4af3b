"""``exact.integer_kernel_basis`` against the column reduction that keeps
its transformation matrix beside the matrix (``plain_exact``): the same
vectors in the same order on seeded random integer matrices, zero rows
and columns included, and on every incidence matrix that
``homology._kernel_chains`` builds for the fixture graphs and for random
level graphs."""

import random

import pytest

from drloci import homology
from drloci.exact import integer_kernel_basis
from drloci.fixtures import FIXTURES, fixture_names, load_graph
from drloci.graphs import enumerate_level_structures

from plain_exact import plain_integer_kernel_basis
from randgen import random_connected_graph, random_levels


def _random_matrix(rng: random.Random) -> list[list[int]]:
    m, n = rng.randint(1, 6), rng.randint(1, 8)
    bound = rng.choice([1, 2, 4, 9])
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.3:
        rows[rng.randrange(m)] = [0] * n
    if rng.random() < 0.3:
        c = rng.randrange(n)
        for row in rows:
            row[c] = 0
    return rows


def test_random_matrices_give_the_reference_kernel():
    rng = random.Random(2801)
    zero_rows = zero_cols = 0
    for _ in range(10_000):
        rows = _random_matrix(rng)
        zero_rows += any(not any(r) for r in rows)
        zero_cols += any(not any(col) for col in zip(*rows))
        assert integer_kernel_basis(rows) == plain_integer_kernel_basis(rows), rows
    assert zero_rows > 1000 and zero_cols > 1000
    assert integer_kernel_basis([]) == plain_integer_kernel_basis([]) == []


@pytest.fixture
def incidence_matrices(monkeypatch):
    """The matrices ``_kernel_chains`` hands to the kernel, recorded."""
    seen: list[list[list[int]]] = []

    def record(rows):
        seen.append([list(r) for r in rows])
        return integer_kernel_basis(rows)

    monkeypatch.setattr(homology, "integer_kernel_basis", record)
    return seen


def test_incidence_matrices_give_the_reference_kernel(incidence_matrices):
    cases = [(load_graph(name), lv) for name in fixture_names() if "graph" in FIXTURES[name]
             for lv in enumerate_level_structures(load_graph(name))]
    rng = random.Random(2802)
    for _ in range(250):
        g = random_connected_graph(rng, max_vertices=7)
        cases.append((g, random_levels(rng, g)))
    for g, lv in cases:
        homology.relative_h1(g)
        homology.level_filtration(g, lv)
    assert len(incidence_matrices) > 500
    for rows in incidence_matrices:
        assert integer_kernel_basis(rows) == plain_integer_kernel_basis(rows), rows
