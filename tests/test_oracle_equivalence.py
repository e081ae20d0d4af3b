"""The fast oracles against the brute-force references in plain_oracles.

``split_shift_pair`` must return the very triple the full permutation
walk returns (the roots, and k as a Fraction), since certificates embed
it; ``exists`` must give the same bool as the full product walk.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from drloci.hurwitz import HurwitzProblem, _conjugacy_class, exists
from drloci.witnesses import split_shift_pair

import plain_oracles
from plain_oracles import plain_exists, plain_split_shift_pair

CORPUS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "corpus.json").read_text())["oracle"]


def partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    largest = largest or n
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def pair_params(pairs):
    return [pytest.param(tuple(z), tuple(f), id="_".join("-".join(map(str, m)) for m in (z, f)))
            for z, f in pairs]


def assert_same_pair(zero, fiber, bound=8):
    got = split_shift_pair(zero, fiber, bound)
    want = plain_split_shift_pair(zero, fiber, bound)
    assert got == want, (zero, fiber, bound)
    if got is not None:
        assert type(got[2]) is Fraction


@pytest.mark.parametrize("bound", [3, 4])
def test_split_shift_pair_all_partition_pairs(bound):
    # degree 6 holds 106 pairs that the Riemann-Hurwitz and Rolle cuts decide
    for d in range(1, 7 if bound == 3 else 6):
        for zero, fiber in itertools.product(partitions(d), repeat=2):
            assert_same_pair(zero, fiber, bound)


@pytest.mark.parametrize("zero,fiber", pair_params(CORPUS["split_shift_pair"]))
def test_split_shift_pair_corpus(zero, fiber):
    assert_same_pair(zero, fiber)


@pytest.mark.parametrize("zero,fiber", pair_params([
    ((1, 2, 1), (2, 2)),
    ((1, 2, 1), (3, 1)),
    ((1, 2, 1), (2, 1, 1)),
    ((2, 1, 2), (5,)),
    ((1, 1, 2), (2, 2)),
]))
def test_split_shift_pair_unsorted_multiplicities(zero, fiber):
    # equal multiplicities need not be adjacent
    assert_same_pair(zero, fiber)


def test_split_shift_pair_no_pair_for_2111_over_32():
    assert split_shift_pair((2, 1, 1, 1), (3, 2)) is None


def test_conjugacy_classes_match_filtered_permutations():
    for d in range(1, 7):
        for ctype in partitions(d):
            assert list(_conjugacy_class(d, ctype)) == plain_oracles._conjugacy_class(d, ctype)


def rh_consistent_problems(d, max_profiles):
    nontrivial = [p for p in partitions(d) if p[0] > 1]
    for r in range(max_profiles + 1):
        for profiles in itertools.combinations_with_replacement(nontrivial, r):
            ram = sum(d - len(p) for p in profiles)
            if ram % 2 == 0 and ram >= 2 * d - 2:
                yield HurwitzProblem.build(d, (ram - 2 * d + 2) // 2, profiles)


def test_exists_all_rh_consistent_problems_small_degree():
    problems = [p for d in range(1, 6) for p in rh_consistent_problems(d, 4)]
    problems += list(rh_consistent_problems(6, 3))
    want = [plain_exists(p) for p in problems]
    assert [exists(p) for p in problems] == want
    assert False in want  # the sweep holds the exceptional negative cases


@pytest.mark.parametrize("i", range(len(CORPUS["exists"])))
def test_exists_corpus(i):
    p = CORPUS["exists"][i]
    problem = HurwitzProblem.build(p["degree"], p["genus"], p["profiles"])
    assert exists(problem) == plain_exists(problem)
