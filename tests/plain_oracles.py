"""The brute-force oracles: references that ``hurwitz.exists`` and
``witnesses.split_shift_pair`` must reproduce answer for answer.

``plain_split_shift_pair`` expands every ordered tuple of distinct roots
over Fractions, and ``plain_exists`` walks the full product of the
middle conjugacy classes, each filtered out of all d! permutations.
The expansions and the zero side's signature table are memoized per
multiplicities and bound, so that sweeps over many multiplicity pairs
build each once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from drloci.hurwitz import HurwitzProblem, rh_check


def _expand(roots: list[int]) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for r in roots:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= Fraction(r) * c
        coeffs = new
    return coeffs


@lru_cache(maxsize=None)
def _expansions(mults: tuple[int, ...], bound: int) -> list:
    """(roots, coefficients) for every ordered tuple of distinct roots in
    [-bound, bound], in the order of ``itertools.permutations``."""
    out = []
    for roots in itertools.permutations(range(-bound, bound + 1), len(mults)):
        out.append((roots, _expand([r for r, m in zip(roots, mults) for _ in range(m)])))
    return out


@lru_cache(maxsize=None)
def _signatures(mults: tuple[int, ...], bound: int) -> dict:
    """Non-constant coefficients -> the first (roots, coefficients) with them."""
    by_sig: dict[tuple, tuple[tuple[int, ...], list[Fraction]]] = {}
    for roots, coeffs in _expansions(mults, bound):
        by_sig.setdefault(tuple(coeffs[1:]), (roots, coeffs))
    return by_sig


def plain_split_shift_pair(zero_mults: tuple[int, ...], fiber_mults: tuple[int, ...],
                           bound: int = 8):
    if sum(zero_mults) != sum(fiber_mults):
        return None
    by_sig = _signatures(zero_mults, bound)
    for roots, coeffs in _expansions(fiber_mults, bound):
        hit = by_sig.get(tuple(coeffs[1:]))
        if hit is None:
            continue
        zroots, zcoeffs = hit
        k = zcoeffs[0] - coeffs[0]
        if k != 0:
            return zroots, roots, k
    return None


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        n, j = 0, i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            n += 1
        lens.append(n)
    return tuple(sorted(lens, reverse=True))


def _conjugacy_class(d: int, ctype: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [p for p in itertools.permutations(range(d)) if _cycle_type(p) == ctype]


def _canonical_of_type(d: int, ctype: tuple[int, ...]) -> tuple[int, ...]:
    perm = list(range(d))
    start = 0
    for length in ctype:
        cycle = list(range(start, start + length))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            perm[a] = b
        start += length
    return tuple(perm)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def _invert(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _transitive(perms: list[tuple[int, ...]], d: int) -> bool:
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(d):
            a, b = find(i), find(p[i])
            if a != b:
                parent[a] = b
    return len({find(i) for i in range(d)}) == 1


def plain_exists(problem: HurwitzProblem) -> bool:
    d = problem.degree
    if not rh_check(problem):
        return False
    if d == 1:
        return True
    nontrivial = [p for p in problem.profiles if any(x > 1 for x in p)]
    if not nontrivial:
        return False
    classes = sorted(nontrivial, key=lambda t: len(_conjugacy_class(d, t)))
    first = classes[-1]
    rest = classes[:-1]
    determined = rest.pop() if rest else None
    sigma1 = _canonical_of_type(d, first)
    pools = [_conjugacy_class(d, t) for t in rest]
    for middle in itertools.product(*pools):
        prod = sigma1
        for m in middle:
            prod = _compose(prod, m)
        if determined is None:
            if prod != tuple(range(d)):
                continue
            tup = [sigma1, *middle]
        else:
            last = _invert(prod)
            if _cycle_type(last) != determined:
                continue
            tup = [sigma1, *middle, last]
        if _transitive(tup, d):
            return True
    return False
