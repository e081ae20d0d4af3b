"""Hurwitz existence oracle and exact genus-0 realization.

A component of a decorated graph poses a covering problem: does a curve
of the given genus carry a degree-d rational function with the
prescribed fibers over 0, infinity, the forced finite fibers, and simple
branching elsewhere?  By Riemann existence this is a permutation
factorization question: permutations of the prescribed cycle types
multiplying to the identity and generating a transitive group.  The
oracle fixes the largest class to one representative, lets the product
determine the last factor, and chooses the others depth first from
their conjugacy classes.  What a partial choice leaves open depends only
on its product and the orbits it generates, and only up to relabelling
the points, so each such state found dead is remembered and never
entered again: the answer is exact and the work is bounded by the
number of states, not by the product of the class sizes.

Genus-0 components admit explicit realizations: a rational function is
determined by its divisor up to scale, so exact values at query points
come from evaluating c * prod (z - a)^m / prod (z - b)^n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .decorations import TwrDecoration, site_key
from .graphs import MarkedDualGraph, half_edge_id

INF = "inf"

DEFAULT_DEGREE_CAP = 6


class DegreeCapExceeded(RuntimeError):
    def __init__(self, degree: int, cap: int):
        super().__init__(f"degree {degree} exceeds the oracle cap {cap}")
        self.degree = degree
        self.cap = cap


@dataclass(frozen=True)
class HurwitzProblem:
    degree: int
    genus: int
    profiles: tuple[tuple[int, ...], ...]

    @staticmethod
    def build(degree: int, genus: int, profiles) -> "HurwitzProblem":
        canon = tuple(sorted((tuple(sorted(p, reverse=True)) for p in profiles),
                             reverse=True))
        return HurwitzProblem(degree, genus, canon)

    def to_json(self) -> dict:
        return {"degree": self.degree, "genus": self.genus,
                "profiles": [list(p) for p in self.profiles]}


def rh_check(problem: HurwitzProblem) -> bool:
    """Riemann-Hurwitz consistency: sum of (d - #parts) over the profiles
    equals 2d - 2 + 2g, every profile partitions d, and d, g are sane."""
    d, g = problem.degree, problem.genus
    if d < 1 or g < 0:
        return False
    if any(sum(p) != d or any(x < 1 for x in p) for p in problem.profiles):
        return False
    ram = sum(d - len(p) for p in problem.profiles)
    return ram == 2 * d - 2 + 2 * g


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


@lru_cache(maxsize=None)
def _class_size(d: int, ctype: tuple[int, ...]) -> int:
    """d! / z_ctype, the number of permutations of the cycle type."""
    size = math.factorial(d)
    for length in set(ctype):
        k = ctype.count(length)
        size //= length ** k * math.factorial(k)
    return size


@lru_cache(maxsize=None)
def _conjugacy_class(d: int, ctype: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The permutations of cycle type ctype, in lexicographic order.

    Each is built once: the cycle through the smallest unplaced point
    takes one of the remaining lengths and an ordered choice of the
    other points of the cycle."""
    out = []
    perm = list(range(d))

    def place(free: tuple[int, ...], lengths: tuple[int, ...]):
        if not free:
            out.append(tuple(perm))
            return
        head, rest = free[0], free[1:]
        for length in set(lengths):
            left = list(lengths)
            left.remove(length)
            for tail in itertools.permutations(rest, length - 1):
                cycle = (head, *tail)
                for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[x] = y
                place(tuple(x for x in rest if x not in tail), tuple(left))

    place(tuple(range(d)), ctype)
    return tuple(sorted(out))


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
    return tuple(map(p.__getitem__, q))


def _join(blocks: tuple[int, ...], perm: tuple[int, ...]) -> tuple[int, ...]:
    """The partition ``blocks`` joined with the cycles of ``perm``; each
    point is labelled by the least point of its block."""
    labels = list(blocks)
    for i, j in enumerate(perm):
        a, b = labels[i], labels[j]
        if a != b:
            low, high = min(a, b), max(a, b)
            labels = [low if x == high else x for x in labels]
    return tuple(labels)


def _transitive(perms: list[tuple[int, ...]], d: int) -> bool:
    blocks = tuple(range(d))
    for p in perms:
        blocks = _join(blocks, p)
    return set(blocks) == {0}


def _shape(perm: tuple[int, ...], blocks: tuple[int, ...]) -> tuple:
    """A permutation and an invariant partition up to simultaneous
    relabelling: the sorted cycle types of the permutation on the blocks."""
    seen = [False] * len(perm)
    cycles: dict[int, list[int]] = {}
    for i, block in enumerate(blocks):
        if not seen[i]:
            n, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                n += 1
            cycles.setdefault(block, []).append(n)
    return tuple(sorted(tuple(sorted(c)) for c in cycles.values()))


def exists(problem: HurwitzProblem, cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """Transitive permutation factorization of the identity with the given
    cycle types.  Implies rh_check; refuses degrees beyond the cap.

    The largest class is fixed to one representative and the last factor
    is determined by the others: it is the inverse of their product, so
    it has that product's cycle type and adds nothing to the group they
    generate.  The middle factors are chosen depth first.  A state is the
    number of factors chosen, their product and the orbit partition they
    generate, which is all a completion depends on; conjugating a state
    does not change whether it completes, so states are kept up to
    relabelling, and a state found dead is never entered again."""
    d = problem.degree
    if d > cap:
        raise DegreeCapExceeded(d, cap)
    if not rh_check(problem):
        return False
    if d == 1:
        return True
    nontrivial = [p for p in problem.profiles if max(p) > 1]
    if not nontrivial:
        return False  # trivial monodromy is intransitive for d > 1
    classes = sorted(nontrivial, key=lambda t: _class_size(d, t))
    # fix the largest class canonically, determine the second largest
    first = classes[-1]
    rest = classes[:-1]
    determined = rest.pop() if rest else (1,) * d
    sigma1 = _canonical_of_type(d, first)
    pools = [_conjugacy_class(d, t) for t in rest]
    dead: set = set()

    def completes(i: int, prod: tuple[int, ...], blocks: tuple[int, ...]) -> bool:
        if i == len(pools):
            return _cycle_type(prod) == determined and not any(blocks)
        state = (i, _shape(prod, blocks))
        if state in dead:
            return False
        for m in pools[i]:
            if completes(i + 1, _compose(prod, m), _join(blocks, m)):
                return True
        dead.add(state)
        return False

    return completes(0, sigma1, _join(tuple(range(d)), sigma1))


class InfeasibleComponent(ValueError):
    pass


def component_problem(graph: MarkedDualGraph, dec: TwrDecoration, vertex: str,
                      forced_groups: list[list[str]] | None = None) -> HurwitzProblem:
    """Hurwitz problem of one component of a decorated graph.

    Degree is the total pole order; the fibers over 0 and infinity come
    from the marked and nodal zero/pole orders, with unmarked zeros of a
    component without marked zeros taken simple (the generic and the
    canonical-twist choice).  ``forced_groups`` lists site keys whose
    values are forced to coincide; each group yields one finite-fiber
    profile, as does any ramified free site.  The leftover ramification
    must be a nonnegative number of simple branch points.
    """
    g = graph.genus_of[vertex]
    zeros: list[int] = []
    poles: list[int] = []
    free_sites: dict[str, int] = {}
    for l, m in graph.legs_of(vertex):
        if m > 0:
            zeros.append(m)
        elif m < 0:
            poles.append(-m)
    for e, s in graph.edges_at(vertex):
        hid = half_edge_id(e, s)
        o, is_pole = dec.order_of[hid]
        if is_pole:
            poles.append(-o - 1)
        elif dec.is_zero_site(vertex, hid):
            zeros.append(o + 1)
        else:
            free_sites[site_key(vertex, hid)] = o + 1
    d = sum(poles)
    if d < 1:
        raise InfeasibleComponent(f"{vertex}: no poles, degree 0")
    unmarked = d - sum(zeros)
    if unmarked < 0:
        raise InfeasibleComponent(f"{vertex}: zero orders exceed degree {d}")
    zero_profile = tuple(sorted(zeros + [1] * unmarked, reverse=True))
    profiles = [zero_profile, tuple(sorted(poles, reverse=True))]
    grouped: set[str] = set()
    for group in forced_groups or []:
        sites = [s for s in group if s in free_sites]
        if not sites:
            continue
        mults = [free_sites[s] for s in sites]
        grouped.update(sites)
        if sum(mults) > d:
            raise InfeasibleComponent(f"{vertex}: fiber {sites} exceeds degree")
        profiles.append(tuple(sorted(mults + [1] * (d - sum(mults)), reverse=True)))
    for s, m in sorted(free_sites.items()):
        if s not in grouped and m > 1:
            profiles.append(tuple(sorted([m] + [1] * (d - m), reverse=True)))
    ram = sum(d - len(p) for p in profiles)
    residual = (2 * d - 2 + 2 * g) - ram
    if residual < 0:
        raise InfeasibleComponent(f"{vertex}: negative residual ramification {residual}")
    profiles.extend([tuple([2] + [1] * (d - 2))] * residual if d >= 2 else [])
    if d < 2 and residual > 0:
        raise InfeasibleComponent(f"{vertex}: residual ramification at degree 1")
    return HurwitzProblem.build(d, g, profiles)


@dataclass
class Genus0Realization:
    """An explicit rational function on a genus-0 component.

    ``zeros``/``poles`` map coordinates (Fractions, or "inf") to
    multiplicities; the function is scale * prod (z-a)^m / prod (z-b)^n.
    ``values`` caches exact evaluations at the query coordinates.
    """

    zeros: dict
    poles: dict
    scale: Fraction
    values: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def enc(c):
            return INF if c == INF else str(c)
        return {
            "zeros": {enc(c): m for c, m in self.zeros.items()},
            "poles": {enc(c): m for c, m in self.poles.items()},
            "scale": str(self.scale),
            "values": {enc(q): (v if v == INF else str(v)) for q, v in self.values.items()},
        }


def realize_genus0(zeros: dict, poles: dict, scale: Fraction = Fraction(1),
                   queries=()) -> Genus0Realization:
    """Evaluate the unique (up to scale) genus-0 function with the given
    divisor at the query coordinates."""
    coords = list(zeros) + list(poles)
    if len(set(coords)) != len(coords):
        raise ValueError("zero/pole coordinates collide")
    if sum(zeros.values()) != sum(poles.values()):
        raise ValueError("zero and pole multiplicities must balance")
    fin_z = sum(m for c, m in zeros.items() if c != INF)
    fin_p = sum(m for c, m in poles.items() if c != INF)
    real = Genus0Realization(dict(zeros), dict(poles), scale)
    for q in queries:
        if q in zeros:
            real.values[q] = Fraction(0)
        elif q in poles:
            real.values[q] = INF
        elif q == INF:
            # orders balance, so the value at infinity is the scale times
            # the monic leading ratio
            if fin_z > fin_p:
                real.values[q] = INF
            elif fin_z < fin_p:
                real.values[q] = Fraction(0)
            else:
                real.values[q] = scale
        else:
            num = Fraction(1)
            for c, m in zeros.items():
                if c != INF:
                    num *= (q - c) ** m
            den = Fraction(1)
            for c, m in poles.items():
                if c != INF:
                    den *= (q - c) ** m
            real.values[q] = scale * num / den
    return real
