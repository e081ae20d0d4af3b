"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports drloci: each answer is recomputed by a different
method than the program uses.

* Hurwitz existence: transitive factorisation counts from Frobenius'
  character formula, with the characters of S_n from the
  Murnaghan-Nakayama rule, and inclusion-exclusion over the orbit of one
  point (Lando-Zvonkin, "Graphs on Surfaces and Their Applications",
  ch. 5).
* Level structures up to isomorphism: Burnside's lemma over the vertex
  automorphisms of the marked graph; a permutation with c cycles fixes
  Fubini(c) ordered set partitions.
* Split shift pairs: monic polynomials of equal degree d differ by a
  constant exactly when the power sums p_1..p_{d-1} of their root
  multisets agree (Newton's identities).
* Decorations: the defining inequalities of a twistable decoration.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod


def partitions(n: int, largest: int | None = None):
    """Partitions of n as non-increasing tuples."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def _z(cycle_type: tuple[int, ...]) -> int:
    out = 1
    for part in set(cycle_type):
        m = cycle_type.count(part)
        out *= part ** m * factorial(m)
    return out


def class_size(cycle_type: tuple[int, ...]) -> int:
    return factorial(sum(cycle_type)) // _z(cycle_type)


@lru_cache(maxsize=None)
def _mn(beta: frozenset, cycle_type: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama on beta-sets: remove rim hooks of the lengths in
    cycle_type; a hook of length r moves a bead from b to b - r, with sign
    (-1)^(beads strictly between)."""
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    total = 0
    for b in beta:
        if b - r < 0 or (b - r) in beta:
            continue
        sign = -1 if sum(1 for x in beta if b - r < x < b) % 2 else 1
        total += sign * _mn((beta - {b}) | {b - r}, rest)
    return total


def character(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    ell = len(shape)
    beta = frozenset(shape[i] + (ell - 1 - i) for i in range(ell))
    return _mn(beta, tuple(sorted(cycle_type, reverse=True)))


@lru_cache(maxsize=None)
def factorisations(profiles: tuple[tuple[int, ...], ...]) -> Fraction:
    """Number of tuples (s_1..s_k) in S_n, s_i of cycle type profiles[i],
    with s_1 ... s_k = 1 (Frobenius)."""
    if not profiles:
        return Fraction(1)
    n = sum(profiles[0])
    if n == 0:
        return Fraction(1)
    k = len(profiles)
    total = Fraction(0)
    for shape in partitions(n):
        dim = character(shape, (1,) * n)
        total += Fraction(prod(character(shape, p) for p in profiles), dim ** (k - 2))
    return total * prod(class_size(p) for p in profiles) / factorial(n)


def _sub_partitions(part: tuple[int, ...], m: int):
    """Distinct sub-multisets of part summing to m, with their complements."""
    counts = {x: part.count(x) for x in set(part)}
    keys = sorted(counts)
    for choice in itertools.product(*[range(counts[x] + 1) for x in keys]):
        if sum(x * c for x, c in zip(keys, choice)) != m:
            continue
        sub = tuple(sorted((x for x, c in zip(keys, choice) for _ in range(c)), reverse=True))
        rest = tuple(sorted((x for x, c in zip(keys, choice)
                             for _ in range(counts[x] - c)), reverse=True))
        yield sub, rest


@lru_cache(maxsize=None)
def transitive_factorisations(profiles: tuple[tuple[int, ...], ...]) -> Fraction:
    """Factorisations generating a transitive group: all factorisations minus
    those whose orbit of the point 1 is a proper subset of size m."""
    n = sum(profiles[0])
    total = factorisations(profiles)
    for m in range(1, n):
        splits = [list(_sub_partitions(p, m)) for p in profiles]
        for choice in itertools.product(*splits):
            inner = tuple(sub for sub, _ in choice)
            outer = tuple(rest for _, rest in choice)
            total -= comb(n - 1, m - 1) * transitive_factorisations(inner) * factorisations(outer)
    return total


def hurwitz_exists(degree: int, genus: int, profiles) -> bool:
    """A connected genus-g degree-d cover of P^1 with the given branch
    profiles exists: Riemann-Hurwitz holds and the transitive count is > 0."""
    profiles = tuple(tuple(sorted(p, reverse=True)) for p in profiles)
    if degree < 1 or genus < 0 or any(sum(p) != degree for p in profiles):
        return False
    if sum(degree - len(p) for p in profiles) != 2 * degree - 2 + 2 * genus:
        return False
    return transitive_factorisations(profiles) > 0


# ---------------------------------------------------------------------------
# level structures


def fubini(n: int) -> int:
    """Ordered set partitions of an n-set."""
    table = [1]
    for m in range(1, n + 1):
        table.append(sum(comb(m, j) * table[m - j] for j in range(1, m + 1)))
    return table[n]


def level_structure_count(graph: dict) -> int:
    """Level structures up to isomorphism, by Burnside's lemma.

    ``graph`` is the program's JSON graph document.  The group is the set
    of vertex permutations preserving genus, the multiset of leg orders at
    each vertex and the number of edges between every pair of vertices.
    """
    vs = [v["id"] for v in graph["vertices"]]
    colour = {v["id"]: (v["genus"], tuple(sorted(l["mu"] for l in graph["legs"]
                                                 if l["vertex"] == v["id"])))
              for v in graph["vertices"]}
    mult: dict[frozenset, int] = {}
    for e in graph["edges"]:
        key = frozenset(e["ends"])
        mult[key] = mult.get(key, 0) + 1
    fixed_total = 0
    group_order = 0
    for image in itertools.permutations(vs):
        sigma = dict(zip(vs, image))
        if any(colour[v] != colour[sigma[v]] for v in vs):
            continue
        if any(mult.get(frozenset(sigma[x] for x in pair), 0) != c for pair, c in mult.items()):
            continue
        group_order += 1
        seen = set()
        cycles = 0
        for v in vs:
            if v in seen:
                continue
            cycles += 1
            while v not in seen:
                seen.add(v)
                v = sigma[v]
        fixed_total += fubini(cycles)
    if fixed_total % group_order:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return fixed_total // group_order


# ---------------------------------------------------------------------------
# split shift pairs


def _expand(roots) -> list[int]:
    """Coefficients of prod (z - r), lowest degree first."""
    coeffs = [1]
    for r in roots:
        new = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] -= r * c
        coeffs = new
    return coeffs


def check_shift_pair(zero_mults, fiber_mults, triple) -> list[str]:
    """Reasons why (R, S, k) is not a valid answer; empty when it is."""
    roots_r, roots_s, k = triple
    problems = []
    if len(set(roots_r)) != len(roots_r) or len(roots_r) != len(zero_mults):
        problems.append(f"zero roots {roots_r} not distinct or miscounted")
    if len(set(roots_s)) != len(roots_s) or len(roots_s) != len(fiber_mults):
        problems.append(f"fiber roots {roots_s} not distinct or miscounted")
    p = _expand([r for r, m in zip(roots_r, zero_mults) for _ in range(m)])
    q = _expand([s for s, m in zip(roots_s, fiber_mults) for _ in range(m)])
    diff = [a - b for a, b in zip(p, q)]
    if any(diff[1:]) or diff[0] == 0:
        problems.append(f"P - Q = {diff} is not a nonzero constant")
    if Fraction(diff[0]) != Fraction(k):
        problems.append(f"k = {k} but P - Q = {diff[0]}")
    return problems


def _power_sums(mults, bound: int):
    """Power sums p_1..p_d of every root multiset with distinct roots in
    [-bound, bound] carrying the given multiplicities."""
    d = sum(mults)
    groups: dict[int, int] = {}
    for m in mults:
        groups[m] = groups.get(m, 0) + 1
    pool = range(-bound, bound + 1)
    sizes = sorted(groups)

    def assign(i: int, used: frozenset):
        if i == len(sizes):
            yield ()
            return
        m = sizes[i]
        for chosen in itertools.combinations([r for r in pool if r not in used], groups[m]):
            for rest in assign(i + 1, used | set(chosen)):
                yield ((m, chosen),) + rest

    for parts in assign(0, frozenset()):
        yield tuple(sum(m * r ** j for m, chosen in parts for r in chosen)
                    for j in range(1, d + 1))


def shift_pair_exists(zero_mults, fiber_mults, bound: int = 8) -> bool:
    """Some root multisets with these multiplicities give monic polynomials
    that differ by a nonzero constant."""
    if sum(zero_mults) != sum(fiber_mults):
        return False
    top: dict[tuple, set[int]] = {}
    for sums in _power_sums(zero_mults, bound):
        top.setdefault(sums[:-1], set()).add(sums[-1])
    for sums in _power_sums(fiber_mults, bound):
        last = top.get(sums[:-1])
        if last and (len(last) > 1 or sums[-1] not in last):
            return True
    return False


# ---------------------------------------------------------------------------
# decorations


def decoration_violations(graph: dict, cert: dict) -> list[str]:
    """Twistable-decoration inequalities of a certificate, recomputed from
    its JSON: a pole only on the strictly lower end of an edge, a regular
    side of nonnegative order, and order sums >= -2 at every node."""
    levels = cert["levels"]
    orders = cert["decoration"]["orders"]
    out = []
    for e in graph["edges"]:
        ends = e["ends"]
        sides = [orders.get(f"{e['id']}.{s}") for s in (0, 1)]
        if None in sides:
            out.append(f"{e['id']}: side without an order")
            continue
        for s in (0, 1):
            if sides[s]["pole"]:
                if not levels[ends[s]] < levels[ends[1 - s]]:
                    out.append(f"{e['id']}.{s}: pole not on the strictly lower end")
            elif sides[s]["ord_df"] < 0:
                out.append(f"{e['id']}.{s}: regular side of negative order")
        if sides[0]["ord_df"] + sides[1]["ord_df"] < -2:
            out.append(f"{e['id']}: order sum below -2")
    return out
