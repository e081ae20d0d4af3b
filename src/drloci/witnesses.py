"""Exact rational witnesses on genus-0 components.

A certificate is "exact" when every component is rational and we can
exhibit honest rational functions with the prescribed divisor shapes
whose values at the node preimages solve the evaluation constraints.
Coordinates of marked points and node preimages on a component are free,
which makes three situations constructive:

* no value targets: any divisor placement works;
* degree 1: the function is a Moebius map, so every target is hit at a
  rational coordinate;
* a single pole point and one common target value w: with unconstrained
  zeros take w + P(z) for monic split P; with marked zeros search for a
  monic integer-rooted P whose shift P - k also splits with the fiber
  multiplicities, and use (w/k) * P.  Before that search, two counts on
  the multiplicities alone rule out most pairs: Riemann-Hurwitz for
  z -> P(z) (P' has room for the ramification over 0 and k) and Rolle
  (P' has a zero between consecutive real roots of P, and of P - k).

Anything else returns None and the caller downgrades the verdict to
"modulo value-genericity".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .hurwitz import INF, Genus0Realization, realize_genus0


@dataclass
class ComponentShape:
    """Divisor and value data of one genus-0 component, coordinate-free.

    ``zeros``/``poles`` map point ids to multiplicities; ``targets`` are
    required exact values at further points (multiplicities in ``mults``);
    ``flexible`` points only need *some* finite nonzero value, which is
    reported back so the caller can pin it into the solution space.
    """

    vertex: str
    zeros: dict[str, int]
    poles: dict[str, int]
    targets: dict[str, Fraction]
    flexible: dict[str, int]
    mults: dict[str, int]

    @property
    def degree(self) -> int:
        return sum(self.poles.values())


def _times_root(coeffs: list[int], r: int) -> list[int]:
    """(z - r) times the polynomial; low-degree coefficients first."""
    return [a - r * b for a, b in zip([0, *coeffs], [*coeffs, 0])]


def _expand(roots: list[int]) -> list[int]:
    """Monic polynomial with the given roots; low-degree coefficients first."""
    coeffs = [1]
    for r in roots:
        coeffs = _times_root(coeffs, r)
    return coeffs


def _eval_poly(coeffs: list[int], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _root_tuples(mults: tuple[int, ...], bound: int):
    """Distinct roots in [-bound, bound], one per multiplicity, in
    lexicographic order, skipping tuples that only permute roots of equal
    multiplicity: within each multiplicity the roots strictly increase, so
    each polynomial prod (z - r_i)^{m_i} comes once, as the lexicographically
    first tuple that gives it.  Yields (roots, coefficients)."""
    n = len(mults)
    if n == 0:
        yield (), [1]
        return
    # the earlier position of the same multiplicity, whose root must be smaller
    prev = [max((j for j in range(i) if mults[j] == mults[i]), default=-1)
            for i in range(n)]
    roots = [0] * n

    def place(i: int, coeffs: list[int], used: frozenset):
        lo = roots[prev[i]] + 1 if prev[i] >= 0 else -bound
        for r in range(lo, bound + 1):
            if r in used:
                continue
            roots[i] = r
            c = coeffs
            for _ in range(mults[i]):
                c = _times_root(c, r)
            if i + 1 == n:
                yield tuple(roots), c
            else:
                yield from place(i + 1, c, used | {r})

    yield from place(0, [1], frozenset())


@lru_cache(maxsize=None)
def split_shift_pair(zero_mults: tuple[int, ...], fiber_mults: tuple[int, ...],
                     bound: int = 8) -> tuple[tuple[int, ...], tuple[int, ...], Fraction] | None:
    """Distinct integer root lists R, S such that the monic polynomials
    P = prod (z-R_i)^{zero_mults_i} and Q = prod (z-S_j)^{fiber_mults_j}
    differ by a nonzero constant k = P - Q; returns (R, S, k).

    S is the lexicographically first root tuple in [-bound, bound] that
    has a partner, and R the lexicographically first partner of S.

    With every multiplicity >= 1, the multiplicities alone rule out most
    pairs before any root is tried.  Write a_i, b_j for the multiplicities
    of the roots r_i of P and s_j of Q, p and q for their numbers, d for
    the degree and e = p + q - d - 1.

    * P - Q = k != 0 gives P' = Q'.
    * The roots r_i and s_j are distinct, because P(s_j) = k.
    * So P' = d * prod (z - r_i)^(a_i - 1) * prod (z - s_j)^(b_j - 1) * C
      with deg C = e >= 0 (Riemann-Hurwitz for z -> P(z)).
    * Integer roots are real.  So each gap between consecutive roots of P
      holds a zero of P' that is an s_j with b_j >= 2 or a real root of C
      (Rolle): p - 1 <= e + #{b_j >= 2}, and the same holds for Q:
      q - 1 <= e + #{a_i >= 2}.

    Neither condition depends on ``bound``, so no returned triple changes."""
    if sum(zero_mults) != sum(fiber_mults):
        return None
    if min(zero_mults + fiber_mults, default=1) >= 1:
        p, q = len(zero_mults), len(fiber_mults)
        e = p + q - sum(zero_mults) - 1
        if (e < 0 or p - 1 > e + sum(b >= 2 for b in fiber_mults)
                or q - 1 > e + sum(a >= 2 for a in zero_mults)):
            return None
    # the fiber's signatures, when they are the fewer, bound the zero table
    wanted = None
    if len(fiber_mults) < len(zero_mults):
        wanted = {tuple(c[1:]) for _, c in _root_tuples(fiber_mults, bound)}
    # non-constant coefficients -> the first zero roots and constant term
    by_sig: dict[tuple[int, ...], tuple[tuple[int, ...], int]] = {}
    for roots, coeffs in _root_tuples(zero_mults, bound):
        sig = tuple(coeffs[1:])
        if wanted is None or sig in wanted:
            by_sig.setdefault(sig, (roots, coeffs[0]))
    for roots, coeffs in _root_tuples(fiber_mults, bound):
        hit = by_sig.get(tuple(coeffs[1:]))
        if hit is None:
            continue
        zroots, zconst = hit
        k = zconst - coeffs[0]
        if k != 0:
            return zroots, roots, Fraction(k)
    return None


def _fresh_coords(n: int, taken: set) -> list[Fraction]:
    out: list[Fraction] = []
    x = Fraction(0)
    while len(out) < n:
        if x not in taken:
            out.append(x)
            taken.add(x)
        x += 1
    return out


def realize_component(shape: ComponentShape
                      ) -> tuple[Genus0Realization, dict[str, Fraction]] | None:
    """Build an exact rational function meeting the shape, or None.

    Returns the realization together with the values attained at the
    flexible points (always finite and nonzero).
    """
    d = shape.degree
    if d < 1 or sum(shape.zeros.values()) > d:
        return None
    if any(w == 0 for w in shape.targets.values()):
        return None  # a zero-valued target is a nodal zero, not a target
    if any(shape.mults.get(s, 1) > d for s in shape.targets):
        return None
    if d == 1 and len(shape.poles) == 1:
        return _degree_one(shape)
    if not shape.targets:
        return _untargeted(shape)
    if len(set(shape.targets.values())) == 1 and len(shape.poles) == 1:
        return _single_fiber(shape)
    return None


def _untargeted(shape: ComponentShape):
    d = shape.degree
    taken: set = set()
    zs: dict = {}
    for p in sorted(shape.zeros):
        c = _fresh_coords(1, taken)[0]
        zs[c] = shape.zeros[p]
    unmarked = d - sum(shape.zeros.values())
    if unmarked:
        zs[_fresh_coords(1, taken)[0]] = unmarked
    pole_pts = sorted(shape.poles)
    ps: dict = {INF: shape.poles[pole_pts[0]]}
    for p in pole_pts[1:]:
        ps[_fresh_coords(1, taken)[0]] = shape.poles[p]
    flex_sites = sorted(shape.flexible)
    coords = _fresh_coords(len(flex_sites), taken)
    real = realize_genus0(zs, ps, Fraction(1), queries=coords)
    vals = {s: real.values[c] for s, c in zip(flex_sites, coords)}
    # every zero and pole is at a placed coordinate, so fresh coordinates
    # always give finite nonzero values
    assert all(v != 0 and v != INF for v in vals.values())
    return real, vals


def _degree_one(shape: ComponentShape):
    if len(shape.targets) != len(set(shape.targets.values())):
        return None  # two points of a degree-1 map cannot share a fiber
    z0, p0 = Fraction(0), Fraction(1)
    used = {z0, p0}
    for w in shape.targets.values():
        coord = INF if w == 1 else (z0 - w * p0) / (1 - w)
        if coord in used:
            return None
        used.add(coord)
    vals: dict[str, Fraction] = {}
    for site in sorted(shape.flexible):
        c = _fresh_coords(1, used)[0]
        vals[site] = (c - z0) / (c - p0)
    return Genus0Realization({z0: 1}, {p0: 1}, Fraction(1)), vals


def _single_fiber(shape: ComponentShape):
    w = next(iter(shape.targets.values()))
    d = shape.degree
    fiber_mults = sorted((shape.mults[s] for s in shape.targets), reverse=True)
    filler = d - sum(fiber_mults)
    if filler < 0:
        return None
    if not shape.zeros:
        # f = w + P with P monic split of degree d; zeros of f are unmarked
        root_mults = fiber_mults + [1] * filler
        roots = list(range(len(root_mults)))
        coeffs = _expand([r for r, m in zip(roots, root_mults) for _ in range(m)])
        taken = {Fraction(r) for r in roots}
        vals: dict[str, Fraction] = {}
        for site in sorted(shape.flexible):
            while True:
                c = _fresh_coords(1, taken)[0]
                v = w + _eval_poly(coeffs, c)
                if v != 0 and v != w:
                    vals[site] = v
                    break
        return Genus0Realization({}, {INF: d}, Fraction(1)), vals
    unmarked = d - sum(shape.zeros.values())
    zero_mults = sorted(shape.zeros.values(), reverse=True) + [1] * unmarked
    pair = split_shift_pair(tuple(zero_mults), tuple(fiber_mults + [1] * filler))
    if pair is None:
        return None
    zroots, froots, k = pair
    scale = w / k
    coeffs = _expand([r for r, m in zip(zroots, zero_mults) for _ in range(m)])
    zs = {Fraction(r): m for r, m in zip(zroots, zero_mults)}
    taken = {Fraction(r) for r in zroots} | {Fraction(r) for r in froots}
    vals = {}
    for site in sorted(shape.flexible):
        c = _fresh_coords(1, taken)[0]
        v = scale * _eval_poly(coeffs, c)
        assert v != 0 and v != w
        vals[site] = v
    return Genus0Realization(zs, {INF: d}, scale), vals
