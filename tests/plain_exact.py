"""The two-pass ``solve_forms``: the reference that ``exact.solve_forms``
must reproduce field by field.

It finds the particular solution with ``solve_rational``, then reduces
the coefficient matrix a second time to read off the kernel.
"""

from __future__ import annotations

from fractions import Fraction

from drloci.exact import AffineSubspace, LinearForm, solve_rational


def plain_solve_forms(forms: list[LinearForm], symbols: list[str] | None = None) -> AffineSubspace | None:
    """Solve ``form = 0`` for every form; None if inconsistent.

    ``symbols`` may list extra unknowns that appear in no form (free
    directions of the ambient space).
    """
    syms = set(symbols or [])
    for f in forms:
        syms.update(k for k, _ in f.coeffs)
    order = sorted(syms)
    idx = {s: i for i, s in enumerate(order)}
    n = len(order)
    m = len(forms)
    a = [[Fraction(0)] * n for _ in range(m)]
    rhs = [Fraction(0)] * m
    for i, f in enumerate(forms):
        for s, v in f.coeffs:
            a[i][idx[s]] = v
        rhs[i] = -f.const
    part = solve_rational(a, rhs) if m else [Fraction(0)] * n
    if part is None:
        return None
    # homogeneous kernel by elimination over Q
    hom: list[dict[str, Fraction]] = []
    if n:
        # reduce a to rref, then read kernel off free columns
        rows = [list(r) for r in a]
        piv = {}
        r = 0
        for c in range(n):
            p = next((i for i in range(r, m) if rows[i][c] != 0), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for i in range(m):
                if i != r and rows[i][c] != 0:
                    f0 = rows[i][c]
                    rows[i] = [x - f0 * y for x, y in zip(rows[i], rows[r])]
            piv[c] = r
            r += 1
            if r == m:
                break
        free_cols = [c for c in range(n) if c not in piv]
        for fc in free_cols:
            vec = {order[fc]: Fraction(1)}
            for c, rr in piv.items():
                v = -rows[rr][fc]
                if v != 0:
                    vec[order[c]] = v
            hom.append(vec)
    particular = {order[i]: part[i] for i in range(n)}
    return AffineSubspace(order, particular, hom)
