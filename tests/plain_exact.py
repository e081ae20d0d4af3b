"""The two-pass ``solve_forms``: the reference that ``exact.solve_forms``
must reproduce field by field.

It finds the particular solution with ``solve_rational``, then reduces
the coefficient matrix a second time to read off the kernel.
``contains`` tests exact membership in a solution space,
``solve_rational`` serves as its reference, and ``same_space`` compares
two solution spaces.  ``plain_integer_kernel_basis`` is the column
reduction that keeps its transformation matrix beside the matrix, the
reference that ``exact.integer_kernel_basis`` must reproduce vector by
vector.
"""

from __future__ import annotations

from fractions import Fraction

from drloci.exact import AffineSubspace, LinearForm, solve_forms


def plain_integer_kernel_basis(rows: list[list[int]]) -> list[list[int]]:
    """Basis of the integer kernel lattice of the matrix with the given rows.

    Column reduction by unimodular operations: the zero columns of the
    reduced matrix pull back to a Z-basis of ker.  Suitable for the small
    incidence matrices of dual graphs.
    """
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    # transform records the column operations applied to the identity
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_axpy(dst: int, src: int, k: int) -> None:
        for i in range(m):
            a[i][dst] += k * a[i][src]
        for i in range(n):
            t[i][dst] += k * t[i][src]

    def col_swap(c1: int, c2: int) -> None:
        for i in range(m):
            a[i][c1], a[i][c2] = a[i][c2], a[i][c1]
        for i in range(n):
            t[i][c1], t[i][c2] = t[i][c2], t[i][c1]

    pivot_col = 0
    for r in range(m):
        if pivot_col >= n:
            break
        # euclidean elimination across columns pivot_col..n-1 in row r
        while True:
            nz = [c for c in range(pivot_col, n) if a[r][c] != 0]
            if not nz:
                break
            c0 = min(nz, key=lambda c: abs(a[r][c]))
            col_swap(pivot_col, c0)
            done = True
            for c in range(pivot_col + 1, n):
                if a[r][c] != 0:
                    col_axpy(c, pivot_col, -(a[r][c] // a[r][pivot_col]))
                    if a[r][c] != 0:
                        done = False
            if done:
                break
        if a[r][pivot_col] != 0:
            pivot_col += 1
    kernel = []
    for c in range(pivot_col, n):
        if all(a[i][c] == 0 for i in range(m)):
            kernel.append([t[i][c] for i in range(n)])
    return kernel


def solve_rational(rows: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """One solution of rows*x = rhs over Q, or None if inconsistent."""
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [list(map(Fraction, rows[i])) + [Fraction(rhs[i])] for i in range(m)]
    piv_cols = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for i, c in enumerate(piv_cols):
        x[c] = a[i][n]
    return x


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


def contains(space: AffineSubspace, point: dict[str, Fraction]) -> bool:
    """Exact membership test for a fully specified point: point -
    particular is a combination of the basis vectors, whose coefficients
    (unknowns named by basis index) solve one form per coordinate."""
    forms = [LinearForm.build({str(j): b.get(s, Fraction(0)) for j, b in enumerate(space.basis)},
                              space.particular.get(s, Fraction(0)) - point.get(s, Fraction(0)))
             for s in space.symbols]
    return solve_forms(forms) is not None


def same_space(a: AffineSubspace, b: AffineSubspace) -> bool:
    """Equality as affine subspaces of the common coordinate space."""
    if set(a.symbols) != set(b.symbols) or a.dim != b.dim:
        return False
    return contains(b, a.particular) and all(
        contains(b, a.sample([Fraction(i == j) for j in range(a.dim)])) for i in range(a.dim))
