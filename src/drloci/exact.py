"""Exact rational linear algebra.

Everything downstream (graph homology, evaluation systems, constraint
solving) runs over Z and Q with no floating point.  Kernels of integer
matrices are computed by unimodular column reduction, so the returned
vectors generate the kernel lattice, not just a Q-basis.  Linear forms
carry named unknowns; affine solution spaces are stored as a particular
solution plus a basis of the homogeneous part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd


def parse_rational(s: str | int, what: str = "value") -> Fraction:
    """Parse "p/q" (or a plain integer string/int) into a Fraction; a
    malformed string or a zero denominator raises ValueError naming ``what``."""
    try:
        return Fraction(s.strip() if isinstance(s, str) else s)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f'{what} must be an integer or "p/q" with q != 0, got {s!r}') from None


def format_rational(x: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def integer_kernel_basis(rows: list[list[int]]) -> list[list[int]]:
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


def primitive(vec: list[int]) -> list[int]:
    """Divide by the content and make the first nonzero entry positive."""
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        return list(vec)
    out = [x // g for x in vec]
    for x in out:
        if x != 0:
            if x < 0:
                out = [-y for y in out]
            break
    return out


@dataclass(frozen=True)
class LinearForm:
    """A rational-affine form  sum coeffs[x] * x + const  in named unknowns."""

    coeffs: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)

    @staticmethod
    def build(coeffs: dict[str, Fraction], const: Fraction = Fraction(0)) -> "LinearForm":
        items = tuple(sorted((k, v) for k, v in coeffs.items() if v != 0))
        return LinearForm(items, const)

    def coeff_map(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def substitute(self, values: dict[str, Fraction | str]) -> "LinearForm":
        """Put in each value: a rational as a constant, a string as a rename."""
        c: dict[str, Fraction] = {}
        const = self.const
        for k, v in self.coeffs:
            x = values.get(k, k)
            if isinstance(x, str):
                c[x] = c.get(x, Fraction(0)) + v
            else:
                const += v * x
        return LinearForm.build(c, const)

    def normalized_vector(self, symbols: list[str]) -> tuple[int, ...]:
        """Integer coefficient vector (unknowns then constant), primitive,
        first nonzero entry positive.  Used for verbatim row comparisons."""
        c = self.coeff_map()
        vals = [c.get(s, Fraction(0)) for s in symbols] + [self.const]
        den = 1
        for v in vals:
            den = den * v.denominator // gcd(den, v.denominator)
        ints = [int(v * den) for v in vals]
        return tuple(primitive(ints))

    def render(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for s, v in self.coeffs:
            if v == 1:
                parts.append(f"+ {s}")
            elif v == -1:
                parts.append(f"- {s}")
            elif v > 0:
                parts.append(f"+ {format_rational(v)}*{s}")
            else:
                parts.append(f"- {format_rational(-v)}*{s}")
        if self.const != 0:
            parts.append(f"+ {format_rational(self.const)}" if self.const > 0
                         else f"- {format_rational(-self.const)}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:] if text.startswith("- ") else text


@dataclass
class AffineSubspace:
    """Solution set {particular + span(basis)} of a linear system, over Q.

    ``symbols`` fixes the coordinate order.  ``basis`` vectors are linearly
    independent.  An inconsistent system is represented by ``None`` at the
    call sites, never by this class.
    """

    symbols: list[str]
    particular: dict[str, Fraction]
    basis: list[dict[str, Fraction]] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def forces_value(self, symbol: str) -> Fraction | None:
        """The constant value of ``symbol`` on the whole space, or None."""
        if any(b.get(symbol, Fraction(0)) != 0 for b in self.basis):
            return None
        return self.particular.get(symbol, Fraction(0))

    def column(self, symbol: str) -> tuple[Fraction, ...]:
        """The particular value and basis coefficients of ``symbol``; two
        coordinates agree on the whole space exactly when their columns do."""
        return (self.particular.get(symbol, Fraction(0)),
                *(b.get(symbol, Fraction(0)) for b in self.basis))

    def pinned(self, symbol: str, value: Fraction) -> "AffineSubspace | None":
        """Intersect with the hyperplane {symbol = value}.

        Pinning a coordinate the space does not mention is a no-op; an
        inconsistent pin returns None.
        """
        coeffs = [b.get(symbol, Fraction(0)) for b in self.basis]
        cur = self.particular.get(symbol, Fraction(0))
        j = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if j is None:
            if symbol not in self.symbols:
                return self
            return self if cur == value else None
        scale = (value - cur) / coeffs[j]
        new_part = dict(self.particular)
        for s, v in self.basis[j].items():
            new_part[s] = new_part.get(s, Fraction(0)) + scale * v
        new_basis = []
        for i, b in enumerate(self.basis):
            if i == j:
                continue
            f = coeffs[i] / coeffs[j]
            nb = dict(b)
            for s, v in self.basis[j].items():
                nb[s] = nb.get(s, Fraction(0)) - f * v
            nb = {s: v for s, v in nb.items() if v != 0}
            new_basis.append(nb)
        return AffineSubspace(self.symbols, new_part, new_basis)

    def sample(self, params: list[Fraction]) -> dict[str, Fraction]:
        if len(params) != len(self.basis):
            raise ValueError("one parameter per basis vector required")
        pt = dict(self.particular)
        for t, b in zip(params, self.basis):
            for s, v in b.items():
                pt[s] = pt.get(s, Fraction(0)) + t * v
        for s in self.symbols:
            pt.setdefault(s, Fraction(0))
        return pt


def solve_forms(forms: list[LinearForm], symbols: list[str] | None = None) -> AffineSubspace | None:
    """Solve ``form = 0`` for every form; None if inconsistent.

    ``symbols`` may list extra unknowns that appear in no form (free
    directions of the ambient space).  One reduction of the augmented
    matrix to reduced row echelon form gives both the particular solution
    (free unknowns 0) and the kernel (one vector per free unknown).
    """
    syms = set(symbols or [])
    for f in forms:
        syms.update(k for k, _ in f.coeffs)
    order = sorted(syms)
    idx = {s: i for i, s in enumerate(order)}
    n = len(order)
    m = len(forms)
    rows = [[Fraction(0)] * (n + 1) for _ in range(m)]
    for i, f in enumerate(forms):
        for s, v in f.coeffs:
            rows[i][idx[s]] = v
        rows[i][n] = -f.const
    piv: dict[int, int] = {}
    r = 0
    for c in range(n):
        if r == m:
            break
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
    if any(rows[i][n] != 0 for i in range(r, m)):
        return None
    particular = {s: Fraction(0) for s in order}
    for c, rr in piv.items():
        particular[order[c]] = rows[rr][n]
    hom: list[dict[str, Fraction]] = []
    for fc in range(n):
        if fc in piv:
            continue
        vec = {order[fc]: Fraction(1)}
        for c, rr in piv.items():
            v = -rows[rr][fc]
            if v != 0:
                vec[order[c]] = v
        hom.append(vec)
    return AffineSubspace(order, particular, hom)
