"""Exact dense linear algebra shared by every module.

Echelon forms and kernels over fields, determinants over any commutative
domain and characteristic polynomials over fields from one division-free
recursion, integer lattices grown by an incremental Hermite basis (with the
HNF, saturated kernels and Smith divisors read off it), and eigenlines of
2x2 matrices over the quadratic extension.
Vectorization is row-major everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from typing import Optional, Sequence

from .domains import DomainError, build_ext_field, quadratic_extension

ALL_LINES = "all-lines"


@dataclass(frozen=True)
class Mat:
    """Square matrix over a coefficient domain; rows is a tuple of tuples."""

    domain: object
    n: int
    rows: tuple

    def __post_init__(self):
        if self.n < 1 or len(self.rows) != self.n:
            raise DomainError("matrix shape mismatch")
        for row in self.rows:
            if len(row) != self.n:
                raise DomainError("matrix shape mismatch")

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def entries(self):
        for row in self.rows:
            yield from row


def mat(domain, rows) -> Mat:
    """Build a Mat, converting plain ints (or Fractions) into the domain."""
    conv = domain.convert
    return Mat(domain, len(rows), tuple(tuple(conv(x) for x in row) for row in rows))


def identity(domain, n: int) -> Mat:
    one, zero = domain.one(), domain.zero()
    return Mat(domain, n, tuple(tuple(one if i == j else zero for j in range(n))
                                for i in range(n)))


def zero_mat(domain, n: int) -> Mat:
    z = domain.zero()
    return Mat(domain, n, ((z,) * n,) * n)


def unit_mat(domain, n: int, i: int, j: int) -> Mat:
    """The matrix unit E_{ij} (1-based would be unpythonic; i, j are 0-based)."""
    one, zero = domain.one(), domain.zero()
    return Mat(domain, n, tuple(tuple(one if (r, c) == (i, j) else zero
                                      for c in range(n)) for r in range(n)))


def madd(a: Mat, b: Mat) -> Mat:
    d = a.domain
    return Mat(d, a.n, tuple(tuple(d.add(x, y) for x, y in zip(ra, rb))
                             for ra, rb in zip(a.rows, b.rows)))


def msub(a: Mat, b: Mat) -> Mat:
    d = a.domain
    return Mat(d, a.n, tuple(tuple(d.sub(x, y) for x, y in zip(ra, rb))
                             for ra, rb in zip(a.rows, b.rows)))


def mmul(a: Mat, b: Mat) -> Mat:
    """The product ab: native int dot products over F_p (then reduced mod
    p) and Z, and over Q on the rows of a and columns of b scaled to
    integers, one Fraction per entry; the domain methods over F_{p^k}."""
    d = a.domain
    bt = tuple(zip(*b.rows))
    kind = d.kind
    if kind == "prime_field":
        p = d.p
        rows = tuple(tuple(sum(map(mul, ra, cb)) % p for cb in bt) for ra in a.rows)
    elif kind == "integers":
        rows = tuple(tuple(sum(map(mul, ra, cb)) for cb in bt) for ra in a.rows)
    elif kind == "rationals":
        la = [lcm(*(x.denominator for x in r)) for r in a.rows]
        lb = [lcm(*(y.denominator for y in c)) for c in bt]
        ai = [[x.numerator * (l // x.denominator) for x in r] for r, l in zip(a.rows, la)]
        bi = [[y.numerator * (l // y.denominator) for y in c] for c, l in zip(bt, lb)]
        rows = tuple(tuple(Fraction(sum(map(mul, r, c)), l * m) for c, m in zip(bi, lb))
                     for r, l in zip(ai, la))
    else:
        out = []
        for ra in a.rows:
            row = []
            for cb in bt:
                acc = d.mul(ra[0], cb[0])
                for x, y in zip(ra[1:], cb[1:]):
                    acc = d.add(acc, d.mul(x, y))
                row.append(acc)
            out.append(tuple(row))
        rows = tuple(out)
    return Mat(d, a.n, rows)


def smul(c, a: Mat) -> Mat:
    d = a.domain
    return Mat(d, a.n, tuple(tuple(d.mul(c, x) for x in row) for row in a.rows))


def is_zero_mat(a: Mat) -> bool:
    return all(a.domain.is_zero(x) for x in a.entries())


def is_scalar_mat(a: Mat) -> bool:
    d = a.domain
    diag = a.rows[0][0]
    for i in range(a.n):
        for j in range(a.n):
            want = diag if i == j else d.zero()
            if a.rows[i][j] != want:
                return False
    return True


def vectorize(a: Mat) -> tuple:
    """Row-major flattening; the fixed order used by spans, kernels and the
    4x4 generation determinant."""
    return tuple(x for row in a.rows for x in row)


def unvectorize(domain, n: int, vec: Sequence) -> Mat:
    return Mat(domain, n, tuple(tuple(vec[i * n + j] for j in range(n))
                                for i in range(n)))


def commutator(a: Mat, b: Mat) -> Mat:
    return msub(mmul(a, b), mmul(b, a))


def reduce_mod(a: Mat, p: int) -> Mat:
    """The integer matrix a with its entries reduced into F_p."""
    if a.domain.kind != "integers":
        raise DomainError("reduce_mod needs an integer matrix")
    return mat(build_ext_field(p, 1), a.rows)


def det(a: Mat):
    """Determinant over any commutative domain, division-free (Berkowitz)."""
    return det_rows(a.rows, a.domain)


def det_rows(rows, d):
    """Determinant of the square matrix `rows` over any object with the
    domain methods zero, one, add, sub and mul: (-1)^n times the constant
    term of det(tI - A)."""
    c = _berkowitz(rows, d)[-1]
    return d.sub(d.zero(), c) if len(rows) % 2 else c


def char_poly(a: Mat) -> tuple:
    """Coefficients of det(tI - A), lowest degree first, monic of degree n."""
    if not a.domain.is_field:
        raise DomainError("char_poly requires a field domain")
    return tuple(reversed(_berkowitz(a.rows, a.domain)))


def _berkowitz(rows, d):
    """Coefficients of det(tI - A), highest degree first, for the square
    matrix A = `rows` by Berkowitz's division-free recursion (Inf. Process.
    Lett. 18, 1984): O(n^4) calls of the domain methods zero, one, add, sub
    and mul, so it runs over Z as over every field.

    With A_r the leading r x r block, C the column above A[r][r] and R the
    row left of it, det(tI - A_{r+1}) = (t - A[r][r]) det(tI - A_r)
    - R adj(tI - A_r) C.  Expanding the adjugate in powers of A_r makes
    the new polynomial t c - c * s, the old one c times t less its
    convolution with s = (A[r][r], R C, R A_r C, ..., R A_r^{r-1} C)."""
    add, sub, times = d.add, d.sub, d.mul
    poly = [d.one()]
    for r, row in enumerate(rows):
        col = [above[r] for above in rows[:r]]
        s = [row[r]]
        for i in range(r):  # map stops at the end of col, the first r entries
            if i:
                col = [reduce(add, map(times, above, col)) for above in rows[:r]]
            s.append(reduce(add, map(times, row, col)))
        new = poly + [d.zero()]
        for j, c in enumerate(poly, 1):
            for k, x in enumerate(s[:r + 2 - j], j):
                new[k] = sub(new[k], times(c, x))
        poly = new
    return poly


# ---------------------------------------------------------------------------
# echelon forms and kernels over a field


class Echelon:
    """Incremental semi-echelon basis of a span over a field (Parker's
    MeatAxe).

    basis lists (pivot, tail) in insertion order: the row is zero before its
    pivot, 1 at it and zero at the pivots of the rows before it, and tail is
    the row from the pivot on.  One pass in insertion order reduces a
    vector: at each pivot where it holds c, its part from the pivot on drops
    by c tail.  Entries are canonical, so zero is the only falsy one and the
    loops test them directly; field.is_zero would show in the F_{p^k} span
    closures.  The row operations are the field's row_ops(), fetched once
    per basis.  reduced() back-substitutes to the reduced row echelon form.
    """

    def __init__(self, field):
        self.field = field
        self.basis = []
        self._ops = field.row_ops()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def insert(self, vec):
        """Reduce vec against the span; if it is independent, add its row
        and return the row, normalised to 1 at its pivot, else None."""
        sub_mul, scale, inv = self._ops
        v = list(vec)
        for j, tail in self.basis:
            c = v[j]
            if c:
                v[j:] = sub_mul(v[j:], c, tail)
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        v = scale(inv(v[piv]), v)
        self.basis.append((piv, v[piv:]))
        return v

    def reduced(self):
        """(pivot, row) for each row of the span's reduced row echelon form,
        sorted by pivot.  Back-substitution runs from the last pivot up:
        each row is cleared at the later pivots, whose rows are already
        reduced and so zero at every other pivot."""
        sub_mul = self._ops[0]
        done = []
        for piv, tail in sorted(self.basis, reverse=True):  # distinct pivots
            tail = list(tail)
            for j, other in done:
                c = tail[j - piv]
                if c:
                    tail[j - piv:] = sub_mul(tail[j - piv:], c, other)
            done.append((piv, tail))
        zero = self.field.zero()
        return [(piv, (zero,) * piv + tuple(tail)) for piv, tail in reversed(done)]


def check_entries(rows, field) -> None:
    """Refuse, over a finite field, an entry that is not an int in [0, q),
    which the row operations would misread.  Echelon.insert, the hot loop
    of the F_{p^k} span closure, leaves this check to its callers."""
    if field.char:
        q = field.size
        for row in rows:
            for x in row:
                if type(x) is not int or not 0 <= x < q:
                    raise DomainError(f"{x!r} is not an element of {field!r}")


def _echelon(rows, field) -> Echelon:
    ncols = len(rows[0])
    if any(len(row) != ncols for row in rows):
        raise DomainError("ragged rows")
    check_entries(rows, field)
    ech = Echelon(field)
    for row in rows:
        ech.insert(row)
        if ech.dim == ncols:
            break
    return ech


def rref(rows, field):
    """Reduced row echelon form.

    Returns (basis, rank): the nonzero echelonized rows spanning the same
    subspace, pivots normalized to 1.
    """
    if not rows:
        return [], 0
    reduced = _echelon(rows, field).reduced()
    return [row for _, row in reduced], len(reduced)


def kernel_basis(rows, field, ncols: Optional[int] = None):
    """Basis of the right kernel {v : M v = 0} of the r x c matrix `rows`."""
    if not rows:
        if ncols is None:
            raise DomainError("kernel of an empty matrix needs ncols")
        one, zero = field.one(), field.zero()
        return [tuple(one if i == j else zero for j in range(ncols))
                for i in range(ncols)]
    reduced = dict(_echelon(rows, field).reduced())
    c = len(rows[0])
    out = []
    one, zero = field.one(), field.zero()
    for f in range(c):
        if f in reduced:
            continue
        v = [zero] * c
        v[f] = one
        for pj, row in reduced.items():
            v[pj] = field.neg(row[f])
        out.append(tuple(v))
    return out


# ---------------------------------------------------------------------------
# eigenlines of 2x2 matrices over the quadratic extension


def quadratic_eigvecs(a: Mat):
    """All eigenlines of a 2x2 matrix over F_{q^2}.

    Returns ALL_LINES for scalar matrices, otherwise a list of projective
    vectors with coordinates in the quadratic extension, first nonzero
    coordinate normalized to 1.
    """
    if a.n != 2:
        raise DomainError("quadratic_eigvecs is defined for 2x2 matrices")
    field = a.domain
    if not field.is_field or field.char == 0:
        raise DomainError("quadratic_eigvecs requires a finite field")
    if is_scalar_mat(a):
        return ALL_LINES
    E, embed = quadratic_extension(field)
    cp = char_poly(a)
    c0, c1 = embed(cp[0]), embed(cp[1])
    lines = []
    for lam in E.elements():
        val = E.add(E.add(E.mul(lam, lam), E.mul(c1, lam)), c0)
        if not E.is_zero(val):
            continue
        aa = E.sub(embed(a.rows[0][0]), lam)
        bb = embed(a.rows[0][1])
        cc = embed(a.rows[1][0])
        dd = E.sub(embed(a.rows[1][1]), lam)
        if not (E.is_zero(aa) and E.is_zero(bb)):
            v = (E.neg(bb), aa)
        else:
            v = (E.neg(dd), cc)
        lines.append(_normalize_line(v, E))
    return lines


def _normalize_line(v, E):
    for x in v:
        if not E.is_zero(x):
            inv = E.inv(x)
            return tuple(E.mul(inv, y) for y in v)
    raise DomainError("zero vector is not a line")


def line_is_invariant(v, a: Mat, E, embed) -> bool:
    """Does the 2x2 matrix `a` map the E-line spanned by v into itself?"""
    rows = [[embed(x) for x in row] for row in a.rows]
    w0 = E.add(E.mul(rows[0][0], v[0]), E.mul(rows[0][1], v[1]))
    w1 = E.add(E.mul(rows[1][0], v[0]), E.mul(rows[1][1], v[1]))
    cross = E.sub(E.mul(w0, v[1]), E.mul(w1, v[0]))
    return E.is_zero(cross)


# ---------------------------------------------------------------------------
# integer lattices: Hermite and Smith normal forms


class IntLattice:
    """Row lattice in Z^ambient_dim grown by insert, the integer
    counterpart of Echelon.

    rows lists (pivot, row) in pivot order: the row is zero before its
    pivot and positive at it, and nothing is reduced above the pivots.
    basis back-reduces once per call to the canonical HNF, which a lattice
    has only one of (Cohen, GTM 138, section 2.4), so the order of the
    inserts does not show in it.
    """

    def __init__(self, ambient_dim: int, rows=()):
        self.ambient_dim = ambient_dim
        self.rows = []
        for row in rows:
            self.insert(row)

    def insert(self, vec):
        """Add vec to the lattice; return vec if the lattice grew, else None.

        One pass over the rows: at each pivot, exact division clears vec
        when it can.  Otherwise the row and vec become the unimodular pair of
        the gcd g of their pivot entries: s row + t vec, whose pivot is g,
        and a remainder that is zero there.  A nonzero entry of vec before
        the next pivot, or after the last, makes the rest of vec a new row.
        """
        v = list(vec)
        rows = self.rows
        grew = False
        start = 0
        for k, (piv, row) in enumerate(rows):
            if any(v[start:piv]):
                break
            b = v[piv]
            if b:
                a = row[piv]
                q, r = divmod(b, a)
                if r:  # a does not divide b, so a // g >= 2
                    g = gcd(a, b)
                    t = pow(b // g, -1, a // g)
                    s = (g - t * b) // a
                    a, b = a // g, b // g
                    rows[k] = (piv, row[:piv] + [s * x + t * y for x, y in
                                                 zip(row[piv:], v[piv:])])
                    v[piv:] = [b * x - a * y for x, y in zip(row[piv:], v[piv:])]
                    grew = True
                else:
                    v[piv:] = [y - q * x for x, y in zip(row[piv:], v[piv:])]
            start = piv + 1
        else:
            k = len(rows)
            if not any(v[start:]):
                return vec if grew else None
        piv = next(j for j in range(start, len(v)) if v[j])
        if v[piv] < 0:
            v = [-x for x in v]
        rows.insert(k, (piv, v))
        return vec

    @property
    def basis(self) -> tuple:
        """The canonical HNF: pivot by pivot, every row above is reduced
        into [0, pivot) in the pivot's column."""
        H = [list(row) for _, row in self.rows]
        for k, (piv, _) in enumerate(self.rows):
            a = H[k][piv]
            for i in range(k):
                q = H[i][piv] // a
                if q:
                    H[i][piv:] = [x - q * y for x, y in zip(H[i][piv:], H[k][piv:])]
        return tuple(map(tuple, H))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def is_full(self) -> bool:
        """Is the lattice Z^ambient_dim?  Rank d and every pivot 1."""
        return (self.rank == self.ambient_dim
                and all(row[piv] == 1 for piv, row in self.rows))

    def index_in_full(self):
        """Lattice index [Z^d : L] (product of pivots), or None if not full rank."""
        if self.rank != self.ambient_dim:
            return None
        return prod(row[piv] for piv, row in self.rows)


def hnf(rows):
    """Row-style Hermite normal form H of the integer matrix `rows`, the
    canonical basis of its row lattice: IntLattice's basis, padded with
    zero rows at the bottom to the input row count.  The Smith divisors
    and the saturated integer kernel below are built on it."""
    if not rows:
        return []
    ncols = len(rows[0])
    H = list(IntLattice(ncols, rows).basis)
    return H + [(0,) * ncols] * (len(rows) - len(H))


def snf(rows) -> tuple:
    """Elementary divisors d_1 | d_2 | ... (nonnegative, zeros trailing).

    Row HNFs of the matrix and of its transpose alternate until every
    nonzero row has one nonzero entry (Kannan & Bachem 1979); each pair of
    those entries then becomes its (gcd, lcm), which sorts the exponent of
    every prime and so orders them into the divisor chain."""
    if not rows:
        return ()
    H = hnf(rows)
    while any(sum(1 for x in row if x) > 1 for row in H):
        H = hnf(list(zip(*H)))
    divisors = [x for row in H for x in row if x]
    for i, j in combinations(range(len(divisors)), 2):
        a, b = divisors[i], divisors[j]
        divisors[i], divisors[j] = gcd(a, b), lcm(a, b)
    return tuple(divisors) + (0,) * (min(len(rows), len(rows[0])) - len(divisors))


def integer_kernel_saturated(rows, ncols: int):
    """The kernel lattice {v in Z^ncols : M v = 0} in canonical HNF, which
    is saturated: the right halves of the rows of hnf((M^T | I)) whose left
    half is zero.  The result does not depend on the order of the rows."""
    m = len(rows)
    H = hnf([tuple(r[i] for r in rows)
             + tuple(int(i == j) for j in range(ncols)) for i in range(ncols)])
    return [h[m:] for h in H if not any(h[:m])]


def subspace_intersection(basis_u, basis_w, field):
    """Basis (in RREF) of the intersection of two row spans over a field.

    Zassenhaus: in the echelon form of the rows (u|u) and (w|0), the rows
    that are zero on the left half have right halves spanning the
    intersection.
    """
    check_entries([*basis_u, *basis_w], field)
    if not basis_u or not basis_w:
        return []
    width = len(basis_u[0])
    zeros = (field.zero(),) * width
    ech = Echelon(field)
    for u in basis_u:
        ech.insert(tuple(u) + tuple(u))
    for w in basis_w:
        ech.insert(tuple(w) + zeros)
    return [row[width:] for col, row in ech.reduced() if col >= width]
