"""Simultaneous conjugacy of matrix tuples.

The relation A_i = C^{-1} B_i C is linearized as C A_i = B_i C, so the
candidate conjugators form the kernel of a stacked linear system; deciding
conjugacy means deciding whether that kernel contains an invertible matrix.
One grid rule (_span_points) decides it over F_q and Q at every n.  Over Z
the same rule on the integer kernel decides, at once, every prime dividing
no elementary divisor of the system; the finitely many others are checked
one by one, which makes a certificate covering every prime.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .domains import ZZ, DomainError, InvariantError, build_ext_field, is_prime
from .linalg import (
    Mat,
    det,
    identity,
    integer_kernel_saturated,
    kernel_basis,
    madd,
    mat,
    mmul,
    reduce_mod,
    smul,
    snf,
    unvectorize,
)

ENUMERATION_CAP = 4096
BRUTEFORCE_GROUP_CAP = 10**6
# Trial division bound of _prime_factors, and the rho iterations (squarings
# mod n) allowed for one split: up to about 1 s, which splits off prime
# factors up to about 10^11 (factors near 10^12 were refused).
TRIAL_BOUND = 1000
RHO_ITERATIONS = 1 << 20
_RHO_BATCH = 128  # differences multiplied together between gcds


class UndecidableError(RuntimeError):
    """The current strategy cannot decide this instance (never a wrong answer)."""


@dataclass(frozen=True)
class IntertwinerSpace:
    basis: tuple  # Mat instances spanning {C : C A_i = B_i C for all i}
    dim: int


@dataclass(frozen=True)
class PrimeVerdict:
    p: int
    kernel_dim: int
    invertible_found: bool
    witness: Optional[Mat] = None


@dataclass(frozen=True)
class NonConjCertificate:
    rational_kernel_dim: int
    det_vanishes_on_kernel: bool
    polarization_dets: tuple
    polarization_cross: tuple  # (i, j, det(b_i+b_j) - det(b_i) - det(b_j))
    exceptional_primes: tuple  # PrimeVerdict entries
    witness: Optional[tuple]  # (p, Mat) when some prime conjugates
    overall: bool

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "rational_kernel_dim": self.rational_kernel_dim,
            "det_vanishes_on_kernel": self.det_vanishes_on_kernel,
            "polarization": {
                "dets": [str(d) for d in self.polarization_dets],
                "cross": [[i, j, str(v)] for i, j, v in self.polarization_cross],
            },
            "exceptional_primes": [
                {
                    "p": pv.p,
                    "kernel_dim": pv.kernel_dim,
                    "invertible_found": pv.invertible_found,
                    "witness": [list(map(str, row)) for row in pv.witness.rows]
                    if pv.witness is not None
                    else None,
                }
                for pv in self.exceptional_primes
            ],
            "witness_prime": None
            if self.witness is None
            else {
                "p": self.witness[0],
                "witness": [list(map(str, row)) for row in self.witness[1].rows],
            },
            "overall": self.overall,
        }


def _stacked_rows(tuple_a, tuple_b, domain):
    """Rows of the (m n^2) x n^2 system in the unknown vec(C), row-major."""
    if (tuple_a.n, tuple_a.m, tuple_a.domain) != (tuple_b.n, tuple_b.m, tuple_b.domain):
        raise DomainError("tuples must share size, length and domain")
    n = tuple_a.n
    zero = domain.zero()
    rows = []
    for a, b in zip(tuple_a.mats, tuple_b.mats):
        for k in range(n):
            for l in range(n):
                row = [zero] * (n * n)
                for s in range(n):
                    row[k * n + s] = domain.add(row[k * n + s], a.rows[s][l])
                for r in range(n):
                    row[r * n + l] = domain.sub(row[r * n + l], b.rows[k][r])
                rows.append(tuple(row))
    return rows


def _check_intertwines(c: Mat, tuple_a, tuple_b) -> bool:
    return all(mmul(c, a).rows == mmul(b, c).rows
               for a, b in zip(tuple_a.mats, tuple_b.mats))


def intertwiners(tuple_a, tuple_b) -> IntertwinerSpace:
    """Solution space of C A_i = B_i C.

    Over a field: a kernel basis.  Over Z: the saturated integer kernel,
    a basis in canonical HNF of the rational kernel's integer points.
    """
    n, domain = tuple_a.n, tuple_a.domain
    rows = _stacked_rows(tuple_a, tuple_b, domain)
    if domain.is_field:
        vecs = kernel_basis(rows, domain, ncols=n * n)
    elif domain == ZZ:
        vecs = integer_kernel_saturated(rows, n * n)
    else:
        raise DomainError("intertwiners work over a field or Z")
    return _kernel_space(vecs, tuple_a, tuple_b)


def _kernel_space(vecs, tuple_a, tuple_b) -> IntertwinerSpace:
    """intertwiners from the vectors vec(C) of a basis of its system's
    solutions; every basis matrix is checked against the equations."""
    n = tuple_a.n
    domain = tuple_a.domain
    basis = tuple(unvectorize(domain, n, v) for v in vecs)
    for c in basis:
        if not _check_intertwines(c, tuple_a, tuple_b):
            raise InvariantError("intertwiner basis fails its equations; bug")
    return IntertwinerSpace(basis=basis, dim=len(basis))


def _span_points(basis, grid):
    """(b, det b) at each b_i, each b_i + b_j (i < j), then every other
    projective grid point of the span: first nonzero coordinate 1, the
    others in grid.  UndecidableError if len(grid)^(dim-1) > ENUMERATION_CAP.

    det is homogeneous of degree n, so it vanishes on the span exactly when
    it vanishes at every projective point: up to unit multiples these are
    all points when grid is F_q, and when grid has n + 1 elements,
    det(b_k + sum_{i>k} x_i b_i), of degree <= n in each x_i, is zero once
    it vanishes on grid^(dim-k-1) (Alon, Combinatorial Nullstellensatz,
    Lemma 2.1).  For n = 2, det(b_i) and det(b_i + b_j) - det(b_i) -
    det(b_j) are the coefficients of the quadratic form det.
    """
    dim = len(basis)
    if len(grid) ** (dim - 1) > ENUMERATION_CAP:
        raise UndecidableError(
            f"{len(grid)}^{dim - 1} grid points on an intertwiner space of "
            f"dimension {dim} exceed the enumeration cap; undecidable under "
            "current strategy")
    for b in basis:
        yield b, det(b)
    for b_i, b_j in itertools.combinations(basis, 2):
        b = madd(b_i, b_j)
        yield b, det(b)
    for k in range(dim):
        for coeffs in itertools.product(grid, repeat=dim - k - 1):
            if set(coeffs) <= {0, 1} and coeffs.count(1) <= 1:
                continue  # b_k or b_k + b_j, yielded above
            b = functools.reduce(madd, (smul(c, x) for c, x in
                                        zip(coeffs, basis[k + 1:]) if c != 0),
                                 basis[k])
            yield b, det(b)


def _witness_from_span(space: IntertwinerSpace, field, n: int):
    """The first point of _span_points with a unit determinant, or None, on
    the grid 0..n over Q and the first n + 1 elements of F_q otherwise."""
    grid = range(n + 1) if field.char == 0 else \
        tuple(itertools.islice(field.elements(), n + 1))
    return next((b for b, d in _span_points(space.basis, grid)
                 if field.is_unit(d)), None)


def _witness(tuple_a, tuple_b, space: IntertwinerSpace):
    """Invertible C with C A_i = B_i C for all i, or None, over a field:
    the identity for equal tuples, else _witness_from_span, revalidated."""
    field = tuple_a.domain
    if tuple_a.mats == tuple_b.mats:
        return identity(field, tuple_a.n)
    w = _witness_from_span(space, field, tuple_a.n)
    if w is not None and not (_check_intertwines(w, tuple_a, tuple_b)
                              and field.is_unit(det(w))):
        raise InvariantError("conjugacy witness failed revalidation; bug")
    return w


def simultaneously_conjugate(tuple_a, tuple_b) -> Optional[Mat]:
    """Witness C in GL_n with C A_i = B_i C for all i, or None.

    Decided at any n, over F_q and Q, by the points of _span_points on the
    intertwiner space; refused (UndecidableError) only past its cap.
    """
    if not tuple_a.domain.is_field:
        raise DomainError("simultaneously_conjugate requires a field")
    return _witness(tuple_a, tuple_b, intertwiners(tuple_a, tuple_b))


def _modp_verdict(tuple_a, tuple_b, rows, p: int) -> PrimeVerdict:
    """The verdict at p of two integer tuples whose stacked integer system
    is rows: its mod-p system is rows reduced entrywise.  A zero mod-p
    kernel is answered at once: it holds no invertible element (tuples
    equal mod p would put I in it)."""
    from .generation import mat_tuple

    vecs = kernel_basis([[x % p for x in row] for row in rows],
                        build_ext_field(p, 1), ncols=tuple_a.n ** 2)
    if not vecs:
        return PrimeVerdict(p, 0, False, None)
    a_p = mat_tuple([reduce_mod(a, p) for a in tuple_a.mats])
    b_p = mat_tuple([reduce_mod(b, p) for b in tuple_b.mats])
    space = _kernel_space(vecs, a_p, b_p)
    w = _witness(a_p, b_p, space)
    return PrimeVerdict(p, space.dim, w is not None, w)


def nonconjugate_all_primes(tuple_a, tuple_b) -> NonConjCertificate:
    """Certify that two integer tuples of any size n are conjugate modulo
    no prime: overall is True exactly when no prime p admits an invertible
    mod-p intertwiner.

    Away from the primes dividing the elementary divisors of the stacked
    system, the mod-p kernel reduces the saturated rational kernel, so det
    on it decides them all: det_vanishes_on_kernel when det is 0 at every
    point of _span_points on the grid 0..n.  The exceptional primes are
    decided one by one.  The polarization fields are the first points' dets.
    The stacked system is built once: the SNF, the integer kernel and every
    mod-p kernel come from its rows.  The SNF comes first: a system with n^2
    nonzero divisors has full column rank, so its kernel is {0} and no HNF
    of (M^T | I) is built for it.
    """
    if tuple_a.domain != ZZ or tuple_b.domain != ZZ:
        raise DomainError("all-primes certification works over Z")
    rows = _stacked_rows(tuple_a, tuple_b, ZZ)
    width = tuple_a.n ** 2
    divisors = snf(rows)
    kernel = integer_kernel_saturated(rows, width) \
        if sum(1 for d in divisors if d) < width else []
    space = _kernel_space(kernel, tuple_a, tuple_b)
    dim = space.dim
    points = _span_points(space.basis, range(tuple_a.n + 1))
    form = list(itertools.islice(points, dim * (dim + 1) // 2))
    dets = tuple(d for _, d in form[:dim])
    pairs = itertools.combinations(range(dim), 2)
    cross = tuple((i, j, d - dets[i] - dets[j])
                  for (i, j), (_, d) in zip(pairs, form[dim:]))
    bound = next((abs(d) for _, d in itertools.chain(form, points) if d != 0), 0)
    vanishes = bound == 0

    exceptional = sorted({2}.union(*(_prime_factors(abs(d)) for d in divisors)))

    verdicts = {p: _modp_verdict(tuple_a, tuple_b, rows, p)
                for p in exceptional}
    witness = None
    if vanishes:
        for p in exceptional:
            if verdicts[p].invertible_found:
                witness = (p, verdicts[p].witness)
                break
        overall = witness is None
    else:
        # det is nonzero somewhere on the rational kernel, so some prime
        # conjugates; sweep upward until one is exhibited.
        overall = False
        for p in filter(is_prime, itertools.count(2)):
            v = verdicts.get(p) or _modp_verdict(tuple_a, tuple_b, rows, p)
            verdicts.setdefault(p, v)
            if v.invertible_found:
                witness = (p, v.witness)
                break
            if p > bound:
                raise InvariantError("witness prime sweep failed; bug")

    ordered = tuple(verdicts[p] for p in sorted(verdicts))
    return NonConjCertificate(
        rational_kernel_dim=dim,
        det_vanishes_on_kernel=vanishes,
        polarization_dets=dets,
        polarization_cross=cross,
        exceptional_primes=ordered,
        witness=witness,
        overall=overall,
    )


def _prime_factors(n: int):
    """Distinct prime factors of n >= 1, ascending.

    Trial division by d < TRIAL_BOUND, then each cofactor is tested for
    primality and a composite one split by Pollard-Brent rho (Brent 1980).
    A split that fails within RHO_ITERATIONS raises UndecidableError, so no
    input makes this run unboundedly."""
    out = []
    d = 2
    while d < TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if is_prime(m):
            out.append(m)
        else:
            f = _rho_split(m)
            pending += [f, m // f]
    return sorted(set(out))


def _rho_split(n: int) -> int:
    """A proper divisor of the composite n, which has no factor below
    TRIAL_BOUND: Brent's cycle search on y -> y^2 + c from y = 2, for
    c = 1, 2, ... in turn, sharing one budget of RHO_ITERATIONS."""
    left = RHO_ITERATIONS
    for c in itertools.count(1):
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            if left < 2 * r:
                raise UndecidableError(
                    f"no factor of {n} found within {RHO_ITERATIONS} rho "
                    "iterations; undecidable under current strategy")
            left -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = math.gcd(x - saved, n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# independent oracle: exhaustive sweep of GL_2(F_p)

# Residues of as many equations as keep p^k <= 2^62 share one int64 code.
_CODE_LIMIT = 1 << 62


@lru_cache(maxsize=None)
def _gl2_grid(p: int):
    """(y1, y2, invertible) for the p^2 x p^2 candidate grid.

    Half number u in [0, p^2) is the pair (y1[u], y2[u]) = divmod(u, p).
    Cell (i, j) is the matrix [[y1[i], y2[i]], [y1[j], y2[j]]], and
    invertible[i, j] says its determinant is nonzero mod p."""
    import numpy as np

    y1, y2 = np.divmod(np.arange(p * p, dtype=np.int64), p)
    invertible = (np.outer(y1, y2) - np.outer(y2, y1)) % p != 0
    for arr in (y1, y2, invertible):
        arr.flags.writeable = False
    return y1, y2, invertible


def conjugate_mod_p_bruteforce(tuple_a, tuple_b, p: int) -> Optional[Mat]:
    """Exhaustive search of GL_2(F_p) for a simultaneous conjugator.

    Returns the lexicographically first C = [[x1, x2], [x3, x4]] in
    GL_2(F_p) with C A_i = B_i C (mod p) for every i, or None; independent
    of the linear algebra used elsewhere.  Both tuples must be integer
    2x2 tuples of the same length.

    Each entry of C A_i - B_i C is a linear form that splits as
    h(x1, x2) - l(x3, x4).  The sweep evaluates every h and l on all p^2
    values of their half at once, and packs the residues of up to per_code
    equations into one base-p code per half (codes below 2^62).  A cell
    (x1, x2 | x3, x4) of the p^2 x p^2 grid solves every equation exactly
    when its two halves agree on every code.  When a single code holds all
    equations and stays below 2^31, the codes themselves are compared, in
    the narrowest unsigned type that holds them, on every row.  Otherwise
    each code is replaced by its rank among the 2 p^2 codes of both halves,
    runs are combined as rank_prev 2 p^2 + rank and ranked again, and the
    ranks are compared (uint16 for p <= 31): equal ranks mean equal codes,
    so the comparison is the same.  On that path a row (x1, x2) is compared
    only when its rank occurs among the second half's ranks: a row whose
    rank occurs nowhere there equals no column on every code, so it holds
    no solution and dropping it skips none.  The kept rows are the preimage
    under h of the image of l, a subspace of F_p^2, so there are 1, p or
    p^2 of them; when all p^2 are kept the grid is compared whole, with no
    copy of the det mask.  The compared cells are masked by det C != 0,
    with no early exit and no sampling, so the search stays exhaustive;
    the kept rows stay ascending and row-major order on the grid is
    lexicographic order on (x1, x2, x3, x4), so the first surviving cell
    is the first solution.
    """
    if tuple_a.n != 2 or tuple_b.n != 2:
        raise DomainError("brute force sweep handles 2x2 tuples")
    if tuple_a.domain != ZZ or tuple_b.domain != ZZ or tuple_a.m != tuple_b.m:
        raise DomainError("the sweep takes integer tuples of the same length")
    if not is_prime(p):
        raise DomainError(f"the sweep needs a prime, not {p}")
    order = (p * p - 1) * (p * p - p)
    if order > BRUTEFORCE_GROUP_CAP:
        raise DomainError(f"|GL_2(F_{p})| = {order} exceeds the sweep cap")
    import numpy as np

    y1, y2, ok = _gl2_grid(p)
    half = p * p
    # (h1, h2 | l1, l2): h1 x1 + h2 x2 = l1 x3 + l2 x4 (mod p)
    forms = []
    for a, b in zip(tuple_a.mats, tuple_b.mats):
        (a1, a2), (a3, a4) = a.rows
        (b1, b2), (b3, b4) = b.rows
        forms += [[x % p for x in form] for form in (
            (a1 - b1, a3, b2, 0), (a2, a4 - b1, 0, b2),
            (b3, 0, a1 - b4, a3), (0, b3, a2, a4 - b4))]
    # row f: h_f on the first half, then l_f on the second; h1 y1 + h2 y2 is
    # below 2 p^2, so the residues are taken in the narrowest type holding that
    width = np.min_scalar_type(2 * (p - 1) ** 2)
    coef = np.array(forms, dtype=width).reshape(-1, 2, 2, 1)
    y = np.array((y1, y2), dtype=width)
    res = ((coef[:, :, 0] * y[0] + coef[:, :, 1] * y[1]) % p).reshape(-1, 2 * half)
    per_code = 1
    while p ** (per_code + 1) <= _CODE_LIMIT:
        per_code += 1
    codes = [p ** np.arange(len(run), dtype=np.int64) @ run
             for run in (res[s:s + per_code] for s in range(0, len(forms), per_code))]
    rows = slice(None)
    if len(codes) == 1 and p ** len(forms) < 1 << 31:
        key = codes[0].astype(np.min_scalar_type(p ** len(forms) - 1))
    else:
        key = np.unique(codes[0], return_inverse=True)[1]
        for code in codes[1:]:
            rank = np.unique(code, return_inverse=True)[1]
            key = np.unique(key * (2 * half) + rank, return_inverse=True)[1]
        key = key.astype(np.min_scalar_type(2 * half))
        # only the rows whose rank some column has; if that is every row,
        # the grid is compared in place, without a copy of ok
        seen = np.zeros(2 * half, dtype=bool)
        seen[key[half:]] = True
        kept = np.flatnonzero(seen[key[:half]])
        if len(kept) < half:
            rows = kept
    hit = key[:half][rows, None] == key[None, half:]
    hit &= ok[rows]
    idx = int(hit.argmax())
    if not hit.flat[idx]:
        return None
    i, j = divmod(idx, half)
    if not isinstance(rows, slice):
        i = int(rows[i])
    (x1, x2), (x3, x4) = divmod(i, p), divmod(j, p)
    f = build_ext_field(p, 1)
    return mat(f, [[x1, x2], [x3, x4]])
