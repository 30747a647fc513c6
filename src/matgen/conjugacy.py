"""Simultaneous conjugacy of matrix tuples.

The relation A_i = C^{-1} B_i C is linearized as C A_i = B_i C, so the
candidate conjugators form the kernel of a stacked linear system; deciding
conjugacy means deciding whether that kernel contains an invertible matrix.
Over Z this extends to a certificate covering every prime at once.  For 2x2
tuples det is a quadratic form on the kernel, and its vanishing is read off
finitely many values; for n >= 3 the tuples must generate M_n(Z), and then
every intertwiner space has dimension 0 or 1 (see nonconjugate_all_primes).
Either way the finitely many exceptional primes (divisors of the elementary
divisors of the system) are checked individually.
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
    return _kernel_space(_stacked_rows(tuple_a, tuple_b, tuple_a.domain),
                         tuple_a, tuple_b)


def _kernel_space(rows, tuple_a, tuple_b) -> IntertwinerSpace:
    """intertwiners from the stacked rows of its system; every basis matrix
    is checked against the equations."""
    n = tuple_a.n
    domain = tuple_a.domain
    if domain.is_field:
        vecs = kernel_basis(rows, domain, ncols=n * n)
    elif domain == ZZ:
        vecs = integer_kernel_saturated(rows, n * n)
    else:
        raise DomainError("intertwiners work over a field or Z")
    basis = tuple(unvectorize(domain, n, v) for v in vecs)
    for c in basis:
        if not _check_intertwines(c, tuple_a, tuple_b):
            raise InvariantError("intertwiner basis fails its equations; bug")
    return IntertwinerSpace(basis=basis, dim=len(basis))


def _form_points(basis):
    """(b, det b) for each basis matrix b_i, then for each b_i + b_j, i < j.

    For 2x2 matrices det is a quadratic form on the span of the basis, and
    these values list its coefficients in any characteristic: det(b_i) and
    det(b_i + b_j) - det(b_i) - det(b_j).  So the form vanishes on the span
    exactly when it vanishes at every point yielded here.
    """
    for b in basis:
        yield b, det(b)
    for b_i, b_j in itertools.combinations(basis, 2):
        b = madd(b_i, b_j)
        yield b, det(b)


def _witness_from_span(space: IntertwinerSpace, field):
    """Invertible element of the span, or None.

    n = 2: the first point of _form_points whose det is a unit.  n >= 3: a
    line is decided at any q by its first nonzero multiple c b, the element
    enumeration tries first, since det(c b) = c^n det(b); a larger span is
    enumerated while q^dim fits ENUMERATION_CAP.  Above the cap, and over Q,
    UndecidableError is raised.
    """
    dim = space.dim
    if dim == 0:
        return None
    n = space.basis[0].n
    if n == 2:
        return next((b for b, d in _form_points(space.basis)
                     if field.is_unit(d)), None)
    if field.char == 0 or (dim > 1 and field.size**dim > ENUMERATION_CAP):
        raise UndecidableError(
            f"n = {n} intertwiner space of dimension {dim} over {field!r} "
            "exceeds the enumeration cap; undecidable under current strategy")
    zero = field.zero()
    if dim == 1:
        cand = smul(next(c for c in field.elements() if c != zero), space.basis[0])
        return cand if field.is_unit(det(cand)) else None
    for coeffs in itertools.product(field.elements(), repeat=dim):
        if all(c == zero for c in coeffs):
            continue
        cand = functools.reduce(
            madd, (smul(c, b) for c, b in zip(coeffs, space.basis)))
        if field.is_unit(det(cand)):
            return cand
    return None


def _witness(tuple_a, tuple_b, space: IntertwinerSpace):
    """Invertible C with C A_i = B_i C for all i, or None, over a field.

    The identity for equal tuples, else the rule of _witness_from_span on
    their intertwiner space; a witness is revalidated before it is returned.
    """
    field = tuple_a.domain
    if tuple_a.mats == tuple_b.mats:
        return identity(field, tuple_a.n)
    w = _witness_from_span(space, field)
    if w is not None:
        if not (_check_intertwines(w, tuple_a, tuple_b) and field.is_unit(det(w))):
            raise InvariantError("conjugacy witness failed revalidation; bug")
    return w


def simultaneously_conjugate(tuple_a, tuple_b) -> Optional[Mat]:
    """Witness C in GL_n with C A_i = B_i C for all i, or None.

    n = 2 is decided by det, a quadratic form on the intertwiner space, at
    any q; n >= 3 by one point of a 1-dimensional space at any q, and a
    larger space by enumeration while q^dim fits ENUMERATION_CAP; refused
    with UndecidableError above it and over Q.
    """
    if not tuple_a.domain.is_field:
        raise DomainError("simultaneously_conjugate requires a field")
    return _witness(tuple_a, tuple_b, intertwiners(tuple_a, tuple_b))


def _modp_verdict(tuple_a, tuple_b, rows, p: int) -> PrimeVerdict:
    """The verdict at p of two integer tuples whose stacked integer system
    is rows: its mod-p system is rows reduced entrywise."""
    from .generation import mat_tuple

    a_p = mat_tuple([reduce_mod(a, p) for a in tuple_a.mats])
    b_p = mat_tuple([reduce_mod(b, p) for b in tuple_b.mats])
    space = _kernel_space([[x % p for x in row] for row in rows], a_p, b_p)
    w = _witness(a_p, b_p, space)
    return PrimeVerdict(p, space.dim, w is not None, w)


def nonconjugate_all_primes(tuple_a, tuple_b) -> NonConjCertificate:
    """Certify that two integer tuples are conjugate modulo no prime.

    overall is True exactly when no prime p admits an invertible mod-p
    intertwiner.  Soundness for n = 2: away from primes dividing the
    elementary divisors of the stacked system, the mod-p kernel is the
    reduction of the saturated rational kernel, where det vanishes
    identically whenever all polarization values vanish.  n >= 3 needs both
    tuples to generate M_n(Z), or DomainError is raised; then every
    intertwiner space has dimension 0 or 1 (Schur's lemma; see
    matgen.zverify), so rational_kernel_dim <= 1, det_vanishes_on_kernel
    holds exactly when that kernel is 0, and no cross terms are listed.
    """
    if tuple_a.domain != ZZ or tuple_b.domain != ZZ:
        raise DomainError("all-primes certification works over Z")
    if tuple_a.n >= 3:
        from .generation import lattice_generates_MnZ

        if not all(lattice_generates_MnZ(t.mats, t.n)[0]
                   for t in (tuple_a, tuple_b)):
            raise DomainError("certification for n >= 3 needs tuples that "
                              "generate M_n(Z)")
    return _certificate(tuple_a, tuple_b)


def _certificate(tuple_a, tuple_b) -> NonConjCertificate:
    """nonconjugate_all_primes without its n >= 3 precondition check.

    The stacked integer system is built once: the integer kernel, the SNF
    and every mod-p kernel are taken from its rows."""
    rows = _stacked_rows(tuple_a, tuple_b, ZZ)
    space = _kernel_space(rows, tuple_a, tuple_b)
    dim = space.dim
    points = list(_form_points(space.basis))
    dets = tuple(d for _, d in points[:dim])
    pairs = itertools.combinations(range(dim), 2)
    cross = tuple((i, j, d - dets[i] - dets[j])
                  for (i, j), (_, d) in zip(pairs, points[dim:]))
    vanishes = all(d == 0 for _, d in points)

    exceptional = sorted({2}.union(*(_prime_factors(abs(d)) for d in snf(rows))))

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
        bound = next(abs(d) for _, d in points if d != 0)
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
    of the linear algebra used elsewhere.

    Each entry of C A_i - B_i C is a linear form that splits as
    h(x1, x2) - l(x3, x4).  The sweep evaluates h and l on all p^2 values of
    their half and packs the residues of several equations into one base-p
    code per half, so a cell (x1, x2 | x3, x4) of the p^2 x p^2 grid solves
    those equations exactly when its two codes are equal.  Every cell is
    compared for every equation and masked by det C != 0, so the search
    stays exhaustive; row-major order on the grid is lexicographic order on
    (x1, x2, x3, x4), so the first surviving cell is the first solution.
    """
    if tuple_a.n != 2 or tuple_b.n != 2:
        raise DomainError("brute force sweep handles 2x2 tuples")
    if not is_prime(p):
        raise DomainError(f"the sweep needs a prime, not {p}")
    order = (p * p - 1) * (p * p - p)
    if order > BRUTEFORCE_GROUP_CAP:
        raise DomainError(f"|GL_2(F_{p})| = {order} exceeds the sweep cap")
    y1, y2, ok = _gl2_grid(p)
    # (h1, h2, l1, l2): h1 x1 + h2 x2 = l1 x3 + l2 x4 (mod p)
    forms = []
    for a, b in zip(tuple_a.mats, tuple_b.mats):
        (a1, a2), (a3, a4) = a.rows
        (b1, b2), (b3, b4) = b.rows
        forms += [(a1 - b1, a3, b2, 0), (a2, a4 - b1, 0, b2),
                  (b3, 0, a1 - b4, a3), (0, b3, a2, a4 - b4)]
    per_code = 1
    while p ** (per_code + 1) <= _CODE_LIMIT:
        per_code += 1
    for start in range(0, len(forms), per_code):
        hi = lo = 0
        for h1, h2, l1, l2 in forms[start:start + per_code]:
            hi = hi * p + (h1 % p * y1 + h2 % p * y2) % p
            lo = lo * p + (l1 % p * y1 + l2 % p * y2) % p
        ok = ok & (hi[:, None] == lo[None, :])
    idx = int(ok.argmax())
    if not ok.flat[idx]:
        return None
    (x1, x2), (x3, x4) = (divmod(half, p) for half in divmod(idx, p * p))
    f = build_ext_field(p, 1)
    return mat(f, [[x1, x2], [x3, x4]])
