"""Simultaneous conjugacy of matrix tuples.

The relation A_i = C^{-1} B_i C is linearized as C A_i = B_i C, so the
candidate conjugators form the kernel of a stacked linear system; deciding
conjugacy means deciding whether that kernel contains an invertible matrix.
For 2x2 tuples over Z this extends to a certificate covering every prime at
once: det is a quadratic form on the kernel, and its vanishing is read off
finitely many values, with the finitely many exceptional primes (divisors of
the elementary divisors of the system) checked individually.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .domains import ZZ, DomainError, build_ext_field, is_prime
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
    snf,
    unvectorize,
)

ENUMERATION_CAP = 4096
BRUTEFORCE_GROUP_CAP = 10**6


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

    Over a field: a kernel basis.  Over Z: a primitive (saturated) integer
    basis of the rational kernel.
    """
    if (tuple_a.n, tuple_a.m, tuple_a.domain) != (tuple_b.n, tuple_b.m, tuple_b.domain):
        raise DomainError("tuples must share size, length and domain")
    n = tuple_a.n
    domain = tuple_a.domain
    if domain.is_field:
        rows = _stacked_rows(tuple_a, tuple_b, domain)
        vecs = kernel_basis(rows, domain, ncols=n * n)
    elif domain == ZZ:
        rows = _stacked_rows(tuple_a, tuple_b, ZZ)
        vecs = integer_kernel_saturated(rows, n * n)
    else:
        raise DomainError("intertwiners work over a field or Z")
    basis = tuple(unvectorize(domain, n, v) for v in vecs)
    for c in basis:
        if not _check_intertwines(c, tuple_a, tuple_b):
            raise RuntimeError("intertwiner basis fails its equations; bug")
    return IntertwinerSpace(basis=basis, dim=len(basis))


def _witness_from_span(space: IntertwinerSpace, field):
    """Invertible element of the span, or None.

    Enumerates when q^dim is small; otherwise (n = 2) uses det as a
    quadratic form: det(b_i) and det(b_i + b_j) list its coefficients, so a
    nonzero value occurs at some b_i or b_i + b_j as soon as the form is
    nonzero.
    """
    dim = space.dim
    if dim == 0:
        return None
    n = space.basis[0].n
    q = field.size
    if q**dim <= ENUMERATION_CAP:
        elems = list(field.elements())
        zero = field.zero()
        for coeffs in itertools.product(elems, repeat=dim):
            if all(c == zero for c in coeffs):
                continue
            cand = _combine(space.basis, coeffs, field)
            if field.is_unit(det(cand)):
                return cand
        return None
    if n != 2:
        raise UndecidableError(
            f"n = {n} intertwiner space of dimension {dim} over q = {q} "
            "exceeds the enumeration cap; undecidable under current strategy")
    for b in space.basis:
        if field.is_unit(det(b)):
            return b
    for i in range(dim):
        for j in range(i + 1, dim):
            cand = madd(space.basis[i], space.basis[j])
            if field.is_unit(det(cand)):
                return cand
    return None


def _combine(basis, coeffs, field):
    n = basis[0].n
    rows = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = field.zero()
            for coef, b in zip(coeffs, basis):
                acc = field.add(acc, field.mul(coef, b.rows[r][c]))
            row.append(acc)
        rows.append(tuple(row))
    return Mat(field, n, tuple(rows))


def simultaneously_conjugate(tuple_a, tuple_b) -> Optional[Mat]:
    """Witness C in GL_n with C A_i = B_i C for all i, or None.

    Complete for any n when q^dim fits the enumeration cap, and for n = 2
    always (det is a quadratic form on the intertwiner space).
    """
    field = tuple_a.domain
    if not field.is_field:
        raise DomainError("simultaneously_conjugate requires a field")
    if tuple_a.mats == tuple_b.mats:
        return identity(field, tuple_a.n)
    space = intertwiners(tuple_a, tuple_b)
    w = _witness_from_span(space, field)
    if w is not None:
        if not (_check_intertwines(w, tuple_a, tuple_b) and field.is_unit(det(w))):
            raise RuntimeError("conjugacy witness failed revalidation; bug")
    return w


def _modp_verdict(tuple_a, tuple_b, p: int) -> PrimeVerdict:
    from .generation import mat_tuple

    f = build_ext_field(p, 1)
    a_p = mat_tuple([reduce_mod(a, p) for a in tuple_a.mats])
    b_p = mat_tuple([reduce_mod(b, p) for b in tuple_b.mats])
    space = intertwiners(a_p, b_p)
    if a_p.mats == b_p.mats:
        return PrimeVerdict(p, space.dim, True, identity(f, tuple_a.n))
    w = _witness_from_span(space, f)
    return PrimeVerdict(p, space.dim, w is not None, w)


def _primes():
    n = 2
    while True:
        if is_prime(n):
            yield n
        n += 1


def nonconjugate_all_primes(tuple_a, tuple_b) -> NonConjCertificate:
    """Certify that two integer 2x2 tuples are conjugate modulo no prime.

    overall is True exactly when no prime p admits an invertible mod-p
    intertwiner.  Soundness: away from primes dividing the elementary
    divisors of the stacked system, the mod-p kernel is the reduction of the
    saturated rational kernel, where det vanishes identically whenever all
    polarization values vanish.
    """
    if tuple_a.domain != ZZ or tuple_b.domain != ZZ:
        raise DomainError("all-primes certification works over Z")
    if tuple_a.n != 2:
        raise DomainError("all-primes certification is complete for n = 2 only")
    space = intertwiners(tuple_a, tuple_b)
    dets = tuple(det(b) for b in space.basis)
    cross = tuple(
        (i, j, det(madd(space.basis[i], space.basis[j])) - dets[i] - dets[j])
        for i in range(space.dim)
        for j in range(i + 1, space.dim)
    )
    vanishes = all(d == 0 for d in dets) and all(v == 0 for _, _, v in cross)

    rows = _stacked_rows(tuple_a, tuple_b, ZZ)
    divisor_primes = set()
    for d in snf(rows):
        d = abs(d)
        if d > 1:
            for p in _prime_factors(d):
                divisor_primes.add(p)
    exceptional = sorted(divisor_primes | {2})

    verdicts = {p: _modp_verdict(tuple_a, tuple_b, p) for p in exceptional}
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
        point = _nonvanishing_point(space, dets, cross)
        bound = abs(det(point))
        for p in _primes():
            v = verdicts.get(p) or _modp_verdict(tuple_a, tuple_b, p)
            verdicts.setdefault(p, v)
            if v.invertible_found:
                witness = (p, v.witness)
                break
            if p > bound:
                raise RuntimeError("witness prime sweep failed; bug")

    ordered = tuple(verdicts[p] for p in sorted(verdicts))
    return NonConjCertificate(
        rational_kernel_dim=space.dim,
        det_vanishes_on_kernel=vanishes,
        polarization_dets=dets,
        polarization_cross=cross,
        exceptional_primes=ordered,
        witness=witness,
        overall=overall,
    )


def _nonvanishing_point(space, dets, cross) -> Mat:
    for b, d in zip(space.basis, dets):
        if d != 0:
            return b
    for i, j, v in cross:
        if v != 0:
            return madd(space.basis[i], space.basis[j])
    raise RuntimeError("no nonvanishing point although the form is nonzero; bug")


def _prime_factors(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# independent oracle: exhaustive sweep of GL_2(F_p)

_GL2_CACHE = {}


def _gl2_arrays(p: int):
    arrs = _GL2_CACHE.get(p)
    if arrs is None:
        ids = np.arange(p**4, dtype=np.int64)
        c1 = ids // p**3 % p
        c2 = ids // p**2 % p
        c3 = ids // p % p
        c4 = ids % p
        invertible = (c1 * c4 - c2 * c3) % p != 0
        arrs = tuple(c[invertible] for c in (c1, c2, c3, c4))
        _GL2_CACHE[p] = arrs
    return arrs


def conjugate_mod_p_bruteforce(tuple_a, tuple_b, p: int) -> Optional[Mat]:
    """Exhaustive search of GL_2(F_p) for a simultaneous conjugator.

    Enumerates every invertible matrix (vectorized, in lexicographic order)
    and keeps those intertwining all components; independent of the linear
    algebra used elsewhere.
    """
    if tuple_a.n != 2 or tuple_b.n != 2:
        raise DomainError("brute force sweep handles 2x2 tuples")
    order = (p * p - 1) * (p * p - p)
    if order > BRUTEFORCE_GROUP_CAP:
        raise DomainError(f"|GL_2(F_{p})| = {order} exceeds the sweep cap")
    c1, c2, c3, c4 = _gl2_arrays(p)
    alive = np.arange(c1.shape[0])
    for a, b in zip(tuple_a.mats, tuple_b.mats):
        (a1, a2), (a3, a4) = [[x % p for x in row] for row in a.rows]
        (b1, b2), (b3, b4) = [[x % p for x in row] for row in b.rows]
        x1, x2, x3, x4 = c1[alive], c2[alive], c3[alive], c4[alive]
        ok = (x1 * a1 + x2 * a3 - b1 * x1 - b2 * x3) % p == 0
        ok &= (x1 * a2 + x2 * a4 - b1 * x2 - b2 * x4) % p == 0
        ok &= (x3 * a1 + x4 * a3 - b3 * x1 - b4 * x3) % p == 0
        ok &= (x3 * a2 + x4 * a4 - b3 * x2 - b4 * x4) % p == 0
        alive = alive[ok]
        if alive.size == 0:
            return None
    idx = int(alive[0])
    f = build_ext_field(p, 1)
    return mat(f, [[int(c1[idx]), int(c2[idx])], [int(c3[idx]), int(c4[idx])]])
