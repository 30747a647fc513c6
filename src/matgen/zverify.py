"""End-to-end verification over the integers.

k integer tuples generate the sum of their copies, each some M_n(Z),
exactly when every copy generates M_n(Z), which lattice closure decides,
and no two copies are conjugate modulo any prime; copies of different
sizes never are.  Two copies that generate M_n(Z) generate M_n(F_p) at
every p, so by Schur's lemma every nonzero mod-p intertwiner between them
is invertible: they are conjugate modulo no prime exactly when the rows of
the system C A = B C (conjugacy._stacked_rows) span Z^{n^2}, that is, when
its n^2 elementary divisors are all 1.  Both halves of the decision are
lattice fullness.

Most pairs are settled without that system.  Conjugate matrices have the
same characteristic polynomial, so if two lattice-generating copies were
conjugate modulo p, p would divide every difference of the characteristic
polynomial coefficients of corresponding words in their generators
(_words).  When the gcd of those differences is 1 they are conjugate
modulo no prime, so by Schur every mod-p intertwiner is 0: all elementary
divisors are 1 (_unit_divisors).  The precondition is needed, as without it
a nonzero singular intertwiner can exist whatever the gcd.  A gcd other
than 1, 0 included, proves nothing and the pair goes to the system as
before, so the shortcut only ever answers "all divisors are 1".
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .census import least_generators_2x2
from .conjugacy import (
    NonConjCertificate,
    PrimeVerdict,
    _stacked_rows,
    nonconjugate_all_primes,
)
from .domains import ZZ, DomainError, InvariantError
from .generation import (
    DirectSumShape,
    closure_generates,
    lattice_generates_MnZ,
    mat_tuple,
)
from .linalg import (
    IntLattice,
    _berkowitz,
    commutator,
    det,
    madd,
    mmul,
    reduce_mod,
)

# verify_z_tuples closes the whole integer family mod these primes as a
# redundant oracle; a certified family that fails one raises InvariantError.
SAMPLE_PRIMES = (2, 3, 5)
# local_global_generator_count's primes.
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)

# What nonconjugate_all_primes returns for a system whose n^2 elementary
# divisors are all 1: a zero kernel, on which det vanishes, no polarization
# terms, and 2, the one exceptional prime, with a zero mod-2 kernel.
_UNIT_DIVISORS_CERT = NonConjCertificate(
    rational_kernel_dim=0, det_vanishes_on_kernel=True, polarization_dets=(),
    polarization_cross=(), exceptional_primes=(PrimeVerdict(2, 0, False, None),),
    witness=None, overall=True)


def closure_mod_p(elems, shape: DirectSumShape, p: int):
    """Span closure over F_p of the integer elements elems (each a tuple of
    Mat, one per copy of shape) reduced mod p."""
    return closure_generates(
        [tuple(reduce_mod(a, p) for a in elem) for elem in elems], shape)


@dataclass(frozen=True)
class CrossSectionVerdict:
    index: int
    lattice_ok: bool
    det_commutator: Optional[int] = None  # only defined for 2x2 pairs
    det_ok: Optional[bool] = None


@dataclass(frozen=True)
class ZGenVerdict:
    componentwise: tuple  # CrossSectionVerdict per copy
    pairwise: tuple       # (i, j, NonConjCertificate)
    direct_modp: tuple    # (p, closure_dim, ambient_dim, ok)
    overall: bool

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "componentwise": [
                {
                    "index": cs.index,
                    "lattice_ok": cs.lattice_ok,
                    "det_commutator": cs.det_commutator,
                    "det_ok": cs.det_ok,
                }
                for cs in self.componentwise
            ],
            "pairwise": [
                {"i": i, "j": j, "certificate": cert.to_json()}
                for i, j, cert in self.pairwise
            ],
            "direct_modp": [
                {"p": p, "closure_dim": dim, "ambient_dim": amb, "ok": ok}
                for p, dim, amb, ok in self.direct_modp
            ],
            "overall": self.overall,
        }


def _copies(generators):
    """The cross-sections of the generators as MatTuple, one per copy, and
    their DirectSumShape; refuses an empty set, a non-integer entry,
    differing copy counts, a copy whose sizes differ and sizes below 2."""
    elems = [tuple(g.mats) if hasattr(g, "mats") else tuple(g) for g in generators]
    if not elems:
        raise DomainError("need at least one generator")
    for elem in elems:
        if len(elem) != len(elems[0]):
            raise DomainError("generators must share the copy count")
        if any(a.domain != ZZ for a in elem):
            raise DomainError("integer matrices required")
    copies = [mat_tuple(cs) for cs in zip(*elems)]
    return copies, DirectSumShape(tuple(
        (n_i, len(list(run))) for n_i, run in itertools.groupby(c.n for c in copies)))


def _words(mats):
    """The words whose characteristic polynomials _unit_divisors compares:
    each generator A and A^2, and for each two A, B (in order) AB, A^2 B,
    A B^2, A + B and ABAB."""
    squares = [mmul(a, a) for a in mats]
    words = [w for pair in zip(mats, squares) for w in pair]
    for (a, a2), (b, b2) in itertools.combinations(zip(mats, squares), 2):
        ab = mmul(a, b)
        words += [ab, mmul(a2, b), mmul(a, b2), madd(a, b), mmul(ab, ab)]
    return words


def _schur_invariants(copy) -> list:
    """The characteristic polynomial coefficients of the _words of a
    lattice-generating copy, past each leading 1, in one list."""
    return [c for w in _words(copy.mats) for c in _berkowitz(w.rows, ZZ)[1:]]


def _paired_invariants(copies, lattice_ok) -> list:
    """_schur_invariants of each lattice-generating copy that shares its
    size with another copy, None for the others."""
    sizes = Counter(c.n for c in copies)
    return [_schur_invariants(c) if ok and sizes[c.n] > 1 else None
            for c, ok in zip(copies, lattice_ok)]


def _unit_divisors(inv_a, inv_b) -> bool:
    """True when two lattice-generating copies with _schur_invariants inv_a
    and inv_b are conjugate modulo no prime, so that the n^2 elementary
    divisors of their system C A = B C are all 1: the gcd of the
    differences is 1.  False proves nothing."""
    return math.gcd(*(x - y for x, y in zip(inv_a, inv_b))) == 1


def z_generates(generators: Sequence) -> bool:
    """Do k integer tuples (sequences of Mat, one per copy, of any sizes)
    generate the sum of their copies?  The exact decision of the module
    docstring: lattice closure per copy, then per pair of equal-size copies
    the rows of C A = B C spanning Z^{n^2}.  Every copy generates M_n(Z)
    by then, so a pair whose invariants differ by gcd 1 (_unit_divisors)
    is full without the system."""
    copies, _ = _copies(generators)
    if not all(lattice_generates_MnZ(c.mats, c.n)[0] for c in copies):
        return False
    invariants = _paired_invariants(copies, [True] * len(copies))
    return all(_unit_divisors(invariants[i], invariants[j])
               or IntLattice(a.n * a.n, _stacked_rows(a, b, ZZ)).is_full
               for (i, a), (j, b) in itertools.combinations(enumerate(copies), 2)
               if a.n == b.n)


def verify_z_tuples(generators: Sequence) -> ZGenVerdict:
    """z_generates with its evidence, for the same inputs.

    Each copy gets a lattice closure, and a 2x2 copy of two generators also
    the det-commutator test, which must agree.  Each pair of equal-size
    copies gets the all-primes certificate, unless a copy of size n >= 3
    fails lattice closure: the verdict is then False anyway, and the large
    intertwiner space of such a pair could make its certificate refuse.
    For two lattice-generating copies it must read as the divisors do:
    every kernel dimension at most 1, and overall exactly when all of them
    are 0.  A certified family must also close modulo every prime of
    SAMPLE_PRIMES.

    Two lattice-generating copies whose invariants differ by gcd 1
    (_unit_divisors) get _UNIT_DIVISORS_CERT without the certificate's
    computation.  Their divisors are all 1, and for such a system the
    certificate is forced: a zero rational kernel, on which det vanishes,
    and 2, the only exceptional prime, with a zero mod-2 kernel.  Every
    other pair gets nonconjugate_all_primes.
    """
    copies, shape = _copies(generators)
    k = copies[0].m

    componentwise = []
    for i, cs in enumerate(copies):
        lattice_ok, _ = lattice_generates_MnZ(cs.mats, cs.n)
        det_val = det_ok = None
        if k == 2 and cs.n == 2:
            det_val = det(commutator(*cs.mats))
            det_ok = det_val in (1, -1)
            if det_ok != lattice_ok:
                raise InvariantError(
                    "det-commutator and lattice closure disagree; bug")
        componentwise.append(CrossSectionVerdict(i, lattice_ok, det_val, det_ok))

    invariants = _paired_invariants(
        copies, [cs.lattice_ok for cs in componentwise])
    pairwise = []
    for (i, a), (j, b) in itertools.combinations(enumerate(copies), 2):
        schur = componentwise[i].lattice_ok and componentwise[j].lattice_ok
        if a.n != b.n or (a.n >= 3 and not schur):
            continue
        if schur and _unit_divisors(invariants[i], invariants[j]):
            pairwise.append((i, j, _UNIT_DIVISORS_CERT))
            continue
        cert = nonconjugate_all_primes(a, b)
        if schur:
            dims = [cert.rational_kernel_dim] + [
                pv.kernel_dim for pv in cert.exceptional_primes]
            if max(dims) > 1 or cert.overall != (not any(dims)):
                raise InvariantError(f"certificate of copies {i}, {j} "
                                     "disagrees with its divisors; bug")
        pairwise.append((i, j, cert))

    direct = []
    for p in SAMPLE_PRIMES:
        rep = closure_mod_p(zip(*(c.mats for c in copies)), shape, p)
        direct.append((p, rep.closure_dim, rep.ambient_dim, rep.verdict))

    overall = (all(cs.lattice_ok for cs in componentwise)
               and all(cert.overall for _, _, cert in pairwise))
    if overall and not all(ok for _, _, _, ok in direct):
        raise InvariantError("certificate passed but a mod-p closure failed; bug")
    return ZGenVerdict(tuple(componentwise), tuple(pairwise), tuple(direct),
                       overall)


@dataclass(frozen=True)
class LocalGlobalReport:
    k: int
    r0: int
    r_table: tuple  # (p, r(p))
    case: str       # which branch of the local-global argument applies
    r: int
    resolution: str
    max_at_2: bool

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "k": self.k,
            "r0": self.r0,
            "r_table": [[p, r] for p, r in self.r_table],
            "case": self.case,
            "r": self.r,
            "resolution": self.resolution,
            "max_at_2": self.max_at_2,
        }


def local_global_generator_count(k: int) -> LocalGlobalReport:
    """Smallest number of generators of M_2(Z)^k via the local data.

    r0 = 2 (two generators over Q exist for any k by the scalar-set
    construction); r(p) is the least m with gen_{m,2}(F_p) >= k.  When some
    r(p) exceeds r0, r = max_p r(p), attained at p = 2; otherwise k <= 16
    and the certified 16-pair table settles r = 2.
    """
    r0 = 2
    table = tuple((p, least_generators_2x2(p, k)) for p in SWEEP_PRIMES)
    rmax = max(r for _, r in table)
    max_at_2 = table[0][1] == rmax
    if rmax > r0:
        return LocalGlobalReport(k, r0, table, "some r(p) > r0: r = max r(p)",
                             rmax, "local data alone", max_at_2)
    return LocalGlobalReport(
        k, r0, table, "all r(p) = r0: r is r0 or r0 + 1",
        r0, "16-pair table certificate settles r = r0 (k <= 16)", max_at_2)
