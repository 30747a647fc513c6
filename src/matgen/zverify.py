"""End-to-end verification over the integers.

A set of k integer tuples generates M_2(Z)^m exactly when every vertical
cross-section generates M_2(Z) and no two cross-sections are conjugate
modulo any prime; the former is decided twice (det-commutator and lattice
closure, which must agree), the latter by the all-primes certificate.
Reduction of the whole sum modulo a small prime sample runs as a redundant
oracle on top.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .census import gen_value_2x2
from .conjugacy import nonconjugate_all_primes
from .domains import ZZ, DomainError, InvariantError
from .generation import (
    DirectSumShape,
    closure_generates,
    lattice_generates_MnZ,
    mat_tuple,
)
from .linalg import commutator, det, reduce_mod, smul

# The primes at which construct.verify_family and verify_z_tuples also close
# the whole integer family mod p, as a redundant check.
SAMPLE_PRIMES = (2, 3, 5)
# verify_z_prime_sweep's default and local_global_generator_count's primes.
SWEEP_PRIMES = (2, 3, 5, 7, 11, 13)


def closure_mod_p(elems, shape: DirectSumShape, p: int):
    """Span closure over F_p of the integer elements elems (each a tuple of
    Mat, one per copy of shape) reduced mod p."""
    return closure_generates(
        [tuple(reduce_mod(a, p) for a in elem) for elem in elems], shape)


@dataclass(frozen=True)
class CrossSectionVerdict:
    index: int
    lattice_ok: bool
    det_commutator: Optional[int] = None  # only defined for pairs
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


def _integer_elements(generators) -> list:
    """The generators as tuples of integer Mat, one per copy; refuses an
    empty set, a non-integer entry or differing copy counts."""
    elems = [tuple(g.mats) if hasattr(g, "mats") else tuple(g) for g in generators]
    if not elems:
        raise DomainError("need at least one generator")
    for elem in elems:
        if len(elem) != len(elems[0]):
            raise DomainError("generators must share the copy count")
        if any(a.domain != ZZ for a in elem):
            raise DomainError("integer matrices required")
    return elems


def verify_z_tuples(generators: Sequence) -> ZGenVerdict:
    """Certify k integer tuples as generators of M_2(Z)^m.

    generators: k sequences of m integer 2x2 Mat (or MatTuple).  Complete
    for n = 2; use verify_z_prime_sweep for other sizes (incomplete).
    """
    elems = _integer_elements(generators)
    if any(a.n != 2 for elem in elems for a in elem):
        raise DomainError("complete certification needs n = 2; "
                          "use verify_z_prime_sweep for other sizes")
    m = len(elems[0])
    k = len(elems)

    componentwise = []
    all_components_ok = True
    for i in range(m):
        cs = [elem[i] for elem in elems]
        lattice_ok, _ = lattice_generates_MnZ(cs, 2)
        det_val = det_ok = None
        if k == 2:
            det_val = det(commutator(cs[0], cs[1]))
            det_ok = det_val in (1, -1)
            if det_ok != lattice_ok:
                raise InvariantError(
                    "det-commutator and lattice closure disagree; bug")
        componentwise.append(CrossSectionVerdict(i, lattice_ok, det_val, det_ok))
        all_components_ok &= lattice_ok

    pairwise = []
    all_pairs_ok = True
    for i in range(m):
        for j in range(i + 1, m):
            cert = nonconjugate_all_primes(
                mat_tuple([elem[i] for elem in elems]),
                mat_tuple([elem[j] for elem in elems]))
            pairwise.append((i, j, cert))
            all_pairs_ok &= cert.overall

    shape = DirectSumShape(((2, m),))
    direct = []
    for p in SAMPLE_PRIMES:
        rep = closure_mod_p(elems, shape, p)
        direct.append((p, rep.closure_dim, rep.ambient_dim, rep.verdict))

    overall = all_components_ok and all_pairs_ok
    if overall and not all(ok for _, _, _, ok in direct):
        raise InvariantError("certificate passed but a mod-p closure failed; bug")
    return ZGenVerdict(
        componentwise=tuple(componentwise),
        pairwise=tuple(pairwise),
        direct_modp=tuple(direct),
        overall=overall,
    )


def verify_z_prime_sweep(generators: Sequence, primes=SWEEP_PRIMES) -> dict:
    """Mod-p generation of a direct sum over Z for the sampled primes only.

    A failing prime is a definitive negative; passing every sampled prime
    certifies nothing, which the report states explicitly.
    """
    elems = _integer_elements(generators)
    shape = DirectSumShape(tuple((n_i, len(list(run))) for n_i, run in
                                 itertools.groupby(a.n for a in elems[0])))
    per_prime = []
    for p in primes:
        rep = closure_mod_p(elems, shape, p)
        per_prime.append({"p": p, "ok": rep.verdict,
                          "closure_dim": rep.closure_dim,
                          "ambient_dim": rep.ambient_dim})
    failed = [r["p"] for r in per_prime if not r["ok"]]
    return {
        "schema_version": 1,
        "complete": False,
        "note": "prime sweep only; cannot certify generation over Z",
        "primes": per_prime,
        "refuted_at": failed,
    }


@dataclass(frozen=True)
class ScaledSetRecord:
    p0: int
    scaled_dims: tuple    # (p, closure_dim, ok)
    unscaled_dims: tuple
    claims_hold: bool


def scaled_set_counterexample(p0: int) -> ScaledSetRecord:
    """No prime may be omitted: p0 * {X, Y} fails mod p0 and only there."""
    from .construct import standard_xy

    X, Y = standard_xy(2, ZZ)
    scaled = [smul(p0, X), smul(p0, Y)]
    plain = [X, Y]
    shape = DirectSumShape(((2, 1),))
    test_primes = sorted({2, 3, 5, 7, p0})

    def dims(mats):
        out = []
        for p in test_primes:
            rep = closure_mod_p([(a,) for a in mats], shape, p)
            out.append((p, rep.closure_dim, rep.verdict))
        return tuple(out)

    scaled_dims = dims(scaled)
    unscaled_dims = dims(plain)
    ok = all((p != p0) == good for p, _, good in scaled_dims)
    ok &= all(good for _, _, good in unscaled_dims)
    return ScaledSetRecord(p0, scaled_dims, unscaled_dims, ok)


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
    if k < 1:
        raise DomainError("k must be >= 1")
    r0 = 2

    def r_of(p):
        m = 2
        while gen_value_2x2(p, m) < k:
            m += 1
        return m

    table = tuple((p, r_of(p)) for p in SWEEP_PRIMES)
    rmax = max(r for _, r in table)
    max_at_2 = table[0][1] == rmax
    if rmax > r0:
        return LocalGlobalReport(k, r0, table, "some r(p) > r0: r = max r(p)",
                             rmax, "local data alone", max_at_2)
    return LocalGlobalReport(
        k, r0, table, "all r(p) = r0: r is r0 or r0 + 1",
        r0, "16-pair table certificate settles r = r0 (k <= 16)", max_at_2)
