import importlib.resources
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from matgen import zverify
from matgen.conjugacy import _stacked_rows, nonconjugate_all_primes
from matgen.census import min_generators_M2Z
from matgen.construct import TABLE16_PAIRS, standard_xy, table16
from matgen.domains import QQ, ZZ, DomainError
from matgen.generation import (
    DirectSumShape,
    det_commutator_generates,
    lattice_generates_MnZ,
    mat_tuple,
)
from matgen.linalg import (
    IntLattice,
    identity,
    madd,
    mat,
    mmul,
    smul,
    snf,
    unit_mat,
)
from matgen.tuplefile import loads
from matgen.zverify import (
    _UNIT_DIVISORS_CERT,
    _schur_invariants,
    _unit_divisors,
    closure_mod_p,
    local_global_generator_count,
    verify_z_tuples,
    z_generates,
)


def test_table16_certifies():
    verdict = verify_z_tuples(table16().generators)
    assert verdict.overall
    assert len(verdict.componentwise) == 16
    assert all(cs.det_commutator in (1, -1) for cs in verdict.componentwise)
    assert all(cs.det_ok and cs.lattice_ok for cs in verdict.componentwise)
    assert len(verdict.pairwise) == 120
    assert all(cert.overall for _, _, cert in verdict.pairwise)
    assert all(ok for _, _, _, ok in verdict.direct_modp)


def test_duplicated_cross_section_fails():
    fam = table16()
    a, b = fam.generators
    a = a[:3] + (a[2],) + a[4:]
    b = b[:3] + (b[2],) + b[4:]
    verdict = verify_z_tuples((a, b))
    assert not verdict.overall
    bad = [cert for i, j, cert in verdict.pairwise if (i, j) == (2, 3)][0]
    assert not bad.overall
    assert bad.witness[0] == 2  # identity conjugates the duplicate at p = 2


def test_transposed_unit_cross_sections_fail():
    # one generator of M_2(Z)^2 whose cross-sections are E_12 and E_21:
    # each fails to generate alone, and they are conjugate mod every prime
    gen = (unit_mat(ZZ, 2, 0, 1), unit_mat(ZZ, 2, 1, 0))
    verdict = verify_z_tuples([gen])
    assert not verdict.overall
    assert not any(cs.lattice_ok for cs in verdict.componentwise)
    assert not verdict.pairwise[0][2].overall


def test_non_2x2_requires_the_sweep():
    # the 3x3 standard pair is certified exactly, with no prime sweep
    X, Y = standard_xy(3, ZZ)
    verdict = verify_z_tuples([(X,), (Y,)])
    assert verdict.overall and z_generates([(X,), (Y,)])
    assert verdict.componentwise[0].lattice_ok
    assert verdict.componentwise[0].det_commutator is None
    assert verdict.pairwise == ()
    assert all(ok for _, _, _, ok in verdict.direct_modp)


def test_sweep_refutes_scaled_sets():
    # {3X, 3Y} fails lattice closure, and its redundant mod-p closures fail
    # at 3 only
    X, Y = standard_xy(2, ZZ)
    from matgen.linalg import smul

    generators = [(smul(3, X),), (smul(3, Y),)]
    verdict = verify_z_tuples(generators)
    assert not verdict.overall and not z_generates(generators)
    assert not verdict.componentwise[0].lattice_ok
    assert [p for p, _, _, ok in verdict.direct_modp if not ok] == [3]


def test_sweep_refuses_malformed_input():
    X, Y = standard_xy(2, ZZ)
    X3, _ = standard_xy(3, ZZ)
    half = mat(QQ, [[Fraction(1, 2), 0], [0, 1]])
    one = mat(ZZ, [[1]])
    for generators in ([], [(X,), (half,)], [(X,), (Y, X)], [(X,), (X3,)],
                       [(one, one)]):
        for decide in (verify_z_tuples, z_generates):
            with pytest.raises(DomainError):
                decide(generators)


def test_det_and_lattice_agree_exhaustively():
    # every pair of 2x2 integer matrices with entries in {-1, 0, 1}
    vals = (-1, 0, 1)
    mats = [mat(ZZ, [row[:2], row[2:]])
            for row in itertools.product(vals, repeat=4)]
    for a in mats:
        for b in mats:
            assert det_commutator_generates(a, b) == \
                lattice_generates_MnZ([a, b], 2)[0]


def test_det_and_lattice_agree_on_table_pairs():
    fam = table16()
    for a, b in zip(*fam.generators):
        assert det_commutator_generates(a, b)
        assert lattice_generates_MnZ([a, b], 2)[0]


@dataclass(frozen=True)
class ScaledSetRecord:
    p0: int
    scaled_dims: tuple    # (p, closure_dim, ok)
    unscaled_dims: tuple
    claims_hold: bool


def scaled_set_counterexample(p0: int) -> ScaledSetRecord:
    """No prime may be omitted: p0 * {X, Y} fails mod p0 and only there."""
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


def test_scaled_set_counterexamples():
    for p0 in (2, 3):
        record = scaled_set_counterexample(p0)
        assert record.claims_hold
        failed = [p for p, _, ok in record.scaled_dims if not ok]
        assert failed == [p0]
        assert all(ok for _, _, ok in record.unscaled_dims)


def test_local_global_generator_count_examples():
    rep = local_global_generator_count(17)
    assert rep.r == 3 and rep.r0 == 2 and rep.max_at_2
    assert dict(rep.r_table)[2] == 3

    rep = local_global_generator_count(16)
    assert rep.r == 2
    assert all(r == 2 for _, r in rep.r_table)
    assert "table" in rep.resolution.lower() or "16" in rep.resolution

    rep = local_global_generator_count(1)
    assert rep.r == 2
    assert all(r == 2 for _, r in rep.r_table)


def test_local_global_prime_table_monotone():
    # every k up to 2000 crosses the steps at 16/17 and 448/449
    for k in (*range(1, 2001), 5000):
        rep = local_global_generator_count(k)
        values = [r for _, r in rep.r_table]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert rep.max_at_2
        assert rep.r == min_generators_M2Z(k)


def test_verdict_json_round_trips():
    import json

    verdict = verify_z_tuples([
        (unit_mat(ZZ, 2, 0, 0), unit_mat(ZZ, 2, 0, 0)),
        (mat(ZZ, [[0, 1], [1, 0]]), mat(ZZ, [[1, 1], [1, 1]])),
    ])
    data = verdict.to_json()
    assert verdict.overall
    parsed = json.loads(json.dumps(data))
    assert parsed["overall"] is True
    assert parsed["schema_version"] == 1


# --- one exact decision: z_generates against the certificate ----------------

# Z of the 3x3 analogue of the mod-7 pair: (X, X), (Y, Y + 7 Z)
Z3 = ((0, 1, -1), (-1, 1, -1), (1, 0, 1))


def test_3x3_pair_conjugate_only_mod_7_is_rejected():
    X, Y = standard_xy(3, ZZ)
    Y7 = madd(Y, smul(7, mat(ZZ, Z3)))
    assert lattice_generates_MnZ([X, Y7], 3)[0]
    generators = [(X, X), (Y, Y7)]
    assert not z_generates(generators)
    verdict = verify_z_tuples(generators)
    assert not verdict.overall
    assert all(cs.lattice_ok for cs in verdict.componentwise)
    [(i, j, cert)] = verdict.pairwise
    assert (i, j) == (0, 1) and cert.witness[0] == 7
    assert cert.rational_kernel_dim == 0 and cert.det_vanishes_on_kernel
    assert cert.polarization_cross == ()
    assert [(pv.p, pv.kernel_dim) for pv in cert.exceptional_primes] == \
        [(2, 0), (7, 1)]


def _int_mat(rng, n, span=2):
    return mat(ZZ, [[rng.randint(-span, span) for _ in range(n)]
                    for _ in range(n)])


def _unimodular(rng, n):
    """U and U^-1, a product of three elementary matrices."""
    u = u_inv = identity(ZZ, n)
    for _ in range(3):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u = mmul(madd(identity(ZZ, n), smul(c, unit_mat(ZZ, n, i, j))), u)
        u_inv = mmul(u_inv, madd(identity(ZZ, n), smul(-c, unit_mat(ZZ, n, i, j))))
    return u, u_inv


def _generates_MnZ(copy, n):
    return det_commutator_generates(*copy) if n == 2 else \
        lattice_generates_MnZ(copy, n)[0]


def _generating_copy(rng, n):
    while True:
        copy = (_int_mat(rng, n), _int_mat(rng, n))
        if _generates_MnZ(copy, n):
            return copy


def _seeded_pair(rng, n):
    """Two generators of two lattice-generating copies; the second copy is
    a unimodular conjugate of the first plus p times a small matrix, so
    some pairs are conjugate modulo a prime and most are not."""
    a = _generating_copy(rng, n)
    u, u_inv = _unimodular(rng, n)
    p = rng.choice((2, 3, 5, 7, 11))
    b = tuple(madd(mmul(mmul(u, x), u_inv), smul(p, _int_mat(rng, n, 1)))
              for x in a)
    if not _generates_MnZ(b, n):
        b = _generating_copy(rng, n)
    return list(zip(a, b))


@pytest.mark.parametrize("n, count", [(2, 200), (3, 40)])
def test_z_generates_matches_certificate_on_seeded_pairs(n, count):
    rng = random.Random(11)
    verdicts = []
    for _ in range(count):
        generators = _seeded_pair(rng, n)
        verdict = z_generates(generators)
        assert verify_z_tuples(generators).overall == verdict
        verdicts.append(verdict)
    assert 0 < verdicts.count(False) < count // 2


@pytest.mark.parametrize("n, count", [(2, 150), (3, 30)])
def test_lattice_fullness_equals_unit_divisors_on_seeded_systems(n, count):
    # z_generates reads "the rows of C A = B C span Z^{n^2}"; the divisor
    # reading is "all n^2 elementary divisors are 1"
    rng = random.Random(13)
    readings = []
    for i in range(count):
        if i % 2:
            a, b = zip(*_seeded_pair(rng, n))
        else:
            a, b = ([_int_mat(rng, n) for _ in range(i % 3 + 1)]
                    for _ in range(2))
        rows = _stacked_rows(mat_tuple(list(a)), mat_tuple(list(b)), ZZ)
        full = IntLattice(n * n, rows).is_full
        assert full == (snf(rows) == (1,) * (n * n))
        readings.append(full)
    assert 0 < readings.count(True) < count


def test_z_generates_matches_certificate_on_table16_columns():
    rng = random.Random(12)
    for copies in (1, 2, 3, 5, 8):
        for _ in range(3):
            # with replacement: a repeated column is conjugate to itself
            cols = rng.choices(range(len(TABLE16_PAIRS)), k=copies)
            generators = [tuple(mat(ZZ, TABLE16_PAIRS[c][w]) for c in cols)
                          for w in (0, 1)]
            verdict = z_generates(generators)
            assert verify_z_tuples(generators).overall == verdict
            assert verdict == (len(set(cols)) == copies)
    assert z_generates(table16().generators)


def test_mixed_sizes_are_decided():
    X2, Y2 = standard_xy(2, ZZ)
    X3, Y3 = standard_xy(3, ZZ)
    generators = [(X2, X3, X2), (Y2, Y3, madd(X2, Y2))]
    verdict = verify_z_tuples(generators)
    assert verdict.overall and z_generates(generators)
    # copies of different sizes get no certificate
    assert [(i, j) for i, j, _ in verdict.pairwise] == [(0, 2)]
    assert [amb for _, _, amb, _ in verdict.direct_modp] == [17] * 3
    duplicated = [(X2, X3, X2), (Y2, Y3, Y2)]
    assert not verify_z_tuples(duplicated).overall
    assert not z_generates(duplicated)


# --- the characteristic-polynomial prefilter ----------------------------------

def _pair_families():
    """Pairs of lattice-generating copies, as two generators of two copies:
    every pair of table16, of the gen16 fixture, and the seeded n = 2 and
    n = 3 families above, some of them conjugate modulo a single prime."""
    fixture = loads(importlib.resources.files("matgen").joinpath(
        "fixtures", "gen16_pairs.json").read_text(encoding="utf-8"))
    for fam in (table16().generators, fixture.generators):
        copies = list(zip(*fam))
        for a, b in itertools.combinations(copies, 2):
            yield list(zip(a, b))
    for n, count in ((2, 200), (3, 40)):
        rng = random.Random(11)
        for _ in range(count):
            yield _seeded_pair(rng, n)


def test_prefilter_agrees_with_the_certificate_and_the_system():
    taken = skipped = 0
    for generators in _pair_families():
        a, b = (mat_tuple(copy) for copy in zip(*generators))
        assert all(lattice_generates_MnZ(c.mats, c.n)[0] for c in (a, b))
        full = IntLattice(a.n * a.n, _stacked_rows(a, b, ZZ)).is_full
        assert z_generates(generators) == full
        if _unit_divisors(_schur_invariants(a), _schur_invariants(b)):
            taken += 1
            assert full
            assert _UNIT_DIVISORS_CERT.to_json() == \
                nonconjugate_all_primes(a, b).to_json()
            [(_, _, cert)] = verify_z_tuples(generators).pairwise
            assert cert is _UNIT_DIVISORS_CERT
        else:
            skipped += 1
    assert taken > 240 and skipped > 0


def test_prefilter_needs_the_lattice_precondition():
    # neither copy generates M_2(Z): (E_11, 0) and (E_11, E_22) differ in the
    # trace of their second word by 1, yet C = E_11 intertwines them
    e11, e22 = unit_mat(ZZ, 2, 0, 0), unit_mat(ZZ, 2, 1, 1)
    zero = smul(0, e11)
    a, b = mat_tuple([e11, zero]), mat_tuple([e11, e22])
    assert not any(lattice_generates_MnZ(c.mats, 2)[0] for c in (a, b))
    assert _unit_divisors(_schur_invariants(a), _schur_invariants(b))
    cert = nonconjugate_all_primes(a, b)
    assert cert.rational_kernel_dim == 1
    assert not IntLattice(4, _stacked_rows(a, b, ZZ)).is_full
    generators = [(e11, e11), (zero, e22)]
    [(_, _, got)] = verify_z_tuples(generators).pairwise
    assert got.to_json() == cert.to_json() != _UNIT_DIVISORS_CERT.to_json()
    assert not z_generates(generators)


def test_table16_pairs_take_the_prefilter(monkeypatch):
    calls = {"nonconjugate_all_primes": 0, "IntLattice": 0}

    def counting(name):
        original = getattr(zverify, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(zverify, name, counting(name))
    table16.cache_clear()  # so its z_generates runs here
    fam = table16()
    verdict = verify_z_tuples(fam.generators)
    assert len(verdict.pairwise) == 120 and verdict.overall
    assert calls == {"nonconjugate_all_primes": 0, "IntLattice": 0}
