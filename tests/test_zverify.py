import itertools
from fractions import Fraction

import pytest

from matgen.construct import standard_xy, table16
from matgen.domains import QQ, ZZ, DomainError
from matgen.generation import det_commutator_generates, lattice_generates_MnZ
from matgen.linalg import mat, unit_mat
from matgen.zverify import (
    local_global_generator_count,
    scaled_set_counterexample,
    verify_z_prime_sweep,
    verify_z_tuples,
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
    X, Y = standard_xy(3, ZZ)
    with pytest.raises(DomainError):
        verify_z_tuples([(X,), (Y,)])
    sweep = verify_z_prime_sweep([(X,), (Y,)])
    assert sweep["complete"] is False
    assert sweep["refuted_at"] == []
    assert all(r["ok"] for r in sweep["primes"])


def test_sweep_refutes_scaled_sets():
    X, Y = standard_xy(2, ZZ)
    from matgen.linalg import smul

    sweep = verify_z_prime_sweep([(smul(3, X),), (smul(3, Y),)],
                                 primes=(2, 3, 5))
    assert sweep["refuted_at"] == [3]


def test_sweep_refuses_malformed_input():
    X, Y = standard_xy(2, ZZ)
    half = mat(QQ, [[Fraction(1, 2), 0], [0, 1]])
    for generators in ([], [(X,), (half,)], [(X,), (Y, X)]):
        with pytest.raises(DomainError):
            verify_z_prime_sweep(generators)


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
    for k in (5, 16, 17, 100, 448, 449, 5000):
        rep = local_global_generator_count(k)
        values = [r for _, r in rep.r_table]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert rep.max_at_2


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
