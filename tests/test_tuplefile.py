import time

import pytest

from matgen.construct import scalar_family_generators, standard_xy_family, table16
from matgen.domains import QQ, ZZ, DomainError, ExtField, PrimeField, build_ext_field
from matgen.generation import closure_generates
from matgen.tuplefile import dumps, family_to_tuplefile, loads


def _round_trip(family):
    parsed = loads(dumps(family))
    assert parsed.shape == family.shape
    assert parsed.domain == family.generators[0][0].domain
    for got, want in zip(parsed.generators, family.generators):
        for a, b in zip(got, want):
            assert a.rows == b.rows
    return parsed


def test_round_trip_integers():
    _round_trip(table16())


def test_round_trip_rationals():
    fam = scalar_family_generators([(2, ("1/2", "-3", "0"))])
    parsed = _round_trip(fam)
    assert closure_generates(parsed.generators, parsed.shape).verdict


def test_round_trip_extension_field():
    f4 = build_ext_field(2, 2)
    fam = standard_xy_family(2, f4)
    parsed = _round_trip(fam)
    assert parsed.domain == f4


def test_round_trip_preserves_verdict():
    fam = standard_xy_family(3, ZZ)
    parsed = loads(dumps(fam))
    from matgen.zverify import verify_z_tuples

    assert verify_z_tuples(parsed.generators).overall


def test_serialized_document_fields():
    doc = family_to_tuplefile(standard_xy_family(2, QQ))
    assert doc["coeff"] == {"kind": "rationals"}
    assert doc["shape"] == [[2, 1]]
    assert doc["n"] == 2
    assert doc["generators"][0][0] == [["0", "1"], ["1", "0"]]


def test_malformed_documents_rejected():
    with pytest.raises(DomainError):
        loads("{not json")
    with pytest.raises(DomainError):
        loads('{"coeff": {"kind": "prime_field", "p": 2}, "n": 2, '
              '"shape": [[2, 1]], "generators": [[[["1"]]]]}')
    with pytest.raises(DomainError):
        loads('{"coeff": {"kind": "bogus"}, "n": 2, "shape": [[2, 1]], '
              '"generators": []}')
    with pytest.raises(DomainError):
        loads('{"coeff": {"kind": "prime_field", "p": 2}, "n": 2, '
              '"shape": [[2, 1]], "generators": []}')
    # numbers where integers or element strings belong, a zero denominator
    # and exponent notation over Q
    f5 = ('{"coeff": %s, "n": 2, "shape": [[%s, 1]], '
          '"generators": [[[[%s, "0"], ["0", "1"]]]]}')
    for coeff, n, entry in [
        ('{"kind": "prime_field", "p": 7.5}', "2", '"1"'),
        ('{"kind": "prime_field", "p": 7.0}', "2", '"1"'),
        ('{"kind": "prime_field", "p": true}', "2", '"1"'),
        ('{"kind": "prime_field", "p": 5}', "2", "1.5"),
        ('{"kind": "prime_field", "p": 5}', "2", "1"),
        ('{"kind": "prime_field", "p": 5}', "2.5", '"1"'),
        ('{"kind": "prime_field", "p": 5}', "true", '"1"'),
        ('{"kind": "ext_field", "p": 2, "deg": 2.0, "modulus": [1, 1, 1]}',
         "2", '"1,0"'),
        ('{"kind": "ext_field", "p": 2, "deg": 2, "modulus": [1, 1.0, 1]}',
         "2", '"1,0"'),
        ('{"kind": "ext_field", "p": 2, "deg": 2, "modulus": "111"}',
         "2", '"1,0"'),
        ('{"kind": "rationals"}', "2", '"1/0"'),
        ('[]', "2", '"1"'),
        # field entries other than canonical residues in [0, p)
        ('{"kind": "prime_field", "p": 5}', "2", '"12"'),
        ('{"kind": "prime_field", "p": 5}', "2", '"-1"'),
        ('{"kind": "prime_field", "p": 5}', "2", '"+3"'),
        ('{"kind": "prime_field", "p": 5}', "2", '" 4"'),
        ('{"kind": "prime_field", "p": 5}', "2", '"1_0"'),
        ('{"kind": "ext_field", "p": 2, "deg": 2, "modulus": [1, 1, 1]}',
         "2", '"7,9"'),
    ]:
        with pytest.raises(DomainError):
            loads(f5 % (coeff, n, entry))
    start = time.perf_counter()
    with pytest.raises(DomainError):
        loads(f5 % ('{"kind": "rationals"}', "2", '"1e100000000"'))
    assert time.perf_counter() - start < 0.1
    # "n", when present, is a JSON integer equal to the first block size
    two = ('{"coeff": {"kind": "prime_field", "p": 5}, %s"shape": [[2, 1]], '
           '"generators": [[[["1", "0"], ["0", "1"]]]]}')
    assert loads(two % '"n": 2, ').shape.blocks == ((2, 1),)
    assert loads(two % "").shape.blocks == ((2, 1),)
    for n in ("7", "2.0", '"2"', "true", "null"):
        with pytest.raises(DomainError):
            loads(two % f'"n": {n}, ')
    with pytest.raises(DomainError):
        loads('{"coeff": {"kind": "prime_field", "p": 5}, "n": 2, '
              '"shape": [], "generators": [[]]}')
    # rows written as strings of digits are not matrices
    with pytest.raises(DomainError):
        loads('{"coeff": {"kind": "prime_field", "p": 5}, "n": 2, '
              '"shape": [[2, 1]], "generators": [[["10", "01"]]]}')


def test_fields_are_built_once_per_modulus():
    f16 = build_ext_field(2, 4)
    doc = dumps(standard_xy_family(2, f16))
    assert loads(doc).domain is loads(doc).domain is f16
    assert loads(dumps(standard_xy_family(2, PrimeField(7)))).domain \
        is build_ext_field(7, 1)
    # x^4 + x^3 + 1 is irreducible over F_2 but not the least modulus
    other = ExtField(2, 4, (1, 0, 0, 1, 1))
    assert other.modulus != f16.modulus
    fam = standard_xy_family(2, other)
    parsed = _round_trip(fam)
    assert parsed.domain == other and parsed.domain.modulus == (1, 0, 0, 1, 1)
    assert loads(dumps(fam)).domain is parsed.domain


def test_huge_shape_refused_before_allocating():
    doc = ('{"coeff": {"kind": "prime_field", "p": 2}, "n": 2, '
           '"shape": [[2, 1000000000]], '
           '"generators": [[[["1", "0"], ["0", "1"]]]]}')
    start = time.perf_counter()
    with pytest.raises(DomainError):
        loads(doc)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError):
        loads(doc.replace('[[[["1", "0"], ["0", "1"]]]]', "[]"))
