import itertools
import random
import time
from fractions import Fraction

import pytest

from matgen.domains import (
    QQ,
    ZZ,
    TABLE_MAX,
    DomainError,
    ExtField,
    PrimeField,
    build_ext_field,
    domain_from_json,
    field_of_order,
    is_prime,
    is_prime_power,
    quadratic_extension,
)
from matgen.domains import (
    _is_irreducible,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
)


def test_degree_one_extension_is_the_prime_field():
    assert build_ext_field(2, 1) == PrimeField(2)
    assert build_ext_field(13, 1) == PrimeField(13)
    same = [PrimeField(5), build_ext_field(5, 1), field_of_order(5),
            domain_from_json({"kind": "prime_field", "p": 5})]
    assert all(f == same[0] and hash(f) == hash(same[0]) for f in same)
    # x^2 + 1 and x^2 + x + 2 are both irreducible over F_3
    assert ExtField(3, 2, (1, 0, 1)) != ExtField(3, 2, (2, 1, 1))
    assert ExtField(3, 2, (1, 0, 1)) == ExtField(3, 2, (1, 0, 1))
    for a, b in itertools.combinations([ZZ, QQ, PrimeField(5)], 2):
        assert a != b


@pytest.mark.parametrize("q", [2, 7, 4, 9, 49, 81, 125, 0])
def test_row_ops_match_the_field_methods(q):
    # tabled (F_4, F_9, F_49) and untabled (F_81, F_125) extension fields,
    # prime fields and Q (q = 0)
    f = field_of_order(q) if q else QQ
    sub_mul, scale, inv = f.row_ops()
    rng = random.Random(q)
    draw = ((lambda: rng.randrange(q)) if q
            else (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
    for _ in range(50):
        v, row = [draw() for _ in range(6)], [draw() for _ in range(6)]
        c = draw()
        assert sub_mul(v, c, row) == [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        assert scale(c, row) == [f.mul(c, b) for b in row]
        if c:
            assert inv(c) == f.inv(c)


def test_is_prime_power():
    powers = [q for q in range(-2, 130) if is_prime_power(q)]
    assert powers == [q for q in range(2, 130)
                      if len({p for p in range(2, q + 1)
                              if q % p == 0 and all(p % d for d in range(2, p))}) == 1]
    assert is_prime_power(3**40) and is_prime_power(2**89)
    assert not is_prime_power(6**10) and not is_prime_power(3**40 * 5)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(flags[i * i::i]))
    return flags


def test_is_prime_matches_a_sieve():
    flags = _sieve(100_000)
    assert [n for n in range(-3, 100_000) if is_prime(n)] == \
        [n for n in range(100_000) if flags[n]]


def test_is_prime_large_and_adversarial():
    # Mersenne primes on both sides of the exact Miller-Rabin bound
    for k in (61, 89, 107, 127):
        assert is_prime(2**k - 1)
    assert not is_prime(2**67 - 1) and not is_prime(2**83 - 1)
    # strong pseudoprimes to the bases 2..37 and 2..41, a Carmichael
    # number, a square of a prime and a product of two large primes
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461, 3317044064679887385961981,
              41041, (2**61 - 1) ** 2, (2**61 - 1) * (2**31 - 1)):
        assert not is_prime(n)


def test_bpsw_branch_matches_a_sieve():
    flags = _sieve(30_000)
    for n in range(45, 30_000, 2):
        if n % 3 and n % 5:
            assert (_strong_probable_prime(n, 2)
                    and _strong_lucas_probable_prime(n)) == bool(flags[n])
    # strong Lucas pseudoprimes (OEIS A217255) pass that half alone
    assert all(_strong_lucas_probable_prime(n)
               for n in (5459, 5777, 10877, 16109, 18971))


def test_least_irreducible_moduli():
    # only monic irreducible quadratic over F_2
    assert build_ext_field(2, 2).modulus == (1, 1, 1)
    # x^2 + 1 has no roots over F_3 and precedes everything else
    f9 = build_ext_field(3, 2)
    assert f9.modulus == (1, 0, 1)
    for x in range(3):
        assert (x * x + 1) % 3 != 0


def test_nonprime_p_rejected():
    with pytest.raises(DomainError):
        build_ext_field(4, 2)
    with pytest.raises(DomainError):
        PrimeField(1)


def test_reducible_modulus_rejected():
    with pytest.raises(DomainError):
        ExtField(2, 2, (0, 0, 1))  # x^2
    with pytest.raises(DomainError):
        ExtField(2, 4, (1, 0, 0, 0, 1))  # x^4+1 = (x+1)^4 over F_2


def _irreducible_by_scan(coeffs, p):
    """Reference for degree <= 4: no root in F_p and, at degree 4, no monic
    irreducible quadratic factor."""
    def value(c, x):
        acc = 0
        for coef in reversed(c):
            acc = (acc * x + coef) % p
        return acc

    def divides(den, num):  # den monic
        num = list(num)
        for shift in range(len(num) - len(den), -1, -1):
            lead = num[shift + len(den) - 1]
            for i, d in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * d) % p
        return not any(num)

    if any(value(coeffs, x) == 0 for x in range(p)):
        return False
    if len(coeffs) == 5:
        quads = ([c, b, 1] for b in range(p) for c in range(p))
        return not any(divides(quad, coeffs) for quad in quads
                       if all(value(quad, x) for x in range(p)))
    return True


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_irreducibility_matches_root_and_quadratic_scan(p):
    # Gauss's count of monic irreducibles of degree 2, 3 and 4
    counts = {2: (p**2 - p) // 2, 3: (p**3 - p) // 3, 4: (p**4 - p**2) // 4}
    for deg in (2, 3, 4):
        found = 0
        for low in itertools.product(range(p), repeat=deg):
            coeffs = list(low) + [1]
            verdict = _is_irreducible(coeffs, p)
            assert verdict == _irreducible_by_scan(coeffs, p), coeffs
            found += verdict
        assert found == counts[deg]


def test_extension_of_a_large_prime_is_quick():
    start = time.perf_counter()
    f = build_ext_field(10**9 + 7, 2)
    assert f.modulus == (1, 0, 1)  # x^2 + 1, as 10^9 + 7 = 3 mod 4
    a = f.parse_elem("3,5")
    assert f.mul(a, f.inv(a)) == f.one()
    # a tuple file names its modulus; x^2 - 1 = (x - 1)(x + 1)
    with pytest.raises(DomainError):
        ExtField(10**9 + 7, 2, (10**9 + 6, 0, 1))
    assert time.perf_counter() - start < 1.0


def _digits(f, a):
    return [a // f.p**j % f.p for j in range(f.k)]


def _reference_mul(f, a, b):
    """Schoolbook product of the coefficient vectors, reduced by the monic
    modulus from the top degree down."""
    p, k = f.p, f.k
    prod = [0] * (2 * k - 1)
    for i, u in enumerate(_digits(f, a)):
        for j, v in enumerate(_digits(f, b)):
            prod[i + j] += u * v
    for top in range(2 * k - 2, k - 1, -1):
        lead = prod[top]
        for j, m in enumerate(f.modulus):
            prod[top - k + j] -= lead * m
    return sum(c % p * p**j for j, c in enumerate(prod[:k]))


@pytest.mark.parametrize("q", [49, 81, 289])
def test_table_and_polynomial_arithmetic_match_a_reference(q):
    f = field_of_order(q)
    # F_49 is table-driven; F_81 and F_289 run the polynomial code
    assert (f._mul is not None) == (q <= TABLE_MAX)
    p = f.p
    rng = random.Random(q)
    for _ in range(300):
        a, b = rng.randrange(q), rng.randrange(q)
        assert f.mul(a, b) == _reference_mul(f, a, b)
        pairs = list(zip(_digits(f, a), _digits(f, b)))
        assert f.add(a, b) == sum((u + v) % p * p**j for j, (u, v) in enumerate(pairs))
        assert f.sub(a, b) == sum((u - v) % p * p**j for j, (u, v) in enumerate(pairs))
        assert f.add(a, f.neg(a)) == f.zero()
        if a:
            assert _reference_mul(f, a, f.inv(a)) == f.one()


@pytest.mark.parametrize("q", [16, 81])
def test_element_encoding(q):
    f = field_of_order(q)
    p = f.p
    vectors = list(itertools.product(range(p), repeat=f.k))
    values = [sum(c * p**j for j, c in enumerate(v)) for v in vectors]
    # lexicographic in (c_0, ..., c_{k-1}), not range(q)
    assert list(f.elements()) == values
    for v, a in zip(vectors, values):
        text = ",".join(str(c) for c in v)
        assert f.parse_elem(text) == a
        assert f.format_elem(a) == text
        assert f.parse_elem(f.format_elem(a)) == a
    assert (f.zero(), f.one(), f.gen(), f.convert(p + 1)) == (0, 1, p, 1)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 49, 81])
def test_inverses_exhaustive_small_fields(q):
    f = field_of_order(q)
    seen = set()
    for a in f.elements():
        seen.add(a)
        if not f.is_zero(a):
            assert f.mul(a, f.inv(a)) == f.one()
    assert len(seen) == q


def test_inverses_randomized_larger_field():
    f = build_ext_field(7, 4)  # 2401 elements
    rng = random.Random(0)
    for _ in range(100):
        a = f.parse_elem(",".join(str(rng.randrange(7)) for _ in range(4)))
        if f.is_zero(a):
            continue
        assert f.mul(a, f.inv(a)) == f.one()


def test_field_arithmetic_classics():
    f4 = build_ext_field(2, 2)
    g = f4.gen()
    # g^2 = g + 1 under x^2 + x + 1, and g^3 = 1
    assert f4.mul(g, g) == f4.add(g, f4.one())
    assert f4.mul(f4.mul(g, g), g) == f4.one()


def test_parse_format_round_trip():
    cases = [
        (PrimeField(5), 3),
        (build_ext_field(2, 2), 3),
        (ZZ, -7),
        (QQ, QQ.parse_elem("3/4")),
        (QQ, QQ.parse_elem("-2")),
    ]
    for dom, value in cases:
        assert dom.parse_elem(dom.format_elem(value)) == value


def test_field_entries_must_be_canonical():
    f5, f4 = PrimeField(5), build_ext_field(2, 2)
    assert [f5.parse_elem(t) for t in ("0", "1", "4")] == [0, 1, 4]
    assert f4.parse_elem("1,1") == 3
    for text in ("12", "5", "-1", "+3", " 4", "4 ", "1_0", "04", "", "٣", "1.0"):
        with pytest.raises(DomainError):
            f5.parse_elem(text)
    for text in ("7,9", "2,0", "1", "1,0,0", "01,1", "1, 1", "-1,0"):
        with pytest.raises(DomainError):
            f4.parse_elem(text)
    # a long digit string is refused by its length, before int() reads it
    with pytest.raises(DomainError):
        f5.parse_elem("1" * 100_000)


def test_rational_canonical_form():
    assert QQ.format_elem(QQ.parse_elem("6/8")) == "3/4"
    assert QQ.format_elem(QQ.parse_elem("4/2")) == "2"
    assert QQ.format_elem(QQ.parse_elem("-3/4")) == "-3/4"


def test_integer_units():
    assert ZZ.is_unit(1) and ZZ.is_unit(-1)
    assert not ZZ.is_unit(2) and not ZZ.is_unit(0)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_quadratic_extension_embeds_homomorphically(q):
    f = field_of_order(q)
    E, embed = quadratic_extension(f)
    assert E.size == q * q
    elems = list(f.elements())
    rng = random.Random(q)
    for _ in range(50):
        a, b = rng.choice(elems), rng.choice(elems)
        assert embed(f.add(a, b)) == E.add(embed(a), embed(b))
        assert embed(f.mul(a, b)) == E.mul(embed(a), embed(b))
    assert embed(f.one()) == E.one()
    # embedding is injective
    assert len({embed(a) for a in elems}) == q


def test_quadratic_extension_is_bounded():
    start = time.perf_counter()
    for f in (PrimeField(257), PrimeField(10007), field_of_order(17**2)):
        with pytest.raises(DomainError):
            quadratic_extension(f)
    assert time.perf_counter() - start < 0.1
    E, _ = quadratic_extension(PrimeField(251))
    assert E.size == 251**2


def test_field_of_order_rejects_non_prime_powers():
    with pytest.raises(DomainError):
        field_of_order(6)
    with pytest.raises(DomainError):
        field_of_order(12)
    for q in (0, 1, 96):
        with pytest.raises(DomainError):
            field_of_order(q)


def test_field_of_order_large_prime_is_quick():
    for q in (1000000007, 2**61 - 1):
        start = time.perf_counter()
        assert field_of_order(q) == PrimeField(q)
        assert time.perf_counter() - start < 1.0


def test_field_of_order_small_q():
    for q in range(2, 300):
        factors = [p for p in range(2, q + 1)
                   if q % p == 0 and all(p % d for d in range(2, p))]
        if len(factors) != 1:
            continue
        p, k = factors[0], 0
        while p ** (k + 1) <= q:
            k += 1
        if k > 4:
            with pytest.raises(DomainError):
                field_of_order(q)
        else:
            assert field_of_order(q) == build_ext_field(p, k)
