"""Coefficient domains: prime fields F_p, extension fields F_{p^k}, Z and Q.

Elements are plain hashable Python values in a canonical form, with all
arithmetic carried by the domain object:

* prime field   -- int residue in [0, p)
* ext field     -- int sum c_j p^j in [0, p^k) over the coefficient vector
                   (c_0 the constant term), so 0 is zero and 1 is one
* integers      -- int (arbitrary precision)
* rationals     -- fractions.Fraction (auto-reduced, positive denominator)
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin to every base in _SMALL_PRIMES is exact below this bound
# (Sorenson and Webster 2015).
_MILLER_RABIN_EXACT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of an integer.

    Trial division by the primes up to 41, then strong probable-prime tests:
    to the bases 2..41, which is exact below 3.3 * 10^24, and above that to
    base 2 and a strong Lucas test (Baillie-PSW, no known counterexample).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < 43 * 43:
        return True
    if n < _MILLER_RABIN_EXACT:
        return all(_strong_probable_prime(n, a) for a in _SMALL_PRIMES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _strong_probable_prime(n: int, a: int) -> bool:
    """Miller-Rabin round: n odd, n > a."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters: D the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D) / 4.  n odd, > 2.

    n + 1 = d 2^s with d odd; n passes when U_d = 0 or V_{d 2^r} = 0 for
    some r < s (mod n)."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n) // 2 if x % 2 else x // 2

    u, v, qk = 1, 1, Q % n  # U_1, V_1, Q^1
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = half(u + v), half(D * u + v), qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0, by integer Newton steps from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _prime_power(q: int):
    """(p, k) with q = p^k, p prime and k >= 1, or None.

    The largest k with q a perfect k-th power leaves the only root that can
    be prime, so one primality test on a root of at most sqrt(q) decides
    every proper power."""
    for k in range(q.bit_length() - 1, 0, -1):
        r = _iroot(q, k)
        if r ** k == q:
            return (r, k) if is_prime(r) else None
    return None


def is_prime_power(q: int) -> bool:
    """True iff q = p^k for a prime p and k >= 1."""
    return _prime_power(q) is not None


class DomainError(ValueError):
    """Invalid domain construction or element outside its domain."""


class InvariantError(RuntimeError):
    """An internal consistency check failed: a bug in matgen, not bad input."""


def _parse_residue(s: str, p: int) -> int:
    """The residue written canonically in s: decimal digits, no sign, no
    leading zero, no spaces, value in [0, p)."""
    if not (s.isascii() and s.isdigit() and (s == "0" or s[0] != "0")
            and len(s) <= len(str(p)) and int(s) < p):
        raise DomainError(f"{s!r} is not a canonical residue mod {p}")
    return int(s)


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, lowest degree first)

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(num, den, p):
    """Remainder of num modulo den over F_p; den must be monic."""
    num = _poly_trim([x % p for x in num])
    dn = len(den) - 1
    while len(num) - 1 >= dn:
        k = len(num) - 1 - dn
        lead = num[-1]
        for i, d in enumerate(den):
            num[k + i] = (num[k + i] - lead * d) % p
        num = _poly_trim(num)
    return num


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _poly_powmod(base, e: int, mod, p):
    """base^e modulo the monic mod over F_p, by repeated squaring."""
    out, base = [1], _poly_mod(base, mod, p)
    while e:
        if e & 1:
            out = _poly_mod(_poly_mul(out, base, p), mod, p)
        e >>= 1
        if e:
            base = _poly_mod(_poly_mul(base, base, p), mod, p)
    return out


def _poly_gcd(a, b, p):
    """Monic gcd of two polynomials over F_p."""
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        lead_inv = pow(b[-1], p - 2, p)
        b = [c * lead_inv % p for c in b]
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(coeffs, p) -> bool:
    """Irreducibility of a monic polynomial f of degree <= 4 over F_p.

    f is reducible exactly when it has an irreducible factor of some degree
    d <= deg/2, that is when gcd(f, x^(p^d) - x) != 1 for such a d."""
    deg = len(coeffs) - 1
    if deg > 4:
        raise DomainError(f"extension degree {deg} out of scope (max 4)")
    xpow = [0, 1]
    for _ in range(deg // 2):
        xpow = _poly_powmod(xpow, p, coeffs, p)  # x^(p^d) mod f
        diff = xpow + [0] * (2 - len(xpow))
        diff[1] -= 1
        if len(_poly_gcd(coeffs, [c % p for c in diff], p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------


class _Domain:
    """What the four coefficient domains share: 0 and 1 as ints, elements
    written by str, equality and hashing through the class's _key(), and
    row operations through the domain's own methods."""

    __slots__ = ()

    def zero(self):
        return 0

    def one(self):
        return 1

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a) -> bool:
        return a != 0

    def format_elem(self, a) -> str:
        return str(a)

    def _key(self) -> tuple:
        return ()

    def __eq__(self, other):
        return other is self or (type(other) is type(self)
                                  and other._key() == self._key())

    def __hash__(self):
        return hash((self.kind, *self._key()))

    def row_ops(self):
        """(sub_mul, scale, inv) for rows over this field, where
        sub_mul(v, c, row) is v - c row and scale(c, row) is c row.
        linalg.Echelon and the span closure over odd F_{p^k}
        (generation._spin_up_fq) fetch them once per basis or closure."""
        sub, mul = self.sub, self.mul

        def sub_mul(v, c, row):
            return [sub(a, mul(c, b)) for a, b in zip(v, row)]

        def scale(c, row):
            return [mul(c, b) for b in row]

        return sub_mul, scale, self.inv


class PrimeField(_Domain):
    """F_p with elements as int residues in [0, p)."""

    kind = "prime_field"
    is_field = True

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def size(self) -> int:
        return self.p

    def convert(self, n: int):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def is_unit(self, a) -> bool:
        return a % self.p != 0

    def elements(self):
        return range(self.p)

    def parse_elem(self, s: str):
        return _parse_residue(s, self.p)

    def _key(self) -> tuple:
        return (self.p,)

    def row_ops(self):
        p = self.p

        def sub_mul(v, c, row):
            return [(a - c * b) % p for a, b in zip(v, row)]

        def scale(c, row):
            return [c * b % p for b in row]

        return sub_mul, scale, lambda c: pow(c, -1, p)

    def __repr__(self):
        return f"F{self.p}"


TABLE_MAX = 64  # extension fields up to this order get full operation tables


class ExtField(_Domain):
    """F_{p^k} as F_p[t]/(modulus).

    An element is the int sum c_j p^j over its coefficient vector, c_0 the
    constant term: 0 is zero, 1 is one and p is the class of t.  Up to
    TABLE_MAX elements, add, sub and mul are lookups in flat tables indexed
    by a * q + b and inv in a list, all built once from the polynomial code;
    above that the polynomial code runs on the digits.
    """

    kind = "ext_field"
    is_field = True

    __slots__ = ("p", "k", "q", "modulus", "_add", "_sub", "_mul", "_inv")

    def __init__(self, p: int, k: int, modulus):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        if k < 2:
            raise DomainError("extension degree must be >= 2 (use PrimeField)")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree k")
        if not _is_irreducible(list(modulus), p):
            raise DomainError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.k = k
        self.q = q = p**k
        self.modulus = modulus
        self._add = self._sub = self._mul = self._inv = None
        if q <= TABLE_MAX:
            # each method takes the polynomial path until its table is set
            pairs = [(a, b) for a in range(q) for b in range(q)]
            self._add = [self.add(a, b) for a, b in pairs]
            self._sub = [self.sub(a, b) for a, b in pairs]
            self._mul = [self.mul(a, b) for a, b in pairs]
            self._inv = [None] + [self.inv(a) for a in range(1, q)]

    def _digits(self, a):
        """The coefficient vector of a, constant term first."""
        p = self.p
        out = []
        for _ in range(self.k):
            a, c = divmod(a, p)
            out.append(c)
        return out

    def _join(self, coeffs):
        """The element with these coefficients (reduced mod p)."""
        p = self.p
        a = 0
        for c in reversed(coeffs):
            a = a * p + c % p
        return a

    @property
    def char(self) -> int:
        return self.p

    @property
    def size(self) -> int:
        return self.q

    def gen(self):
        """The class of t, a root of the modulus."""
        return self.p

    def convert(self, n: int):
        return n % self.p

    def add(self, a, b):
        t = self._add
        if t is not None:
            return t[a * self.q + b]
        return self._join([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def sub(self, a, b):
        t = self._sub
        if t is not None:
            return t[a * self.q + b]
        return self._join([x - y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a):
        t = self._sub
        if t is not None:
            return t[a]  # 0 - a
        return self._join([-x for x in self._digits(a)])

    def mul(self, a, b):
        t = self._mul
        if t is not None:
            return t[a * self.q + b]
        p = self.p
        return self._join(_poly_mod(_poly_mul(self._digits(a), self._digits(b), p),
                                    self.modulus, p))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        t = self._inv
        if t is not None:
            return t[a]
        # a^(q-2) = a^-1 in the multiplicative group of order q - 1
        return self._join(_poly_powmod(self._digits(a), self.q - 2,
                                       self.modulus, self.p))

    def row_ops(self):
        """Lookups in the flat tables, or the domain methods without them."""
        if self._mul is None:
            return super().row_ops()
        q, sub, mult = self.q, self._sub, self._mul

        def sub_mul(v, c, row):
            cq = c * q
            return [sub[a * q + mult[cq + b]] for a, b in zip(v, row)]

        def scale(c, row):
            cq = c * q
            return [mult[cq + b] for b in row]

        return sub_mul, scale, self._inv.__getitem__

    def elements(self):
        """Every element, in lexicographic order of (c_0, ..., c_{k-1})."""
        for n in range(self.q):
            yield self._join(self._digits(n)[::-1])

    def format_elem(self, a) -> str:
        return ",".join(str(c) for c in self._digits(a))

    def parse_elem(self, s: str):
        coeffs = s.split(",")
        if len(coeffs) != self.k:
            raise DomainError(f"expected {self.k} coefficients, got {s!r}")
        return self._join([_parse_residue(c, self.p) for c in coeffs])

    def _key(self) -> tuple:
        return (self.p, self.k, self.modulus)

    def __repr__(self):
        return f"F{self.p}^{self.k}"


class IntegerRing(_Domain):
    kind = "integers"
    is_field = False

    @property
    def char(self) -> int:
        return 0

    def convert(self, n: int):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_unit(self, a) -> bool:
        return a in (1, -1)

    def parse_elem(self, s: str):
        return int(s)

    def __repr__(self):
        return "Z"


class RationalField(_Domain):
    kind = "rationals"
    is_field = True

    @property
    def char(self) -> int:
        return 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def convert(self, n) -> Fraction:
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def format_elem(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def parse_elem(self, s: str) -> Fraction:
        # only the "n" and "n/d" forms: Fraction would also read exponents,
        # and building "1e10000000" from its 10 characters took 13 s
        num, slash, den = s.partition("/")
        return Fraction(int(num), int(den) if slash else 1)

    def __repr__(self):
        return "Q"


ZZ = IntegerRing()
QQ = RationalField()


@lru_cache(maxsize=None)
def build_ext_field(p: int, k: int):
    """F_{p^k} with the lexicographically least monic irreducible modulus.

    Lexicographic order is on the coefficient vector below the leading 1,
    most significant coefficient first; degree 1 yields the prime field.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if not 1 <= k <= 4:
        raise DomainError("extension degree must be in 1..4")
    if k == 1:
        return PrimeField(p)
    for n in range(p**k):
        # the base-p digits of n, most significant first, are a_{k-1}..a_0
        coeffs = [n // p**j % p for j in range(k)] + [1]
        if _is_irreducible(coeffs, p):
            return _ext_field(p, k, tuple(coeffs))
    raise DomainError(f"no irreducible modulus of degree {k} over F_{p}")  # unreachable


@lru_cache(maxsize=None)
def _ext_field(p: int, k: int, modulus: tuple):
    """The one ExtField object, with its tables, per (p, k, modulus)."""
    return ExtField(p, k, modulus)


@lru_cache(maxsize=None)
def field_of_order(q: int):
    """The field with q = p^k elements (deterministic modulus)."""
    pk = _prime_power(q)
    if pk is None:
        raise DomainError(f"{q} is not a prime power")
    return build_ext_field(*pk)


QUADRATIC_EXTENSION_MAX = 2**16


@lru_cache(maxsize=None)
def quadratic_extension(field):
    """(E, embed) with E of order q^2 and embed: field -> E.

    The embedding sends the field generator to a fixed root of the field's
    modulus in E (the first root in element-enumeration order).  E is
    refused above 2^16 elements: its users enumerate it.
    """
    if not isinstance(field, (PrimeField, ExtField)):
        raise DomainError("quadratic extension requires a finite field")
    if field.size ** 2 > QUADRATIC_EXTENSION_MAX:
        raise DomainError(f"the quadratic extension of {field!r} has more than "
                          f"{QUADRATIC_EXTENSION_MAX} elements")
    if isinstance(field, PrimeField):
        E = build_ext_field(field.p, 2)
        return E, lambda a: E.convert(a)
    E = build_ext_field(field.p, 2 * field.k)
    root = None
    for x in E.elements():
        acc = E.zero()
        for c in reversed(field.modulus):
            acc = E.add(E.mul(acc, x), E.convert(c))
        if E.is_zero(acc):
            root = x
            break
    if root is None:
        raise DomainError("modulus has no root in the quadratic extension")  # unreachable

    def embed(a, _E=E, _root=root):
        acc = _E.zero()
        for c in reversed(field._digits(a)):
            acc = _E.add(_E.mul(acc, _root), _E.convert(c))
        return acc

    return E, embed


def domain_to_json(domain) -> dict:
    if isinstance(domain, PrimeField):
        return {"kind": "prime_field", "p": domain.p}
    if isinstance(domain, ExtField):
        return {"kind": "ext_field", "p": domain.p, "deg": domain.k,
                "modulus": list(domain.modulus)}
    if isinstance(domain, IntegerRing):
        return {"kind": "integers"}
    if isinstance(domain, RationalField):
        return {"kind": "rationals"}
    raise DomainError(f"unknown domain {domain!r}")


def json_int(value, what: str) -> int:
    """A JSON integer; a float (7.5 or 7.0) or a bool is refused."""
    if type(value) is not int:
        raise DomainError(f"{what} must be an integer, not {value!r}")
    return value


def domain_from_json(data: dict):
    """The domain a document names; fields come from the cached
    constructors, so loading a document twice yields the same object."""
    if not isinstance(data, dict):
        raise DomainError("the coefficient domain must be a JSON object")
    kind = data.get("kind")
    if kind == "prime_field":
        return build_ext_field(json_int(data["p"], "p"), 1)
    if kind == "ext_field":
        modulus = data["modulus"]
        if not isinstance(modulus, list):
            raise DomainError("modulus must be a list of integers")
        return _ext_field(json_int(data["p"], "p"), json_int(data["deg"], "deg"),
                          tuple(json_int(c, "modulus") for c in modulus))
    if kind == "integers":
        return ZZ
    if kind == "rationals":
        return QQ
    raise DomainError(f"unknown coefficient kind {kind!r}")
