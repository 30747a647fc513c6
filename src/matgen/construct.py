"""Constructive recipes and embedded tables.

The standard two-generator pair, the two gap extensions, the mixed-size
combination, the two-generator family over Q parameterized by scalar sets,
the defining relations of the standard pair, and the 16-pair integer table
with its conjugacy-class companion.  Every construction re-proves itself
numerically before it is handed out.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

from .domains import QQ, ZZ, DomainError, InvariantError
from .generation import (
    DirectSumShape,
    closure_generates,
    shape_of,
)
from .linalg import Mat, identity, is_zero_mat, madd, mat, mmul, smul, zero_mat
from .zverify import z_generates

STANDARD_XY = "standard-xy"
GAP_PLUS_ONE = "gap-plus-one"
GAP_DOUBLE = "gap-double"
MIXED = "mixed-sizes"
SCALAR_FAMILY = "scalar-family"
# `matgen relations --n 22 --domain q` ran in 0.75-1.04 s (2 cores)
RELATIONS_MAX_N = 22
TABLE16 = "table16"


@dataclass(frozen=True)
class GeneratorFamily:
    """A generating set of a direct sum, with its provenance and verdict."""

    shape: DirectSumShape
    generators: tuple  # each generator is a tuple of Mat, one per copy
    provenance: str
    verified: bool = True
    scalars: tuple = ()

    @property
    def domain(self):
        return self.generators[0][0].domain

    @property
    def num_generators(self) -> int:
        return len(self.generators)


def verify_family(family: GeneratorFamily) -> bool:
    """Generation check: span closure over a field; over Z, the exact
    decision zverify.z_generates, for every block size."""
    return _generates(family.generators, family.shape)


def _generates(generators, shape) -> bool:
    domain = generators[0][0].domain
    if domain.is_field:
        return closure_generates(generators, shape).verdict
    if domain != ZZ:
        raise DomainError("families live over a field or Z")
    return z_generates(generators)


def _emit(shape, generators, provenance) -> GeneratorFamily:
    """The family, after its generation check.  Every recipe verifies its
    input first, so a failure here is a bug."""
    if not _generates(generators, shape):
        raise InvariantError(f"{provenance} construction failed its generation "
                             "check; bug")
    return GeneratorFamily(shape=shape, generators=tuple(generators),
                           provenance=provenance)


# ---------------------------------------------------------------------------
# the standard pair and the gap extensions


def standard_xy(n: int, domain):
    """X = E_{1n} + sum E_{i+1,i} (cyclic shift) and Y = E_11; verified."""
    if n < 2:
        raise DomainError("standard pair needs n >= 2")
    one, zero = domain.one(), domain.zero()
    rows = [[zero] * n for _ in range(n)]
    rows[0][n - 1] = one
    for i in range(n - 1):
        rows[i + 1][i] = one
    X = Mat(domain, n, tuple(tuple(r) for r in rows))
    Y = Mat(domain, n, tuple(tuple(one if (i, j) == (0, 0) else zero
                                   for j in range(n)) for i in range(n)))
    if not _generates([(X,), (Y,)], shape_of(n)):
        raise InvariantError("standard pair failed its generation check; bug")
    return X, Y


def standard_xy_family(n: int, domain) -> GeneratorFamily:
    """The standard pair as a family, proved once by standard_xy."""
    X, Y = standard_xy(n, domain)
    return GeneratorFamily(shape=shape_of(n), generators=((X,), (Y,)),
                           provenance=STANDARD_XY)


def _single_block(family: GeneratorFamily):
    if len(family.shape.blocks) != 1:
        raise DomainError("gap extensions need a single-size family")
    return family.shape.blocks[0]


def gap_plus_one(family: GeneratorFamily) -> GeneratorFamily:
    """k generators of M_n(R)^l -> k+1 generators of M_n(R)^{l+1}."""
    n, l = _single_block(family)
    if not verify_family(family):
        raise DomainError("input family is not verified generating")
    domain = family.domain
    X, Y = standard_xy(n, domain)
    zero = zero_mat(domain, n)
    gens = list(family.generators)
    out = [g + (zero,) for g in gens[:-1]]
    out.append(gens[-1] + (Y,))
    out.append((zero,) * l + (X,))
    return _emit(DirectSumShape(((n, l + 1),)), out, GAP_PLUS_ONE)


def gap_double(family: GeneratorFamily) -> GeneratorFamily:
    """k generators of M_n(R)^l -> k+1 generators of M_n(R)^{2l}."""
    n, l = _single_block(family)
    if not verify_family(family):
        raise DomainError("input family is not verified generating")
    domain = family.domain
    zero = zero_mat(domain, n)
    ident = identity(domain, n)
    out = [g + g for g in family.generators]
    out.append((zero,) * l + (ident,) * l)
    return _emit(DirectSumShape(((n, 2 * l),)), out, GAP_DOUBLE)


def combine_mixed(families: Sequence[GeneratorFamily]) -> GeneratorFamily:
    """Juxtapose one family per distinct block size; max of the generator
    counts suffices, padding shorter families with zero."""
    families = list(families)
    sizes = [fam.shape.blocks[0][0] for fam in families]
    for fam in families:
        if len(fam.shape.blocks) != 1:
            raise DomainError("each input family must cover a single size")
    if len(set(sizes)) != len(sizes):
        raise DomainError("block sizes must be pairwise distinct")
    domain = families[0].domain
    if any(fam.domain != domain for fam in families):
        raise DomainError("mixed domains")
    if not all(map(verify_family, families)):
        raise DomainError("input family is not verified generating")
    s = max(fam.num_generators for fam in families)
    out = []
    for t in range(s):
        elem = []
        for fam in families:
            n_i, m_i = fam.shape.blocks[0]
            if t < fam.num_generators:
                elem.extend(fam.generators[t])
            else:
                elem.extend([zero_mat(domain, n_i)] * m_i)
        out.append(tuple(elem))
    shape = DirectSumShape(tuple(fam.shape.blocks[0] for fam in families))
    return _emit(shape, out, MIXED)


def scalar_family_generators(blocks, domain=QQ):
    """Two generators of a direct sum of blocks (n_i, S_i) from scalar sets.

    Per copy tagged by a scalar a: the pair (X, aX + Y).  Over Q the closure
    check is mandatory and a failure raises; over a finite field the verdict
    is recorded on the returned family instead (scalar sets larger than the
    field cannot work).
    """
    blocks = [(n_i, tuple(scalars)) for n_i, scalars in blocks]
    sizes = [n_i for n_i, _ in blocks]
    if len(set(sizes)) != len(sizes) or any(n_i < 2 for n_i in sizes):
        raise DomainError("block sizes must be pairwise distinct and >= 2")
    for _, scalars in blocks:
        if len(set(scalars)) != len(scalars):
            raise DomainError("scalars within one block must be distinct")
        if not scalars:
            raise DomainError("each block needs at least one scalar")
    xs, ys = [], []
    for n_i, scalars in blocks:
        X, Y = standard_xy(n_i, domain)
        for a in scalars:
            xs.append(X)
            ys.append(madd(smul(domain.convert(a), X), Y))
    shape = DirectSumShape(tuple((n_i, len(scalars)) for n_i, scalars in blocks))
    generators = (tuple(xs), tuple(ys))
    ok = _generates(generators, shape)
    if domain == QQ and not ok:
        raise InvariantError("scalar family failed exact-rational closure; bug")
    return GeneratorFamily(shape=shape, generators=generators,
                           provenance=SCALAR_FAMILY, verified=ok,
                           scalars=tuple(blocks))


# ---------------------------------------------------------------------------
# defining relations of the standard pair


@dataclass(frozen=True)
class RelationSet:
    """Noncommutative polynomials in x, y vanishing at the standard pair."""

    n: int
    relations: tuple  # (name, {word: coefficient}) with words over {x, y}


def relation_set(n: int) -> RelationSet:
    rels = []
    rels.append(("r1", {"x" * n: 1, "": -1}))
    r2 = {}
    for i in range(n):
        word = "x" * (n - i) + "y" + "x" * i
        r2[word] = r2.get(word, 0) + 1
    r2[""] = -1
    rels.append(("r2", r2))
    rels.append(("s0", {"yy": 1, "y": -1}))
    for j in range(1, n):
        rels.append((f"s{j}", {"y" + "x" * j + "y": 1}))
    return RelationSet(n=n, relations=tuple(rels))


def nc_eval(poly: dict, X: Mat, Y: Mat):
    """Evaluate a noncommutative polynomial at matrices by substitution.

    A word is the product of the powers its runs name, and _power keeps the
    powers between calls, so the relations of relation_set(n) cost O(n)
    products, not O(n^2)."""
    domain = X.domain
    acc = zero_mat(domain, X.n)
    for word, coeff in poly.items():
        runs = [_power(X if c == "x" else Y, len(list(g)))
                for c, g in itertools.groupby(word)]
        term = reduce(mmul, runs) if runs else identity(domain, X.n)
        acc = madd(acc, smul(domain.convert(coeff), term))
    return acc


@lru_cache(maxsize=64)
def _power(a: Mat, k: int) -> Mat:
    return a if k == 1 else mmul(_power(a, k - 1), a)


def check_relations(n: int, domain) -> bool:
    """All defining relations vanish at the standard pair; refused above
    RELATIONS_MAX_N before any matrix is built."""
    if n > RELATIONS_MAX_N:
        raise DomainError(f"relations are checked for n <= {RELATIONS_MAX_N}")
    X, Y = standard_xy(n, domain)
    return all(is_zero_mat(nc_eval(poly, X, Y))
               for _, poly in relation_set(n).relations)


# ---------------------------------------------------------------------------
# the embedded tables

_E11 = ((1, 0), (0, 0))
_E12 = ((0, 1), (0, 0))
_E21 = ((0, 0), (1, 0))
_E22 = ((0, 0), (0, 1))
_SWAP = ((0, 1), (1, 0))
_ONES = ((1, 1), (1, 1))
_FIB = ((0, 1), (1, 1))

TABLE16_PAIRS = (
    (_E11, _SWAP),
    (_E11, _ONES),
    (_E11, ((1, 1), (1, 0))),
    (_E11, _FIB),
    (_E12, _E21),
    (_E12, _FIB),
    (_E12, _SWAP),
    (_E12, ((0, 0), (1, 1))),
    (_FIB, _SWAP),
    (_FIB, _E12),
    (_FIB, _E11),
    (_FIB, _E22),
    (_SWAP, _E11),
    (_SWAP, _E12),
    (_SWAP, _FIB),
    (_SWAP, ((1, 1), (0, 1))),
)

# pairs the eigenvalue tables cannot separate; certified individually
TABLE16_MARKED = {"up-triangles": (2, 3), "down-triangles": (10, 11)}

CONJ_CLASSES = (
    {
        "matrices": (_E11, _E22, ((1, 0), (1, 0)), ((0, 0), (1, 1)),
                     ((1, 1), (0, 0)), ((0, 1), (0, 1))),
        "eigenvalues": "0, 1",
    },
    {
        "matrices": (_E12, _E21, _ONES),
        "eigenvalues": "0,0 (first two); 0,2 (third)",
    },
    {
        "matrices": (_FIB, ((1, 1), (1, 0))),
        "eigenvalues": "roots of t^2 - t - 1",
    },
    {
        "matrices": (((1, 0), (1, 1)), ((1, 1), (0, 1)), _SWAP),
        "eigenvalues": "1,1 (first two); +-1 (third)",
    },
)

GEN16_FIXTURE_SHA256 = \
    "223dcb30973d2846b8cdff081a02f6f6e0d220a4a5f062f8cfbb234f7d59e74b"
CONJ_FIXTURE_SHA256 = \
    "090b858ed74ed2ce7318058eb3ca443ea0e9a4c2db69c1622f0cf900b2d505f5"


def _table16_raw() -> GeneratorFamily:
    a_parts = tuple(mat(ZZ, first) for first, _ in TABLE16_PAIRS)
    b_parts = tuple(mat(ZZ, second) for _, second in TABLE16_PAIRS)
    return GeneratorFamily(shape=DirectSumShape(((2, 16),)),
                           generators=(a_parts, b_parts), provenance=TABLE16)


@lru_cache(maxsize=None)
def table16() -> GeneratorFamily:
    """The 16 integer pairs generating M_2(Z)^16 with two elements."""
    fam = _table16_raw()
    if not verify_family(fam):
        raise InvariantError("embedded 16-pair table failed its generation check")
    _check_fixture("gen16_pairs.json", GEN16_FIXTURE_SHA256)
    return fam


def _fixture_text(name: str) -> str:
    ref = importlib.resources.files("matgen") / "fixtures" / name
    return ref.read_text(encoding="utf-8")


def _check_fixture(name: str, expected_sha: str):
    text = _fixture_text(name)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if digest != expected_sha:
        raise InvariantError(f"fixture {name} is corrupted "
                           f"(sha256 {digest} != {expected_sha})")
    data = json.loads(text)
    if name == "gen16_pairs.json":
        from .tuplefile import family_to_tuplefile

        if data != family_to_tuplefile(_table16_raw()):
            raise InvariantError(f"fixture {name} disagrees with the source table")
    else:
        want = [{"matrices": [[list(r) for r in m] for m in cls["matrices"]],
                 "eigenvalues": cls["eigenvalues"]} for cls in CONJ_CLASSES]
        if data.get("classes") != want:
            raise InvariantError(f"fixture {name} disagrees with the source table")
