"""Generation tests for direct sums of matrix algebras.

Span closure over fields (XOR bit vectors in characteristic 2, packed or
flat rows in odd characteristic, integer rows over Q), the tuple criterion
(cross-sections generate and are pairwise non-conjugate), the n = 2
common-eigenline test, the det-commutator criterion, and the integer
lattice-closure test for M_n(Z).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress
from math import gcd, lcm
from operator import mul, xor
from typing import Sequence

from . import conjugacy
from .domains import QQ, ZZ, DomainError, InvariantError, quadratic_extension
from .linalg import (
    ALL_LINES,
    Echelon,
    IntLattice,
    Mat,
    check_entries,
    commutator,
    det,
    identity,
    is_scalar_mat,
    line_is_invariant,
    mmul,
    quadratic_eigvecs,
    vectorize,
)


@dataclass(frozen=True)
class DirectSumShape:
    """Direct sum of m_i copies of M_{n_i}, one (n_i, m_i) pair per block."""

    blocks: tuple

    def __post_init__(self):
        for n_i, m_i in self.blocks:
            if n_i < 2:
                raise DomainError("block sizes must be >= 2")
            if m_i < 1:
                raise DomainError("block multiplicities must be >= 1")

    @property
    def copy_sizes(self) -> tuple:
        return tuple(n_i for n_i, m_i in self.blocks for _ in range(m_i))

    @property
    def total_dim(self) -> int:
        return sum(m_i * n_i * n_i for n_i, m_i in self.blocks)


def shape_of(n: int, copies: int = 1) -> DirectSumShape:
    return DirectSumShape(((n, copies),))


@dataclass(frozen=True)
class MatTuple:
    """Ordered m-tuple of n x n matrices over one domain."""

    domain: object
    n: int
    m: int
    mats: tuple

    def __post_init__(self):
        if len(self.mats) != self.m or self.m < 1:
            raise DomainError("tuple length mismatch")
        for a in self.mats:
            if a.n != self.n or a.domain != self.domain:
                raise DomainError("tuple entries must share size and domain")


def mat_tuple(mats: Sequence[Mat]) -> MatTuple:
    mats = tuple(mats)
    return MatTuple(mats[0].domain, mats[0].n, len(mats), mats)


@dataclass(frozen=True)
class ClosureDeficient:
    pass


@dataclass(frozen=True)
class CrossSectionFails:
    index: int


@dataclass(frozen=True)
class ConjugatePair:
    i: int
    j: int
    witness: Mat


@dataclass(frozen=True)
class GenReport:
    verdict: bool
    closure_dim: int
    ambient_dim: int
    failed_condition: object = None
    eigen_witness: object = None


def _element_vector(elem) -> tuple:
    out = []
    for a in elem:
        out.extend(vectorize(a))
    return tuple(out)


def _validate_elements(S, shape: DirectSumShape, field):
    """Refuse an element that does not match the shape or the field, and
    over a finite field an entry that is not an int in [0, q)."""
    sizes = shape.copy_sizes
    for elem in S:
        if len(elem) != len(sizes):
            raise DomainError("element does not match the shape")
        for a, n_i in zip(elem, sizes):
            if a.n != n_i:
                raise DomainError("component size does not match the shape")
            if a.domain != field:
                raise DomainError("mixed domains in one generating set")
            check_entries(a.rows, field)


def _spin_up(identity, seeds, gens, insert, times, d) -> int:
    """The level loop of a spin-up, shared by every span closure: the
    number of vectors the span took.

    insert(v) adds v to the span and returns what the next level
    multiplies (v's new basis row, or v), or None when v lies in the span
    already; times(u, g) is u times the prepared generator g.  The identity
    (None when it is not adjoined) and the seeds go in first; each level
    then multiplies what the level before inserted by every generator on
    the right, until a level adds nothing or the span reaches dimension d
    (None: no dimension stop).  Over a field the count is the dimension.
    """
    dim = 0 if identity is None or insert(identity) is None else 1
    frontier = [u for u in map(insert, seeds) if u is not None]
    dim += len(frontier)
    while frontier and dim != d:
        new_frontier = []
        for u in frontier:
            for g in gens:
                new = insert(times(u, g))
                if new is not None:
                    dim += 1
                    if dim == d:
                        return d
                    new_frontier.append(new)
        frontier = new_frontier
    return dim


def _spin_up_fp(S, sizes, field, include_identity: bool) -> int:
    """Dimension of the span closure over F_p, by a spin-up on packed
    vectors (Parker's MeatAxe).

    A vector of length d = sum n_i^2 is one int whose w-bit slot j, at bit
    j w, holds coordinate j.  The basis is semi-echelon: a list of pairs
    (shift of the pivot slot, P - u), where P holds p in every slot and u is
    the packed row reduced into [0, p) and normalised to 1 at its pivot.
    Each row vanishes at the pivots of the rows before it, so one pass in
    insertion order reduces a vector: at each pivot the slot is read mod p
    as c, and adding c (P - u) subtracts c u mod p while every slot stays
    nonnegative.  The reduced vector is then 0 mod p at every pivot slot, so
    only the free slots, those that are no row's pivot, are unpacked; a new
    row's pivot is the first nonzero free slot, which leaves the free list.
    Right multiplication by a generator g is the list of d packed rows
    R_g[j], the images of the units E_j, and a product is sum u_j R_g[j]
    over the nonzero coordinates of a normalised row u.

    No slot overflows: a product holds at most n (p-1)^2 in a slot (n the
    largest block size), and each of the at most d reductions adds at most
    (p-1) p, so every slot stays below n (p-1)^2 + d p^2.  w is the bit
    length of that bound plus one guard bit.
    """
    p = field.p
    d = sum(n * n for n in sizes)
    w = (max(sizes, default=0) * (p - 1) ** 2 + d * p * p).bit_length() + 1
    mask = (1 << w) - 1
    shifts = range(0, d * w, w)
    every = p * (((1 << d * w) - 1) // mask)  # p in every slot
    basis = []
    free = list(zip(range(d), shifts))  # (j, shift) of the non-pivot slots

    def insert(v):
        """Reduce v; if it is independent, add its row and return its
        normalised coordinates as (j, u_j) pairs with u_j != 0."""
        for s, neg in basis:
            c = (v >> s & mask) % p
            if c:
                v += c * neg
        coords = [(j, x) for j, s in free if (x := (v >> s & mask) % p)]
        if not coords:
            return None
        piv = coords[0][0]
        inv = pow(coords[0][1], -1, p)
        u = [(j, x * inv % p) for j, x in coords]
        free.remove((piv, shifts[piv]))
        basis.append((shifts[piv], every - sum(x << shifts[j] for j, x in u)))
        return u

    def pack(elem):
        return sum(x << s for x, s in zip(_element_vector(elem), shifts))

    def right_rows(elem):
        rows, offset = [], 0
        for a, n in zip(elem, sizes):
            packed = [sum(x << (k * w) for k, x in enumerate(row))
                      for row in a.rows]
            # E_{ik} g has row i equal to row k of g
            rows.extend(packed[k] << (offset + i * n) * w
                        for i in range(n) for k in range(n))
            offset += n * n
        return rows

    def times(u, rows):
        return sum(c * rows[j] for j, c in u)

    identity_vec = (pack(tuple(identity(field, n) for n in sizes))
                    if include_identity else None)
    return _spin_up(identity_vec, map(pack, S), [right_rows(g) for g in S],
                    insert, times, d)


def _spin_up_f2k(S, sizes, field, include_identity: bool) -> int:
    """Dimension of the span closure over F_{2^k}, F_2 being k = 1, by a
    spin-up on XOR bit vectors (the packed rows of M4RI).

    An element int is the k-bit mask of its coefficients, so a vector is
    one int whose k-bit slot j, at bit j k, holds coordinate j, and adding
    vectors is XOR: exact, with no modulus and no slot bound.  Times t
    shifts every slot up one bit and folds the bit that leaves each slot
    back in through t^k = sum f_j t^j, the modulus's low coefficients.  The
    basis is semi-echelon: (pivot shift, its slot mask, multiples), with
    multiples[c] = c u for the row u normalised to 1 at its pivot.  One
    pass in insertion order clears every pivot of a vector, so a new row's
    pivot is the slot of its lowest set bit.  A generator g is prepared as
    the d k packed rows t^b E_j g at index j k + b, and a product u g is
    the XOR of the rows at the set bits of u.
    """
    k = field.size.bit_length() - 1
    d = sum(n * n for n in sizes)
    emask = (1 << k) - 1
    top = ((1 << d * k) - 1) // emask << k - 1  # the top bit of every slot
    fold = field.mul(1 << k - 1, 2)  # t^k as an element; 0 over F_2
    basis = []
    zero_one = bytes.maketrans(b"01", b"\0\1")

    def bits_of(x):  # the bits of x, lowest first, as bytes 0 and 1
        return bin(x)[:1:-1].encode().translate(zero_one)

    def powers(v):  # [v, t v, ..., t^(k-1) v]
        out = [v]
        for _ in range(k - 1):
            hi = v & top
            v = ((v ^ hi) << 1) ^ (hi >> k - 1) * fold
            out.append(v)
        return out

    def insert(v):
        """Reduce v; if it is independent, add its row u and return u."""
        for s, slot, mult in basis:
            if v & slot:
                v ^= mult[v >> s & emask]
        if not v:
            return None
        s = ((v & -v).bit_length() - 1) // k * k
        inv = field.inv(v >> s & emask)
        if inv != 1:  # inv v, the XOR of the t^b v at the set bits b of inv
            v = reduce(xor, compress(powers(v), bits_of(inv)))
        mult = [0]  # mult[c] = c v, built from the bits of c
        for tv in powers(v):
            mult += [x ^ tv for x in mult]
        basis.append((s, emask << s, mult))
        return v

    def pack(elem):
        v = 0
        for x in reversed(_element_vector(elem)):
            v = v << k | x
        return v

    def right_rows(g):
        """The rows t^b E_j g of the packed generator g."""
        rows, offset, scaled = [], 0, powers(g)
        for n in sizes:
            # t^b E_{ic} g has row i equal to row c of t^b g
            rmask = (1 << n * k) - 1
            starts = range(offset * k, (offset + n * n) * k, n * k)
            block = [tg >> s & rmask for s in starts for tg in scaled]
            for s in starts:
                rows += [r << s for r in block]
            offset += n * n
        return rows

    def times(u, rows):
        return reduce(xor, compress(rows, bits_of(u)), 0)

    offsets = accumulate((n * n for n in sizes), initial=0)
    identity_vec = (sum(1 << (o + i * (n + 1)) * k
                        for o, n in zip(offsets, sizes) for i in range(n))
                    if include_identity else None)
    packed = list(map(pack, S))
    return _spin_up(identity_vec, packed, list(map(right_rows, packed)),
                    insert, times, d)


def _int_times(u, blocks):
    """The integer vector u times a generator prepared as per-copy
    (n, columns) blocks: each block row of u times its copy's columns."""
    out, offset = [], 0
    for n, cols in blocks:
        for i in range(offset, offset + n * n, n):
            row = u[i:i + n]
            out.extend(sum(map(mul, row, col)) for col in cols)
        offset += n * n
    return out


def _spin_up_q(S, sizes, include_identity: bool) -> int:
    """Dimension of the span closure over Q, by a spin-up on integer rows
    with fraction-free elimination (Bareiss).

    Each element is scaled by the lcm of the denominators of all its
    copies, so its blocks are integer matrices.  The basis is semi-echelon:
    a list of (pivot, a, row), row a primitive integer vector (content 1)
    whose first nonzero entry a, at the pivot, is positive; each row
    vanishes at the pivots of the rows before it.  One pass in insertion
    order reduces v: at a pivot where v holds c, v becomes
    (a/g) v - (c/g) row with g = gcd(a, c), which clears the pivot and keeps
    the pivots already cleared at zero.  An independent v is divided by its
    content once, at the end, and becomes the new row.  A product is a row
    times the integer blocks of a scaled generator.
    """
    d = sum(n * n for n in sizes)
    basis = []

    def insert(v):
        for j, a, row in basis:
            c = v[j]
            if c:
                g = gcd(a, c)
                s, t = a // g, c // g
                v = [s * x - t * y for x, y in zip(v, row)]
        piv = next((j for j, x in enumerate(v) if x), None)
        if piv is None:
            return None
        g = gcd(*v)
        if v[piv] < 0:
            g = -g
        v = [x // g for x in v]
        basis.append((piv, v[piv], v))
        return v

    def scale(elem):
        """(vector, blocks): elem times the lcm of its denominators, as one
        flat integer vector and as per-copy (n, columns) blocks."""
        lcm_den = lcm(*(x.denominator for a in elem for row in a.rows
                        for x in row))
        vec, blocks = [], []
        for a in elem:
            rows = [[x.numerator * (lcm_den // x.denominator) for x in row]
                    for row in a.rows]
            for row in rows:
                vec.extend(row)
            blocks.append((a.n, tuple(zip(*rows))))
        return vec, blocks

    scaled = [scale(elem) for elem in S]
    identity_vec = (scale(tuple(identity(QQ, n) for n in sizes))[0]
                    if include_identity else None)
    return _spin_up(identity_vec, [vec for vec, _ in scaled],
                    [blocks for _, blocks in scaled], insert, _int_times, d)


def _spin_up_fq(S, sizes, field, include_identity: bool) -> int:
    """Dimension of the span closure over F_{p^k}, by a spin-up on flat
    lists of element ints into a linalg.Echelon, the semi-echelon basis.

    A generator g is prepared once as its copies' negated rows, so block
    row i of a product u g, the sum over s of u_is times row s of g, is
    built by subtracting u_is times negated row s, skipping the zero u_is.
    The arithmetic is the field's row_ops(): lookups in the flat ExtField
    tables up to TABLE_MAX, the field's methods above.
    """
    sub_mul = field.row_ops()[0]

    def negated_rows(elem):
        return [(n, [[field.neg(x) for x in row] for row in a.rows], [0] * n)
                for a, n in zip(elem, sizes)]

    def times(u, blocks):
        out, offset = [], 0
        for n, rows, zero in blocks:
            for i in range(offset, offset + n * n, n):
                acc = zero
                for c, row in zip(u[i:i + n], rows):
                    if c:
                        acc = sub_mul(acc, c, row)
                out.extend(acc)
            offset += n * n
        return out

    identity_vec = (_element_vector(tuple(identity(field, n) for n in sizes))
                    if include_identity else None)
    return _spin_up(identity_vec, map(_element_vector, S),
                    [negated_rows(g) for g in S], Echelon(field).insert,
                    times, sum(n * n for n in sizes))


def closure_generates(S, shape: DirectSumShape, include_identity: bool = True,
                      field=None) -> GenReport:
    """Span closure of S inside the direct-sum algebra described by shape.

    S is a sequence of elements, each a sequence of Mat matching the shape's
    copies.  The span of all products of elements of S (plus the identity if
    requested) is grown until it stabilizes; the verdict compares its
    dimension with the ambient dimension.

    Right products by the generators suffice.  Let W_k be the span of the
    words in S of length <= k (the empty word, the identity, included when
    include_identity is set) and F any elements that complete W_{k-1} to
    W_k, that is W_k = W_{k-1} + span F.  Every word of length k + 1 is a
    word of length <= k times a generator, so W_{k+1} = W_k + W_k S =
    W_k + F S, since W_{k-1} S lies in W_k.  So each level multiplies only
    the previous level's new elements, on the right, and the closure stops
    when a level adds nothing.  The new elements may be taken as they were
    inserted or as their reductions against the span found so far: both
    complete the previous level.  Only spans enter the argument, so it holds
    for Z-spans as well (lattice_generates_MnZ).

    The field selects the path.  In characteristic 2 the closure is a
    spin-up on XOR bit vectors (_spin_up_f2k), over odd F_p on packed
    integer vectors (_spin_up_fp) and over odd F_{p^k} on flat lists of
    element ints (_spin_up_fq).  Over Q it is a spin-up on integer rows
    (_spin_up_q): each element is multiplied by the lcm of the denominators
    of all its copies, one nonzero scalar per element, and the identity is
    left as it is.  A word in the scaled elements is a nonzero multiple of
    the same word in S, so the Q-span of the words, and with it the
    dimension, is unchanged.  Every row is then an exact integer vector,
    with no modulus and no bound on its entries.  Over a finite field an
    entry that is not an int in [0, q) raises DomainError.
    """
    S = [tuple(elem) for elem in S]
    if field is None:
        if not S:
            raise DomainError("empty S needs an explicit field")
        field = S[0][0].domain
    if not field.is_field:
        raise DomainError("closure_generates requires a field domain")
    _validate_elements(S, shape, field)
    ambient = shape.total_dim
    if field.char == 2:
        dim = _spin_up_f2k(S, shape.copy_sizes, field, include_identity)
    elif field.kind == "prime_field":
        dim = _spin_up_fp(S, shape.copy_sizes, field, include_identity)
    elif field.kind == "rationals":
        dim = _spin_up_q(S, shape.copy_sizes, include_identity)
    else:
        dim = _spin_up_fq(S, shape.copy_sizes, field, include_identity)
    ok = dim == ambient
    return GenReport(
        verdict=ok,
        closure_dim=dim,
        ambient_dim=ambient,
        failed_condition=None if ok else ClosureDeficient(),
    )


def generates_single(mats: Sequence[Mat]) -> GenReport:
    """Do these matrices generate the full M_n over their (field) domain?"""
    mats = list(mats)
    n = mats[0].n
    return closure_generates([(a,) for a in mats], shape_of(n))


def tuple_criterion_generates(tuples: Sequence[MatTuple]) -> GenReport:
    """Do k m-tuples generate M_n(F)^m?

    True exactly when every vertical cross-section generates M_n(F) and no
    two cross-sections are simultaneously conjugate.  The direct span
    closure is run as well; if it disagrees with the criterion,
    InvariantError is raised.
    """
    tuples = list(tuples)
    if not tuples:
        raise DomainError("need at least one generator tuple")
    m = tuples[0].m
    n = tuples[0].n
    field = tuples[0].domain
    for t in tuples:
        if t.m != m or t.n != n or t.domain != field:
            raise DomainError("mismatched tuple shapes")
    if not field.is_field:
        raise DomainError("tuple_criterion_generates requires a field domain")

    shape = shape_of(n, m)
    elements = [tuple(t.mats) for t in tuples]
    closure = closure_generates(elements, shape)

    failed = None
    witness_line = None
    cross_sections = [mat_tuple([t.mats[i] for t in tuples]) for i in range(m)]
    for i, cs in enumerate(cross_sections):
        # one copy: the cross-section closure is the closure above
        single = closure if m == 1 else generates_single(cs.mats)
        if not single.verdict:
            failed = CrossSectionFails(i)
            if n == 2:
                try:
                    witness_line = common_eigenline(cs.mats)
                except DomainError:
                    # F_{q^2} is past the degree cap or too large to search;
                    # the closure has decided already
                    witness_line = None
            break
    if failed is None:
        for i in range(m):
            for j in range(i + 1, m):
                w = conjugacy.simultaneously_conjugate(cross_sections[i],
                                                       cross_sections[j])
                if w is not None:
                    failed = ConjugatePair(i, j, w)
                    break
            if failed is not None:
                break

    verdict = failed is None
    if verdict != closure.verdict:
        raise InvariantError(
            "tuple criterion disagrees with span closure; this is a bug")
    return GenReport(
        verdict=verdict,
        closure_dim=closure.closure_dim,
        ambient_dim=closure.ambient_dim,
        failed_condition=failed,
        eigen_witness=witness_line,
    )


def common_eigenline(S: Sequence[Mat]):
    """Common eigenline of 2x2 matrices over F_{q^2}, if any.

    Returns ALL_LINES when S is empty or consists of scalar matrices, a
    projective vector over the quadratic extension when a common eigenline
    exists, and None otherwise.  None is equivalent to generation.
    """
    S = list(S)
    if not S:
        return ALL_LINES
    field = S[0].domain
    for a in S:
        if a.n != 2:
            raise DomainError("common_eigenline handles n = 2 only")
        if a.domain != field:
            raise DomainError("mixed domains")
    first = next((a for a in S if not is_scalar_mat(a)), None)
    if first is None:
        return ALL_LINES
    E, embed = quadratic_extension(field)
    for line in quadratic_eigvecs(first):
        if all(line_is_invariant(line, a, E, embed) for a in S):
            return line
    return None


def flatten_det(a: Mat, b: Mat):
    """4x4 determinant of the flattened rows I, A, B, AB.

    Equal to det(AB - BA) as a polynomial identity; over a commutative ring
    its invertibility decides generation of M_2.
    """
    if a.n != 2 or b.n != 2:
        raise DomainError("flatten_det is defined for 2x2 matrices")
    if a.domain != b.domain:
        raise DomainError("mixed domains")
    d = a.domain
    rows = (
        vectorize(identity(d, 2)),
        vectorize(a),
        vectorize(b),
        vectorize(mmul(a, b)),
    )
    return det(Mat(d, 4, rows))


def det_commutator_generates(a: Mat, b: Mat) -> bool:
    """Do A, B generate M_2 over a field or Z?  det[A,B] must be a unit."""
    if a.n != 2 or b.n != 2:
        raise DomainError("det-commutator criterion is for 2x2 matrices")
    if a.domain != b.domain:
        raise DomainError("mixed domains")
    return a.domain.is_unit(det(commutator(a, b)))


def lattice_generates_MnZ(S: Sequence[Mat], n: int):
    """Does S generate M_n(Z) as a ring?  (identity adjoined throughout)

    The ring is the Z-span of the words in S, grown by the spin-up of
    closure_generates, whose lemma holds for Z-spans: each vector is
    inserted once into the lattice's echelon basis (IntLattice.insert), which
    returns None when the lattice holds it already.  No dimension
    stops it, as a lattice of full rank can have index > 1; it ends because
    every vector taken enlarges the lattice and Z^{n^2} is Noetherian.
    Generation means the closure is the full lattice Z^{n^2}.
    """
    S = list(S)
    for a in S:
        if a.n != n:
            raise DomainError("size mismatch")
        if a.domain.kind != "integers":
            raise DomainError("lattice test requires integer matrices")
    lattice = IntLattice(n * n)
    _spin_up(vectorize(identity(ZZ, n)), map(vectorize, S),
             [[(n, tuple(zip(*a.rows)))] for a in S], lattice.insert,
             _int_times, None)
    return lattice.is_full, lattice
