import functools
import hashlib
import itertools
import json
import random
import time

import pytest

from gl2_dense import dense_sweep
from matgen.conjugacy import (
    RHO_ITERATIONS,
    UndecidableError,
    conjugate_mod_p_bruteforce,
    intertwiners,
    nonconjugate_all_primes,
    simultaneously_conjugate,
)
from matgen.domains import (
    QQ,
    ZZ,
    DomainError,
    PrimeField,
    build_ext_field,
    field_of_order,
)
from matgen.generation import mat_tuple
from matgen.linalg import (
    Mat,
    det,
    det_rows,
    identity,
    madd,
    mat,
    mmul,
    smul,
    unit_mat,
    zero_mat,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def rand_mat(field, n, rng):
    elems = list(field.elements())
    return Mat(field, n, tuple(tuple(rng.choice(elems) for _ in range(n))
                               for _ in range(n)))


def rand_int_tuple(rng, length=2, span=2):
    return mat_tuple([mat(ZZ, [[rng.randrange(-span, span + 1) for _ in range(2)]
                               for _ in range(2)]) for _ in range(length)])


# --- intertwiner spaces ------------------------------------------------------

def test_centralizer_of_e11_is_diagonal():
    t = mat_tuple([unit_mat(F2, 2, 0, 0)])
    space = intertwiners(t, t)
    assert space.dim == 2
    for c in space.basis:
        assert c.rows[0][1] == 0 and c.rows[1][0] == 0


def test_zero_vs_identity_has_no_intertwiners():
    a = mat_tuple([zero_mat(F2, 2)])
    b = mat_tuple([identity(F2, 2)])
    assert intertwiners(a, b).dim == 0


def test_rational_intertwiners_all_singular():
    a = mat_tuple([unit_mat(QQ, 2, 0, 0), unit_mat(QQ, 2, 0, 1)])
    b = mat_tuple([unit_mat(QQ, 2, 0, 0), unit_mat(QQ, 2, 1, 0)])
    space = intertwiners(a, b)
    assert space.dim == 1
    assert all(det(c) == 0 for c in space.basis)


# --- simultaneous conjugacy over a field -------------------------------------

def test_self_conjugacy_returns_identity():
    t = mat_tuple([rand_mat(F3, 2, random.Random(0)) for _ in range(2)])
    w = simultaneously_conjugate(t, t)
    assert w.rows == identity(F3, 2).rows


def test_e12_conjugate_to_e21_by_swap():
    w = simultaneously_conjugate(mat_tuple([unit_mat(F2, 2, 0, 1)]),
                                 mat_tuple([unit_mat(F2, 2, 1, 0)]))
    assert w is not None
    assert mmul(w, unit_mat(F2, 2, 0, 1)).rows == mmul(unit_mat(F2, 2, 1, 0), w).rows


def test_ground_truth_frozen_by_brute_force():
    # these two pairs agree on eigenvalue data but no element of GL_2(F_2)
    # intertwines them (any intertwiner of E_11 with itself is diagonal)
    e11, e12, e21, e22 = (unit_mat(F2, 2, i, j) for i, j in
                          ((0, 0), (0, 1), (1, 0), (1, 1)))
    assert simultaneously_conjugate(mat_tuple([e11, madd(e11, e12)]),
                                    mat_tuple([e11, madd(e11, e21)])) is None
    assert simultaneously_conjugate(mat_tuple([e11, e12]),
                                    mat_tuple([e22, e12])) is None


def test_witnesses_are_symmetric_and_transitive():
    rng = random.Random(20)
    gl3 = [m for m in (rand_mat(F3, 2, rng) for _ in range(200))
           if F3.is_unit(det(m))][:10]
    for g in gl3[:5]:
        base = mat_tuple([rand_mat(F3, 2, rng) for _ in range(2)])
        conj = mat_tuple([mmul(mmul(_inv2(g), a), g) for a in base.mats])
        w_ab = simultaneously_conjugate(base, conj)
        w_ba = simultaneously_conjugate(conj, base)
        assert w_ab is not None and w_ba is not None
        for h in gl3[5:8]:
            conj2 = mat_tuple([mmul(mmul(_inv2(h), a), h) for a in conj.mats])
            assert simultaneously_conjugate(base, conj2) is not None


def _inv2(g):
    f = g.domain
    d = det(g)
    inv_d = f.inv(d)
    (a, b), (c, dd) = g.rows
    return Mat(f, 2, ((f.mul(inv_d, dd), f.mul(inv_d, f.neg(b))),
                      (f.mul(inv_d, f.neg(c)), f.mul(inv_d, a))))


def test_conjugation_invariance_of_verdicts():
    rng = random.Random(21)
    for _ in range(25):
        a = mat_tuple([rand_mat(F3, 2, rng) for _ in range(2)])
        b = mat_tuple([rand_mat(F3, 2, rng) for _ in range(2)])
        g = rand_mat(F3, 2, rng)
        if not F3.is_unit(det(g)):
            continue
        b_conj = mat_tuple([mmul(mmul(_inv2(g), x), g) for x in b.mats])
        assert (simultaneously_conjugate(a, b) is None) == \
            (simultaneously_conjugate(a, b_conj) is None)


def _enumerated_witness(space, field):
    """Reference: the first invertible combination of the intertwiner
    basis, enumerating every coefficient vector of the span."""
    for coeffs in itertools.product(list(field.elements()), repeat=space.dim):
        if any(coeffs):
            cand = functools.reduce(
                madd, (smul(c, b) for c, b in zip(coeffs, space.basis)))
            if field.is_unit(det(cand)):
                return cand
    return None


def _random_invertible(field, rng):
    while True:
        g = rand_mat(field, 2, rng)
        if field.is_unit(det(g)):
            return g


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_determinant_form_matches_enumeration(q):
    # random pairs (mostly dim 0), conjugated pairs (dim 1-2) and equal
    # scalar tuples (dim 4), with one and two components
    field = field_of_order(q)
    rng = random.Random(100 + q)
    dims = set()
    for k in range(45):
        m = 1 + k % 2
        a = mat_tuple([rand_mat(field, 2, rng) for _ in range(m)])
        if k % 3 == 0:
            b = a
        elif k % 3 == 1:
            g = _random_invertible(field, rng)
            b = mat_tuple([mmul(mmul(_inv2(g), x), g) for x in a.mats])
        else:
            b = mat_tuple([rand_mat(field, 2, rng) for _ in range(m)])
        if k % 9 == 0:
            c = rng.choice(list(field.elements()))
            a = b = mat_tuple([smul(c, identity(field, 2))] * m)
        space = intertwiners(a, b)
        dims.add(space.dim)
        w = simultaneously_conjugate(a, b)
        assert (w is None) == (_enumerated_witness(space, field) is None)
        if w is not None:
            assert field.is_unit(det(w))
            assert all(mmul(w, x).rows == mmul(y, w).rows
                       for x, y in zip(a.mats, b.mats))
    assert dims == {0, 1, 2, 4}


def test_undecidable_large_space_raises():
    # E_11 vs E_22 in M_4(F_5): a 10-dimensional intertwiner space, whose
    # grid of 5^9 points is past the enumeration cap
    f5 = PrimeField(5)
    start = time.perf_counter()
    with pytest.raises(UndecidableError, match="5\\^9 grid points"):
        simultaneously_conjugate(mat_tuple([unit_mat(f5, 4, 0, 0)]),
                                 mat_tuple([unit_mat(f5, 4, 1, 1)]))
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("field", [build_ext_field(3, 2), QQ], ids=["F9", "Q"])
def test_e11_against_e22_decided_past_the_old_enumeration(field):
    # a 5-dimensional intertwiner space: 9^5 points over F_9 and infinitely
    # many over Q, but a grid of 4^4 points; the witness swaps e_1 and e_2
    a = mat_tuple([unit_mat(field, 3, 0, 0)])
    b = mat_tuple([unit_mat(field, 3, 1, 1)])
    assert intertwiners(a, b).dim == 5
    w = simultaneously_conjugate(a, b)
    assert field.is_unit(det(w))
    assert mmul(w, a.mats[0]).rows == mmul(b.mats[0], w).rows
    support = [[x != 0 for x in row] for row in w.rows]
    assert support == [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
    if field == QQ:
        assert w.rows == ((0, 1, 0), (1, 0, 0), (0, 0, 1))


def _shears(field, n, rng, count=3):
    """count random shears I + c E_ij (i != j) and their inverses."""
    elems = list(field.elements())
    out = []
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = rng.choice(elems)
        s, s_inv = identity(field, n), identity(field, n)
        s = madd(s, smul(c, unit_mat(field, n, i, j)))
        s_inv = madd(s_inv, smul(field.neg(c), unit_mat(field, n, i, j)))
        out.append((s, s_inv))
    return out


def _structured_mat(field, n, rng):
    """A diagonal matrix on two values (a large centralizer), a sparse
    matrix, or a dense random one."""
    elems = list(field.elements())
    kind = rng.randrange(3)
    if kind == 2:
        return rand_mat(field, n, rng)
    rows = [[field.zero()] * n for _ in range(n)]
    if kind == 0:
        vals = rng.sample(elems, 2)
        for i in range(n):
            rows[i][i] = rng.choice(vals)
    else:
        for _ in range(rng.randrange(n + 1)):
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(elems)
    return mat(field, rows)


REFERENCE_CAP = 1 << 14


def _span_has_invertible(space, field):
    """Reference: does some combination of the basis, over every coefficient
    vector of F_q^dim, have a unit determinant?  Depth-first on partial
    sums of the flattened basis."""
    n = space.basis[0].n if space.dim else 0
    flat = [[x for row in b.rows for x in row] for b in space.basis]
    elems = list(field.elements())

    def search(i, acc):
        if i == space.dim:
            return field.is_unit(det_rows([acc[r * n:(r + 1) * n]
                                           for r in range(n)], field))
        return any(search(i + 1, [field.add(x, field.mul(c, y))
                                  for x, y in zip(acc, flat[i])])
                   for c in elems)

    return space.dim > 0 and search(0, [field.zero()] * (n * n))


def test_grid_rule_matches_exhaustive_enumeration():
    # n = 3 and 4 over F_2, F_3, F_4 (q <= n) and F_5, F_7 (q > n): every
    # witness intertwines and is invertible, the verdict equals the
    # enumeration of F_q^dim wherever that has at most REFERENCE_CAP
    # points, and past the grid's cap a pair of unequal tuples is refused
    from matgen.conjugacy import ENUMERATION_CAP

    rng = random.Random(16)
    dims, refused, found, checked = set(), 0, 0, 0
    for q in (2, 3, 4, 5, 7):
        field = field_of_order(q)
        for k in range(40):
            n = 3 + k % 2
            m = 1 + (k // 2) % 2
            a = mat_tuple([_structured_mat(field, n, rng) for _ in range(m)])
            if k % 4 == 2:
                b = mat_tuple([_structured_mat(field, n, rng) for _ in range(m)])
            else:
                # a conjugate of a, or for k % 4 == 3 of a with one
                # diagonal entry redrawn
                b = a
                if k % 4 == 3:
                    i = rng.randrange(n)
                    b = mat_tuple([madd(b.mats[0], smul(
                        rng.choice(list(field.elements())),
                        unit_mat(field, n, i, i)))] + list(b.mats[1:]))
                for s, s_inv in _shears(field, n, rng):
                    b = mat_tuple([mmul(mmul(s, x), s_inv) for x in b.mats])
            space = intertwiners(a, b)
            dims.add(space.dim)
            if (a.mats != b.mats
                    and min(q, n + 1) ** (space.dim - 1) > ENUMERATION_CAP):
                with pytest.raises(UndecidableError):
                    simultaneously_conjugate(a, b)
                refused += 1
                continue
            w = simultaneously_conjugate(a, b)
            if q ** space.dim <= REFERENCE_CAP:
                assert (w is not None) == _span_has_invertible(space, field)
                checked += 1
            if w is not None:
                found += 1
                assert field.is_unit(det(w))
                assert all(mmul(w, x).rows == mmul(y, w).rows
                           for x, y in zip(a.mats, b.mats))
    assert refused and found and max(dims) == 16 and 0 in dims
    assert checked > 100


# --- all-primes certificates --------------------------------------------------

def test_marked_table_pairs_certified():
    e11 = unit_mat(ZZ, 2, 0, 0)
    up_a = mat_tuple([e11, mat(ZZ, [[1, 1], [1, 0]])])
    up_b = mat_tuple([e11, mat(ZZ, [[0, 1], [1, 1]])])
    cert = nonconjugate_all_primes(up_a, up_b)
    assert cert.overall
    for p in (2, 3, 5, 7):
        assert conjugate_mod_p_bruteforce(up_a, up_b, p) is None

    fib = mat(ZZ, [[0, 1], [1, 1]])
    dn_a = mat_tuple([fib, e11])
    dn_b = mat_tuple([fib, unit_mat(ZZ, 2, 1, 1)])
    cert = nonconjugate_all_primes(dn_a, dn_b)
    assert cert.overall
    for p in (2, 3, 5, 7):
        assert conjugate_mod_p_bruteforce(dn_a, dn_b, p) is None


def test_identical_tuples_witnessed_at_two_with_identity():
    t = mat_tuple([unit_mat(ZZ, 2, 0, 0), mat(ZZ, [[1, 1], [1, 0]])])
    cert = nonconjugate_all_primes(t, t)
    assert not cert.overall
    p, w = cert.witness
    assert p == 2 and w.rows == identity(PrimeField(2), 2).rows


def test_transposed_units_conjugate_everywhere():
    cert = nonconjugate_all_primes(mat_tuple([unit_mat(ZZ, 2, 0, 1)]),
                                   mat_tuple([unit_mat(ZZ, 2, 1, 0)]))
    assert not cert.overall
    assert cert.witness[0] == 2


def test_certificate_lists_divisor_primes():
    from matgen.conjugacy import _stacked_rows
    from matgen.linalg import snf

    rng = random.Random(22)
    for _ in range(25):
        a, b = rand_int_tuple(rng), rand_int_tuple(rng)
        cert = nonconjugate_all_primes(a, b)
        rows = _stacked_rows(a, b, ZZ)
        listed = {pv.p for pv in cert.exceptional_primes}
        for d in snf(rows):
            if d > 1:
                f = 2
                while f * f <= d:
                    if d % f == 0:
                        assert f in listed
                        while d % f == 0:
                            d //= f
                    f += 1
                if d > 1:
                    assert d in listed
        assert 2 in listed


def test_modp_verdict_matches_the_public_deciders():
    # the verdict at p, zero kernels answered early, against intertwiners
    # and simultaneously_conjugate on the reduced tuples
    from matgen.conjugacy import PrimeVerdict, _modp_verdict, _stacked_rows
    from matgen.linalg import is_scalar_mat, reduce_mod

    rng = random.Random(24)

    def rand_int_mat(n, span):
        return mat(ZZ, [[rng.randint(-span, span) for _ in range(n)]
                        for _ in range(n)])

    dims, equal_mod_p = set(), set()
    for p in (2, 3, 5, 7):
        for n in (2, 3):
            one = identity(ZZ, n)
            for case in range(24):
                a = mat_tuple([rand_int_mat(n, 3) for _ in range(1 + case % 2)])
                if is_scalar_mat(reduce_mod(a.mats[0], p)):
                    continue  # its intertwiner span is past the grid's cap
                kind = case // 2 % 3
                if kind == 0:  # independent: mostly a zero kernel
                    b = mat_tuple([rand_int_mat(n, 3) for _ in a.mats])
                elif kind == 1:  # conjugate over Z by C = prod (I + s E_ij)
                    c = c_inv = one
                    for _ in range(4):
                        i, j = rng.sample(range(n), 2)
                        e = unit_mat(ZZ, n, i, j)
                        s = rng.choice((-1, 1))
                        c = mmul(c, madd(one, smul(s, e)))
                        c_inv = mmul(madd(one, smul(-s, e)), c_inv)
                    b = mat_tuple([mmul(mmul(c_inv, x), c) for x in a.mats])
                else:  # equal mod p, different over Z
                    b = mat_tuple([madd(x, smul(p, rand_int_mat(n, 1)))
                                   for x in a.mats])
                a_p = mat_tuple([reduce_mod(x, p) for x in a.mats])
                b_p = mat_tuple([reduce_mod(x, p) for x in b.mats])
                w = simultaneously_conjugate(a_p, b_p)
                want = PrimeVerdict(p, intertwiners(a_p, b_p).dim, w is not None, w)
                assert _modp_verdict(a, b, _stacked_rows(a, b, ZZ), p) == want
                dims.add((p, n, min(want.kernel_dim, 2)))
                if kind == 2:
                    equal_mod_p.add((p, n))
    cases = {(p, n) for p in (2, 3, 5, 7) for n in (2, 3)}
    assert dims == {(p, n, d) for p, n in cases for d in (0, 1, 2)}
    assert equal_mod_p == cases


def test_certificate_against_bruteforce_small_sample():
    rng = random.Random(23)
    for _ in range(40):
        a, b = rand_int_tuple(rng), rand_int_tuple(rng)
        cert = nonconjugate_all_primes(a, b)
        for p in (2, 3, 5, 7, 11, 13):
            brute = conjugate_mod_p_bruteforce(a, b, p)
            if brute is not None:
                assert not cert.overall
            if cert.overall:
                assert brute is None


def test_polarization_branch_matches_sweep_in_char_2():
    # the grid rule at n = 2 over F_2, whose grid is all of F_2, against
    # the GL_2(F_2) sweep
    f2 = PrimeField(2)
    rng = random.Random(8)
    for _ in range(120):
        az = rand_int_tuple(rng, span=1)
        bz = rand_int_tuple(rng, span=1)
        a = mat_tuple([mat(f2, [[x for x in r] for r in m.rows])
                       for m in az.mats])
        b = mat_tuple([mat(f2, [[x for x in r] for r in m.rows])
                       for m in bz.mats])
        w_polar = simultaneously_conjugate(a, b)
        w_brt = conjugate_mod_p_bruteforce(az, bz, 2)
        assert (w_polar is None) == (w_brt is None)


def test_bruteforce_rejects_oversized_groups():
    t = mat_tuple([unit_mat(ZZ, 2, 0, 0)])
    with pytest.raises(Exception):
        conjugate_mod_p_bruteforce(t, t, 37)


def test_bruteforce_self_returns_witness_for_any_p():
    t = mat_tuple([mat(ZZ, [[1, 2], [3, 4]])])
    for p in (2, 5, 31):
        w = conjugate_mod_p_bruteforce(t, t, p)
        assert w is not None


def test_certificate_json_shape():
    t = mat_tuple([unit_mat(ZZ, 2, 0, 0), mat(ZZ, [[1, 1], [1, 0]])])
    u = mat_tuple([unit_mat(ZZ, 2, 0, 0), mat(ZZ, [[0, 1], [1, 1]])])
    data = nonconjugate_all_primes(t, u).to_json()
    assert data["schema_version"] == 1
    assert data["overall"] is True
    assert isinstance(data["exceptional_primes"], list)


def test_bruteforce_refuses_a_composite_modulus():
    # refused whether or not a solution exists (here none does)
    zero = mat_tuple([zero_mat(ZZ, 2)])
    one = mat_tuple([identity(ZZ, 2)])
    with pytest.raises(DomainError):
        conjugate_mod_p_bruteforce(zero, one, 4)


# --- the sweep's outputs, pinned ---------------------------------------------

SWEEP_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _mul2(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]


def _sweep_cases():
    """24 seeded integer pairs, m = 1..4; every third is conjugate over Z
    by a unimodular matrix."""
    rng = random.Random(5)
    cases = []
    for k in range(24):
        m = 1 + k % 4
        a = [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
             for _ in range(m)]
        if k % 3 == 0:
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            u, u_inv = [[1 + s * t, s], [t, 1]], [[1, -s], [-t, 1 + s * t]]
            b = [_mul2(_mul2(u, x), u_inv) for x in a]
        else:
            b = [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                 for _ in range(m)]
        cases.append((mat_tuple([mat(ZZ, x) for x in a]),
                      mat_tuple([mat(ZZ, x) for x in b])))
    return cases


def _lex_first_conjugator(ta, tb, p):
    """Plain-Python reference: the first invertible C, in lexicographic
    order of its entries, with C A = B C (mod p) for every component."""
    for x1, x2, x3, x4 in itertools.product(range(p), repeat=4):
        c = [[x1, x2], [x3, x4]]
        if (x1 * x4 - x2 * x3) % p == 0:
            continue
        if all(all((u - v) % p == 0
                   for ru, rv in zip(_mul2(c, a.rows), _mul2(b.rows, c))
                   for u, v in zip(ru, rv))
               for a, b in zip(ta.mats, tb.mats)):
            return ((x1, x2), (x3, x4))
    return None


def test_sweep_matches_plain_lexicographic_search():
    for ta, tb in _sweep_cases():
        for p in (2, 3, 5, 7):
            w = conjugate_mod_p_bruteforce(ta, tb, p)
            assert (None if w is None else w.rows) == \
                _lex_first_conjugator(ta, tb, p)


def test_sweep_outputs_pinned():
    # digest of the witnesses (or None) of the sweep at all 11 primes up to
    # 31, taken when it still compared every cell of the p^2 x p^2 grid
    outputs = []
    for ta, tb in _sweep_cases():
        for p in SWEEP_PRIMES:
            w = conjugate_mod_p_bruteforce(ta, tb, p)
            outputs.append(None if w is None else w.rows)
    assert sum(w is not None for w in outputs) == 90
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == \
        "cebfbaa4f649cb0138e7004bf0176b4d147f7760b07b79251f853c5ef9616503"


def _conjugated_case(rng, m):
    """A seeded integer m-tuple and its conjugate by a unimodular matrix."""
    a = rand_int_tuple(rng, m)
    s, t = rng.randint(-3, 3), rng.randint(-3, 3)
    u, u_inv = [[1 + s * t, s], [t, 1]], [[1, -s], [-t, 1 + s * t]]
    b = mat_tuple([mat(ZZ, _mul2(_mul2(u, x.rows), u_inv)) for x in a.mats])
    return a, b


def test_sweep_comparison_paths_match_plain_search():
    # at p = 17 the m = 1 codes (17^4 < 2^31) are compared directly on
    # every row, the m = 2 codes (17^8 > 2^31) by rank, and the m = 4 codes
    # (16 equations, 15 per code) by ranks combined over two runs; on both
    # rank paths only the rows whose rank occurs among the columns are
    # compared.  The pairs are conjugate, so the plain search stops at the
    # first conjugator instead of scanning all 17^4 cells; every cell before
    # it must fail on the sweep as well.
    rng = random.Random(17)
    for m in (1, 2, 4):
        for _ in range(2):
            ta, tb = _conjugated_case(rng, m)
            want = _lex_first_conjugator(ta, tb, 17)
            assert want is not None
            assert conjugate_mod_p_bruteforce(ta, tb, 17).rows == want


def test_sweep_memory_stays_below_two_bool_grids():
    # one p^4 bool grid per pass, no int64 grid (8 p^4 bytes); equal scalar
    # tuples keep every row, which is compared without a copy of the det mask
    import tracemalloc

    p = 31
    scalar = mat_tuple([mat(ZZ, [[3, 0], [0, 3]])] * 4)
    for ta, tb in (_conjugated_case(random.Random(3), 4), (scalar, scalar)):
        conjugate_mod_p_bruteforce(ta, tb, p)  # the cached candidate grid
        tracemalloc.start()
        try:
            conjugate_mod_p_bruteforce(ta, tb, p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * p ** 4 + 64 * 1024


def _row_filter_cases():
    """Pairs that reach the direct code (m = 1), a single rank (m = 2, 3)
    and combined ranks (m = 4) at p = 17 and 31.  On the rank paths the
    sweep keeps every row of equal scalar tuples, p rows of a conjugate
    pair, and only the zero row, whose cells are all singular, of zero
    against identity and of most random pairs."""
    scalar, zero, one = (mat(ZZ, [[c, 0], [0, c]]) for c in (3, 0, 1))
    cases = [(mat_tuple([scalar] * m), mat_tuple([scalar] * m)) for m in (1, 4)]
    cases += [(mat_tuple([zero] * m), mat_tuple([one] * m)) for m in (1, 2, 4)]
    rng = random.Random(31)
    for m in (1, 2, 3, 4):
        cases.append(_conjugated_case(rng, m))
        cases.append((rand_int_tuple(rng, m), rand_int_tuple(rng, m)))
    return cases


def test_sweep_matches_the_dense_sweep():
    # the dense sweep compares all p^4 cells; the rows the sweep drops hold
    # no key of the other half, so both return the same witness or None
    for ta, tb in _sweep_cases() + _row_filter_cases():
        for p in SWEEP_PRIMES:
            w = conjugate_mod_p_bruteforce(ta, tb, p)
            assert (None if w is None else w.rows) == dense_sweep(ta, tb, p)


def test_sweep_uses_no_linear_algebra(monkeypatch):
    import matgen.conjugacy as conjugacy
    import matgen.linalg as linalg

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep called the linear algebra")

    for name in ("hnf", "snf", "kernel_basis", "det"):
        monkeypatch.setattr(linalg, name, refuse)
        if hasattr(conjugacy, name):
            monkeypatch.setattr(conjugacy, name, refuse)
    ta, tb = _conjugated_case(random.Random(8), 2)
    for p in (5, 31):
        w = conjugate_mod_p_bruteforce(ta, tb, p)
        assert w is not None and w.rows == dense_sweep(ta, tb, p)
    with pytest.raises(AssertionError, match="linear algebra"):
        nonconjugate_all_primes(ta, tb)


def test_sweep_refuses_tuples_it_cannot_read():
    f4, f5 = field_of_order(4), PrimeField(5)
    e11, e12 = unit_mat(ZZ, 2, 0, 0), unit_mat(ZZ, 2, 0, 1)
    # a second matrix without a partner
    with pytest.raises(DomainError):
        conjugate_mod_p_bruteforce(mat_tuple([e11, e12]), mat_tuple([e11]), 5)
    # F_4 entries read mod 2
    omega_e11 = smul(f4.gen(), unit_mat(f4, 2, 0, 0))
    with pytest.raises(DomainError):
        conjugate_mod_p_bruteforce(mat_tuple([omega_e11]),
                                   mat_tuple([zero_mat(f4, 2)]), 2)
    # F_5 entries read mod 3
    t5 = mat_tuple([mat(f5, [[1, 2], [3, 4]])])
    with pytest.raises(DomainError):
        conjugate_mod_p_bruteforce(t5, t5, 3)


def test_sweep_reduces_large_entries_exactly():
    # entries past int64 are reduced as integers: 2^70 + 1 is 2 mod 3 and
    # 0 mod 5, where diag(0, 1) and diag(2, 1) are not conjugate
    big = mat_tuple([mat(ZZ, [[2 ** 70 + 1, 0], [0, 1]])])
    two = mat_tuple([mat(ZZ, [[2, 0], [0, 1]])])
    assert conjugate_mod_p_bruteforce(big, two, 3).rows == ((1, 0), (0, 1))
    assert conjugate_mod_p_bruteforce(big, two, 5) is None


def test_certificate_outputs_pinned():
    # digest of the certificates of the sweep cases and 40 seeded pairs,
    # each witness matrix replaced by its presence; taken when n = 2 mod-p
    # witnesses still came from enumerating the intertwiner span
    rng = random.Random(24)
    cases = _sweep_cases()
    for k in range(40):
        m = 1 + k % 3
        cases.append((rand_int_tuple(rng, m), rand_int_tuple(rng, m)))
    docs = []
    for ta, tb in cases:
        data = nonconjugate_all_primes(ta, tb).to_json()
        for pv in data["exceptional_primes"]:
            pv["witness"] = pv["witness"] is not None
        if data["witness_prime"] is not None:
            data["witness_prime"]["witness"] = True
        docs.append(data)
    assert sum(d["overall"] for d in docs) == 49
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    assert digest == \
        "485756ea66ce3f5b6e1bd0fb926e4ccfe3753e93498b0da6f53198052026a165"


# --- factoring the elementary divisors ----------------------------------------

def _upper_pair(n):
    return mat_tuple([mat(ZZ, [[0, 1], [0, n]]), mat(ZZ, [[0, 1], [0, 0]])])


def test_certificate_factors_a_product_of_mersenne_primes():
    # trial division to sqrt of this elementary divisor never finished
    m31, m61 = 2**31 - 1, 2**61 - 1
    t = _upper_pair(m31 * m61)
    start = time.perf_counter()
    cert = nonconjugate_all_primes(t, t)
    assert time.perf_counter() - start < 2
    listed = {pv.p for pv in cert.exceptional_primes}
    assert {2, m31, m61} <= listed
    assert not cert.overall and cert.witness[0] == 2


def test_certificate_refuses_a_semiprime_beyond_the_rho_cap():
    # both factors are near 2^89 and 2^107: rho needs about 2^44 steps
    t = _upper_pair((2**89 - 1) * (2**107 - 1))
    with pytest.raises(UndecidableError, match=str(RHO_ITERATIONS)):
        nonconjugate_all_primes(t, t)


# --- n >= 3 certificates by Schur's lemma --------------------------------------

def _xy3():
    from matgen.construct import standard_xy

    return standard_xy(3, ZZ)


def _shear3():
    """U = I + E_12 and its inverse."""
    return (mat(ZZ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
            mat(ZZ, [[1, -1, 0], [0, 1, 0], [0, 0, 1]]))


def test_3x3_certificate_of_a_non_generating_tuple_matches_every_prime():
    # (X, Y) generates M_3(Z) and (X, X) does not; the certificate needs
    # neither, and its verdicts agree with the field decision mod p
    X, Y = _xy3()
    a, b = mat_tuple([X, Y]), mat_tuple([X, X])
    cert = nonconjugate_all_primes(a, b)
    assert cert.overall and cert.rational_kernel_dim == 0
    verdicts = {pv.p: pv.invertible_found for pv in cert.exceptional_primes}
    primes = sorted(set(verdicts) | {2, 3, 5, 7, 11, 13})
    for p in primes:
        fp = PrimeField(p)
        reduced = [mat_tuple([mat(fp, [[x % p for x in r] for r in m.rows])
                              for m in t.mats]) for t in (a, b)]
        conj = simultaneously_conjugate(*reduced) is not None
        assert verdicts.get(p, conj) == conj
        assert not conj
    assert cert.witness is None


def test_3x3_certificate_of_conjugate_tuples_reads_by_schur():
    X, Y = _xy3()
    u, u_inv = _shear3()
    a = mat_tuple([X, Y])
    b = mat_tuple([mmul(mmul(u, x), u_inv) for x in (X, Y)])
    cert = nonconjugate_all_primes(a, b)
    assert not cert.overall
    assert cert.rational_kernel_dim == 1 and not cert.det_vanishes_on_kernel
    assert cert.polarization_cross == ()
    assert all(pv.kernel_dim == 1 for pv in cert.exceptional_primes)
    p, w = cert.witness
    assert p == 2 and w.rows == tuple(tuple(x % 2 for x in r) for r in u.rows)


def test_3x3_pair_conjugate_only_above_the_enumeration_cap_is_decided():
    # conjugate mod 4099 > ENUMERATION_CAP only, by U, not by the identity
    X, Y = _xy3()
    p = 4099
    u, u_inv = _shear3()
    z = mat(ZZ, [[0, 1, -1], [-1, 1, -1], [1, 0, 1]])
    a = mat_tuple([X, Y])
    b = mat_tuple([mmul(mmul(u, x), u_inv) for x in (X, madd(Y, smul(p, z)))])
    cert = nonconjugate_all_primes(a, b)
    assert not cert.overall and cert.rational_kernel_dim == 0
    assert [pv.p for pv in cert.exceptional_primes] == [2, p]
    assert cert.witness[0] == p
    assert cert.witness[1].rows == u.rows
    fp = PrimeField(p)
    reduced = [mat_tuple([mat(fp, [[x % p for x in r] for r in m.rows])
                          for m in t.mats]) for t in (a, b)]
    assert simultaneously_conjugate(*reduced).rows == u.rows


def _certificate_kernel_first(ta, tb):
    """nonconjugate_all_primes in its earlier order: the saturated kernel
    is built for every stacked system, full column rank included, and the
    Smith form after it."""
    import matgen.conjugacy as cj
    from matgen.domains import is_prime
    from matgen.linalg import integer_kernel_saturated, snf

    rows = cj._stacked_rows(ta, tb, ZZ)
    space = cj._kernel_space(integer_kernel_saturated(rows, ta.n ** 2), ta, tb)
    dim = space.dim
    points = cj._span_points(space.basis, range(ta.n + 1))
    form = list(itertools.islice(points, dim * (dim + 1) // 2))
    dets = tuple(d for _, d in form[:dim])
    cross = tuple((i, j, d - dets[i] - dets[j]) for (i, j), (_, d)
                  in zip(itertools.combinations(range(dim), 2), form[dim:]))
    bound = next((abs(d) for _, d in itertools.chain(form, points) if d != 0), 0)
    primes = {2}.union(*(cj._prime_factors(abs(d)) for d in snf(rows)))
    verdicts = {p: cj._modp_verdict(ta, tb, rows, p) for p in sorted(primes)}
    witness = None
    if bound == 0:
        witness = next(((p, verdicts[p].witness) for p in sorted(primes)
                        if verdicts[p].invertible_found), None)
    else:
        for p in filter(is_prime, itertools.count(2)):
            v = verdicts.get(p) or cj._modp_verdict(ta, tb, rows, p)
            verdicts[p] = v
            if v.invertible_found:
                witness = (p, v.witness)
                break
            assert p <= bound
    return cj.NonConjCertificate(
        dim, bound == 0, dets, cross, tuple(verdicts[p] for p in sorted(verdicts)),
        witness, bound == 0 and witness is None)


def _unimodular3(rng):
    """A product of three seeded shears I + s E_ij, and its inverse."""
    u, u_inv = identity(ZZ, 3), identity(ZZ, 3)
    for _ in range(3):
        i, j = rng.sample(range(3), 2)
        s = rng.choice((-2, -1, 1, 2))
        u = mmul(u, madd(identity(ZZ, 3), smul(s, unit_mat(ZZ, 3, i, j))))
        u_inv = mmul(madd(identity(ZZ, 3), smul(-s, unit_mat(ZZ, 3, i, j))), u_inv)
    return u, u_inv


def test_3x3_certificate_matches_the_kernel_first_order(monkeypatch):
    # the saturated kernel is built only for rank-deficient systems (the
    # conjugate copies); the generic pairs have full column rank, so kernel
    # {0}, and every field of the certificate is as before
    import matgen.conjugacy as conjugacy

    calls = []
    kernel = conjugacy.integer_kernel_saturated

    def counted(rows, ncols):
        calls.append(ncols)
        return kernel(rows, ncols)

    monkeypatch.setattr(conjugacy, "integer_kernel_saturated", counted)
    rng = random.Random(33)
    ranks = set()
    for k in range(12):
        a = [mat(ZZ, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
             for _ in range(2)]
        if k % 2 == 0:
            u, u_inv = _unimodular3(rng)
            b = [mmul(mmul(u, x), u_inv) for x in a]
        else:
            b = [mat(ZZ, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
                 for _ in range(2)]
        ta, tb = mat_tuple(a), mat_tuple(b)
        calls.clear()
        got = nonconjugate_all_primes(ta, tb).to_json()
        want = _certificate_kernel_first(ta, tb).to_json()
        assert got.keys() == want.keys()
        for field in want:
            assert got[field] == want[field], field
        deficient = got["rational_kernel_dim"] > 0
        assert len(calls) == deficient
        if k % 2 == 0:
            assert deficient and not got["overall"]
        ranks.add(deficient)
    assert ranks == {False, True}
