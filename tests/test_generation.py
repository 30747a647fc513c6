import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matgen import generation
from matgen.domains import (
    QQ,
    TABLE_MAX,
    ZZ,
    DomainError,
    PrimeField,
    field_of_order,
)
from matgen.generation import (
    ClosureDeficient,
    ConjugatePair,
    CrossSectionFails,
    DirectSumShape,
    common_eigenline,
    closure_generates,
    det_commutator_generates,
    generates_single,
    lattice_generates_MnZ,
    mat_tuple,
    shape_of,
    tuple_criterion_generates,
    flatten_det,
)
from matgen.linalg import (
    ALL_LINES,
    Echelon,
    IntLattice,
    Mat,
    commutator,
    det,
    identity,
    madd,
    mat,
    mmul,
    smul,
    unit_mat,
    unvectorize,
    vectorize,
)

F2 = PrimeField(2)
F3 = PrimeField(3)

E11 = unit_mat(F2, 2, 0, 0)
E12 = unit_mat(F2, 2, 0, 1)
E21 = unit_mat(F2, 2, 1, 0)
SWAP = mat(F2, [[0, 1], [1, 0]])
ONES = mat(F2, [[1, 1], [1, 1]])
FIB = mat(F2, [[0, 1], [1, 1]])


def rand_mat(field, n, rng):
    elems = list(field.elements())
    return Mat(field, n, tuple(tuple(rng.choice(elems) for _ in range(n))
                               for _ in range(n)))


# --- closure ----------------------------------------------------------------

def test_closure_standard_pair_n3():
    from matgen.construct import standard_xy

    X, Y = standard_xy(3, F2)
    rep = closure_generates([(X,), (Y,)], shape_of(3))
    assert rep.verdict and rep.closure_dim == 9


def test_closure_identity_alone_fails():
    rep = closure_generates([(identity(F3, 2),)], shape_of(2))
    assert not rep.verdict and rep.closure_dim == 1
    assert isinstance(rep.failed_condition, ClosureDeficient)


def test_closure_e12_e21():
    rep = closure_generates([(E12,), (E21,)], shape_of(2),
                            include_identity=False)
    assert rep.verdict and rep.closure_dim == 4


def test_closure_empty_set():
    rep = closure_generates([], shape_of(2), include_identity=False, field=F2)
    assert not rep.verdict and rep.closure_dim == 0


def test_identity_irrelevance():
    # adjoining 1 never changes the verdict when every block size is >= 2
    rng = random.Random(11)
    for q, copies in ((2, 1), (2, 2), (3, 1)):
        field = PrimeField(q)
        shape = shape_of(2, copies)
        for _ in range(40):
            S = [tuple(rand_mat(field, 2, rng) for _ in range(copies))
                 for _ in range(2)]
            with_id = closure_generates(S, shape, include_identity=True)
            without = closure_generates(S, shape, include_identity=False)
            assert with_id.verdict == without.verdict


def both_sided_closure(S, shape, include_identity, field):
    """Reference span closure: every level multiplies the new elements by
    every generator on both sides.  Returns (verdict, closure_dim)."""
    def vec(elem):
        return tuple(x for a in elem for x in vectorize(a))

    span = Echelon(field)
    if include_identity:
        span.insert(vec(tuple(identity(field, n) for n in shape.copy_sizes)))
    frontier = [elem for elem in S if span.insert(vec(elem))]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in S:
                for prod in (tuple(map(mmul, e, g)), tuple(map(mmul, g, e))):
                    if span.insert(vec(prod)):
                        new_frontier.append(prod)
        frontier = new_frontier
    return span.dim == shape.total_dim, span.dim


def _rand_element(field, sizes, rng, triangular, repeat):
    if field is QQ:
        pick = lambda: Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
    else:
        elems = list(field.elements())
        pick = lambda: rng.choice(elems)
    out = []
    for n in sizes:
        if repeat and out and out[-1].n == n:
            out.append(out[-1])
            continue
        out.append(mat(field, [[field.zero() if triangular and i > j else pick()
                                for j in range(n)] for i in range(n)]))
    return tuple(out)


@pytest.mark.parametrize("q", [2, 5, 4, 8, 9, 81, "Q"])
def test_right_product_closure_matches_both_sided_reference(q):
    field = QQ if q == "Q" else field_of_order(q)
    rng = random.Random(f"closure-{q}")
    shapes = [shape_of(2), shape_of(3), shape_of(2, 2),
              DirectSumShape(((2, 1), (3, 1)))]
    verdicts = set()
    for shape in shapes:
        for trial in range(4 if q in (81, "Q") else 12):
            triangular, repeat = trial % 4 == 1, trial % 4 == 2
            S = [_rand_element(field, shape.copy_sizes, rng, triangular, repeat)
                 for _ in range(1 + trial % 3)]
            for include_identity in (True, False):
                rep = closure_generates(S, shape, include_identity, field)
                want = both_sided_closure(S, shape, include_identity, field)
                assert (rep.verdict, rep.closure_dim) == want
                verdicts.add(rep.verdict)
    assert verdicts == {True, False}


def echelon_closure(S, shape, include_identity, field):
    """Reference span closure on Mat tuples: every level multiplies the
    inserted elements by every generator on the right, and an Echelon over
    the field's methods holds the span.  Returns (verdict, closure_dim)."""
    def vec(elem):
        return tuple(x for a in elem for x in vectorize(a))

    span = Echelon(field)
    if include_identity:
        span.insert(vec(tuple(identity(field, n) for n in shape.copy_sizes)))
    frontier = [elem for elem in S if span.insert(vec(elem))]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in S:
                prod = tuple(map(mmul, e, g))
                if span.insert(vec(prod)):
                    new_frontier.append(prod)
        frontier = new_frontier
    return span.dim == shape.total_dim, span.dim


@st.composite
def _finite_closure_case(draw, field, max_dim=40):
    """(S, shape, include_identity) over a finite field: one to three
    blocks with n <= 4 and at most max_dim dimensions, up to three
    elements.  Components of equal size within an element may repeat and
    matrices may be triangular, so that deficient closures occur; entries
    favour 0, 1 and -1, which is the int p - 1 in every field and the
    largest slot load over F_p."""
    q, minus_one = field.size, field.neg(1)
    blocks = draw(st.lists(st.tuples(st.integers(2, 4), st.integers(1, 2)),
                           min_size=1, max_size=3)
                  .filter(lambda b: sum(m * n * n for n, m in b) <= max_dim))
    shape = DirectSumShape(tuple(blocks))
    entry = st.one_of(st.sampled_from([0, 1, minus_one]),
                      st.integers(0, q - 1))
    rare = st.sampled_from([False, False, False, True])
    repeat, triangular = draw(rare), draw(rare)
    S = []
    for _ in range(draw(st.integers(0, 3))):
        elem = []
        for n in shape.copy_sizes:
            if repeat and elem and elem[-1].n == n:
                elem.append(elem[-1])
                continue
            elem.append(mat(field, [[0 if triangular and i > j else draw(entry)
                                     for j in range(n)] for i in range(n)]))
        S.append(tuple(elem))
    return S, shape, draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packed_fp_closure_matches_echelon_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7, 31, 2**61 - 1]))
    field = PrimeField(p)
    S, shape, include_identity = data.draw(_finite_closure_case(field))
    rep = closure_generates(S, shape, include_identity, field)
    want = echelon_closure(S, shape, include_identity, field)
    assert (rep.verdict, rep.closure_dim) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_packed_fq_closure_matches_echelon_reference(data):
    # F_4, F_8 and F_16 close on XOR bit vectors; at odd characteristic
    # the flat rows index the ExtField tables from F_9 to F_49 and call the
    # field's methods at F_81 and F_125, where the Mat reference is slow
    # enough to cap the dimension; F_32 and F_64 need degrees above
    # build_ext_field's cap of 4
    q = data.draw(st.sampled_from([4, 8, 9, 16, 25, 27, 49, 81, 125]))
    field = field_of_order(q)
    S, shape, include_identity = data.draw(
        _finite_closure_case(field, 40 if q <= TABLE_MAX else 20))
    rep = closure_generates(S, shape, include_identity, field)
    want = echelon_closure(S, shape, include_identity, field)
    assert (rep.verdict, rep.closure_dim) == want


def _large_char2_case(field, rng, min_dim):
    """(S, sizes): at least min_dim dimensions in blocks of sizes 2, 3 and
    4, one to three elements.  So that the closure falls short, some copies
    are upper triangular in every element, and some repeat an earlier copy
    of their size in every element, as it is or conjugated by one fixed
    P = I + r E_{1n}, its own inverse in characteristic 2."""
    q, sizes = field.size, []
    while sum(n * n for n in sizes) < min_dim:
        sizes.append(rng.choice([2, 3, 4]))
    repeats, triangular = {}, set()
    for j, n in enumerate(sizes):
        earlier = [i for i in range(j) if sizes[i] == n and i not in repeats]
        if earlier and rng.random() < 0.25:
            P = madd(identity(field, n),
                     smul(rng.randrange(q), unit_mat(field, n, 0, n - 1)))
            repeats[j] = (rng.choice(earlier), P)
        elif rng.random() < 0.15:
            triangular.add(j)
    S = []
    for _ in range(rng.choice([1, 2, 2, 3])):
        elem = []
        for j, n in enumerate(sizes):
            if j in repeats:
                i, P = repeats[j]
                elem.append(mmul(mmul(P, elem[i]), P))
                continue
            # Mat, not mat: mat would reduce the ints mod 2
            elem.append(Mat(field, n, tuple(
                tuple(0 if j in triangular and r > c else rng.randrange(q)
                      for c in range(n)) for r in range(n))))
        S.append(tuple(elem))
    return S, sizes


@pytest.mark.parametrize("q", [2, 4, 8, 16])
def test_xor_closure_matches_the_odd_characteristic_kernels_at_scale(q):
    # the odd-characteristic kernels still accept characteristic 2, and are
    # the references here, from 64 to about 300 dimensions
    field = field_of_order(q)
    reference = generation._spin_up_fp if q == 2 else generation._spin_up_fq
    rng = random.Random(f"xor-closure-{q}")
    cases = [_large_char2_case(field, rng, min_dim)
             for min_dim in (64, 120, 200, 300)]
    # 13 copies of random generating pairs of M_4: the closure is full
    pairs = []
    while len(pairs) < 13:
        pair = [rand_mat(field, 4, rng) for _ in range(2)]
        if generates_single(pair).verdict:
            pairs.append(pair)
    cases.append((list(zip(*pairs)), [4] * 13))
    cases.append(([], [2, 3, 4] * 4))
    shortfalls = []
    for S, sizes in cases:
        for include_identity in (True, False):
            dim = generation._spin_up_f2k(S, sizes, field, include_identity)
            assert dim == reference(S, sizes, field, include_identity)
            shortfalls.append((dim, sum(n * n for n in sizes) - dim))
    assert shortfalls[-4:] == [(208, 0), (208, 0), (1, 115), (0, 116)]
    assert all(short > 0 for _, short in shortfalls[:-4])


def test_xor_closure_over_f2_at_dimension_1728_in_bounded_time():
    # 192 random pairs of M_3(F_2) copies; the packed F_p kernel takes
    # several seconds on this family
    rng = random.Random(1728)
    shape = shape_of(3, 192)
    S = [tuple(rand_mat(F2, 3, rng) for _ in range(192)) for _ in range(2)]
    want = generation._spin_up_fp(S, shape.copy_sizes, F2, True)
    start = time.perf_counter()
    rep = closure_generates(S, shape, field=F2)
    assert time.perf_counter() - start < 1.5
    assert rep.closure_dim == want


@pytest.mark.parametrize("q", [5, 9, 81])
def test_closure_refuses_non_canonical_fq_entries(q):
    # F_9 is table-driven and F_81 is not; over F_9 the entries 9 and 10
    # would read wrong table cells without any error, and over F_5 the
    # packed slots would read 5 and 6 as 0 and 1
    field = field_of_order(q)
    good = mat(field, [[0, 1], [1, 1]])
    for bad in (q, q + 1, -1, 1.0, True, None):
        elem = Mat(field, 2, ((bad, 0), (0, 1)))
        for S in ([(elem,)], [(good,), (elem,)]):
            with pytest.raises(DomainError):
                closure_generates(S, shape_of(2), field=field)
        with pytest.raises(DomainError):
            closure_generates([(good, elem)], shape_of(2, 2), field=field)


def test_packed_fp_closure_at_a_127_bit_prime():
    # p - 1 everywhere loads every slot of a product with n (p - 1)^2
    p = 2**127 - 1
    field = PrimeField(p)
    rng = random.Random(127)
    shape = DirectSumShape(((2, 1), (3, 2)))
    full = mat(field, [[p - 1] * 3] * 3)
    S = [(mat(field, [[p - 1, p - 1], [p - 1, 0]]), full,
          mat(field, [[rng.randrange(p) for _ in range(3)] for _ in range(3)]))
         for _ in range(2)]
    S.append(tuple(mat(field, [[rng.choice([0, 1, p - 1, rng.randrange(p)])
                                for _ in range(n)] for _ in range(n)])
                   for n in shape.copy_sizes))
    for include_identity in (True, False):
        for gens in (S[:1], S[:2], S):
            rep = closure_generates(gens, shape, include_identity, field)
            want = echelon_closure(gens, shape, include_identity, field)
            assert (rep.verdict, rep.closure_dim) == want


@st.composite
def _q_closure_case(draw):
    """(S, shape, include_identity) over Q: one to three blocks with n <= 3,
    up to three elements.  Numerators and denominators reach 2^64.  So that
    deficient closures occur, an element may be zero, all elements may be
    upper triangular, and in every element a copy may repeat the copy
    before it of the same size, as it is or conjugated by one fixed
    I + r E_{1n} per copy; the copies of one element then carry different
    denominators."""
    blocks = draw(st.lists(st.tuples(st.integers(2, 3), st.integers(1, 2)),
                           min_size=1, max_size=3)
                  .filter(lambda b: sum(m * n * n for n, m in b) <= 18))
    shape = DirectSumShape(tuple(blocks))
    big = 2**64
    entry = st.builds(Fraction,
                      st.one_of(st.integers(-3, 3), st.integers(-big, big)),
                      st.one_of(st.integers(1, 4), st.integers(1, big)))
    rare = st.sampled_from([False, False, False, True])
    repeat = draw(st.sampled_from([None, None, None, None, "equal", "conjugate"]))
    triangular = draw(rare)
    shifts = [draw(entry) if repeat == "conjugate" else 0
              for _ in shape.copy_sizes]
    S = []
    for _ in range(3 - draw(st.integers(0, 3))):  # small draws lean to 0
        zero = draw(rare)
        elem = []
        for n, r in zip(shape.copy_sizes, shifts):
            if repeat and elem and elem[-1].n == n:
                shift = smul(r, unit_mat(QQ, n, 0, n - 1))
                p, p_inv = (madd(identity(QQ, n), smul(sign, shift))
                            for sign in (1, -1))
                elem.append(mmul(mmul(p, elem[-1]), p_inv))
                continue
            elem.append(mat(QQ, [[0 if zero or triangular and i > j
                                  else draw(entry) for j in range(n)]
                                 for i in range(n)]))
        S.append(tuple(elem))
    return S, shape, draw(st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=_q_closure_case())
def test_integer_q_closure_matches_fraction_reference(case):
    S, shape, include_identity = case
    rep = closure_generates(S, shape, include_identity, QQ)
    want = echelon_closure(S, shape, include_identity, QQ)
    assert (rep.verdict, rep.closure_dim) == want


# --- the tuple criterion ----------------------------------------------------

def test_th1_table_row_pair():
    # two generators of M_2(F_2)^2 whose cross-sections are the first two
    # entries of the embedded 16-pair table, reduced mod 2
    g1 = mat_tuple([E11, E11])
    g2 = mat_tuple([SWAP, ONES])
    rep = tuple_criterion_generates([g1, g2])
    assert rep.verdict and rep.closure_dim == 8


def test_th1_identical_cross_sections():
    g1 = mat_tuple([E11, E11])
    g2 = mat_tuple([SWAP, SWAP])
    rep = tuple_criterion_generates([g1, g2])
    assert not rep.verdict
    assert isinstance(rep.failed_condition, ConjugatePair)
    assert rep.failed_condition.i == 0 and rep.failed_condition.j == 1
    assert rep.failed_condition.witness.rows == identity(F2, 2).rows


def test_th1_failing_cross_section_carries_eigenline():
    # both columns share the eigenvector (1,0): condition 1 fails
    g1 = mat_tuple([E11, E11])
    g2 = mat_tuple([E12, madd(E11, E12)])
    rep = tuple_criterion_generates([g1, g2])
    assert not rep.verdict
    assert rep.failed_condition is not None
    assert rep.eigen_witness is not None


def test_th1_single_copy_reduces_to_closure():
    rng = random.Random(12)
    for _ in range(30):
        mats = [rand_mat(F3, 2, rng) for _ in range(2)]
        rep = tuple_criterion_generates([mat_tuple([a]) for a in mats])
        direct = generates_single(mats)
        assert rep.verdict == direct.verdict


def test_single_copy_criterion_runs_one_closure(monkeypatch):
    from matgen import generation
    from matgen.construct import standard_xy_family

    fam = standard_xy_family(3, field_of_order(9))
    shapes = []
    closure = generation.closure_generates

    def counted(S, shape, *args, **kwargs):
        shapes.append(shape)
        return closure(S, shape, *args, **kwargs)

    monkeypatch.setattr(generation, "closure_generates", counted)
    rep = tuple_criterion_generates([mat_tuple(list(g)) for g in fam.generators])
    assert rep.verdict and shapes == [shape_of(3, 1)]


@pytest.mark.parametrize("q", [8, 16, 10007])
def test_failing_cross_section_without_a_searchable_extension(q):
    # F_64 and F_256 are past the degree cap, F_10007^2 past the search
    # bound: the closure decides and the witness is left out
    field = field_of_order(q)
    a, b = mat(field, [[3, 5], [0, 7]]), mat(field, [[1, 2], [0, 6]])
    start = time.perf_counter()
    rep = tuple_criterion_generates([mat_tuple([a]), mat_tuple([b])])
    assert not rep.verdict and rep.failed_condition == CrossSectionFails(0)
    assert rep.eigen_witness is None
    assert time.perf_counter() - start < 1.0


# --- common eigenlines -------------------------------------------------------

def test_common_eigenline_examples():
    assert common_eigenline([E12, E21]) is None
    line = common_eigenline([unit_mat(F3, 2, 0, 0), unit_mat(F3, 2, 0, 1)])
    assert line is not None and line is not ALL_LINES
    assert common_eigenline([FIB, E11]) is None
    assert common_eigenline([]) is ALL_LINES
    assert common_eigenline([identity(F2, 2), smul(1, identity(F2, 2))]) is ALL_LINES


@pytest.mark.parametrize("q", [2, 3, 4])
def test_oracle_agreement_closure_eigenline_detcomm(q):
    field = field_of_order(q)
    rng = random.Random(q * 7)
    for _ in range(150):
        a, b = rand_mat(field, 2, rng), rand_mat(field, 2, rng)
        by_closure = generates_single([a, b]).verdict
        by_line = common_eigenline([a, b]) is None
        by_det = det_commutator_generates(a, b)
        assert by_closure == by_line == by_det


# --- the 4x4 determinant ----------------------------------------------------

def test_flatten_det_point_values():
    assert flatten_det(unit_mat(ZZ, 2, 0, 1), unit_mat(ZZ, 2, 1, 0)) == -1


def test_flatten_det_first_specialization():
    # A = [[a11, 0], [1, 0]], B = [[0, 1], [b21, 0]] gives b21*a11^2 - 1
    for a11 in range(-3, 4):
        for b21 in range(-3, 4):
            A = mat(ZZ, [[a11, 0], [1, 0]])
            B = mat(ZZ, [[0, 1], [b21, 0]])
            assert flatten_det(A, B) == -1 + b21 * a11 * a11


def test_flatten_det_second_specialization():
    # A = [[0, a12], [1, 0]], B = [[0, 1], [b21, 0]] gives -(a12*b21 - 1)^2
    for a12 in range(-3, 4):
        for b21 in range(-3, 4):
            A = mat(ZZ, [[0, a12], [1, 0]])
            B = mat(ZZ, [[0, 1], [b21, 0]])
            assert flatten_det(A, B) == -((a12 * b21 - 1) ** 2)


def test_flatten_det_equals_commutator_det_random_integers():
    rng = random.Random(13)
    for _ in range(1000):
        A = mat(ZZ, [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(2)])
        B = mat(ZZ, [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(2)])
        assert flatten_det(A, B) == det(commutator(A, B))


def test_commutator_det_shift_invariance():
    rng = random.Random(14)
    for _ in range(100):
        A = mat(ZZ, [[rng.randrange(-4, 5) for _ in range(2)] for _ in range(2)])
        B = mat(ZZ, [[rng.randrange(-4, 5) for _ in range(2)] for _ in range(2)])
        s, t = rng.randrange(-3, 4), rng.randrange(-3, 4)
        shifted_a = madd(A, smul(-s, identity(ZZ, 2)))
        shifted_b = madd(B, smul(-t, identity(ZZ, 2)))
        assert det(commutator(A, B)) == det(commutator(shifted_a, shifted_b))


def test_det_commutator_examples():
    E11z, SWAPz = unit_mat(ZZ, 2, 0, 0), mat(ZZ, [[0, 1], [1, 0]])
    assert det(commutator(E11z, SWAPz)) == 1
    assert det_commutator_generates(E11z, SWAPz)
    assert not det_commutator_generates(E11z, E11z)
    ONESz = mat(ZZ, [[1, 1], [1, 1]])
    assert det(commutator(E11z, ONESz)) == 1
    assert det_commutator_generates(E11z, ONESz)


# --- integer lattice closure -------------------------------------------------

def test_lattice_standard_pair():
    from matgen.construct import standard_xy

    for n in range(2, 9):
        X, Y = standard_xy(n, ZZ)
        ok, lat = lattice_generates_MnZ([X, Y], n)
        assert ok and lat.is_full


def test_lattice_doubled_units_fail_with_index_8():
    twos = [smul(2, unit_mat(ZZ, 2, i, j)) for i in range(2) for j in range(2)]
    ok, lat = lattice_generates_MnZ(twos, 2)
    assert not ok
    assert lat.index_in_full() == 8  # identity adjoined halves the index 16


def test_lattice_agrees_with_det_commutator():
    E11z, SWAPz = unit_mat(ZZ, 2, 0, 0), mat(ZZ, [[0, 1], [1, 0]])
    ok, _ = lattice_generates_MnZ([E11z, SWAPz], 2)
    assert ok and det_commutator_generates(E11z, SWAPz)


def test_lattice_true_implies_modp_closure():
    rng = random.Random(15)
    hits = 0
    for _ in range(150):
        mats = [mat(ZZ, [[rng.randrange(-2, 3) for _ in range(2)]
                         for _ in range(2)]) for _ in range(2)]
        ok, _ = lattice_generates_MnZ(mats, 2)
        if not ok:
            continue
        hits += 1
        for p in (2, 3, 5):
            f = PrimeField(p)
            reduced = [mat(f, [[x for x in row] for row in a.rows]) for a in mats]
            assert generates_single(reduced).verdict
    # the standard pair is in scope even if the random sample is thin
    from matgen.construct import standard_xy

    X, Y = standard_xy(2, ZZ)
    assert lattice_generates_MnZ([X, Y], 2)[0]
    assert hits >= 3  # the sample must actually exercise the implication


def squaring_lattice_closure(S, n):
    """Reference lattice closure: each round adds S, I_n and every product
    of two basis elements, until the HNF basis is unchanged."""
    base = [vectorize(a) for a in S] + [vectorize(identity(ZZ, n))]
    lattice = IntLattice(n * n, base)
    while True:
        mats = [unvectorize(ZZ, n, row) for row in lattice.basis]
        rows = base + list(lattice.basis)
        rows += [vectorize(mmul(x, y)) for x in mats for y in mats]
        new_lattice = IntLattice(n * n, rows)
        if new_lattice.basis == lattice.basis:
            return lattice
        lattice = new_lattice


@pytest.mark.parametrize("n", [2, 3, 4])
def test_right_product_lattice_matches_squaring_reference(n):
    from matgen.construct import standard_xy

    rng = random.Random(16 + n)
    X, Y = standard_xy(n, ZZ)
    units = [unit_mat(ZZ, n, i, j) for i in range(n) for j in range(n)]
    sets = [[X, Y], [smul(3, X), smul(3, Y)], [smul(2, X), Y], [X, smul(2, Y)],
            [smul(2, u) for u in units], [units[1]], [units[0], units[-1]], [],
            [smul(2, X), smul(3, Y), units[1]], [units[1], units[-1], smul(2, Y)]]

    def random_mat():
        return mat(ZZ, [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])

    for _ in range(30 if n == 2 else 10):
        sets.append([random_mat() for _ in range(1 + rng.randrange(2))])
    for _ in range(2 if n == 4 else 4):  # the reference's n = 4 rounds are slow
        sets.append([random_mat() for _ in range(3)])
    verdicts = set()
    for S in sets:
        ok, lat = lattice_generates_MnZ(S, n)
        want = squaring_lattice_closure(S, n)
        assert lat.basis == want.basis and ok == want.is_full
        verdicts.add(ok)
    assert verdicts == {True, False}
