import itertools
import sys
import time

import pytest

from matgen import construct as construct_mod
from matgen import generation
from matgen.census import gen_value_2x2
from matgen.conjugacy import intertwiners, simultaneously_conjugate
from matgen.construct import (
    CONJ_CLASSES,
    GeneratorFamily,
    TABLE16_MARKED,
    TABLE16_PAIRS,
    scalar_family_generators,
    check_relations,
    combine_mixed,
    gap_double,
    gap_plus_one,
    nc_eval,
    relation_set,
    standard_xy,
    standard_xy_family,
    table16,
    verify_family,
)
from matgen.domains import QQ, ZZ, DomainError, PrimeField
from matgen.generation import DirectSumShape, closure_generates, mat_tuple
from matgen.linalg import (
    det,
    identity,
    is_zero_mat,
    madd,
    mat,
    mmul,
    smul,
    unit_mat,
)

F2 = PrimeField(2)
F3 = PrimeField(3)


def mat_pow(a, e: int):
    out = identity(a.domain, a.n)
    for _ in range(e):
        out = mmul(out, a)
    return out


# --- the standard pair ---------------------------------------------------------

def test_standard_pair_n2_over_z():
    X, Y = standard_xy(2, ZZ)
    assert X.rows == ((0, 1), (1, 0))
    assert Y.rows == ((1, 0), (0, 0))


def test_standard_family_over_z_is_proved_in_bounded_time():
    # one insert per vector into the lattice's echelon basis: about 0.8 s on
    # a 2-core host, where a fresh HNF per vector took about 6.5 s
    start = time.perf_counter()
    fam = standard_xy_family(24, ZZ)
    assert time.perf_counter() - start < 2.0
    assert fam.shape.total_dim == 24 * 24


@pytest.mark.parametrize("domain", [ZZ, F2, F3, QQ])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_unit_matrix_reconstruction(domain, n):
    X, Y = standard_xy(n, domain)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            word = mmul(mat_pow(X, i - 1), mmul(Y, mat_pow(X, n - j + 1)))
            assert word.rows == unit_mat(domain, n, i - 1, j - 1).rows


def test_standard_family_closure_dims():
    fam = standard_xy_family(3, F2)
    rep = closure_generates(fam.generators, fam.shape)
    assert rep.verdict and rep.closure_dim == 9


@pytest.mark.parametrize("domain, name", [
    (ZZ, "lattice_generates_MnZ"), (F2, "closure_generates")], ids=["Z", "F2"])
def test_standard_family_is_closed_once(monkeypatch, domain, name):
    original, calls = getattr(generation, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("matgen"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    fam = standard_xy_family(3, domain)
    assert len(calls) == 1
    assert verify_family(fam) and len(calls) == 2


# --- gap extensions --------------------------------------------------------------

def test_gap_plus_one_from_table_rows():
    # two generators of M_2(F_2)^2 from the first two table entries mod 2
    gens = (
        (mat(F2, TABLE16_PAIRS[0][0]), mat(F2, TABLE16_PAIRS[1][0])),
        (mat(F2, TABLE16_PAIRS[0][1]), mat(F2, TABLE16_PAIRS[1][1])),
    )
    from matgen.generation import DirectSumShape

    base = gap_plus_one(
        _family(DirectSumShape(((2, 2),)), gens))
    assert base.shape.blocks == ((2, 3),)
    rep = closure_generates(base.generators, base.shape)
    assert rep.verdict and rep.closure_dim == 12


def _family(shape, gens):
    from matgen.construct import GeneratorFamily

    return GeneratorFamily(shape=shape, generators=gens, provenance="input")


def test_gap_plus_one_last_generator_identity():
    fam = standard_xy_family(2, F3)
    ext = gap_plus_one(fam)
    n = 2
    a_k = ext.generators[-2]
    a_k1 = ext.generators[-1]
    power = [identity(F3, 2) for _ in a_k1]
    for _ in range(n):
        power = [mmul(p, c) for p, c in zip(power, a_k1)]
    prod = [mmul(p, c) for p, c in zip(power, a_k)]
    # (a'_{k+1})^n a'_k = (0, ..., 0, Y)
    _, Y = standard_xy(2, F3)
    assert all(is_zero_mat(c) for c in prod[:-1])
    assert prod[-1].rows == Y.rows


def test_gap_plus_one_from_single_copy_over_f3():
    ext = gap_plus_one(standard_xy_family(2, F3))
    assert ext.shape.blocks == ((2, 2),) and ext.num_generators == 3
    assert verify_family(ext)


def test_gap_double_from_standard_pair():
    ext = gap_double(standard_xy_family(2, F2))
    assert ext.shape.blocks == ((2, 2),)
    rep = closure_generates(ext.generators, ext.shape)
    assert rep.verdict and rep.closure_dim == 8


def test_gap_double_twice():
    ext = gap_double(gap_double(standard_xy_family(2, F2)))
    assert ext.shape.blocks == ((2, 4),) and ext.num_generators == 4


def test_gap_composites_up_to_four_copies():
    for field in (F2, F3):
        start = standard_xy_family(2, field)
        paths = [
            (gap_plus_one, gap_plus_one, gap_plus_one),
            (gap_plus_one, gap_double),
            (gap_double, gap_plus_one),
            (gap_double, gap_double),
        ]
        for path in paths:
            fam = start
            for step in path:
                fam = step(fam)
            assert fam.shape.blocks[0][1] <= 4
            assert verify_family(fam)


def test_doubling_bound_consistency():
    # the formula respects the doubling lower bound the gap construction shows
    for q in (2, 3):
        for m in (2, 3, 4):
            assert gen_value_2x2(q, m + 1) >= 2 * gen_value_2x2(q, m)


# --- mixed sizes ------------------------------------------------------------------

def test_combine_m2_m3_over_f2():
    fam = combine_mixed([standard_xy_family(2, F2), standard_xy_family(3, F2)])
    rep = closure_generates(fam.generators, fam.shape)
    assert rep.verdict and rep.closure_dim == 13
    assert fam.num_generators == 2


def test_combine_m2_m3_over_f3():
    fam = combine_mixed([standard_xy_family(2, F3), standard_xy_family(3, F3)])
    assert closure_generates(fam.generators, fam.shape).closure_dim == 13


def test_combine_17_and_22_dimensional_sums():
    two_copies = gap_double(standard_xy_family(2, F3))  # 3 gens of M_2(F_3)^2
    fam17 = combine_mixed([two_copies, standard_xy_family(3, F3)])
    assert fam17.shape.total_dim == 17 and fam17.num_generators == 3

    m3_pair = scalar_family_generators([(3, (0, 1))], domain=F3)
    assert m3_pair.verified  # 2 generators of M_3(F_3)^2
    fam22 = combine_mixed([standard_xy_family(2, F3), m3_pair])
    assert fam22.shape.total_dim == 22 and fam22.num_generators == 2
    assert closure_generates(fam22.generators, fam22.shape).verdict


def test_combine_single_block_is_identity():
    fam = standard_xy_family(2, F2)
    same = combine_mixed([fam])
    assert same.generators == fam.generators
    assert same.shape == fam.shape


def test_combine_rejects_repeated_sizes():
    with pytest.raises(DomainError):
        combine_mixed([standard_xy_family(2, F2), standard_xy_family(2, F2)])


def test_combine_rejects_a_non_generating_family():
    # E_11 alone spans a 1-dim subalgebra; the failure is the input's, so
    # it is refused as a usage error before the output check can run
    partial = GeneratorFamily(shape=DirectSumShape(((2, 1),)),
                              generators=((unit_mat(F2, 2, 0, 0),),),
                              provenance="test")
    with pytest.raises(DomainError, match="not verified generating"):
        combine_mixed([partial, standard_xy_family(3, F2)])


# --- scalar families ---------------------------------------------------------------

def test_scalar_family_single_block():
    fam = scalar_family_generators([(2, (0, 1, 2))])
    assert fam.shape.total_dim == 12
    rep = closure_generates(fam.generators, fam.shape)
    assert rep.verdict and rep.closure_dim == 12
    assert fam.num_generators == 2


def test_scalar_family_two_blocks():
    fam = scalar_family_generators([(2, (0, 1, 2)), (3, (0, 1))])
    assert fam.shape.total_dim == 30
    rep = closure_generates(fam.generators, fam.shape)
    assert rep.verdict and rep.closure_dim == 30


def test_scalar_family_over_f2_records_verdict():
    fam = scalar_family_generators([(2, (0, 1))], domain=F2)
    assert isinstance(fam.verified, bool)
    rep = closure_generates(fam.generators, fam.shape)
    assert fam.verified == rep.verdict


def test_scalar_family_rejects_bad_blocks():
    with pytest.raises(DomainError):
        scalar_family_generators([(2, (0, 0))])
    with pytest.raises(DomainError):
        scalar_family_generators([(2, (0,)), (2, (1,))])


def test_scalar_family_cross_sections_not_conjugate():
    fam = scalar_family_generators([(2, (0, 1, 2))])
    copies = len(fam.shape.copy_sizes)
    sections = [mat_tuple([g[i] for g in fam.generators]) for i in range(copies)]
    for i in range(copies):
        for j in range(i + 1, copies):
            space = intertwiners(sections[i], sections[j])
            # det vanishes on the whole intertwiner space: no conjugator
            assert all(det(b) == 0 for b in space.basis)
            for bi in range(space.dim):
                for bj in range(bi + 1, space.dim):
                    from matgen.linalg import madd

                    assert det(madd(space.basis[bi], space.basis[bj])) == 0


# --- relations -----------------------------------------------------------------------

@pytest.mark.parametrize("domain", [F2, F3, PrimeField(5), QQ])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_relations_vanish(n, domain):
    assert check_relations(n, domain)


def test_relation_r1_is_involution_for_n2():
    X, _ = standard_xy(2, QQ)
    assert mmul(X, X).rows == identity(QQ, 2).rows


def test_relation_count_and_names():
    rels = relation_set(4)
    names = [name for name, _ in rels.relations]
    assert names == ["r1", "r2", "s0", "s1", "s2", "s3"]


def nc_subst_y(poly: dict, c) -> dict:
    """Substitute y -> c*x + y, expanding words; coefficients stay exact."""
    out = {}
    for word, coeff in poly.items():
        expanded = {"": coeff}
        for letter in word:
            nxt = {}
            if letter == "x":
                for w, co in expanded.items():
                    nxt[w + "x"] = nxt.get(w + "x", 0) + co
            else:
                for w, co in expanded.items():
                    nxt[w + "x"] = nxt.get(w + "x", 0) + co * c
                    nxt[w + "y"] = nxt.get(w + "y", 0) + co
            expanded = nxt
        for w, co in expanded.items():
            out[w] = out.get(w, 0) + co
    return {w: co for w, co in out.items() if co != 0}


def check_relations_shifted(n: int, domain, a) -> bool:
    """The relations of the shifted ideal vanish at the pair (X, aX + Y)."""
    X, Y = standard_xy(n, domain)
    aX_plus_Y = madd(smul(domain.convert(a), X), Y)
    return all(is_zero_mat(nc_eval(nc_subst_y(poly, -a), X, aX_plus_Y))
               for _, poly in relation_set(n).relations)


def test_shifted_relations():
    for a in (1, 2):
        assert check_relations_shifted(2, QQ, a)
        assert check_relations_shifted(3, QQ, a)


def test_nc_eval_basic():
    X, Y = standard_xy(2, F2)
    assert is_zero_mat(nc_eval({"yy": 1, "y": -1}, X, Y))
    assert nc_eval({"": 1}, X, Y).rows == identity(F2, 2).rows


# --- embedded tables ------------------------------------------------------------------

def test_table16_first_row_and_size():
    assert TABLE16_PAIRS[0] == (((1, 0), (0, 0)), ((0, 1), (1, 0)))
    assert TABLE16_PAIRS[1] == (((1, 0), (0, 0)), ((1, 1), (1, 1)))
    assert len(TABLE16_PAIRS) == 16 == gen_value_2x2(2, 2)


def test_table16_family_is_verified():
    fam = table16()
    assert fam.verified
    assert fam.shape.blocks == ((2, 16),)
    assert len(fam.generators) == 2


def table_conj_classes():
    """The four nontrivial conjugacy classes of M_2(F_2) under PGL_2(F_2),
    with the eigenvalue annotations valid over every prime field."""
    construct_mod._check_fixture("conj_classes_f2.json",
                                 construct_mod.CONJ_FIXTURE_SHA256)
    return CONJ_CLASSES


def test_table16_first_components_cover_the_conj_classes():
    classes = table_conj_classes()
    assert [len(c["matrices"]) for c in classes] == [6, 3, 2, 3]
    counts = [0] * len(classes)
    for first, _ in TABLE16_PAIRS:
        hits = [idx for idx, cls in enumerate(classes)
                if tuple(tuple(r) for r in first) in
                {tuple(tuple(r) for r in m) for m in cls["matrices"]}]
        assert len(hits) == 1
        counts[hits[0]] += 1
    assert counts == [4, 4, 4, 4]


def test_conj_classes_are_actual_orbits_mod_2():
    for cls in CONJ_CLASSES:
        mats = [mat(F2, m) for m in cls["matrices"]]
        for a, b in itertools.combinations(mats, 2):
            assert simultaneously_conjugate(mat_tuple([a]),
                                            mat_tuple([b])) is not None
    reps = [mat(F2, cls["matrices"][0]) for cls in CONJ_CLASSES]
    for a, b in itertools.combinations(reps, 2):
        assert simultaneously_conjugate(mat_tuple([a]), mat_tuple([b])) is None


def test_marked_pairs_share_classwise_eigenvalues():
    # the two marked pairs are exactly the ones the class table cannot split
    up = TABLE16_MARKED["up-triangles"]
    down = TABLE16_MARKED["down-triangles"]
    for i, j in (up, down):
        a, b = TABLE16_PAIRS[i], TABLE16_PAIRS[j]
        from matgen.linalg import char_poly

        for k in range(2):
            ca = char_poly(mat(QQ, a[k]))
            cb = char_poly(mat(QQ, b[k]))
            assert ca == cb


def test_fibonacci_char_poly_annotation():
    fib = mat(QQ, ((0, 1), (1, 1)))
    from matgen.linalg import char_poly
    from fractions import Fraction

    assert char_poly(fib) == (Fraction(-1), Fraction(-1), Fraction(1))
    assert "t^2 - t - 1" in CONJ_CLASSES[2]["eigenvalues"]


def test_fixture_checksums_guard_corruption(monkeypatch):
    import matgen.construct as construct_mod

    real = construct_mod._fixture_text

    def corrupted(name):
        return real(name).replace('"0, 1"', '"0, 2"')

    monkeypatch.setattr(construct_mod, "_fixture_text", corrupted)
    with pytest.raises(RuntimeError):
        construct_mod._check_fixture("conj_classes_f2.json",
                                     construct_mod.CONJ_FIXTURE_SHA256)


def test_fixture_files_match_source_constants():
    import matgen.construct as construct_mod

    construct_mod._check_fixture("gen16_pairs.json",
                                 construct_mod.GEN16_FIXTURE_SHA256)
    construct_mod._check_fixture("conj_classes_f2.json",
                                 construct_mod.CONJ_FIXTURE_SHA256)
