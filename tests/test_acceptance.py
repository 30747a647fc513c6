"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS line on success (visible with -s or in the
verbose listing); every numeric comparison is exact unless a runtime bound
is involved, in which case the bound is the stated wall-clock limit.
"""

import itertools
import random
import time
from fractions import Fraction


from matgen import census, conjugacy, construct, zverify
from matgen.cli import main as cli_main
from matgen.domains import ZZ, PrimeField, field_of_order
from matgen.generation import (
    common_eigenline,
    det_commutator_generates,
    generates_single,
    mat_tuple,
    flatten_det,
)
from matgen.linalg import Mat, commutator, det, mat


def _ok(line):
    print(f"PASS {line}")


def test_criterion_01_exact_formula_reproduction():
    # brute-force census equals the closed formula, zero tolerance
    expected = {(2, 2): 16, (3, 2): 162, (4, 2): 768, (2, 3): 448}
    for (q, m), want in expected.items():
        res = census.count_generating_bruteforce(q, 2, m, threads=1)
        assert res.gen_value == want == census.gen_value_2x2(q, m)
        assert res.elapsed < 30.0, f"single-threaded census ({q},{m}) too slow"
    start = time.perf_counter()
    res = census.count_generating_bruteforce(4, 2, 2, threads=8)
    elapsed = time.perf_counter() - start
    assert res.gen_value == 768
    assert elapsed < 10.0, "8-worker census too slow"
    _ok("criterion 1: census == formula at (2,2),(3,2),(4,2),(2,3), "
        "within the stated time limits")


def test_criterion_02_triple_oracle_agreement():
    for q, m in ((2, 2), (3, 2)):
        brute = census.count_generating_bruteforce(q, 2, m).generating_count
        complement = census.count_via_complement(q, m)
        numerator = census.gen_numerator_2x2(q, m)
        assert brute == complement == numerator
    _ok("criterion 2: brute force == complement count == formula numerator "
        "at (2,2) and (3,2)")


def test_criterion_03_orbit_structure():
    res = census.count_generating_bruteforce(2, 2, 2)
    assert res.generating_count == 96
    assert census.orbit_count(2, 2, 2) == 16
    # orbit sizes are all exactly 6
    from f2_bitmask import generates_f2
    from matgen.census import _pgl_conj_perms

    perms = _pgl_conj_perms(2, 2)
    orbits = {}
    for tup in itertools.product(range(16), repeat=2):
        if generates_f2(tup):
            canon = min(tuple(p[i] for i in tup) for p in perms)
            orbits.setdefault(canon, set()).add(tup)
    assert len(orbits) == 16
    assert all(len(v) == 6 for v in orbits.values())
    _ok("criterion 3: 96 generating pairs over F_2 fall into 16 orbits "
        "of size 6")


def test_criterion_04_table16_certification():
    start = time.perf_counter()
    code = cli_main(["table16"])
    elapsed = time.perf_counter() - start
    assert code == 0
    verdict = zverify.verify_z_tuples(construct.table16().generators)
    assert all(cs.det_commutator in (1, -1) and cs.det_ok and cs.lattice_ok
               for cs in verdict.componentwise)
    assert len(verdict.pairwise) == 120
    assert all(cert.overall for _, _, cert in verdict.pairwise)
    assert [(p, dim, amb, ok) for p, dim, amb, ok in verdict.direct_modp] == \
        [(2, 64, 64, True), (3, 64, 64, True), (5, 64, 64, True)]
    assert elapsed < 60.0
    _ok("criterion 4: 16-pair table certified end to end "
        f"({elapsed:.1f}s < 60s)")


def test_criterion_05_threshold_reproduction():
    assert census.min_generators_M2Z(16) == 2
    assert census.min_generators_M2Z(17) == 3
    # both closed forms agree at q = 2 for m = 2, 3, 4 (16, 448, 8960)
    values = []
    for m in (2, 3, 4):
        a = census.integer_gen_formula(m)
        b = census.gen_value_2x2(2, m)
        assert a == b
        values.append(a)
    assert values == [16, 448, 8960]
    _ok("criterion 5: generator thresholds 16 -> 2, 17 -> 3; "
        "integer and field formulas agree at m = 2,3,4")


def test_criterion_06_subalgebra_catalog():
    for q in (2, 3, 4, 5):
        cat = census.enumerate_maximal_subalgebras(q)  # invariants on emission
        assert len(cat.noncommutative) == q + 1
        assert len(cat.commutative) == (q * q - q) // 2
    _ok("criterion 6: catalog counts and intersection dimensions exact "
        "for q in {2,3,4,5}")


def test_criterion_07_bounds():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in (2, 3, 4, 5):
            assert census.gen_value_2x2(q, m) < census.asymptotic_upper_bound(q, 2, m)
    lo, hi = census.euler_partial(Fraction(1, 2), 3)
    assert hi - lo <= Fraction(1, 10**6)
    assert Fraction(1) / lo < Fraction(3463, 1000)
    assert Fraction(1) / hi < Fraction(3463, 1000)
    _ok("criterion 7: strict upper bound on the whole grid; euler bracket "
        "width <= 1e-6 certifies the 3.463 constant")


def test_criterion_08_generating_function():
    assert census.generating_series_check(2, 6)
    assert census.generating_series_check(3, 6)
    _ok("criterion 8: power-series expansion matches the closed formula "
        "for q = 2, 3 up to m = 6")


def test_criterion_09_constructions():
    from matgen.domains import QQ
    from matgen.generation import closure_generates

    for n in (2, 3, 4, 5):
        for dom in (PrimeField(2), PrimeField(3), QQ):
            assert construct.check_relations(n, dom)
    for field in (PrimeField(2), PrimeField(3)):
        base = construct.standard_xy_family(2, field)
        for path in ((construct.gap_plus_one, construct.gap_plus_one,
                      construct.gap_plus_one),
                     (construct.gap_plus_one, construct.gap_double),
                     (construct.gap_double, construct.gap_plus_one),
                     (construct.gap_double, construct.gap_double)):
            fam = base
            for step in path:
                fam = step(fam)
            assert fam.shape.blocks[0][1] <= 4 and fam.verified
    for field in (PrimeField(2), PrimeField(3)):
        fam = construct.combine_mixed([construct.standard_xy_family(2, field),
                                       construct.standard_xy_family(3, field)])
        assert closure_generates(fam.generators, fam.shape).verdict
    fam = construct.scalar_family_generators([(2, (0, 1, 2))])
    rep = closure_generates(fam.generators, fam.shape)
    assert rep.verdict and rep.closure_dim == 12
    fam = construct.scalar_family_generators([(2, (0, 1, 2)), (3, (0, 1))])
    rep = closure_generates(fam.generators, fam.shape)
    assert rep.verdict and rep.closure_dim == 30
    _ok("criterion 9: relations for n <= 5; gap paths to 4 copies; mixed "
        "sums; exact-rational scalar families (dims 12 and 30)")


def test_criterion_10_property_suites():
    # closure = common-eigenline test = det-commutator, 10^3 pairs per field
    for q in (2, 3, 4, 5):
        field = field_of_order(q)
        elems = list(field.elements())
        rng = random.Random(q)
        for _ in range(1000):
            a = Mat(field, 2, tuple(tuple(rng.choice(elems) for _ in range(2))
                                    for _ in range(2)))
            b = Mat(field, 2, tuple(tuple(rng.choice(elems) for _ in range(2))
                                    for _ in range(2)))
            by_closure = generates_single([a, b]).verdict
            by_line = common_eigenline([a, b]) is None
            by_det = det_commutator_generates(a, b)
            assert by_closure == by_line == by_det

    # the 4x4 determinant identity, exhaustively over F_2 and F_3
    for q in (2, 3):
        field = PrimeField(q)
        all_mats = [Mat(field, 2, ((a, b), (c, d)))
                    for a, b, c, d in itertools.product(range(q), repeat=4)]
        for a in all_mats:
            for b in all_mats:
                assert flatten_det(a, b) == det(commutator(a, b))

    # certificate vs exhaustive sweep, 200 random integer cases, p <= 31
    rng = random.Random(2024)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    true_certs = 0
    for _ in range(200):
        a = mat_tuple([mat(ZZ, [[rng.randrange(-2, 3) for _ in range(2)]
                                for _ in range(2)]) for _ in range(2)])
        b = mat_tuple([mat(ZZ, [[rng.randrange(-2, 3) for _ in range(2)]
                                for _ in range(2)]) for _ in range(2)])
        cert = conjugacy.nonconjugate_all_primes(a, b)
        if cert.overall:
            true_certs += 1
            for p in primes:
                assert conjugacy.conjugate_mod_p_bruteforce(a, b, p) is None
        else:
            found = any(conjugacy.conjugate_mod_p_bruteforce(a, b, p) is not None
                        for p in primes)
            p_witness = cert.witness[0]
            if p_witness <= 31:
                assert found
    assert true_certs > 0

    # deterministic counts across 1, 2, 8 workers
    counts = {census.count_generating_bruteforce(3, 2, 2, threads=t
                                                 ).generating_count
              for t in (1, 2, 8)}
    assert counts == {3888}
    _ok("criterion 10: oracle agreement (4x1000 pairs), determinant identity "
        "(exhaustive), certificate vs sweep (200 cases), thread determinism")


def test_criterion_11_n1_discrepancy_report():
    reports = {(q, m): census.n1_census_report(q, m)
               for q, m in ((2, 2), (2, 3), (3, 2))}
    for (q, m), rep in reports.items():
        assert rep["unital"] == q**m
        assert rep["nonunital"] == q**m - 1
        assert rep["up_to_scaling"] == (q**m - 1) // (q - 1)
        # the agreement the integer computation downstream relies on:
        # at q = 2 the closed formula equals the non-unital count exactly,
        # and the unital count exceeds it by the all-zero tuple alone
        if q == 2:
            assert rep["up_to_scaling"] == rep["nonunital"]
            assert rep["unital"] == rep["nonunital"] + 1
        else:
            assert rep["up_to_scaling"] != rep["nonunital"]  # open question
    _ok("criterion 11: n = 1 report emits all three conventions; q = 2 "
        "agreement asserted, q = 3 divergence recorded")
