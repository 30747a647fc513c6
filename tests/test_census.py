import ast
import dataclasses
import itertools
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from f2_bitmask import generates_f2
from matgen.census import (
    asymptotic_upper_bound,
    count_generating_bruteforce,
    count_via_complement,
    enumerate_maximal_subalgebras,
    integer_gen_formula,
    euler_partial,
    gen_value_1x1,
    gen_value_2x2,
    gen_numerator_2x2,
    generating_series_check,
    min_generators_M2Z,
    n1_census_report,
    orbit_count,
    pgl_order,
)
from matgen.census import (
    BLOCK,
    _generates_block,
    _require_field,
    resolve_threads,
)
from matgen import census
from matgen.domains import DomainError, InvariantError, field_of_order, is_prime_power
from matgen.generation import closure_generates, shape_of
from matgen.linalg import Mat, det_rows, rref


# --- group orders and closed formulas ----------------------------------------

def test_pgl_orders():
    assert pgl_order(2, 2) == 6
    assert pgl_order(3, 2) == 24
    assert pgl_order(5, 1) == 1
    assert pgl_order(7, 1) == 1


def test_gen_value_2x2_values():
    assert gen_value_2x2(2, 2) == 16
    assert gen_value_2x2(2, 3) == 448
    assert gen_value_2x2(3, 2) == 162  # q^4 (q-1) at q = 3
    assert gen_value_2x2(4, 2) == 768
    # the factored forms of the first three polynomials in q
    for q in (2, 3, 4, 5, 7):
        assert gen_value_2x2(q, 2) == q**4 * (q - 1)
        assert gen_value_2x2(q, 3) == (q - 1) * (q * q + q + 1) * q**6
        assert gen_value_2x2(q, 4) == \
            (q - 1) * (q * q + q + 1) * (q * q + 1) * q**8
        # neither the empty tuple nor one matrix generates
        assert gen_value_2x2(q, 1) == gen_numerator_2x2(q, 1) == 0
        for fn in (gen_value_2x2, gen_numerator_2x2):
            assert fn(q, 0) == 0
            with pytest.raises(DomainError, match="m >= 0"):
                fn(q, -1)


def test_formula_numerator_and_inclusion_exclusion_steps():
    assert gen_numerator_2x2(2, 2) == 96
    q, m = 2, 2
    # first inclusion-exclusion step, then the pairwise correction
    step1 = q ** (4 * m) - q**m - (q + 1) * (q ** (3 * m) - q**m) \
        - (q * q - q) * (q ** (2 * m) - q**m) // 2
    assert step1 == 60
    step2 = step1 + (q + 1) * q // 2 * (q ** (2 * m) - q**m)
    assert step2 == 96
    # gen_value_2x2 divides the numerator by |PGL_2(F_q)|; both against
    # their own expansions, typed out here
    for q in [q for q in range(2, 50) if is_prime_power(q)]:
        for m in range(9):
            num = q ** (4 * m) + q ** (2 * m + 1) - q ** (3 * m + 1) - q ** (3 * m)
            den = q * (q * q - 1)
            assert pgl_order(q, 2) == den and num % den == 0
            assert gen_numerator_2x2(q, m) == num
            assert gen_value_2x2(q, m) == num // den


def test_gen_value_1x1_conventions():
    assert gen_value_1x1(2, 3, "projective") == 7
    assert gen_value_1x1(3, 2, "projective") == 4
    assert gen_value_1x1(3, 2, "unital") == 9
    assert gen_value_1x1(3, 2, "nonunital") == 8
    assert gen_value_1x1(5, 1, "projective") == 1
    with pytest.raises(DomainError):
        gen_value_1x1(2, 2, "bogus")


def test_evaluators_refuse_bad_arguments():
    # a usage error is a DomainError, neither a value nor an "...; bug"
    calls = [lambda: gen_value_1x1(6, 2), lambda: pgl_order(6, 2),
             lambda: gen_value_1x1(1, 2), lambda: pgl_order(1, 2),
             lambda: pgl_order(3, 0), lambda: gen_value_1x1(4, -1),
             lambda: integer_gen_formula(-1),
             lambda: euler_partial(Fraction(1, 2), -1), lambda: euler_partial(0, -1),
             lambda: n1_census_report(6, 2), lambda: n1_census_report(1, 2),
             lambda: n1_census_report(2, -1), lambda: n1_census_report(2, 27)]
    for call in calls:
        with pytest.raises(DomainError):
            call()
    assert euler_partial(Fraction(1, 2), 0) == (Fraction(1, 4), Fraction(1))
    assert integer_gen_formula(0) == gen_value_1x1(4, 0) == 0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q=st.integers(-2, 12), m=st.integers(-3, 4) | st.integers(27, 10**9),
       terms=st.integers(-3, 6),
       x=st.fractions(-2, 2, max_denominator=12),
       convention=st.sampled_from(["projective", "unital", "nonunital", "bogus"]))
def test_evaluators_return_or_refuse(q, m, terms, x, convention):
    # m >= 27 is refused from the exponent wherever it would be enumerated
    # or written out
    calls = [lambda: gen_value_1x1(q, m, convention), lambda: pgl_order(q, m),
             lambda: integer_gen_formula(m), lambda: euler_partial(x, terms),
             lambda: n1_census_report(q, m)]
    start = time.perf_counter()
    for call in calls:
        try:
            call()
        except DomainError:
            pass
    assert time.perf_counter() - start < 5


# --- brute-force censuses -----------------------------------------------------

def test_census_222():
    res = count_generating_bruteforce(2, 2, 2)
    assert res.generating_count == 96
    assert res.gen_value == 16
    assert res.ambient_count == 256
    assert res.pgl_order == 6


def test_census_322():
    res = count_generating_bruteforce(3, 2, 2)
    assert res.generating_count == 3888 and res.gen_value == 162


def test_census_223():
    res = count_generating_bruteforce(2, 2, 3)
    assert res.gen_value == 448


def test_census_m0_and_caps():
    assert count_generating_bruteforce(2, 2, 0).generating_count == 0
    with pytest.raises(DomainError):
        count_generating_bruteforce(2, 2, 8)  # 2^32 over the cap
    with pytest.raises(DomainError):
        count_generating_bruteforce(2, 1, 2)


def test_census_thread_determinism():
    baseline = count_generating_bruteforce(3, 2, 2, threads=1).generating_count
    assert count_generating_bruteforce(3, 2, 2, threads=2).generating_count \
        == baseline


def test_census_pool_only_for_large_censuses(monkeypatch):
    import concurrent.futures

    want = count_generating_bruteforce(3, 2, 2, threads=1).generating_count
    # the pool class is imported where the pool is made
    pool = concurrent.futures.ProcessPoolExecutor

    def refuse(*args, **kwargs):
        raise AssertionError("a small census started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    assert count_generating_bruteforce(3, 2, 2, threads=2).generating_count \
        == want
    # 4^8 and 5^8 tuples, below 2 TUPLES_PER_WORKER
    for q in (4, 5):
        assert count_generating_bruteforce(q, 2, 2, threads=2).generating_count \
            == gen_numerator_2x2(q, 2)
    started = []

    def record(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", record)
    # 2^24 tuples: four workers' worth, bounded by threads
    assert count_generating_bruteforce(2, 2, 6, threads=2).generating_count \
        == gen_numerator_2x2(2, 6)
    assert started == [2]


def test_orbit_counts():
    assert orbit_count(2, 2, 2) == 16
    assert orbit_count(2, 2, 3) == 448
    assert orbit_count(3, 2, 2) == 162


def test_orbit_count_bounds_its_permutation_table():
    # |PGL_n(F_q)| q^(n^2) entries: 1.1e8 for (3, 3) and 2.7e8 for (16, 2);
    # at n = 10^4 the census itself is refused before |PGL_n| is formed
    for q, n, m in ((3, 3, 1), (16, 2, 1), (2, 10**4, 0), (2, 10**4, 1)):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            orbit_count(q, n, m)
        assert time.perf_counter() - start < 0.1
    assert orbit_count(2, 3, 1) == 0


def test_census_522_and_232():
    res = count_generating_bruteforce(5, 2, 2, threads=1)
    assert res.generating_count == gen_numerator_2x2(5, 2) == 300000
    res = count_generating_bruteforce(2, 3, 2, threads=1)
    assert (res.generating_count, res.gen_value) == (129024, 768)


def test_census_722_and_822():
    # 7^8 and 8^8 tuples, every one folded
    for q, want in ((7, 4840416), (8, 14450688)):
        res = count_generating_bruteforce(q, 2, 2, threads=1)
        assert res.generating_count == gen_numerator_2x2(q, 2) == want


def test_census_rejects_bad_q_and_m():
    for q in (-1, 0, 1, 6, 12):
        with pytest.raises(DomainError):
            count_generating_bruteforce(q, 2, 2)
        with pytest.raises(DomainError):
            orbit_count(q, 2, 1)
    with pytest.raises(DomainError):
        orbit_count(2, 2, -1)
    with pytest.raises(DomainError):
        count_generating_bruteforce(3, 2, -1)


def _random_ids(rng, q, n, triangular):
    """A matrix id; triangular ones keep the entries below the diagonal zero,
    so tuples of them never generate."""
    entries = [0 if triangular and i > j else rng.randrange(q)
               for i in range(n) for j in range(n)]
    return sum(e * q ** (n * n - 1 - k) for k, e in enumerate(entries))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (9, 2),
                                 (17, 2), (2, 3), (3, 3), (4, 3), (5, 3), (9, 3)])
def test_batched_kernel_matches_closure(q, n):
    F = field_of_order(q)
    rng = random.Random(1000 * q + n)
    for m in range(4):
        tuples = [[_random_ids(rng, q, n, triangular=t % 3 == 0)
                   for _ in range(m)] for t in range(24)]
        comps = np.array(tuples, np.int64).reshape(len(tuples), m).T
        got = _generates_block(comps, q, n)
        for ids, verdict in zip(tuples, got):
            assert bool(verdict) == _closure_verdict(ids, q, n, F), (q, n, ids)
        if m >= 2:
            assert got.any() and not got.all()


def _closure_verdict(ids, q, n, F):
    """closure_generates, without the identity, on the matrices with these
    ids: the per-tuple reference for the batched kernel."""
    mats = []
    for i in ids:
        digits = [(i // q ** (n * n - 1 - k)) % q for k in range(n * n)]
        rows = tuple(tuple(digits[r * n + c] for c in range(n)) for r in range(n))
        mats.append((Mat(F, n, rows),))
    return closure_generates(mats, shape_of(n), include_identity=False,
                             field=F).verdict


def test_batched_kernel_matches_f2_bit_masks():
    # a 2x2 matrix over F_2 has the same id as a matrix and as a bit mask
    pairs = list(itertools.product(range(16), repeat=2))
    got = _generates_block(np.array(pairs, np.int64).T, 2, 2)
    assert [bool(v) for v in got] == [generates_f2(p) for p in pairs]


# --- the subalgebra transition table ------------------------------------------

def _all_blocks(q, n, m):
    """Every m-tuple of matrix ids, BLOCK tuples at a time, as (m, B)."""
    N = q ** (n * n)
    for start in range(0, N ** m, BLOCK):
        ids = np.arange(start, min(start + BLOCK, N ** m), dtype=np.int64)
        yield census._digits(ids, N, m, np.int64)


@pytest.mark.parametrize("q,n,m", [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 2),
                                   (4, 2, 2)])
def test_fold_matches_the_level_loop_on_every_tuple(q, n, m):
    fold = census._Transitions(q, n)  # rows built here, in this order
    for comps in _all_blocks(q, n, m):
        assert np.array_equal(fold.verdicts(comps), _generates_block(comps, q, n))


@pytest.mark.parametrize("q,n,m", [(5, 2, 2), (2, 3, 2), (7, 2, 2), (5, 2, 3)])
def test_fold_matches_the_level_loop_on_seeded_blocks(q, n, m):
    rng = random.Random(100 * q + 10 * n + m)
    tuples = _level_tuples(rng, q, n, m, 600) + [
        [_random_ids(rng, q, n, triangular=t % 4 == 0) for _ in range(m)]
        for t in range(1400)]
    comps = np.array(tuples, np.int64).T
    got = census._Transitions(q, n).verdicts(comps)
    assert np.array_equal(got, _generates_block(comps, q, n))
    assert got.any() and not got.all()


def test_fold_matches_f2_bit_masks():
    triples = list(itertools.product(range(16), repeat=3))
    got = census._Transitions(2, 2).verdicts(np.array(triples, np.int64).T)
    assert [bool(v) for v in got] == [generates_f2(t) for t in triples]


def _expand(fold):
    """Build the step row of every state until no new state appears."""
    while True:
        missing = np.flatnonzero(fold.table("step")[:len(fold.prefix), 0] < 0)
        if not len(missing):
            return
        fold._build(missing, True)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_full_expansion_counts_the_subalgebras_of_m2(q):
    fold = census._Transitions(q, 2)
    _expand(fold)
    dims = [int(np.count_nonzero(b)) for b in fold.basis]
    assert len(fold.prefix) == 2 * q * q + 6 * q + 8
    assert [dims.count(k) for k in range(5)] == \
        [1, q * q + 2 * q + 2, q * q + 3 * q + 3, q + 1, 1]
    step, full = (fold.table(name)[:len(fold.prefix)] for name in ("step", "full"))
    assert (step >= 0).all()
    assert np.array_equal(full, step == 1)
    if q == 5:
        return
    # a class representative is the least id in its class, which the row
    # build relies on, and its own representative
    N = q ** 4
    states = np.arange(len(fold.prefix))
    rows = census._digits(np.concatenate(fold.basis), q, 4, np.uint8).reshape(4, -1, 4)
    owner, mat = np.divmod(np.arange(len(states) * N), N)
    rep = fold._classes(rows, owner, mat)
    assert (rep <= mat).all() and np.array_equal(fold._classes(rows, owner, rep), rep)
    # every step row is the reduced basis of its own closure, matrix by
    # matrix: the class shortcut copies nothing wrong
    for s in range(2, len(fold.prefix)):
        comps = np.array([fold.prefix[s] + (a,) for a in range(N)], np.int64).T
        ok, keys = _generates_block(comps, q, 2, spans=True)
        assert np.array_equal(np.array(fold.basis)[step[s]], keys)
        assert np.array_equal(ok, full[s] == 1)


def test_fold_matches_the_level_loop_on_random_blocks_past_n_states():
    # at (2, 3), N = 512: a fresh table meets more new states in one block
    # than there are matrices, so one build splits pairs past N states
    rng = np.random.default_rng(26)
    fold = census._Transitions(2, 3)
    for m in range(3, 7):
        comps = rng.integers(0, fold.N, (m, BLOCK))
        assert np.array_equal(fold.verdicts(comps), _generates_block(comps, 2, 3))
    assert len(fold.prefix) > fold.N


def test_one_build_over_more_states_than_matrices():
    fold = census._Transitions(2, 2)
    _expand(fold)
    states = len(fold.prefix)
    assert states == 28 > fold.N
    want = [fold.table(name)[:states].copy() for name in ("step", "full")]
    fold.tables.clear()
    fold._build(np.delete(np.arange(states), 1), True)  # 1's rows need none
    assert len(fold.prefix) == states
    for name, rows in zip(("step", "full"), want):
        assert np.array_equal(fold.table(name)[:states], rows)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (2, 3), (7, 2)])
def test_the_full_state_row_maps_every_matrix_to_the_full_state(q, n):
    fold = census._Transitions(q, n)
    N = q ** (n * n)
    assert (fold.table("step")[1] == 1).all() and (fold.table("full")[1] == 1).all()
    # what the level loop says of a generating pair and every matrix
    pairs = next(_all_blocks(q, n, 2))
    pair = pairs[:, np.flatnonzero(_generates_block(pairs, q, n))[0]]
    comps = np.concatenate([np.repeat(pair[:, None], N, 1),
                            np.arange(N, dtype=np.int64)[None]])
    ok, keys = _generates_block(comps, q, n, spans=True)
    assert ok.all() and (keys == fold.basis[1]).all()
    assert fold.ids[keys[0].tobytes()] == 1


@pytest.mark.parametrize("q,n", [(16, 2), (2, 4), (3, 3)])
def test_one_component_censuses_build_row_0_only(q, n):
    import tracemalloc

    census._field_arrays(q)
    census._transitions.cache_clear()
    tracemalloc.start()
    try:
        res = count_generating_bruteforce(q, n, 1, threads=1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fold = census._transitions(q, n)
    assert res.generating_count == 0
    # no state was keyed and no step table made: row 0 of `full` only
    assert len(fold.prefix) == 2 and list(fold.tables) == ["full"]
    assert (fold.table("full")[0] == 0).all()
    assert current <= fold.table("full").nbytes + 2**16
    assert peak - current <= 2**22


def test_cold_pair_census_builds_rows_in_bounded_scratch():
    # every (2, 3) state a pair meets gets its step row built, BLOCK pairs
    # per run of the level loop; what is left is the transition table
    import tracemalloc

    census._field_arrays(2)
    census._transitions.cache_clear()
    tracemalloc.start()
    try:
        res = count_generating_bruteforce(2, 3, 2, threads=1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.generating_count == 129024
    assert len(census._transitions(2, 3).prefix) > 2
    assert peak - current < 2**22


def test_cold_small_censuses_are_fast():
    # a fresh process, numpy imported before the clock: the first call
    # builds the transition rows it meets
    env = dict(os.environ, PYTHONPATH=str(Path(census.__file__).parents[1]))
    code = ("import sys, time, numpy; from matgen import census; "
            "t = time.perf_counter(); "
            "census.count_generating_bruteforce(*map(int, sys.argv[1:]), threads=1); "
            "print(time.perf_counter() - t)")
    for args in (("2", "2", "3"), ("3", "2", "2")):
        times = []
        while len(times) < 3 and min(times, default=1) >= 0.02:  # a busy host
            times.append(float(subprocess.run(
                [sys.executable, "-c", code, *args], capture_output=True,
                text=True, env=env, timeout=60, check=True).stdout))
        assert min(times) < 0.02, (args, times)


def _frontier_by_sort(basis, added):
    """_frontier as a stable argsort of the added mask and two
    take_along_axis gathers: the reference for its rank scatter."""
    width = int(added.sum(0).max())
    order = np.argsort(~added, axis=0, kind="stable")[:width]
    rows = np.take_along_axis(basis, order[None], axis=1)
    return np.where(np.take_along_axis(added, order, axis=0), rows, 0)


@pytest.mark.parametrize("v,d,dtype", [(4, 4, np.uint8), (9, 9, np.uint8)])
def test_frontier_matches_the_sorted_gather(v, d, dtype):
    # a row is its v = d entries
    rng = np.random.default_rng(100 * v + d)
    for nt in (1, 2, 7, 300):
        basis = rng.integers(1, 250, (v, d, nt)).astype(dtype)
        added = rng.random((d, nt)) < rng.random(nt)  # a density per tuple
        added[:, 0] = False  # a tuple that added nothing
        added[:, -1] = nt > 1  # one that added a row at every pivot column
        got = census._frontier(basis, added)
        want = _frontier_by_sort(basis, added)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want), (v, d, nt)


def _level_tuples(rng, q, n, m, count):
    """Seeded m-tuples of ids that leave the kernel at different levels:
    zero tuples at level 0, scalar and diagonal ones early, triangular and
    random ones later."""
    d = n * n
    diag = [i * n + i for i in range(n)]

    def matrix(kind):
        entries = [rng.randrange(q) if kind == "random" or k in diag
                   or (kind == "triangular" and k % n > k // n) else 0
                   for k in range(d)]
        if kind == "scalar":
            entries = [entries[0] if k in diag else 0 for k in range(d)]
        return sum(e * q ** (d - 1 - k) for k, e in enumerate(entries))

    kinds = ["zero", "scalar", "diagonal", "triangular", "triangular", "random"]
    out = []
    for t in range(count):
        kind = kinds[t % len(kinds)]
        tup = [0 if kind == "zero" else matrix(kind) for _ in range(m)]
        if t % 5 == 0:
            tup[1:] = [0] * (m - 1)  # one matrix and zeros: its powers
        out.append(tup)
    return out


@pytest.mark.parametrize("q,n,m", [(3, 2, 2), (4, 2, 3), (7, 2, 2), (3, 3, 2)])
def test_kernel_drops_finished_tuples_at_each_level(q, n, m, monkeypatch):
    F = field_of_order(q)
    tuples = _level_tuples(random.Random(31 * q + n), q, n, m, 120)
    comps = np.array(tuples, np.int64).T
    insert = census._insert
    live = []  # tuples entering each level

    def spy(cand, basis, present, tables):
        live.append(cand.shape[-1])
        return insert(cand, basis, present, tables)

    monkeypatch.setattr(census, "_insert", spy)
    got = _generates_block(comps, q, n)
    # tuples finish at levels 0 and 1, so the block shrinks after each; a
    # 2x2 tuple never reaches level 3, so every tuple left at level 2
    # finishes there, while 3x3 ones (a matrix whose powers span three
    # dimensions) also shrink the block after level 2
    assert len(live) >= (3 if n == 2 else 4)
    assert all(a > b for a, b in zip(live, live[1:4])), live
    assert [bool(v) for v in got] == [_closure_verdict(t, q, n, F) for t in tuples]
    assert got.any() and not got.all()


def _field_tables(q):
    """(add, sub, mul, inv) of field_of_order(q) as nested lists indexed by
    elements; inv[0] is None."""
    F = field_of_order(q)

    def table(op):
        return [[op(a, b) for b in range(q)] for a in range(q)]

    return (table(F.add), table(F.sub), table(F.mul),
            [None] + [F.inv(a) for a in range(1, q)])


def _all_mats(q, n):
    """Every n x n matrix over F_q as a row-major entry tuple, in id order."""
    return list(itertools.product(range(q), repeat=n * n))


def test_field_arrays_match_the_field():
    # every pair up to q = 64, 2000 seeded pairs above; the level loop
    # reads these tables at every size
    rng = random.Random(11)
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 121, 125, 169, 251):
        F = field_of_order(q)
        shift, add, sub, mul, inv = census._field_arrays(q)
        pairs = (itertools.product(range(q), repeat=2) if q <= 64 else
                 [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)])
        for a, b in pairs:
            k = (a << shift) | b
            assert (add[k], sub[k], mul[k]) == \
                (F.add(a, b), F.sub(a, b), F.mul(a, b)), (q, a, b)
        assert inv[0] == 0
        assert [int(x) for x in inv[1:q]] == [F.inv(a) for a in range(1, q)]


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("MATGEN_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) == resolve_threads(0) >= 1
    monkeypatch.setenv("MATGEN_THREADS", "5")
    assert resolve_threads(None) == 5 and resolve_threads(2) == 2
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("MATGEN_THREADS", bad)
        with pytest.raises(DomainError):
            resolve_threads(None)
    with pytest.raises(DomainError):
        resolve_threads(-1)


# --- bounds and series ---------------------------------------------------------

def test_bound_example_value():
    assert asymptotic_upper_bound(2, 2, 2) == Fraction(128, 3)


def test_formulas_reject_non_prime_powers():
    for q in (-4, 0, 1, 6, 10, 12, 36):
        for fn in (gen_value_2x2, gen_numerator_2x2):
            with pytest.raises(DomainError):
                fn(q, 2)
        with pytest.raises(DomainError):
            asymptotic_upper_bound(q, 2, 2)


def test_formulas_decide_large_prime_q_quickly():
    # trial division up to sqrt(q) would take minutes on these
    start = time.perf_counter()
    for q in (2**61 - 1, 2**89 - 1):
        assert gen_value_2x2(q, 2) == q**4 * (q - 1)
        assert asymptotic_upper_bound(q, 2, 2) > 0
    with pytest.raises(DomainError):
        gen_numerator_2x2((2**61 - 1) * (2**31 - 1), 2)
    assert time.perf_counter() - start < 2.0


def test_bound_is_strict_on_small_grid():
    for q in (2, 3, 4, 5):
        for m in (2, 3):
            assert gen_value_2x2(q, m) < asymptotic_upper_bound(q, 2, m)


def test_gen_over_bound_ratio_increases_in_q():
    ratios = [Fraction(gen_value_2x2(q, 2)) / asymptotic_upper_bound(q, 2, 2)
              for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert all(r < 1 for r in ratios)


def test_euler_partial_brackets_the_product():
    lo, hi = euler_partial(Fraction(1, 2), 3)
    assert lo == Fraction(9463, 32768)
    assert 0 < hi - lo <= Fraction(1, 10**6)
    # the reciprocal certifies the constant used for the integer bound
    assert Fraction(1, 1) / lo < Fraction(3463, 1000)
    assert euler_partial(0, 3) == (Fraction(1), Fraction(1))


def test_euler_partial_brackets_tighten():
    lo3, hi3 = euler_partial(Fraction(1, 2), 3)
    lo5, hi5 = euler_partial(Fraction(1, 2), 5)
    assert lo3 <= lo5 <= hi5 <= hi3


def test_genfun_expansion():
    assert generating_series_check(2, 6)
    assert generating_series_check(3, 5)
    # constant term of the generating series
    for q in (2, 3, 5):
        assert gen_value_2x2(q, 2) == q**4 * (q - 1)


# --- thresholds over Z ----------------------------------------------------------

def test_min_generators_thresholds():
    assert min_generators_M2Z(16) == 2
    assert min_generators_M2Z(17) == 3
    assert min_generators_M2Z(448) == 3
    assert min_generators_M2Z(449) == 4
    assert min_generators_M2Z(1) == 2


def test_integer_formula_matches_field_formula_at_two():
    for m in range(9):
        num = 16**m - 3 * 8**m + 2 * 4**m
        assert num % 6 == 0
        assert integer_gen_formula(m) == gen_value_2x2(2, m) == num // 6


def gap_monotonicity_check(q: int, n: int, m_max: int) -> bool:
    """One more generator at least doubles the reachable copy count, and
    the count grows strictly in m, on 2 <= m <= m_max."""
    if n != 2:
        raise DomainError("closed formula available for n = 2 only")
    for m in range(2, m_max):
        g, g1 = gen_value_2x2(q, m), gen_value_2x2(q, m + 1)
        if g1 < 2 * g or g1 <= g:
            return False
    return True


def test_gap_monotonicity():
    assert gap_monotonicity_check(2, 2, 6)
    assert gap_monotonicity_check(3, 2, 5)
    assert gen_value_2x2(2, 2) < gen_value_2x2(3, 2) < gen_value_2x2(4, 2)


def test_gen_growth_rate_window():
    # gen_{m,2}(q) / q^{4m-3} stays within [1/2, 2) on the desk grid; the
    # lower endpoint is attained exactly at (q, m) = (2, 2)
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for m in (2, 3, 4, 5):
            ratio = Fraction(gen_value_2x2(q, m), q ** (4 * m - 3))
            assert Fraction(1, 2) <= ratio < 2
            if (q, m) != (2, 2):
                assert ratio > Fraction(1, 2)
    assert Fraction(gen_value_2x2(2, 2), 2**5) == Fraction(1, 2)


# --- subalgebras and the complement oracle --------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_catalog_counts(q):
    cat = enumerate_maximal_subalgebras(q)
    assert len(cat.noncommutative) == q + 1
    assert len(cat.commutative) == (q * q - q) // 2


def test_catalog_cap():
    with pytest.raises(DomainError):
        enumerate_maximal_subalgebras(17)


def _commutative_planes_by_scan(q):
    """The commutative maximal subalgebras found by scanning all q^4
    matrices: every A whose characteristic polynomial t^2 - tr t + det has
    no root, deduplicated by the RREF of [I, A]; each plane's count of such
    matrices comes along."""
    F = field_of_order(q)
    planes = {}
    for a, b, c, d in itertools.product(range(q), repeat=4):
        tr = F.add(a, d)
        dt = det_rows(((a, b), (c, d)), F)
        if any(F.add(F.sub(F.mul(x, x), F.mul(tr, x)), dt) == 0
               for x in range(q)):
            continue
        basis, _ = rref([(1, 0, 0, 1), (a, b, c, d)], F)
        planes[tuple(basis)] = planes.get(tuple(basis), 0) + 1
    return planes


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_catalog_matches_the_matrix_scan(q):
    planes = _commutative_planes_by_scan(q)
    # (q^2 - q)/2 irreducible quadratics with q^2 - q matrices each, and
    # q^2 - q of those matrices inside each plane spanned with the identity
    assert sum(planes.values()) == (q * q - q) ** 2 // 2
    assert set(planes.values()) == {q * q - q}
    assert enumerate_maximal_subalgebras(q).commutative == tuple(sorted(planes))


def test_check_catalog_refuses_a_bad_commutative_plane():
    F = field_of_order(3)
    cat = enumerate_maximal_subalgebras(3)
    planes = cat.commutative
    # t^2 - 1 splits over F_3: the plane of [[0, 1], [1, 0]] fixes both of
    # its eigenlines, so it lies inside their stabilizers
    split = ((1, 0, 0, 1), (0, 1, 1, 0))
    for bad, why in ((planes[:-1] + planes[:1], "distinct commutative"),
                     (planes[:-1] + (split,), "mixed intersections")):
        with pytest.raises(InvariantError, match=why):
            census._check_catalog(dataclasses.replace(cat, commutative=bad), F)
    census._check_catalog(cat, F)


def test_no_assert_statements_in_the_package():
    # python -O strips assert; internal checks raise InvariantError instead
    src = Path(census.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_complement_counts_match_everything():
    assert count_via_complement(2, 2) == 96
    assert count_via_complement(3, 2) == 3888 == pgl_order(3, 2) * 162
    assert count_via_complement(2, 3) == gen_numerator_2x2(2, 3)


def test_complement_cap():
    with pytest.raises(DomainError):
        count_via_complement(7, 2)


def _complement_reference(q, m):
    """The complement count one tuple at a time: ambient minus the tuples
    whose components all lie in one maximal subalgebra."""
    cat = enumerate_maximal_subalgebras(q)
    subalgebras = [b for _, b in cat.noncommutative] + list(cat.commutative)
    masks = [0] * q**4
    for s, basis in enumerate(subalgebras):
        for idx in census._span_members(basis, q):
            masks[idx] |= 1 << s
    nongen = 0
    for tup in itertools.product(masks, repeat=m):
        acc = -1  # the empty AND: a 0-tuple lies in every subalgebra
        for x in tup:
            acc &= x
        nongen += acc != 0
    return q ** (4 * m) - nongen


def _pgl_conj_perms_reference(q, n):
    """The PGL permutation table one matrix at a time: g^-1 from an RREF,
    two products of entry tuples and a dict from matrices to ids."""
    F = field_of_order(q)
    add, _, mul, inv = _field_tables(q)

    def matmul(x, y):
        out = []
        for i in range(n):
            for j in range(n):
                acc = mul[x[i * n]][y[j]]
                for k in range(1, n):
                    acc = add[acc][mul[x[i * n + k]][y[k * n + j]]]
                out.append(acc)
        return tuple(out)

    def inverse(x):
        aug = [list(x[i * n:(i + 1) * n]) + [int(j == i) for j in range(n)]
               for i in range(n)]
        basis, r = rref(aug, F)
        assert r == n
        return tuple(basis[i][n + j] for i in range(n) for j in range(n))

    mats = _all_mats(q, n)
    index = {mm: i for i, mm in enumerate(mats)}
    reps = {}
    for mm in mats:
        if det_rows([mm[i * n:(i + 1) * n] for i in range(n)], F) == 0:
            continue
        lead = next(c for c in mm if c)
        reps.setdefault(tuple(mul[inv[lead]][c] for c in mm), mm)
    perms = []
    for g in reps:
        gi = inverse(g)
        perms.append(tuple(index[matmul(matmul(gi, mm), g)] for mm in mats))
    return tuple(perms)


@pytest.mark.parametrize("q,n", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3)])
def test_pgl_conj_perms_match_per_matrix_reference(q, n):
    perms = census._pgl_conj_perms(q, n)
    assert perms.dtype == np.int64 and not perms.flags.writeable
    assert [tuple(row) for row in perms.tolist()] == \
        list(_pgl_conj_perms_reference(q, n))


def test_pgl_conj_perms_at_7_are_permutations():
    perms = census._pgl_conj_perms(7, 2)
    assert perms.shape == (pgl_order(7, 2), 7**4)
    assert (np.sort(perms, 1) == np.arange(7**4)).all()
    assert (perms == np.arange(7**4)).all(1).sum() == 1


def _orbit_reference(q, n, m):
    """Lexicographically-least generating tuples, one tuple and one PGL
    permutation at a time."""
    perms = census._pgl_conj_perms(q, n)
    canonical = 0
    for comps, ok in census._block_verdicts(q, n, m, 0, q ** (n * n * m)):
        for tup in zip(*comps[:, ok].tolist()):
            canonical += all(tuple(p[i] for i in tup) >= tup for p in perms)
    return canonical


@pytest.mark.parametrize("q,m", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0),
                                 (3, 1), (3, 2), (4, 0), (4, 1), (4, 2),
                                 (5, 0), (5, 1)])
def test_complement_count_matches_per_tuple_reference(q, m):
    assert count_via_complement(q, m) == _complement_reference(q, m)


@pytest.mark.parametrize("q,n,m", [(2, 2, 0), (2, 2, 1), (2, 2, 2), (2, 2, 3),
                                   (3, 2, 0), (3, 2, 1), (3, 2, 2), (2, 3, 1)])
def test_orbit_count_matches_per_tuple_reference(q, n, m):
    assert orbit_count(q, n, m) == _orbit_reference(q, n, m)


def test_complement_brute_force_and_formula_agree():
    for q, m in ((2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1),
                 (3, 2), (4, 0), (4, 1), (4, 2), (5, 0), (5, 1), (5, 2)):
        want = count_generating_bruteforce(q, 2, m).generating_count
        assert count_via_complement(q, m) == want
        if m >= 1:
            assert gen_numerator_2x2(q, m) == want
    # several blocks of prefixes each, up to the cap at q = 2
    for q, m in ((3, 3), (4, 3), (2, 6)):
        assert count_via_complement(q, m) == gen_numerator_2x2(q, m)


def test_complement_refuses_negative_m_and_the_cap():
    for q, m in ((2, -1), (3, -2), (5, -1)):
        with pytest.raises(DomainError, match="m must be"):
            count_via_complement(q, m)
    # q^(4m) over CENSUS_CAP = 2^26 is refused before any allocation
    start = time.perf_counter()
    for q, m in ((2, 7), (2, 9), (3, 5), (4, 4), (5, 3)):
        with pytest.raises(DomainError, match="exceeds cap"):
            count_via_complement(q, m)
    assert time.perf_counter() - start < 0.1


# --- sampling and the n = 1 report -----------------------------------------------

def sample_generation_probability(q: int, n: int, m: int,
                                  samples: Optional[int] = None,
                                  seed: int = 0) -> Fraction:
    """Probability that a uniform m-tuple generates M_n(F_q).

    samples=None computes the exact value from the census; otherwise a
    seeded, reproducible sample estimate is returned.
    """
    _require_field(q)
    if m < 0:
        raise DomainError("m must be >= 0")
    if m == 0:
        return Fraction(0)
    if samples is None:
        res = count_generating_bruteforce(q, n, m)
        return Fraction(res.generating_count, res.ambient_count)
    if samples < 1:
        raise DomainError("samples must be >= 1")
    N = q ** (n * n)
    if N > 2**63:
        raise DomainError("sampling needs q^(n^2) <= 2^63")
    rng = random.Random(seed)
    hits = 0
    for start in range(0, samples, BLOCK):
        size = min(BLOCK, samples - start)
        ids = np.array([rng.randrange(N) for _ in range(size * m)], np.int64)
        hits += int(_generates_block(ids.reshape(size, m).T, q, n).sum())
    return Fraction(hits, samples)


def test_sampling_exact_and_seeded():
    assert sample_generation_probability(2, 2, 2) == Fraction(96, 256)
    assert sample_generation_probability(2, 2, 0) == 0
    a = sample_generation_probability(3, 2, 2, samples=500, seed=42)
    b = sample_generation_probability(3, 2, 2, samples=500, seed=42)
    assert a == b


def test_sampling_seeded_values():
    # the sampler draws the same tuples from the same random.Random stream
    cases = {(2, 2, 2, 500, 42): Fraction(211, 500),
             (3, 2, 2, 500, 42): Fraction(14, 25),
             (2, 2, 2, 10_000, 1): Fraction(1877, 5000),
             (9, 2, 2, 10_000, 1): Fraction(8823, 10000),
             (4, 2, 3, 2000, 5): Fraction(1853, 2000),
             (8, 2, 2, 2000, 3): Fraction(869, 1000),
             (3, 3, 2, 300, 7): Fraction(58, 75),
             (16, 2, 1, 500, 2): Fraction(0)}
    for (q, n, m, samples, seed), want in cases.items():
        assert sample_generation_probability(q, n, m, samples=samples,
                                             seed=seed) == want
    for q, m, samples in ((6, 2, 10), (2, -1, 10), (2, 2, 0)):
        with pytest.raises(DomainError):
            sample_generation_probability(q, 2, m, samples=samples)


def test_sampling_monotone_in_q():
    lo = sample_generation_probability(2, 2, 2, samples=10_000, seed=1)
    hi = sample_generation_probability(9, 2, 2, samples=10_000, seed=1)
    assert hi > lo


def test_n1_report_matches_a_per_tuple_count():
    # across block edges (2^13, 3^8) and at m = 0, the empty tuple
    for q, m in ((2, 0), (2, 5), (3, 4), (5, 2), (2, 13), (3, 8)):
        tuples = list(itertools.product(range(q), repeat=m))
        rep = n1_census_report(q, m)
        assert rep["unital"] == sum(any((1,) + t) for t in tuples)
        assert rep["nonunital"] == sum(any(t) for t in tuples)


def test_n1_report_is_bounded():
    # the largest admitted report enumerates 2^26 = CENSUS_CAP tuples
    start = time.perf_counter()
    rep = n1_census_report(2, 26)
    assert time.perf_counter() - start < 5
    assert (rep["unital"], rep["nonunital"], rep["up_to_scaling"]) == \
        (2**26, 2**26 - 1, 2**26 - 1)


def test_n1_report_conventions():
    rep = n1_census_report(2, 2)
    assert (rep["unital"], rep["nonunital"], rep["up_to_scaling"]) == (4, 3, 3)
    rep = n1_census_report(2, 3)
    assert (rep["unital"], rep["nonunital"], rep["up_to_scaling"]) == (8, 7, 7)
    rep = n1_census_report(3, 2)
    assert (rep["unital"], rep["nonunital"], rep["up_to_scaling"]) == (9, 8, 4)
