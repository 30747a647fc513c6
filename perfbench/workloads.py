"""Seeded op lists for the three workloads, with the exactness gate of each op.

A workload is a fixed list of steps built from the seed.  A step of kind
"op" is one attempted operation: it is timed on its own, counted in
`attempted`, and its answer is checked.  A step of kind "aux" is work the
workload needs between ops (the all-primes certificate of an oracle case);
it counts towards the round's wall time but is not a latency sample.

Every check compares an answer with a closed value or an independent public
path and raises WrongAnswer on disagreement.  Refusals (DomainError,
UndecidableError) are allowed outcomes and are never checked.

Two seeds give the same number of ops and the same mix: the seed chooses
matrix entries, conjugators, column subsets and the order of census calls,
never which templates run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# ops call matgen through module attributes, so that the tracer's
# replacements of those attributes see every call
from matgen import census, construct, conjugacy, generation, tuplefile, zverify
from matgen.domains import QQ, ZZ, field_of_order
from matgen.generation import (
    ConjugatePair,
    CrossSectionFails,
    DirectSumShape,
    det_commutator_generates,
    mat_tuple,
)
from matgen.linalg import Mat, mat, rref


class WrongAnswer(Exception):
    """The program returned an answer that the gate refutes."""


@dataclass
class Step:
    kind: str                      # "op" or "aux"
    label: str                     # template name, shared by every seed
    run: Callable[[], object]
    check: Callable[[object], None]
    tuples: int = 0                # enumeration units, for tuples_per_s


@dataclass
class CliRun:
    label: str
    argv: list                     # arguments after `python3 -m matgen.cli`
    expect: Callable[[int, str], None]   # (exit code, stdout) -> raises WrongAnswer
    files: dict = field(default_factory=dict)  # name -> text written before the run


@dataclass
class Workload:
    steps: list
    cli: list
    reference: str = "python"      # the host-speed loop that matches the work


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


# ---------------------------------------------------------------------------
# census: exhaustive counts over F_2, F_3, F_4 (n = 2), one worker

# (kind, args, copies per round).  (4,2,2) and (2,2,4) carry the bulk of the
# enumeration; the many tiny calls keep per-call overhead in latency_p50_ms.
# The counts put the median op inside the cluster of ~25 ms calls ((2,2,3),
# orbit (2,2,3), complement (4,2)): a median at the edge of the ~1 ms
# (2,2,2) group moved by 30% from run to run on a shared host.
CENSUS_PLAN = (
    ("brute", (4, 2, 2), 1),
    ("brute", (2, 2, 4), 1),
    ("brute", (2, 2, 2), 30),
    ("brute", (2, 2, 3), 40),
    ("brute", (3, 2, 2), 2),
    ("orbit", (2, 2, 3), 8),
    ("orbit", (3, 2, 2), 1),
    ("complement", (3, 3), 2),
    ("complement", (4, 2), 6),
)


def _census_step(kind: str, args: tuple) -> Step:
    if kind == "brute":
        q, n, m = args

        def check(res):
            _require(res.ambient_count == q ** (n * n * m), f"ambient {args}")
            _require(res.generating_count == census.gen_numerator_2x2(q, m),
                     f"bruteforce {args} != formula")
            _require(res.gen_value == census.gen_value_2x2(q, m),
                     f"gen value {args} != formula")

        return Step("op", f"brute{args}",
                    lambda: census.count_generating_bruteforce(q, n, m, threads=1),
                    check, q ** (n * n * m))
    if kind == "orbit":
        q, n, m = args

        def check(res):
            total = census.gen_numerator_2x2(q, m)
            pgl = census.pgl_order(q, n)
            _require(total % pgl == 0 and res == total // pgl,
                     f"orbit count {args} != total / pgl_order")

        return Step("op", f"orbit{args}", lambda: census.orbit_count(q, n, m),
                    check, q ** (n * n * m))
    q, m = args

    def check(res):
        _require(res == census.gen_numerator_2x2(q, m),
                 f"complement count {args} != formula")

    return Step("op", f"complement{args}",
                lambda: census.count_via_complement(q, m), check, q ** (4 * m))


def _census_cli(q: int, m: int) -> CliRun:
    def expect(code, out):
        _require(code == 0, f"count q={q} m={m} exited {code}")
        rep = json.loads(out)
        want = census.gen_numerator_2x2(q, m)
        _require(rep["agree"] and rep["brute"]["generating_count"] == want
                 and rep["complement"] == want and rep["formula"]["numerator"] == want,
                 f"count q={q} m={m} disagrees with the formula")

    return CliRun(f"count q={q} m={m}",
                  ["--json", "--threads", "1", "count", "--q", str(q),
                   "--m", str(m), "--mode", "all"], expect)


def build_census(seed: int) -> Workload:
    rng = random.Random(seed)
    # first-call tables (small_field, _all_mats, PGL permutations) are built
    # here through the public entry points, outside the timed rounds
    for q in (2, 3, 4):
        census.count_generating_bruteforce(q, 2, 1, threads=1)
    for q in (2, 3):
        census.orbit_count(q, 2, 1)
    steps = [_census_step(kind, args)
             for kind, args, copies in CENSUS_PLAN for _ in range(copies)]
    rng.shuffle(steps)
    cli = [_census_cli(2, 3), _census_cli(3, 2)]
    return Workload(steps, cli)


# ---------------------------------------------------------------------------
# plain matrix arithmetic over any matgen domain, independent of
# matgen.linalg: inputs are built with it and the gate re-verifies
# witnesses with it


def _mm(D, a, b):
    n = len(a)
    return [[_dot(D, a[i], [b[k][j] for k in range(n)]) for j in range(n)]
            for i in range(n)]


def _dot(D, xs, ys):
    acc = D.zero()
    for x, y in zip(xs, ys):
        acc = D.add(acc, D.mul(x, y))
    return acc


def _det(D, a):
    n = len(a)
    if n == 1:
        return a[0][0]
    acc = D.zero()
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        term = D.mul(a[0][j], _det(D, minor))
        acc = D.add(acc, term) if j % 2 == 0 else D.sub(acc, term)
    return acc


def _rows(m: Mat):
    return [list(r) for r in m.rows]


def _to_mat(D, rows) -> Mat:
    return Mat(D, len(rows), tuple(tuple(r) for r in rows))


# SL_2(Z) conjugators with small entries, used over Z and Q
_SL2 = (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, -1), (0, 1)),
        ((1, 0), (-1, 1)), ((0, -1), (1, 0)), ((2, 1), (1, 1)))


def _sl2_pair(rng, D):
    u = rng.choice(_SL2)
    (a, b), (c, d) = u
    conv = D.convert
    return ([[conv(a), conv(b)], [conv(c), conv(d)]],
            [[conv(d), conv(-b)], [conv(-c), conv(a)]])


def _field_pair(rng, F, n):
    """Random invertible P over a finite field, with its inverse."""
    elems = list(F.elements())
    while True:
        p = [[rng.choice(elems) for _ in range(n)] for _ in range(n)]
        if F.is_unit(_det(F, p)):
            break
    one, zero = F.one(), F.zero()
    aug = [p[i] + [one if j == i else zero for j in range(n)] for i in range(n)]
    basis, _ = rref(aug, F)
    return p, [list(row[n:]) for row in basis]


def _conjugator(rng, D, n):
    if D.is_field and D.char:
        return _field_pair(rng, D, n)
    if n != 2:
        raise ValueError("integer and rational conjugators are 2x2 here")
    return _sl2_pair(rng, D)


def _conjugate_copy(D, mats, pair):
    p, p_inv = pair
    return [_to_mat(D, _mm(D, _mm(D, p, _rows(a)), p_inv)) for a in mats]


def _conjugate_copies(rng, D, generators):
    """Apply an independent random automorphism X -> P X P^-1 to each copy."""
    copies = list(zip(*generators))
    new = [_conjugate_copy(D, list(col), _conjugator(rng, D, col[0].n))
           for col in copies]
    return [tuple(col[g] for col in new) for g in range(len(generators))]


def _rand_elem(rng, D):
    if D == ZZ:
        return rng.randint(-2, 2)
    if D == QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.choice(list(D.elements()))


def _doc(D, n_sizes, generators) -> str:
    blocks = []
    for n_i in n_sizes:
        if blocks and blocks[-1][0] == n_i:
            blocks[-1][1] += 1
        else:
            blocks.append([n_i, 1])
    shape = DirectSumShape(tuple((n_i, m_i) for n_i, m_i in blocks))
    return tuplefile.dumps(tuplefile.TupleFile(D, shape, tuple(generators)))


# ---------------------------------------------------------------------------
# check: tuple-file documents decided the way `matgen check` decides them


def _table16_columns(rng, D, copies):
    """A seeded subset of the table16 columns, read over D.

    Any subset of a generating set of M_2(Z)^16 generates the matching
    sub-sum, and so does its image over F_q and Q, because the copies are
    absolutely irreducible and pairwise non-conjugate over F_p.
    """
    cols = rng.sample(range(len(construct.TABLE16_PAIRS)), copies)
    return [tuple(mat(D, construct.TABLE16_PAIRS[c][which]) for c in cols)
            for which in (0, 1)]


def _xy_chain(D, n, copies, cache):
    """Standard pair over D, grown by the gap recipes to `copies` copies."""
    key = (D, n, copies)
    if key not in cache:
        fam = construct.standard_xy_family(n, D)
        chain = {1: (), 2: ("plus",), 3: ("plus", "plus"), 4: ("plus", "double")}
        for recipe in chain[copies]:
            fam = (construct.gap_plus_one(fam) if recipe == "plus"
                   else construct.gap_double(fam))
        cache[key] = fam.generators
    return list(cache[key])


def _triangular_family(rng, D, n, copies, gens=2):
    """Random generators; one copy shares an invariant line, so not generating."""
    bad = rng.randrange(copies)
    cols = []
    for c in range(copies):
        mats = []
        for _ in range(gens):
            rows = [[_rand_elem(rng, D) for _ in range(n)] for _ in range(n)]
            if c == bad:
                for i in range(1, n):
                    for j in range(i):
                        rows[i][j] = D.zero()
            mats.append(rows)
        pair = _conjugator(rng, D, n)
        cols.append([_to_mat(D, _mm(D, _mm(D, pair[0], r), pair[1])) for r in mats])
    return [tuple(col[g] for col in cols) for g in range(gens)]


def _make_conjugate(rng, D, generators):
    """Overwrite one copy with a conjugate of another: not generating."""
    copies = [list(col) for col in zip(*generators)]
    i, j = rng.sample(range(len(copies)), 2)
    copies[j] = _conjugate_copy(D, copies[i], _conjugator(rng, D, copies[i][0].n))
    return [tuple(col[g] for col in copies) for g in range(len(generators))]


@dataclass
class Decision:
    tf: object
    verdict: bool
    criterion: object = None       # GenReport of tuple_criterion_generates
    zverdict: object = None        # ZGenVerdict of verify_z_tuples


def decide(text: str) -> Decision:
    """The decision path of `matgen check`, on a document held in memory."""
    tf = tuplefile.loads(text)
    domain = tf.domain
    if domain.is_field and domain.char != 0:
        rep = generation.closure_generates(tf.generators, tf.shape)
        crit = None
        if tf.is_homogeneous:
            crit = generation.tuple_criterion_generates(
                [mat_tuple(list(g)) for g in tf.generators])
        return Decision(tf, rep.verdict, criterion=crit)
    if domain == ZZ:
        v = zverify.verify_z_tuples(tf.generators)
        return Decision(tf, v.overall, zverdict=v)
    return Decision(tf, generation.closure_generates(tf.generators, tf.shape).verdict)


def _intertwines_mod(c, a_mats, b_mats, D, p=None):
    """C A_i = B_i C for every i, and det C a unit; over Z reduced mod p."""
    def norm(rows):
        return [[x % p for x in r] for r in rows] if p else rows

    crows = norm(c)
    for a, b in zip(a_mats, b_mats):
        if norm(_mm(D, crows, norm(_rows(a)))) != norm(_mm(D, norm(_rows(b)), crows)):
            return False
    d = _det(D, crows)
    return d % p != 0 if p else D.is_unit(d)


def _check_certificate(cert, ta, tb) -> None:
    for pv in cert.exceptional_primes:
        if pv.witness is not None:
            _require(_intertwines_mod(_rows(pv.witness), ta, tb, ZZ, pv.p),
                     f"certificate witness mod {pv.p} does not conjugate")
    if cert.witness is not None:
        p, w = cert.witness
        _require(_intertwines_mod(_rows(w), ta, tb, ZZ, p),
                 f"certificate witness mod {p} does not conjugate")
    _require(cert.overall == (cert.witness is None),
             "certificate overall disagrees with its witness")


def _check_decision(expected: bool):
    def check(dec: Decision) -> None:
        _require(dec.verdict == expected,
                 f"verdict {dec.verdict}, constructed as {expected}")
        gens = dec.tf.generators
        sizes = dec.tf.shape.copy_sizes
        crossing = [[g[i] for g in gens] for i in range(len(sizes))]
        by_det = ([det_commutator_generates(*cs) for cs in crossing]
                  if len(gens) == 2 and set(sizes) == {2} else None)
        if dec.verdict and by_det is not None:
            _require(all(by_det), "generating, but some det[A,B] is not a unit")
        crit = dec.criterion
        if crit is not None:
            fc = crit.failed_condition
            _require(crit.verdict == dec.verdict, "criterion disagrees with closure")
            if isinstance(fc, CrossSectionFails) and by_det is not None:
                _require(not by_det[fc.index] and all(by_det[:fc.index]),
                         "failing cross-section disagrees with det[A,B]")
            if isinstance(fc, ConjugatePair):
                _require(_intertwines_mod(_rows(fc.witness), crossing[fc.i],
                                          crossing[fc.j], dec.tf.domain),
                         "conjugacy witness does not conjugate")
        v = dec.zverdict
        if v is not None:
            for cs in v.componentwise:
                if by_det is not None:
                    _require(cs.lattice_ok == by_det[cs.index],
                             "lattice closure disagrees with det[A,B]")
            for i, j, cert in v.pairwise:
                _check_certificate(cert, crossing[i], crossing[j])
    return check


def _semiprime(rng) -> int:
    """N = p q with p, q primes near 10^5, so N is near 10^10."""
    primes = []
    while len(primes) < 2:
        c = rng.randrange(95_000, 105_000)
        if c not in primes and all(c % d for d in range(2, int(c ** 0.5) + 1)):
            primes.append(c)
    return primes[0] * primes[1]


# (field order or "Z"/"Q", n, copies, kind); kinds: gen16 (the shipped
# fixture), t16 (table16 columns), xy (gap chain), mixed, scalar
# (generating); tri, conj (non-generating); semiprime (Z, not generating,
# with about 10^5 steps of trial division in the certificate).  Non-generating
# 2x2 families over F_8 and F_16 are only of kind tri: their eigenline test
# needs F_64 or F_256, which build_ext_field refuses (degree above 4), so the
# share of refusals is the share of these templates.
FIELDS = (2, 3, 5, 7, 4, 8, 9, 16)
CHECK_PLAN = tuple(
    [(q, 2, (2, 6, 4, 5, 3, 2, 3, 4)[k], "t16") for k, q in enumerate(FIELDS)]
    + [(q, 3, (1, 2, 3, 4, 2, 2, 1, 2)[k], "xy") for k, q in enumerate(FIELDS)]
    + [(q, 2, (1, 2, 3, 2, 3, 1, 2, 3)[k], "tri") for k, q in enumerate(FIELDS)]
    + [(q, 3, (1, 2, 2, 1, 2, 1, 2, 1)[k], "tri") for k, q in enumerate(FIELDS)]
    + [(q, 2, (3, 4, 3, 4, 3, 3)[k], "conj")
       for k, q in enumerate(q for q in FIELDS if q not in (8, 16))]
    + [(q, 3, 2, "conj") for q in FIELDS]
    + [("Z", 2, c, "t16") for c in (2, 4, 6)]
    + [("Z", 2, 16, "gen16"), ("Z", 2, 3, "tri"), ("Z", 2, 2, "tri"),
       ("Z", 2, 3, "conj"), ("Z", 2, 4, "conj")]
    + [("Z", 2, 2, "semiprime")] * 3
    + [("Q", 2, 3, "t16"), ("Q", 0, 2, "mixed"), ("Q", 0, 5, "scalar"),
       ("Q", 2, 2, "tri"), ("Q", 2, 3, "tri"), ("Q", 2, 3, "conj")]
)
CHECK_ROUNDS = 2   # each template is instantiated twice with fresh draws

GEN16_PATH = Path("src") / "matgen" / "fixtures" / "gen16_pairs.json"


def _domain(spec):
    return {"Z": ZZ, "Q": QQ}.get(spec) or field_of_order(spec)


def _check_doc(rng, root: Path, spec, n, copies, kind, cache):
    """(document text, expected verdict) for one template; `cache` keeps the
    deterministic gap chains of one build."""
    D = _domain(spec)
    if kind == "gen16":
        return (root / GEN16_PATH).read_text(encoding="utf-8"), True
    if kind == "semiprime":
        N = _semiprime(rng)
        a, b = mat(ZZ, [[0, 1], [0, N]]), mat(ZZ, [[0, 1], [0, 0]])
        return _doc(D, (2, 2), [(a, a), (b, b)]), False
    if kind == "mixed":
        fams = [construct.standard_xy_family(n_i, D) for n_i in (2, 3)]
        fam = construct.combine_mixed(fams)
        return _doc(D, fam.shape.copy_sizes, fam.generators), True
    if kind == "scalar":
        s2 = rng.sample(range(-4, 5), 3)
        s3 = rng.sample(range(-4, 5), copies - 3)
        fam = construct.scalar_family_generators([(2, s2), (3, s3)], D)
        return _doc(D, fam.shape.copy_sizes, fam.generators), True
    if kind == "tri":
        gens = _triangular_family(rng, D, n, copies)
        return _doc(D, (n,) * copies, gens), False
    gens = (_table16_columns(rng, D, copies) if n == 2
            else _xy_chain(D, n, copies, cache))
    gens = _conjugate_copies(rng, D, gens)
    if kind == "conj":
        return _doc(D, (n,) * copies, _make_conjugate(rng, D, gens)), False
    return _doc(D, (n,) * copies, gens), True


def _check_cli(label, text, expected) -> CliRun:
    want = 0 if expected else 1

    def expect(code, out):
        _require(code == want, f"matgen check on {label} exited {code}, want {want}")

    return CliRun(label, ["--threads", "1", "check", "--input", "{dir}/doc.json"],
                  expect, {"doc.json": text})


# templates that also run through `matgen check` as a process
CHECK_CLI = (("Z", 2, 16, "gen16"), (5, 2, 4, "t16"), (9, 3, 2, "tri"),
             ("Q", 0, 2, "mixed"))


def build_check(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    construct.table16()
    steps, cache = [], {}
    for _ in range(CHECK_ROUNDS):
        for spec, n, copies, kind in CHECK_PLAN:
            text, expected = _check_doc(rng, root, spec, n, copies, kind, cache)
            label = f"{kind} {spec} n={n} x{copies}"
            steps.append(Step("op", label, lambda t=text: decide(t),
                              _check_decision(expected),
                              tuples=len(tuplefile.loads(text).generators)))
    cli = []
    for spec, n, copies, kind in CHECK_CLI:
        text, expected = _check_doc(rng, root, spec, n, copies, kind, cache)
        cli.append(_check_cli(f"{kind} {spec} n={n} x{copies}", text, expected))
    return Workload(steps, cli)


# ---------------------------------------------------------------------------
# oracle: the all-primes certificate against the GL_2(F_p) sweep

ORACLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
ORACLE_CASES = 12          # per round; a third are conjugate over Z
ORACLE_CONJUGATE = 4


def _int_tuple(rows_list):
    return mat_tuple([mat(ZZ, rows) for rows in rows_list])


def _oracle_case(rng, conjugate: bool):
    def rand_pair():
        return [[[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
                for _ in range(2)]

    a = rand_pair()
    if conjugate:
        u, u_inv = _sl2_pair(rng, ZZ)
        b = [_mm(ZZ, _mm(ZZ, u, x), u_inv) for x in a]
    else:
        b = rand_pair()
    return _int_tuple(a), _int_tuple(b)


def _oracle_steps(ta, tb, conjugate: bool):
    state = {}
    found = {}

    def certify():
        state.pop("cert", None)
        return conjugacy.nonconjugate_all_primes(ta, tb)

    def keep_cert(cert):
        _check_certificate(cert, ta.mats, tb.mats)
        if conjugate:
            _require(not cert.overall, "SL_2(Z)-conjugate pair certified non-conjugate")
        state["cert"] = cert

    steps = [Step("aux", "certificate", certify, keep_cert)]
    for p in ORACLE_PRIMES:
        def check(c, p=p):
            if c is not None:
                _require(_intertwines_mod(_rows(c), ta.mats, tb.mats, ZZ, p),
                         f"sweep conjugator mod {p} does not conjugate")
            found[p] = c is not None
            if conjugate:
                _require(found[p], f"conjugate pair not found by the sweep mod {p}")
            cert = state.get("cert")
            if cert is None:    # the certificate refused: nothing to compare with
                return
            for pv in cert.exceptional_primes:
                if pv.p == p:
                    _require(pv.invertible_found == found[p],
                             f"sweep and certificate disagree at p = {p}")
            if p == ORACLE_PRIMES[-1]:
                if cert.overall:
                    _require(not any(found.values()),
                             "sweep conjugates a certified non-conjugate pair")
                elif cert.witness[0] <= p:
                    _require(any(found.values()), "sweep misses the witness prime")

        group = (p * p - 1) * (p * p - p)
        steps.append(Step("op", f"sweep p={p}",
                          lambda p=p: conjugacy.conjugate_mod_p_bruteforce(ta, tb, p),
                          check, tuples=group))
    return steps


def _oracle_cli() -> CliRun:
    def expect(code, out):
        _require(code == 0 and "overall: True" in out,
                 f"matgen table16 exited {code}")

    return CliRun("table16", ["--threads", "1", "table16"], expect)


def build_oracle(seed: int) -> Workload:
    rng = random.Random(seed)
    kinds = [True] * ORACLE_CONJUGATE + [False] * (ORACLE_CASES - ORACLE_CONJUGATE)
    rng.shuffle(kinds)
    steps = []
    for conjugate in kinds:
        ta, tb = _oracle_case(rng, conjugate)
        steps.extend(_oracle_steps(ta, tb, conjugate))
    # the per-p GL_2 arrays are built on first use; build them here
    probe = _int_tuple([[[1, 0], [0, 1]]])
    for p in ORACLE_PRIMES:
        conjugacy.conjugate_mod_p_bruteforce(probe, probe, p)
    return Workload(steps, [_oracle_cli()], reference="numpy")


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "census":
        return build_census(seed)
    if name == "check":
        return build_check(seed, root)
    if name == "oracle":
        return build_oracle(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("census", "check", "oracle")
