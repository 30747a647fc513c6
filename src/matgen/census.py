"""Brute-force censuses and closed-form evaluators.

Exhaustive counting of generating m-tuples of n x n matrices over F_q,
PGL-orbit counting by canonical representatives, the maximal-subalgebra
catalog of M_2(F_q), built from its classification (the q + 1 stabilizers
of projective lines and one commutative plane per irreducible monic
quadratic), with the complement-count oracle, and exact evaluators for
every closed formula and bound used downstream.

The enumeration engine numbers matrices by integer ids, their entries as
base-q digits, over flat numpy tables of field_of_order(q)'s operations.
Every tuple gets its own verdict, a block of tuples per numpy call, from a
fold over its components: the state starts at the zero algebra and becomes
the algebra generated by the state and the next matrix, read off a
transition table of subalgebras (_Transitions), and the tuple generates when
the last step reaches M_n(F_q).  A tuple's algebra depends only on that of
its first m - 1 components and its last one, and M_n(F_q) has few
subalgebras (2q^2 + 6q + 8 at n = 2, against q^(4m) tuples), so a warm
census costs m gathers per tuple.

The table's rows are built on first use by the one batched span closure,
the level loop (_generates_block): per-tuple echelon bases, grown level by
level from the products of the newly added rows with the generators until
a tuple reaches rank n^2 or a level adds nothing.  A vector is its n^2
field entries, and each entry operation is a gather from a flat table of
the field; the loop's memory grows with the block size and n.  The orbit
count compares the ids of a block of generating tuples with those of their
PGL images; the complement count ANDs the subalgebra membership masks of a
block of tuples.

The level loop indexes the tuple axis only through flat integer indices:
the tuples still open are kept by take at np.flatnonzero of their mask, the
new row of tuple t is candidate k at k B + t in the flattened candidates,
and the frontier is one scatter by cumulative-sum rank.  No boolean mask,
paired fancy index or sort runs on that axis.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .domains import DomainError, InvariantError, field_of_order, is_prime_power
from .linalg import det_rows, kernel_basis, rref, subspace_intersection

CENSUS_CAP = 2**26
# A census uses at most one worker process per this many ambient tuples.
# Measured on 2 cores with the transition fold, fresh processes, medians of
# 5 alternated runs, one worker -> two: (5,2,2) 0.040 -> 0.132 s, (3,2,3)
# 0.056 -> 0.128 s, (2,2,5) 0.052 -> 0.119 s, (7,2,2) 0.227 -> 0.227 s,
# (4,2,3) 0.498 -> 0.338 s and (2,2,6) 0.744 -> 0.441 s.  Each worker
# builds its own transition rows, and starting the pool costs tens of ms,
# so two workers pay from 2^23 tuples.  (2,3,2), 2^18 tuples, is mostly
# row builds and gains 0.514 -> 0.324 s, but runs in one process.
TUPLES_PER_WORKER = 2**22


# ---------------------------------------------------------------------------
# batched span closure over F_q
#
# A block of m-tuples is decided at once.  Every array keeps the tuple axis
# last, so each per-entry slice is contiguous.  Entry operations are gathers
# from flat tables indexed by (a << shift) | b.

BLOCK = 4096  # m-tuples per kernel call; bounds the kernel's scratch memory


@lru_cache(maxsize=None)
def _field_arrays(q: int):
    """(shift, add, sub, mul, inv) of field_of_order(q) as flat numpy tables:
    a op b at (a << shift) | b, and a^-1 at a (0 at 0)."""
    import numpy as np

    shift = max(1, (q - 1).bit_length())
    if shift > 8:
        raise DomainError("the batched census supports q <= 256")
    F = field_of_order(q)
    dtype = np.uint8 if shift <= 4 else np.uint16
    pairs = list(itertools.product(range(q), repeat=2))
    index = [(a << shift) | b for a, b in pairs]

    def flat(op):
        out = np.zeros(1 << (2 * shift), dtype)
        out[index] = [op(a, b) for a, b in pairs]
        return out

    inv = np.zeros(1 << shift, dtype)
    inv[1:q] = [F.inv(a) for a in range(1, q)]
    return shift, flat(F.add), flat(F.sub), flat(F.mul), inv


def _digits(ids, base: int, count: int, dtype):
    """Base-`base` digits of int64 ids, most significant first:
    (count, len(ids)).  A tuple id in [0, N^m) splits into its m matrix ids
    with base N; a matrix id splits into its entries with base q."""
    import numpy as np

    out = np.empty((count, len(ids)), dtype)
    for i in range(count - 1, -1, -1):
        # one floor division and a product: np.divmod takes twice as long
        high = ids // base
        out[i] = ids - high * base
        ids = high
    return out


def _block_verdicts(q: int, n: int, m: int, lo: int, hi: int):
    """Yield (comps, ok) per block of the m-tuples with ids in [lo, hi):
    comps (m, B) holds their matrix ids and ok their generation mask, read
    by folding each tuple's components through _transitions(q, n)."""
    import numpy as np

    N = q ** (n * n)
    fold = _transitions(q, n)
    for start in range(lo, hi, BLOCK):
        ids = np.arange(start, min(start + BLOCK, hi), dtype=np.int64)
        comps = _digits(ids, N, m, np.int64)
        yield comps, fold.verdicts(comps)


@lru_cache(maxsize=None)
def _transitions(q: int, n: int) -> "_Transitions":
    return _Transitions(q, n)


class _Transitions:
    """The subalgebras of M_n(F_q) met so far, with their transition rows.

    A state is a subalgebra, known by its reduced row echelon basis as
    matrix ids by pivot column (0 where a column has no row), numbered in
    the order first met: 0 is the zero algebra and 1 all of M_n(F_q).
    table("step")[s, A] is the state of the algebra generated by s and the
    matrix with id A, and table("full")[s, A] is 1 when that algebra is all
    of M_n(F_q), else 0; an entry not built yet reads -1.  The full state's
    rows are 1 without a closure.  The step table is made only when a fold
    first reads it, at m >= 2, so a census of single matrices keeps one
    byte per matrix and state.

    Rows are built when a fold first reads -1: the rows of every missing
    state of the block by runs of the level loop (_generates_block), each
    on BLOCK (state, matrix) pairs, seeded with the generating prefix the
    state was first met by, plus the matrix.  A full row needs only the
    loop's mask; a step row also reduces each closure to its reduced basis.
    alg(s, A) = alg(s, c (A - x)) for x in s and c != 0, so the loop closes
    one representative per class of F_q^* (A + s), and every pair reads its
    class's answer."""

    def __init__(self, q: int, n: int):
        import numpy as np

        d = n * n
        self.q, self.n, self.N = q, n, q ** d
        self.weights = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
        # the zero algebra, and the full one, whose basis is the units E_c
        self.basis = [np.zeros(d, np.int64), self.weights]
        self.ids = {b.tobytes(): s for s, b in enumerate(self.basis)}
        self.prefix = [(), None]  # generating matrix ids; none for the full
        self.tables = {}

    def table(self, name: str):
        """The step (intp) or full (int8) table, with a row per state met."""
        import numpy as np

        old = self.tables.get(name)
        if old is not None and len(old) >= len(self.prefix):
            return old
        rows = len(self.prefix) if old is None else max(len(self.prefix), 2 * len(old))
        new = np.full((rows, self.N), -1, np.intp if name == "step" else np.int8)
        if old is not None:
            new[:len(old)] = old
        new[1] = 1
        self.tables[name] = new
        return new

    def verdicts(self, comps):
        """Generation mask of a block of m-tuples of matrix ids, (m, B): the
        state starts at the zero algebra and moves by step[state, A_i] for
        every component but the last, whose full[state, A_m] is the
        verdict.  alg(A_1..A_k) is the algebra generated by alg(A_1..A_k-1)
        and A_k, so this is exact."""
        import numpy as np

        m, nt = comps.shape
        state = np.zeros(nt, np.intp)
        for i in range(m):
            name = "full" if i + 1 == m else "step"
            at = state * self.N + comps[i]
            nxt = self.table(name).take(at)
            if nxt.min(initial=0) < 0:
                self._build(state.take(np.flatnonzero(nxt < 0)), name == "step")
                nxt = self.table(name).take(at)
            state = nxt
        return state == 1  # at m = 0 every tuple is the zero algebra

    def _build(self, states, steps: bool) -> None:
        """The full rows of states, and with steps their step rows too."""
        import numpy as np

        q, n, N = self.q, self.n, self.N
        d = n * n
        mark = np.zeros(len(self.prefix), bool)
        mark[states] = True
        states = np.flatnonzero(mark)
        width = max(len(self.prefix[s]) for s in states.tolist())
        seeds = np.zeros((width, len(states)), np.int64)  # zero pads
        for j, s in enumerate(states.tolist()):
            seeds[:len(self.prefix[s]), j] = self.prefix[s]
        bases = np.concatenate([self.basis[s] for s in states.tolist()])
        rows = _digits(bases, q, d, _field_arrays(q)[3].dtype).reshape(d, -1, d)
        pairs = len(states) * N
        for start in range(0, pairs, BLOCK):
            # pair k: state states[k // N] and the matrix k % N.  A class's
            # representative has the least id in it, so its pair comes first
            k = np.arange(start, min(start + BLOCK, pairs), dtype=np.int64)
            owner = k // N
            mat = k - owner * N
            rep = self._classes(rows, owner, mat)
            own = np.flatnonzero(rep == mat)
            source, reps = owner.take(own), mat.take(own)
            comps = np.concatenate([seeds.take(source, 1), reps[None]])
            at = states.take(owner) * N
            built = at.take(own) + reps
            if steps:
                ok, keys = _generates_block(comps, q, n, spans=True)
                found = self._state_ids(keys, states.take(source).tolist(),
                                        reps.tolist())
                step = self.table("step").reshape(-1)
                step[built] = found
                step[at + mat] = step.take(at + rep)
            else:
                ok = _generates_block(comps, q, n)
            full = self.table("full").reshape(-1)
            full[built] = ok
            full[at + mat] = full.take(at + rep)

    def _classes(self, rows, owner, mat):
        """The class representative of each matrix id mat modulo the state
        whose basis entries are rows[:, owner] (entry, state, pivot): the
        matrix reduced by that basis, scaled to a leading 1.  Its id is at
        most mat's: the reduction zeroes the pivot entries, each the first
        entry its row changes, and the scaling lowers the leading entry to
        1."""
        import numpy as np

        shift, _, sub, mul, inv = _field_arrays(self.q)
        red = _digits(mat, self.q, len(rows), rows.dtype)  # (d, B) entries
        for c in np.flatnonzero(rows.any((0, 1))).tolist():
            # an absent row is zero and reduces nothing
            scaled = mul.take((red[c] << shift)[None] | rows[:, :, c].take(owner, 1))
            red = sub.take((red << shift) | scaled)
        lead = red.take((red != 0).argmax(0) * len(mat) + np.arange(len(mat)))
        return self.weights @ mul.take((inv.take(lead) << shift)[None] | red)

    def _state_ids(self, keys, owners, reps):
        """The state id of each reduced basis key (B, d), numbering the new
        ones; a new state's prefix is its owner's prefix plus its matrix."""
        import numpy as np

        found = []
        rows = np.ascontiguousarray(keys).view(np.dtype((np.void, keys.shape[1] * 8)))
        for key, owner, rep in zip(rows.ravel().tolist(), owners, reps):
            found.append(self.ids.setdefault(key, len(self.prefix)))
            if found[-1] == len(self.prefix):
                self.basis.append(np.frombuffer(key, np.int64))
                self.prefix.append(self.prefix[owner] + (rep,))
        return np.array(found, np.intp)


def _generates_block(comps, q: int, n: int, spans: bool = False):
    """Generation mask of a block of m-tuples of matrix ids, comps (m, B);
    with spans also the (B, n^2) int64 keys of the algebras they generate,
    each its reduced row echelon basis as matrix ids by pivot column, 0
    where a column has no row.

    A matrix id's base-q digits, most significant first, are its entries in
    row-major order.  Span closure as a fixed point: level 0 inserts
    the generators, each later level inserts the products e g of the rows e
    the previous level added with every generator g; right products suffice
    by the lemma in generation.closure_generates.  A tuple stops when its
    rank is n^2 or a level adds no row.

    The first axis of every array is the vector, its n^2 entries, whose
    field operations are gathers from _field_arrays(q)."""
    import numpy as np

    m, nt = comps.shape
    d = n * n
    out = np.zeros(nt, bool)
    if m == 0 or nt == 0:
        return (out, np.zeros((nt, d), np.int64)) if spans else out
    tables = _field_arrays(q)
    gens = _digits(comps.reshape(-1), q, d, tables[3].dtype).reshape(d, m, nt)
    which = np.arange(nt)
    basis = np.zeros((d, d, nt), gens.dtype)  # entry, pivot column, tuple
    present = np.zeros((d, nt), bool)
    final = np.zeros_like(basis) if spans else None  # each tuple's last basis
    cand = gens.copy()
    for level in itertools.count():
        added = _insert(cand, basis, present, tables)
        full = present.all(0)
        out[which] = full  # every tuple still in the block reads False so far
        keep = added.any(0) & ~full
        if spans:
            done = np.flatnonzero(~keep)
            final[..., which.take(done)] = basis.take(done, -1)
        if not keep.any():
            return (out, _reduce(final, q, tables)) if spans else out
        if not keep.all():
            idx = np.flatnonzero(keep)
            which, basis, present, added, gens = (
                which.take(idx), basis.take(idx, -1), present.take(idx, -1),
                added.take(idx, -1), gens.take(idx, -1))
        # the generators span the rows that level 0 added
        front = gens if level == 0 else _frontier(basis, added)
        cand = _products(front, gens, n, tables)


def _reduce(basis, q: int, tables):
    """Back-substitute echelon bases (d, d, B) into reduced row echelon
    form: (B, d) int64 keys, each row as its matrix id.  An absent row is
    zero, which clears nothing."""
    import numpy as np

    shift, _, sub, mul, _ = tables
    d = len(basis)
    for c in range(1, d):
        # row c is zero before column c; clear column c of the rows above it
        prod = mul.take((basis[c, :c] << shift)[None] | basis[c:, c, None])
        basis[c:, :c] = sub.take((basis[c:, :c] << shift) | prod)
    w = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    return np.tensordot(w, basis, (0, 0)).T


def _insert(cand, basis, present, tables):
    """Eliminate candidate rows (d, K, B) into the echelon bases; both are
    overwritten.

    basis[:, c] is the row with pivot column c (leading 1) where present[c];
    returns the (d, B) mask of pivot columns that got a new row."""
    import numpy as np

    shift, _, sub, mul, inv = tables
    d, k, nt = cand.shape
    cols = np.arange(nt)
    # any nonzero candidate can be the new row: the last one is a maximum
    # over the candidate axis, which numpy reduces much faster than argmax
    index = np.arange(k, dtype=np.min_scalar_type(k))[:, None]
    added = np.zeros((d, nt), bool)
    for c in range(d):
        col = cand[c]
        nz = col != 0
        new = nz.any(0) & ~present[c]
        if new.any():
            at = (nz * index).max(0).astype(np.intp) * nt + cols
            pick = cand[c:].reshape(d - c, -1).take(at, 1)
            row = mul.take((inv.take(pick[0]) << shift)[None] | pick)
            basis[c:, c] = np.where(new, row, basis[c:, c])
            present[c] |= new
            added[c] = new
        if c + 1 < d and present[c].any():
            # column c of the candidates is never read again
            prod = mul.take((col << shift)[None] | basis[c + 1:, c, None])
            cand[c + 1:] = sub.take((cand[c + 1:] << shift) | prod)
    return added


def _frontier(basis, added):
    """The rows added at this level, packed to (d, F, B); F is the most any
    tuple added, and a tuple with fewer gets zero rows."""
    import numpy as np

    v, d, nt = basis.shape
    rank = np.cumsum(added, 0)
    at = np.flatnonzero(added)  # c nt + t: pivot column c, tuple t
    out = np.zeros((v, int(rank[-1].max()) * nt), basis.dtype)
    # the added row of rank r (from 1, in pivot order) goes to row r - 1
    out[:, (rank.take(at) - 1) * nt + at % nt] = basis.reshape(v, -1).take(at, 1)
    return out.reshape(v, -1, nt)


def _products(front, gens, n: int, tables):
    """e g for every frontier row e and generator g: (d, F m, B)."""
    import numpy as np

    shift, add, _, mul, _ = tables
    d, f, nt = front.shape
    m = gens.shape[1]
    out = np.empty((d, f, m, nt), front.dtype)
    es, g = front[:, :, None] << shift, gens[:, None]
    for i in range(n):
        for j in range(n):
            acc = mul.take(es[i * n] | g[j])
            for k in range(1, n):
                acc = add.take((acc << shift) | mul.take(es[i * n + k] | g[k * n + j]))
            out[i * n + j] = acc
    return out.reshape(d, f * m, nt)


def _count_range(q: int, n: int, m: int, lo: int, hi: int) -> int:
    """Generating tuples whose first component id lies in [lo, hi)."""
    rest = q ** (n * n * (m - 1))
    return sum(int(ok.sum())
               for _, ok in _block_verdicts(q, n, m, lo * rest, hi * rest))


def resolve_threads(threads: Optional[int]) -> int:
    """Worker count: a positive threads as given; None or 0 defers to
    MATGEN_THREADS, then to the machine's core count."""
    if threads:
        if threads < 0:
            raise DomainError(f"threads must be positive, got {threads}")
        return threads
    env = os.environ.get("MATGEN_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise DomainError(f"MATGEN_THREADS must be a positive integer, got {env!r}")
    return int(env)


def _require_field(q: int) -> None:
    if not is_prime_power(q):
        raise DomainError(f"{q} is not a prime power")


def _require_census(q: int, n: int, m: int) -> int:
    """The ambient count q^(m n^2) of a census; refuses a q that is not a
    prime power, m < 0, and an ambient count or (at m = 0) a matrix count
    q^(n^2) over CENSUS_CAP.  The cap is judged from the exponent before
    the power is formed: q^e >= 2^(e (bits(q) - 1))."""
    _require_field(q)
    if m < 0:
        raise DomainError("m must be >= 0")
    e = max(m, 1) * n * n
    if e * (q.bit_length() - 1) >= CENSUS_CAP.bit_length() or q ** e > CENSUS_CAP:
        raise DomainError(f"the census of {q}^{e} {'tuples' if m else 'matrices'} "
                          f"exceeds cap {CENSUS_CAP}")
    return q ** (m * n * n)


def _require_digits(q: int, e: int) -> None:
    """Refuse an answer below q^e whose decimal digits could pass the
    interpreter's int-to-str limit, from the exponent alone, before the
    answer is computed."""
    limit = sys.get_int_max_str_digits()
    if limit and e > limit / math.log10(q):
        raise DomainError(f"the answer, up to {q}^{e}, could pass the "
                          f"{limit}-digit limit for printing an int")


@dataclass(frozen=True)
class CensusResult:
    q: int
    n: int
    m: int
    ambient_count: int
    generating_count: int
    pgl_order: int
    gen_value: int
    elapsed: float

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "q": self.q,
            "n": self.n,
            "m": self.m,
            "ambient_count": self.ambient_count,
            "generating_count": self.generating_count,
            "pgl_order": self.pgl_order,
            "gen_value": self.gen_value,
            "elapsed": self.elapsed,
        }


def pgl_order(q: int, n: int) -> int:
    """|PGL_n(F_q)| = (q-1)^{-1} prod_{i<n} (q^n - q^i); refuses n < 1."""
    _require_field(q)
    if n < 1:
        raise DomainError("PGL_n needs n >= 1")
    _require_digits(q, n * n)
    prod = 1
    for i in range(n):
        prod *= q**n - q**i
    if prod % (q - 1):
        raise InvariantError("q - 1 does not divide |GL_n(F_q)|; bug")
    return prod // (q - 1)


def count_generating_bruteforce(q: int, n: int, m: int,
                                threads: Optional[int] = 1) -> CensusResult:
    """Exact count of generating m-tuples in M_n(F_q)^m by enumeration.

    Every tuple is decided by folding its components through the
    transition table of subalgebras (_Transitions), whose rows the level
    loop builds the first time a tuple reaches their state.  Deterministic
    partitioned enumeration (by first component); the result does not
    depend on the worker count, and each worker builds the rows it meets.
    threads is an upper bound: small censuses run in this process.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if n == 1:
        raise DomainError("the brute-force census needs n >= 2")
    ambient = _require_census(q, n, m)
    start = time.perf_counter()
    pgl = pgl_order(q, n)
    if m == 0:
        return CensusResult(q, n, m, ambient, 0, pgl, 0,
                            time.perf_counter() - start)
    N = q ** (n * n)
    workers = min(resolve_threads(threads), max(1, ambient // TUPLES_PER_WORKER))
    if workers == 1:
        total = _count_range(q, n, m, 0, N)
    else:
        nchunks = min(N, workers * 4)
        bounds = [(N * i) // nchunks for i in range(nchunks + 1)]
        jobs = [(q, n, m, bounds[i], bounds[i + 1]) for i in range(nchunks)]
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            total = sum(pool.map(_count_worker, jobs))
    elapsed = time.perf_counter() - start
    if m >= 1 and total % pgl != 0:
        raise InvariantError("free PGL action violated; bug in the census")
    return CensusResult(q, n, m, ambient, total, pgl, total // pgl, elapsed)


def _count_worker(args):
    return _count_range(*args)


# ---------------------------------------------------------------------------
# orbits


@lru_cache(maxsize=None)
def _pgl_conj_perms(q: int, n: int):
    """Permutations of matrix ids induced by PGL conjugation M -> g^-1 M g:
    a read-only int64 array with one row per representative g, the
    invertible matrices whose first nonzero entry is 1, in id order.

    With L and R the id maps of M -> g M and M -> M g, both formed by
    _products over every matrix, the id of g^-1 M g is L^-1[R[id M]]."""
    import numpy as np

    F = field_of_order(q)
    arrays = _field_arrays(q)
    d = n * n
    N = q ** d
    mats = _digits(np.arange(N, dtype=np.int64), q, d, arrays[3].dtype)  # (d, N)
    lead = mats[(mats != 0).argmax(0), np.arange(N)]
    entries = mats.T.tolist()
    reps = [i for i in np.flatnonzero(lead == 1).tolist()
            if det_rows([entries[i][r:r + n] for r in range(0, d, n)], F) != 0]
    if len(reps) != pgl_order(q, n):
        raise InvariantError("PGL permutation count disagrees with its order; bug")
    w = q ** np.arange(d - 1, -1, -1, dtype=np.int64)
    g, every = mats[:, reps, None], mats[:, :, None]
    left = (w @ _products(g, every, n, arrays)[..., 0]).reshape(-1, N)
    right = (w @ _products(every, g, n, arrays)[..., 0]).reshape(N, -1)
    perms = np.take_along_axis(np.argsort(left, 1), right.T, 1)
    perms.flags.writeable = False
    return perms


def orbit_count(q: int, n: int, m: int) -> int:
    """Number of PGL-conjugation orbits on the generating m-tuples.

    Counts lexicographically-least orbit representatives; the free action
    makes this generating_count / pgl_order, which is checked.  Every
    generating tuple is tested against every permutation, a block at a time:
    a tuple's id w . comps (w = N^(m-1..0)) orders tuples lexicographically,
    so a tuple is least when no permutation of it has a smaller id.
    """
    if n < 2:
        raise DomainError("orbit census needs n >= 2")
    ambient = _require_census(q, n, m)
    table = pgl_order(q, n) * q ** (n * n)
    if table > CENSUS_CAP:
        raise DomainError(f"the PGL permutation table of {table} entries "
                          f"exceeds cap {CENSUS_CAP}")
    import numpy as np

    perms = _pgl_conj_perms(q, n)
    w = (q ** (n * n)) ** np.arange(m - 1, -1, -1, dtype=np.int64)
    canonical = generating = 0
    for comps, ok in _block_verdicts(q, n, m, 0, ambient):
        g = comps.take(np.flatnonzero(ok), 1)
        ids = w @ g
        generating += len(ids)
        canonical += int(np.all([w @ p[g] >= ids for p in perms], 0).sum())
    if canonical * pgl_order(q, n) != generating:
        raise InvariantError("orbit sizes disagree with the free action; bug")
    return canonical


# ---------------------------------------------------------------------------
# closed formulas


def gen_value_2x2(q: int, m: int) -> int:
    """Largest k such that M_2(F_q)^k admits m generators: the number of
    generating m-tuples (gen_numerator_2x2) divided by |PGL_2(F_q)| =
    q (q^2 - 1), which is 0 at m = 0 and 1.
    """
    num, den = gen_numerator_2x2(q, m), pgl_order(q, 2)
    if num % den:
        raise InvariantError("q (q^2 - 1) does not divide the 2x2 numerator; bug")
    return num // den


def gen_numerator_2x2(q: int, m: int) -> int:
    """Number of generating m-tuples of 2x2 matrices over F_q.

    Inclusion-exclusion over the maximal subalgebras:
    q^{4m} - q^m - (q+1)(q^{3m} - q^m) + q(q^{2m} - q^m), which is 0 at
    m = 0 and 1.
    """
    _require_field(q)
    if m < 0:
        raise DomainError("formula holds for m >= 0")
    _require_digits(q, 4 * m)
    return (q ** (4 * m) - q**m
            - (q + 1) * (q ** (3 * m) - q**m)
            + q * (q ** (2 * m) - q**m))


def gen_value_1x1(q: int, m: int, convention: str = "projective") -> int:
    """n = 1 values under the three conventions (see the census report)."""
    _require_field(q)
    if m < 0:
        raise DomainError("formula holds for m >= 0")
    _require_digits(q, m)
    if convention == "projective":
        num = q**m - 1
        if num % (q - 1):
            raise InvariantError("q - 1 does not divide q^m - 1; bug")
        return num // (q - 1)
    if convention == "unital":
        return q**m
    if convention == "nonunital":
        return q**m - 1
    raise DomainError(f"unknown convention {convention!r}")


def asymptotic_upper_bound(q: int, n: int, m: int) -> Fraction:
    """(q-1) q^{(m-1)n^2} prod_{k=1..n} (1 - q^{-k})^{-1}, exact; refuses
    n < 1 and m < 1."""
    _require_field(q)
    if n < 1 or m < 1:
        raise DomainError("the bound needs n >= 1 and m >= 1")
    # numerator below q^((m-1) n^2 + n(n+1)/2 + 1), denominator below its root
    _require_digits(q, (m - 1) * n * n + n * (n + 1) // 2 + 1)
    out = Fraction(q - 1) * Fraction(q) ** ((m - 1) * n * n)
    for k in range(1, n + 1):
        out *= Fraction(q**k, q**k - 1)
    return out


def euler_partial(x, terms: int):
    """Alternating bracket for prod_{k>=1} (1 - x^k) via the pentagonal series.

    Returns (lower, upper) from the two consecutive partial sums with
    `terms` and `terms + 1` series terms.
    """
    if terms < 0:
        raise DomainError("terms must be >= 0")
    x = Fraction(x)
    if x == 0:
        return Fraction(1), Fraction(1)
    if not 0 < x < 1:
        raise DomainError("series requires 0 <= x < 1")

    def partial(N):
        s = Fraction(1)
        for k in range(1, N + 1):
            term = x ** ((3 * k * k - k) // 2) + x ** ((3 * k * k + k) // 2)
            s += term if k % 2 == 0 else -term
        return s

    a, b = partial(terms), partial(terms + 1)
    return (a, b) if a <= b else (b, a)


def generating_series_check(q: int, upto_m: int) -> bool:
    """Power-series identity for the two-generator values.

    gen_value_2x2(q, 2) / ((1-zq^2)(1-zq^3)(1-zq^4)) must expand with the
    coefficient of z^{m-2} equal to gen_value_2x2(q, m).
    """
    order = upto_m - 2
    if order < 0:
        raise DomainError("upto_m must be >= 2")
    series = [1] + [0] * order
    for a in (2, 3, 4):
        geo = [q ** (a * i) for i in range(order + 1)]
        series = [sum(series[i] * geo[j - i] for i in range(j + 1))
                  for j in range(order + 1)]
    g22 = gen_value_2x2(q, 2)
    for m in range(2, upto_m + 1):
        if g22 * series[m - 2] != gen_value_2x2(q, m):
            return False
    return True


def least_generators_2x2(q: int, k: int) -> int:
    """Least m >= 2 with gen_value_2x2(q, m) >= k: the number of generators
    M_2(F_q)^k needs (two for every k up to gen_value_2x2(q, 2))."""
    if k < 1:
        raise DomainError("k must be >= 1")
    m = 2
    while gen_value_2x2(q, m) < k:
        m += 1
    return m


def min_generators_M2Z(k: int) -> int:
    """Smallest number of generators of the ring M_2(Z)^k: the least m with
    integer_gen_formula(m) >= k, which is least_generators_2x2(2, k)."""
    return least_generators_2x2(2, k)


def integer_gen_formula(m: int) -> int:
    """Largest k such that M_2(Z)^k admits m generators:
    (16^m - 3*8^m + 2*4^m) / 6, the q = 2 value of the field formula."""
    return gen_value_2x2(2, m)


# ---------------------------------------------------------------------------
# maximal subalgebras of M_2(F_q) and the complement count


@dataclass(frozen=True)
class SubalgebraCatalog:
    q: int
    noncommutative: tuple  # (projective point, 3-row basis) per point
    commutative: tuple     # 2-row basis per subalgebra
    scalars: tuple         # 1-row basis

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "q": self.q,
            "noncommutative": [
                {"point": list(pt), "basis": [list(r) for r in basis]}
                for pt, basis in self.noncommutative
            ],
            "commutative": [[list(r) for r in basis] for basis in self.commutative],
            "counts": {
                "noncommutative": len(self.noncommutative),
                "commutative": len(self.commutative),
            },
        }


def enumerate_maximal_subalgebras(q: int) -> SubalgebraCatalog:
    """Classify the maximal subalgebras of M_2(F_q), q <= 16.

    Noncommutative: stabilizers of the q+1 projective lines.  Commutative:
    the planes span(I, A) with A's characteristic polynomial irreducible.
    Each holds exactly one companion matrix [[0, 1], [c, d]], of
    t^2 - d t - c, so its reduced row echelon basis is
    ((1, 0, 0, 1), (0, 1, c, d)); the planes are listed in (c, d) order over
    the irreducible monic quadratics.  The catalog invariants are checked
    before returning.
    """
    if q > 16:
        raise DomainError("catalog enumeration is capped at q = 16")
    F = field_of_order(q)
    noncomm = []
    for v0, v1 in [(1, s) for s in range(q)] + [(0, 1)]:
        row = (F.mul(v0, v1), F.mul(v1, v1),
               F.neg(F.mul(v0, v0)), F.neg(F.mul(v0, v1)))
        basis, _ = rref(kernel_basis([row], F, ncols=4), F)
        noncomm.append(((v0, v1), tuple(basis)))
    # t^2 - d t - c has a root x in F_q exactly when c = x^2 - d x
    reducible = [{F.sub(F.mul(x, x), F.mul(d, x)) for x in range(q)}
                 for d in range(q)]
    catalog = SubalgebraCatalog(
        q=q,
        noncommutative=tuple(noncomm),
        commutative=tuple(((1, 0, 0, 1), (0, 1, c, d)) for c in range(q)
                          for d in range(q) if c not in reducible[d]),
        scalars=((1, 0, 0, 1),),
    )
    _check_catalog(catalog, F)
    return catalog


def _check_catalog(cat: SubalgebraCatalog, F):
    q = cat.q
    if len(cat.noncommutative) != q + 1:
        raise InvariantError("wrong noncommutative count")
    if len(cat.commutative) != (q * q - q) // 2:
        raise InvariantError("wrong commutative count")
    nbases = [b for _, b in cat.noncommutative]
    for basis in nbases:
        if len(basis) != 3:
            raise InvariantError("noncommutative subalgebra must have dimension 3")
    pairwise = set()
    for i in range(len(nbases)):
        for j in range(i + 1, len(nbases)):
            inter = subspace_intersection(nbases[i], nbases[j], F)
            if len(inter) != 2:
                raise InvariantError("noncommutative pairwise intersection must be 2-dim")
            pairwise.add(tuple(inter))
    if len(pairwise) != (q + 1) * q // 2:
        raise InvariantError("pairwise intersections must be pairwise distinct")
    for i in range(len(nbases)):
        for j in range(i + 1, len(nbases)):
            for k in range(j + 1, len(nbases)):
                inter = subspace_intersection(
                    subspace_intersection(nbases[i], nbases[j], F), nbases[k], F)
                if tuple(inter) != cat.scalars:
                    raise InvariantError("triple intersections must be the scalars")
    cbases = list(cat.commutative)
    for i in range(len(cbases)):
        for j in range(i + 1, len(cbases)):
            if tuple(subspace_intersection(cbases[i], cbases[j], F)) != cat.scalars:
                raise InvariantError("distinct commutative subalgebras meet in scalars")
        for basis in nbases:
            if tuple(subspace_intersection(cbases[i], basis, F)) != cat.scalars:
                raise InvariantError("mixed intersections must be the scalars")


def _span_members(basis, q: int):
    """All 2x2 matrix ids in the span of echelonized basis rows."""
    F = field_of_order(q)
    members = set()
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        vec = [0, 0, 0, 0]
        for c, row in zip(coeffs, basis):
            if c:
                vec = [F.add(x, F.mul(c, y)) for x, y in zip(vec, row)]
        members.add(((vec[0] * q + vec[1]) * q + vec[2]) * q + vec[3])
    return members


@lru_cache(maxsize=None)
def _complement_masks(q: int):
    """uint16 membership masks by 2x2 matrix id: bit s is set when the
    matrix lies in maximal subalgebra s of the catalog (at most 16 of them
    for q <= 5)."""
    import numpy as np

    cat = enumerate_maximal_subalgebras(q)
    masks = np.zeros(q**4, np.uint16)
    subalgebras = [b for _, b in cat.noncommutative] + list(cat.commutative)
    for s, basis in enumerate(subalgebras):
        masks[list(_span_members(basis, q))] |= 1 << s
    return masks


def count_via_complement(q: int, m: int) -> int:
    """#G_{m,2}(F_q) as ambient minus the union of A^m over the catalog.

    Membership of every tuple in every maximal subalgebra is tested
    explicitly: the masks of each m-tuple's components are ANDed, and the
    tuple lies in some subalgebra when a bit survives.  A block of prefix
    ANDs meets every last component per numpy call.  This is an oracle
    independent of span closures and of the closed formulas.
    """
    if q > 5:
        raise DomainError("complement count is capped at q = 5")
    ambient = _require_census(q, 2, m)
    if m == 0:
        return 0
    import numpy as np

    masks = _complement_masks(q)
    N = q**4
    prefixes = N ** (m - 1)
    step = max(1, 2**16 // N)  # 2^18 ANDs a block ran no faster, with more RSS
    nongen = 0
    for start in range(0, prefixes, step):
        ids = np.arange(start, min(start + step, prefixes), dtype=np.int64)
        # m = 1: no prefix components, and the empty AND is all ones
        pre = np.bitwise_and.reduce(masks[_digits(ids, N, m - 1, np.int64)], 0)
        nongen += int(np.count_nonzero(pre[:, None] & masks))
    return ambient - nongen


# ---------------------------------------------------------------------------
# the n = 1 report


def n1_census_report(q: int, m: int) -> dict:
    """Side-by-side n = 1 counts: unital and non-unital brute force next to
    the closed formula; the conventions disagree for q > 2 (open question).
    The q^m tuples are enumerated by id, BLOCK at a time, so they fall
    under CENSUS_CAP."""
    total = _require_census(q, 1, m)
    import numpy as np

    unital = nonunital = 0
    for start in range(0, total, BLOCK):
        ids = np.arange(start, min(start + BLOCK, total), dtype=np.int64)
        # F_q is one-dimensional: the spanned subalgebra is everything
        # exactly when some generator (or the adjoined 1) is a unit, and a
        # tuple has a nonzero entry exactly when its base-q id is nonzero
        unital += len(ids)
        nonunital += int(np.count_nonzero(ids))
    return {
        "schema_version": 1,
        "q": q,
        "m": m,
        "unital": unital,
        "nonunital": nonunital,
        "up_to_scaling": gen_value_1x1(q, m, "projective"),
        "agree_at": "q=2 (projective count equals non-unital); unital exceeds by the zero tuple",
    }
