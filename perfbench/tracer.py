"""Per-layer tracing installed from outside the program.

`Tracer.install()` replaces public matgen functions, in every matgen module
namespace that holds them, with wrappers that record spans, and replaces the
arithmetic methods of the field classes with wrappers that only count (a
span per field operation would cost more than the operation).
`uninstall()` puts every original back.  Spans are kept in memory as
(name, start, end, parent, op, info) and written out once at the end.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import Counter
from time import perf_counter

from matgen import census, conjugacy, generation, linalg, tuplefile, zverify
from matgen.conjugacy import UndecidableError
from matgen.domains import DomainError, ExtField, PrimeField, RationalField

# (module, function, span name)
SPANNED = (
    (census, "count_generating_bruteforce", "census.bruteforce"),
    (census, "orbit_count", "census.orbit"),
    (census, "count_via_complement", "census.complement"),
    (census, "enumerate_maximal_subalgebras", "census.catalog"),
    (linalg, "rref", "linalg.rref"),
    (linalg, "kernel_basis", "linalg.kernel_basis"),
    (linalg, "hnf", "linalg.hnf"),
    (linalg, "snf", "linalg.snf"),
    (generation, "closure_generates", "generation.closure"),
    (generation, "tuple_criterion_generates", "generation.tuple_criterion"),
    (generation, "common_eigenline", "generation.eigenline"),
    (generation, "lattice_generates_MnZ", "generation.lattice"),
    (conjugacy, "intertwiners", "conjugacy.intertwiners"),
    (conjugacy, "simultaneously_conjugate", "conjugacy.simconj"),
    (conjugacy, "nonconjugate_all_primes", "conjugacy.nonconj"),
    (conjugacy, "conjugate_mod_p_bruteforce", "conjugacy.sweep"),
    (zverify, "verify_z_tuples", "zverify.verify"),
    (tuplefile, "loads", "tuplefile.loads"),
)

# (module, function, counter) for calls too cheap to span
COUNTED = (
    (linalg, "mmul", "linalg.mmul_calls"),
    (linalg, "det", "linalg.det_calls"),
)

FIELD_CLASSES = ((PrimeField, "domains.prime_ops"), (ExtField, "domains.ext_ops"),
                 (RationalField, "domains.frac_ops"))
FIELD_METHODS = ("add", "sub", "mul", "neg", "inv")

CENSUS_SPANS = ("census.bruteforce", "census.orbit", "census.complement")


def _span_info(name, args, result):
    """Work done by one call, read from its arguments and result."""
    if name == "census.bruteforce":
        return result.ambient_count
    if name == "census.orbit":
        q, n, m = args[:3]
        return q ** (n * n * m)
    if name == "census.complement":
        q, m = args[:2]
        return q ** (4 * m)
    if name == "generation.closure":
        return result.closure_dim
    if name == "conjugacy.nonconj":
        return len(result.exceptional_primes)
    if name == "conjugacy.sweep":
        p = args[2]
        return (p * p - 1) * (p * p - p)
    if name == "zverify.verify":
        return sum(1 for _, _, cert in result.pairwise if cert.overall)
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.times = Counter()
        self.op = -1
        self._undo = []

    # -- wrappers -----------------------------------------------------------

    def _spanning(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = perf_counter()
            result = info = None
            try:
                result = fn(*args, **kwargs)
            except (DomainError, UndecidableError):
                if name.startswith("conjugacy."):
                    tracer.counts["conjugacy.refusals"] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                if result is not None:
                    info = _span_info(name, args, result)
                tracer.spans[idx] = (name, start, end, parent, tracer.op, info)
            return result

        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timing(self, key, fn):
        counts, times = self.counts, self.times

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] += perf_counter() - start
                counts[key] += 1

        return wrapper

    # -- install / uninstall ------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "matgen" or modname.startswith("matgen.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        from matgen import domains

        for mod, attr, name in SPANNED:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self._spanning(name, fn))
        for mod, attr, key in COUNTED:
            fn = getattr(mod, attr)
            self._replace_everywhere(fn, self._counting(key, fn))
        self._replace_everywhere(domains.is_prime,
                                 self._timing("domains.is_prime", domains.is_prime))
        for cls, key in FIELD_CLASSES:
            for meth in FIELD_METHODS:
                fn = cls.__dict__[meth]
                wrap = (self._timing(key, fn) if cls is ExtField
                        else self._counting(key, fn))
                setattr(cls, meth, wrap)
                self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output -------------------------------------------------------------

    def reset_counts(self) -> None:
        self.counts.clear()
        self.times.clear()

    def write(self, path, op_labels) -> None:
        """JSON lines: the template of each op id, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": op_labels}) + "\n")
            for i, (name, start, end, parent, op, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "info": info}) + "\n")


def span_totals(spans, lo: int, hi: int) -> dict:
    """Per span name: calls, inclusive time and self time, over spans[lo:hi].

    Inclusive time counts only the outermost span of a name, so recursion
    through wrappers is not counted twice; self time is a span minus the time
    its direct children cover.
    """
    child = Counter()
    for name, start, end, parent, op, info in spans[lo:hi]:
        if parent >= lo:
            child[parent] += end - start
    out = {}
    for idx in range(lo, hi):
        name, start, end, parent, op, info = spans[idx]
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "info": 0, "durations": []})
        dur = end - start
        row["calls"] += 1
        row["self_s"] += dur - child[idx]
        row["durations"].append((dur, info))
        if info is not None:
            row["info"] += info
        up = parent
        while up >= lo and spans[up][0] != name:
            up = spans[up][3]
        if up < lo:
            row["s"] += dur
    return out


def layer_metrics(totals: dict, counts: Counter, times: Counter) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}."""
    def t(name, key="s"):
        return totals.get(name, {}).get(key, 0.0)

    def calls(name):
        return totals.get(name, {}).get("calls", 0)

    def info(name):
        return totals.get(name, {}).get("info", 0)

    small = [dur for name in CENSUS_SPANS
             for dur, amb in totals.get(name, {}).get("durations", [])
             if amb is not None and amb <= 10**4]
    return {
        "census.bruteforce_s": (t("census.bruteforce"), "s"),
        "census.tuples": (info("census.bruteforce"), "count"),
        "census.small_p50_ms": (1e3 * statistics.median(small) if small else 0.0, "ms"),
        "census.orbit_s": (t("census.orbit"), "s"),
        "census.complement_s": (t("census.complement"), "s"),
        "census.catalog_s": (t("census.catalog"), "s"),
        "domains.prime_ops": (counts["domains.prime_ops"], "count"),
        "domains.ext_ops": (counts["domains.ext_ops"], "count"),
        "domains.frac_ops": (counts["domains.frac_ops"], "count"),
        "domains.ext_s": (times["domains.ext_ops"], "s"),
        "domains.is_prime_calls": (counts["domains.is_prime"], "count"),
        "domains.is_prime_s": (times["domains.is_prime"], "s"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (t("linalg.rref"), "s"),
        "linalg.kernel_basis_s": (t("linalg.kernel_basis"), "s"),
        "linalg.mmul_calls": (counts["linalg.mmul_calls"], "count"),
        "linalg.det_calls": (counts["linalg.det_calls"], "count"),
        "linalg.hnf_s": (t("linalg.hnf"), "s"),
        "linalg.snf_s": (t("linalg.snf"), "s"),
        "linalg.snf_calls": (calls("linalg.snf"), "count"),
        "generation.closure_s": (t("generation.closure"), "s"),
        "generation.closure_calls": (calls("generation.closure"), "count"),
        "generation.closure_dim_total": (info("generation.closure"), "count"),
        "generation.tuple_criterion_s": (t("generation.tuple_criterion"), "s"),
        "generation.eigenline_s": (t("generation.eigenline"), "s"),
        "generation.lattice_s": (t("generation.lattice"), "s"),
        "conjugacy.intertwiners_s": (t("conjugacy.intertwiners"), "s"),
        "conjugacy.simconj_s": (t("conjugacy.simconj"), "s"),
        "conjugacy.refusals": (counts["conjugacy.refusals"], "count"),
        "conjugacy.nonconj_s": (t("conjugacy.nonconj"), "s"),
        "conjugacy.nonconj_self_s": (t("conjugacy.nonconj", "self_s"), "s"),
        "conjugacy.cert_primes": (info("conjugacy.nonconj"), "count"),
        "conjugacy.sweep_s": (t("conjugacy.sweep"), "s"),
        "conjugacy.sweep_calls": (calls("conjugacy.sweep"), "count"),
        "conjugacy.sweep_group_elems": (info("conjugacy.sweep"), "count"),
        "zverify.verify_s": (t("zverify.verify"), "s"),
        "zverify.pairs_certified": (info("zverify.verify"), "count"),
        "tuplefile.loads_s": (t("tuplefile.loads"), "s"),
    }
