"""Command-line surface: one binary, subcommand style.

Exit codes: 0 affirmative/consistent, 1 negative/counterexample, 2 usage
error or a refusal to decide, 3 a failed internal invariant (a bug).
--json emits machine-readable records with a schema-version field; defaults
reproduce the acceptance numbers with no extra flags.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import census, construct, tuplefile, zverify
from .domains import DomainError, InvariantError, QQ, ZZ, field_of_order
from .generation import mat_tuple, tuple_criterion_generates, closure_generates


def _parse_domain(text: str):
    text = text.strip().lower()
    if text == "z":
        return ZZ
    if text == "q":
        return QQ
    if text.startswith("f") and text[1:].isdecimal():
        return field_of_order(int(text[1:]))
    raise DomainError(f"unknown domain {text!r} (use z, q or f<q>)")


def _emit(report: dict, args, human_lines) -> None:
    if args.json:
        report.setdefault("schema_version", 1)
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _cmd_count(args) -> int:
    threads = census.resolve_threads(args.threads)
    q, n, m, mode = args.q, args.n, args.m, args.mode
    if mode == "formula" and n != 2:
        raise DomainError("the closed formula covers n = 2 only")
    if mode == "complement" and (n != 2 or q > 5):
        raise DomainError("the complement count covers n = 2, q <= 5")
    report = {"q": q, "n": n, "m": m, "mode": mode}
    lines = []
    values = {}
    if mode in ("brute", "all"):
        res = census.count_generating_bruteforce(q, n, m, threads=threads)
        report["brute"] = res.to_json()
        values["brute_count"] = res.generating_count
        values["brute_gen"] = res.gen_value
        lines.append(f"brute force: {res.generating_count} generating tuples, "
                     f"gen = {res.gen_value} ({res.elapsed:.2f}s)")
    if mode in ("formula", "all") and n == 2:
        gen = census.gen_value_2x2(q, m)
        num = census.gen_numerator_2x2(q, m)
        report["formula"] = {"gen": gen, "numerator": num}
        values["formula_count"] = num
        values["formula_gen"] = gen
        lines.append(f"formula: numerator {num}, gen = {gen}")
    if mode in ("complement", "all") and n == 2 and q <= 5:
        comp = census.count_via_complement(q, m)
        report["complement"] = comp
        values["complement_count"] = comp
        lines.append(f"complement count: {comp}")
    counts = {v for k, v in values.items() if k.endswith("_count")}
    gens = {v for k, v in values.items() if k.endswith("_gen")}
    agree = len(counts) <= 1 and len(gens) <= 1
    report["agree"] = agree
    lines.append("all paths agree" if agree else "PATHS DISAGREE")
    _emit(report, args, lines)
    return 0 if agree else 1


def _cmd_check(args) -> int:
    tf = tuplefile.load_path(args.input)
    domain = tf.domain
    report = {"input": args.input, "coeff": domain.kind}
    if domain.is_field:
        if tf.is_homogeneous:
            # the criterion runs the span closure itself and raises unless
            # the two verdicts agree
            rep = tuple_criterion_generates(
                [mat_tuple(list(g)) for g in tf.generators])
            report["tuple_criterion"] = {
                "verdict": rep.verdict,
                "failed_condition": repr(rep.failed_condition)
                if rep.failed_condition else None,
            }
        else:
            rep = closure_generates(tf.generators, tf.shape)
        report["closure"] = {"verdict": rep.verdict,
                             "closure_dim": rep.closure_dim,
                             "ambient_dim": rep.ambient_dim}
        _emit(report, args, [f"generating: {rep.verdict}"])
        return 0 if rep.verdict else 1
    if domain == ZZ:
        verdict = zverify.verify_z_tuples(tf.generators)
        report["verification"] = verdict.to_json()
        _emit(report, args, [f"generating (certified): {verdict.overall}"])
        return 0 if verdict.overall else 1
    raise DomainError(f"cannot check files over {domain!r}")


def _cmd_table16(args) -> int:
    fam = construct.table16()
    verdict = zverify.verify_z_tuples(fam.generators)
    report = {"table": "gen16_pairs", "verification": verdict.to_json()}
    lines = [
        f"cross-sections: {len(verdict.componentwise)} "
        f"(lattice+det agree: "
        f"{all(c.lattice_ok for c in verdict.componentwise)})",
        f"pairs certified non-conjugate: "
        f"{sum(1 for _, _, c in verdict.pairwise if c.overall)}"
        f"/{len(verdict.pairwise)}",
        f"direct mod-p closures: "
        + ", ".join(f"p={p}: dim {dim}/{amb}"
                    for p, dim, amb, ok in verdict.direct_modp),
        f"overall: {verdict.overall}",
    ]
    _emit(report, args, lines)
    return 0 if verdict.overall else 1


def _cmd_subalg(args) -> int:
    cat = census.enumerate_maximal_subalgebras(args.q)
    report = cat.to_json()
    q = args.q
    lines = [
        f"maximal subalgebras of M_2(F_{q}):",
        f"  noncommutative (line stabilizers): {len(cat.noncommutative)} "
        f"(= q+1)",
        f"  commutative (quadratic-extension copies): {len(cat.commutative)} "
        f"(= (q^2-q)/2)",
        "  intersection invariants verified on emission",
    ]
    _emit(report, args, lines)
    return 0


def _cmd_construct(args) -> int:
    recipe = args.recipe
    if recipe == "xy":
        fam = construct.standard_xy_family(args.n, _parse_domain(args.domain))
    elif recipe in ("gap-plus", "gap-double"):
        if args.src is None:
            raise DomainError(f"--recipe {recipe} needs --src, an input tuple file")
        base = tuplefile.load_path(args.src)
        fam = construct.GeneratorFamily(
            shape=base.shape, generators=base.generators,
            provenance="input")
        fam = (construct.gap_plus_one(fam) if recipe == "gap-plus"
               else construct.gap_double(fam))
    elif recipe == "mixed":
        domain = _parse_domain(args.domain)
        try:
            sizes = [int(x) for x in args.blocks.split(",")]
        except ValueError:
            raise DomainError(f"cannot parse --blocks {args.blocks!r} "
                              "(want sizes such as '2,3')") from None
        fams = [construct.standard_xy_family(n_i, domain) for n_i in sizes]
        fam = construct.combine_mixed(fams)
    elif recipe == "scalar-family":
        blocks = []
        try:
            for part in args.blocks.split(";"):
                head, scalars = part.split(":")
                blocks.append((int(head),
                               tuple(Fraction(s) for s in scalars.split(","))))
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse --blocks {args.blocks!r} (want "
                              "blocks such as '2:0,1;3:0,1')") from None
        fam = construct.scalar_family_generators(blocks)
    else:
        raise DomainError(f"unknown recipe {recipe!r}")
    text = tuplefile.dumps(fam)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({fam.provenance}, "
              f"{fam.num_generators} generators, verified={fam.verified})")
    else:
        print(text, end="")
    return 0


def _cmd_relations(args) -> int:
    domain = _parse_domain(args.domain)
    ok = construct.check_relations(args.n, domain)
    report = {"n": args.n, "domain": domain.kind, "relations_vanish": ok}
    _emit(report, args, [f"relations vanish at the standard pair: {ok}"])
    return 0 if ok else 1


def _approx(x: Fraction) -> str:
    """The positive x to three decimals, or in scientific notation through
    logarithms from 10^15 on, where float(x) could overflow."""
    if x < 10**15:
        return f"{float(x):.3f}"
    e = math.log10(x.numerator) - math.log10(x.denominator)
    return f"{10 ** (e % 1):.3f}e+{math.floor(e)}"


def _cmd_bound(args) -> int:
    q, n, m = args.q, args.n, args.m
    bound = census.asymptotic_upper_bound(q, n, m)
    report = {"q": q, "n": n, "m": m,
              "bound": [bound.numerator, bound.denominator]}
    lines = [f"upper bound: {bound} (~ {_approx(bound)})"]
    ok = True
    if n == 2:
        gen = census.gen_value_2x2(q, m)
        ok = gen < bound
        report["gen"] = gen
        report["strict"] = ok
        lines.append(f"gen = {gen}; strictly below bound: {ok}")
    lo, hi = census.euler_partial(Fraction(1, q), 3)
    report["euler_bracket"] = {
        "lower": [lo.numerator, lo.denominator],
        "upper": [hi.numerator, hi.denominator],
    }
    lines.append(f"euler product bracket for x=1/{q}: "
                 f"[{float(lo):.9f}, {float(hi):.9f}] "
                 f"(reciprocal < {float(1 / lo):.6f})")
    _emit(report, args, lines)
    return 0 if ok else 1


def _cmd_minz(args) -> int:
    m = census.min_generators_M2Z(args.k)
    report = {"k": args.k, "min_generators": m,
              "local_global": zverify.local_global_generator_count(args.k).to_json()}
    _emit(report, args, [f"smallest number of generators of M_2(Z)^{args.k}: {m}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matgen",
        description="generating sets of direct sums of matrix rings: "
                    "count, check, construct, certify")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    parser.add_argument("--threads", type=int, default=0,
                        help="count's worker processes (default 0: "
                             "MATGEN_THREADS, else machine parallelism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="census of generating m-tuples")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--mode", choices=["brute", "formula", "complement", "all"],
                   default="all")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("check", help="decide generation for a tuple file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("table16", help="certify the 16-pair integer table")
    p.set_defaults(func=_cmd_table16)

    p = sub.add_parser("subalg", help="maximal subalgebras of M_2(F_q)")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_subalg)

    p = sub.add_parser("construct", help="emit a generating family as JSON")
    p.add_argument("--recipe", required=True,
                   choices=["xy", "gap-plus", "gap-double", "mixed", "scalar-family"])
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--domain", default="z")
    p.add_argument("--blocks", default="",
                   help="mixed: '2,3'; scalar-family: '2:0,1,2;3:0,1'")
    p.add_argument("--src", help="input tuple file for the gap recipes")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("relations", help="check the standard-pair relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--domain", default="q")
    p.set_defaults(func=_cmd_relations)

    p = sub.add_parser("bound", help="upper bound and euler-product bracket")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("minz", help="smallest generator count for M_2(Z)^k")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_minz)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
