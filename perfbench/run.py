#!/usr/bin/env python3
"""matgen benchmark: one closed-loop client, three workloads, exact answers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census|check|oracle --seed N \
        --seconds S --trace 0|1

The benchmark drives the matgen package under src/ in this process, one op
after the other (a closed loop with one client and one census worker).  A
round is the workload's fixed op list, built from the seed; rounds repeat
for S seconds.  Every answer is checked (see workloads.py); a wrong answer
exits with code 1.  Refusals (DomainError, UndecidableError) and crashes
are counted in `failed`.

Times are host-normalised seconds.  The shared hosts this runs on slow
down by 20-40% for milliseconds to minutes at a time, so a raw time says as
much about the host's phase as about matgen.  A fixed reference loop,
independent of matgen, runs before the first op of a round and after every
op, and before and after every subprocess.  Each raw time t is reported as
t * REF_S / r, where r is the mean of the reference loop's two timings
around it: the time the op would take on a host that runs the reference
loop in REF_S seconds.  Every ratio of two such times is a ratio of
matgen's own costs.  Each step's cost is its median over the rounds; the
raw round walls are on the detail line.

The host's phases slow pure-Python code and numpy kernels by different
amounts, so the loop matches the work: pure Python for census and check,
numpy array arithmetic for oracle, whose sweep is numpy; subprocesses
(interpreter start-up, imports, then a pure-Python command) use the
geometric mean of the two.

Workloads (why each was chosen):
  census  exhaustive counting over F_2, F_3, F_4 (n = 2): the table-driven
          census engine does nearly all the work, and many tiny calls keep
          per-call overhead visible in latency_p50_ms.
  check   seeded tuple-file documents over F_p, F_{p^k}, Z and Q, n = 2, 3,
          1-16 copies, decided as `matgen check` decides them: field
          arithmetic, echelon and span closure, intertwiners, HNF/SNF and the
          all-primes certificate.  The 2x2 non-generating families over F_8
          and F_16 refuse while build_ext_field caps the degree at 4 (their
          eigenline test needs F_64 and F_256); they are kept in `failed`.
  oracle  the all-primes certificate against the GL_2(F_p) sweep at the 11
          primes up to 31, on seeded integer pairs, a third of them
          conjugate over Z.  One op is one sweep call.

--trace 0 prints the end-to-end metrics:
  setup_s          median over 3 fresh interpreters of: import matgen.cli,
                   build the inputs, first-call warm-ups
  wall_s           time to finish the op list: the sum of every step's
                   cost, certificates between oracle ops included
  ops_per_s        ops in a round / wall_s
  latency_p50_ms   median cost over the ops of a round
  latency_tail_ms  the highest whole percentile with at least 10 ops above
                   it; the percentile and the sample count are printed on
                   the detail line
  peak_rss_mb      peak resident set of this process
  tuples_per_s     enumeration units per second of op time: m-tuples
                   enumerated (census), generator tuples decided (check),
                   candidate conjugators in GL_2(F_p) swept (oracle)
  cli_p50_s        median over the workload's `matgen` subcommands of each
                   one's median run as a process with --threads 1
The failure ratio failed / attempted is printed on the detail line.

--trace 1 runs the workload's baseline rows, then untraced and traced
rounds in turn, and prints the per-layer metrics of the traced rounds
(tracer.py), the tracing overhead and the baseline rows.  Span times and
baseline rows are raw seconds; set-up probes and the overhead ratio are
normalised.  Spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
MIN_ROUNDS = 3
# each reference loop takes about REF_S seconds on a 2-vCPU Intel Xeon VM;
# REF_S only sets the scale of the reported times
REF_S = 0.005
PYTHON_REF_ITERS = 20_000
NUMPY_REF_LEN = 150_000
CHILD_TIMEOUT = 170


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _use_src() -> None:
    if not (SRC / "matgen" / "__init__.py").is_file():
        _fail(f"no matgen package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _import_workloads():
    """Import matgen from this checkout's src/, never from anywhere else."""
    _use_src()
    import matgen

    if Path(matgen.__file__).resolve().parent != (SRC / "matgen").resolve():
        _fail(f"imported matgen from {matgen.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# host normalisation


def _python_loop() -> None:
    acc, table = 0, {}
    for i in range(PYTHON_REF_ITERS):
        t = (i, i ^ 5, i & 7)
        acc = (acc + t[0] * t[2]) % 1_000_003
        table[i & 255] = acc


@functools.cache
def _numpy_ref_array():
    import numpy as np

    return np.arange(NUMPY_REF_LEN, dtype=np.int64)


def _numpy_loop() -> None:
    x = _numpy_ref_array()
    for k in range(3):
        x[(x * (k + 3) + 1) % 31 == 0]


def _seconds(loop) -> float:
    start = perf_counter()
    loop()
    return perf_counter() - start


def reference(kind: str) -> float:
    """Seconds taken by the fixed loop of `kind` ("python", "numpy" or
    "mixed"): the host's current speed, measured without matgen."""
    if kind == "python":
        return _seconds(_python_loop)
    if kind == "numpy":
        return _seconds(_numpy_loop)
    return math.sqrt(_seconds(_python_loop) * _seconds(_numpy_loop))


def normalised(seconds: float, ref_before: float, ref_after: float) -> float:
    return seconds * REF_S / ((ref_before + ref_after) / 2)


def _normalised_process(fn):
    """(raw seconds, normalised seconds, result) of a call that runs a
    subprocess."""
    before = reference("mixed")
    start = perf_counter()
    result = fn()
    secs = perf_counter() - start
    return secs, normalised(secs, before, reference("mixed")), result


# ---------------------------------------------------------------------------
# set-up, measured in fresh interpreters


def setup_probe(workload: str, seed: int) -> None:
    start = perf_counter()
    _use_src()
    import numpy  # noqa: F401  (timed on its own; matgen.cli imports it)
    numpy_done = perf_counter()
    import matgen.cli  # noqa: F401
    import_done = perf_counter()
    workloads = _import_workloads()
    workloads.build(workload, seed, ROOT)
    end = perf_counter()
    print(json.dumps({"setup_s": end - start, "import_s": import_done - start,
                      "numpy_import_s": numpy_done - start}))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("MATGEN_THREADS", None)
    return env


def setup_sample(workload: str, seed: int) -> dict:
    """One set-up in a fresh interpreter; every time in it normalised by
    the reference loop around the process."""
    secs, norm, proc = _normalised_process(lambda: subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=ROOT,
        env=_child_env()))
    if proc.returncode != 0:
        _fail(f"set-up probe failed:\n{proc.stderr}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: value * norm / secs for name, value in raw.items()}


# ---------------------------------------------------------------------------
# rounds


def run_round(wl, refusals, tally: Counter, tracer=None):
    """One pass over the op list: (raw seconds, normalised seconds) of every
    step.  The reference loop runs after each step, before its gate; the
    gate runs outside every timing."""
    durations, costs = [], []
    ref_before = reference(wl.reference)
    for i, step in enumerate(wl.steps):
        if tracer is not None:
            tracer.op = i
        start = perf_counter()
        try:
            result = step.run()
            outcome = "ok"
        except refusals:
            outcome = "refused"
        except Exception:
            outcome = "crashed"
            traceback.print_exc(file=sys.stderr)
        secs = perf_counter() - start
        ref_after = reference(wl.reference)
        durations.append(secs)
        costs.append(normalised(secs, ref_before, ref_after))
        ref_before = ref_after
        if step.kind == "op":
            tally["attempted"] += 1
        tally[outcome] += 1
        if outcome == "ok":
            if tracer is None:
                step.check(result)
            else:
                # the gate's own calls must not count towards any layer
                n_spans = len(tracer.spans)
                counts, times = tracer.counts.copy(), tracer.times.copy()
                step.check(result)
                del tracer.spans[n_spans:]
                tracer.counts.clear(), tracer.counts.update(counts)
                tracer.times.clear(), tracer.times.update(times)
    if tracer is not None:
        tracer.op = -1
    return durations, costs


def step_costs(rounds: list) -> list:
    """Each step's median normalised time over the rounds."""
    return [statistics.median(costs) for costs in zip(*rounds)]


def cli_run(run, work: Path) -> float:
    """One of the workload's subcommands as a process, checked: normalised
    seconds."""
    for name, text in run.files.items():
        (work / name).write_text(text, encoding="utf-8")
    _, norm, (code, out) = _normalised_process(
        lambda: _matgen([a.format(dir=work) for a in run.argv])[1:])
    run.expect(code, out)
    return norm


def tail(samples: list):
    """(percentile, value, samples beyond): the highest whole percentile
    with at least 10 samples above it, by the nearest-rank rule."""
    values = sorted(samples)
    n = len(values)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            return pct, values[rank - 1], n - rank
    return 0, values[0], n - 1


def _matgen(argv: list):
    """Run `matgen` as a process: (seconds, exit code, stdout)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "matgen.cli"] + argv,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT,
                          cwd=ROOT, env=_child_env())
    return perf_counter() - start, proc.returncode, proc.stdout


def _timed(fn):
    start = perf_counter()
    result = fn()
    return perf_counter() - start, result


BASELINE_CENSUS = ((3, 2, 2), (4, 2, 2))
BASELINE_CLI = (("table16", ["table16"], "overall: True"),
                ("check_gen16", ["check", "--input",
                                 "src/matgen/fixtures/gen16_pairs.json"],
                 "generating (certified): True"),
                ("minz17", ["minz", "--k", "17"], "M_2(Z)^17: 3"))


def baseline_rows(workload: str, workloads):
    """Reference rows, each measured once and untraced: censuses at 1 and 2
    workers (census); the table16 build and certificate and three
    subcommands as processes (check).  Rows a workload does not run read 0."""
    from matgen import census, construct, zverify

    rows = {f"baseline.census_{q}{n}{m}_{w}w_s": 0.0
            for q, n, m in BASELINE_CENSUS for w in (1, 2)}
    rows.update({"construct.table16_s": 0.0, "baseline.table16_verify_s": 0.0})
    rows.update({f"baseline.cli_{name}_s": 0.0 for name, _, _ in BASELINE_CLI})
    bases = {}
    if workload == "census":
        for q, n, m in BASELINE_CENSUS:
            for w in (1, 2):
                secs, res = _timed(lambda: census.count_generating_bruteforce(
                    q, n, m, threads=w))
                if res.generating_count != census.gen_numerator_2x2(q, m):
                    raise workloads.WrongAnswer(f"census {(q, n, m)} at {w} workers")
                rows[f"baseline.census_{q}{n}{m}_{w}w_s"] = secs
    if workload == "check":
        construct.table16.cache_clear()
        rows["construct.table16_s"], fam = _timed(construct.table16)
        rows["baseline.table16_verify_s"], verdict = _timed(
            lambda: zverify.verify_z_tuples(fam.generators))
        if not verdict.overall:
            raise workloads.WrongAnswer("table16 is not certified")
        for name, argv, want in BASELINE_CLI:
            secs, code, out = _matgen(["--threads", "1"] + argv)
            if code != 0 or want not in out:
                raise workloads.WrongAnswer(f"matgen {' '.join(argv)} exited {code}")
            rows[f"baseline.cli_{name}_s"] = secs
    one, two = rows["baseline.census_422_1w_s"], rows["baseline.census_422_2w_s"]
    rows["census.speedup_2w"] = one / two if two else 0.0
    bases["census.speedup_2w"] = {"1w_s": one, "2w_s": two}
    return ({name: (value, "ratio" if name == "census.speedup_2w" else "s")
             for name, value in rows.items()}, bases)


# ---------------------------------------------------------------------------
# provenance


def provenance(workload: str, seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    # a checkout without git history is identified by the hash of its sources
    digest = hashlib.sha256()
    loc = nonblank = 0
    for path in sorted((SRC / "matgen").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        digest.update(path.name.encode() + b"\0" + text.encode())
        lines = text.splitlines()
        loc += len(lines)
        nonblank += sum(1 for line in lines if line.strip())
    import numpy

    return {"workload": workload, "seed": seed, "workers": 1,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "src_loc": loc, "src_loc_nonblank": nonblank}


# ---------------------------------------------------------------------------
# the two modes


def end_to_end(args, workloads, refusals, tally: Counter):
    """Rounds, each followed by one set-up probe (until SETUP_SAMPLES) and
    one run of every subcommand, so that every kind of sample is spread over
    the whole run.  A run stops before the next iteration would end past
    --seconds, once it has MIN_ROUNDS rounds and every set-up probe."""
    wl = workloads.build(args.workload, args.seed, ROOT)
    rounds, setups = [], []
    cli = [[] for _ in wl.cli]
    work = OUT / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    try:
        while True:
            began = perf_counter()
            rounds.append(run_round(wl, refusals, tally))
            if len(setups) < SETUP_SAMPLES:
                setups.append(setup_sample(args.workload, args.seed))
            for run, samples in zip(wl.cli, cli):
                samples.append(cli_run(run, work))
            now = perf_counter()
            if (len(rounds) >= MIN_ROUNDS and len(setups) == SETUP_SAMPLES
                    and now - start + (now - began) > args.seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cost = step_costs([c for _, c in rounds])
    ops = [i for i, step in enumerate(wl.steps) if step.kind == "op"]
    per_op = [cost[i] for i in ops]
    wall = sum(cost)
    tuples = sum(wl.steps[i].tuples for i in ops)
    tuple_time = sum(cost[i] for i in ops if wl.steps[i].tuples)
    cli_median = [statistics.median(samples) for samples in cli]
    pct, tail_value, beyond = tail(per_op)
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(per_op) / wall, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(per_op), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "tuples_per_s": (tuples / tuple_time, "1/s"),
        "cli_p50_s": (statistics.median(cli_median), "s"),
    }
    detail = {"rounds": len(rounds), "raw_round_walls": [sum(raw) for raw, _ in rounds],
              "ops_per_round": len(per_op),
              "latency_tail": {"percentile": pct, "samples": len(per_op),
                               "beyond": beyond},
              "setup_samples": [r["setup_s"] for r in setups],
              "cli": {run.label: samples for run, samples in zip(wl.cli, cli)}}
    return metrics, detail


def traced(args, workloads, refusals, tally: Counter):
    """The baseline rows, then untraced and traced rounds in turn (at least
    one pair) while the next pair would still end within --seconds.  The
    tracing overhead compares the two kinds of round, which see the same
    phases of the host."""
    from tracer import Tracer, layer_metrics, span_totals

    start = perf_counter()
    probes = [setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES)]
    wl = workloads.build(args.workload, args.seed, ROOT)
    rows, bases = baseline_rows(args.workload, workloads)

    tracer = Tracer()
    plain, traced_rounds, per_round = [], [], []
    while True:
        began = perf_counter()
        plain.append(run_round(wl, refusals, tally))
        lo = len(tracer.spans)
        tracer.reset_counts()
        tracer.install()
        try:
            traced_rounds.append(run_round(wl, refusals, tally, tracer))
        finally:
            tracer.uninstall()
        totals = span_totals(tracer.spans, lo, len(tracer.spans))
        per_round.append(layer_metrics(totals, tracer.counts, tracer.times))
        now = perf_counter()
        if now - start + (now - began) > args.seconds:
            break
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                 [step.label for step in wl.steps])

    metrics = {name: (statistics.median(r[name][0] for r in per_round), unit)
               for name, (_, unit) in per_round[0].items()}
    traced_wall = sum(step_costs([c for _, c in traced_rounds]))
    plain_wall = sum(step_costs([c for _, c in plain]))
    metrics.update({
        "cli.import_s": (statistics.median(r["import_s"] for r in probes), "s"),
        "cli.numpy_import_s": (statistics.median(r["numpy_import_s"] for r in probes), "s"),
        "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
    })
    metrics.update(rows)
    bases["trace.overhead_ratio"] = {"traced_wall_s": traced_wall,
                                     "untraced_wall_s": plain_wall,
                                     "rounds_each": len(plain)}
    detail = {"bases": bases, "spans": len(tracer.spans),
              "layers": {name: {k: row[k] for k in ("calls", "s", "self_s")}
                         for name, row in totals.items()}}
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    workloads = _import_workloads()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    from matgen.conjugacy import UndecidableError
    from matgen.domains import DomainError

    refusals = (DomainError, UndecidableError)
    tally = Counter()
    try:
        mode = traced if args.trace else end_to_end
        metrics, detail = mode(args, workloads, refusals, tally)
        correct = True
    except workloads.WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        metrics, detail, correct = {}, {}, False
    failed = tally["refused"] + tally["crashed"]
    detail.update({"provenance": provenance(args.workload, args.seed),
                   "refused": tally["refused"], "crashed": tally["crashed"],
                   "fail_ratio": failed / max(1, tally["attempted"])})
    result = {"correct": correct, "attempted": tally["attempted"], "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=2)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
