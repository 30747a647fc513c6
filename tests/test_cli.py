import functools
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matgen
from matgen.cli import main
from matgen.construct import GeneratorFamily, gap_plus_one, standard_xy_family, table16
from matgen.domains import QQ, PrimeField, field_of_order
from matgen.generation import DirectSumShape
from matgen.linalg import mat
from matgen.tuplefile import dumps


@pytest.fixture()
def table16_file(tmp_path):
    path = tmp_path / "table16.json"
    path.write_text(dumps(table16()), encoding="utf-8")
    return str(path)


def test_count_all_paths_agree(capsys):
    assert main(["count", "--q", "2", "--n", "2", "--m", "2",
                 "--mode", "all"]) == 0
    out = capsys.readouterr().out
    assert "16" in out and "96" in out and "agree" in out


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_count_one_generator_all_paths_agree(q, capsys):
    # one matrix spans a commutative algebra: every path counts 0
    assert main(["--json", "count", "--q", str(q), "--m", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"] and data["mode"] == "all"
    assert data["brute"]["generating_count"] == data["complement"] == 0
    assert data["formula"] == {"gen": 0, "numerator": 0}


@pytest.mark.parametrize("mode", ["all", "formula", "brute", "complement"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_count_no_generators_every_mode_agrees(q, mode, capsys):
    # the empty tuple generates nothing: every path, the closed forms
    # included, counts 0
    assert main(["--json", "count", "--q", str(q), "--m", "0",
                 "--mode", mode]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["agree"]
    if mode in ("all", "formula"):
        assert data["formula"] == {"gen": 0, "numerator": 0}
    if mode in ("all", "brute"):
        assert data["brute"]["generating_count"] == 0
    if mode in ("all", "complement"):
        assert data["complement"] == 0


def test_bound_one_generator(capsys):
    assert main(["bound", "--q", "2", "--m", "1"]) == 0
    assert "gen = 0; strictly below bound: True" in capsys.readouterr().out


def test_count_brute_only(capsys):
    assert main(["count", "--q", "2", "--n", "2", "--m", "3",
                 "--mode", "brute"]) == 0
    assert "448" in capsys.readouterr().out


def test_count_formula_q7(capsys):
    assert main(["count", "--q", "7", "--n", "2", "--m", "2",
                 "--mode", "formula"]) == 0
    assert "14406" in capsys.readouterr().out


def test_count_json_schema(capsys):
    assert main(["--json", "count", "--q", "2", "--n", "2", "--m", "2",
                 "--mode", "formula"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == 1
    assert data["formula"]["gen"] == 16


def test_check_table16_exits_zero(table16_file, capsys):
    assert main(["check", "--input", table16_file]) == 0


def test_check_duplicated_cross_section_exits_one(tmp_path, capsys):
    f2 = PrimeField(2)
    fam = standard_xy_family(2, f2)
    # duplicate the single copy: columns become identical, criterion fails
    from matgen.construct import GeneratorFamily

    doubled = GeneratorFamily(
        shape=DirectSumShape(((2, 2),)),
        generators=tuple(g + g for g in fam.generators),
        provenance="test")
    path = tmp_path / "dup.json"
    path.write_text(dumps(doubled), encoding="utf-8")
    assert main(["--json", "check", "--input", str(path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert "ConjugatePair" in data["tuple_criterion"]["failed_condition"]


def test_check_runs_the_full_closure_once(tmp_path, monkeypatch, capsys):
    from matgen import cli, generation
    from matgen.construct import gap_plus_one

    fam = gap_plus_one(standard_xy_family(2, PrimeField(3)))
    shapes = []
    closure = generation.closure_generates

    def counted(S, shape, *args, **kwargs):
        shapes.append(shape)
        return closure(S, shape, *args, **kwargs)

    monkeypatch.setattr(generation, "closure_generates", counted)
    monkeypatch.setattr(cli, "closure_generates", counted)
    path = tmp_path / "gap.json"
    path.write_text(dumps(fam), encoding="utf-8")
    assert main(["--json", "check", "--input", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["closure"] == {"verdict": True, "closure_dim": 8,
                               "ambient_dim": 8}
    assert data["tuple_criterion"]["verdict"] is True
    # the other calls are the criterion's single-copy cross-sections
    assert shapes.count(fam.shape) == 1


@pytest.mark.parametrize("q", [8, 16, 10007])
def test_check_upper_triangular_pair_exits_one(tmp_path, capsys, q):
    # no eigenline search over F_64, F_256 (degree cap) or F_10007^2 (size)
    field = field_of_order(q)
    fam = GeneratorFamily(
        shape=DirectSumShape(((2, 1),)),
        generators=((mat(field, [[3, 5], [0, 7]]),),
                    (mat(field, [[1, 2], [0, 6]]),)),
        provenance="test")
    path = tmp_path / "tri.json"
    path.write_text(dumps(fam), encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", "--input", str(path)]) == 1
    assert time.perf_counter() - start < 2.0


def test_check_non_generating_rational_pair(tmp_path, capsys):
    # the first copy is upper triangular, the second generates M_2(Q); the
    # denominators differ between the copies of each generator
    fam = GeneratorFamily(
        shape=DirectSumShape(((2, 2),)),
        generators=((mat(QQ, [["1/2", 3], [0, -2]]),
                     mat(QQ, [["-3/4", 1], [5, "2/3"]])),
                    (mat(QQ, [[0, "7/5"], [0, 4]]),
                     mat(QQ, [[2, "1/6"], [-1, 0]]))),
        provenance="test")
    path = tmp_path / "tri.json"
    path.write_text(dumps(fam), encoding="utf-8")
    assert main(["--json", "check", "--input", str(path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["closure"] == {"verdict": False, "closure_dim": 7,
                               "ambient_dim": 8}


def test_check_rational_copies_conjugate_by_a_shear(tmp_path, monkeypatch,
                                                    capsys):
    # two 3x3 copies over Q, the second the first conjugated by I + E_12:
    # the criterion names the pair, and the span closure still runs once
    from matgen import cli, generation
    from matgen.construct import standard_xy
    from matgen.linalg import mmul

    X, Y = standard_xy(3, QQ)
    u = mat(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    u_inv = mat(QQ, [[1, -1, 0], [0, 1, 0], [0, 0, 1]])
    fam = GeneratorFamily(
        shape=DirectSumShape(((3, 2),)),
        generators=tuple((g, mmul(mmul(u, g), u_inv)) for g in (X, Y)),
        provenance="test")
    shapes = []
    closure = generation.closure_generates

    def counted(S, shape, *args, **kwargs):
        shapes.append(shape)
        return closure(S, shape, *args, **kwargs)

    monkeypatch.setattr(generation, "closure_generates", counted)
    monkeypatch.setattr(cli, "closure_generates", counted)
    path = tmp_path / "conj.json"
    path.write_text(dumps(fam), encoding="utf-8")
    assert main(["--json", "check", "--input", str(path)]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["tuple_criterion"]["verdict"] is False
    assert data["tuple_criterion"]["failed_condition"].startswith(
        "ConjugatePair(i=0, j=1")
    assert data["closure"] == {"verdict": False, "closure_dim": 9,
                               "ambient_dim": 18}
    assert shapes.count(fam.shape) == 1


def test_check_malformed_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken", encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 2


def test_check_malformed_numbers_exit_two_without_traceback(tmp_path, capsys):
    # these used to load and then fail with a traceback and exit 1, or be
    # read as integers and decided
    path = tmp_path / "bad.json"
    for coeff, entry in [('{"kind": "prime_field", "p": 7.5}', '"1"'),
                         ('{"kind": "rationals"}', '"1/0"'),
                         ('{"kind": "prime_field", "p": 5}', "1.5"),
                         ('{"kind": "prime_field", "p": 5}', '"12"')]:
        path.write_text('{"coeff": %s, "n": 2, "shape": [[2, 1]], '
                        '"generators": [[[[%s, "0"], ["0", "1"]]]]}'
                        % (coeff, entry), encoding="utf-8")
        assert main(["check", "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_check_failed_invariant_exits_three(tmp_path, monkeypatch, capsys):
    # a closure that loses one dimension of the two-copy span makes the span
    # closure disagree with the criterion, whose cross-sections still pass
    from matgen import generation

    fam = gap_plus_one(standard_xy_family(2, PrimeField(3)))
    spin_up = generation._spin_up_fp

    def wrong(S, sizes, field, include_identity):
        dim = spin_up(S, sizes, field, include_identity)
        return dim - 1 if len(sizes) == 2 else dim

    monkeypatch.setattr(generation, "_spin_up_fp", wrong)
    path = tmp_path / "gap.json"
    path.write_text(dumps(fam), encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "disagrees" in err


@pytest.mark.parametrize("q, kernel", [(2, "_spin_up_f2k"),
                                       (4, "_spin_up_f2k"),
                                       (9, "_spin_up_fq")],
                         ids=["2", "4", "9"])
def test_check_failed_invariant_exits_three_over_fq(q, kernel, tmp_path,
                                                     monkeypatch, capsys):
    # the twin over F_2, F_4 and F_9: the field's closure kernel (XOR bit
    # vectors in characteristic 2, flat rows over F_9) loses one dimension
    # of the two-copy span, and the criterion disagrees with it
    from matgen import generation

    fam = gap_plus_one(standard_xy_family(2, field_of_order(q)))
    spin_up = getattr(generation, kernel)

    def wrong(S, sizes, field, include_identity):
        dim = spin_up(S, sizes, field, include_identity)
        return dim - 1 if len(sizes) == 2 else dim

    monkeypatch.setattr(generation, kernel, wrong)
    path = tmp_path / "gap.json"
    path.write_text(dumps(fam), encoding="utf-8")
    assert main(["check", "--input", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "disagrees" in err


@functools.lru_cache(maxsize=None)
def _fuzz_bases():
    """Small valid documents over F_5, F_4, Z and Q, as JSON text."""
    f5, f4 = PrimeField(5), field_of_order(4)
    return tuple(dumps(fam) for fam in (
        standard_xy_family(2, f5),
        standard_xy_family(2, f4),
        GeneratorFamily(shape=DirectSumShape(((2, 2),)),
                        generators=tuple(g[:2] for g in table16().generators),
                        provenance="test"),
        standard_xy_family(2, QQ),
    ))


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    else:
        yield path


_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False, width=32), st.text(max_size=8),
    st.sampled_from(["0", "-1", "7", "1/0", "1,1", "1e99999999", "integers",
                     "rationals", "prime_field", "ext_field"]),
    st.lists(st.integers(0, 3), max_size=3), st.dictionaries(st.text(max_size=2),
                                                            st.integers(), max_size=2))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_survives_one_mutated_leaf(tmp_path_factory, data):
    # every outcome is an exit code of the CLI contract, never an exception
    doc = json.loads(data.draw(st.sampled_from(_fuzz_bases())))
    path = data.draw(st.sampled_from(list(_leaf_paths(doc))))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_LEAVES)
    target = tmp_path_factory.getbasetemp() / "fuzz.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", "--input", str(target)]) in (0, 1, 2)
    assert time.perf_counter() - start < 5


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.integers(-1, 9), n=st.integers(0, 3), m=st.integers(-2, 4),
       mode=st.sampled_from(["formula", "complement"]))
def test_count_survives_small_arguments(q, n, m, mode):
    # brute is left out: a census just under the cap takes tens of seconds
    start = time.perf_counter()
    assert main(["count", "--q", str(q), "--n", str(n), "--m", str(m),
                 "--mode", mode]) in (0, 1, 2)
    assert time.perf_counter() - start < 5


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(q=st.integers(-1, 9), n=st.integers(-1, 3), m=st.integers(-2, 4))
def test_bound_survives_small_arguments(q, n, m):
    start = time.perf_counter()
    assert main(["bound", "--q", str(q), "--n", str(n), "--m", str(m)]) in (0, 1, 2)
    assert time.perf_counter() - start < 5


def test_bound_refuses_n_and_m_below_one(capsys):
    for n, m in ((0, 2), (-1, 2), (3, 0)):
        assert main(["bound", "--q", "2", "--n", str(n), "--m", str(m)]) == 2
        captured = capsys.readouterr()
        assert "n >= 1 and m >= 1" in captured.err and captured.out == ""


def test_bound_and_formula_print_large_answers_and_refuse_unprintable(capsys):
    # a bound past the float range is approximated through logarithms
    for argv, tail in ((["bound", "--q", "2", "--n", "40", "--m", "2"], "e+482)"),
                       (["bound", "--q", "2", "--n", "2", "--m", "300"], "e+360)")):
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(tail)
    # an answer past the int-to-str digit limit is refused from its exponent
    start = time.perf_counter()
    for argv in (["bound", "--q", "2", "--n", "2", "--m", "4000"],
                 ["--json", "bound", "--q", "2", "--n", "2", "--m", "4000"],
                 ["count", "--q", "2", "--m", "4000", "--mode", "formula"],
                 ["--json", "count", "--q", "2", "--m", "4000", "--mode", "formula"],
                 ["bound", "--q", "2", "--m", str(10**9)],
                 ["count", "--q", "2", "--m", str(10**9), "--mode", "formula"],
                 ["bound", "--q", "2", "--n", str(10**5), "--m", "1"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "digit limit" in captured.err and captured.out == ""
    assert time.perf_counter() - start < 1


def test_census_refuses_huge_n_from_the_exponent(capsys):
    start = time.perf_counter()
    for n in (6, 100, 3000, 4000, 10**4):
        for m, mode in ((0, "brute"), (1, "brute"), (0, "all"), (2, "all")):
            assert main(["--json", "count", "--q", "2", "--n", str(n),
                         "--m", str(m), "--mode", mode]) == 2
            captured = capsys.readouterr()
            assert "exceeds cap" in captured.err and captured.out == ""
    assert time.perf_counter() - start < 1


def test_check_missing_file_exits_two(tmp_path):
    assert main(["check", "--input", str(tmp_path / "nope.json")]) == 2


def test_table16_command(capsys):
    assert main(["table16"]) == 0
    assert "overall: True" in capsys.readouterr().out


def test_subalg_command(capsys):
    assert main(["subalg", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert "4" in out and "3" in out


def test_construct_and_check_round_trip(tmp_path, capsys):
    out = tmp_path / "mixed.json"
    assert main(["construct", "--recipe", "mixed", "--domain", "f2",
                 "--blocks", "2,3", "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--input", str(out)]) == 0


def test_construct_scalar_family_round_trip(tmp_path, capsys):
    out = tmp_path / "bs.json"
    assert main(["construct", "--recipe", "scalar-family",
                 "--blocks", "2:0,1,2;3:0,1", "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", "--input", str(out)]) == 0


@pytest.mark.parametrize("args", [
    ["--recipe", "scalar-family", "--blocks", "2"],
    ["--recipe", "scalar-family", "--blocks", "2:1/0"],
    ["--recipe", "mixed", "--domain", "f2", "--blocks", "2,x"],
    ["--recipe", "xy", "--domain", "fx"],
])
def test_construct_malformed_arguments_exit_two(args, capsys):
    assert main(["construct", *args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("recipe", ["gap-plus", "gap-double"])
def test_construct_gap_recipe_without_src_exits_two(recipe, capsys):
    assert main(["construct", "--recipe", recipe]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--src" in err and "Traceback" not in err


def test_construct_gap_recipes_round_trip(tmp_path, capsys):
    base = tmp_path / "xy.json"
    assert main(["construct", "--recipe", "xy", "--n", "2", "--domain", "f3",
                 "--output", str(base)]) == 0
    for recipe in ("gap-plus", "gap-double"):
        out = tmp_path / f"{recipe}.json"
        assert main(["construct", "--recipe", recipe, "--src", str(base),
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["check", "--input", str(out)]) == 0


def test_construct_refuses_a_non_generating_input(tmp_path, capsys):
    src = tmp_path / "tri.json"
    src.write_text(dumps(GeneratorFamily(
        shape=DirectSumShape(((2, 1),)),
        generators=((mat(PrimeField(3), [[1, 2], [0, 1]]),),
                    (mat(PrimeField(3), [[0, 1], [0, 2]]),)),
        provenance="test")), encoding="utf-8")
    for recipe in ("gap-plus", "gap-double"):
        assert main(["construct", "--recipe", recipe, "--src", str(src)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not verified generating" in err


@pytest.mark.parametrize("recipe", ["gap-plus", "gap-double", "mixed"])
def test_construct_failed_output_check_exits_three(tmp_path, monkeypatch,
                                                   capsys, recipe):
    # the inputs pass their check; an output that fails its own can only
    # come from a bug in the recipe
    from matgen import construct

    generates = construct._generates

    def wrong(generators, shape):
        # every input has one copy and every output two
        return len(shape.copy_sizes) == 1 and generates(generators, shape)

    src = tmp_path / "xy.json"
    assert main(["construct", "--recipe", "xy", "--n", "2", "--domain", "f3",
                 "--output", str(src)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(construct, "_generates", wrong)
    args = (["--blocks", "2,3", "--domain", "f3"] if recipe == "mixed"
            else ["--src", str(src)])
    assert main(["construct", "--recipe", recipe, *args]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "failed its generation" in err


def test_count_mode_validation():
    assert main(["count", "--q", "7", "--n", "2", "--m", "2",
                 "--mode", "complement"]) == 2
    assert main(["count", "--q", "2", "--n", "3", "--m", "1",
                 "--mode", "formula"]) == 2


@pytest.mark.parametrize("mode", ["brute", "all"])
@pytest.mark.parametrize("n, message", [
    (1, "the brute-force census needs n >= 2"),
    (0, "n must be >= 1"),
    (-1, "n must be >= 1"),
])
def test_count_brute_refuses_n_below_two(n, message, mode, capsys):
    assert main(["count", "--q", "2", "--n", str(n), "--m", "2",
                 "--mode", mode]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_count_and_bound_refuse_bad_q(capsys):
    for argv in (["count", "--q", "1", "--m", "2", "--mode", "brute"],
                 ["count", "--q", "6", "--m", "2", "--mode", "formula"],
                 ["count", "--q", "0", "--m", "2", "--mode", "all"],
                 ["bound", "--q", "6", "--m", "2"],
                 ["bound", "--q", "0", "--m", "2"]):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert "not a prime power" in captured.err and captured.out == ""


def test_relations_command(capsys):
    assert main(["relations", "--n", "5", "--domain", "q"]) == 0
    assert main(["relations", "--n", "3", "--domain", "f2"]) == 0


def test_relations_are_capped_and_quick_below_the_cap(capsys):
    from matgen.construct import RELATIONS_MAX_N

    assert RELATIONS_MAX_N >= 20
    start = time.perf_counter()
    for n in (RELATIONS_MAX_N + 1, 10**9):
        assert main(["relations", "--n", str(n)]) == 2
        assert f"n <= {RELATIONS_MAX_N}" in capsys.readouterr().err
    assert time.perf_counter() - start < 0.1
    start = time.perf_counter()
    assert main(["relations", "--n", "20", "--domain", "q"]) == 0
    assert time.perf_counter() - start < 2.0


def test_relations_over_a_large_extension_is_quick(capsys):
    start = time.perf_counter()
    assert main(["relations", "--n", "2",
                 "--domain", "f1000000014000000049"]) == 0
    assert time.perf_counter() - start < 1.0


def test_bound_command(capsys):
    assert main(["bound", "--q", "2", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "128/3" in out


def test_minz_command(capsys):
    assert main(["minz", "--k", "17"]) == 0
    assert "3" in capsys.readouterr().out
    assert main(["minz", "--k", "16"]) == 0
    assert "2" in capsys.readouterr().out


def test_json_outputs_parse(capsys):
    for argv in (["--json", "minz", "--k", "17"],
                 ["--json", "subalg", "--q", "2"],
                 ["--json", "bound", "--q", "3", "--m", "2"],
                 ["--json", "relations", "--n", "2", "--domain", "f3"]):
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["schema_version"] == 1


def test_threads_env_override(monkeypatch, capsys):
    monkeypatch.setenv("MATGEN_THREADS", "2")
    assert main(["--threads", "0", "count", "--q", "2", "--n", "2",
                 "--m", "2", "--mode", "brute"]) == 0
    assert "96" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_threads_env_invalid_exits_two(monkeypatch, capsys, value):
    monkeypatch.setenv("MATGEN_THREADS", value)
    assert main(["count", "--q", "2", "--m", "2", "--mode", "formula"]) == 2
    assert "MATGEN_THREADS" in capsys.readouterr().err


def test_commands_without_a_census_ignore_threads_env(monkeypatch, capsys):
    # only count resolves the worker count
    monkeypatch.setenv("MATGEN_THREADS", "abc")
    fixture = Path(matgen.__file__).parent / "fixtures" / "gen16_pairs.json"
    assert main(["check", "--input", str(fixture)]) == 0
    assert main(["bound", "--q", "2", "--m", "2"]) == 0
    assert "MATGEN_THREADS" not in capsys.readouterr().err


def test_cli_import_leaves_numpy_unloaded():
    # numpy is imported by the census kernel and the GL_2 sweep when they run
    env = dict(os.environ, PYTHONPATH=str(Path(matgen.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, matgen.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    assert out.stdout.strip() == "False"


def test_every_name_the_perfbench_tracer_wraps_resolves():
    # the tracer replaces these by name when it is installed, so a renamed
    # or deleted function would otherwise break only `run.py --trace 1`
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, attr, _ in tracer.SPANNED + tracer.COUNTED:
        assert mod.__name__.startswith("matgen.")
        assert callable(getattr(mod, attr, None)), f"{mod.__name__}.{attr}"
    for cls, _ in tracer.FIELD_CLASSES:
        for meth in tracer.FIELD_METHODS:
            assert callable(cls.__dict__.get(meth)), f"{cls.__name__}.{meth}"
    assert callable(matgen.domains.is_prime)


# --- integer files: one exact decision for every block size -----------------

def _z_file(tmp_path, name, shape, generators):
    path = tmp_path / name
    path.write_text(json.dumps({
        "coeff": {"kind": "integers"}, "shape": shape,
        "generators": [[[[str(x) for x in row] for row in m] for m in g]
                       for g in generators]}), encoding="utf-8")
    return str(path)


def test_check_and_gap_recipes_refuse_a_pair_conjugate_mod_7(tmp_path, capsys):
    # the two copies generate M_2(Z) and are conjugate modulo 7 only
    swap, e11 = [[0, 1], [1, 0]], [[1, 0], [0, 0]]
    path = _z_file(tmp_path, "mod7.json", [[2, 2]],
                   [[swap, swap], [e11, [[-6, 7], [7, -7]]]])
    assert main(["check", "--input", path]) == 1
    assert "generating (certified): False" in capsys.readouterr().out
    for recipe in ("gap-plus", "gap-double"):
        assert main(["construct", "--recipe", recipe, "--src", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not verified generating" in err


ZGEN_KEYS = {"schema_version", "componentwise", "pairwise", "direct_modp",
             "overall"}


@pytest.mark.parametrize("steps", [
    [["--recipe", "mixed", "--domain", "z", "--blocks", "2,3"]],
    [["--recipe", "xy", "--n", "3", "--domain", "z"],
     ["--recipe", "gap-double", "--src", "{prev}"]],
])
def test_construct_z_families_of_any_size_are_certified(tmp_path, capsys, steps):
    prev = None
    for i, argv in enumerate(steps):
        out = str(tmp_path / f"step{i}.json")
        argv = [a.replace("{prev}", str(prev)) for a in argv]
        assert main(["construct", *argv, "--output", out]) == 0
        prev = out
    capsys.readouterr()
    assert main(["check", "--input", prev]) == 0
    assert "generating (certified): True" in capsys.readouterr().out
    assert main(["--json", "check", "--input", prev]) == 0
    record = json.loads(capsys.readouterr().out)["verification"]
    assert set(record) == ZGEN_KEYS and record["schema_version"] == 1
    assert record["overall"] is True
    for cs in record["componentwise"]:
        assert set(cs) == {"index", "lattice_ok", "det_commutator", "det_ok"}
    for pair in record["pairwise"]:
        assert set(pair) == {"i", "j", "certificate"}
        assert set(pair["certificate"]) == {
            "schema_version", "rational_kernel_dim", "det_vanishes_on_kernel",
            "polarization", "exceptional_primes", "witness_prime", "overall"}


@pytest.mark.parametrize("n", [2, 3])
def test_check_certificate_against_divisors_exits_three(tmp_path, monkeypatch,
                                                        capsys, n):
    # a lattice closure that passes the non-generating copy E_11 breaks the
    # Schur precondition: the certificate's kernel of dimension > 1 then
    # disagrees with the divisor reading
    from matgen import zverify

    lattice = zverify.lattice_generates_MnZ

    def lenient(S, n):
        return True, lattice(S, n)[1]

    e11 = [[int(i == j == 0) for j in range(n)] for i in range(n)]
    path = _z_file(tmp_path, "e11.json", [[n, 2]], [[e11, e11]])
    assert main(["check", "--input", path]) == 1
    monkeypatch.setattr(zverify, "lattice_generates_MnZ", lenient)
    assert main(["check", "--input", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "disagrees" in err
