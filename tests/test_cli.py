import argparse
import ast
import importlib.util
import json
import math
import os
import random
import subprocess
import sys

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lehmerlab
from lehmerlab import cli
from lehmerlab.cli import _json_text, build_parser, main
from lehmerlab.dynamics import net_trace
from lehmerlab.freegroup import Endo
from lehmerlab.polynomial import parse_poly

LEHMER_NEG_T = [1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1]


def run_json(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_mahler_example(capsys):
    code, doc, _ = run_json(
        ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1", "--json-only"], capsys
    )
    assert code == 0
    assert abs(doc["result"]["mahler"] - 1.17628) < 1e-4
    assert doc["result"]["lower"] <= doc["result"]["mahler"] <= doc["result"]["upper"]
    assert doc["inputs"]["tol"] == 1e-10


def test_mahler_symbolic_input(capsys):
    code, doc, _ = run_json(
        ["mahler", "--poly", "t^10 + t^9 - t^7 - t^6 - t^5 - t^4 - t^3 + t + 1"],
        capsys,
    )
    assert code == 0
    assert abs(doc["result"]["mahler"] - 1.1762808182599176) < 1e-12


def test_alexander_example(capsys):
    code, doc, _ = run_json(
        ["alexander", "--n", "3", "--braid", "s1 s2^-1 T^2", "--json-only"], capsys
    )
    assert code == 0
    assert doc["result"]["alexander"]["coeffs"] == LEHMER_NEG_T
    assert doc["result"]["alexander"]["min_deg"] == 0


def test_hankel_example(capsys):
    code, doc, _ = run_json(
        ["hankel", "--seq", "1,1,2,3,5,8,13", "--n", "1", "--k", "2"], capsys
    )
    assert code == 0
    assert doc["result"]["value"] == 1


def test_hankel_all_values(capsys):
    code, doc, _ = run_json(
        ["hankel", "--seq", "1,1,2,3,5,8,13,21", "--k", "2", "--json-only"], capsys
    )
    assert code == 0
    # Fibonacci 2x2 Hankel determinants alternate +-1 (Cassini).
    assert doc["result"]["values"] == [1, -1, 1, -1, 1, -1]


def test_hankel_edge_windows_exit_1(capsys):
    for argv, message in [
        (["hankel", "--seq", "1,2,3", "--k", "0", "--n", "0"],
         "Hankel start index n=0 must be at least 1"),
        (["hankel", "--seq", "1,2,3", "--k", "1", "--n", "0"],
         "Hankel start index n=0 must be at least 1"),
        (["hankel", "--seq", "1,2", "--k", "3", "--n", "1"],
         "Hankel window (n=1, k=3) exceeds 2 terms"),
        (["hankel", "--seq", "1,2", "--k", "3"],
         "a Hankel window of size k=3 needs 5 terms, have 2"),
    ]:
        code, doc, _ = run_json(argv + ["--json-only"], capsys)
        assert code == 1, argv
        assert doc["error"] == {"type": "ValueError", "message": message}


def test_deterministic_output(capsys):
    argv = ["growth", "--seq", "1,1,2,3,5,8,13,21,34,55,89,144", "--k-max", "2", "--json-only"]
    code1 = main(argv)
    first, _ = capsys.readouterr()
    code2 = main(argv)
    second, _ = capsys.readouterr()
    assert code1 == code2 == 0
    assert first == second


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["mahler"])  # missing --poly
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command", "--poly", "1,1"],  # an unknown subcommand
        ["mahler", "--poly", "1,1", "extra"],  # an extra argument
        ["mahler", "--poly", "1,1", "--bogus"],  # an unknown flag
        ["mahler", "--tol", "1e-8"],  # a missing required flag
        ["hankel", "--seq", "1,1,2,3", "--k", "two"],  # a bad int
        ["-h"],
        ["mahler", "-h"],
        [],
        ["mahler", "--poly", "1,1", "--json-only=1"],  # a value for store_true
        ["mahler", "--poly"],  # a flag with no value
        ["mahler", "--poly", "-1,1"],  # a value starting with '-', space form
        ["mahler", "--poly", "1,1", "--"],
        ["hankel", "--seq", "1,1,2,3", "--k", "2", "--n", "x"],  # a bad int, --n
        ["mahler", "--poly", "1,1", "--json-only", "stray"],  # a stray positional
    ],
)
def test_malformed_invocations_match_the_whole_parser(argv, capsys):
    """main reads argv from the subcommand's flag table; where the table
    refuses it, the stdout, stderr and exit code are those of the whole
    tree's parse."""
    with pytest.raises(SystemExit) as whole:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == whole.value.code == (0 if "-h" in argv else 2)
    assert capsys.readouterr() == expected
    assert (expected.out if "-h" in argv else expected.err).startswith("usage: lehmerlab")


def test_computation_error_exit_1(capsys):
    code, doc, _ = run_json(
        ["alexander", "--n", "3", "--braid", "s1", "--json-only"], capsys
    )
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "determinant" in doc["error"]["message"]


def test_non_integer_matrix_exit_1(capsys):
    code, doc, _ = run_json(
        ["lefschetz", "--matrix", "[[1.5, 1], [1, 0.9]]", "--json-only"], capsys
    )
    assert code == 1
    assert doc["error"]["type"] == "ValueError"
    assert "1.5" in doc["error"]["message"]


@pytest.mark.parametrize("cmd", ["primitivity", "lefschetz", "fg-from-matrix", "f2-positive-aut"])
def test_matrix_nested_past_json_recursion_limit_exit_1(cmd, capsys):
    """json.loads raises RecursionError on deep nesting; parse_matrix turns
    it into the ValueError of any other input that is not an array of arrays."""
    depth = 2000
    code, doc, _ = run_json([cmd, "--matrix", "[" * depth + "]" * depth, "--json-only"], capsys)
    assert code == 1
    assert doc["error"] == {"type": "ValueError", "message": "matrix must be a JSON array of arrays"}


def _big_hankel_argv(tmp_path):
    """hankel of 10^2200, 0, 10^2200 at k = 2: H = 10^4400, past the 4300
    digits CPython writes by default."""
    path = tmp_path / "seq.txt"
    path.write_text(f"{10**2200},0,{10**2200}")
    return ["hankel", "--seq", f"@{path}", "--k", "2", "--json-only"]


def _cli_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    return env


def test_result_integer_past_digit_limit_exit_1(tmp_path, capsys):
    """The document is written inside the error handler, so an integer too
    long for int.__repr__ gives the exit-1 error object, not a traceback."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv in (_big_hankel_argv(tmp_path),
                     ["fg-iterate", "--endo", "a -> a a; b -> b", "--iters", "14290", "--json-only"]):
            code, doc, err = run_json(argv, capsys)
            assert code == 1 and err == ""
            assert doc["error"]["type"] == "ValueError"
            message = doc["error"]["message"]
            assert "(4300 digits)" in message and "PYTHONINTMAXSTRDIGITS" in message
    finally:
        sys.set_int_max_str_digits(limit)
    proc = subprocess.run(
        [sys.executable, "-m", "lehmerlab", *_big_hankel_argv(tmp_path)],
        capture_output=True, text=True, env=_cli_env(PYTHONINTMAXSTRDIGITS="4300"), timeout=60,
    )
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"]["message"] == message


def test_result_integer_past_digit_limit_with_limit_lifted(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lehmerlab", *_big_hankel_argv(tmp_path)],
        capture_output=True, text=True, env=_cli_env(PYTHONINTMAXSTRDIGITS="0"), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"values": [\n      1' + "0" * 4400 + "\n    ]" in proc.stdout


def test_bad_polynomial_exit_1(capsys):
    code, doc, _ = run_json(["mahler", "--poly", "1,oops,3", "--json-only"], capsys)
    assert code == 1
    assert doc["error"]["type"] in ("ValueError", "ZeroDivisionError")


def test_malformed_tokens_exit_1(capsys):
    for argv, message in (
        (
            ["fg-iterate", "--endo", "a -> a^x; b -> b"],
            "bad word token 'a^x': expected a letter a-z or g<i>, "
            "optionally followed by ^<e> with e a signed integer",
        ),
        (
            ["mahler", "--poly", "1,2.5"],
            "bad coefficient '2.5': expected comma-separated signed integers such as 1,0,-2",
        ),
        (["mahler", "--poly", "t^\u0663 + 1"], "cannot parse term 't^\u0663'"),
        (["mahler", "--poly", "\u0663t + 1"], "cannot parse term '\u0663t'"),
        # a sign after ^ belongs to the exponent's term
        (["mahler", "--poly=t^-1"], "negative exponents are not valid here"),
        (["mahler", "--poly=t^+2"], "cannot parse term 't^+2'"),
        # a sign that no term follows is not dropped
        (["mahler", "--poly=2t--1"], "cannot parse term '--1'"),
        (["mahler", "--poly=t-"], "cannot parse term '-'"),
        (["mahler", "--poly=t^2++1"], "cannot parse term '++1'"),
        (
            ["fit-recurrence", "--seq", "1,1,2,3,5,8,1/0"],
            "bad term '1/0': expected comma-separated integers, fractions "
            "p/q with q > 0 or decimals, such as 1,-2/3,1.5",
        ),
    ):
        code, doc, _ = run_json([*argv, "--json-only"], capsys)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": message}
    assert parse_poly("-t^2+1").coeffs == (1, 0, -1)


def test_empty_endomorphism_exits_1(capsys):
    """An --endo with no rule is a map of rank 0, which every command
    refuses with one message, as Endo(0, ()) does."""
    for argv in (
        ["fg-iterate", "--endo="],
        ["fg-growth", "--endo="],
        ["fg-growth", "--endo=;", "--sum"],
        ["fg-iterate", "--endo=;", "--word", "1"],
    ):
        code, doc, _ = run_json([*argv, "--json-only"], capsys)
        assert code == 1, argv
        assert doc["error"] == {"type": "ValueError", "message": "rank must be at least 1"}, argv
    with pytest.raises(ValueError, match="rank must be at least 1"):
        Endo(0, ())


def test_file_input(tmp_path, capsys):
    p = tmp_path / "lehmer.txt"
    p.write_text("1,1,0,-1,-1,-1,-1,-1,0,1,1\n")
    code, doc, _ = run_json(["mahler", "--poly", f"@{p}", "--json-only"], capsys)
    assert code == 0
    assert abs(doc["result"]["mahler"] - 1.1762808182599176) < 1e-12


def test_missing_file_exit_1(capsys):
    code, doc, _ = run_json(
        ["mahler", "--poly", "@/no/such/file", "--json-only"], capsys
    )
    assert code == 1
    assert doc["error"]["type"] in ("FileNotFoundError", "OSError")


def test_summary_on_stderr_unless_json_only(capsys):
    code, _, err = run_json(["primitivity", "--matrix", "[[1,1],[1,0]]"], capsys)
    assert code == 0
    assert "primitive" in err
    code, _, err = run_json(
        ["primitivity", "--matrix", "[[1,1],[1,0]]", "--json-only"], capsys
    )
    assert code == 0
    assert err == ""


def test_poly_coeffs_round_trip(capsys):
    # JSON coefficient lists feed straight back in as comma lists.
    _, doc, _ = run_json(
        ["alexander", "--n", "3", "--braid", "s1 s2^-1 T^2", "--json-only"], capsys
    )
    coeffs = ",".join(str(c) for c in doc["result"]["alexander"]["coeffs"])
    code, doc2, _ = run_json(["mahler", f"--poly={coeffs}", "--json-only"], capsys)
    assert code == 0
    assert abs(doc2["result"]["mahler"] - 1.1762808182599176) < 1e-12


def test_fit_recurrence(capsys):
    code, doc, _ = run_json(
        ["fit-recurrence", "--seq", "1,1,2,3,5,8,13,21,34", "--json-only"], capsys
    )
    assert code == 0
    assert doc["result"]["char"] == [-1, -1, 1]
    assert doc["result"]["char_display"] == "t^2-t-1"
    assert doc["result"]["init"] == [1, 1]
    _, _, err = run_json(["fit-recurrence", "--seq", "1,1,2,3,5,8,13,21,34"], capsys)
    assert err == "minimal polynomial: t^2-t-1\n"
    # A rational characteristic polynomial reads as the JSON spells it.
    code, doc, err = run_json(["fit-recurrence", "--seq=1/2,1/4,1/8,1/16"], capsys)
    assert code == 0
    assert doc["result"]["char"] == ["-1/2", 1]
    assert doc["result"]["char_display"] is None
    assert err == "minimal polynomial: -1/2, 1\n"
    # A rational char over an integer init, and the zero sequence.
    for seq, char, init in (("16,8,4,2,1", ["-1/2", 1], [16]), ("0,0,0,0,0,0", [1], [])):
        code, doc, _ = run_json(["fit-recurrence", f"--seq={seq}", "--json-only"], capsys)
        assert code == 0
        assert (doc["result"]["char"], doc["result"]["init"]) == (char, init)


def test_growth_entries(capsys):
    code, doc, _ = run_json(
        ["growth", "--seq", "1,1,2,3,5,8,13,21,34,55,89,144", "--k-max", "3", "--json-only"],
        capsys,
    )
    assert code == 0
    entries = doc["result"]["entries"]
    assert [e["k"] for e in entries] == [0, 1, 2, 3]
    assert abs(doc["result"]["max_exact"] - 1.618033988749895) < 1e-9
    assert entries[3]["exact"] == 0.0  # k > degree vanishes
    assert doc["inputs"]["window"] == 8


def test_max_exact_null_without_recurrence(capsys):
    code, doc, _ = run_json(
        ["growth", "--seq", "2,3,5,7,11,13,17,19,23,29,31,37", "--json-only"], capsys
    )
    assert code == 0
    assert doc["result"]["min_poly"] is None
    assert [e["exact"] for e in doc["result"]["entries"]] == [1.0, None, None, None]
    assert doc["result"]["max_exact"] is None
    # Tetranacci needs degree 4, more than 8 terms can fit.
    tetranacci = "a -> a b; b -> a c; c -> a d; d -> a"
    code = main(["fg-growth", "--endo", tetranacci, "--iters", "8", "--sum"])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["result"]["sum_report"]["max_exact"] is None
    assert err.splitlines()[-1] == "largest growth rate: n/a"


def test_lefschetz(capsys):
    code, doc, _ = run_json(
        ["lefschetz", "--matrix", "[[2,1],[1,1]]", "--iters", "4", "--boundary", "--json-only"],
        capsys,
    )
    assert code == 0
    assert doc["result"]["lefschetz"] == [-2, -6, -17, -46]
    assert doc["result"]["char"]["coeffs"] == [1, -3, 1]
    assert abs(doc["result"]["mahler_char"] - 2.618033988749895) < 1e-12


def test_lefschetz_takes_one_characteristic_polynomial(monkeypatch, capsys):
    """The traces and the Mahler measure share one char_poly."""
    import lehmerlab.cli as cli_module
    import lehmerlab.dynamics as dynamics

    calls = []

    def counted(a, real=dynamics.char_poly):
        calls.append(a)
        return real(a)

    monkeypatch.setattr(dynamics, "char_poly", counted)
    monkeypatch.setattr(cli_module, "char_poly", counted)
    code, doc, _ = run_json(
        ["lefschetz", "--matrix", "[[2,1],[1,1]]", "--iters", "4", "--json-only"],
        capsys,
    )
    assert code == 0
    assert doc["result"]["lefschetz"] == [-1, -5, -16, -45]
    assert len(calls) == 1


def test_every_traced_target_resolves():
    """Each function that perfbench/tracer.py wraps exists once
    lehmerlab.cli is imported; a deleted or renamed one would make a traced
    benchmark run fail while the rest of the suite passes."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    import lehmerlab.cli  # noqa: F401

    def resolves(module, attr):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        return callable(owner)

    assert tracer.TARGETS
    assert [t for t in tracer.TARGETS if not resolves(*t[1:])] == []


def test_net_trace_and_perron(capsys):
    code, doc, _ = run_json(
        ["net-trace", "--poly=-1,-1,1", "--iters", "8", "--json-only"], capsys
    )
    assert code == 0
    assert doc["result"]["first_negative_n"] is None
    code, doc, _ = run_json(
        ["perron", "--poly=-1,-1,1", "--n-net", "40", "--json-only"], capsys
    )
    assert code == 0
    assert doc["result"]["perron_candidate"] is True
    assert doc["result"]["net_traces_checked"] == 40


def test_non_positive_counts_exit_1(capsys):
    for argv, message in (
        (["perron", "--poly=-1,-1,1", "--n-net", "-5"], "need n_net >= 1"),
        (["padding", "--poly=3,-4,1", "--n-net", "0"], "need n_net >= 1"),
        (["net-trace", "--poly=-1,-1,1", "--iters", "-1"], "need n_terms >= 1"),
        (["growth", "--seq", "1,1,2,3,5,8,13,21", "--k-max", "-1"], "need k_max >= 0"),
        (["fg-growth", "--endo", "a -> a b; b -> a", "--k-max", "-1"], "need k_max >= 0"),
        (["fg-growth", "--endo", "a -> a b; b -> a", "--k-max", "-1", "--sum"], "need k_max >= 0"),
        (["growth", "--seq", "1,1,2,3,5,8,13,21", "--window", "0"], "need window >= 1"),
        (["fg-growth", "--endo", "a -> a b; b -> a", "--window", "-3"], "need window >= 1"),
        (["fg-growth", "--endo", "a -> a b; b -> a", "--window", "0", "--sum"], "need window >= 1"),
        (["growth", "--seq", "1,1,2,3,5,8,13,21", "--d-max", "-1"], "d_max must be nonnegative"),
        (["fg-growth", "--endo", "a -> a b; b -> a", "--d-max", "-1"], "d_max must be nonnegative"),
    ):
        code, doc, _ = run_json([*argv, "--json-only"], capsys)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": message}
    assert parse_poly("-t^2+1").coeffs == (1, 0, -1)
    with pytest.raises(ValueError, match="need n_terms >= 1"):
        net_trace(parse_poly("t^2-t-1"), 0)


@pytest.mark.parametrize(
    "poly, status, witness, factor",
    [("-1,0,2", "irreducible", 3, None), ("1,0,-1", "reducible", None, "t+1")],
)
def test_poly_check_non_monic(poly, status, witness, factor, capsys):
    code, doc, _ = run_json(["poly-check", f"--poly={poly}", "--json-only"], capsys)
    assert code == 0, doc
    r = doc["result"]
    assert r["monic"] is False and r["cyclotomic_product"] is False
    irr = r["irreducibility"]
    assert irr["status"] == status and irr["witness_prime"] == witness
    assert (irr["factor"] and irr["factor"]["display"]) == factor


def test_padding_trivial_when_already_nonnegative(capsys):
    code, doc, _ = run_json(["padding", "--poly=3,-4,1", "--json-only"], capsys)
    assert code == 0
    assert doc["result"]["found"] is True
    assert doc["result"]["indices"] == []
    assert doc["result"]["phi"]["coeffs"] == [1]


def test_fg_iterate_per_generator(capsys):
    code, doc, _ = run_json(
        ["fg-iterate", "--endo", "a -> a^3; b -> b^2", "--iters", "5", "--json-only"],
        capsys,
    )
    assert code == 0
    per = doc["result"]["per_generator"]
    assert per["a"] == [3, 9, 27, 81, 243]
    assert per["b"] == [2, 4, 8, 16, 32]


def test_fg_iterate_word(capsys):
    code, doc, _ = run_json(
        [
            "fg-iterate",
            "--endo",
            "a -> a^3; b -> b^2",
            "--word",
            "b a b^-1",
            "--iters",
            "6",
            "--json-only",
        ],
        capsys,
    )
    assert code == 0
    assert doc["result"]["lengths"] == [3**n + 2 ** (n + 1) for n in range(1, 7)]


def test_fg_growth_sum(capsys):
    code, doc, _ = run_json(
        [
            "fg-growth",
            "--endo",
            "a -> a^3; b -> b^2",
            "--k-max",
            "2",
            "--iters",
            "18",
            "--sum",
            "--json-only",
        ],
        capsys,
    )
    assert code == 0
    rep = doc["result"]["sum_report"]
    exact = {e["k"]: e["exact"] for e in rep["entries"]}
    assert abs(exact[1] - 3.0) < 1e-9
    assert abs(exact[2] - 6.0) < 1e-9


def test_fg_from_matrix(capsys):
    code, doc, err = run_json(["fg-from-matrix", "--matrix", "[[1,1],[1,0]]"], capsys)
    assert code == 0
    assert doc["result"]["images"] == ["a b", "a"]
    assert doc["result"]["endo"] == "a -> a b; b -> a" == err.strip()
    assert doc["result"]["abelianization"] == [[1, 1], [1, 0]]


def test_f2_positive_aut_worked_instance(capsys):
    code, doc, err = run_json(["f2-positive-aut", "--matrix", "[[2,1],[1,1]]"], capsys)
    assert code == 0
    r = doc["result"]
    assert r["images"] == ["a b a", "a b"]
    assert r["endo"] == "a -> a b a; b -> a b" == err.strip()
    assert r["matches_input"] is True
    assert r["positive_words"] is True
    assert r["nielsen_basis"] is True


def test_burau_two_strands(capsys):
    code, doc, _ = run_json(["burau", "--n", "2", "--braid", "s1", "--json-only"], capsys)
    assert code == 0
    assert doc["result"]["size"] == 1
    cell = doc["result"]["matrix"][0][0]
    assert cell["coeffs"] == [-1] and cell["min_deg"] == 1


def test_lehmer_gap(capsys):
    code, doc, _ = run_json(
        ["lehmer-gap", "--n", "3", "--braid", "s1 s2^-1 T^2", "--json-only"], capsys
    )
    assert code == 0
    assert abs(doc["result"]["gap"] - 1.1762808182599176) < 1e-9


def test_entropy(capsys):
    code, doc, _ = run_json(
        ["entropy", "--n", "3", "--braid", "s1 s2^-1", "--iters", "10", "--json-only"],
        capsys,
    )
    assert code == 0
    assert abs(doc["result"]["gr1"] - 2.618033988749895) / 2.618033988749895 < 0.02
    gens = [g["generator"] for g in doc["result"]["per_generator"]]
    assert gens == [1, 2, 3]


def _knot_braid(rng, n, length):
    """Random word whose closure is a knot: its permutation is an n-cycle."""
    while True:
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        perm = list(range(n))
        for x in letters:
            i = abs(x)
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        j, cycle = perm[0], 1
        while j != 0:
            j, cycle = perm[j], cycle + 1
        if cycle == n:
            return " ".join(f"s{x}" if x > 0 else f"s{-x}^-1" for x in letters)


def test_entropy_long_braid_many_iterates(capsys):
    """Norms pass 1024 bits here, so ratios must be taken on the integers;
    the word route stopped with a budget error on this input."""
    braid = _knot_braid(random.Random(12), 12, 199)
    code, doc, _ = run_json(
        ["entropy", "--n", "12", "--braid", braid, "--iters", "100", "--json-only"], capsys
    )
    assert code == 0, doc
    assert math.isfinite(doc["result"]["gr1"]) and doc["result"]["gr1"] > 1
    assert len(doc["result"]["per_generator"]) == 12


def test_env_var_tolerance(monkeypatch, capsys):
    monkeypatch.setenv("LEHMERLAB_TOL", "1e-8")
    code, doc, _ = run_json(["mahler", "--poly", "1,1", "--json-only"], capsys)
    assert code == 0
    assert doc["inputs"]["tol"] == 1e-8
    for bad in ("not-a-number", "inf", "-inf", "nan", "0", "-1e-8"):
        monkeypatch.setenv("LEHMERLAB_TOL", bad)
        code, doc, _ = run_json(["mahler", "--poly", "1,1", "--json-only"], capsys)
        assert code == 0
        assert doc["inputs"]["tol"] == 1e-10


def test_env_var_fallback_notes_on_stderr(monkeypatch, capsys):
    argv = ["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1", "--json-only"]
    monkeypatch.delenv("LEHMERLAB_TOL", raising=False)
    assert main(argv) == 0
    plain, err = capsys.readouterr()
    assert err == ""
    for bad in ("not-a-number", "inf", "0", ""):
        monkeypatch.setenv("LEHMERLAB_TOL", bad)
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out == plain
        assert err == (
            f"lehmerlab: LEHMERLAB_TOL={bad!r} is not a positive finite number; "
            "using the default tol 1e-10\n"
        )


# One tiny input per subcommand: every handler's output goes through the
# same {"command", "inputs", "result"} envelope.
ENVELOPE_CASES = {
    "mahler": ["--poly", "1,1"],
    "poly-check": ["--poly", "1,1"],
    "hankel": ["--seq", "1,1,2,3,5", "--k", "2"],
    "growth": ["--seq", "1,1,2,3,5,8,13,21", "--k-max", "1"],
    "fit-recurrence": ["--seq", "1,1,2,3,5,8"],
    "lefschetz": ["--matrix", "[[2,1],[1,1]]", "--iters", "3"],
    "net-trace": ["--poly=-1,-1,1", "--iters", "4"],
    "perron": ["--poly=-1,-1,1", "--n-net", "4"],
    "padding": ["--poly=3,-4,1", "--n-net", "4"],
    "primitivity": ["--matrix", "[[1,1],[1,0]]"],
    "fg-iterate": ["--endo", "a -> a b; b -> a", "--iters", "3"],
    "fg-growth": ["--endo", "a -> a b; b -> a", "--iters", "12", "--k-max", "1"],
    "fg-from-matrix": ["--matrix", "[[1,1],[1,0]]"],
    "f2-positive-aut": ["--matrix", "[[2,1],[1,1]]"],
    "burau": ["--n", "2", "--braid", "s1"],
    "alexander": ["--n", "3", "--braid", "s1 s2^-1"],
    "lehmer-gap": ["--n", "3", "--braid", "s1 s2^-1"],
    "entropy": ["--n", "3", "--braid", "s1 s2^-1", "--iters", "6"],
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_CASES))
def test_one_envelope_per_subcommand(command, capsys):
    argv = [command, *ENVELOPE_CASES[command]]
    code, doc, err = run_json([*argv, "--json-only"], capsys)
    assert code == 0, doc
    assert set(doc) == {"command", "inputs", "result"}
    assert doc["command"] == argv[0]
    assert err == ""
    code, again, err = run_json(argv, capsys)
    assert code == 0 and again == doc
    assert err.strip()


def test_env_var_read_only_when_used(monkeypatch, capsys):
    monkeypatch.setenv("LEHMERLAB_TOL", "abc")
    code, _, err = run_json(["poly-check", "--poly", "1,1", "--json-only"], capsys)
    assert (code, err) == (0, "")
    code, doc, err = run_json(["mahler", "--poly", "1,1", "--tol", "1e-8", "--json-only"], capsys)
    assert (code, err) == (0, "")
    assert doc["inputs"]["tol"] == 1e-8
    # --help shows the static default whatever the environment holds.
    with pytest.raises(SystemExit) as exc:
        main(["mahler", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert "(default 1e-10, or LEHMERLAB_TOL)" in " ".join(out.split())
    assert err == ""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert len(ENVELOPE_CASES) == 18
    assert all(name in out for name in ENVELOPE_CASES)


def test_parser_built_once_per_process_and_not_at_import():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *a, **k):\n"
        "    built.append(1)\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import lehmerlab.cli as cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    cli.main(['mahler', '--poly', '1,1', '--json-only'])\n"
        "    counts.append(len(built))\n"
        "print(counts)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    first, after_one, after_two = json.loads(proc.stdout.splitlines()[-1])
    assert first == 0 and after_one > 0 and after_two == after_one
    assert build_parser() is build_parser()


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-8", "abc"])
def test_tol_must_be_positive_finite_exit_2(tol, capsys):
    for cmd in (["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], ["lehmer-gap", "--n", "3", "--braid", "s1 s2^-1"]):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, f"--tol={tol}", "--json-only"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --tol: {tol!r} is not a positive finite number" in err


@pytest.mark.parametrize("tol", ["1e-16", "1e-300"])
def test_tol_below_float64_resolution_exit_1(tol, capsys):
    for cmd in (["mahler", "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1"], ["lehmer-gap", "--n", "3", "--braid", "s1 s2^-1 T^2"]):
        code, doc, _ = run_json([*cmd, "--tol", tol, "--json-only"], capsys)
        assert code == 1
        assert doc["error"]["type"] == "PrecisionError"
        message = doc["error"]["message"]
        assert f"tol={float(tol):g} is too fine for float64" in message
        assert "float64 spacing" in message and "modulus" in message
        assert "cluster" not in message


def test_mahler_leaves_mpmath_unimported():
    # Lehmer's polynomial, inputs with zero and rational roots, and one with
    # leading coefficient 2^53 + 1, which takes the escalation route.
    script = (
        "import sys, lehmerlab.cli as cli\n"
        "for poly in ('1,1,0,-1,-1,-1,-1,-1,0,1,1', '0,0,-1,1,2', '1,-5,6', '1,1,0,9007199254740993'):\n"
        "    code = cli.main(['mahler', '--poly', poly, '--json-only'])\n"
        "    assert code == 0, (poly, code)\n"
        "print('mpmath' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _loaded_after_each(argvs):
    """[numpy, lehmerlab._factor, dataclasses or inspect, lehmerlab._circle]
    in sys.modules after import, after build_parser() and after each argv,
    in one fresh interpreter."""
    script = (
        "import json, sys\n"
        "def loaded():\n"
        "    generated = 'dataclasses' in sys.modules or 'inspect' in sys.modules\n"
        "    return ['numpy' in sys.modules, 'lehmerlab._factor' in sys.modules, generated,\n"
        "            'lehmerlab._circle' in sys.modules]\n"
        "import lehmerlab\n"
        "states = [loaded()]\n"
        "import lehmerlab.cli as cli\n"
        "cli.build_parser()\n"
        "states.append(loaded())\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main([*argv, '--json-only']) == 0, argv\n"
        "    states.append(loaded())\n"
        "print(json.dumps(states))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_numpy_loaded_only_by_root_certification():
    lehmer = "1,1,0,-1,-1,-1,-1,-1,0,1,1"
    states = _loaded_after_each([
        ["fg-iterate", "--endo", "a -> a b; b -> a", "--iters", "8"],
        ["alexander", "--n", "3", "--braid", "s1 s2^-1 T^2"],
        ["entropy", "--n", "3", "--braid", "s1 s2^-1"],
        ["burau", "--n", "3", "--braid", "s1 s2^-1"],
        ["hankel", "--seq", "1,1,2,3,5,8,13,21", "--k", "2"],
        ["poly-check", "--poly", "1,2,2,2,1"],
        ["mahler", "--poly", lehmer],
        ["poly-check", "--poly", lehmer],
    ])
    # import, parser, then five subcommands that compute no root; no
    # code is generated at import, so dataclasses and inspect stay out
    assert states[:7] == [[False, False, False, False]] * 7
    # (t + 1)^2 (t^2 + 1): Yun finds the square, and no Frobenius matrix is
    # built; the cyclotomic-product test compiles the unit-circle count
    assert states[7] == [False, True, False, True]
    assert states[8][:2] == [True, True]  # mahler certifies roots
    assert states[9][:2] == [True, True]  # poly-check factors
    # mahler alone certifies roots and counts none on the circle
    states = _loaded_after_each([["mahler", "--poly", lehmer], ["poly-check", "--poly", lehmer]])
    assert [s[3] for s in states] == [False, False, False, True]


def test_cold_start_loads_only_what_the_command_uses():
    """Import plus build_parser() loads none of fractions, decimal, json and
    array and builds no subcommand; a well-formed argv builds its own flag
    table entry and no parser, an argv that argparse reads builds its own
    parser and no other; integer jobs load no fractions, a rational
    sequence does, and a --matrix loads json."""
    script = (
        "import argparse, sys\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def recording(self, *a, **k):\n"
        "    built.append(k.get('prog'))\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = recording\n"
        "import lehmerlab.cli as cli\n"
        "def state():\n"
        "    modules = [m for m in ('fractions', 'decimal', 'json', 'array') if m in sys.modules]\n"
        "    entries = [n for n, e in dict.items(cli._parsers()[1]) if e is not None]\n"
        "    state = [modules, built[:], entries]\n"
        "    built.clear()\n"
        "    return state\n"
        "cli.build_parser()\n"
        "states = [state()]\n"
        "for argv in (\n"
        "    ['fg-iterate', '--endo', 'a -> a b; b -> a', '--iters', '8'],\n"
        "    ['alexander', '--n', '3', '--braid', 's1 s2^-1 T^2'],\n"
        "    ['entropy', '--n', '3', '--braid', 's1 s2^-1'],\n"
        "    ['hankel', '--seq', '1,1,2,3,5,8,13,21', '--k', '2'],\n"
        "    ['fg-iterate', '--endo', 'a -> a b; b -> a', '--it', '5'],\n"
        "    ['growth', '--seq', '1/2,1/3,1/4,1/5,1/6,1/7,1/8,1/9'],\n"
        "    ['primitivity', '--matrix', '[[1,1],[1,0]]'],\n"
        "):\n"
        "    assert cli.main([*argv, '--json-only']) == 0, argv\n"
        "    states.append(state())\n"
        "print(repr(states))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    states = ast.literal_eval(proc.stdout.splitlines()[-1])
    # the common parent of the subcommands and the top-level parser
    assert states[0] == [[], [None, "lehmerlab"], []]
    built = [b for _, b, _ in states[1:]]
    # only the abbreviated --it reaches argparse, which builds that parser
    assert built == [[], [], [], [], ["lehmerlab fg-iterate"], [], []]
    entries = [set(e) for _, _, e in states[1:]]
    kinds = ["fg-iterate", "alexander", "entropy", "hankel", "fg-iterate", "growth", "primitivity"]
    assert entries == [set(kinds[: i + 1]) for i in range(len(kinds))]
    modules = [m for m, _, _ in states[1:]]
    assert all("fractions" not in m and "json" not in m for m in modules[:5])
    assert {"fractions", "decimal"} <= set(modules[5]) and "json" not in modules[5]
    assert "json" in modules[6]


def test_poly_check_is_deterministic_without_random():
    # Lehmer's polynomial times t^14 - 3t^5 + 2t + 5: squarefree, so the
    # factor comes from the Hensel lift and recombination.
    coeffs = "5,7,2,-5,-7,-10,-10,-7,1,8,10,5,3,0,-2,-2,0,-1,-1,-1,-1,-1,0,1,1"
    script = (
        "import sys, lehmerlab.cli as cli\n"
        f"code = cli.main(['poly-check', '--poly', '{coeffs}', '--json-only'])\n"
        "print('random' in sys.modules, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    # -S keeps site hooks, which may import random themselves, out of the
    # check; numpy's directory goes on the path by hand instead.
    paths = [os.path.dirname(os.path.dirname(m.__file__)) for m in (lehmerlab, np)]
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == b"False\n"
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    irr = json.loads(outs[0])["result"]["irreducibility"]
    assert irr["status"] == "reducible" and irr["witness_prime"] is None
    assert irr["factor"]["display"] == "t^10+t^9-t^7-t^6-t^5-t^4-t^3+t+1"


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    argv = ["alexander", "--n", "3", "--braid", "s1 s2^-1 T^2", "--json-only"]
    proc = subprocess.run(
        [sys.executable, "-m", "lehmerlab", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["alexander"]["coeffs"] == LEHMER_NEG_T
    proc = subprocess.run(
        [sys.executable, "-m", "lehmerlab", "alexander", "--n", "3", "--braid", "s1^x"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exit_1_without_traceback(unbuffered):
    # Buffered, the write fails at the final flush; unbuffered, inside print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(lehmerlab.__file__)), env.get("PYTHONPATH", "")]
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lehmerlab.cli", "mahler",
             "--poly", "1,1,0,-1,-1,-1,-1,-1,0,1,1", "--json-only"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_cli.json")


def test_growth_layer_stdout_is_pinned(capsys):
    """Stdout of growth, fit-recurrence, hankel, lefschetz, fg-iterate and
    fg-growth runs, byte for byte, as the Fraction-based growth layer wrote
    it before the integer kernels replaced it (tests/data/golden_cli.json).
    The last eight pins, written before the window estimates and the root
    readers were merged, add growth rows past the recurrence degree, null
    estimates, fg-growth with and without --sum at k_max 5, and perron and
    padding runs whose roots tie in modulus."""
    with open(GOLDEN) as fh:
        cases = json.load(fh)
    assert {c["argv"][0] for c in cases} == {
        "growth", "fit-recurrence", "hankel", "lefschetz", "fg-iterate", "fg-growth",
        "perron", "padding",
    }
    for case in cases:
        code = main(case["argv"])
        out, _ = capsys.readouterr()
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_golden_argv_take_the_flag_table(monkeypatch, capsys):
    """Every pinned argv is read from the flag table: with argparse's parse
    made to raise, each still gives its pinned exit code and stdout, while a
    malformed argv still reaches the whole tree."""

    class Parsed(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    with open(GOLDEN) as fh:
        cases = json.load(fh)
    assert len(cases) == 29
    for case in cases:
        code = main(case["argv"])
        out, _ = capsys.readouterr()
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]
    with pytest.raises(Parsed):
        main(["mahler", "--poly", "1,1", "--json-only=1"])


def _flag_values(rng, action):
    """A nonempty value the action's type accepts, drawn at random."""
    if action.type is int:
        return str(rng.randint(-5, 40))
    if action.type is cli._tol_arg:
        return rng.choice(["1e-8", "0.5", "3", "2.5e-12"])
    if action.type is cli._budget_arg:
        return rng.choice(["0", "7", "10000000"])
    assert action.type is None
    return rng.choice(
        ["1,1", "-1,-1,1", "a -> a b; b -> a", "s1 s2^-1 T^2", "[[2, 1], [1, 1]]",
         "x=y=z", "@data.txt", "t^10 + t^9 - 1", " lead", "a@b", "^"]
    )


def test_flag_reader_matches_argparse():
    """For seeded argv of every subcommand (flags in random order, both value
    forms, optional and store_true flags present or absent), the flag table
    reads the namespace the whole tree parses; argv it must hand on (an
    abbreviation, a repeated flag, a value starting with '-' in the space
    form, an empty value) reach argparse and parse as argparse parses them."""
    table = cli._parsers()[1]
    assert set(table) == set(ENVELOPE_CASES)
    rng = random.Random(24)
    for name in sorted(table):
        actions = table[name].actions
        for _ in range(40):
            tokens = []
            for flag, action in actions.items():
                if not action.required and rng.random() < 0.4:
                    continue
                if action.nargs == 0:
                    tokens.append([flag])
                    continue
                value = _flag_values(rng, action)
                if value.startswith("-") or rng.random() < 0.5:
                    tokens.append([f"{flag}={value}"])
                else:
                    tokens.append([flag, value])
            rng.shuffle(tokens)
            argv = [name, *(t for pair in tokens for t in pair)]
            args = cli._read_flags(argv)
            assert args is not None, argv
            assert vars(args) == vars(build_parser().parse_args(argv)), argv
    endo = ["fg-iterate", "--endo", "a -> a b; b -> a"]
    for argv in (
        [*endo, "--it", "3"],
        [*endo, "--iters", "3", "--iters", "5"],
        ["hankel", "--seq", "1,1,2,3", "--k", "2", "--n", "-3"],
        [*endo, "--word="],
    ):
        assert cli._read_flags(argv) is None, argv
        assert vars(cli._parse_args(argv)) == vars(build_parser().parse_args(argv)), argv


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**200), max_value=10**200)
    | st.floats()
    | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324])
    | st.text()
    | st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\U0001f600', max_size=12)
)
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_matches_json_on_golden_stdout():
    with open(GOLDEN) as fh:
        cases = json.load(fh)
    for case in cases:
        doc = json.loads(case["stdout"])
        assert _json_text(doc) + "\n" == case["stdout"], case["argv"]
        assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_writer_writes_subclasses_as_json_does():
    import enum

    class Size(enum.IntEnum):
        K = 3

    class Name(str):
        pass

    class Real(float):
        pass

    doc = {Name("k"): [Size.K, Name("a\u00e9"), Real(0.5), Real("nan")], "t": (True, None)}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    assert _json_text(Size.K) == "3"


def test_json_writer_raises_json_type_errors():
    for bad in (Fraction(1, 3), {1, 2}):
        with pytest.raises(TypeError) as expected:
            json.dumps({"value": [bad]}, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            _json_text({"value": [bad]})
        assert str(got.value) == str(expected.value)
    with pytest.raises(TypeError, match="keys must be str, not int"):
        _json_text({"a": {1: 2}})


def test_growth_past_float64_exits_1_naming_the_limit(capsys):
    seq = ",".join(str(n * 10**400) for n in range(1, 9))
    code, doc, _ = run_json(["growth", "--seq", seq, "--k-max", "1", "--json-only"], capsys)
    assert code == 1
    assert doc["error"] == {
        "type": "OverflowError",
        "message": "|H_{1,1}|^(1/1) at k=1, n=1 exceeds the float64 range (about 1.8e308)",
    }


def test_mahler_past_float64_exits_1_naming_the_limit(capsys):
    code, doc, _ = run_json(["mahler", f"--poly={10**400},0,1", "--json-only"], capsys)
    assert code == 1
    assert doc["error"] == {"type": "PrecisionError", "message": "root disk radii left the float64 range"}


@pytest.mark.parametrize(
    "cmd",
    [
        ["fg-iterate", "--endo", "a -> a b^-1; b -> a", "--iters", "2"],
        ["fg-iterate", "--endo", "a -> a b; b -> a"],
        ["fg-growth", "--endo", "a -> a b^-1; b -> a", "--iters", "2"],
        ["entropy", "--braid", "s1", "--n", "2"],
    ],
)
@pytest.mark.parametrize("budget", ["-1", "-5", "1.5", "abc"])
def test_budget_must_be_a_nonnegative_integer_exit_2(cmd, budget, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*cmd, "--budget", budget, "--json-only"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"argument --budget: {budget!r} is not a nonnegative integer" in err


def test_budget_0_is_valid(capsys):
    code, doc, _ = run_json(
        ["fg-iterate", "--endo", "a -> a b; b -> a", "--budget", "0", "--json-only"], capsys
    )
    assert (code, doc["inputs"]["budget"]) == (0, 0)
    code, doc, _ = run_json(
        ["entropy", "--braid", "s1", "--n", "2", "--budget", "0", "--json-only"], capsys
    )
    assert (code, doc["inputs"]["budget"]) == (0, 0)


def test_cli_diff_finds_no_difference_between_one_tree_and_itself():
    """tools/cli_diff.py on one seed's benchmark jobs and its 84 contract
    jobs, src on both sides, each job run with and without --json-only."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(lehmerlab.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "cli_diff.py"), src, src, "--seeds", "3"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["597 jobs, 1194 runs", "0 differ"]


def test_job_ab_times_one_tree_against_itself():
    """tools/job_ab.py --cold on one seed's perron jobs, src on both sides."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(lehmerlab.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "job_ab.py"), src, src,
         "--workload", "spectra", "--kinds", "perron", "--seeds", "3", "--passes", "2", "--cold"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["family", "jobs", "old_ms", "new_ms", "change"]
    families = ["perron cyclotomic", "perron random", "perron reciprocal", "perron repeated"]
    assert [" ".join(row.split()[:2]) for row in rows] == families
    assert sum(int(row.split()[2]) for row in rows) == 24


def test_job_ab_times_every_kind_without_kinds():
    """tools/job_ab.py without --kinds times every job kind of the workload."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(lehmerlab.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "job_ab.py"), src, src,
         "--workload", "endo_growth", "--seeds", "3", "--passes", "2"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _, *rows = proc.stdout.splitlines()
    kinds = ["f2-positive-aut", "fg-from-matrix", "fg-growth", "fg-iterate"]
    assert [row.split()[0] for row in rows] == kinds


def test_setup_ab_times_one_tree_against_itself():
    """tools/setup_ab.py with 2 pairs, src on both sides, with the
    per-module table of --modules."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(lehmerlab.__file__))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "setup_ab.py"), src, src,
         "--pairs", "2", "--modules"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    header, *rows = lines[: lines.index("")]
    assert header.split() == ["tree", "setup_s", "q1", "q3", "start_ms", "ref_ms"]
    assert [row.split()[0] for row in rows] == ["old", "new"]
    for row in rows:
        setup_s, q1, q3, start_ms, ref_ms = map(float, row.split()[1:])
        assert 0 < q1 <= setup_s <= q3 and start_ms > 0 and ref_ms > 0
    header, *rows = lines[lines.index("") + 1 :]
    assert header.split() == ["module", "old_us", "new_us"]
    names = [row.rsplit(None, 2)[0] for row in rows]
    assert {"lehmerlab.cli", "lehmerlab.polynomial", "argparse"} <= set(names)
    assert "fractions" not in names and "json" not in names
    assert names[-2:] == ["(imports)", "(rest of the start)"]
    for row in rows[:-1]:
        assert float(row.split()[-2]) >= 0 and float(row.split()[-1]) >= 0


def test_integer_routes_build_no_fraction(monkeypatch):
    """Integer sequences stay ints from producer to JSON: not one Fraction
    is built on these routes, the fitted recurrence and its rates included."""
    from lehmerlab.braid import BraidWord, entropy_estimate
    from lehmerlab.dynamics import (
        IntMatrix, SignedShiftSystem, lefschetz_seq, signed_trace_seq, trace_powers,
    )
    from lehmerlab.freegroup import generator_lengths, growth_report, iterate_lengths, parse_endo
    from lehmerlab.sequence import (
        fit_min_poly, growth_reports, hankel_det, hankel_values, parse_seq,
    )

    a = IntMatrix(((1, 1), (1, 0)))
    b = IntMatrix(((2, 1, 0), (0, 1, 1), (1, 0, 3)))
    positive = parse_endo("a -> a b; b -> a")
    cancelling = parse_endo("a -> a b a^-1; b -> b a")
    tetranacci = "a -> a b; b -> a c; c -> a d; d -> a"
    lengths = generator_lengths(positive, 16) + generator_lengths(parse_endo(tetranacci), 16)
    chars = [(-1, -1, 1)] * 2 + [(-1, -1, -1, -1, 1)] * 4
    routes = {
        "parse_seq": lambda: parse_seq("1,1,2,3,5").terms == (1, 1, 2, 3, 5),
        "trace_powers": lambda: trace_powers(a, 6).terms == (1, 3, 4, 7, 11, 18),
        "lefschetz_seq": lambda: lefschetz_seq(b, True, 6).terms[0] == -5,
        "signed_trace_seq": lambda: signed_trace_seq(
            SignedShiftSystem(((1, b), (-1, a))), 6
        ).terms[0] == 5,
        "iterate_lengths": lambda: [
            iterate_lengths(phi, 1, 8).terms[:2] for phi in (positive, cancelling)
        ] == [(2, 3), (3, 8)],
        "generator_lengths": lambda: [
            [s.terms[0] for s in generator_lengths(phi, 8)] for phi in (positive, cancelling)
        ] == [[2, 1], [3, 2]],
        "entropy_estimate": lambda: entropy_estimate(BraidWord(3, (1, -2)), 8).gr1 > 2,
        "fg-iterate": lambda: main(
            ["fg-iterate", "--endo", "a -> a b; b -> a", "--iters", "12", "--json-only"]
        ) == 0,
        "fit_min_poly": lambda: [fit_min_poly(s, 5).char for s in lengths] == chars,
        "growth_reports": lambda: [
            r.min_poly.char for r in growth_reports(lengths, 4)
        ] == chars,
        "freegroup.growth_report": lambda: growth_report(
            parse_endo(tetranacci), 4, 16
        ).maxima[1] > 1.92,
        "fg-growth": lambda: main(
            ["fg-growth", "--endo", tetranacci, "--iters", "16", "--json-only"]
        ) == 0,
        # |phi^n(b)| = 2^n: the char t - 2 has an integer root, recognized
        # exactly by the monic route of _recognize_rational_roots.
        "fg-growth integer root": lambda: main(
            ["fg-growth", "--endo", "a -> a b; b -> b a", "--iters", "12", "--json-only"]
        ) == 0,
        "growth": lambda: main(
            ["growth", "--seq", "1,1,2,3,5,8,13,21,34,55,89,144", "--json-only"]
        ) == 0,
        "hankel_values": lambda: [
            hankel_values(parse_seq("1,1,2,3,5,8,13"), k)[:2] for k in (0, 2)
        ] == [[(1, 1), (2, 1)], [(1, 1), (2, -1)]],
        "hankel_det": lambda: [
            hankel_det(parse_seq("1,1,2,3,5,8,13"), 2, k) for k in (0, 2)
        ] == [1, -1],
        "hankel": lambda: main(
            ["hankel", "--seq", "1,1,2,3,5,8,13,21", "--k", "2", "--json-only"]
        ) == 0,
    }
    real = Fraction.__new__
    counts = {}
    for name, route in routes.items():
        counts[name] = 0

        def counted(cls, *args, _name=name, **kwargs):
            counts[_name] += 1
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        assert route(), name
        monkeypatch.undo()
    assert counts == dict.fromkeys(routes, 0)
