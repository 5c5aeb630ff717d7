"""Compare the CLI of two source trees on the benchmark's jobs.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC [--seeds 3 11 12]

OLD_SRC and NEW_SRC are directories that hold a ``lehmerlab`` package, such
as ``src`` of two checkouts.  The jobs are rounds 0-2 of each seed
of the spectra, braids and endo_growth workloads, the job list of
tools/job_ab.py (``family_jobs``, from perfbench/jobs.py, read, never
changed), and then the fixed CONTRACT list.  Each side runs every job through
``lehmerlab.cli.main`` in one subprocess of its own, once as the benchmark
gives it and once without --json-only, so the summary lines on stderr are
compared too.

Prints the job and run counts, each argv whose exit code, stdout or stderr
differs between the sides, and the number that differ; exits 1 on any
difference and 0 when none.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

WORKLOADS = ("spectra", "braids", "endo_growth")

# A 300-letter all-inverse 3-strand word with T^-2: every Burau column
# shift is a right shift, and the twist lowers every degree.
INVERSE_WORD = " ".join(f"s{1 + (i * i + i // 7) % 2}^-1" for i in range(300)) + " T^-2"

# A 200-letter 5-strand word whose closure is a knot, with a degree-58
# det(B - I) that has roots off the unit circle.
KNOT_WORD_5 = " ".join(f"s{1 + (i * i + i // 4) % 4}{'^-1' if (i * i + i // 2) % 3 else ''}" for i in range(200))

# Argv the benchmark rounds never produce: the five subcommands they never
# run, the Recurrence JSON they never reach (a rational char over an
# integer and over a rational init, a degree-0 char, --d-max 0, a rational
# growth, fg-growth --sum and --k-max 5), and Burau words they never draw
# (all-inverse with T^-2, a word that cancels to the identity, whose
# determinant vanishes, and a one-signed 4-strand word).  The rounds draw
# poly-check only at degree 20-24 and mahler repeated factors with small
# coefficients, so also: the Swinnerton-Dyer octic, which splits into at
# least four factors modulo every prime; two distinct irreducible cubics
# times a sextic, where the prime taken can decide which cubic is printed;
# Phi_7 times Lehmer's polynomial; t * prod(witness primes) + 1, whose
# witness prime is 101; a square factor with coefficients near 10^3; and,
# for the cyclotomic-product test, (t-1)^3 (t+1) Phi_12^2, the Salem
# quartic t^4 - t^3 - t^2 - t + 1 and Phi_105 Phi_210.
# The float64 root pass, one input per branch: zero roots, an all-real
# spectrum with rational roots, the Yun route with a merged cluster, the
# exact escalation, a coefficient of 2^53 or more, c / lc past the float64
# range (fixed starts, and disks past that range) and a tol too fine for
# float64.  The disk bookkeeping after it: (t-1)(t+1)(t-2)(t^2-2), three
# rational roots replaced on the disjoint route; (2t-1)(3t+2)(t^2+t+1),
# the non-monic recognition; (t-1)^2(t+2)(t^2-2), rational roots, one
# double, beside irrational ones on the Yun route; (3t-2)(t^2-t-1), a
# rational root beside irrational ones; and (2t+1)^2 (t^3-2), a double
# non-monic rational root through Yun.  Degree 1, where no other root
# forces the dominant one positive: t, t + 2 and t + 1, whose one root is
# not a positive real.  Primitivity by the period: a 6-cycle
# with one chord (primitive, exponent 26), a reducible Jordan block, and
# the 1x1 zero and one.  Padding that ends in None at once, on a negative
# net trace past search_bound (n = 25), and a search with --max-mult 1 and
# --search-bound 6.  Last, argv that the flag table hands to argparse, so
# its help and usage text are compared: the top-level help, no subcommand,
# an invalid choice, each subcommand's help, a missing required flag, an
# unknown flag, an abbreviated flag and a value of the wrong type.  The
# rounds draw lehmer-gap only on 3-5 strands and short words, so also:
# Delta = 2t^4 - 5t^3 + 7t^2 - 5t + 2, every root on the circle, whose
# float route printed 2.000000000000001; three trefoils, Delta =
# (t^2 - t + 1)^3; a 6-strand knot, whose det has the factor t + 1, and
# an 8-strand knot, both with every root on the circle; and KNOT_WORD_5.
SUBCOMMANDS = [
    "mahler", "poly-check", "hankel", "growth", "fit-recurrence", "lefschetz", "net-trace",
    "perron", "padding", "primitivity", "fg-iterate", "fg-growth", "fg-from-matrix",
    "f2-positive-aut", "burau", "alexander", "lehmer-gap", "entropy",
]
CONTRACT = [
    ["hankel", "--seq", "1,1,2,3,5,8,13,21,34,55", "--k", "2"],
    ["hankel", "--seq=1/2,-1/3,3/4,2,-5/6,1/7,4,-1/2,2/9", "--k", "2", "--n", "3"],
    ["net-trace", "--poly=-1,-1,1", "--iters", "8"],
    ["padding", "--poly=t^3+t^2-22t-40"],
    ["primitivity", "--matrix", "[[1,1],[1,0]]"],
    ["primitivity", "--matrix", "[[0,1],[1,0]]"],
    ["burau", "--n", "3", "--braid", "s1 s2^-1"],
    ["burau", "--n", "3", "--braid", INVERSE_WORD],
    ["alexander", "--n", "3", "--braid", INVERSE_WORD],
    ["alexander", "--n", "3", "--braid", "s1 s2 s2^-1 s1^-1"],
    ["lehmer-gap", "--n", "4", "--braid", "s1 s2 s3 s1 s2 s2 s3 s1 s3 s2 s1 s1 s3"],
    ["lehmer-gap", "--n", "4", "--braid",
     "s1 s1^-1 s1^-1 s3 s3 s2 s2 s3^-1 s1^-1 s3^-1 s1^-1 s1^-1 s3 s2 s1^-1 s1 s1"],
    ["lehmer-gap", "--n", "4", "--braid", "s1 s1 s1 s2 s2 s2 s3 s3 s3"],
    ["lehmer-gap", "--n", "6", "--braid",
     "s5^-1 s2 s2^-1 s5^-1 s5^-1 s5^-1 s4 s2 s5 s5 s4^-1 s5 s3 s4 s2 s3 s1"],
    ["lehmer-gap", "--n", "8", "--braid",
     "s3^-1 s2^-1 s6^-1 s3^-1 s5^-1 s2 s4 s2^-1 s5^-1 s4^-1 s7^-1 s3^-1 s5 s5^-1 s4 s6 s1^-1 s7^-1 s5 s3^-1 s7"],
    ["lehmer-gap", "--n", "5", "--braid", KNOT_WORD_5],
    ["fit-recurrence", "--seq=16,8,4,2,1"],
    ["fit-recurrence", "--seq=1/2,1/4,1/8,1/16"],
    ["fit-recurrence", "--seq=0,0,0,0,0,0"],
    ["fit-recurrence", "--seq=0,0,0", "--d-max", "0"],
    ["fit-recurrence", "--seq=3,3,3", "--d-max", "0"],
    ["growth", "--seq", "1,1,2,3,5,8,13,21,34,55,89,144", "--d-max", "0"],
    ["growth", "--seq=16,8,4,2,1,1/2,1/4,1/8,1/16,1/32,1/64,1/128", "--k-max", "2"],
    ["growth", "--seq", "1/2,3/4,5/8,11/16,21/32,43/64,85/128,171/256,341/512,683/1024",
     "--k-max", "2", "--window", "4"],
    ["growth", "--seq", "1,3,2,5,4,7,6,9", "--k-max", "5", "--window", "3"],
    ["fg-growth", "--endo", "a -> a b; b -> a c; c -> a d; d -> a", "--iters", "16", "--sum"],
    ["fg-growth", "--endo", "a -> a b a^-1; b -> b a", "--iters", "12", "--k-max", "2", "--sum"],
    ["fg-growth", "--endo", "a -> a b; b -> a", "--k-max", "5", "--window", "3"],
    ["poly-check", "--poly=576,0,-960,0,352,0,-40,0,1"],
    ["poly-check", "--poly=2,4,2,-3,-4,-1,3,3,0,-3,-1,0,1"],
    ["poly-check", "--poly=1,2,2,1,0,-1,-2,-4,-5,-4,-2,-1,0,1,2,2,1"],
    ["poly-check", "--poly=1,2305567963945518424753102147331756070"],
    ["poly-check", "--poly=-1,2,2,-6,-2,10,0,-10,2,6,-2,-2,1"],
    ["poly-check", "--poly=1,-1,-1,-1,1"],
    ["poly-check", "--poly=1,0,1,0,1,0,0,0,0,0,-1,0,-1,0,-2,0,-1,0,-1,0,0,0,0,0,1,0,1,0,1,0,1,"
     "0,1,0,1,0,0,0,0,0,-1,0,0,0,-1,0,0,0,-1,0,0,0,-1,0,0,0,-1,0,0,0,0,0,1,0,1,0,1,0,1,0,1,0,1,"
     "0,0,0,0,0,-1,0,-1,0,-2,0,-1,0,-1,0,0,0,0,0,1,0,1,0,1"],
    ["mahler", "--poly=578,-1819,936,1160,-1114,996,-62,1"],
    ["mahler", "--poly=0,0,0,-1,-1,1"],
    ["mahler", "--poly=-6,11,-6,1"],
    ["mahler", "--poly=1,0,-2,0,1"],
    ["mahler", "--poly=-2,40,-200,0,0,0,0,0,0,0,1"],
    ["mahler", "--poly=9007199254740993,0,1"],
    ["mahler", f"--poly={10**400},0,1"],
    ["mahler", "--poly=-1,-1,1", "--tol", "1e-300"],
    ["mahler", "--poly=-4,2,6,-3,-2,1"],
    ["mahler", "--poly=-2,-1,5,7,6"],
    ["mahler", "--poly=-4,6,2,-5,0,1"],
    ["mahler", "--poly=2,-1,-5,3"],
    ["mahler", "--poly=-2,-8,-8,1,4,4"],
    ["perron", "--poly=0,1"],
    ["perron", "--poly=2,1"],
    ["padding", "--poly=1,1"],
    ["padding", "--poly=0,1"],
    ["padding", "--poly=2,1"],
    ["primitivity", "--matrix",
     "[[0,1,0,0,0,0],[0,0,1,0,0,0],[0,0,0,1,0,0],[0,0,0,0,1,0],[0,0,0,0,0,1],[1,1,0,0,0,0]]"],
    ["primitivity", "--matrix", "[[1,1],[0,1]]"],
    ["primitivity", "--matrix", "[[0]]"],
    ["primitivity", "--matrix", "[[1]]"],
    ["padding", "--poly=-3,-3,-2,1,0,1"],
    ["padding", "--poly=t^3+t^2-22t-40", "--max-mult", "1", "--search-bound", "6"],
    ["--help"],
    [],
    ["no-such-command", "--poly", "1,1"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["mahler", "--tol", "1e-8"],
    ["mahler", "--poly", "1,1", "--bogus"],
    ["fg-iterate", "--endo", "a -> a b; b -> a", "--it", "3"],
    ["hankel", "--seq", "1,1,2,3", "--k", "two"],
]


def job_argvs(seeds):
    """The argv of every job of the three workloads, from the job list
    tools/job_ab.py times, and of the CONTRACT list, each with --json-only."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import job_ab

    sys.path.insert(0, job_ab.PERFBENCH)
    rounds = [argv for w in WORKLOADS for _, argv in job_ab.family_jobs(w, None, seeds)]
    return rounds + [argv + ["--json-only"] for argv in CONTRACT]


def run_side(src, argvs):
    """[exit code, stdout, stderr] of every argv, from one subprocess on src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker"],
        input=json.dumps(argvs), capture_output=True, text=True, env=env,
    )
    if proc.returncode:
        raise SystemExit(f"{src}: the worker exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout)


def worker():
    """Read argvs as JSON on stdin; write [code, stdout, stderr] as JSON."""
    from lehmerlab import cli

    src = os.path.realpath(os.environ["PYTHONPATH"])
    if os.path.dirname(os.path.dirname(os.path.realpath(cli.__file__))) != src:
        raise SystemExit(f"lehmerlab was imported from {cli.__file__}, not from {src}")
    out = []
    for argv in json.load(sys.stdin):
        buf, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # a traceback is a difference to report
            code = f"traceback {type(exc).__name__}: {exc}"
        out.append([code, buf.getvalue(), err.getvalue()])
    json.dump(out, sys.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--seeds", type=int, nargs="+", default=[3, 11, 12])
    args = p.parse_args(argv)
    given = job_argvs(args.seeds)
    argvs = given + [[t for t in a if t != "--json-only"] for a in given]
    old = run_side(args.old_src, argvs)
    new = run_side(args.new_src, argvs)
    print(f"{len(given)} jobs, {len(argvs)} runs")
    differ = [a for a, x, y in zip(argvs, old, new) if x != y]
    for a in differ:
        print("differs:", json.dumps(a))
    print(f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--worker"]:
        worker()
    else:
        sys.exit(main())
