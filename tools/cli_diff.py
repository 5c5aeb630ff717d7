"""Compare the CLI of two source trees on the benchmark's jobs.

    python3 tools/cli_diff.py OLD_SRC NEW_SRC [--seeds 3 11 12]

OLD_SRC and NEW_SRC are directories that hold a ``lehmerlab`` package, such
as ``src`` of two checkouts.  The jobs are rounds 0-2 of each seed
of the spectra, braids and endo_growth workloads, the job list of
tools/job_ab.py (``family_jobs``, from perfbench/jobs.py, read, never
changed).  Each side runs every job through
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


def job_argvs(seeds):
    """The argv of every job of the three workloads, from the job list
    tools/job_ab.py times."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import job_ab

    sys.path.insert(0, job_ab.PERFBENCH)
    return [argv for w in WORKLOADS for _, argv in job_ab.family_jobs(w, None, seeds)]


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
