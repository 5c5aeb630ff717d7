"""Benchmark for lehmerlab: seeded CLI job mixes checked by independent oracles.

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The package is imported from ./src via
PYTHONPATH, with OpenBLAS and OpenMP pinned to one thread; the script
re-executes itself once to put those variables in place before numpy loads.

One process runs one workload as a closed loop: jobs go through
lehmerlab.cli.main(argv) in-process, back to back, with no threads.  A run
is as many rounds of the workload (see jobs.py) as take --seconds at the
seed, at least one.
Each job's JSON is parsed and checked by oracles.py outside its timed span.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it is a JSON report with the environment, the failures,
the input-property shares and, with --trace 1, the per-bucket breakdown.
See README.md for the metrics.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

JOB_CAP_S = 20.0
# Reference-loop time that defines a host speed factor of 1 (about the
# median on a 2.1 GHz core of the machine the bounds were set on).
REF_NOMINAL_S = 0.008
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
SETUP_SAMPLES = 15
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import lehmerlab.cli as c; "
    "c.build_parser(); print(repr(time.perf_counter() - t))"
)
# The third-party imports lehmerlab.cli pulls in, without lehmerlab: each
# cold start above is paired with one of these.  Its time on a fast spell
# of a 2.1 GHz core of the machine the bounds were set on is the unit the
# pair's ratio is expressed in.
SETUP_REF_SNIPPET = (
    "import time; t = time.perf_counter(); import numpy, mpmath; "
    "print(repr(time.perf_counter() - t))"
)
SETUP_REF_NOMINAL_S = 0.075


def pinned_env():
    env = dict(os.environ, **PINNED)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + rest if rest else "")
    return env


def is_pinned():
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    return path[0] == SRC and all(os.environ.get(k) == v for k, v in PINNED.items())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment and set-up cost


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "commit": _git_commit(),
        "pinned": {k: os.environ.get(k) for k in PINNED},
        "pythonpath": "src",
    }


def reference_loop():
    """Seconds taken by a fixed computation that mixes the three kinds of
    work the package does, in about equal shares: small rationals and dict
    updates, big integers, and 40-digit mpmath arithmetic.  Nothing in it
    depends on lehmerlab, so its time tracks only the host's speed."""
    import mpmath

    start = time.perf_counter()
    acc, counts = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i, i + 7)
    for i in range(4000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    a, b = 3**4000 + 12345, 7**3000 + 999
    for i in range(15):
        a, b = b, (a * b + i) % (1 << 9000)
    for i in range(1, 80):
        acc += Fraction(3 ** (i % 40), i * i + 1)
    with mpmath.workdps(40):
        z, w = mpmath.mpc(0.3, 0.4), mpmath.mpc(0)
        for i in range(400):
            w = w * z + i
    return time.perf_counter() - start


def measure_setup(samples=SETUP_SAMPLES):
    """Import lehmerlab.cli plus build_parser() in fresh interpreters.

    One discarded pair first writes the bytecode caches, as an installed
    package would have them.  Each start is followed by a reference start
    that imports numpy and mpmath alone, so a slow spell of the host slows
    both.  Returns the median ratio of the pairs times SETUP_REF_NOMINAL_S,
    and the raw start times."""
    env = pinned_env()

    def cold(snippet):
        cmd = [sys.executable, "-c", snippet]
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        return float(out.stdout)

    times, ratios = [], []
    for i in range(samples + 1):
        t, ref = cold(SETUP_SNIPPET), cold(SETUP_REF_SNIPPET)
        if i:
            times.append(t)
            ratios.append(t / ref)
    return statistics.median(ratios) * SETUP_REF_NOMINAL_S, times


# ---------------------------------------------------------------------------
# Jobs


class JobTimeout(BaseException):
    """Raised inside a job that runs past JOB_CAP_S."""


class Runner:
    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self._in_job = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._in_job:
            raise JobTimeout()

    def run(self, job):
        """(exit code or failure tag, stdout text, seconds)."""
        if self.tracer is not None:
            self.tracer.bucket = job.bucket
        buf = io.StringIO()
        self._in_job = True
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(job.argv)
        except JobTimeout:
            code = "timeout"
        except SystemExit as exc:
            code = f"exit {exc.code}"
        except Exception as exc:  # a traceback is a failure to record, not a crash
            code = f"traceback {type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - start
            self._in_job = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return code, buf.getvalue(), elapsed


def judge(oracles, job, code, text):
    """None when the job passed, else (failure class, reason)."""
    if code == "timeout":
        return "timeout", f"over the {JOB_CAP_S:g} s per-job cap"
    if not isinstance(code, int):
        return "undocumented", code
    try:
        payload = json.loads(text)
    except ValueError:
        return "undocumented", f"exit {code} without a JSON document"
    return oracles.verdict(job, code, payload)


def run_workload(workload, seed, seconds, runner):
    """Run the workload's rounds; returns (records, speed factors), a
    record being (job, wall seconds, scaled seconds, failure).

    The reference loop runs before every job, outside its span.  A round's
    speed factor is the median reference time over REF_NOMINAL_S, and the
    round's job times are divided by it."""
    import jobs
    import oracles

    records, factors = [], []
    for index in range(jobs.rounds_for(workload, seconds)):
        refs, done = [], []
        for job in jobs.make_round(workload, seed, index):
            refs.append(reference_loop())
            code, text, elapsed = runner.run(job)
            done.append((job, elapsed, judge(oracles, job, code, text)))
        factor = statistics.median(refs) / REF_NOMINAL_S
        factors.append(factor)
        records += [(job, t, t / factor, fail) for job, t, fail in done]
    return records, factors


def tail_latency(latencies):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_BEYOND samples above its nearest-rank position."""
    lat = sorted(latencies)
    n = len(lat)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_BEYOND:
            return p, lat[rank - 1]
    return 100.0, lat[-1]


# ---------------------------------------------------------------------------


def main():
    args = parse_args(sys.argv[1:])
    if not os.path.isfile(os.path.join(SRC, "lehmerlab", "cli.py")):
        print(f"error: no lehmerlab sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if not is_pinned():
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], pinned_env())

    import jobs
    import tracer as tracing

    if args.workload not in jobs.ROUNDS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(jobs.ROUNDS)}", file=sys.stderr)
        return 2

    setup_s, setup_samples = measure_setup()
    from lehmerlab import cli

    tr = tracing.Tracer().install() if args.trace else None
    try:
        records, factors = run_workload(args.workload, args.seed, args.seconds, Runner(cli, tr))
    finally:
        if tr is not None:
            tr.uninstall()

    ok = [scaled for _, _, scaled, fail in records if fail is None]
    ok_raw = [t for _, t, _, fail in records if fail is None]
    failures = [(job, fail) for job, _, _, fail in records if fail is not None]
    attempted = len(records)
    correct = not any(cls in ("wrong", "undocumented") for _, (cls, _) in failures)
    spent = sum(scaled for _, _, scaled, _ in records)
    goodput = len(ok) / spent
    tail_p, tail = tail_latency(ok) if ok else (None, float("nan"))

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(factors),
        "timed_scaled_s": round(spent, 4),
        "job_cap_s": JOB_CAP_S,
        "ok_jobs_per_s": goodput,
        "raw_ok_jobs_per_s": len(ok) / sum(t for _, t, _, _ in records),
        "raw_job_p50_ms": statistics.median(ok_raw) * 1000 if ok else None,
        "raw_job_tail_ms": tail_latency(ok_raw)[1] * 1000 if ok else None,
        "speed_factors": [round(f, 4) for f in factors],
        "fail_ratio": len(failures) / attempted,
        "job_tail_percentile": tail_p,
        "setup_samples_s": [round(t, 4) for t in setup_samples],
        "failures_by_class": dict(Counter(cls for _, (cls, _) in failures)),
        "failures_by_kind": dict(Counter(job.kind for job, _ in failures)),
        "failure_examples": [
            {"kind": job.kind, "bucket": job.bucket, "class": cls, "reason": reason}
            for job, (cls, reason) in failures[:5]
        ],
        "input_shares": jobs.property_shares([job for job, _, _, _ in records]),
        "env": environment(),
    }
    if tr is not None:
        report["per_bucket"] = tr.bucket_breakdown()
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in tr.metrics().items()}
    else:
        metrics = {
            "ok_jobs_per_s": {"value": goodput, "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(ok) * 1000 if ok else float("nan"), "unit": "ms"},
            "job_tail_ms": {"value": tail * 1000, "unit": "ms"},
            "ok_ratio": {"value": len(ok) / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
