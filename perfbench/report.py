"""Tracing overhead per workload and the ROADMAP baseline rows, in one command.

    python3 perfbench/report.py --seed 1

For every workload in BENCHMARK.json it runs run.py untraced and traced,
with the same seed and the file's run_seconds, and prints ok_jobs_per_s for
both; the difference is the cost of the wrappers.  It then runs the baseline rows (mahler at degree 10, 40,
80 and 160; alexander at n=5 length 800, n=12 length 100 and n=12 length
400; poly-check on reducible degree-16 inputs) traced, one job each, and
prints each row's time with the self time of every traced function in its
size bucket.  A row that runs past the per-job cap is listed as skipped.
"""

import argparse
import json
import os
import subprocess
import sys

import run


def _run_bench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    report, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    return report, result


def overhead(seed):
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads, seconds = [w["name"] for w in spec["workloads"]], spec["run_seconds"]
    print(f"{'workload':12} {'untraced ok/s':>14} {'traced ok/s':>12} {'overhead':>9}")
    for workload in workloads:
        plain, _ = _run_bench(workload, seed, seconds, 0)
        traced, _ = _run_bench(workload, seed, seconds, 1)
        a, b = plain["ok_jobs_per_s"], traced["ok_jobs_per_s"]
        print(f"{workload:12} {a:14.4f} {b:12.4f} {(a - b) / a:9.1%}", flush=True)


def _size(job):
    if "coeffs" in job.expect:
        return f"degree {len(job.expect['coeffs']) - 1} ({job.props[0]})"
    return f"n={job.expect['n']} length {len(job.expect['letters'])}"


def baseline(seed):
    import jobs
    import oracles
    import tracer
    from lehmerlab import cli

    rows = sorted(jobs.make_round("baseline", seed, 0), key=lambda j: (j.kind, len(" ".join(j.argv))))
    with tracer.Tracer() as tr:
        runner = run.Runner(cli, tr)
        for job in rows:
            code, text, elapsed = runner.run(job)
            fail = run.judge(oracles, job, code, text)
            status = f"{elapsed:8.3f} s" if fail is None else f"skipped: {fail[1]}" if fail[0] == "timeout" else f"FAILED ({fail[0]}): {fail[1]}"
            print(f"{job.kind:11} {_size(job):32} {job.bucket:18} {status}", flush=True)
    print(json.dumps({"per_bucket": tr.bucket_breakdown()}, indent=1, sort_keys=True))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    if not run.is_pinned():
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], run.pinned_env())
    overhead(args.seed)
    baseline(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
