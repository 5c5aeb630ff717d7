"""Time the start-up of two source trees as the benchmark's setup_s does.

    python3 tools/setup_ab.py OLD_SRC NEW_SRC [--pairs 15]

OLD_SRC and NEW_SRC are directories that hold a ``lehmerlab`` package, such
as ``src`` of two checkouts.  A start is ``SETUP_SNIPPET`` of
perfbench/run.py (``import lehmerlab.cli`` plus ``build_parser()``) in a
fresh interpreter, followed by a reference start, ``SETUP_REF_SNIPPET``
(numpy and mpmath alone), so a slow spell of the host slows both; setup_s
is the median ratio of the pairs times ``SETUP_REF_NOMINAL_S``.  Those
three are read by importing perfbench/run.py, never changed.  One
discarded pair per tree first writes the bytecode caches, as in the
benchmark; under PYTHONDONTWRITEBYTECODE=1 none are written, and a tree
without them compiles its sources at every start.  Each of the --pairs
rounds runs one pair per tree, the first tree alternating from round to
round.

Prints, per tree, setup_s with the quartiles of the scaled ratios, and
the raw median start and reference times in ms.
"""

import argparse
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def start(snippet, env):
    """Seconds that one fresh interpreter reports for the snippet."""
    out = subprocess.run([sys.executable, "-c", snippet], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def main(argv=None):
    sys.path.insert(0, PERFBENCH)
    import run

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--pairs", type=int, default=run.SETUP_SAMPLES)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    envs = [dict(os.environ, **run.PINNED, PYTHONPATH=os.path.abspath(src))
            for src in (args.old_src, args.new_src)]
    samples = [[], []]
    for k in range(args.pairs + 1):
        for i in (0, 1) if k % 2 == 0 else (1, 0):
            t, ref = start(run.SETUP_SNIPPET, envs[i]), start(run.SETUP_REF_SNIPPET, envs[i])
            if k:
                samples[i].append((t, ref))
    print(f"{'tree':<4} {'setup_s':>8} {'q1':>8} {'q3':>8} {'start_ms':>9} {'ref_ms':>7}")
    for name, pairs in zip(("old", "new"), samples):
        scaled = [t / ref * run.SETUP_REF_NOMINAL_S for t, ref in pairs]
        q1, _, q3 = statistics.quantiles(scaled, method="inclusive")
        raw, ref = (statistics.median(x) * 1e3 for x in zip(*pairs))
        print(f"{name:<4} {statistics.median(scaled):>8.4f} {q1:>8.4f} {q3:>8.4f} {raw:>9.1f} {ref:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
