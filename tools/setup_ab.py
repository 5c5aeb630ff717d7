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

With --modules the starts run under ``-X importtime`` (which slows them a
little) and a second table follows: per tree, the median self time in µs
of each module the snippet imported, the largest first, then their sum
and the rest of the start (``build_parser()`` and the snippet's own
work), so the start-up split of the two trees is read off one run.
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


def start_modules(snippet, env):
    """start() under -X importtime: (seconds, {module: self µs} of the
    modules imported after the interpreter's own start, from a marker line
    written to stderr just before the snippet runs)."""
    code = "import sys; print(MARK, file=sys.stderr); ".replace("MARK", repr(MARK)) + snippet
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    lines = out.stderr.splitlines()
    selfs = {}
    for line in lines[lines.index(MARK) + 1:]:
        if line.startswith("import time:") and "|" in line:
            own, _, name = line[len("import time:"):].split("|")
            if own.strip().isdigit():
                selfs[name.strip()] = int(own)
    return float(out.stdout), selfs


MARK = "-- setup_ab: snippet starts"


def main(argv=None):
    sys.path.insert(0, PERFBENCH)
    import run

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--pairs", type=int, default=run.SETUP_SAMPLES)
    p.add_argument("--modules", action="store_true",
                   help="also print the median -X importtime self time of each module")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    envs = [dict(os.environ, **run.PINNED, PYTHONPATH=os.path.abspath(src))
            for src in (args.old_src, args.new_src)]
    samples, modules = [[], []], [[], []]
    for k in range(args.pairs + 1):
        for i in (0, 1) if k % 2 == 0 else (1, 0):
            if args.modules:
                t, selfs = start_modules(run.SETUP_SNIPPET, envs[i])
            else:
                t, selfs = start(run.SETUP_SNIPPET, envs[i]), {}
            ref = start(run.SETUP_REF_SNIPPET, envs[i])
            if k:
                samples[i].append((t, ref))
                modules[i].append(selfs)
    print(f"{'tree':<4} {'setup_s':>8} {'q1':>8} {'q3':>8} {'start_ms':>9} {'ref_ms':>7}")
    for name, pairs in zip(("old", "new"), samples):
        scaled = [t / ref * run.SETUP_REF_NOMINAL_S for t, ref in pairs]
        q1, _, q3 = statistics.quantiles(scaled, method="inclusive")
        raw, ref = (statistics.median(x) * 1e3 for x in zip(*pairs))
        print(f"{name:<4} {statistics.median(scaled):>8.4f} {q1:>8.4f} {q3:>8.4f} {raw:>9.1f} {ref:>7.1f}")
    if args.modules:
        print_modules(samples, modules)
    return 0


def print_modules(samples, modules):
    """Per tree, the median self µs of each module over the starts (0 in a
    start that did not import it), then the sum of those medians and the
    median start less it."""
    names = {name for starts in modules for selfs in starts for name in selfs}
    medians = [{name: statistics.median(selfs.get(name, 0) for selfs in starts) for name in names}
               for starts in modules]
    width = max(map(len, names | {"(rest of the start)"}))
    print()
    print(f"{'module':<{width}} {'old_us':>8} {'new_us':>8}")
    for name in sorted(names, key=lambda n: (-max(m[n] for m in medians), n)):
        print(f"{name:<{width}} {medians[0][name]:>8.0f} {medians[1][name]:>8.0f}")
    sums = [sum(m.values()) for m in medians]
    rests = [statistics.median(t for t, _ in pairs) * 1e6 - total
             for pairs, total in zip(samples, sums)]
    print(f"{'(imports)':<{width}} {sums[0]:>8.0f} {sums[1]:>8.0f}")
    print(f"{'(rest of the start)':<{width}} {rests[0]:>8.0f} {rests[1]:>8.0f}")


if __name__ == "__main__":
    sys.exit(main())
