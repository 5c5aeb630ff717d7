"""Time two source trees on the same benchmark jobs, in one process.

    python3 tools/job_ab.py OLD_SRC NEW_SRC --workload W [--kinds K[,K...]]
                            [--seeds 3 11 12] [--passes 7] [--cold]

OLD_SRC and NEW_SRC are directories that hold a ``lehmerlab`` package, such
as ``src`` of two checkouts.  Both packages are loaded into this process
and swapped in and out of ``sys.modules``, so lazy imports resolve to the
side that runs.  The jobs are rounds 0-2 of each seed of workload W whose
kind is in K, or of every kind when --kinds is not given, taken from
perfbench/jobs.py (read, never changed).  Every pass runs each job through
``cli.main`` once per side, the first side alternating from pass to pass.
The first pass also pays for imports and first calls, so at least two
passes are needed.  With --cold the benchmark's reference loop
(``reference_loop`` of perfbench/run.py, read, never changed) runs before
every timed job, outside its span, as in the benchmark: it evicts the
caches, so each job pays its numpy, LAPACK and argparse paths cold.  Warm
passes understate a change to those costs.

For each family (job kind and first job property) prints the job count,
the mean over its jobs of each side's fastest pass in ms, and the change
in percent.  Outputs are not compared: tools/cli_diff.py does that.
"""

import argparse
import contextlib
import importlib
import io
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _ours(name):
    return name == "lehmerlab" or name.startswith("lehmerlab.")


class Side:
    """One tree's lehmerlab modules; ``with side:`` puts them in sys.modules."""

    def __init__(self, src):
        self.src, self.modules = os.path.realpath(src), {}
        with self:
            sys.path.insert(0, self.src)
            try:
                self.cli = importlib.import_module("lehmerlab.cli")
            finally:
                sys.path.remove(self.src)
        if not os.path.realpath(self.cli.__file__).startswith(self.src + os.sep):
            raise SystemExit(f"lehmerlab was imported from {self.cli.__file__}, not from {self.src}")

    def __enter__(self):
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(self.modules)

    def __exit__(self, *exc):
        self.modules = {n: m for n, m in sys.modules.items() if _ours(n)}
        for name in self.modules:
            del sys.modules[name]

    def time(self, argv, before=None):
        """Seconds of one cli.main(argv), its stdout discarded; before(),
        if given, runs first, untimed."""
        with self, contextlib.redirect_stdout(io.StringIO()):
            if before is not None:
                before()
            start = time.perf_counter()
            try:
                self.cli.main(argv)
            except SystemExit:
                pass
            return time.perf_counter() - start


def family_jobs(workload, kinds, seeds):
    """[(family, argv)] of the workload's jobs whose kind is in kinds, or
    of all its jobs when kinds is None."""
    import jobs

    return [
        ((job.kind, job.props[0] if job.props else ""), job.argv)
        for seed in seeds
        for index in range(3)
        for job in jobs.make_round(workload, seed, index)
        if kinds is None or job.kind in kinds
    ]


def main(argv=None):
    sys.path.insert(0, PERFBENCH)
    import jobs

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--workload", required=True, choices=sorted(jobs.ROUNDS))
    p.add_argument("--kinds", help="comma-separated job kinds (default: every kind)")
    p.add_argument("--seeds", type=int, nargs="+", default=[3, 11, 12])
    p.add_argument("--passes", type=int, default=7)
    p.add_argument("--cold", action="store_true", help="run the benchmark's reference loop before every job")
    args = p.parse_args(argv)
    if args.passes < 2:
        p.error("--passes must be at least 2")
    kinds = None if args.kinds is None else set(args.kinds.split(","))
    found = family_jobs(args.workload, kinds, args.seeds)
    if not found:
        p.error(f"no {args.kinds} jobs in workload {args.workload}")
    families, argvs = zip(*found)
    sides = (Side(args.old_src), Side(args.new_src))
    before = None
    if args.cold:
        from run import reference_loop as before
    best = [[math.inf, math.inf] for _ in argvs]
    for k in range(args.passes):
        for j, a in enumerate(argvs):
            for i in (0, 1) if k % 2 == 0 else (1, 0):
                best[j][i] = min(best[j][i], sides[i].time(a, before))
    print(f"{'family':<28} {'jobs':>4} {'old_ms':>9} {'new_ms':>9} {'change':>8}")
    for family in sorted(set(families)):
        rows = [b for f, b in zip(families, best) if f == family]
        old, new = (sum(r[i] for r in rows) / len(rows) * 1e3 for i in (0, 1))
        print(f"{' '.join(family).strip():<28} {len(rows):>4} {old:>9.3f} {new:>9.3f} {100 * (new / old - 1):>+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
