"""Seeded job lists for the benchmark workloads.

A workload is a sequence of rounds.  Every round holds the same strata
(job kind x size bucket x input family) with fresh random inputs, shuffled
so that size buckets interleave.  Round r of a workload depends only on the
seed, the workload name and r.

The program under test only ever sees Job.argv.  Job.expect carries what
the oracles need (the factors a polynomial was built from, the recurrence
that generated a sequence, a known dilatation) and is never passed to it.
"""

import json
import math
import random
from dataclasses import dataclass, field

from arith import cyclotomic, euler_phi, is_palindrome, pmul, provably_squarefree, row_sums_of_powers

LEHMER = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
POLY_FAMILIES = ("random", "repeated", "cyclotomic", "reciprocal")

# Acceptance braids with their known dilatations (largest root of the
# Burau/train-track polynomial of each pseudo-Anosov braid).  Ten iterates
# keep the 3- and 4-strand words short.  The 5-strand braid runs with the
# CLI's defaults (12 iterates, Aitken step on): on its twisted variant, and
# on some conjugates, that estimate lands 3-7% off, a known defect of the
# default path that the entropy oracle reports as "inaccurate".
DEFAULT_ITERS = 12
ENTROPY_BRAIDS = (
    ((1, -2), 3, 2.618033988749895, ("--iters", "10")),
    ((3, 2, -1), 4, 2.296630262886992, ("--iters", "10")),
    ((1, 2, 3, 4, 1, 2), 5, 1.722083805739043, ()),
)

LONG_WORD = 1 << 16


@dataclass(frozen=True)
class Job:
    kind: str
    args: tuple
    bucket: str
    props: tuple = ()
    expect: dict = field(default_factory=dict, compare=False)

    @property
    def argv(self):
        return [self.kind, *self.args, "--json-only"]


# ---------------------------------------------------------------------------
# Polynomial inputs


def _coeff_arg(flag, coeffs):
    return f"--{flag}=" + ",".join(str(c) for c in coeffs)


def _random_monic(rng, d):
    """Squarefree monic of degree d with |f(0)| >= 2, so M(f) >= 2."""
    while True:
        c = [rng.randint(-3, 3) for _ in range(d)] + [1]
        c[0] = rng.choice((-3, -2, 2, 3))
        if provably_squarefree(c):
            return c


def _random_palindrome(rng, d):
    while True:
        half = [rng.randint(-2, 2) for _ in range(d // 2 + 1)]
        half[0] = 1
        c = half + half[-2::-1] if d % 2 == 0 else half + half[::-1]
        if provably_squarefree(c):
            return c


def _cyclotomic_index(rng, d):
    """An index e >= 3 whose cyclotomic polynomial has degree <= d / 2."""
    choices = [e for e in range(3, 4 * d) if euler_phi(e) <= d // 2]
    return rng.choice(choices)


def poly_input(rng, family, d):
    """(coeffs, factors, props): a monic polynomial of degree d and the
    (factor, multiplicity) pairs it was built from."""
    if family == "random":
        f = _random_monic(rng, d)
        factors = [(f, 1)]
    elif family == "repeated":
        k = max(2, d // 8)
        g = _random_monic(rng, k)
        h = _random_monic(rng, d - 2 * k)
        f = pmul(pmul(g, g), h)
        factors = [(g, 2), (h, 1)]
    elif family == "cyclotomic":
        while True:
            phi = cyclotomic(_cyclotomic_index(rng, d))
            h = _random_monic(rng, d - len(phi) + 1)
            f = pmul(phi, h)
            if provably_squarefree(f):
                break
        factors = [(phi, 1), (h, 1)]
    elif family == "reciprocal":
        if d == 10:
            f, factors = list(LEHMER), [(LEHMER, 1)]
        elif d < 12:
            f = _random_palindrome(rng, d)
            factors = [(f, 1)]
        else:
            while True:
                h = _random_palindrome(rng, d - 10)
                f = pmul(LEHMER, h)
                if provably_squarefree(f):
                    break
            factors = [(LEHMER, 1), (h, 1)]
    else:
        raise ValueError(family)
    props = [family]
    if provably_squarefree(f):
        props.append("squarefree")
    if is_palindrome(f):
        props.append("reciprocal")
    if family == "cyclotomic" or sum(f) == 0 or sum(c * (-1) ** i for i, c in enumerate(f)) == 0:
        props.append("cyclotomic-factor")
    return f, factors, tuple(props)


def degree_bucket(d):
    # Edges put the ROADMAP baseline degrees 10, 40, 80 and 160 in
    # different buckets.
    if d <= 16:
        return "deg<=16"
    if d <= 48:
        return "deg17-48"
    if d <= 96:
        return "deg49-96"
    return "deg>96"


def _poly_job(kind, rng, family, d):
    f, factors, props = poly_input(rng, family, d)
    expect = {"coeffs": f, "factors": factors, "reducible": len(factors) > 1 or factors[0][1] > 1}
    return Job(kind, (_coeff_arg("poly", f),), degree_bucket(d), props, expect)


# ---------------------------------------------------------------------------
# Sequence and matrix inputs


def _recurrence_seq(rng, length):
    # The recurrence degree grows with the length instead of being drawn,
    # which keeps the cost of a length stratum steady across seeds.
    d = 2 + length // 24
    while True:
        char = [rng.randint(-3, 3) for _ in range(d)] + [1]
        if char[0]:
            break
    terms = [rng.randint(-5, 5) for _ in range(d)]
    while len(terms) < length:
        terms.append(-sum(char[i] * terms[len(terms) - d + i] for i in range(d)))
    return terms, char


def _seq_job(kind, rng, length, has_recurrence):
    if has_recurrence:
        terms, char = _recurrence_seq(rng, length)
    else:
        terms, char = [rng.randint(-50, 50) for _ in range(length)], None
    bucket = "len<=48" if length <= 48 else "len49-96"
    props = ("recurrence",) if has_recurrence else ("no-recurrence",)
    return Job(kind, (_coeff_arg("seq", terms),), bucket, props, {"terms": terms, "char": char})


def _lefschetz_job(rng, m):
    a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
    boundary = rng.random() < 0.5
    args = ("--matrix", json.dumps(a), "--iters", "24") + (("--boundary",) if boundary else ())
    return Job("lefschetz", args, f"dim{m}", (), {"matrix": a, "boundary": boundary, "iters": 24})


def spectra_round(rng):
    # Small inputs are over half the round, so that the median job falls
    # among them and not on the steep part of the latency curve.
    jobs = [_poly_job("mahler", rng, fam, d) for d in (6, 8, 12, 16, 24, 32) for fam in POLY_FAMILIES]
    # The degree tail uses fixed families: a repeated factor at degree 64
    # costs several times a squarefree input, which would make the round
    # time depend on the draw.  These steady jobs are also the top tenth
    # of a round, where job_tail_ms reads its percentile.
    heavy = ((48, "random"), (48, "cyclotomic"), (48, "reciprocal"), (64, "random"), (64, "cyclotomic"))
    for d, fam in ((10, "reciprocal"),) + heavy:
        jobs.append(_poly_job("mahler", rng, fam, d))
    # At degree <= 16 an input with no mod-p witness among the 25 primes
    # (every reducible one, and about 1 in 5 random ones at degree 16) goes
    # to the Kronecker search, which often runs past the job cap; the
    # baseline workload measures that case instead (see README.md).
    for d, fam in ((20, "random"), (20, "repeated"), (22, "cyclotomic"), (22, "random"), (24, "reciprocal")):
        jobs.append(_poly_job("poly-check", rng, fam, d))
    perron = ((6, "random"), (8, "cyclotomic"), (10, "reciprocal"), (10, "random"), (12, "repeated"))
    for d, fam in perron + ((16, "cyclotomic"), (24, "reciprocal"), (32, "random")):
        jobs.append(_poly_job("perron", rng, fam, d))
    for length in (24, 24, 48, 72, 96):
        for kind in ("growth", "fit-recurrence"):
            jobs.append(_seq_job(kind, rng, length, True))
    for length in (24, 48):
        for kind in ("growth", "fit-recurrence"):
            jobs.append(_seq_job(kind, rng, length, False))
    jobs.append(_seq_job("growth", rng, 60, False))
    for m in (2, 3, 3, 4, 5, 6, 8):
        jobs.append(_lefschetz_job(rng, m))
    return jobs


# ---------------------------------------------------------------------------
# Braid inputs


def _is_n_cycle(n, letters):
    perm = list(range(n))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    j, steps = perm[0], 1
    while j != 0:
        j, steps = perm[j], steps + 1
    return steps == n


def knot_letters(rng, n, length):
    """Random braid word whose closure is a knot (its permutation is an
    n-cycle); the length is adjusted by one to the parity an n-cycle needs."""
    length += (length - n + 1) % 2
    while True:
        w = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]
        if _is_n_cycle(n, w):
            return w


def braid_text(letters, twist=0):
    parts = [f"s{x}" if x > 0 else f"s{-x}^-1" for x in letters]
    if twist:
        parts.append(f"T^{twist}")
    return " ".join(parts)


def braid_bucket(n, length):
    # Edges separate the ROADMAP Burau rows: n=5 at length 800, n=12 at
    # length 100 and n=12 at length 400.
    nb = "n3-5" if n <= 5 else ("n6-9" if n <= 9 else "n10-12")
    lb = "len<=100" if length <= 100 else ("len101-400" if length <= 400 else "len>400")
    return f"{nb}.{lb}"


def _braid_props(n, length, twist):
    return (f"n={n}", braid_bucket(n, length).split(".")[1]) + (("twist",) if twist else ())


def _braid_job(kind, n, letters, twist=0, extra=(), expect=None):
    length = len(letters) + (n * (n - 1) * abs(twist))
    expect = dict(expect or {}, n=n, letters=letters, twist=twist)
    return Job(
        kind,
        ("--braid", braid_text(letters, twist), "--n", str(n), *extra),
        braid_bucket(n, length),
        _braid_props(n, length, twist),
        expect,
    )


ALEXANDER_CELLS = (
    (3, 200, 0), (4, 150, 0), (5, 100, 0), (6, 60, 0), (7, 40, 0),
    (8, 30, 0), (9, 24, 0), (10, 20, 0), (11, 14, 0), (12, 12, 0),
    (3, 100, 1), (4, 60, -1), (5, 40, 1), (6, 24, 1), (7, 16, -1),
)
# Half of a braids round: the median job falls near the slowest of these.
GAP_CELLS = tuple((n, length) for n in (3, 4, 5) for length in range(n + 3, n + 19, 2))


def _entropy_job(rng, base, n, dilatation, flags, conjugate, twist):
    letters = list(base)
    if conjugate:
        # One conjugating letter: a second one can multiply the cost by 6.
        g = rng.choice((1, -1)) * rng.randint(1, n - 1)
        letters = [g] + letters + [-g]
    iters = int(flags[1]) if flags else DEFAULT_ITERS
    # Word lengths grow like dilatation^n; the property is that estimate.
    props = ("cancelling", "word>=2^16" if dilatation**iters >= LONG_WORD else "word<2^16")
    job = _braid_job("entropy", n, letters, twist, flags, {"dilatation": dilatation})
    return Job(job.kind, job.args, job.bucket, job.props + props, job.expect)


def braids_round(rng):
    jobs = [_braid_job("alexander", n, knot_letters(rng, n, length), twist) for n, length, twist in ALEXANDER_CELLS]
    jobs += [_braid_job("lehmer-gap", n, knot_letters(rng, n, length)) for n, length in GAP_CELLS]
    for base, n, dil, flags in ENTROPY_BRAIDS:
        for conjugate, twist in ((False, 0), (True, 0), (False, rng.choice((1, -1)))):
            jobs.append(_entropy_job(rng, base, n, dil, flags, conjugate, twist))
    return jobs


# ---------------------------------------------------------------------------
# Free-group inputs


WORD_TARGETS = (1 << 10, 1 << 14, 1 << 17, 1 << 20)
NAMED_ENDOS = {
    "fibonacci": [[1, 1], [1, 0]],
    "tribonacci": [[1, 1, 0], [1, 0, 1], [1, 0, 0]],
    "tetranacci": [[1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0]],
}
# A dense rank-4 map, every row summing to 9.  Its fg-growth job fails at
# the seed with the BudgetError that random rank-4 maps hit, but it builds
# more on the way there than a random map does (87 MB against 43-65 MB in
# a fresh process), so the run's peak RSS is set by this fixed input rather
# than by the largest random draw.
DENSE_ENDO = [[3, 2, 1, 3], [3, 3, 2, 1], [1, 3, 3, 2], [2, 1, 3, 3]]


def _random_matrix(rng, m, min_row=2):
    while True:
        a = [[rng.randint(0, 3) for _ in range(m)] for _ in range(m)]
        if all(sum(row) >= min_row for row in a):
            return a


def occurrence_endo_text(a):
    """g_i -> g_1^a[i][1] ... g_m^a[i][m]; for the named maps, the letters of
    each image in order (a -> a b; b -> a c; ...)."""
    names = "abcdefghijklmnopqrstuvwxyz"
    rules = []
    for i, row in enumerate(a):
        word = " ".join(names[j] + (f"^{e}" if e > 1 else "") for j, e in enumerate(row) if e)
        rules.append(f"{names[i]} -> {word}")
    return "; ".join(rules)


def iterations_to_reach(a, target, cap=40):
    """Smallest n <= cap with max_i |phi^n(g_i)| >= target (occurrence law)."""
    sums = row_sums_of_powers(a, cap)
    for n, row in enumerate(sums, start=1):
        if max(row) >= target:
            return n
    return cap


def _endo_job(kind, family, a, iters):
    final = max(row_sums_of_powers(a, iters)[-1])
    props = ("positive", f"rank{len(a)}", family, "word>=2^16" if final >= LONG_WORD else "word<2^16")
    bucket = "word>=2^16" if final >= LONG_WORD else "word<2^16"
    args = ("--endo", occurrence_endo_text(a), "--iters", str(iters))
    return Job(kind, args, bucket, props, {"matrix": a, "iters": iters})


def _unimodular(rng, shears):
    a = [[1, 0], [0, 1]]
    for _ in range(shears):
        k = rng.randint(1, 3)
        shear = [[1, k], [0, 1]] if rng.random() < 0.5 else [[1, 0], [k, 1]]
        a = [[sum(a[i][l] * shear[l][j] for l in range(2)) for j in range(2)] for i in range(2)]
    return a


def endo_growth_round(rng):
    jobs = []
    for family, a in NAMED_ENDOS.items():
        for target in WORD_TARGETS:
            # Tetranacci reaches 2^20 letters only after about 10 s.
            if not (family == "tetranacci" and target > 1 << 17):
                jobs.append(_endo_job("fg-iterate", family, a, iterations_to_reach(a, target)))
    # Random maps stay short or go to 2^20 letters: between those, whether
    # they fail at the seed depends on the draw, which would make the set
    # of passing jobs, and so the latency quantiles, depend on it too.
    for target in (1 << 8, 1 << 8, 1 << 12, 1 << 12, 1 << 20, 1 << 20):
        a = _random_matrix(rng, rng.randint(2, 4))
        jobs.append(_endo_job("fg-iterate", "random", a, iterations_to_reach(a, target)))
    for family, a in NAMED_ENDOS.items():
        for iters in (12, 16):
            jobs.append(_endo_job("fg-growth", family, a, iters))
    # job_tail_ms reads the 16th slowest passing job of a run (3 rounds of
    # about 51).  The 9 slowest are the named maps at 2^17 letters, and the
    # next stratum is fg-growth on Tetranacci at 16 iterates.  Three more
    # such jobs per round make that stratum the 10th to 21st slowest, so
    # the tail falls in its middle, not on the edge between it and the next
    # one, where the number of random maps that pass would decide the value.
    for _ in range(3):
        jobs.append(_endo_job("fg-growth", "tetranacci", NAMED_ENDOS["tetranacci"], 16))
    for m in (2, 3):
        jobs.append(_endo_job("fg-growth", "random", _random_matrix(rng, m), 12))
    jobs.append(_endo_job("fg-growth", "dense", DENSE_ENDO, 12))
    # These and the f2-positive-aut jobs below are millisecond jobs, about
    # half of a round, so the median falls among them.
    for m in (2, 2, 2, 3, 3, 3, 4, 4, 4, 4):
        a = _random_matrix(rng, m, min_row=1)
        jobs.append(Job("fg-from-matrix", ("--matrix", json.dumps(a)), f"rank{m}", ("positive",), {"matrix": a}))
    # The cost of these grows steeply with the number of shears.  Sixteen
    # products of four shears form a stratum of nearly equal cost that
    # holds the median job of a run, with room on either side; one product
    # each of two, six and eight shears covers the rest of the range.
    for shears in (4,) * 16 + (2, 6, 8):
        a = _unimodular(rng, shears)
        jobs.append(Job("f2-positive-aut", ("--matrix", json.dumps(a)), "rank2", ("positive",), {"matrix": a}))
    return jobs


def baseline_round(rng):
    """The ROADMAP baseline rows, one job each; rows past the job cap are
    reported as skipped by report.py."""
    jobs = [_poly_job("mahler", rng, "random", d) for d in (10, 40, 80, 160)]
    # A knot on 12 strands has odd length, so 99 and 399 stand for the
    # ROADMAP's 100 and 400 and stay inside their length buckets.
    jobs += [_braid_job("alexander", n, knot_letters(rng, n, length)) for n, length in ((5, 800), (12, 99), (12, 399))]
    jobs += [_poly_job("poly-check", rng, fam, 16) for fam in ("repeated", "cyclotomic", "reciprocal")]
    return jobs


# Round builders with the scaled seconds one round takes at the seed.  A
# run of S seconds is floor(S / that) rounds, so the job list depends only
# on the workload, the seed and S, and a faster program runs the same jobs.
ROUNDS = {
    "spectra": (spectra_round, 7.0),
    "braids": (braids_round, 4.9),
    "endo_growth": (endo_growth_round, 6.0),
    "baseline": (baseline_round, math.inf),
}


def rounds_for(workload, seconds):
    return max(1, int(seconds // ROUNDS[workload][1]))


def make_round(workload, seed, index):
    """Round `index` of a workload: same strata every round, shuffled."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = ROUNDS[workload][0](rng)
    rng.shuffle(jobs)
    return jobs


def property_shares(jobs):
    """Share of jobs carrying each input property."""
    counts = {}
    for job in jobs:
        for p in set(job.props):
            counts[p] = counts.get(p, 0) + 1
    return {p: round(c / len(jobs), 4) for p, c in sorted(counts.items())}
