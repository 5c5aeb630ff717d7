"""Independent checks of each job's JSON output.

Each check recomputes what it needs from the job's inputs with the helpers
in arith.py, numpy and mpmath, never with lehmerlab itself, and raises
Wrong with a reason when the output disagrees.  The checks run outside the
timed region of a job.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

from arith import (
    divides,
    is_palindrome,
    moebius,
    newton_sums,
    pdivmod,
    peval,
    pgcd,
    power_traces,
    provably_squarefree,
    row_sums_of_powers,
)

NAMES = "abcdefghijklmnopqrstuvwxyz"


class Wrong(Exception):
    """The output contradicts the oracle."""


class Inaccurate(Wrong):
    """An estimate outside the oracle's tolerance of a known value."""


def expect(cond, reason):
    if not cond:
        raise Wrong(reason)


# ---------------------------------------------------------------------------
# Polynomials


def _mp(x):
    x = Fraction(x)
    return mp.mpf(x.numerator) / x.denominator


def _polished_roots(c, dps):
    """Roots of a squarefree polynomial: numpy starting points,
    Newton-polished in mpmath, then checked against the first and last
    Vieta relations so that a root found twice cannot go unnoticed."""
    with mp.workdps(dps):
        c = [_mp(x) for x in c]
        dc = [i * x for i, x in enumerate(c)][1:]
        eps = mp.mpf(10) ** (-dps + 10)
        zs = []
        fc = [float(x) for x in c]
        fdc = [float(x) for x in dc]
        for z0 in np.roots(fc[::-1]):
            z0 = complex(z0)
            for _ in range(3):  # cheap double-precision steps first
                d = peval(fdc, z0)
                if d:
                    z0 -= peval(fc, z0) / d
            z = mp.mpc(z0)
            for _ in range(100):
                step = peval(c, z) / peval(dc, z)
                z -= step
                if abs(step) <= eps * max(1, abs(z)):
                    break
            zs.append(z)
        total = mp.fsum(zs) + c[-2] / c[-1]
        prod = mp.fprod(zs) - (-1) ** (len(c) - 1) * c[0] / c[-1]
        if abs(total) > eps * 10**4 or abs(prod) > eps * 10**4 * max(1, abs(c[0] / c[-1])):
            zs = mp.polyroots(c[::-1], maxsteps=400, extraprec=2 * dps)
        return zs


def mahler_reference(coeffs, dps=40):
    """M(f) of a polynomial over Q.  Unless a prime proves f squarefree,
    repeated factors are split off first: M(f) = M(f / g) * M(g) for
    g = gcd(f, f') over Q."""
    squarefree = all(Fraction(c).denominator == 1 for c in coeffs) and provably_squarefree([int(c) for c in coeffs])
    g = [1] if squarefree else pgcd(coeffs, [i * c for i, c in enumerate(coeffs)][1:])
    if len(g) > 1:
        return mahler_reference(pdivmod(coeffs, g)[0], dps) * mahler_reference(g, dps)
    with mp.workdps(dps):
        zs = _polished_roots(coeffs, dps) if len(coeffs) > 1 else []
        return abs(_mp(coeffs[-1])) * mp.fprod(max(mp.mpf(1), abs(z)) for z in zs)


def _check_echo(payload, coeffs):
    expect(payload["inputs"]["poly"]["coeffs"] == coeffs, "echoed polynomial differs from the input")


def check_mahler(job, payload):
    r = payload["result"]
    _check_echo(payload, job.expect["coeffs"])
    expect(r["lower"] <= r["mahler"] <= r["upper"], "value outside its own interval")
    ref = float(mp.fprod(mahler_reference(g) ** mult for g, mult in job.expect["factors"]))
    slack = 1e-12 * ref
    expect(r["lower"] - slack <= ref <= r["upper"] + slack, f"interval [{r['lower']}, {r['upper']}] misses M = {ref!r}")


def check_poly_check(job, payload):
    r = payload["result"]
    f = job.expect["coeffs"]
    _check_echo(payload, f)
    expect(r["degree"] == len(f) - 1, "wrong degree")
    expect(r["monic"] is (f[-1] == 1), "wrong monic flag")
    expect(r["reciprocal"] is is_palindrome(f), "wrong reciprocal flag")
    # Every input carries a factor with |g(0)| >= 2 or Lehmer's polynomial,
    # so it has a root off the unit circle.
    expect(r["cyclotomic_product"] is False, "claims a cyclotomic product")
    order = 0
    for i, c in enumerate(f):
        if c:
            order = math.gcd(order, i)
    expect(r["power_substitution_order"] == max(order, 1), "wrong power substitution order")
    irr = r["irreducibility"]
    if irr["status"] == "reducible":
        g = irr["factor"]["coeffs"]
        expect(0 < len(g) - 1 < len(f) - 1 and divides(g, f), "returned factor does not divide the input")
    elif irr["status"] == "irreducible":
        expect(not job.expect["reducible"], "a product was certified irreducible")
    else:
        expect(irr["status"] == "inconclusive", f"unknown status {irr['status']!r}")


def _net_traces(monic, n_terms):
    ps = newton_sums(monic, n_terms)
    return [sum(moebius(n // k) * ps[k - 1] for k in range(1, n + 1) if n % k == 0) for n in range(1, n_terms + 1)]


def check_perron(job, payload):
    r = payload["result"]
    f = job.expect["coeffs"]
    _check_echo(payload, f)
    nets = _net_traces(f, payload["inputs"]["n_net"])
    first_bad = next((i + 1 for i, v in enumerate(nets) if v < 0), None)
    expect(r["integer_coeffs"] is True, "integer_coeffs must hold")
    expect(r["first_negative_net"] == first_bad, f"first negative net trace is {first_bad}")
    expect(r["net_traces_ok_up_to_n"] == (len(nets) if first_bad is None else first_bad - 1), "wrong net trace prefix")
    mods = sorted(np.roots(f[::-1]), key=abs, reverse=True)
    top, gap = mods[0], abs(mods[0]) - abs(mods[1])
    if gap > 1e-6 * abs(top):
        real_positive = bool(abs(top.imag) < 1e-9 * abs(top) and top.real > 0)
        expect(r["dominant_real"] is real_positive, "wrong dominant-real verdict")
    elif gap < 1e-9 * abs(top):
        expect(r["dominant_real"] is False, "a tie was certified dominant")
    want = r["integer_coeffs"] and r["dominant_real"] and first_bad is None
    expect(r["perron_candidate"] is want, "perron_candidate disagrees with its parts")


# ---------------------------------------------------------------------------
# Sequences and matrices


def _fractions(values):
    return [Fraction(v) for v in values]


def _check_recurrence(rec, terms, gen_char):
    char = _fractions(rec["char"])
    d = len(char) - 1
    expect(char and char[-1] == 1 and rec["degree"] == d, "recurrence is not monic of its degree")
    expect(_fractions(rec["init"]) == terms[:d], "init terms differ from the sequence")
    for n in range(len(terms) - d):
        expect(sum(char[i] * terms[n + i] for i in range(d + 1)) == 0, f"recurrence fails at term {n + d + 1}")
    if gen_char is not None:
        expect(divides(char, gen_char), "fitted polynomial does not divide the generating one")


def _check_seq_echo(payload, terms):
    expect(_fractions(payload["inputs"]["seq"]) == terms, "echoed sequence differs from the input")


def check_growth(job, payload):
    terms, gen = _fractions(job.expect["terms"]), job.expect["char"]
    _check_seq_echo(payload, terms)
    rec = payload["result"]["min_poly"]
    if rec is None:
        expect(gen is None, "no recurrence found for a recurrence sequence")
    else:
        _check_recurrence(rec, terms, gen)


def check_fit_recurrence(job, payload):
    terms = _fractions(job.expect["terms"])
    _check_seq_echo(payload, terms)
    _check_recurrence(payload["result"], terms, job.expect["char"])


def _numpy_mahler(coeffs):
    return abs(coeffs[-1]) * float(np.prod([max(1.0, abs(z)) for z in np.roots(coeffs[::-1])]))


def check_lefschetz(job, payload):
    r = payload["result"]
    a, iters = job.expect["matrix"], job.expect["iters"]
    base = 1 if job.expect["boundary"] else 2
    traces = power_traces(a, iters)
    expect(r["lefschetz"] == [base - t for t in traces], "Lefschetz numbers differ from 2 - tr A^n")
    char = r["char"]["coeffs"]
    m = len(a)
    expect(len(char) == m + 1 and char[-1] == 1, "characteristic polynomial has the wrong shape")
    expect(newton_sums(char, m) == traces[:m], "characteristic polynomial contradicts tr A^k")
    ref = _numpy_mahler(char)
    expect(abs(r["mahler_char"] - ref) <= 1e-4 * ref, f"Mahler measure of char is {ref}")


# ---------------------------------------------------------------------------
# Braids


def _burau_blocks(n, letter, t):
    """Reduced Burau image of one generator as (first index, block)."""
    i, m = abs(letter), n - 1
    one, zero = Fraction(1), Fraction(0)
    if m == 1:
        at, block = 0, [[-t]]
    elif i == 1:
        at, block = 0, [[-t, zero], [one, one]]
    elif i == m:
        at, block = m - 2, [[one, t], [zero, -t]]
    else:
        at, block = i - 2, [[one, t, zero], [zero, -t, zero], [zero, one, one]]
    if letter < 0:
        block = _inverse(block)
    return at, block


def _inverse(block):
    k = len(block)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(block)]
    for c in range(k):
        p = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def _fraction_det(mat):
    mat = [list(row) for row in mat]
    k, det = len(mat), Fraction(1)
    for c in range(k):
        p = next((r for r in range(c, k) if mat[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            mat[c], mat[p] = mat[p], mat[c]
            det = -det
        det *= mat[c][c]
        for r in range(c + 1, k):
            q = mat[r][c] / mat[c][c]
            if q:
                mat[r] = [x - q * y for x, y in zip(mat[r], mat[c])]
    return det


def burau_det_at(n, letters, twist, t0):
    """det(B(t0) - I) from a left-to-right product of the generator images,
    with the full twist T spelled out as (s_{n-1} ... s_1)^n."""
    t = Fraction(t0)
    word = list(letters)
    step = list(range(n - 1, 0, -1)) if twist > 0 else list(range(-1, -n, -1))
    word += step * (n * abs(twist))
    m = n - 1
    out = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for x in word:
        at, block = _burau_blocks(n, x, t)
        k = len(block)
        for row in out:
            seg = row[at : at + k]
            row[at : at + k] = [sum(seg[a] * block[a][b] for a in range(k)) for b in range(k)]
    return _fraction_det([[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(out)])


def _laurent_at(obj, t0):
    return peval(obj["coeffs"], Fraction(t0)) * Fraction(t0) ** obj["min_deg"]


def _check_alexander_poly(alex):
    c = alex["coeffs"]
    expect(sum(c) in (1, -1), f"Delta(1) = {sum(c)}, not +-1")
    expect(is_palindrome(c), "Alexander polynomial is not symmetric up to a unit")


def _is_power_of(q, base):
    q = abs(q)
    if q == 0:
        return False
    while q.numerator % base == 0 and q.numerator > 1:
        q /= base
    while q.denominator % base == 0:
        q *= base
    return q == 1


def check_alexander(job, payload):
    r = payload["result"]
    e = job.expect
    _check_alexander_poly(r["alexander"])
    for t0 in (2, 3):
        want = burau_det_at(e["n"], e["letters"], e["twist"], t0)
        expect(_laurent_at(r["det"], t0) == want, f"det(B - I) at t = {t0} should be {want}")


def check_lehmer_gap(job, payload):
    r = payload["result"]
    e = job.expect
    alex = r["alexander"]
    _check_alexander_poly(alex)
    for t0 in (2, 3):
        det = burau_det_at(e["n"], e["letters"], e["twist"], t0)
        want = _laurent_at(alex, t0) * sum(Fraction(t0) ** i for i in range(e["n"]))
        same = det == 0 if want == 0 else _is_power_of(det / want, t0)
        expect(same, f"Delta * (1 + ... + t^(n-1)) is not det(B - I) up to a unit at t = {t0}")
    ref = float(mahler_reference(alex["coeffs"]))
    expect(abs(r["gap"] - ref) <= 1e-9 * ref, f"gap should be M(Delta) = {ref!r}")


def check_entropy(job, payload):
    r = payload["result"]
    lam = job.expect["dilatation"]
    if abs(r["gr1"] - lam) > 0.02 * lam:
        raise Inaccurate(f"growth rate {r['gr1']} not within 2% of {lam}")
    expect(abs(r["log_gr1"] - math.log(r["gr1"])) <= 1e-12, "log_gr1 is not log(gr1)")


# ---------------------------------------------------------------------------
# Free groups


def _letter_counts(word, rank):
    counts = [0] * rank
    for tok in word.split():
        if tok == "1":
            continue
        name, _, exp = tok.partition("^")
        counts[NAMES.index(name)] += int(exp) if exp else 1
    return counts


def check_fg_iterate(job, payload):
    a, iters = job.expect["matrix"], job.expect["iters"]
    sums = row_sums_of_powers(a, iters)
    per = payload["result"]["per_generator"]
    expect(sorted(per) == list(NAMES[: len(a)]), "wrong generator set")
    for i, name in enumerate(NAMES[: len(a)]):
        expect(per[name] == [row[i] for row in sums], f"|phi^n({name})| differs from the row sums of A^n")


def charpoly_from_traces(a):
    """Monic det(tI - A) from tr A^k by Newton's identities."""
    m = len(a)
    p = power_traces(a, m)
    e = [Fraction(1)]
    for k in range(1, m + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * p[i - 1] for i in range(1, k + 1)) / k)
    return [int((-1) ** k * e[k]) for k in range(m, -1, -1)]


def check_fg_growth(job, payload):
    a, iters = job.expect["matrix"], job.expect["iters"]
    sums = row_sums_of_powers(a, iters)
    char = charpoly_from_traces(a)
    reports = payload["result"]["per_generator"]
    expect(len(reports) == len(a), "one report per generator expected")
    for i, rep in enumerate(reports):
        if rep["min_poly"] is not None:
            _check_recurrence(rep["min_poly"], [Fraction(row[i]) for row in sums], char)
    rho = max(abs(z) for z in np.linalg.eigvals(np.array(a, dtype=float)))
    top = payload["result"]["maxima"][1]
    expect(top is not None and abs(top - rho) <= 1e-6 * rho, f"largest GR^(1) should be the spectral radius {rho}")


def check_fg_from_matrix(job, payload):
    r = payload["result"]
    a = job.expect["matrix"]
    m = len(a)
    expect(r["abelianization"] == [list(col) for col in zip(*a)], "abelianization is not the transpose of the input")
    for i, img in enumerate(r["images"]):
        expect(_letter_counts(img, m) == a[i], f"image of {NAMES[i]} has the wrong letter counts")


def check_f2_positive_aut(job, payload):
    r = payload["result"]
    a = job.expect["matrix"]
    expect(r["abelianization"] == a and r["matches_input"] is True, "abelianization differs from the input")
    expect(r["positive_words"] is True and r["nielsen_basis"] is True, "images are not a positive basis")
    for j, img in enumerate(r["images"]):
        expect(all(not tok.partition("^")[2].startswith("-") for tok in img.split()), "negative exponent in an image")
        expect(_letter_counts(img, 2) == [a[0][j], a[1][j]], f"image {j + 1} has the wrong letter counts")


CHECKS = {
    "mahler": check_mahler,
    "poly-check": check_poly_check,
    "perron": check_perron,
    "growth": check_growth,
    "fit-recurrence": check_fit_recurrence,
    "lefschetz": check_lefschetz,
    "alexander": check_alexander,
    "lehmer-gap": check_lehmer_gap,
    "entropy": check_entropy,
    "fg-iterate": check_fg_iterate,
    "fg-growth": check_fg_growth,
    "fg-from-matrix": check_fg_from_matrix,
    "f2-positive-aut": check_f2_positive_aut,
}

# Error objects that are the right answer: a random sequence has no
# recurrence of the allowed degree, which the oracle cannot refute cheaply.
EXPECTED_ERRORS = {("fit-recurrence", "NoRecurrenceFound")}


def verdict(job, code, payload):
    """None when the output is right, else (failure class, reason)."""
    if code == 1 and isinstance(payload, dict) and "error" in payload:
        err = payload["error"]
        if (job.kind, err["type"]) in EXPECTED_ERRORS and job.expect.get("char") is None:
            return None
        return "error", f"{err['type']}: {err['message']}"
    if code != 0 or not isinstance(payload, dict) or "result" not in payload:
        return "undocumented", f"exit {code}"
    try:
        CHECKS[job.kind](job, payload)
    except Inaccurate as exc:
        return "inaccurate", str(exc)
    except Wrong as exc:
        return "wrong", str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "wrong", f"malformed output: {exc!r}"
    return None
