import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmerlab.polynomial import IntPoly, clear_denominators, poly_from_roots
from lehmerlab.sequence import (
    ExactSeq,
    NoRecurrenceFound,
    Periodicity,
    Recurrence,
    eventually_periodic,
    fit_min_poly,
    growth_rate,
    growth_rates_from_char,
    growth_report,
    growth_window,
    hankel_det,
    hankel_values,
    max_growth_exact,
    parse_recurrence,
    parse_seq,
    seq_from_recurrence,
    tail_equivalence,
)


def fib_seq(n):
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return ExactSeq.of(out[:n])


def tri_seq(n):
    # 2*3^k + 2^k - 2 for k = 1..n; minimal char poly (t-1)(t-2)(t-3)
    return ExactSeq.of([2 * 3**k + 2**k - 2 for k in range(1, n + 1)])


def naive_det(rows):
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = Fraction(1)
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def test_hankel_fibonacci_alternating():
    a = fib_seq(16)
    for n in range(1, 11):
        assert hankel_det(a, n, 2) == (-1) ** (n + 1)


def test_hankel_matches_cofactor_expansion():
    rng = random.Random(7)
    terms = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(14)]
    a = ExactSeq.of(terms)
    for n, k in [(1, 1), (2, 2), (3, 3), (1, 4), (4, 2)]:
        rows = [[a.get(n + i + j) for j in range(k)] for i in range(k)]
        assert hankel_det(a, n, k) == naive_det(rows)


def test_hankel_size_zero_is_one():
    assert hankel_det(fib_seq(4), 1, 0) == 1


def test_hankel_window_bounds():
    a = fib_seq(6)
    assert hankel_det(a, 4, 2) is not None  # n + 2k - 2 == 6, last admissible
    with pytest.raises(ValueError, match=r"window \(n=5, k=2\) exceeds 6 terms"):
        hankel_det(a, 5, 2)
    with pytest.raises(ValueError, match="start index n=0 must be at least 1"):
        hankel_det(a, 0, 2)
    with pytest.raises(ValueError, match="size k=-1 must be nonnegative"):
        hankel_det(a, 1, -1)
    with pytest.raises(ValueError, match="size k=-1 must be nonnegative"):
        hankel_values(a, -1)


def test_hankel_values_enumeration():
    vals = hankel_values(fib_seq(10), 2)
    assert [n for n, _ in vals] == list(range(1, 9))
    assert all(abs(h) == 1 for _, h in vals)


def test_hankel_size_zero_checks_the_window():
    a = ExactSeq.of([1, 2, 3])
    assert hankel_det(a, 5, 0) == 1  # n + 2k - 2 == 3, last admissible
    with pytest.raises(ValueError, match="start index n=0 must be at least 1"):
        hankel_det(a, 0, 0)
    with pytest.raises(ValueError, match=r"window \(n=6, k=0\) exceeds 3 terms"):
        hankel_det(a, 6, 0)
    assert [n for n, _ in hankel_values(a, 0)] == [1, 2, 3, 4, 5]


def test_hankel_values_needs_one_window():
    assert [n for n, _ in hankel_values(ExactSeq.of([1, 2, 3, 4, 5]), 3)] == [1]
    with pytest.raises(ValueError, match="size k=3 needs 5 terms, have 2"):
        hankel_values(ExactSeq.of([1, 2]), 3)
    with pytest.raises(ValueError, match="size k=3 needs 5 terms, have 4"):
        hankel_values(ExactSeq.of([1, 2, 3, 4]), 3)


def test_fit_fibonacci():
    rec = fit_min_poly(fib_seq(20), 5)
    assert rec.char_int().coeffs == (-1, -1, 1)
    assert rec.init == (1, 1)


def test_fit_triple_product_char():
    rec = fit_min_poly(tri_seq(24), 6)
    assert rec.char_int().coeffs == (-6, 11, -6, 1)


def test_fit_double_root():
    a = ExactSeq.of(list(range(1, 16)))  # a_n = n satisfies (t-1)^2
    rec = fit_min_poly(a, 4)
    assert rec.char_int().coeffs == (1, -2, 1)


def test_fit_constant_and_zero():
    rec = fit_min_poly(ExactSeq.of([5] * 12), 3)
    assert rec.char_int().coeffs == (-1, 1)
    zero = fit_min_poly(ExactSeq.of([0] * 12), 3)
    assert zero.degree == 0
    assert seq_from_recurrence(zero, 5).terms == (0, 0, 0, 0, 0)


def test_fit_rational_sequence():
    a = ExactSeq.of([Fraction(3, 2) ** k for k in range(10)])
    rec = fit_min_poly(a, 3)
    assert rec.char == (Fraction(-3, 2), Fraction(1))
    assert (rec.coeffs, rec.ints, rec.den) == ((-3, 2), (1,), 1)
    assert not rec.char_is_integral()
    # Built from ints, Fractions or text, one recurrence: equal, same hash.
    same = Recurrence(("-3/2", 1), (Fraction(2, 2),))
    assert rec == same and hash(rec) == hash(same)
    half = Recurrence((Fraction(-1), Fraction(1)), (Fraction(3, 6),))
    assert half == Recurrence((-1, 1), ("1/2",)) and (half.ints, half.den) == ((1,), 2)
    assert hash(half) == hash(Recurrence((-1, 1), ("1/2",)))
    with pytest.raises(ValueError):
        rec.char_int()


def test_fit_failure_raises():
    a = ExactSeq.of([k * k for k in range(1, 16)])  # needs degree 3
    with pytest.raises(NoRecurrenceFound):
        fit_min_poly(a, 2)


def test_fit_needs_enough_terms():
    with pytest.raises(ValueError):
        fit_min_poly(fib_seq(8), 4)


def test_hankel_vanishes_above_recurrence_degree():
    a = tri_seq(20)
    for k in (4, 5):
        for n in range(1, a.n_terms - 2 * k + 3):
            assert hankel_det(a, n, k) == 0


def test_size_two_hankel_closed_form():
    # derived once by hand from the three-root expansion and frozen here
    a = tri_seq(20)
    for n in range(1, 10):
        assert hankel_det(a, n, 2) == 2 * 6**n - 16 * 3**n - 2 * 2**n


def test_growth_estimates_track_exact_values():
    a = tri_seq(30)
    exact = growth_rates_from_char(fit_min_poly(a, 5).char, 4)
    assert exact == pytest.approx([1.0, 3.0, 6.0, 6.0, 0.0], abs=1e-9)
    assert growth_rate(a, 1) == pytest.approx(3.0, rel=0.05)
    assert growth_rate(a, 2) == pytest.approx(6.0, rel=0.05)
    assert growth_rate(a, 4) == 0.0


def test_growth_window_spread_and_bounds():
    a = tri_seq(30)
    est, spread = growth_window(a, 1, window=8)
    assert est >= 3.0 and spread > 0
    with pytest.raises(ValueError):
        growth_window(fib_seq(8), 2, window=8)


def test_growth_rejects_empty_window_and_negative_d_max():
    """A window below 1 or a negative d_max raises before any work; neither
    may come back as a report of estimates that were never attempted."""
    a = tri_seq(30)
    for k in (0, 1):
        for window in (0, -3):
            with pytest.raises(ValueError, match=r"need window >= 1"):
                growth_window(a, k, window)
    with pytest.raises(ValueError, match=r"need window >= 1"):
        growth_report(a, 2, window=0)
    with pytest.raises(ValueError, match=r"d_max must be nonnegative"):
        growth_report(a, 2, d_max=-1)
    assert growth_report(a, 2, d_max=0).min_poly is None


def test_max_growth_exact_fibonacci():
    got = max_growth_exact(fib_seq(20), 5)
    assert got.value == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert got.min_poly.char_int().coeffs == (-1, -1, 1)


def test_max_growth_beats_estimates():
    a = tri_seq(30)
    best = max_growth_exact(a, 5).value
    assert best == pytest.approx(6.0, abs=1e-9)
    assert best <= growth_rate(a, 2) + 1e-6  # estimator overshoots from above here


def test_growth_report_shape():
    rep = growth_report(tri_seq(30), 4)
    assert rep.entry(0).exact == 1.0 and rep.entry(0).estimate == 1.0
    assert rep.min_poly is not None
    assert rep.entry(4).exact == 0.0
    assert rep.max_exact() == pytest.approx(6.0, abs=1e-9)
    # k = 0 alone is exact 1.0 with or without a fit, so it is no growth rate.
    assert growth_report(tri_seq(30), 0).max_exact() is None
    ks = [e.k for e in rep.entries]
    assert ks == [0, 1, 2, 3, 4]


def test_growth_report_without_fit():
    # transcendental-ish data: no recurrence of low degree, numeric side only
    a = ExactSeq.of([Fraction(math.factorial(k)) for k in range(1, 19)])
    rep = growth_report(a, 2, d_max=3)
    assert rep.min_poly is None
    assert rep.entry(1).exact is None
    assert rep.entry(1).estimate is not None and rep.entry(1).estimate > 1
    assert rep.max_exact() is None


def test_rational_form_matches_series():
    rec = fit_min_poly(fib_seq(20), 5)
    numer, denom = rec.rational_form()
    assert numer == (1,) and denom == (1, -1, -1)
    # multiply the truncated series back: denom * series == numer (mod t^N)
    series = list(fib_seq(12).terms)
    prod = [Fraction(0)] * len(series)
    for i, q in enumerate(denom):
        for j in range(len(series) - i):
            prod[i + j] += q * series[j]
    padded = list(numer) + [Fraction(0)] * (len(series) - len(numer))
    assert prod == padded


def test_seq_from_recurrence_roundtrip():
    a = tri_seq(18)
    rec = fit_min_poly(a, 6)
    again = seq_from_recurrence(rec, 18)
    assert again.terms == a.terms


def test_tail_equivalence_positive():
    a = tri_seq(28)
    noisy = ExactSeq.of(
        [t + (3 if i % 2 else -5) for i, t in enumerate(a.terms)]
    )
    cmpres = tail_equivalence(a, noisy, 8)
    assert cmpres.agree
    assert sorted(abs(z) for z in cmpres.outside_a) == pytest.approx([2.0, 3.0])


def test_tail_equivalence_negative():
    a = tri_seq(24)
    b = ExactSeq.of([5**k for k in range(1, 25)])
    assert not tail_equivalence(a, b, 8).agree


def test_eventually_periodic_detection():
    hit = eventually_periodic(ExactSeq.of([9, 7, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2]))
    assert hit == Periodicity(preperiod=2, period=3)
    assert eventually_periodic(ExactSeq.of([4] * 9)) == Periodicity(0, 1)
    assert eventually_periodic(fib_seq(15)) is None
    with pytest.raises(ValueError):
        eventually_periodic(ExactSeq.of([Fraction(1, 2)] * 9))


def test_eventually_periodic_needs_evidence():
    # one full repeat is not three
    assert eventually_periodic(ExactSeq.of([1, 2, 3, 4, 1, 2, 3, 4])) is None
    assert eventually_periodic(ExactSeq.of([1, 2, 3, 4, 1, 2, 3, 4]), 2) == Periodicity(0, 4)
    for bad in (0, -1):
        with pytest.raises(ValueError, match="min_evidence must be >= 1"):
            eventually_periodic(ExactSeq.of([1, 2, 3, 4, 1, 2, 3, 4]), bad)


def test_parse_seq_and_recurrence():
    assert parse_seq("1, 1, 2").terms == (1, 1, 2)
    rec = parse_recurrence("t^2-t-1;1,1")
    assert seq_from_recurrence(rec, 6).terms == (1, 1, 2, 3, 5, 8)
    # recurrence -> terms -> fitted recurrence is the identity, rational char included
    texts = ("t^2-t-1;1,1", "t^3-2*t+5;1/2,-3,2/3", "t-4;7/6", "t^2+1;0,1")
    rational = Recurrence((Fraction(1, 3), Fraction(-5, 2), 1), (2, Fraction(-1, 4)))
    for rec in [parse_recurrence(text) for text in texts] + [rational]:
        assert fit_min_poly(seq_from_recurrence(rec, 4 * rec.degree + 2), rec.degree) == rec
    with pytest.raises(ValueError):
        parse_recurrence("t^2-t-1")
    with pytest.raises(ValueError):
        parse_recurrence("2*t^2-1;1,1")


@pytest.mark.parametrize("text, bad", [
    ("\u0661,2", "\u0661"),
    ("1_000", "1_000"),
    ("1e3", "1e3"),
    ("1,,2", ""),
    ("1/0", "1/0"),
    ("1/-2", "1/-2"),
    ("1,2,", ""),
])
def test_parse_seq_names_the_bad_term(text, bad):
    with pytest.raises(ValueError) as exc:
        parse_seq(text)
    assert str(exc.value) == (
        f"bad term {bad!r}: expected comma-separated integers, fractions "
        "p/q with q > 0 or decimals, such as 1,-2/3,1.5"
    )
    with pytest.raises(ValueError, match="bad term"):
        parse_recurrence("t^2-t-1;" + text)
    assert parse_seq(" 1, -2/3 ,+1.5,.5,4/02").terms == (
        1, Fraction(-2, 3), Fraction(3, 2), Fraction(1, 2), 2,
    )


small_roots = st.lists(
    st.sampled_from([-2, -1, 1, 2, 3]), min_size=1, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(small_roots, st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_fit_divides_generating_char(root_list, init3):
    char = poly_from_roots(root_list)
    d = char.degree
    rec = Recurrence(tuple(Fraction(c) for c in char.coeffs), tuple(init3[:d]))
    a = seq_from_recurrence(rec, 4 * d + 2)
    fitted = fit_min_poly(a, d)
    assert fitted.char_is_integral()
    assert fitted.char_int().divides(char)
    # and the fit reproduces the sequence
    assert seq_from_recurrence(fitted, a.n_terms).terms == a.terms


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40))
def test_growth_sign_invariance(seed):
    rng = random.Random(seed)
    terms = [rng.randint(-20, 20) for _ in range(14)]
    a = ExactSeq.of(terms)
    b = ExactSeq.of([-t for t in terms])
    c = ExactSeq.of([(-1) ** n * t for n, t in enumerate(terms)])
    for k in (1, 2):
        base = growth_rate(a, k, window=5)
        assert growth_rate(b, k, window=5) == pytest.approx(base, abs=1e-12)
        assert growth_rate(c, k, window=5) == pytest.approx(base, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(-5, 5).filter(lambda c: c != 0), st.integers(1, 30))
def test_hankel_scaling(c, seed):
    rng = random.Random(seed)
    terms = [rng.randint(-9, 9) for _ in range(9)]
    a = ExactSeq.of(terms)
    b = ExactSeq.of([c * t for t in terms])
    for n, k in [(1, 2), (2, 3), (3, 1)]:
        assert hankel_det(b, n, k) == Fraction(c) ** k * hankel_det(a, n, k)


def _solve_exact(rows, rhs):
    """Particular solution of rows * c = rhs over Q, or None if inconsistent."""
    if not rows:
        return []
    width = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = aug[r][col]
        aug[r] = [v / inv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][-1] != 0:
            return None
    sol = [Fraction(0)] * width
    for row_idx, col in enumerate(pivots):
        sol[col] = aug[row_idx][-1]
    return sol


def _dscan_fit(a, d_max, margin=None):
    """The slow exact route: scan d = 0, 1, ..., d_max, eliminating over Q."""
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if margin is None:
        margin = d_max
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if a.n_terms < 2 * d_max + margin:
        raise ValueError(
            f"need at least {2 * d_max + margin} terms to fit degree {d_max}, "
            f"have {a.n_terms}"
        )
    if all(t == 0 for t in a.terms):
        return Recurrence((Fraction(1),), ())
    ts = a.terms
    for d in range(1, d_max + 1):
        rows = [[ts[n + i] for i in range(d)] for n in range(a.n_terms - d)]
        rhs = [-ts[n + d] for n in range(a.n_terms - d)]
        sol = _solve_exact(rows, rhs)
        if sol is not None:
            return Recurrence(tuple(sol) + (Fraction(1),), ts[:d])
    raise NoRecurrenceFound(f"no recurrence of degree <= {d_max} fits all terms")


def _outcome(fit, a, d_max, margin):
    try:
        return fit(a, d_max, margin)
    except (ValueError, NoRecurrenceFound) as e:
        return type(e), str(e)


def test_fit_min_poly_matches_dscan_oracle():
    rng = random.Random(1969)
    cases = [
        ([0] * 6, 3, None),
        ([0], 0, 0),
        ([0, 0, 0, 5, 0, 0, 0, 5], 4, 0),
        ([3], 0, None),
        ([1, 2, 3, 4, 5, 6], 3, 0),
        ([1, 2], 1, 0),
    ]
    for _ in range(300):
        deg = rng.randint(1, 6)
        rational = rng.random() < 0.4
        den = (lambda: rng.choice((1, 2, 3, 7))) if rational else (lambda: 1)
        char = [Fraction(rng.randint(-3, 3), den()) for _ in range(deg)] + [Fraction(1)]
        terms = [Fraction(rng.randint(-4, 4), den()) for _ in range(deg)]
        if rng.random() < 0.2:  # zero initial terms
            k = rng.randint(1, deg)
            terms[:k] = [Fraction(0)] * k
        d_max = rng.randint(max(deg - 2, 0), 8)
        margin = rng.choice((None, None, 0, 0, 1, 3))
        need = 2 * d_max + (d_max if margin is None else margin)
        n_terms = max(need + rng.randint(-1, 6), 1)
        while len(terms) < n_terms:
            terms.append(-sum(char[i] * terms[len(terms) - deg + i] for i in range(deg)))
        if rng.random() < 0.2:  # leading zeros add a factor t^k to the minimal polynomial
            terms = [Fraction(0)] * rng.randint(1, 3) + terms
        terms = terms[:n_terms]
        roll = rng.random()
        if roll < 0.05:
            terms = [Fraction(0)] * len(terms)
        elif roll < 0.25:  # spoil one term, usually forcing NoRecurrenceFound
            terms[rng.randrange(len(terms))] += 1
        cases.append((terms, d_max, margin))
    kinds = set()
    for terms, d_max, margin in cases:
        a = ExactSeq.of(terms)
        got = _outcome(fit_min_poly, a, d_max, margin)
        assert got == _outcome(_dscan_fit, a, d_max, margin), (terms, d_max, margin)
        kinds.add(got[0] if isinstance(got, tuple) else Recurrence)
    assert kinds == {Recurrence, ValueError, NoRecurrenceFound}


def _fraction_bm(a, d_max, margin=None):
    """Berlekamp-Massey over Fractions, c_0 = 1 throughout: the Q-version
    that the fraction-free fit_min_poly must reproduce step for step."""
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    if margin is None:
        margin = d_max
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    if a.n_terms < 2 * d_max + margin:
        raise ValueError(
            f"need at least {2 * d_max + margin} terms to fit degree {d_max}, "
            f"have {a.n_terms}"
        )
    ts = a.terms
    c, b = [Fraction(1)], [Fraction(1)]
    length, shift, b_disc = 0, 1, Fraction(1)
    for n, t in enumerate(ts):
        disc = t + sum(c[i] * ts[n - i] for i in range(1, length + 1))
        if disc == 0:
            shift += 1
            continue
        scale = disc / b_disc
        new = c + [Fraction(0)] * (len(b) + shift - len(c))
        for i, v in enumerate(b):
            new[i + shift] -= scale * v
        if 2 * length <= n:
            length, b, b_disc, shift = n + 1 - length, c, disc, 1
            if length > d_max:
                raise NoRecurrenceFound(
                    f"no recurrence of degree <= {d_max} fits all terms"
                )
        else:
            shift += 1
        c = new
    c += [Fraction(0)] * (length + 1 - len(c))
    return Recurrence(tuple(reversed(c[: length + 1])), ts[:length])


def _random_fit_case(rng, family):
    """(terms, d_max, margin) from one of four families of sequences."""
    d_max = rng.randint(0, 9)
    margin = rng.choice((None, None, 0, 1, 3))
    need = 2 * d_max + (d_max if margin is None else margin)
    n_terms = max(need + rng.randint(-2, 8), 1)
    if family == "none":  # random terms, usually no short recurrence
        big = rng.choice((3, 10**6))
        return [rng.randint(-big, big) for _ in range(n_terms)], d_max, margin
    deg = rng.randint(1, 7)
    if family == "rational":
        def num():
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 12)))
    else:
        def num():
            return Fraction(rng.randint(-5, 5))
    char = [num() for _ in range(deg)]
    terms = [num() for _ in range(deg)]
    if family == "zeros":  # sparse recurrences, zero starts, leading zeros
        char = [c if rng.random() < 0.3 else Fraction(0) for c in char]
        terms = [t if rng.random() < 0.3 else Fraction(0) for t in terms]
    while len(terms) < n_terms:
        terms.append(-sum(char[i] * terms[len(terms) - deg + i] for i in range(deg)))
    if family == "zeros" and rng.random() < 0.5:
        terms = [Fraction(0)] * rng.randint(1, 4) + terms
    terms = terms[:n_terms]
    if rng.random() < 0.15:  # spoil one term
        terms[rng.randrange(n_terms)] += rng.choice((1, Fraction(1, 7)))
    return terms, d_max, margin


def test_fraction_free_fit_matches_fraction_bm():
    """fit_min_poly on the integer view against the Fraction pass, on 2400
    seeded sequences: integer, rational, zero-heavy and random."""
    rng = random.Random(17)
    seen = set()
    for family in ("integer", "rational", "zeros", "none"):
        for _ in range(600):
            terms, d_max, margin = _random_fit_case(rng, family)
            a = ExactSeq.of(terms)
            got = _outcome(fit_min_poly, a, d_max, margin)
            assert got == _outcome(_fraction_bm, a, d_max, margin), (terms, d_max, margin)
            seen.add((family, got[0] if isinstance(got, tuple) else Recurrence))
    for family in ("integer", "rational", "zeros", "none"):
        assert {kind for fam, kind in seen if fam == family} == {
            Recurrence, ValueError, NoRecurrenceFound,
        }, family


def test_scaled_view_clears_denominators_once():
    """ExactSeq keeps only its integer view: ints and den, in lowest terms,
    cleared by polynomial.clear_denominators."""
    a = ExactSeq.of([Fraction(1, 2), Fraction(-2, 3), 4, 0])
    assert (a.ints, a.den) == ((3, -4, 24, 0), 6)
    assert a.terms == (Fraction(1, 2), Fraction(-2, 3), 4, 0)
    for values, ints in (
        ([3, -1, 0], (3, -1, 0)),
        ([True, False, 2], (1, 0, 2)),
        ([np.int64(3), np.int8(-1), 0], (3, -1, 0)),
    ):
        b = ExactSeq.of(values)
        assert (b.ints, b.den) == (ints, 1)
        assert all(type(v) is int for v in b.ints)
        assert b.terms is b.ints
    c = ExactSeq.of([0.5, "2/3", "-1", 1.25])
    assert (c.ints, c.den) == ((6, 8, -12, 15), 12)
    assert ExactSeq.of([1, 2]) == ExactSeq.of([Fraction(1), Fraction(2)])
    assert ExactSeq.of([1, 2]).ints == clear_denominators([1, 2])[0]
    d = ExactSeq((2, 4), 2)
    assert (d.ints, d.den) == ((1, 2), 1) and d == ExactSeq.of([1, 2])
    assert ExactSeq((0, 6), 4) == ExactSeq.of([0, Fraction(3, 2)])
    for ints, den in (((Fraction(1, 2),), 1), ((1.0,), 1), (("1",), 1), ((1,), 0),
                      ((1,), -2), ((1,), 1.5), ((), 1)):
        with pytest.raises(ValueError):
            ExactSeq(ints, den)


def test_hankel_on_rational_sequences_matches_cofactor_oracle():
    rng = random.Random(1017)
    for _ in range(60):
        terms = [
            Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 4, 9, 10)))
            for _ in range(rng.randint(7, 12))
        ]
        a = ExactSeq.of(terms)
        for k in range(0, 5):
            for n in range(1, a.n_terms - 2 * k + 3):
                rows = [[a.get(n + i + j) for j in range(k)] for i in range(k)]
                assert hankel_det(a, n, k) == naive_det(rows), (terms, n, k)


def test_growth_window_matches_hankel_route():
    """The window reads the integer view; its floats are those of the
    reduced Fraction H_{n,k}, for integer and rational sequences."""
    rng = random.Random(88)
    for rational in (False, True):
        for _ in range(40):
            den = (lambda: rng.choice((1, 2, 6))) if rational else (lambda: 1)
            a = ExactSeq.of(
                [Fraction(rng.randint(-10**6, 10**6), den()) for _ in range(16)]
            )
            for k in (1, 2, 3):
                vals = []
                for n in range(16 - 2 * k + 2 - 5 + 1, 16 - 2 * k + 3):
                    h = hankel_det(a, n, k)
                    vals.append(
                        0.0 if h == 0 else math.exp(
                            (math.log(abs(h.numerator)) - math.log(h.denominator)) / n
                        )
                    )
                assert growth_window(a, k, 5) == (max(vals), max(vals) - min(vals))


def test_growth_reports_match_one_report_per_sequence(monkeypatch):
    import lehmerlab.sequence as S

    calls = []
    real_roots = S.roots
    monkeypatch.setattr(S, "roots", lambda f, tol: calls.append(f) or real_roots(f, tol))
    seqs = [fib_seq(20), tri_seq(20), fib_seq(20),
            ExactSeq.of([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]),
            ExactSeq.of([Fraction(1, 3**n) for n in range(1, 16)])]
    batched = S.growth_reports(seqs, 3, window=4)
    assert len(calls) == 3  # Fibonacci fitted twice, certified once; no fit for the primes
    singles = [growth_report(a, 3, window=4) for a in seqs]
    assert batched == tuple(singles)
    assert batched[3].min_poly is None


def _wall_cases(rng):
    """Seeded integer, rational and zero-heavy sequences of 1 to 24 terms."""
    for _ in range(40):
        n = rng.randint(1, 24)
        yield "integer", ExactSeq.of([rng.randint(-30, 30) for _ in range(n)])
        yield "rational", ExactSeq.of(
            [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 10))) for _ in range(n)]
        )
        yield "zeros", ExactSeq.of([rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(n)])


def test_number_wall_matches_bareiss_windows(monkeypatch):
    """Every entry of the wall, at every start and every k <= 8, is the
    Bareiss determinant of its window; the zero-heavy sequences reach the
    fallback, the others rarely."""
    import lehmerlab.sequence as S

    fallbacks = {"integer": 0, "rational": 0, "zeros": 0}
    family = None
    real = S._hankel_int

    def counted(ints, n, k):
        fallbacks[family] += 1
        return real(ints, n, k)

    for family, a in _wall_cases(random.Random(1901)):
        ints = a.ints
        monkeypatch.setattr(S, "_hankel_int", counted)
        rows = S._number_wall(ints, 8)
        monkeypatch.setattr(S, "_hankel_int", real)
        assert len(rows) == 9
        assert rows[0] == [1] * (a.n_terms + 2)
        for k, row in enumerate(rows[1:], 1):
            assert row == [real(ints, n, k) for n in range(1, a.n_terms - 2 * k + 3)], (
                a.terms, k,
            )
    assert fallbacks["zeros"] > 100
    assert fallbacks["integer"] < fallbacks["zeros"]


def test_hankel_values_match_hankel_det():
    for _, a in _wall_cases(random.Random(1902)):
        for k in range(0, (a.n_terms + 1) // 2 + 1):
            assert hankel_values(a, k) == [
                (n, hankel_det(a, n, k)) for n in range(1, a.n_terms - 2 * k + 3)
            ], (a.terms, k)


def test_wall_routes_take_no_determinant_without_zero_divisors(monkeypatch):
    import lehmerlab.sequence as S

    calls = []
    real = S.bareiss_det
    monkeypatch.setattr(S, "bareiss_det", lambda rows: calls.append(rows) or real(rows))
    tetra = [1, 1, 2, 4]
    while len(tetra) < 16:
        tetra.append(sum(tetra[-4:]))
    reports = S.growth_reports([ExactSeq.of(tetra)], 3)
    assert reports[0].entry(3).estimate is not None
    assert calls == []
    # For a_n = 2^n + 3^n + 5^n each H_{n,k}, k <= 3, is a sum of positive
    # terms (a product of k roots to the n times a squared Vandermonde), and
    # rows 4 and 5 vanish: rows 4 and 5 divide by rows 2 and 3, never by 0.
    a = ExactSeq.of([2**n + 3**n + 5**n for n in range(1, 41)])
    values = hankel_values(a, 5)
    assert len(values) == 32 and all(h == 0 for _, h in values)
    assert calls == []
    assert hankel_values(a, 3)[0][1] == hankel_det(a, 1, 3) != 0


def test_growth_report_reads_each_k_as_growth_window_does():
    """One tail wall for every k <= k_max gives each k's window as a wall
    built for that k alone."""
    for _, a in _wall_cases(random.Random(1903)):
        for window in (1, 3, 8):
            rep = growth_report(a, 6, window=window, d_max=0)
            for k in range(1, 7):
                try:
                    want = growth_window(a, k, window)
                except ValueError:
                    want = (None, None)
                assert (rep.entry(k).estimate, rep.entry(k).spread) == want, (a.terms, k)


def test_growth_window_checks_k_before_the_window_length():
    with pytest.raises(ValueError, match=r"^Hankel determinant size k=-1 must be nonnegative$"):
        growth_window(ExactSeq.of([1, 1, 2, 3, 5]), -1, 100)
    with pytest.raises(ValueError, match=r"^need at least 100 Hankel values at size k=1, have 5$"):
        growth_window(ExactSeq.of([1, 1, 2, 3, 5]), 1, 100)
    assert growth_window(ExactSeq.of([1, 1, 2, 3, 5]), 0, 100) == (1.0, 0.0)


def test_estimate_past_float64_names_k_n_and_the_range():
    """|a_1|^(1/1) = 10^400 has no float64; the window routine says so, and
    growth_window and growth_report raise its message."""
    a = ExactSeq.of([n * 10**400 for n in range(1, 9)])
    message = r"^\|H_\{1,1\}\|\^\(1/1\) at k=1, n=1 exceeds the float64 range \(about 1\.8e308\)$"
    with pytest.raises(OverflowError, match=message):
        growth_window(a, 1)
    with pytest.raises(OverflowError, match=message):
        growth_report(a, 1)
    # Past n = 1 the window fits: (10^400)^(1/2) is a float.
    assert growth_window(a, 1, window=7)[0] > 1e200


def test_growth_window_converts_row_k_only():
    """a_n = 10^(400n): row 1 passes the float64 range, row 2 is all zeros
    (a_n a_{n+2} - a_{n+1}^2 = 0).  growth_window and growth_rate at k = 2
    read row 2 alone."""
    a = ExactSeq.of([10 ** (400 * n) for n in range(1, 13)])
    assert growth_window(a, 2) == (0.0, 0.0)
    assert growth_rate(a, 2) == 0.0
    with pytest.raises(OverflowError, match=r"at k=1, n=5 exceeds the float64"):
        growth_window(a, 1)


def test_exact_rates_read_the_roots_order():
    """growth_rates_from_char multiplies the first k moduli of ``roots``;
    the oracle sorts the moduli itself, as the route did before."""
    from lehmerlab.polynomial import roots

    rng = random.Random(2021)
    for _ in range(40):
        rs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
        f = poly_from_roots(rs) * IntPoly((rng.choice((1, 2, 5)), 0, 1))
        mags = sorted((abs(z) for z, _ in roots(f)), reverse=True)
        want = [1.0]
        for k in range(1, 9):
            want.append(math.prod(mags[:k], start=1.0) if k <= f.degree else 0.0)
        assert growth_rates_from_char(f.coeffs, 8) == want, f
