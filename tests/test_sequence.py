import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmerlab.polynomial import IntPoly, poly_from_roots
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
    with pytest.raises(ValueError):
        hankel_det(a, 5, 2)
    with pytest.raises(ValueError):
        hankel_det(a, 0, 2)


def test_hankel_values_enumeration():
    vals = hankel_values(fib_seq(10), 2)
    assert [n for n, _ in vals] == list(range(1, 9))
    assert all(abs(h) == 1 for _, h in vals)


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
    assert not rec.char_is_integral()
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
    ks = [e.k for e in rep.entries]
    assert ks == [0, 1, 2, 3, 4]


def test_growth_report_without_fit():
    # transcendental-ish data: no recurrence of low degree, numeric side only
    a = ExactSeq.of([Fraction(math.factorial(k)) for k in range(1, 19)])
    rep = growth_report(a, 2, d_max=3)
    assert rep.min_poly is None
    assert rep.entry(1).exact is None
    assert rep.entry(1).estimate is not None and rep.entry(1).estimate > 1


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


def test_parse_seq_and_recurrence():
    assert parse_seq("1, 1, 2").terms == (1, 1, 2)
    rec = parse_recurrence("t^2-t-1;1,1")
    assert seq_from_recurrence(rec, 6).terms == (1, 1, 2, 3, 5, 8)
    with pytest.raises(ValueError):
        parse_recurrence("t^2-t-1")
    with pytest.raises(ValueError):
        parse_recurrence("2*t^2-1;1,1")


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
