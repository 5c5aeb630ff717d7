"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line when its assertions hold; tolerances
and runtime caps are pinned in the assertions themselves.
"""

import random
import time
from fractions import Fraction

import pytest

from lehmerlab.braid import entropy_estimate, parse_braid, reduced_alexander
from lehmerlab.dynamics import (
    IntMatrix,
    char_poly,
    lefschetz_seq,
    net_traces,
)
from lehmerlab.freegroup import (
    Word,
    abelianization,
    apply,
    endo_from_matrix,
    iterate_lengths,
    nielsen_verify_basis,
    parse_endo,
    positive_f2_aut,
)
from lehmerlab.freegroup import growth_report as endo_growth_report
from lehmerlab.polynomial import (
    IntPoly,
    lehmer_polynomial,
    mahler_measure,
    poly_gcd,
)
from lehmerlab.sequence import (
    ExactSeq,
    Recurrence,
    eventually_periodic,
    fit_min_poly,
    hankel_det,
    max_growth_exact,
    seq_from_recurrence,
    tail_equivalence,
)


def test_01_smallest_known_measure_above_one():
    t0 = time.perf_counter()
    value = mahler_measure(lehmer_polynomial()).value
    elapsed = time.perf_counter() - t0
    assert abs(value - 1.176281) <= 1e-4
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1: PASS - M = {value:.12f} in {elapsed:.3f}s")


def test_02_exact_growth_profile_through_basis_change():
    t0 = time.perf_counter()
    phi = parse_endo("a -> a^3; b -> b^2")
    assert list(iterate_lengths(phi, 1, 25).terms) == [3**n for n in range(1, 26)]
    assert list(iterate_lengths(phi, 2, 25).terms) == [2**n for n in range(1, 26)]

    # Same map written in the basis (ab, b): lower-order terms appear but
    # every length stays exact, and the growth profile is recovered.
    psi = parse_endo("a -> a b^-1 a b^-1 a b; b -> b^2")
    lengths = iterate_lengths(psi, 1, 25)
    assert list(lengths.terms) == [2 * 3**n + 2**n - 2 for n in range(1, 26)]
    fitted = fit_min_poly(lengths, 4)
    assert fitted.char_int().coeffs == (-6, 11, -6, 1)  # (t-1)(t-2)(t-3)

    rep = endo_growth_report(psi, 4, 16)
    assert rep.best(1) == pytest.approx(3.0, abs=1e-9)
    assert rep.best(2) == pytest.approx(6.0, abs=1e-9)
    assert rep.best(3) == pytest.approx(6.0, abs=1e-9)
    assert rep.best(4) == pytest.approx(0.0, abs=1e-9)
    assert all(r.min_poly is not None for r in rep.per_generator)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2: PASS - exact lengths to n=25, profile (3,6,6,0) in {elapsed:.2f}s")


def test_03_hankel_vanishing_and_fitted_divisor():
    rng = random.Random(30316)
    n_terms = 26
    for _ in range(100):
        d = rng.randint(1, 5)
        char = tuple(rng.randint(-5, 5) for _ in range(d)) + (1,)
        init = [0] * d
        while not any(init):
            init = [rng.randint(-5, 5) for _ in range(d)]
        rec = Recurrence(
            tuple(Fraction(c) for c in char), tuple(Fraction(v) for v in init)
        )
        seq = seq_from_recurrence(rec, n_terms)

        # Window determinants one size past the degree all vanish.
        k = d + 1
        for n in range(d + 1, n_terms - 2 * k + 3):
            assert hankel_det(seq, n, k) == 0

        fitted = fit_min_poly(seq, 5)
        assert fitted.char_is_integral()
        assert fitted.char_int().divides(IntPoly(char))

        mg = max_growth_exact(seq, 5)
        target = (
            1.0
            if fitted.degree == 0
            else mahler_measure(fitted.char_int()).value
        )
        assert abs(mg.value - target) <= 1e-8 * max(1.0, target)
    print("ACCEPTANCE 3: PASS - 100 recurrences: vanishing, divisibility, measure match")


def test_04_fixed_point_growth_bounded_by_spectrum():
    rng = random.Random(41404)
    equality_cases = 0
    for _ in range(100):
        m = rng.randint(1, 4)
        a = IntMatrix(
            tuple(tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(m))
        )
        seq = lefschetz_seq(a, True, 24)
        mg = max_growth_exact(seq, m + 1)
        ch = char_poly(a)
        measure = mahler_measure(ch).value
        assert mg.value <= measure * (1 + 1e-8)
        if poly_gcd(ch, ch.derivative()).degree == 0:
            equality_cases += 1
            assert abs(mg.value - measure) <= 1e-6 * measure
    assert equality_cases >= 50  # squarefree is the generic case
    print(
        "ACCEPTANCE 4: PASS - 100 matrices: growth <= measure, "
        f"equality on {equality_cases} squarefree cases"
    )


def test_05_periodic_noise_never_moves_outside_roots():
    rng = random.Random(52525)
    n_terms = 45
    for _ in range(50):
        d = rng.randint(1, 4)
        char = tuple(rng.randint(-5, 5) for _ in range(d)) + (1,)
        init = [0] * d
        while not any(init):
            init = [rng.randint(-5, 5) for _ in range(d)]
        rec = Recurrence(
            tuple(Fraction(c) for c in char), tuple(Fraction(v) for v in init)
        )
        base = seq_from_recurrence(rec, n_terms)

        pre = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
        pattern = [0]
        while not any(pattern):
            pattern = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        noise = [
            pre[i] if i < len(pre) else pattern[(i - len(pre)) % len(pattern)]
            for i in range(n_terms)
        ]
        noisy = ExactSeq.of(
            [x + e for x, e in zip(base.terms, noise)]
        )

        cmp = tail_equivalence(base, noisy, 12)
        assert cmp.agree, (char, init, pre, pattern)

        diff = ExactSeq.of(noise)
        found = eventually_periodic(diff)
        assert found is not None
        assert len(pattern) % found.period == 0
        assert found.preperiod <= len(pre)
    print("ACCEPTANCE 5: PASS - 50 noise trials: outside roots stable, periodicity found")


def test_06_three_closures_share_the_degree_ten_invariant():
    # Positive full twists close the first two words; the third needs the
    # opposite twist sign to land on the same fibered invariant.
    t0 = time.perf_counter()
    target = (1, -1, 0, 1, -1, 1, -1, 1, 0, -1, 1)
    words = (
        ("s1 s2^-1 T^2", 3),
        ("s3 s2 s1^-1 T^1", 4),
        ("s1 s2 s3 s4 s1 s2 T^-1", 5),
    )
    for text, n in words:
        alex = reduced_alexander(parse_braid(text, n))
        assert alex.coeffs == target and alex.min_deg == 0, text
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"ACCEPTANCE 6: PASS - three closures, one invariant, {elapsed:.2f}s")


def test_07_entropy_estimates_with_narrowing_diagnostics():
    t0 = time.perf_counter()
    cases = (
        ("s1 s2^-1", 3, 2.618033988749895, (8, 10, 12)),
        ("s3 s2 s1^-1", 4, 2.2966302628865383, (8, 10, 12)),
        ("s1 s2 s3 s4 s1 s2", 5, 1.722083805739043, (8, 12, 16)),
    )
    finals = {}
    for text, n, target, grid in cases:
        beta = parse_braid(text, n)
        spreads = []
        for n_terms in grid:
            est = entropy_estimate(beta, n_terms=n_terms)
            spreads.append(max(r.spread for r in est.per_generator))
        assert spreads[0] > spreads[1] > spreads[2], (text, spreads)
        assert abs(est.gr1 - target) / target < 0.02, text
        finals[text] = est

    plain = finals["s1 s2^-1"]
    twisted = entropy_estimate(parse_braid("s1 s2^-1 T^1", 3), n_terms=12)
    combined = max(r.spread for r in plain.per_generator) + max(
        r.spread for r in twisted.per_generator
    )
    assert abs(plain.gr1 - twisted.gr1) <= combined
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 7: PASS - entropies within 2%, spreads narrow, {elapsed:.1f}s")


def test_08_every_shear_product_lifts_to_a_positive_basis():
    rng = random.Random(86000)

    def shear(which, k):
        rows = ((1, k), (0, 1)) if which else ((1, 0), (k, 1))
        return IntMatrix(rows)

    matrices = [IntMatrix(((2, 1), (1, 1)))]
    for _ in range(199):
        a = IntMatrix(((1, 0), (0, 1)))
        for _ in range(rng.randint(1, 10)):
            a = a @ shear(rng.random() < 0.5, rng.randint(1, 3))
        matrices.append(a)

    for a in matrices:
        descent = positive_f2_aut(a)
        u, v = descent.endo.images
        assert u.is_positive() and v.is_positive()
        assert abelianization(descent.endo) == a
        assert nielsen_verify_basis(u, v)

    worked = positive_f2_aut(IntMatrix(((2, 1), (1, 1))))
    assert [w.runs for w in worked.endo.images] == [
        ((1, 1), (2, 1), (1, 1)),
        ((1, 1), (2, 1)),
    ]
    print("ACCEPTANCE 8: PASS - 200 shear products lift to positive Nielsen bases")


def test_09_roots_of_unity_net_traces():
    for k in range(1, 13):
        f = IntPoly((-1,) + (0,) * (k - 1) + (1,))  # t^k - 1
        nets = net_traces(f, 3 * k)
        for n, value in enumerate(nets, start=1):
            assert value == (k if n == k else 0), (k, n, value)
    print("ACCEPTANCE 9: PASS - net traces of k-th roots of unity, k <= 12, exact")


def test_10_occurrence_counts_follow_matrix_powers():
    rng = random.Random(105300)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts < 10_000
        m = rng.randint(2, 4)
        a = IntMatrix(
            tuple(tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(m))
        )
        powers = []
        p = a
        total = 0
        for _ in range(8):
            total += sum(sum(row) for row in p.rows)
            powers.append(p)
            p = p @ a
        if total > 200_000:
            continue  # keep the materialized words affordable
        checked += 1

        phi = endo_from_matrix(a)
        char = char_poly(a).coeffs
        lengths = [[] for _ in range(m)]
        for i in range(m):
            w = Word.gen(m, i + 1)
            for n in range(8):
                w = apply(phi, w)
                for j in range(m):
                    assert w.count_gen(j + 1) == powers[n].rows[i][j]
                lengths[i].append(w.length())

        # Cayley-Hamilton pushes through to the exact word lengths.
        for i in range(m):
            seq = lengths[i]
            for n in range(8 - m):
                assert sum(c * seq[n + k] for k, c in enumerate(char)) == 0
    print(
        "ACCEPTANCE 10: PASS - occurrence law exact on "
        f"{checked} matrices ({attempts} sampled)"
    )
