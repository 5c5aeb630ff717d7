import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lehmerlab.dynamics import (
    IntMatrix,
    PaddingResult,
    SignedShiftSystem,
    char_poly,
    companion_matrix,
    cyclotomic_padding,
    lefschetz_seq,
    moebius,
    net_trace,
    net_traces,
    newton_power_sums,
    parse_matrix,
    perron_check,
    primitivity,
    signed_trace_seq,
    trace_powers,
    verify_kor_instance,
)
from lehmerlab.polynomial import (
    IntPoly,
    cyclotomic,
    lehmer_polynomial,
    mahler_measure,
    parse_poly,
    poly_gcd,
)
from lehmerlab.sequence import ExactSeq, fit_min_poly, max_growth_exact, tail_equivalence

FIB = IntMatrix(((1, 1), (1, 0)))


def test_matrix_basics():
    assert IntMatrix.identity(3).trace() == 3
    assert (FIB @ FIB).rows == ((2, 1), (1, 1))
    assert FIB.power(5).rows == ((8, 5), (5, 3))
    with pytest.raises(ValueError):
        IntMatrix(((1, 2),))
    for bad in (1.5, 1.0, Fraction(1), "2", None):
        with pytest.raises(ValueError, match=r"entry \[1\]\[0\]"):
            IntMatrix(((1, 1), (bad, 0)))
    with pytest.raises(ValueError, match=r"\[0\]\[0\] = 1.5 is not an integer"):
        char_poly(IntMatrix(((1.5, 1), (1, 0.9))))


def test_trace_powers_examples():
    assert trace_powers(IntMatrix.identity(2), 3).terms == (2, 2, 2)
    assert trace_powers(IntMatrix(((2,),)), 3).terms == (2, 4, 8)
    tri = companion_matrix(parse_poly("t^3-6t^2+11t-6"))
    # power sums of {1, 2, 3}
    assert trace_powers(tri, 4).terms == (6, 14, 36, 98)
    assert trace_powers(char_poly(tri), 4) == trace_powers(tri, 4)


def test_lefschetz_examples():
    assert lefschetz_seq(IntMatrix.identity(2), True, 5).terms == (-1,) * 5
    assert lefschetz_seq(IntMatrix(((2,),)), True, 4).terms == (-1, -3, -7, -15)
    assert lefschetz_seq(IntMatrix(((2,),)), False, 3).terms == (0, -2, -6)
    assert lefschetz_seq(char_poly(IntMatrix(((2,),))), False, 3).terms == (0, -2, -6)


def test_lefschetz_of_salem_companion_recovers_mahler():
    lehmer = lehmer_polynomial()
    seq = lefschetz_seq(companion_matrix(lehmer), True, 40)
    got = max_growth_exact(seq, 11)
    want = mahler_measure(lehmer).value
    assert got.value == pytest.approx(want, abs=1e-12)
    # the fitted characteristic polynomial is (t-1) times the Salem polynomial
    assert got.min_poly.char_int() == parse_poly("t-1") * lehmer


def test_signed_trace_seq():
    single = SignedShiftSystem(((1, IntMatrix(((2,),))),))
    assert signed_trace_seq(single, 3).terms == (2, 4, 8)
    pair = SignedShiftSystem(((1, IntMatrix(((2,),))), (-1, IntMatrix(((1,),)))))
    assert signed_trace_seq(pair, 3).terms == (1, 3, 7)
    with pytest.raises(ValueError):
        SignedShiftSystem(())
    with pytest.raises(ValueError):
        SignedShiftSystem(((2, FIB),))


def test_signed_system_rejects_non_integer_signs():
    with pytest.raises(ValueError, match=r"sign = 1.5 is not an integer"):
        SignedShiftSystem(((1.5, FIB),))
    assert SignedShiftSystem(((np.int64(-1), FIB), (True, FIB))).terms == ((-1, FIB), (1, FIB))


def test_signed_system_bounded_difference_keeps_tail():
    # Lefschetz data vs the same data with periodic noise: same outside roots
    base = lefschetz_seq(FIB, True, 30)
    noisy = ExactSeq.of(
        [t + (1 if i % 3 == 0 else -1) for i, t in enumerate(base.terms)]
    )
    assert tail_equivalence(base, noisy, 8).agree


def test_moebius_values():
    want = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0, -1, 0, -1, 0]
    assert [moebius(n) for n in range(1, 21)] == want
    with pytest.raises(ValueError):
        moebius(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400))
def test_moebius_divisor_sum(n):
    total = sum(moebius(d) for d in range(1, n + 1) if n % d == 0)
    assert total == (1 if n == 1 else 0)


def test_newton_power_sums_lucas():
    assert newton_power_sums(parse_poly("t^2-t-1"), 6) == [1, 3, 4, 7, 11, 18]
    assert newton_power_sums(IntPoly((1,)), 4) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        newton_power_sums(parse_poly("2t-1"), 3)


def test_net_trace_roots_of_unity():
    for k in range(1, 13):
        f = IntPoly(tuple([-1] + [0] * (k - 1) + [1]))  # t^k - 1
        for n, v in enumerate(net_traces(f, 3 * k), start=1):
            assert v == (k if n == k else 0)


def test_net_trace_singleton_and_numeric_route():
    assert net_trace(parse_poly("t-2"), 2) == 2
    assert net_trace([2.0], 2) == pytest.approx(2.0)
    lehmer = lehmer_polynomial()
    exact = net_traces(lehmer, 50)
    assert all(isinstance(v, int) for v in exact)
    assert exact[:12] == [-1, 2, 3, 0, 5, 0, 7, 0, 0, 0, 11, 0]
    from lehmerlab.polynomial import roots

    numeric = net_traces([z for z, _ in roots(lehmer)], 20)
    for e, x in zip(exact, numeric):
        assert x == pytest.approx(e, abs=1e-6)


def _divisor_net_traces(spectrum, n_terms):
    """net_traces by the direct formula: every k <= n tested as a divisor
    of n, one moebius(n // k) per divisor."""
    if isinstance(spectrum, IntPoly):
        ps = newton_power_sums(spectrum, n_terms)
    else:
        ps = [sum(z**k for z in spectrum) for k in range(1, n_terms + 1)]
    out = []
    for n in range(1, n_terms + 1):
        total = 0
        for k in range(1, n + 1):
            if n % k == 0 and moebius(n // k):
                total += moebius(n // k) * ps[k - 1]
        out.append(total)
    return out


def test_net_traces_match_the_divisor_formula():
    """The sieve route gives the same integers, and the same float bits on
    explicit spectra (each tr_n adds its terms in the same order)."""
    rng = random.Random(200)
    for trial in range(24):
        f = IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 8))) + (1,))
        n_terms = rng.choice((1, 2, 3, 12, 50, 97, 200))
        assert net_traces(f, n_terms) == _divisor_net_traces(f, n_terms), (f, n_terms)
        spectrum = [complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)) for _ in range(rng.randint(1, 6))]
        if trial % 3 == 0:
            spectrum = [z.real for z in spectrum]
        got, want = net_traces(spectrum, n_terms), _divisor_net_traces(spectrum, n_terms)
        assert repr(got) == repr(want), (spectrum, n_terms)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_net_trace_additivity(seed):
    rng = random.Random(seed)
    f = IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) + (1,))
    g = IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) + (1,))
    left = net_traces(f * g, 16)
    right = [a + b for a, b in zip(net_traces(f, 16), net_traces(g, 16))]
    assert left == right


def test_perron_check_examples():
    assert perron_check(parse_poly("t-2")).is_perron_candidate
    bad = perron_check(parse_poly("t^2+1"))
    assert not bad.dominant_real and not bad.is_perron_candidate
    fib = perron_check(parse_poly("t^2-t-1"))
    assert fib.dominant_real and fib.first_negative_net is None
    assert fib.is_perron_candidate


def test_perron_check_reports_finite_prefix():
    res = perron_check(parse_poly("t^3-t^2+t-2"), n_net=20)
    assert res.dominant_real
    assert res.first_negative_net == 2
    assert res.net_traces_ok_up_to_n == 1
    assert not res.is_perron_candidate


def test_cyclotomic_padding_identity_when_clean():
    pad = cyclotomic_padding(parse_poly("t^2-t-1"))
    assert pad == PaddingResult(IntPoly((1,)), (), pad.net)
    assert all(v >= 0 for v in pad.net)


def test_cyclotomic_padding_fixes_single_bad_net():
    # found by scanning monic cubics: only tr_2 is negative, and t+1 repairs it
    f = parse_poly("t^3-t^2+t-2")
    pad = cyclotomic_padding(f)
    assert pad is not None
    assert pad.indices == (2,)
    assert pad.phi == parse_poly("t+1")
    assert min(pad.net) >= 0
    assert net_trace(f, 2) < 0 <= pad.net[1]


def test_cyclotomic_padding_requires_dominant_real():
    with pytest.raises(ValueError):
        cyclotomic_padding(parse_poly("t^2+1"))


@pytest.mark.parametrize("c", range(-3, 4))
def test_degree_one_root_dominates_only_when_positive(c):
    """t - c has the one root c, which no other root can outweigh: it is a
    dominant real root, as the benchmark oracle reads one, iff c > 0."""
    f = IntPoly((-c, 1))
    check = perron_check(f)
    assert check.dominant_real is (c > 0)
    assert check.is_perron_candidate is (c > 0)
    if c > 0:
        assert cyclotomic_padding(f) == PaddingResult(IntPoly((1,)), (), tuple(net_traces(f, 50)))
    else:
        with pytest.raises(ValueError, match="dominant real root"):
            cyclotomic_padding(f)


@pytest.mark.parametrize("poly", ["-1,0,2", "0", "2,3", "-t^3+t+1"])
def test_cyclotomic_padding_requires_monic(poly, monkeypatch, capsys):
    """A non-monic f is refused before any root is computed; the CLI exits
    1 with the same message."""
    from lehmerlab import dynamics
    from lehmerlab.cli import main

    def no_roots(*args):
        raise AssertionError("roots were computed")

    monkeypatch.setattr(dynamics, "_dominant_real", no_roots)
    message = "cyclotomic_padding needs a monic polynomial"
    with pytest.raises(ValueError, match=f"^{message}$"):
        cyclotomic_padding(parse_poly(poly))
    assert main(["padding", f"--poly={poly}", "--json-only"]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["message"] == message


@pytest.mark.parametrize("bound", ["search_bound", "max_degree", "max_mult"])
@pytest.mark.parametrize("value", [0, -3])
def test_cyclotomic_padding_rejects_bounds_below_1(bound, value):
    """A bound below 1 raises before any work instead of reporting that
    nothing was found; the CLI exits 1 with the same message."""
    from lehmerlab.cli import main

    f = parse_poly("t^3+t^2-22t-40")
    with pytest.raises(ValueError, match=rf"^need {bound} >= 1$"):
        cyclotomic_padding(f, **{bound: value})
    flag = "--" + bound.replace("_", "-")
    assert main(["padding", "--poly=t^3+t^2-22t-40", f"{flag}={value}", "--json-only"]) == 1


def test_dominant_real_reads_the_first_root():
    """The dominant root is the first of ``roots``; the oracle scans for
    the largest modulus, requires it real and positive, and compares every
    other root."""
    from lehmerlab.dynamics import _dominant_real
    from lehmerlab.polynomial import roots

    def oracle(f):
        pairs = list(roots(f))
        idx = max(range(len(pairs)), key=lambda i: abs(pairs[i][0]))
        z1, r1 = pairs[idx]
        rest = pairs[:idx] + pairs[idx + 1 :]
        return (abs(z1.imag) <= r1 and z1.real - r1 > 0
                and all(z1.real - r1 > abs(z) + r for z, r in rest))

    rng = random.Random(2022)
    verdicts = set()
    fs = [parse_poly(t) for t in ("t^2-2", "t^4+1", "t^3-t-1", "t^2+1", "t^2-t-1")]
    fs += [IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 6))) + (1,))
           for _ in range(60)]
    for f in fs:
        got = _dominant_real(f, 1e-10)
        assert got == oracle(f), f
        verdicts.add(got)
    assert verdicts == {True, False}


def test_primitivity_examples():
    assert primitivity(FIB)
    assert not primitivity(IntMatrix.identity(2))
    assert primitivity(IntMatrix(((1,),)))
    assert not primitivity(IntMatrix(((0,),)))
    cyc = IntMatrix(((0, 1, 0), (0, 0, 1), (1, 0, 0)))
    assert not primitivity(cyc)
    with pytest.raises(ValueError):
        primitivity(IntMatrix(((1, -1), (1, 1))))


def test_char_poly_examples():
    assert char_poly(IntMatrix(((0, 1), (1, 1)))).coeffs == (-1, -1, 1)
    assert char_poly(IntMatrix.identity(3)).coeffs == (-1, 3, -3, 1)
    lehmer = lehmer_polynomial()
    assert char_poly(companion_matrix(lehmer)) == lehmer


def test_verify_kor_examples():
    assert verify_kor_instance(FIB, parse_poly("t^2-t-1"), IntPoly((1,)))
    assert not verify_kor_instance(
        IntMatrix.identity(2), parse_poly("t-1"), parse_poly("t-1")
    )
    k3 = IntMatrix(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
    assert verify_kor_instance(k3, parse_poly("t-2"), parse_poly("t^2+2t+1"))
    assert not verify_kor_instance(k3, parse_poly("t-2"), IntPoly((1,)))
    # char(A) = t*(t^2-2t-2): the shift exponent is found automatically
    a0 = IntMatrix(((1, 1, 1), (1, 1, 1), (1, 1, 0)))
    assert verify_kor_instance(a0, parse_poly("t^2-2t-2"), IntPoly((1,)))  # l = 1
    assert verify_kor_instance(a0, parse_poly("t^3-2t^2-2t"), IntPoly((1,)))  # l = 0
    assert not verify_kor_instance(a0, parse_poly("t^4-2t^3-2t^2"), IntPoly((1,)))  # l = -1
    assert not verify_kor_instance(a0, parse_poly("t^2-2t-1"), IntPoly((1,)))
    assert not verify_kor_instance(a0, -parse_poly("t^2-2t-2"), IntPoly((1,)))
    assert not verify_kor_instance(a0, IntPoly(()), IntPoly((1,)))  # p = 0
    # char = t^2 (t - 2) matches, but the graph is not strongly connected
    reducible = IntMatrix(((1, 1, 0), (1, 1, 0), (1, 1, 0)))
    assert char_poly(reducible) == parse_poly("t^3-2t^2")
    assert not verify_kor_instance(reducible, parse_poly("t-2"), IntPoly((1,)))


def test_parse_matrix():
    assert parse_matrix("[[0,1],[1,1]]") == IntMatrix(((0, 1), (1, 1)))
    for text in (
        "[1,2]",
        "[[1.5, 1], [1, 0.9]]",
        "[[1.0, 0], [0, 1]]",
        "[[true, 0], [0, 1]]",
        '[[1, "2"], [0, 1]]',
        "[[1, null], [0, 1]]",
        "[[1, [2]], [0, 1]]",
    ):
        with pytest.raises(ValueError):
            parse_matrix(text)
    with pytest.raises(ValueError, match=r"\[1\]\[1\] = 0.9"):
        parse_matrix("[[1, 1], [1, 0.9]]")


def random_matrix(rng, m, low=-3, high=3):
    return IntMatrix(
        tuple(tuple(rng.randint(low, high) for _ in range(m)) for _ in range(m))
    )


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 4))
def test_traces_match_newton_identities(seed, m):
    a = random_matrix(random.Random(seed), m)
    assert list(trace_powers(a, 12).terms) == newton_power_sums(char_poly(a), 12)


def _iterated_traces(a, n_terms):
    """tr A^1, ..., tr A^N by iterated multiplication: the oracle."""
    out, b = [], a
    for _ in range(n_terms):
        out.append(b.trace())
        b = b @ a
    return out


def test_trace_powers_match_iterated_products():
    rng = random.Random(24)
    for m in range(1, 9):
        for _ in range(12):
            a = random_matrix(rng, m, -4, 4)
            assert list(trace_powers(a, 24).terms) == _iterated_traces(a, 24), a
    with pytest.raises(ValueError, match="need n_terms >= 1"):
        trace_powers(IntMatrix.identity(2), 0)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_lefschetz_growth_bounded_by_mahler(seed, m):
    a = random_matrix(random.Random(seed), m, -2, 2)
    f = char_poly(a)
    d = m + 1
    seq = lefschetz_seq(a, True, 3 * d)
    best = max_growth_exact(seq, d).value
    bound = mahler_measure(f).value
    assert best <= bound + 1e-8
    squarefree = poly_gcd(f, f.derivative()).degree == 0
    if squarefree:
        assert best == pytest.approx(bound, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_primitive_implies_dominant_real(seed, m):
    rng = random.Random(seed)
    a = random_matrix(rng, m, 0, 2)
    if not primitivity(a):
        return
    f = char_poly(a)
    lead = next(i for i, c in enumerate(f.coeffs) if c != 0)
    stripped = IntPoly(f.coeffs[lead:])
    assert perron_check(stripped, n_net=5).dominant_real


def _faddeev_leverrier_oracle(a: IntMatrix) -> IntPoly:
    """The slow exact route: Faddeev-LeVerrier over Fractions."""
    m = a.dim
    af = [[Fraction(v) for v in row] for row in a.rows]
    mat = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    cs = [Fraction(1)]
    for k in range(1, m + 1):
        am = [
            [sum(af[i][l] * mat[l][j] for l in range(m)) for j in range(m)]
            for i in range(m)
        ]
        ck = -sum(am[i][i] for i in range(m)) / k
        cs.append(ck)
        mat = [
            [am[i][j] + (ck if i == j else 0) for j in range(m)]
            for i in range(m)
        ]
    assert all(c.denominator == 1 for c in cs)
    return IntPoly(tuple(int(cs[m - i]) for i in range(m + 1)))


def test_char_poly_matches_faddeev_leverrier_oracle():
    rng = random.Random(1933)
    big = 10**30
    cases = [
        IntMatrix(((0,),)),
        IntMatrix(((-7,),)),
        IntMatrix(tuple((0,) * 5 for _ in range(5))),
        IntMatrix(((1, 2, 3), (0, 0, 0), (4, 5, 6))),
        IntMatrix(((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0))),
        IntMatrix(((2, 4), (-1, -2))),
        IntMatrix(((big, -big, 1), (big - 1, 3, -big), (0, big, -big))),
    ]
    for _ in range(200):
        m = rng.randint(1, 9)
        cases.append(random_matrix(rng, m, -5, 5))
    for m in range(1, 6):
        cases.append(random_matrix(rng, m, -big, big))
    for a in cases:
        assert char_poly(a) == _faddeev_leverrier_oracle(a), a
    assert char_poly(cases[2]).coeffs == (0,) * 5 + (1,)
    assert char_poly(cases[4]).coeffs == (0,) * 4 + (1,)


def _wielandt_oracle(a: IntMatrix) -> bool:
    """Wielandt: A is primitive iff A^((m-1)^2 + 1) is entrywise positive."""
    m = a.dim
    return all(v > 0 for row in a.power((m - 1) ** 2 + 1).rows for v in row)


def _chain_matrix(m: int, chord: bool) -> IntMatrix:
    """The m-cycle 0 -> 1 -> ... -> m-1 -> 0, plus the chord m-1 -> 1: with
    it, Wielandt's matrix, whose exponent is exactly (m-1)^2 + 1."""
    rows = [[int(j == (i + 1) % m) for j in range(m)] for i in range(m)]
    if chord and m > 1:
        rows[m - 1][1] = 1
    return IntMatrix(rows)


def test_primitivity_matches_wielandt_oracle():
    rng = random.Random(1950)
    cases = []
    for m in range(1, 9):
        for _ in range(40):
            p = rng.random()
            cases.append(IntMatrix([[int(rng.random() < p) * rng.randint(1, 3) for _ in range(m)]
                                    for _ in range(m)]))
        for _ in range(5):
            perm = rng.sample(range(m), m)
            cases.append(IntMatrix([[int(j == perm[i]) for j in range(m)] for i in range(m)]))
        for _ in range(10):
            k = rng.randint(1, m)  # rows [k:] never reach columns [:k]
            cases.append(IntMatrix([[int(not (i >= k > j) and rng.random() < 0.7) for j in range(m)]
                                    for i in range(m)]))
        cases += [_chain_matrix(m, False), _chain_matrix(m, True)]
    verdicts = [primitivity(a) for a in cases]
    assert verdicts == [_wielandt_oracle(a) for a in cases]
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8
    assert primitivity(_chain_matrix(100, True))
    assert not primitivity(_chain_matrix(100, False))


def test_net_traces_of_cyclotomic_closed_form():
    """net_n(Phi_d) = n mu(d/n) if n | d, else 0."""
    for d in range(1, 61):
        expected = [n * moebius(d // n) if d % n == 0 else 0 for n in range(1, 61)]
        assert net_traces(cyclotomic(d), 60) == expected, d


def _padding_oracle(f, n_net=50, search_bound=24, max_degree=12, max_mult=3):
    """The enumeration cyclotomic_padding replaced, for an f with a dominant
    real root: every index multiset in order, each padded from scratch."""
    from lehmerlab.polynomial import euler_phi

    def gen(min_d, remaining):
        if remaining == 0:
            yield ()
            return
        for d in range(min_d, search_bound + 1):
            w = euler_phi(d)
            if w > remaining:
                continue
            for rest in gen(d, remaining - w):
                tup = (d,) + rest
                if tup.count(d) <= max_mult:
                    yield tup

    base = net_traces(f, n_net)
    if all(v >= 0 for v in base):
        return PaddingResult(IntPoly((1,)), (), tuple(base))
    vecs = {d: net_traces(cyclotomic(d), n_net) for d in range(1, search_bound + 1)}
    for total in range(1, max_degree + 1):
        for combo in gen(1, total):
            padded = list(base)
            for d in combo:
                for i in range(n_net):
                    padded[i] += vecs[d][i]
            if all(x >= 0 for x in padded):
                phi = IntPoly((1,))
                for d in combo:
                    phi = phi * cyclotomic(d)
                return PaddingResult(phi, combo, tuple(padded))
    return None


def test_cyclotomic_padding_matches_enumeration_oracle():
    rng = random.Random(2000)
    fs = [parse_poly(text) for text in
          ("t^5+t^3-2t^2-3t-3", "t^3+t^2-22t-40", "t^3-t^2+t-2", "t^2-t-1")]
    while len(fs) < 40:
        f = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(2, 9))) + (1,))
        if perron_check(f, n_net=1).dominant_real and min(net_traces(f, 50)) < 0:
            fs.append(f)
    bounds = [{}, {"max_mult": 1}, {"search_bound": 16, "max_degree": 8},
              {"n_net": 10, "search_bound": 40}]
    kinds = set()
    for f in fs:
        for b in bounds:
            got = cyclotomic_padding(f, **b)
            assert got == _padding_oracle(f, **b), (f, b)
            kinds.add("none" if got is None else "identity" if not got.indices else "padded")
    assert kinds == {"none", "identity", "padded"}


def _kor_oracle(a: IntMatrix, p: IntPoly, phi: IntPoly) -> bool:
    """The valuation comparison verify_kor_instance replaced: char(A) and
    p * Phi agree once the powers of t dividing each are stripped, and
    char(A) has at least as many."""
    def valuation(f):
        return next((i for i, c in enumerate(f.coeffs) if c), 0)

    c, target = char_poly(a), p * phi
    if not target:
        return False
    vc, vt = valuation(c), valuation(target)
    return (vc >= vt and IntPoly(c.coeffs[vc:]) == IntPoly(target.coeffs[vt:])
            and primitivity(a))


def test_verify_kor_matches_valuation_oracle():
    rng = random.Random(34)
    one, verdicts = IntPoly((1,)), []
    for _ in range(200):
        m = rng.randint(1, 5)
        a = IntMatrix([[rng.choice((0, 0, 1, 2)) for _ in range(m)] for _ in range(m)])
        c = char_poly(a)
        v = next(i for i, x in enumerate(c.coeffs) if x)
        stripped = IntPoly(c.coeffs[v:])
        for p, phi in [(c, one), (stripped, one), (stripped.shifted(1), one), (IntPoly(()), one),
                       (stripped, parse_poly("t+1")), (c + IntPoly((1,)), one)]:
            got = verify_kor_instance(a, p, phi)
            assert got == _kor_oracle(a, p, phi), (a, p, phi)
            verdicts.append(got)
    assert 0 < sum(verdicts) < len(verdicts)
