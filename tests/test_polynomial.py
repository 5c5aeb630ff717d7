import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lehmerlab import polynomial as P
from lehmerlab.polynomial import (
    IntPoly,
    LaurentPoly,
    PrecisionError,
    bareiss_det,
    cyclotomic,
    irreducibility_certificate,
    is_cyclotomic_product,
    is_reciprocal,
    lehmer_polynomial,
    mahler_measure,
    parse_poly,
    poly_det,
    poly_from_roots,
    roots,
)

LEHMER_COEFFS = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)


def small_polys(max_deg=6, lo=-5, hi=5, min_deg=0):
    return st.lists(st.integers(lo, hi), min_size=min_deg + 1, max_size=max_deg + 1).map(
        lambda c: IntPoly(tuple(c))
    )


def test_arith_basics():
    t_minus = IntPoly((-1, 1))
    t_plus = IntPoly((1, 1))
    assert (t_minus * t_plus).coeffs == (-1, 0, 1)
    assert (t_minus + t_plus).coeffs == (0, 2)
    assert (t_minus - t_plus).coeffs == (-2,)
    f = IntPoly((2, 0, 1))
    assert f.evaluate(3) == 11
    assert f.evaluate(Fraction(1, 2)) == Fraction(9, 4)


def test_divmod_and_gcd():
    f = parse_poly("t^2-1")
    g = parse_poly("t-1")
    q, r = f.divmod_q(g)
    assert q == (Fraction(1), Fraction(1)) and r == ()
    assert P.poly_gcd(f, g) == g
    # gcd normalization: primitive, positive leading coefficient
    assert P.poly_gcd(IntPoly((-4, 4)), IntPoly((-2, 2))).coeffs == (-1, 1)
    assert f.exact_div(g).coeffs == (1, 1)
    assert f.try_div(parse_poly("t-2")) is None


def test_lehmer_polynomial_values():
    L = lehmer_polynomial()
    assert L.coeffs == LEHMER_COEFFS
    assert L.degree == 10
    assert is_reciprocal(L)
    # direct coefficient summation oracle for evaluation at 1
    assert L.evaluate(1) == sum(LEHMER_COEFFS) == -1


def test_roots_trivial():
    rl = roots(parse_poly("t^2-1"))
    vals = sorted(z.real for z, _ in rl)
    assert vals == [-1.0, 1.0]
    assert all(r <= 1e-10 for r in rl.radii)

    rl = roots(poly_from_roots([2, 3]))
    assert sorted(z.real for z, _ in rl) == [2.0, 3.0]


def test_roots_lehmer_salem():
    rl = roots(lehmer_polynomial(), 1e-10)
    real_big = [z for z, _ in rl if abs(z.imag) < 1e-9 and z.real > 1]
    assert len(real_big) == 1
    assert abs(real_big[0].real - 1.17628) < 1e-4
    assert len(rl) == 10


def test_roots_multiplicity_and_cardinality():
    f = poly_from_roots([1, 1, 2]) * IntPoly((0, 1))  # t(t-1)^2(t-2)
    rl = roots(f)
    assert len(rl) == 4
    ones = [z for z, _ in rl if abs(z - 1) < 1e-8]
    assert len(ones) == 2


def test_roots_errors():
    with pytest.raises(ValueError):
        roots(IntPoly())
    with pytest.raises(ValueError):
        roots(parse_poly("t-1"), tol=0)


def test_mahler_examples():
    m = mahler_measure(lehmer_polynomial())
    assert abs(m.value - 1.17628) < 1e-4
    assert m.lower <= m.value <= m.upper
    assert mahler_measure(parse_poly("t-2")).value == pytest.approx(2.0, abs=1e-12)
    # oracle: the only roots of modulus > 1 are 2 and 3, so M = 6
    assert mahler_measure(poly_from_roots([1, 2, 3])).value == pytest.approx(6.0, abs=1e-9)
    assert mahler_measure(IntPoly((7,))).value == 7.0
    big = mahler_measure(parse_poly("t-3"))
    assert big.exact  # root certified clear of the unit annulus


def test_mahler_fraction_scaling():
    # M(t - 3/2) = 3/2 via denominator clearing
    v = P.mahler_of_fraction_poly([Fraction(-3, 2), Fraction(1)])
    assert v == pytest.approx(1.5, rel=1e-12)


def test_cyclotomic_table():
    assert cyclotomic(1).coeffs == (-1, 1)
    assert cyclotomic(2).coeffs == (1, 1)
    assert cyclotomic(3).coeffs == (1, 1, 1)
    assert cyclotomic(6).coeffs == (1, -1, 1)
    assert cyclotomic(12).coeffs == (1, 0, -1, 0, 1)
    assert P.euler_phi(12) == 4
    assert P.euler_phi(1) == 1


def test_is_cyclotomic_product():
    assert is_cyclotomic_product(parse_poly("t^2+t+1"))
    assert is_cyclotomic_product(parse_poly("t^4-1"))
    assert is_cyclotomic_product(cyclotomic(5) * cyclotomic(5) * cyclotomic(8))
    assert not is_cyclotomic_product(lehmer_polynomial())
    assert not is_cyclotomic_product(parse_poly("t^2-3t+1"))
    assert not is_cyclotomic_product(parse_poly("t^3"))
    with pytest.raises(ValueError):
        is_cyclotomic_product(IntPoly((2, 2)))


def test_power_substitution_order():
    assert P.power_substitution_order(parse_poly("t^4+t^2+1")) == 2
    assert P.power_substitution_order(lehmer_polynomial()) == 1
    assert P.power_substitution_order(parse_poly("t^6")) == 6
    assert P.power_substitution_order(IntPoly((5,))) == 1
    g = P.compress_power(parse_poly("t^4+t^2+1"), 2)
    assert g.coeffs == (1, 1, 1)


def test_irreducibility_certificates():
    c = irreducibility_certificate(parse_poly("t^2+1"))
    assert c.status == "irreducible"
    # oracle: t^2+1 factors mod 2 as (t+1)^2 but has no root mod 3
    assert c.witness_prime == 3

    c = irreducibility_certificate(parse_poly("t^2-1"))
    assert c.status == "reducible"
    assert c.factor is not None and parse_poly("t^2-1").try_div(c.factor) is not None

    c = irreducibility_certificate(lehmer_polynomial())
    assert c.status in ("irreducible", "inconclusive")

    # x^4+1 is irreducible over Z yet reducible mod every prime: sound i.e. never "reducible"
    c = irreducibility_certificate(parse_poly("t^4+1"))
    assert c.status != "reducible"

    c = irreducibility_certificate(cyclotomic(3) * cyclotomic(4))
    assert c.status == "reducible"

    with pytest.raises(ValueError):
        irreducibility_certificate(IntPoly((2, 2)))


def test_is_reciprocal():
    assert is_reciprocal(parse_poly("t^2+3t+1"))
    assert not is_reciprocal(parse_poly("t-2"))
    assert is_reciprocal(IntPoly((1, -3, 3, -1)))  # anti-palindrome counts


def test_laurent_canonical():
    # -t^-2 (t^2 + t) = -1 - t^-1 : canonical form 1 + t
    f = LaurentPoly((-1, -1), -1)
    assert f.canonical() == LaurentPoly((1, 1), 0)
    assert f.canonical().to_int_poly().coeffs == (1, 1)
    with pytest.raises(ValueError):
        LaurentPoly((1,), -1).to_int_poly()


def test_non_integer_coefficients_rejected():
    for bad in (1.5, 1.0, Fraction(1), "2", None):
        with pytest.raises(ValueError, match=r"coefficient of t\^1 = .* is not an integer"):
            IntPoly((1, bad))
    with pytest.raises(ValueError, match=r"t\^0 = 1.5 is not an integer"):
        IntPoly((1.5, -1.7, 1))
    with pytest.raises(ValueError, match=r"t\^1 = -1.7 is not an integer"):
        IntPoly((1, -1.7, 1))
    with pytest.raises(ValueError, match=r"t\^0 = 0.5 is not an integer"):
        LaurentPoly((0.5, 1), 0)
    with pytest.raises(ValueError, match=r"t\^-2 = 2.0 is not an integer"):
        LaurentPoly((1, 2.0), -3)
    for bad in (0.5, 1.0, "0", None):
        with pytest.raises(ValueError, match=r"min_deg = .* is not an integer"):
            LaurentPoly((1, 2), bad)
    assert LaurentPoly((1, 2), np.int64(-1)) == LaurentPoly((1, 2), -1)
    assert type(LaurentPoly((1, 2), np.int64(-1)).min_deg) is int
    assert type(LaurentPoly((1,), True).min_deg) is int
    assert IntPoly((True, np.int64(-3), False)).coeffs == (1, -3)
    assert LaurentPoly((np.int8(0), 1, True), -2) == LaurentPoly((1, 1), -1)
    assert type(IntPoly((np.int64(2),)).coeffs[0]) is int


def test_canonical_lehmer_negated():
    L = lehmer_polynomial()
    # oracle: substitute -t by flipping odd coefficients
    neg = IntPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(L.coeffs)))
    can = LaurentPoly.from_int(neg).canonical()
    assert can.coeffs[0] > 0
    assert can.min_deg == 0
    assert mahler_measure(can.to_int_poly()).value == pytest.approx(
        mahler_measure(L).value, rel=1e-9
    )


def test_squarefree_decomposition():
    f = poly_from_roots([1, 1, 2]) * 3
    content, parts = P.squarefree_decomposition(f)
    assert content == 3
    rebuilt = IntPoly((1,))
    for g, m in parts:
        rebuilt = rebuilt * g**m
        assert P.poly_gcd(g, g.derivative()).degree == 0
    assert rebuilt * content == f


def test_parse_and_format_roundtrip():
    L = lehmer_polynomial()
    s = P.format_poly(L)
    assert s == "t^10+t^9-t^7-t^6-t^5-t^4-t^3+t+1"
    assert parse_poly(s) == L
    assert parse_poly("1,1,0,-1,-1,-1,-1,-1,0,1,1") == L
    assert parse_poly("x^2 - 2x + 1").coeffs == (1, -2, 1)
    with pytest.raises(ValueError):
        parse_poly("")
    with pytest.raises(ValueError):
        parse_poly("t^-1 + 1")


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_mahler_multiplicative(f, g):
    if not f or not g:
        return
    mf, mg, mfg = mahler_measure(f), mahler_measure(g), mahler_measure(f * g)
    assert mfg.value == pytest.approx(mf.value * mg.value, rel=1e-8, abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]), min_size=1, max_size=4))
def test_kronecker_forward(ds):
    f = IntPoly((1,))
    for d in ds:
        f = f * cyclotomic(d)
    assert is_cyclotomic_product(f)
    assert mahler_measure(f).value == pytest.approx(1.0, abs=1e-8)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-1, 1), min_size=1, max_size=10))
def test_kronecker_converse(tail):
    f = IntPoly(tuple(tail) + (1,))
    if f.degree < 1 or f.coeffs[0] == 0:
        return
    if mahler_measure(f).value < 1 + 1e-9:
        assert is_cyclotomic_product(f)


@settings(max_examples=60, deadline=None)
@given(small_polys(max_deg=5), st.integers(-6, 6))
def test_canonical_monomial_invariance(f, j):
    if not f:
        return
    lf = LaurentPoly.from_int(f)
    shifted = LaurentPoly(lf.coeffs, lf.min_deg + j)
    sign = -1 if j % 2 else 1
    assert (sign * shifted).canonical() == lf.canonical()
    assert lf.canonical().canonical() == lf.canonical()


@settings(max_examples=80, deadline=None)
@given(small_polys(max_deg=6))
def test_monic_mahler_at_least_one(f):
    if not f:
        return
    g = IntPoly(f.coeffs[:-1] + (1,))  # force monic
    assert mahler_measure(g).value >= 1 - 1e-9



def _expand_det(rows):
    """Cofactor expansion along the first row, the definition itself."""
    if not rows:
        return IntPoly((1,))
    total = IntPoly()
    for j, p in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = p * _expand_det(minor)
        total = total - term if j % 2 else total + term
    return total


def test_poly_det_edge_cases():
    one, t = IntPoly((1,)), IntPoly((0, 1))
    assert poly_det([]) == one
    assert bareiss_det([]) == 1
    assert poly_det([[IntPoly()]]) == IntPoly()
    assert poly_det([[t, one], [IntPoly(), IntPoly()]]) == IntPoly()
    assert poly_det([[one, t, t], [IntPoly(), IntPoly(), IntPoly()], [t, one, one]]) == IntPoly()
    assert bareiss_det([[0, 2], [3, 4]]) == -6
    assert bareiss_det([[1, 2], [2, 4]]) == 0
    # 1 x 1 entries on the balanced-digit boundary: the bound is the entry's
    # own 1-norm, so the largest coefficient sits just below half the base.
    for k in range(0, 70):
        for c in (2**k, 2**k - 1):
            for sign in (1, -1):
                for f in (
                    IntPoly((sign * c,)),
                    IntPoly((sign * c, -sign * c)),
                    IntPoly((0, sign * c, 0, -sign * c)),
                ):
                    assert poly_det([[f]]) == f


def test_poly_det_matches_cofactor_expansion():
    rng = random.Random(1936)
    for _ in range(150):
        m = rng.randint(1, 4)
        rows = [
            [
                IntPoly(tuple(rng.randint(-9, 9) for _ in range(rng.randint(0, 4))))
                for _ in range(m)
            ]
            for _ in range(m)
        ]
        if rng.random() < 0.2:
            rows[rng.randrange(m)] = [IntPoly()] * m
        if rng.random() < 0.2:
            big = 10 ** rng.randint(10, 40)
            rows[0] = [p * big for p in rows[0]]
        assert poly_det(rows) == _expand_det(rows)


def _fraction_euclid_gcd(f, g):
    """The slow exact route: Euclid's algorithm over Fractions."""
    a, b = f, g
    if not a:
        a, b = b, a
    if not b:
        if not a:
            return IntPoly()
        p = a.primitive_part()
        return -p if p.leading < 0 else p
    ra = [Fraction(c) for c in a.coeffs]
    rb = [Fraction(c) for c in b.coeffs]
    while rb:
        ra, rb = rb, _qmod(ra, rb)
    num = math.gcd(*(abs(c.numerator) for c in ra))
    den = math.lcm(*(c.denominator for c in ra))
    p = IntPoly(tuple(int(c * den) // num for c in ra))
    return -p if p.leading < 0 else p


def _qmod(a, b):
    rem = list(a)
    d = len(b) - 1
    lead = b[-1]
    while len(rem) - 1 >= d:
        q = rem[-1] / lead
        for i in range(d + 1):
            rem[len(rem) - 1 - d + i] -= q * b[i]
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return rem


def _fraction_try_div(f, g):
    """Exact quotient through the rational long division divmod_q."""
    quo, rem = f.divmod_q(g)
    if rem or any(q.denominator != 1 for q in quo):
        return None
    return IntPoly(tuple(int(q) for q in quo))


def test_poly_gcd_and_try_div_match_fraction_oracles():
    rng = random.Random(1971)

    def rand_poly(lo, hi):
        return IntPoly(tuple(rng.randint(-6, 6) for _ in range(rng.randint(lo, hi))))

    cases = [
        (IntPoly(), IntPoly()),
        (IntPoly(), IntPoly((0, -6, 4))),
        (IntPoly((-9, 3, -6)), IntPoly()),
        (IntPoly((7,)), IntPoly((0, 5))),
        (IntPoly((-4,)), IntPoly((-6,))),
    ]
    for _ in range(240):
        f, g, h = rand_poly(0, 7), rand_poly(0, 7), rand_poly(1, 5)
        kind = rng.randrange(4)
        if kind == 0:  # a common factor h, squared in f
            f, g = h * h * f, h * g
        elif kind == 1:  # nontrivial content, either sign
            f = f * h * rng.choice((-12, 10**25, 6))
            g = g * h * rng.choice((-4, 9, 3 * 10**18))
        elif kind == 2:  # negative leading coefficients
            f, g = -(f * h) if f else f, -(g * h) if g else g
        cases.append((f, g))
    for f, g in cases:
        expected = _fraction_euclid_gcd(f, g)
        assert P.poly_gcd(f, g) == expected, (f, g)
        assert P.poly_gcd(g, f) == expected, (f, g)
        if g:
            assert f.try_div(g) == _fraction_try_div(f, g), (f, g)
            assert (f * g).try_div(g) == f, (f, g)
            if expected:
                assert f.try_div(expected) == _fraction_try_div(f, expected), (f, g)
    with pytest.raises(ZeroDivisionError):
        IntPoly((1, 1)).try_div(IntPoly())


def test_squarefree_decomposition_degree_120():
    rng = random.Random(120)

    def rand_poly(d):
        f = IntPoly(tuple(rng.randint(-3, 3) for _ in range(d)) + (rng.choice((1, 2, 3)),))
        assert P.poly_gcd(f, f.derivative()).degree == 0
        return f

    g, h = rand_poly(30), rand_poly(60)
    assert P.poly_gcd(g, h).degree == 0
    f = -6 * g * g * h
    content, parts = P.squarefree_decomposition(f)
    assert content == -6 * g.content() ** 2 * h.content()
    assert parts == [(h.primitive_part(), 1), (g.primitive_part(), 2)]
