import itertools
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lehmerlab import _circle as C
from lehmerlab import _factor as F
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
    # zero and the other integer roots are recognized exactly in their disks
    assert rl.roots == (2, 1, 1, 0) and rl.radii == (0.0,) * 4


def _roots_order_cases(rng):
    """Seeded products of factors whose roots tie in modulus: conjugate
    pairs, the real pair +-sqrt(2), roots of unity, repeated roots."""
    pool = ["t^2-2", "t^2+1", "t^2+t+1", "t^2-t-1", "t^3-t-1", "t^2-2t+5", "t-1", "t+2"]
    for _ in range(30):
        f = parse_poly(rng.choice(pool[:2]))
        for _ in range(rng.randint(1, 3)):
            f = f * parse_poly(rng.choice(pool))
        if rng.random() < 0.3:
            f = f * IntPoly(tuple(rng.randint(-3, 3) for _ in range(3)) + (1,))
        yield f


def test_roots_come_in_contract_order():
    """roots returns its pairs sorted by (-|z|, Re z, Im z) of the centers,
    so readers take the first k roots as the k largest moduli."""
    key = lambda pair: (-abs(pair[0]), pair[0].real, pair[0].imag)
    assert roots(parse_poly("t^2+1")).roots == (-1j, 1j)
    fs = [parse_poly("t^2-2"), parse_poly("t^4+1"), parse_poly("t^3-t-1")]
    fs += _roots_order_cases(random.Random(2020))
    repeated = 0
    for f in fs:
        pairs = list(roots(f))
        assert pairs == sorted(pairs, key=key), f
        assert abs(pairs[0][0]) == max(abs(z) for z, _ in pairs)
        repeated += len(pairs) != len(set(pairs))
    assert repeated >= 10  # most seeded cases hold a repeated root


def test_roots_errors():
    with pytest.raises(ValueError):
        roots(IntPoly())
    with pytest.raises(ValueError):
        roots(parse_poly("t-1"), tol=0)
    for tol in (math.inf, math.nan, -1e-8):
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            roots(parse_poly("t-1"), tol=tol)


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
    # M(t - 3/2) = M(2t - 3) / 2 = 3/2, from the primitive integer char
    from lehmerlab.sequence import ExactSeq, max_growth_exact

    got = max_growth_exact(ExactSeq.of([Fraction(3, 2) ** k for k in range(10)]), 3)
    assert got.min_poly.coeffs == (-3, 2)
    assert got.value == pytest.approx(1.5, rel=1e-12)


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


def _cyclotomic_scan_oracle(f):
    """The former ``is_cyclotomic_product``: divide out every Phi_d with
    phi(d) <= deg f (all such d lie below 2*deg^2), with multiplicity."""
    g = f
    if g.degree == 0:
        return True
    if g.coeffs[0] == 0:
        return False
    n = g.degree
    for d in range(1, 2 * n * n + 1):
        if P.euler_phi(d) > g.degree:
            continue
        phi_d = cyclotomic(d)
        while g.degree >= phi_d.degree:
            q = g.try_div(phi_d)
            if q is None:
                break
            g = q
        if g.degree == 0:
            break
    return g == IntPoly((1,))


_NON_CYCLOTOMIC = (
    lehmer_polynomial(),
    parse_poly("t^4 - t^3 - t^2 - t + 1"),  # Salem
    parse_poly("t^2 - 3t + 1"),
    parse_poly("t^3 - t - 1"),  # negative constant term
    parse_poly("t^2 - 2"),
    parse_poly("t + 2"),
    parse_poly("t^2 + t - 1"),
    parse_poly("t"),  # f(0) = 0
    IntPoly((1, -(10**100), 1)),
)


def test_is_cyclotomic_product_matches_scan_oracle():
    """Graeffe iteration against the trial-division scan on seeded
    products of cyclotomic factors with multiplicity, 2-power orders
    among them, with and without a non-cyclotomic factor."""
    cases = [
        IntPoly((1,)),
        cyclotomic(256),
        parse_poly("t - 1") ** 12,
        IntPoly((-2,) + (0,) * 40 + (1,)),
        lehmer_polynomial() * cyclotomic(15) * cyclotomic(30),
        cyclotomic(105) * cyclotomic(210),
    ]
    cases += list(_NON_CYCLOTOMIC)
    rng = random.Random(1857)
    for _ in range(500):
        f = IntPoly((1,))
        for _ in range(rng.randrange(1, 4)):
            d = rng.choice((rng.randrange(1, 91), 2 ** rng.randrange(6), 3 * 2 ** rng.randrange(5)))
            if P.euler_phi(d) <= 24:
                f = f * cyclotomic(d) ** rng.randrange(1, 4)
        if f.degree > 60:
            continue
        if rng.random() < 0.4:
            f = f * rng.choice(_NON_CYCLOTOMIC)
        cases.append(f)
    verdicts = [is_cyclotomic_product(f) for f in cases]
    assert verdicts == [_cyclotomic_scan_oracle(f) for f in cases]
    assert len(cases) >= 400 and 100 <= sum(verdicts) <= len(cases) - 50


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

    # Lehmer's polynomial splits 5 + 5 mod 2 and 2 + 8 mod 3: no degree
    # but 0 and 10 is a subset sum of both patterns.
    c = irreducibility_certificate(lehmer_polynomial())
    assert (c.status, c.witness_prime, c.factor) == ("irreducible", 3, None)

    c = irreducibility_certificate(cyclotomic(3) * cyclotomic(4))
    assert c.status == "reducible"

    # A square factor comes from the Yun decomposition.
    c = irreducibility_certificate(lehmer_polynomial() ** 2 * parse_poly("t-3"))
    assert (c.status, c.witness_prime, c.factor) == ("reducible", None, lehmer_polynomial())

    # A leading coefficient divisible by every prime of _WITNESS_PRIMES.
    c = irreducibility_certificate(IntPoly((1, math.prod(F._WITNESS_PRIMES))))
    assert (c.status, c.witness_prime) == ("irreducible", 101)

    with pytest.raises(ValueError):
        irreducibility_certificate(IntPoly((2, 2)))


class _OracleBudget(Exception):
    pass


def _kronecker_oracle(f, budget=300):
    """Kronecker's search for a least-degree factor by interpolation at
    small points: every combination of divisors of the values, up to the
    Mignotte bound.  Returns None when f has no proper factor and raises
    _OracleBudget when the search would take more than budget steps."""
    n = f.degree
    xs_pool = [0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5]
    spent = 0
    for d in range(1, n // 2 + 1):
        xs, ys = [], []
        for x in xs_pool:
            v = f.evaluate(x)
            if v == 0:
                return IntPoly((-x, 1))
            xs.append(x)
            ys.append(v)
            if len(xs) == d + 1:
                break
        bound = F._mignotte_bound(f, d)
        divlists = []
        for v in ys:
            ds = [x for x in P._divisors(abs(v)) if x <= bound]
            divlists.append([s * x for x in ds for s in (1, -1)])
        for combo in itertools.product(*divlists):
            spent += 1
            if spent > budget:
                raise _OracleBudget
            g = _lagrange_int(xs, combo, d)
            if g is None or g.degree != d:
                continue
            if any(abs(c) > bound for c in g.coeffs):
                continue
            if g.primitive_part().degree >= 1 and f.try_div(g.primitive_part()) is not None:
                return g.primitive_part()
    return None


def _lagrange_int(xs, ys, d):
    coeffs = [Fraction(0)] * (d + 1)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= xj * basis[k + 1]
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k in range(len(basis)):
            coeffs[k] += w * basis[k]
    if any(c.denominator != 1 for c in coeffs):
        return None
    return IntPoly(tuple(int(c) for c in coeffs))


def _oracle_cases():
    """Seeded primitive inputs of degree <= 12: products of small random
    factors, with and without repeats, and single random polynomials."""
    rng = random.Random(1978)
    cases = []
    while len(cases) < 120:
        k = rng.choice((1, 1, 2, 3))
        f = IntPoly((1,))
        for _ in range(k):
            d = rng.randint(1, 12 // k)
            c = [rng.randint(-3, 3) for _ in range(d)] + [rng.choice((1, 1, 2, -1))]
            f = f * (IntPoly(tuple(c)) ** rng.choice((1, 1, 1, 2)))
        f = f.primitive_part()
        if 1 <= f.degree <= 12:
            cases.append(f)
    return cases


def test_certificate_agrees_with_the_kronecker_oracle():
    verdicts = {"irreducible": 0, "reducible": 0}
    factored = 0
    for f in _oracle_cases():
        try:
            g = _kronecker_oracle(f)
        except _OracleBudget:
            continue
        c = irreducibility_certificate(f)
        assert c.status == ("irreducible" if g is None else "reducible"), f
        verdicts[c.status] += 1
        if g is not None:
            assert f.try_div(c.factor) is not None and c.factor.leading > 0
            assert c.factor.content() == 1
            if P.poly_gcd(f, f.derivative()).degree == 0:
                factored += 1
                assert c.factor.degree == g.degree, f
    assert verdicts["irreducible"] >= 15 and verdicts["reducible"] >= 60 and factored >= 30, (verdicts, factored)


def _product_cases():
    """Seeded products of known factors up to degree 64, monic and not,
    with coefficients up to 2^40."""
    rng = random.Random(1969)
    cases = []
    for i in range(16):
        bits, monic = (1, 4, 20, 40)[i % 4], i % 3 != 0
        degs, total = [], rng.randint(4, 64)
        while sum(degs) < total:
            degs.append(rng.randint(1, total - sum(degs)))
        if len(degs) == 1:
            degs = [1, degs[0] - 1] if degs[0] > 1 else [1, 1]
        f = IntPoly((1,))
        for d in degs:
            c = [rng.randint(-(2**bits), 2**bits) for _ in range(d)]
            c.append(1 if monic else rng.randint(1, 2**bits))
            c[0] = c[0] or 1
            f = f * IntPoly(tuple(c))
        cases.append(f.primitive_part())
    return cases


@pytest.mark.parametrize("f", _product_cases(), ids=lambda f: f"deg{f.degree}")
def test_products_are_never_certified_irreducible(f):
    c = irreducibility_certificate(f)
    assert c.status == "reducible" and c.witness_prime is None
    assert 0 < c.factor.degree < f.degree
    assert c.factor.content() == 1 and c.factor.leading > 0
    assert f.try_div(c.factor) is not None


def _swinnerton_dyer(primes):
    """prod (t + e_1 sqrt(p_1) + ... ) over all signs: f <- A^2 - p B^2,
    where f(t - y) = A + y B mod y^2 - p."""
    f = IntPoly((0, 1))
    for p in primes:
        a, b = IntPoly(), IntPoly()
        # (t - y)^i as A_i + y B_i, so f(t - y) = sum c_i (A_i + y B_i).
        ai, bi = IntPoly((1,)), IntPoly()
        for c in f.coeffs:
            a, b = a + ai * c, b + bi * c
            ai, bi = ai * IntPoly((0, 1)) - bi * p, bi * IntPoly((0, 1)) - ai
        f = a * a - b * b * p
    return f


def test_swinnerton_dyer_and_t4_plus_1_are_irreducible():
    # Both split into factors of degree <= 2 modulo every prime, so no
    # degree set closes and recombination has to prove them irreducible.
    s4 = _swinnerton_dyer((2, 3, 5, 7))
    assert s4.coeffs[::2] == (46225, -5596840, 13950764, -7453176, 1513334, -141912, 6476, -136, 1)
    for f in (s4, parse_poly("t^4+1"), _swinnerton_dyer((2, 3))):
        c = irreducibility_certificate(f)
        assert c.status == "irreducible" and c.factor is None
        assert c.witness_prime in F._WITNESS_PRIMES


def _full_bound_hensel_lift(f, facs, p, big):
    """The reference lift: f = prod u_i mod big, each half of the factor
    list lifted from p to big before the halves are split again."""
    if len(facs) == 1:
        return [f]
    k = len(facs) // 2
    g, h = F._zm_prod(facs[:k], p), F._zm_prod(facs[k:], p)
    s, t = F._gf_bezout(g, h, p)
    m = p
    while m < big:
        g, h, s, t = F._hensel_step(f, g, h, s, t, m)
        m *= m
    return _full_bound_hensel_lift(g, facs[:k], p, big) + _full_bound_hensel_lift(h, facs[k:], p, big)


def _full_bound_zassenhaus(f, degset, p, facs):
    """The reference recombination: every factor lifted once, past twice
    |lc| times the Mignotte bound for degree n - 1, before any subset."""
    n, lc, f0 = f.degree, f.leading, f.coeffs[0]
    bound = 2 * abs(lc) * F._mignotte_bound(f, n - 1)
    big = p
    while big <= bound:
        big *= big
    inv = pow(lc, -1, big)
    lifted = _full_bound_hensel_lift([c * inv % big for c in f.coeffs], facs, p, big)
    degs = [len(u) - 1 for u in lifted]
    for total in range(1, n // 2 + 1):
        if not degset >> total & 1:
            continue
        for subset in F._subsets(degs, total):
            c0 = lc * math.prod(lifted[i][0] for i in subset) % big
            c0 -= big if 2 * c0 > big else 0
            if lc * f0 and (not c0 or lc * f0 % c0):
                continue
            g = [lc * c % big for c in F._zm_prod([lifted[i] for i in subset], big)]
            g = IntPoly(tuple(c - big if 2 * c > big else c for c in g)).primitive_part()
            if f.try_div(g) is not None:
                return P.IrreducibilityCertificate("reducible", factor=-g if g.leading < 0 else g)
    return P.IrreducibilityCertificate("irreducible", witness_prime=p)


def _recombination_cases():
    """Seeded primitive inputs that reach recombination: products of two to
    four random factors with leading coefficients 1, 2 and 6; two distinct
    least-degree factors (linear, or quadratic with a non-square
    discriminant) times a larger one, where the subset order picks the
    factor; and inputs with many factors modulo every prime (cyclotomic
    and Swinnerton-Dyer polynomials, alone and times random factors)."""
    rng = random.Random(1517)

    def factor(d, lc):
        c = [rng.randint(-5, 5) for _ in range(d)] + [lc]
        c[0] = c[0] or rng.choice((-1, 1))
        return IntPoly(tuple(c))

    def irreducible(d):
        while True:
            g = factor(d, rng.choice((1, 2, 3)))
            disc = g.coeffs[1] ** 2 - 4 * g.coeffs[0] * g.coeffs[-1]
            if d == 1 or disc < 0 or math.isqrt(disc) ** 2 != disc:
                return g

    many = [cyclotomic(m) for m in (8, 12, 15, 16, 20, 21, 24, 28, 30, 36)]
    many += [_swinnerton_dyer((2, 3)), _swinnerton_dyer((2, 5)), _swinnerton_dyer((3, 7)), _swinnerton_dyer((2, 3, 5))]
    cases = list(many)
    for i in range(150):
        lc = (1, 2, 6)[i % 3]
        fs = [factor(rng.randint(1, 6), rng.choice((1, lc))) for _ in range(rng.randint(2, 4))]
        fs[0] = factor(fs[0].degree, lc)
        cases.append(math.prod(fs, start=IntPoly((1,))))
    for i in range(100):
        d = 1 + i % 2
        g1 = irreducible(d)
        g2 = irreducible(d)
        if g2 == g1 or g2 == -g1:
            continue
        cases.append(g1 * g2 * factor(rng.randint(d + 1, 7), rng.choice((1, 2, 6))))
    for i in range(80):
        other = rng.choice(many) if i % 2 else factor(rng.randint(1, 5), rng.choice((1, 2, 6)))
        cases.append(rng.choice(many) * other)
    return [f.primitive_part() for f in cases]


def test_staged_lift_recombines_as_the_full_bound_lift(monkeypatch):
    """_zassenhaus, lifting only as far as each total needs, returns the
    certificate of the reference lift to the degree-(n - 1) bound, on the
    same factors at the same prime."""
    staged, calls = F._zassenhaus, []

    def both(f, degset, p, facs):
        c = staged(f, degset, p, facs)
        assert c == _full_bound_zassenhaus(f, degset, p, facs), f
        calls.append((c.status, f.leading % 2 == 0, f.leading % 6 == 0, len(facs)))
        return c

    monkeypatch.setattr(F, "_zassenhaus", both)
    # Every Z/m product of the lifts, the Bezout steps and the subset
    # products, against list convolution.
    products, mul = [], F._zm_mul

    def checked(a, b, m):
        c = mul(a, b, m)
        assert c == _list_zm_mul(a, b, m), (a, b, m)
        products.append(m)
        return c

    monkeypatch.setattr(F, "_zm_mul", checked)
    for f in _recombination_cases():
        irreducibility_certificate(f)
    assert len(calls) >= 300, len(calls)
    assert sum(s == "irreducible" for s, *_ in calls) >= 10
    assert sum(two for _, two, _, _ in calls) >= 30 and sum(six for _, _, six, _ in calls) >= 30
    assert sum(k >= 6 for *_, k in calls) >= 30
    assert len(products) >= 10000 and max(products).bit_length() > 64, (len(products), max(products).bit_length())


def _convolution_frobenius_matrix(fm, p):
    """Berlekamp's matrix one row at a time: x^p by repeated squaring and
    row i as row i-1 times x^p, each product an np.convolve whose columns
    of degree >= n reduce by the rows of x^n .. x^(2n-2) mod f."""
    n = len(fm) - 1
    low = np.array(fm[:n], dtype=np.int64)
    high = np.zeros((max(n - 1, 0), n), dtype=np.int64)
    row = -low % p
    for j in range(n - 1):
        high[j] = row
        row = (np.concatenate(([0], row[:-1])) - row[-1] * low) % p

    def mulmod(a, b):
        c = np.convolve(a, b) % p
        return (c[:n] + c[n:] @ high) % p

    one = np.zeros(n, dtype=np.int64)
    one[0] = 1
    base = np.roll(one, 1) if n > 1 else -low % p
    xp, e = one, p
    while e:
        if e & 1:
            xp = mulmod(xp, base)
        base = mulmod(base, base)
        e >>= 1
    rows = [one]
    for _ in range(n - 1):
        rows.append(mulmod(rows[-1], xp))
    return np.array(rows)


def _list_zm_mul(a, b, m):
    """a b mod m by list convolution, one row of products per entry of a."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        out[i : i + len(b)] = [o + x * y for o, y in zip(out[i : i + len(b)], b)]
    return F._zm(out, m)


def _one_gcd_per_degree(fm, q, p):
    """The distinct-degree split with one gcd of what is left of f with
    x^(p^d) - x per degree d, while 2d <= its degree."""
    n = len(fm) - 1
    parts, h = [], fm
    v = np.zeros(n, dtype=np.int64)
    if n > 1:
        v[1] = 1
    d = 0
    while 2 * (d + 1) <= len(h) - 1:
        d += 1
        v = v @ q % p
        g = F._gf_gcd(h, F._zm_lin(v.tolist(), [0, 1], p, -1), p)
        if len(g) > 1:
            parts.append((d, g))
            h = F._zm_divmod(h, g, p)[0]
    if len(h) > 1:
        parts.append((len(h) - 1, h))
    return parts


def test_frobenius_matrix_and_distinct_degree_match_their_oracles(monkeypatch):
    """Berlekamp's matrix against the convolution oracle and the
    distinct-degree split against one gcd per degree: every prime p up to
    997 at degrees 1-70 (p below, at and above 2n), products of small
    factors mod p, and every matrix certify builds, among them at p = 101
    for leading coefficients that all 25 witness primes divide."""
    rng = random.Random(997)
    primes = [q for q in range(2, 998) if all(q % d for d in range(2, math.isqrt(q) + 1))]
    splits = set()

    def check(fm, p):
        q = F._frobenius_matrix(F._x_powers(fm, p), p)
        assert (q == _convolution_frobenius_matrix(fm, p)).all(), (fm, p)
        if len(F._gf_gcd(fm, F._zm([i * c for i, c in enumerate(fm)][1:], p), p)) == 1:
            parts = F._distinct_degree(fm, q, F._x_powers(fm, p), p)
            assert parts == _one_gcd_per_degree(fm, q, p), (fm, p)
            splits.add(tuple(d for d, _ in parts))

    for p in primes:
        # x^p is row p of the table for p < 2n, else repeated squaring.
        edges = [(p - 1) // 2, (p + 1) // 2] if p < 140 else []
        for n in [rng.randint(1, 12), rng.randint(13, 70)] + [e for e in edges if e]:
            check([rng.randrange(p) for _ in range(n)] + [1], p)
    for _ in range(300):
        p = rng.choice(primes[:10])
        fm = [1]
        for _ in range(rng.randint(1, 8)):
            fm = F._zm_mul(fm, [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1], p)
        check(fm, p)
    assert len(splits) >= 100, len(splits)
    seen, frobenius = [], F._frobenius_matrix

    def checked(t, p):
        q = frobenius(t, p)
        fm = (-t[t.shape[1]] % p).tolist() + [1]
        assert (q == _convolution_frobenius_matrix(fm, p)).all(), (fm, p)
        seen.append(p)
        return q

    monkeypatch.setattr(F, "_frobenius_matrix", checked)
    lc = math.prod(F._WITNESS_PRIMES)
    for f in (IntPoly((1, lc)), IntPoly((1, 1, 0, 0, 0, 0, lc)), IntPoly((-1, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, lc))):
        assert irreducibility_certificate(f).status == "irreducible", f
    for f in _oracle_cases()[:40]:
        irreducibility_certificate(f)
    assert seen.count(101) >= 3 and len(set(seen)) >= 8, seen


def test_zm_mul_matches_the_list_convolution():
    """Kronecker products mod m against list convolution, for moduli up to
    2^200, residues drawn at random and all m - 1 (every product digit at
    its bound), lengths 1-40: the product bound's bit length takes every
    residue mod 8, so the width crosses each byte boundary."""
    rng = random.Random(200)
    top_bits = set()
    for bits in range(1, 201):
        for _ in range(3):
            m = rng.randint(2 ** (bits - 1), 2**bits) if bits > 1 else 2
            la, lb = rng.randint(1, 40), rng.randint(1, 40)
            for full in (False, True):
                a = [m - 1] * la if full else F._zm([rng.randrange(m) for _ in range(la)], m)
                b = [m - 1] * lb if full else F._zm([rng.randrange(m) for _ in range(lb)], m)
                assert F._zm_mul(a, b, m) == _list_zm_mul(a, b, m), (a, b, m)
                assert F._zm_mul(b, [], m) == [] == F._zm_mul([], a, m)
                if full:
                    top_bits.add((min(la, lb) * (m - 1) ** 2).bit_length() % 8)
    assert top_bits == set(range(8)), top_bits


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
    with pytest.raises(ValueError, match=r"^coefficient of t\^2 = 'x' is not an integer$"):
        IntPoly(c for c in (1, 2, "x"))
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


@pytest.mark.parametrize(
    "text, bad", [("1,,2", ""), ("1,2.5", "2.5"), ("3*", "3*"), ("1_0,1", "1_0"), ("1,2,", "")]
)
def test_parse_poly_names_the_bad_coefficient(text, bad):
    with pytest.raises(ValueError) as exc:
        parse_poly(text)
    assert str(exc.value) == (
        f"bad coefficient {bad!r}: expected comma-separated signed integers such as 1,0,-2"
    )
    assert parse_poly(" 1, -2 ,+3").coeffs == (1, -2, 3)


def test_poly_from_roots_rejects_non_integers():
    with pytest.raises(ValueError, match=r"root = 1.5 is not an integer"):
        poly_from_roots([1.5])
    assert poly_from_roots([True, np.int64(2)]).coeffs == (2, -3, 1)


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


def test_pack_and_unpack_balanced_digits():
    """_pack and _unpack, the digit helper of the Kronecker determinant and
    the Burau product, at widths that are native item sizes (1, 2, 4, 8
    bytes), read through a wider item (3, 5, 7) and past 8 bytes (9, 16,
    17): the digits +-(2^(b-1) - 1) and -2^(b-1), runs of zero digits at
    either end and inside, and a negative top digit, against the sum they
    stand for."""
    rng = random.Random(2027)
    for w in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17):
        b = 8 * w
        top = 2 ** (b - 1) - 1
        digit_pool = (top, -top, -top - 1, 1, -1, 0, 0, 0)
        cases = [[], [0, 0], [-1], [top], [-top], [-top - 1], [0, 0, top, 0, 0, 0, -top],
                 [top] * 5 + [-1], [-top] * 3 + [0] * 4 + [-top - 1]]
        for _ in range(60):
            cases.append([rng.choice(digit_pool) for _ in range(rng.randint(1, 40))])
        for digits in cases:
            v = P._pack(digits, w)
            assert v == sum(d << (b * i) for i, d in enumerate(digits)), (w, digits)
            nz = [i for i, d in enumerate(digits) if d]
            expect = (nz[0], digits[nz[0] : nz[-1] + 1]) if nz else (0, [])
            assert P._unpack(v, w) == expect, (w, digits)


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


def _heuristic_gcd_cases(rng):
    """Seeded pairs h a', h b' with b' = t^k - 1 and a' = b' + D t, D =
    2^(8k) - 1: gcd(a', b') = 1, but D divides a'(xi) and b'(xi) at every
    xi = 2^(8w), so gcd(a(xi), b(xi)) = D |h(xi)|, whose digits are D h
    only where D |h| is below xi/2.  The norm of h b' sets the first width."""
    cases = []
    for _ in range(60):
        h = IntPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))) + (rng.choice((1, 2)),))
        k = rng.randint(1, 6)
        b = IntPoly((-1,) + (0,) * (k - 1) + (1,))
        a = b + IntPoly((0, 2 ** (8 * k) - 1))
        cases.append((h * a * rng.choice((1, -3)), h * b))
    return cases


def test_poly_gcd_and_try_div_match_fraction_oracles(monkeypatch):
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
    # At t = 256, one byte short of the width for norm 255, t - 255 is 1.
    t255 = IntPoly((-255, 1))
    cases += [(t255 * IntPoly((2, 1)), t255 * IntPoly((-3, 1))), (t255 * t255, t255 * IntPoly((7, 0, 1)))]
    cases += _heuristic_gcd_cases(rng)
    # The widths each poly_gcd call tries (one _unpack per width) and its
    # remainder-sequence fallbacks.
    widths, fallbacks, unpack, prs = [], [], P._unpack, P._prs_gcd
    monkeypatch.setattr(P, "_unpack", lambda v, w: widths.append(w) or unpack(v, w))
    monkeypatch.setattr(P, "_prs_gcd", lambda f, g: fallbacks.append(f) or prs(f, g))
    tries = {"first": 0, "retry": 0, "fallback": 0}
    for f, g in cases:
        expected = _fraction_euclid_gcd(f, g)
        assert prs(f, g) == expected, (f, g)
        for x, y in ((f, g), (g, f)):
            del widths[:], fallbacks[:]
            assert P.poly_gcd(x, y) == expected, (x, y)
            if fallbacks:
                assert len(widths) == 4 and widths == list(range(widths[0], widths[0] + 4)), (x, y)
                tries["fallback"] += 1
            elif len(widths) > 1:
                tries["retry"] += 1
            else:
                tries["first"] += len(widths)
        if g:
            assert f.try_div(g) == _fraction_try_div(f, g), (f, g)
            assert (f * g).try_div(g) == f, (f, g)
            if expected:
                assert f.try_div(expected) == _fraction_try_div(f, expected), (f, g)
    assert min(tries.values()) >= 20, tries
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


# ---------------------------------------------------------------------------
# Certified roots: the float64 route against a 40-digit mpmath oracle


def _mp_oracle(coeffs, dps=40, polyroots=False):
    """Every root of a squarefree f (coefficients ascending) to dps digits,
    as (roots, radii).  np.roots starts (mpmath.polyroots starts with
    polyroots=True) are polished by Newton's method in mpmath and proved by
    their own dps-digit Weierstrass disks, which must be tiny and pairwise
    disjoint; each disk then holds exactly one root.  On t^30 - 2(5t - 1)^2
    the np.roots starts collapse onto one root, so it needs polyroots."""
    n = len(coeffs) - 1
    desc = list(coeffs[::-1])
    ddesc = [c * (n - i) for i, c in enumerate(desc[:-1])]
    with mpmath.workdps(dps):
        if polyroots:
            starts = mpmath.polyroots(desc, maxsteps=100, extraprec=dps)
        else:
            starts = [mpmath.mpc(complex(z0)) for z0 in np.roots([float(c) for c in desc])]
        zs = []
        for z in starts:
            for _ in range(dps // 5):
                step = mpmath.polyval(desc, z) / mpmath.polyval(ddesc, z)
                z -= step
                if abs(step) < mpmath.mpf(10) ** (4 - dps):
                    break
            zs.append(z)
        radii = []
        for j, z in enumerate(zs):
            prod = coeffs[-1] * mpmath.fprod(z - y for k, y in enumerate(zs) if k != j)
            radii.append(n * abs(mpmath.polyval(desc, z) / prod))
        assert max(radii) < mpmath.mpf(10) ** (15 - dps)
        for j in range(n):
            for k in range(j):
                assert abs(zs[j] - zs[k]) > radii[j] + radii[k]
    return zs, radii


def _assert_encloses(rl, oracle_parts, tol, dps=40):
    """Each oracle root (with its multiplicity) lies in a disk of rl, and each
    connected component of the disks holds as many roots as it has disks.
    The test runs at the oracle's precision, dps digits."""
    zs, radii = rl.roots, rl.radii
    assert max(radii, default=0.0) <= tol
    parent = list(range(len(zs)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(zs)):
        for j in range(i):
            if abs(zs[i] - zs[j]) <= radii[i] + radii[j]:
                parent[find(i)] = find(j)
    counts = {}
    with mpmath.workdps(dps):
        for roots_mp, radii_mp, mult in oracle_parts:
            for w, rw in zip(roots_mp, radii_mp):
                homes = {find(i) for i, (z, r) in enumerate(rl) if abs(w - z) + rw <= r}
                assert len(homes) == 1, (complex(w), homes)
                home = homes.pop()
                counts[home] = counts.get(home, 0) + mult
    sizes = {}
    for i in range(len(zs)):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    assert counts == sizes


def _random_monic(rng, d):
    c = [rng.randint(-3, 3) for _ in range(d)] + [1]
    c[0] = rng.choice((-3, -2, 2, 3))
    return IntPoly(tuple(c))


def _random_palindrome(rng, d):
    half = [1] + [rng.randint(-2, 2) for _ in range(d // 2)]
    return IntPoly(tuple(half + half[-2::-1] if d % 2 == 0 else half + half[::-1]))


def _squarefree(make):
    while True:
        f = make()
        if P.poly_gcd(f, f.derivative()).degree == 0:
            return f


def _certification_cases():
    """(name, [(squarefree factor, multiplicity)]) in the benchmark's families."""
    rng = random.Random(2024)
    lehmer = lehmer_polynomial()
    cases = [
        ("lehmer", [(lehmer, 1)]),
        ("phi7*lehmer", [(cyclotomic(7) * lehmer, 1)]),
        ("phi105", [(cyclotomic(105), 1)]),
    ]
    for d in (2, 3, 5, 10, 24, 48, 80, 160):
        cases.append((f"random{d}", [(_squarefree(lambda: _random_monic(rng, d)), 1)]))
    for d in (4, 12, 48, 160):
        h = _squarefree(lambda: _random_palindrome(rng, d - 10))
        cases.append((f"reciprocal{d}", [(lehmer * h, 1)]))
    for d in (8, 24, 64):
        e = rng.choice([e for e in range(3, 4 * d) if P.euler_phi(e) <= d // 2])
        phi = cyclotomic(e)
        h = _squarefree(lambda: _random_monic(rng, d - phi.degree))
        cases.append((f"cyclotomic{d}", [(phi * h, 1)]))
    for d in (8, 24, 64):
        k = max(2, d // 8)
        g = _squarefree(lambda: _random_monic(rng, k))
        h = _squarefree(lambda: _random_monic(rng, d - 2 * k))
        cases.append((f"repeated{d}", [(g, 2), (h, 1)]))
    # f(0) = lc = 720720 has 240 divisors; the rational roots are 1/2 and 2.
    h = _squarefree(lambda: IntPoly((360360,) + tuple(rng.randint(-3, 3) for _ in range(17)) + (360360,)))
    cases.append(("divisors720720", [(IntPoly((-1, 2)) * IntPoly((-2, 1)) * h, 1)]))
    return cases


@pytest.fixture
def escalations(monkeypatch):
    """Degrees of the polynomials sent to the exact-integer escalation route."""
    seen = []
    escalate = P._weierstrass_exact

    def counting(coeffs, tol, start):
        seen.append(len(coeffs) - 1)
        return escalate(coeffs, tol, start)

    monkeypatch.setattr(P, "_weierstrass_exact", counting)
    return seen


CERTIFICATION_CASES = _certification_cases()


@pytest.mark.parametrize("parts", [p for _, p in CERTIFICATION_CASES], ids=[n for n, _ in CERTIFICATION_CASES])
def test_float64_roots_enclose_the_mpmath_oracle(parts, escalations):
    f = IntPoly((1,))
    for g, mult in parts:
        f = f * g**mult
    rl = roots(f)
    assert len(rl) == f.degree
    oracle = [(*_mp_oracle(g.coeffs), mult) for g, mult in parts]
    _assert_encloses(rl, oracle, 1e-10)
    assert escalations == []
    # The float64 Weierstrass step leaves every center within a few ulps of its root.
    with mpmath.workdps(40):
        for roots_mp, _, _ in oracle:
            for w in roots_mp:
                assert min(abs(w - z) for z in rl.roots) <= 2 * math.ulp(float(abs(w)))


def _assert_bounds_hold(f, z):
    """hi bounds |f(z_j)| from above and lo bounds |lc * prod (z_j - z_k)| from
    below, at each float64 center itself, against 60-digit evaluation.
    Returns lo."""
    a = np.array(f.coeffs, dtype=float)
    with np.errstate(all="ignore"):  # as _float64_pass runs it
        hi, lo = P._weierstrass_f64(a, z)
    desc = list(f.coeffs[::-1])
    with mpmath.workdps(60):
        zm = [mpmath.mpc(v) for v in z]
        for j, w in enumerate(zm):
            assert abs(mpmath.polyval(desc, w)) <= hi[j]
            prod = f.leading * mpmath.fprod(w - y for k, y in enumerate(zm) if k != j)
            assert 0 <= lo[j] <= abs(prod)
    return lo


@pytest.mark.parametrize("f", [p[0][0] for _, p in CERTIFICATION_CASES[:9]], ids=[n for n, _ in CERTIFICATION_CASES[:9]])
def test_float64_bounds_hold_at_the_np_roots_centers(f):
    """The bounds hold at the np.roots eigenvalues and at the stepped centers
    that roots() certifies."""
    a = np.array(f.coeffs, dtype=float)
    z = np.roots(a[::-1]).astype(complex)
    assert (_assert_bounds_hold(f, z) > 0).all()
    assert (_assert_bounds_hold(f, z - P._weierstrass_step(a, z)) > 0).all()


def test_product_overflow_fails_the_float64_bound(escalations):
    """At the roots near +-2^16 of (2^19 t^2 - (2^51 + 1))(t^62 - 2) every
    partial product of root differences is finite (about 2^1008), but times
    lc = 2^19 the product overflows: lo must be 0 there, not inf, and the
    roots escalate."""
    f = IntPoly((-(2**51 + 1), 0, 2**19)) * IntPoly((-2,) + (0,) * 61 + (1,))
    a = np.array(f.coeffs, dtype=float)
    z = np.roots(a[::-1]).astype(complex)
    big = np.abs(z) > 2**15
    assert big.sum() == 2
    lo = _assert_bounds_hold(f, z)
    assert (lo[big] == 0).all() and (lo[~big] > 0).all()
    rl = roots(f)
    assert escalations == [f.degree]
    oracle = [(*_mp_oracle(g.coeffs), 1) for g in (IntPoly((-(2**51 + 1), 0, 2**19)), IntPoly((-2,) + (0,) * 61 + (1,)))]
    _assert_encloses(rl, oracle, 1e-10)


def _mignotte(d, a):
    """t^d - 2(a t - 1)^2: two real roots within about 2 a^(-d/2 - 1) of 1/a."""
    c = [0] * (d + 1)
    c[d] = 1
    c[0], c[1], c[2] = c[0] - 2, c[1] + 4 * a, c[2] - 2 * a * a
    return IntPoly(tuple(c))


@pytest.mark.parametrize(
    "f",
    [_mignotte(10, 10), _mignotte(14, 5), _mignotte(20, 3), _mignotte(30, 5), IntPoly((1, 1, 0, 2**53 + 1))],
    ids=["mignotte10", "mignotte14", "mignotte20", "mignotte30", "coefficient>=2^53"],
)
def test_escalation_route_certifies(f, escalations):
    rl = roots(f)
    assert escalations == [f.degree]
    _assert_encloses(rl, [(*_mp_oracle(f.coeffs, polyroots=True), 1)], 1e-10)


def test_escalation_doubles_the_precision(escalations):
    """At 128 absolute bits the center nearest the root 2^-200 would be 0,
    with radius 2^-200 > tol/4; the fixed point starts 128 bits below the
    start modulus instead, the center is the root itself, and the root is
    recognized as rational."""
    rl = roots(IntPoly((-1, 2**200)), 1e-70)
    assert escalations == [1]
    assert rl.roots == (2.0**-200 + 0j,) and rl.radii == (0.0,)


def test_tiny_escalated_roots_keep_relative_precision(escalations):
    """The fixed point of the escalation starts at 128 bits plus the bits
    below 1 of the smallest start modulus, so a root far below 2^-128 is
    known to about 2^-128 of its own size: 2^-200 comes back exactly at the
    default tol, and so do 3 * 2^-200 and the pair +-2^-100 i to 2^-200."""
    for c in (1, 3):
        rl = roots(IntPoly((-c, 2**200)))
        assert rl.roots == (c * 2.0**-200 + 0j,) and rl.radii == (0.0,)
    rl = roots(IntPoly((1, 0, 2**200)))
    assert sorted(z.imag for z in rl.roots) == [-(2.0**-100), 2.0**-100]
    assert all(z.real == 0 and r < 2.0**-200 for z, r in rl)
    assert escalations == [1, 1, 2]


def test_escalation_radius_bounds_the_working_precision_rounding(escalations):
    """Near a cluster the small product of root differences amplifies any
    error in f(z_j): a 40-digit mpmath radius without a rounding term missed
    these roots by 4.1e-25 and 1.1e-36.  The exact-integer radius has no
    rounding to bound and must enclose them at 110 digits."""
    pair = IntPoly((-1, 3)) * IntPoly((-(10**17 + 1), 3 * 10**17))
    with mpmath.workdps(110):
        exact = [mpmath.mpf(1) / 3, mpmath.mpf(10**17 + 1) / (3 * 10**17)]
    _assert_encloses(roots(pair), [(exact, [mpmath.mpf(10) ** -100] * 2, 1)], 1e-10, 110)
    f = _mignotte(14, 10)
    _assert_encloses(roots(f), [(*_mp_oracle(f.coeffs, 110), 1)], 1e-10, 110)
    assert escalations == [2, 14]


def test_rational_root_is_recognized_only_in_an_isolated_disk():
    """At tol 1e-3 the disks about 1/10 and the roots 1/10 +- 7.07e-8 overlap;
    snapping all three centers to the rational root 1/10 would lose two roots."""
    f = _mignotte(12, 10)
    rl = roots(IntPoly((-1, 10)) * f, 1e-3)
    _assert_encloses(rl, [(*_mp_oracle((-1, 10)), 1), (*_mp_oracle(f.coeffs, 110), 1)], 1e-3, 110)


def test_tol_below_float64_resolution_names_the_limit():
    for tol in (1e-16, 1e-300):
        with pytest.raises(PrecisionError, match=r"float64 spacing .* modulus|modulus .* float64 spacing"):
            roots(lehmer_polynomial(), tol)
    # Lehmer's real root 1.17628... lies at least tol/4 = 7.5e-17 from every
    # float64 (the spacing there is 2.2e-16), though a float64 lies within tol.
    with pytest.raises(PrecisionError, match=r"within tol/4 = 7\.5e-17 of that root"):
        roots(lehmer_polynomial(), 3e-16)
    # a rational root: 1/3 lies 1.85e-17 from the nearest float64
    with pytest.raises(PrecisionError, match="modulus 0.333333"):
        roots(IntPoly((-1, 3)), 1e-17)
    assert roots(IntPoly((-1, 3)), 1e-16).roots == (1 / 3 + 0j,)
    assert roots(IntPoly((-1, 2)), 1e-300).radii == (0.0,)
    assert roots(IntPoly((-(10**7 + 1), 1024)), 1e-300).radii == (0.0,)


def test_radii_past_the_float64_range_raise_precision_error():
    """c / lc of t^2 + 10^400 overflows, so the escalation starts from the
    fixed starts, and its disks about the roots +-10^200 i grow past the
    float64 range: a PrecisionError naming that range, not the OverflowError
    of the radius division."""
    with pytest.raises(PrecisionError, match="^root disk radii left the float64 range$"):
        roots(IntPoly((10**400, 0, 1)))


@pytest.fixture
def yun_calls(monkeypatch):
    """The degree of every squarefree_decomposition call, however reached."""
    calls, yun = [], P.squarefree_decomposition

    def counting(f):
        calls.append(f.degree)
        return yun(f)

    monkeypatch.setattr(P, "squarefree_decomposition", counting)
    return calls


def _witness_primes_prove_squarefree(f):
    """gcd(f, f') = 1 mod one of the first two scanned primes not dividing lc(f)."""
    primes = (q for q in F._scan_primes() if f.leading % q)
    return any(len(F._gf_gcd(f.coeffs, f.derivative().coeffs, next(primes))) == 1 for _ in range(2))


def _yun_first_certificate(f):
    """irreducibility_certificate with the Yun decomposition first, the
    reference for the witness-prime route: a square factor proves f
    reducible, and otherwise the scan runs on a squarefree f."""
    for g, mult in P.squarefree_decomposition(f)[1]:
        if mult > 1:
            return P.IrreducibilityCertificate("reducible", factor=g)
    return F.certify(f)


def test_squarefree_proof_mod_p_matches_the_prs_route(yun_calls, monkeypatch):
    """Yun is plain: its parts multiply back, and a single part (p, 1) means
    the PRS gcd(p, p') is 1; with every gcd left to the remainder sequence,
    which yields no cofactors, the parts are the same.
    irreducibility_certificate calls it only when the first two witness
    primes not dividing lc(p) both leave p not squarefree mod that prime,
    and then exactly once."""
    rng = random.Random(160)
    gcd = P.poly_gcd
    for d in (1, 2, 7, 20, 60, 160):
        f = _random_monic(rng, d) * rng.choice((1, 2, 3))
        g = _random_monic(rng, max(1, d // 8))
        for h in (f, f * g * g, g * g * g * f) if d < 100 else (f, f * g * g):
            p = h.primitive_part()
            squarefree = gcd(p, p.derivative()).degree == 0  # the PRS route
            content, parts = P.squarefree_decomposition(h)
            assert (parts == [(p, 1)]) == squarefree
            with monkeypatch.context() as m:
                m.setattr(P, "_gcd_cofactors", lambda a, b: (P._prs_gcd(a, b), None, None))
                assert P.squarefree_decomposition(h) == (content, parts)
            prod = IntPoly((content,))
            for q, i in parts:
                prod = prod * q**i
            assert prod == h
            proved = _witness_primes_prove_squarefree(p)
            assert not proved or squarefree
            yun_calls.clear()
            c = irreducibility_certificate(p)
            assert yun_calls == ([] if proved else [p.degree])
            if not squarefree:
                assert (c.status, c.witness_prime) == ("reducible", None)
                assert c.factor == next(q for q, i in parts if i > 1)
    # A witness prime dividing lc(f) is skipped: mod 2, (2t + 1)^2 is the
    # unit 1, which would pass for squarefree; mod 3 it is (t + 2)^2 and mod
    # 5 (t + 3)^2, so Yun runs once.
    f = IntPoly((1, 2)) ** 2
    yun_calls.clear()
    assert irreducibility_certificate(f) == P.IrreducibilityCertificate("reducible", factor=IntPoly((1, 2)))
    assert yun_calls == [2]
    # 2t^2 + t + 1 is squarefree mod 3, the first prime not dividing lc.
    yun_calls.clear()
    assert irreducibility_certificate(IntPoly((1, 1, 2))).status == "irreducible"
    assert yun_calls == []
    # t^2 + 1 = (t + 1)^2 mod 2 but is squarefree mod 3, the second prime:
    # no Yun, and the scan closes at 3.
    yun_calls.clear()
    assert irreducibility_certificate(parse_poly("t^2+1")).witness_prime == 3
    assert yun_calls == []


def _certificate_route_cases():
    """Seeded primitive inputs: squares and cubes of random factors times a
    cofactor, leading coefficients divisible by 2 and by 6, and squarefree
    inputs whose first witness prime divides the discriminant."""
    rng = random.Random(1976)

    def factor(d, lc):
        c = [rng.randint(-4, 4) for _ in range(d)] + [lc]
        c[0] = c[0] or 1
        return IntPoly(tuple(c))

    cases = [parse_poly("t^2+1"), parse_poly("t^4+1"), parse_poly("t^2+t+1") * parse_poly("t^2+1"),
             IntPoly((1, 1, 2)), IntPoly((1, 2)) ** 2, IntPoly((1, 6)) ** 3 * IntPoly((5, 0, 1))]
    for _ in range(60):
        lcs = [rng.choice((1, 1, 2, 3, 6)) for _ in range(3)]
        g, h, k = (factor(rng.randint(1, 4), lc) for lc in lcs)
        cases += [g * h, g * g * h, g**3 * k, g * g * h**3, (g * h * k) ** 2]
    return [f.primitive_part() for f in cases]


def test_certificate_matches_the_yun_first_route(yun_calls):
    seen = {"no Yun": 0, "Yun, square": 0, "Yun, squarefree": 0, "2 | lc": 0, "6 | lc": 0}
    for f in _certificate_route_cases():
        expected = _yun_first_certificate(f)
        yun_calls.clear()
        assert irreducibility_certificate(f) == expected, f
        assert len(yun_calls) == (0 if _witness_primes_prove_squarefree(f) else 1), f
        if yun_calls:
            seen["Yun, square" if P.poly_gcd(f, f.derivative()).degree else "Yun, squarefree"] += 1
        else:
            seen["no Yun"] += 1
        seen["2 | lc"] += f.leading % 2 == 0
        seen["6 | lc"] += f.leading % 6 == 0
    assert min(seen.values()) >= 5, seen


# ---------------------------------------------------------------------------
# Certificate-first roots against the Yun-first route it replaced


def _yun_first_roots(f, tol=P.DEFAULT_TOL):
    """roots() with the Yun decomposition first, the reference for the
    certificate-first route: per squarefree part, np.roots starts from
    Fractions, a float64 step and certificate (the numpy oracles
    _numpy_weierstrass_step and _stepwise_weierstrass_f64) or else the
    exact escalation, then scalar pair scans for rational recognition and
    cluster merging."""
    zs, radii = [], []
    for g, mult in P.squarefree_decomposition(f)[1]:
        coeffs, n = list(g.coeffs), g.degree
        try:
            start = np.roots([float(Fraction(c, coeffs[-1])) for c in reversed(coeffs)])
            if len(start) != n:
                raise ValueError
        except (OverflowError, ValueError, np.linalg.LinAlgError):
            start = np.array([complex(0.4 * k + 0.4, 0.9) for k in range(n)])
        az = None
        if max(map(abs, coeffs)) < 2**53:
            a = np.array(coeffs, dtype=float)
            z = start.astype(complex)
            z -= _numpy_weierstrass_step(a, z)
            hi, lo = _stepwise_weierstrass_f64(a, z)
            with np.errstate(all="ignore"):
                rs = n * hi / lo * (1 + 4 * P._U)
            if np.all(rs < tol / 4):
                az, ar = [complex(v) for v in z], [float(r) for r in rs]
        if az is None:
            az, ar = P._weierstrass_exact(coeffs, tol, start)
        lc = abs(g.leading)
        for j, (z, r) in enumerate(zip(az, ar)):
            if abs(z.imag) > r or any(
                abs(z - y) * (1 - 8 * P._U) <= r + s for k, (y, s) in enumerate(zip(az, ar)) if k != j
            ):
                continue
            x = Fraction(z.real)
            q = x.limit_denominator(lc)
            if (q - x) ** 2 + Fraction(z.imag) ** 2 <= Fraction(r) ** 2 and g.evaluate(q) == 0:
                az[j] = complex(q)
                dist = abs(Fraction(az[j].real) - q)
                ar[j] = P._up(dist) if dist else 0.0
        for z, r in zip(az, ar):
            zs.extend([z] * mult)
            radii.extend([r] * mult)
    n = len(zs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(zs[i] - zs[j]) * (1 - 8 * P._U) <= radii[i] + radii[j]:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    out = list(radii)
    for members in groups.values():
        if len(members) > 1:
            r = max(abs(zs[i] - zs[j]) + radii[j] for i in members for j in members) * (1 + 8 * P._U)
            for i in members:
                out[i] = r
    if any(r > tol for r in out):
        raise PrecisionError("root clusters wider than the requested tolerance")
    order = sorted(range(n), key=lambda i: (-abs(zs[i]), zs[i].real, zs[i].imag))
    return P.RootList(tuple(zs[i] for i in order), tuple(out[i] for i in order))


def _route_cases():
    """(name, f, tol) in every family the certificate-first route must match."""
    rng = random.Random(21)
    t = IntPoly((0, 1))
    lehmer = lehmer_polynomial()
    cases = [(f"random{d}", _random_monic(rng, d), 1e-10) for d in (2, 3, 5, 8, 16, 32, 48, 64)]
    cases += [
        ("phi7*lehmer", cyclotomic(7) * lehmer, 1e-10),
        ("phi105", cyclotomic(105), 1e-10),
        ("phi1*phi2*phi3*random12", cyclotomic(1) * cyclotomic(2) * cyclotomic(3) * _random_monic(rng, 12), 1e-10),
        ("phi9*random40", cyclotomic(9) * _random_monic(rng, 40), 1e-10),
        ("lehmer*reciprocal30", lehmer * _random_palindrome(rng, 30), 1e-10),
        ("lehmer^2", lehmer * lehmer, 1e-10),
    ]
    for d in (8, 24, 64):
        g, h = _random_monic(rng, max(2, d // 8)), _random_monic(rng, d - 2 * max(2, d // 8))
        cases.append((f"repeated{d}", g * g * h, 1e-10))
        cases.append((f"repeated{d}@1e-3", g * g * h, 1e-3))
    cases += [
        ("(t-1)^3(t+2)^2", IntPoly((-1, 1)) ** 3 * IntPoly((2, 1)) ** 2, 1e-10),
        ("(t-1)^3(t+2)^2@1e-3", IntPoly((-1, 1)) ** 3 * IntPoly((2, 1)) ** 2, 1e-3),
        ("mignotte10", _mignotte(10, 10), 1e-10),
        ("mignotte14", _mignotte(14, 5), 1e-10),
        ("(10t-1)*mignotte12@1e-3", IntPoly((-1, 10)) * _mignotte(12, 10), 1e-3),
        ("coefficient>=2^53", IntPoly((1, 1, 0, 2**53 + 1)), 1e-10),
        ("(t-2^60)(t^2+1)", IntPoly((-(2**60), 1)) * IntPoly((1, 0, 1)), 1e-10),
        ("(2^54t-1)^2(t-3)", IntPoly((-1, 2**54)) ** 2 * IntPoly((-3, 1)), 1e-10),
        ("-6*random20", -6 * _random_monic(rng, 20), 1e-10),
        ("-lehmer", -lehmer, 1e-10),
        ("12*(3t+2)^2*random10", 12 * IntPoly((2, 3)) ** 2 * _random_monic(rng, 10), 1e-10),
        ("t*random10", t * _random_monic(rng, 10), 1e-10),
        ("t^3*random10", t**3 * _random_monic(rng, 10), 1e-10),
        ("t^2", t * t, 1e-10),
        ("(2t-1)(3t+2)*random16", IntPoly((-1, 2)) * IntPoly((2, 3)) * _random_monic(rng, 16), 1e-10),
        ("(5t-3)(7t+1)*phi12", IntPoly((-3, 5)) * IntPoly((1, 7)) * cyclotomic(12), 1e-10),
        ("3t-1", IntPoly((-1, 3)), 1e-10),
        ("5t", IntPoly((0, 5)), 1e-10),
        ("2^200t-1", IntPoly((-1, 2**200)), 1e-70),
        ("(10^17+1)/(3*10^17) and 1/3", IntPoly((-1, 3)) * IntPoly((-(10**17 + 1), 3 * 10**17)), 1e-10),
        ("lehmer@1e-16", lehmer, 1e-16),
        ("lehmer@3e-16", lehmer, 3e-16),
        ("3t-1@1e-17", IntPoly((-1, 3)), 1e-17),
    ]
    return cases


ROUTE_CASES = _route_cases()


def _roots_or_error(route, f, tol):
    try:
        rl = route(f, tol)
    except PrecisionError as e:
        return f"PrecisionError: {e}"
    return repr((rl.roots, rl.radii))


@pytest.mark.parametrize("f, tol", [c[1:] for c in ROUTE_CASES], ids=[c[0] for c in ROUTE_CASES])
def test_certificate_first_roots_match_the_yun_first_route(f, tol):
    """Same centers, radii and order to the bit, and the same PrecisionError."""
    assert _roots_or_error(roots, f, tol) == _roots_or_error(_yun_first_roots, f, tol)


def test_yun_runs_only_where_the_float64_disks_overlap(monkeypatch):
    yun_calls, disk_calls = [], []
    yun, disks = P.squarefree_decomposition, P._float64_disks

    def counting_yun(f):
        yun_calls.append(f.degree)
        return yun(f)

    def counting_disks(step, tol):
        disk_calls.append(len(step[1]))
        return disks(step, tol)

    monkeypatch.setattr(P, "squarefree_decomposition", counting_yun)
    monkeypatch.setattr(P, "_float64_disks", counting_disks)
    rng = random.Random(48)
    g, h = _random_monic(rng, 4), _random_monic(rng, 40)
    assert P.poly_gcd(h, h.derivative()).degree == 0
    roots(h)
    assert (yun_calls, disk_calls) == ([], [40])
    g_roots = set(roots(g).roots)
    # The step flags the split double roots of g^2 h, so Yun runs before
    # any certificate; then each part is certified once.
    for tol in (1e-10, 1e-3):
        yun_calls.clear(), disk_calls.clear()
        rl = roots(g * g * h, tol)
        assert (yun_calls, disk_calls) == ([48], [40, 4])
        assert sum(z in g_roots for z in rl.roots) == 8
    # Without that signal, the double roots pass the certificate at tol 1e-3,
    # and the overlap of their disks alone must send g^2 h to Yun.
    monkeypatch.setattr(P, "_CLUSTER_STEP", math.inf)
    yun_calls.clear(), disk_calls.clear()
    rl = roots(g * g * h, 1e-3)
    assert (yun_calls, disk_calls) == ([48], [48, 40, 4])
    assert sum(z in g_roots for z in rl.roots) == 8


def _scalar_overlaps(zs, radii):
    return [
        [i != j and abs(zs[i] - zs[j]) * (1 - 8 * P._U) <= radii[i] + radii[j] for j in range(len(zs))]
        for i in range(len(zs))
    ]


def _pair_matrix(n, pairs):
    """The boolean matrix of pairs, each unordered pair checked to come once."""
    assert len({frozenset(p) for p in pairs}) == len(pairs) and all(i != j for i, j in pairs)
    near = [[False] * n for _ in range(n)]
    for i, j in pairs:
        near[i][j] = near[j][i] = True
    return near


def test_overlap_matrix_matches_the_scalar_test():
    """_near_pairs against the scalar test on every pair, including disks
    that touch exactly in float64, where <= decides, and one ulp short of
    it; equal real parts, where the sweep's cut-off never fires; zero
    radii; repeated disks, as Yun's multiplicities give them; pairs at the
    8u margin; and n = 0, 1 and 64."""
    rng = random.Random(8)
    shrink = 1 - 8 * P._U
    for trial in range(140):
        n = rng.choice((0, 1, 64)) if trial % 7 == 6 else rng.randint(1, 24)
        zs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        radii = [abs(z) * rng.choice((1e-3, 1e-1, 0.5)) * rng.random() for z in zs]
        kind = trial % 5
        if kind == 1:  # equal real parts, some radii zero
            zs = [complex(zs[0].real, z.imag) for z in zs]
            radii = [0.0 if rng.random() < 0.5 else r for r in radii]
        elif kind == 2 and n:  # repeated disks, two of radius 0
            m = rng.randint(1, 4)
            zs = [z for z in zs for _ in range(m)][:n]
            radii = [r for r in radii for _ in range(m)][:n]
            radii[0] = radii[min(1, n - 1)] = 0.0
        elif kind == 3:  # disks 2k and 2k + 1 at the 8u margin, or one ulp short of it
            for i in range(0, n - 1, 2):
                gap = abs(zs[i] - zs[i + 1]) * shrink
                radii[i], radii[i + 1] = (gap, 0.0) if i % 4 else (math.nextafter(gap, 0.0), 0.0)
        if n > 1 and kind != 2:
            # disk 0 touches disk 1 exactly: r_0 + r_1 is the computed scaled distance
            gap = abs(zs[0] - zs[1]) * shrink
            radii[0], radii[1] = gap / 2, gap / 2
            if trial % 3 == 1:  # one ulp of gap short of touching
                radii[0] = radii[1] = math.nextafter(gap / 2, 0.0)
            elif trial % 3 == 2:
                radii[0], radii[1] = gap, 0.0
        near = _pair_matrix(n, P._near_pairs(zs, radii))
        assert near == _scalar_overlaps(zs, radii), trial
        if n > 1:
            assert near[0][1] == (zs[0] == zs[1] if kind == 2 else trial % 3 != 1)
    # At the margin: the pair meets exactly when r_0 + r_1 reaches the scaled distance.
    zs = [0j, complex(1.0, 1e-3)]
    gap = abs(zs[0] - zs[1]) * shrink
    for r0, meets in ((gap, True), (math.nextafter(gap, 0.0), False)):
        assert P._near_pairs(zs, [r0, 0.0]) == ([(0, 1)] if meets else [])
        assert _scalar_overlaps(zs, [r0, 0.0])[0][1] == meets
    assert P._near_pairs([], []) == [] and P._near_pairs([1j], [1.0]) == []


def test_monic_integer_on_a_disk_edge_is_recognized():
    """The integer-distance skip for monic g passes a disk whose edge runs
    exactly through an integer root, which the exact test then accepts."""
    g, r = IntPoly((-3, 1)), 2.0**-10
    for radius, recognized in ((r, True), (math.nextafter(r, 0.0), False)):
        zs, radii = [complex(3 + r)], [radius]
        assert P._recognize_rational_roots(g, zs, radii, P._near_pairs(zs, radii)) == []
        assert (zs, radii) == (([3 + 0j], [0.0]) if recognized else ([complex(3 + r)], [radius]))


def test_a_recognized_root_crowds_a_later_disk():
    """float64 rounds 1/5 up, so the disk of the recognized root reaches past
    the old disk's edge and meets the disk of 20001/100000, which the old
    disk missed.  That later disk is then not isolated and keeps its radius,
    and the pairs returned follow the replaced disks."""
    g = IntPoly((-1, 5)) * IntPoly((-20001, 100000))
    x0, r1 = 0.2 - 2.0**-40, 9.999999999971134e-06
    zs, radii = [complex(x0), 0.20001 + 0j], [P._up(Fraction(1, 5) - Fraction(x0)), r1]
    pairs = P._near_pairs(zs, radii)
    assert pairs == [] and _scalar_overlaps(zs, radii) == [[False] * 2] * 2
    pairs = P._recognize_rational_roots(g, zs, radii, pairs)
    assert zs == [0.2 + 0j, 0.20001 + 0j] and radii[1] == r1
    assert pairs == [(0, 1)] and _pair_matrix(2, pairs) == _scalar_overlaps(zs, radii)


def _np_eigenvalues(coeffs):
    """The float64 route's starts as np.roots gives them: the oracle of
    _eigenvalues, which builds np.roots's companion matrix itself."""
    n, lc = len(coeffs) - 1, coeffs[-1]
    try:
        start = np.roots([c / lc for c in reversed(coeffs)])
        if len(start) != n:
            raise ValueError
    except (OverflowError, ValueError, np.linalg.LinAlgError):
        start = np.array([complex(0.4 * k + 0.4, 0.9) for k in range(n)])
    return start


def _bits(x):
    """The float64 bit patterns of an array, so that one ulp, a sign of zero
    or a NaN shows."""
    return np.ascontiguousarray(x).view(np.int64).tolist()


def _touching(rng, zs, radii):
    """The disks with the closest pair of centers set to touch exactly in
    float64, or one ulp short of it, so no other pair meets, and maybe one
    disk widened to the largest radius, so the sweep's cut-off is exercised."""
    i, j = min(itertools.combinations(range(len(zs)), 2), key=lambda p: abs(zs[p[0]] - zs[p[1]]))
    gap = abs(zs[i] - zs[j]) * (1 - 8 * P._U)
    radii = list(radii)
    radii[i] = radii[j] = gap / 2 if rng.random() < 0.5 else math.nextafter(gap / 2, 0.0)
    big, wide = rng.randrange(len(zs)), rng.choice((0.0, 0.0, gap / 4, 4 * gap))
    radii[big] = max(radii[big], wide)
    return radii


def _numpy_weierstrass_step(a, z):
    """The float64 Weierstrass step one numpy call at a time, a new array
    per Horner step, np.fill_diagonal and np.cumprod: the oracle of
    _weierstrass_step."""
    with np.errstate(all="ignore"):
        p = np.full(len(z), a[-1], dtype=complex)
        for c in a[-2::-1]:
            p = p * z + c
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1)
        d[:, 0] *= a[-1]
        return p / np.cumprod(d, axis=1)[:, -1]


def _stagewise_float64_pass(coeffs, tol):
    """_float64_pass(coeffs, tol) from its oracles, one stage at a time:
    np.roots's starts (_np_eigenvalues), the step from an array of
    coefficients (_numpy_weierstrass_step), the stepwise bound
    (_stepwise_weierstrass_f64) and the radii on Python floats.  Returns
    (start, moved, disks), moved None where the step is not taken."""
    start = _np_eigenvalues(coeffs)
    if max(map(abs, coeffs)) >= 2**53:
        return start, None, None
    a = np.array(coeffs, dtype=float)
    z = start.astype(complex)
    w = _numpy_weierstrass_step(a, z)

    def ratio(wj, zj):
        try:
            r = abs(wj) / max(1.0, abs(zj))
        except OverflowError:
            return math.inf
        return math.inf if math.isnan(r) else r

    moved = max(map(ratio, w.tolist(), z.tolist()))
    z = z - w
    hi, lo = _stepwise_weierstrass_f64(a, z)
    n = len(coeffs) - 1
    radii = [n * h / l * (1 + 4 * P._U) if l else math.inf for h, l in zip(hi.tolist(), lo.tolist())]
    return start, moved, (z.tolist(), radii) if all(r < tol / 4 for r in radii) else None


def _companion(coeffs):
    """np.roots's companion matrix of monic coefficients (ascending)."""
    m = len(coeffs) - 1
    a = np.zeros((m, m))
    a.flat[m :: m + 1] = 1
    a[:1] = [-float(c) for c in reversed(coeffs[:-1])]
    return a


def test_float64_route_pieces_match_their_numpy_oracles(monkeypatch):
    """The float64 pass against the stages it replaced, bit for bit, on
    seeded polynomials of degree 1-64: zero constant terms, leading
    coefficients 2 and 3, coefficients of 2^53 and more (the step returns
    None), c / lc past the float64 range (fixed starts), clusters (the step
    moves past _CLUSTER_STEP) and near-touching disks at degree 48-64.
    _eigenvalues agrees with np.roots (dtype included), the starts, centers,
    radii and route decisions of _float64_pass with _stagewise_float64_pass
    at both cluster steps it is run with, and _near_pairs with the scalar
    test on every pair (_scalar_overlaps).  LAPACK's gufunc agrees with
    np.linalg.eigvals on companions of size 0-64 with real and complex
    spectra, and a NaN from it takes the fixed starts."""
    from numpy.linalg import _umath_linalg

    rng = random.Random(2026)
    seen = dict.fromkeys(("real", "complex"), 0)
    for n in range(65):
        for real in (False, True):
            if real:  # distinct integer roots, far enough apart for a real spectrum
                f = poly_from_roots(rng.sample(range(-80, 81), n))
            else:
                f = _random_monic(rng, n) if n else IntPoly((1,))
            a = _companion(f.coeffs)
            got, want = _umath_linalg.eigvals(a, signature="d->D"), np.linalg.eigvals(a)
            if want.dtype == float:
                assert not got.imag.any() and _bits(got.real) == _bits(want), f
                seen["real"] += 1
            else:
                assert _bits(got) == _bits(want), f
                seen["complex"] += 1
    seen.update(dict.fromkeys(("zeros", "t^k", "lc", "big", "fixed", "cluster", "disks", "meet", "apart"), 0))
    for trial in range(2200):
        d = rng.randint(1, 64)
        f = _random_monic(rng, d)
        kind = trial % 8
        if kind == 1:
            f = f.shifted(rng.randint(1, 3))
            seen["zeros"] += 1
        elif kind == 2:
            f = f * rng.choice((2, 3)) + IntPoly((rng.randint(-5, 5),))
            seen["lc"] += f.leading != 1
        elif kind == 3:
            big = rng.choice((1, -1)) * 2 ** rng.randint(53, 60)
            f = f + IntPoly((0,) * rng.randrange(f.degree + 1) + (big,))
        elif kind == 4 and trial % 16 == 4:
            f = f + IntPoly((rng.choice((1, -1)) * 10**rng.randint(309, 400),))
        elif kind == 5:
            g = _random_monic(rng, rng.randint(1, 4))
            f = g * g * _random_monic(rng, max(1, d - 2 * g.degree))
        elif kind == 6 and trial % 16 == 6:
            f = IntPoly((0,) * rng.randint(1, 4) + (rng.randint(1, 3),))
            seen["t^k"] += 1
        if not f or f.degree < 1:
            continue
        coeffs = list(f.coeffs)
        start = P._eigenvalues(coeffs)
        want_start, moved, want = _stagewise_float64_pass(coeffs, 1e-10)
        assert _bits(start) == _bits(want_start) and start.dtype == want_start.dtype, f
        # roots() certifies p only where the step stayed below _CLUSTER_STEP,
        # and each Yun part always.
        quiet = moved is not None and moved <= P._CLUSTER_STEP
        full, first = P._float64_pass(coeffs, 1e-10), P._float64_pass(coeffs, 1e-10, P._CLUSTER_STEP)
        for (got_start, got), expect in ((full, want), (first, want if quiet else None)):
            assert _bits(got_start) == _bits(want_start) and (got is None) == (expect is None), f
            if got is not None:
                assert _bits(np.array(got)) == _bits(np.array(expect)), f
        try:
            [c / f.leading for c in coeffs]
        except OverflowError:
            seen["fixed"] += 1
        if moved is None:
            assert max(map(abs, coeffs)) >= 2**53
            seen["big"] += 1
            continue
        seen["cluster"] += moved > P._CLUSTER_STEP
        disks = full[1]
        if disks is None:
            continue
        seen["disks"] += 1
        zs, radii = disks
        assert _pair_matrix(len(zs), P._near_pairs(zs, radii)) == _scalar_overlaps(zs, radii), f
        if len(zs) >= 48:
            for _ in range(4):
                near = _touching(rng, zs, radii)
                pairs = P._near_pairs(zs, near)
                assert _pair_matrix(len(zs), pairs) == _scalar_overlaps(zs, near), f
                seen["meet" if pairs else "apart"] += 1
    assert min(seen.values()) >= 20, seen
    # LAPACK's non-convergence: eigvals raises LinAlgError, the gufunc gives NaN.
    monkeypatch.setattr(_umath_linalg, "eigvals", lambda a, signature: np.full(len(a), complex(math.nan, math.nan)))
    for coeffs in ([-1, -1, 1], [0, 0, 2, 0, 3], list(lehmer_polynomial().coeffs)):
        fixed = np.array([complex(0.4 * k + 0.4, 0.9) for k in range(len(coeffs) - 1)])
        assert _bits(P._eigenvalues(coeffs)) == _bits(fixed)
        assert _bits(P._float64_pass(coeffs, 1e-10)[0]) == _bits(fixed)
    golden = (1 + 5**0.5) / 2
    rl = roots(IntPoly((-1, -1, 1)))
    assert abs(rl.roots[0] - golden) <= rl.radii[0] + 1e-15 and abs(rl.roots[1] + 1 / golden) <= rl.radii[1] + 1e-15


def _stepwise_weierstrass_f64(a, z):
    """_weierstrass_f64 one Horner step at a time, ten ufunc calls per
    coefficient: the oracle of its whole-array passes."""
    n = len(a) - 1
    g = 8 * (n + 2) * P._U / (1 - 8 * (n + 2) * P._U)
    with np.errstate(all="ignore"):
        az = np.abs(z)
        p = np.full(len(z), a[-1], dtype=complex)
        pa = np.abs(p)
        err = np.zeros(len(z))
        for c in a[-2::-1]:
            p = p * z + c
            qa = np.abs(p)
            err = az * err + (3 * P._U * az * pa + 2 * P._U * qa + P._ETA)
            pa = qa
        hi = (pa + err) * (1 + g)
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1)
        d[:, 0] *= a[-1]
        partial = np.cumprod(d, axis=1)
        mags = np.abs(partial)
        normal = (np.isfinite(mags) & (mags >= P._TINY)).all(axis=1)
        lo = np.where(normal, mags[:, -1] * (1 - g), 0.0)
    return hi, lo


def test_float64_bound_matches_the_stepwise_loop():
    """hi and lo bit for bit (a NaN matching any NaN) on seeded polynomials
    of degree 1-160: zero constant terms, coefficients near 2^53, leading
    coefficients up to 2^52, and centers whose Horner values overflow to
    inf or NaN, and centers scaled up until products overflow."""
    rng = random.Random(160)
    seen = dict.fromkeys(("zeros", "2^53", "inf", "nan"), 0)
    for trial in range(900):
        d = rng.randint(1, 160) if trial % 4 else rng.randint(1, 12)
        coeffs = [rng.randint(-9, 9) for _ in range(d)] + [rng.choice((1, 2, -3, 2**52 - 1))]
        kind = trial % 6
        if kind == 1:
            k = rng.randint(1, d)
            coeffs[:k] = [0] * k
            seen["zeros"] += 1
        elif kind == 2:
            coeffs[rng.randrange(d + 1)] = rng.choice((1, -1)) * (2**53 - rng.randint(1, 2**20))
            seen["2^53"] += 1
        a = np.array(coeffs, dtype=float)
        z = np.roots(a[::-1]).astype(complex)
        if len(z) != d:
            continue
        if kind == 3:
            z[rng.randrange(d)] = complex(rng.choice((1e200, 1e300)), rng.uniform(-1, 1))
        elif kind == 4:
            z[rng.randrange(d)] = complex(rng.choice((np.inf, -np.inf)), rng.choice((0.0, np.inf, 1.0)))
        elif kind == 5:
            z = z * 2.0 ** rng.randint(6, 12)
        with np.errstate(all="ignore"):  # as _float64_pass runs it
            hi, lo = P._weierstrass_f64(a, z)
        want_hi, want_lo = _stepwise_weierstrass_f64(a, z)
        for got, want in ((hi, want_hi), (lo, want_lo)):
            nan = np.isnan(want)
            assert (np.isnan(got) == nan).all(), (coeffs, z)
            assert _bits(got[~nan]) == _bits(want[~nan]), (coeffs, z)
        seen["inf"] += bool(np.isinf(want_hi).any())
        seen["nan"] += bool(np.isnan(want_hi).any())
    assert min(seen.values()) >= 10, seen


# ---------------------------------------------------------------------------
# Roots on the unit circle: the integer count against a 50-digit mpmath oracle


def _mp_circle_count(f: IntPoly) -> int:
    """Roots of f on |z| = 1 with multiplicity: each squarefree part's
    roots by mpmath.polyroots at 50 digits, on the circle when their
    modulus is within 10^-30 of 1 (the integer inputs below keep every
    other root at least 10^-6 away)."""
    count = 0
    for g, mult in P.squarefree_decomposition(f)[1]:
        if g.degree == 0:
            continue
        with mpmath.workdps(50):
            zs = mpmath.polyroots(g.coeffs[::-1], maxsteps=200, extraprec=100)
            near = [abs(abs(z) - 1) for z in zs]
        assert all(d < 1e-30 or d > 1e-6 for d in near), (g, near)
        count += mult * sum(d < 1e-30 for d in near)
    return count


def _on_circle_factor(rng) -> IntPoly:
    """a t^2 - b t + a with |b| < 2a: two conjugate roots of modulus 1,
    non-monic for a > 1."""
    a = rng.randint(1, 4)
    return IntPoly((a, -rng.randint(1 - 2 * a, 2 * a - 1), a))


def test_circle_count_pinned_values():
    L = lehmer_polynomial()
    assert C.circle_count(L) == 8 and not C.all_on_circle(L)
    assert C.circle_count(cyclotomic(7)) == 6 and C.all_on_circle(cyclotomic(7))
    assert C.circle_count(cyclotomic(15) * L) == 16
    big = cyclotomic(105) * cyclotomic(210)
    assert big.degree == 96 and C.circle_count(big) == 96 and C.all_on_circle(big)
    # non-monic, every root on the circle: 2t^4 - 5t^3 + 7t^2 - 5t + 2
    assert C.circle_count(IntPoly((2, -5, 7, -5, 2))) == 4
    assert C.all_on_circle(IntPoly((2, -5, 7, -5, 2)))
    # a root 0 is off the circle, a nonzero constant has no root at all
    assert C.circle_count(IntPoly((0, 0, 1, 1))) == 1 and not C.all_on_circle(IntPoly((0, 1, 1)))
    assert C.circle_count(IntPoly((-3,))) == 0 and C.all_on_circle(IntPoly((-3,)))
    with pytest.raises(ValueError):
        C.circle_count(IntPoly())
    with pytest.raises(ValueError):
        C.all_on_circle(IntPoly())


def test_circle_count_on_cyclotomic_products_with_multiplicities():
    rng = random.Random(36)
    for _ in range(40):
        f = IntPoly((1,))
        for _ in range(rng.randint(1, 4)):
            f = f * cyclotomic(rng.randint(1, 30)) ** rng.randint(1, 3)
        assert C.circle_count(f) == f.degree and C.all_on_circle(f), f
        # one factor with a root off the circle, times one on it
        g = f * IntPoly((1, -3, 1)) * _on_circle_factor(rng)
        assert C.circle_count(g) == f.degree + 2 == g.degree - 2 and not C.all_on_circle(g)
    sample = [cyclotomic(12) ** 3 * cyclotomic(1) ** 2, cyclotomic(9) * cyclotomic(2) ** 3 * IntPoly((-1, 1, 1))]
    for f in sample:
        assert C.circle_count(f) == _mp_circle_count(f)


def test_circle_count_on_salem_and_lehmer_type_polynomials():
    salem = {
        (1, -1, -1, -1, 1): 2,  # t^4 - t^3 - t^2 - t + 1
        (1, 0, -1, -1, -1, 0, 1): 4,  # t^6 - t^4 - t^3 - t^2 + 1
        (1, -1, 0, 0, -1, 0, 0, -1, 1): 6,
        LEHMER_COEFFS: 8,
        (1, 0, 0, -1, -1, -1, -1, -1, -1, -1, 0, 0, 1): 10,
    }
    for coeffs, want in salem.items():
        f = IntPoly(coeffs)
        assert C.circle_count(f) == want == _mp_circle_count(f) == f.degree - 2, coeffs
        assert not C.all_on_circle(f)
    # Lehmer-type: L(-t), L(t^2), L times Phi_d, and L squared
    L = lehmer_polynomial()
    for f, want in (
        (IntPoly(c * (-1) ** i for i, c in enumerate(LEHMER_COEFFS)), 8),
        (IntPoly(x for c in LEHMER_COEFFS for x in (c, 0)), 16),
        (L * cyclotomic(6) * cyclotomic(10), 14),
        (L * L, 16),
    ):
        assert C.circle_count(f) == want == _mp_circle_count(f), f
        assert not C.all_on_circle(f)


def test_circle_count_on_random_inputs_matches_the_oracle():
    """Random reciprocal and non-reciprocal inputs, with roots at +-1, and
    non-monic palindromes with every root on the circle."""
    rng = random.Random(3601)
    kinds = dict.fromkeys(("reciprocal", "antireciprocal", "plain", "on circle"), 0)
    for trial in range(80):
        kind = trial % 4
        d = rng.randint(1, 6)
        half = [rng.randint(-3, 3) for _ in range(d)] + [rng.randint(1, 3)]
        if kind == 0:
            f = IntPoly(half[::-1] + half[1:])
        elif kind == 1:
            f = IntPoly([-c for c in half[::-1]] + half)
        elif kind == 2:
            f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 10))] + [rng.randint(1, 3)])
        else:
            f = IntPoly((1,))
            for _ in range(rng.randint(1, 4)):
                f = f * _on_circle_factor(rng)
        f = f * IntPoly((-1, 1)) ** rng.randint(0, 2) * IntPoly((1, 1)) ** rng.randint(0, 2)
        if not f or f.coeffs[0] == 0:
            continue
        kinds[("reciprocal", "antireciprocal", "plain", "on circle")[kind]] += 1
        want = _mp_circle_count(f)
        assert C.circle_count(f) == want, f
        assert C.all_on_circle(f) == (want == f.degree), f
    assert min(kinds.values()) >= 15, kinds


def test_every_root_on_the_circle_iff_cyclotomic_for_monic_inputs():
    """Kronecker: a monic integer polynomial with f(0) != 0 has every root
    on the circle exactly when it is a product of cyclotomic polynomials."""
    rng = random.Random(3602)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        if trial % 2:
            f = IntPoly((1,))
            for _ in range(rng.randint(1, 3)):
                f = f * cyclotomic(rng.randint(1, 40)) ** rng.randint(1, 2)
            if trial % 6 == 1:
                f = f * rng.choice((lehmer_polynomial(), IntPoly((1, -1, -1, -1, 1)), IntPoly((-1, 1, 1))))
        else:  # a monic palindrome of odd or even degree
            half = [1] + [rng.randint(-2, 2) for _ in range(rng.randint(1, 5))]
            f = IntPoly(half + half[::-1] if trial % 4 else half + half[-2::-1])
        verdict = is_cyclotomic_product(f)
        assert C.all_on_circle(f) == verdict == (C.circle_count(f) == f.degree), f
        verdicts[verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_sturm_count_matches_the_oracle_on_random_polynomials():
    """The Sturm count of distinct roots in (-2, 2), and the gcd(h, h') it
    ends with, on random h with h(+-2) != 0, squares included.  Remainder
    sequences that drop two degrees at once onto a negative leading
    coefficient are where a sign could be lost."""
    rng = random.Random(3603)
    for _ in range(300):
        h = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(2, 7))] + [rng.choice((-2, -1, 1, 2))])
        if rng.random() < 0.3:
            h = h * IntPoly((rng.randint(-2, 2), 1)) ** 2
        if h.evaluate(2) == 0 or h.evaluate(-2) == 0:
            continue
        n, g = C._sturm(list(h.coeffs))
        assert IntPoly(g).primitive_part().coeffs in {
            c.coeffs for c in (P.poly_gcd(h, h.derivative()), -P.poly_gcd(h, h.derivative()))
        }
        want = 0
        for part, _ in P.squarefree_decomposition(h)[1]:
            with mpmath.workdps(50):
                zs = mpmath.polyroots(part.coeffs[::-1], maxsteps=200, extraprec=100)
                want += sum(abs(z.imag) < 1e-30 and abs(z.real) < 2 for z in zs)
        assert n == want, h
