import math
import random
import re
import time

import numpy as np
import pytest

from lehmerlab._circle import circle_count
from lehmerlab.braid import (
    BraidWord,
    BurauMat,
    _dynnikov_apply,
    artin_endo,
    det_burau_minus_identity,
    dynnikov_entropy,
    entropy_estimate,
    format_braid,
    gap_from_det,
    lehmer_gap,
    parse_braid,
    reduced_alexander,
    reduced_burau,
)
from lehmerlab.dynamics import IntMatrix
from lehmerlab.freegroup import BudgetError, abelianization, apply, format_endo, parse_word
from lehmerlab.polynomial import DEFAULT_TOL, IntPoly, LaurentPoly, lehmer_polynomial, mahler_measure, poly_det


def lehmer_neg_t() -> LaurentPoly:
    L = lehmer_polynomial()
    return LaurentPoly(
        tuple(c * (-1) ** i for i, c in enumerate(L.coeffs)), 0
    ).canonical()


# The three low-strand pseudo-Anosov braids whose closures (after the right
# full-twist power) give the (-2,3,7)-pretzel knot.  The B5 word needs the
# inverse twist: its positive-twist closure is a 26-crossing positive braid
# whose Alexander polynomial has degree 22, which no convention can shrink.
PRETZEL_BRAIDS = (
    ("s1 s2^-1 T^2", 3),
    ("s3 s2 s1^-1 T^1", 4),
    ("s1 s2 s3 s4 s1 s2 T^-1", 5),
)


def test_parse_braid_examples():
    b = parse_braid("s1 s2^-1", 3)
    assert b.letters == (1, -2) and b.full_twist_power == 0
    b = parse_braid("s1 s2^-1 T^2", 3)
    assert b.letters == (1, -2) and b.full_twist_power == 2
    assert parse_braid("1 -2", 3).letters == (1, -2)
    assert parse_braid("s2^3", 3).letters == (2, 2, 2)
    assert parse_braid("s2^-2 T^-1", 3) == BraidWord(3, (-2, -2), -1)
    with pytest.raises(ValueError):
        parse_braid("s5", 3)
    with pytest.raises(ValueError):
        parse_braid("x1", 3)
    with pytest.raises(ValueError):
        BraidWord(1, ())


@pytest.mark.parametrize("text", ["(s1 s2)^3", "s1^x", "s1^", "T^", "s1^2^3", "1_0", "s\u00b2"])
def test_parse_braid_names_the_bad_token(text):
    bad = text.split()[0]
    with pytest.raises(ValueError) as exc:
        parse_braid(text, 3)
    assert str(exc.value) == (
        f"bad braid token {bad!r}: expected s<i>, s<i>^<e>, T^<k> or a signed integer"
    )


_ORACLE_TOKEN = re.compile(r"(?:s([0-9]+)|(T)|([+-]?[0-9]+))(?:\^([+-]?[0-9]+))?")


def _parse_braid_oracle(text: str, n: int) -> BraidWord:
    """The per-token parser: one fullmatch per whitespace-separated token,
    its letters appended in order."""
    letters: list[int] = []
    twist = 0
    for tok in text.split():
        match = _ORACLE_TOKEN.fullmatch(tok)
        if match is None:
            raise ValueError(
                f"bad braid token {tok!r}: expected s<i>, s<i>^<e>, T^<k> "
                "or a signed integer"
            )
        gen, full_twist, bare, exp = match.groups()
        e = int(exp) if exp else 1
        if full_twist:
            twist += e
            continue
        if bare is not None and e != 1:
            raise ValueError(f"exponent syntax needs s-notation: {tok!r}")
        i = int(gen if gen is not None else bare)
        if i == 0:
            raise ValueError("generator index 0 is not valid")
        letters.extend([i if e > 0 else -i] * abs(e))
    return BraidWord(n, tuple(letters), twist)


def _outcome(parse, text, n):
    try:
        return parse(text, n)
    except ValueError as exc:
        return str(exc)


def test_parse_braid_matches_per_token_oracle():
    """parse_braid gives the per-token parser's word or its first error, word
    for word and message for message, on seeded texts mixing s<i>^<e>,
    T^k, bare signed integers, repeated tokens, odd whitespace and every
    error class: a bad token, an exponent on a bare integer, index 0, a
    letter out of range, and two of them in either order."""
    rng = random.Random(1887)
    good = ["s1", "s2", "s3^-1", "s2^2", "s1^0", "s01", "s3^+2", "T", "T^-2", "T^3",
            "T^0", "1", "-2", "+3", "3^1", "-1^+1", "s4"]
    bad = ["x1", "s1^", "T^", "(s1", "s1^2^3", "1_0", "s\u00b2", "s-1", "t^2", "2^2",
           "-3^-1", "s0", "0", "-0^1", "0^2", "-0^-3", "s0^2", "s9", "-9",
           "s7^-1"]
    spaces = [" ", "  ", "\t", "\n", " \u3000", "\x1f"]
    texts = ["", " ", "s1 s1^-1", "T^2", "s1 0 x1", "x1 s1 0", "2^2 s0", "s0 2^2", "s9 x1"]
    for _ in range(600):
        pool = good + bad if rng.random() < 0.5 else good
        toks = [rng.choice(pool) for _ in range(rng.randint(0, 25))]
        texts.append(rng.choice(spaces[:2]) * rng.randint(0, 1)
                     + "".join(t + rng.choice(spaces) for t in toks))
    kinds = set()
    for text in texts:
        for n in (3, 5):
            want = _outcome(_parse_braid_oracle, text, n)
            assert _outcome(parse_braid, text, n) == want, (text, n)
            kinds.add(want.split(" ")[0] if isinstance(want, str) else "word")
    assert kinds == {"word", "bad", "exponent", "generator", "letter"}


def test_format_braid_roundtrip():
    for text in ("s1 s2^-1", "s1 s2^-1 T^2", "s3 s2 s1^-1 T^-1", "1", ""):
        b = parse_braid(text, 4)
        assert parse_braid(format_braid(b), 4) == b


def test_braid_word_rejects_non_integers():
    """Strand count, letters and twist power go through operator.index, so
    a float is rejected at construction instead of truncated or failing on
    use."""
    with pytest.raises(ValueError, match=r"letter = 1.7 is not an integer"):
        BraidWord(3, (1.7, -2.2), 0.5)
    with pytest.raises(ValueError, match=r"full_twist_power = 0.5 is not an integer"):
        BraidWord(3, (1, -2), 0.5)
    with pytest.raises(ValueError, match=r"strand count n = 3.0 is not an integer"):
        BraidWord(3.0, (1,))
    with pytest.raises(ValueError, match=r"letter = '1' is not an integer"):
        BraidWord(3, ("1",))
    b = BraidWord(np.int64(3), (True, np.int8(-2)), np.int64(1))
    assert b == BraidWord(3, (1, -2), 1)
    assert all(type(v) is int for v in (b.n, *b.letters, b.full_twist_power))
    assert len(b.expanded_letters()) == 2 + 6


def test_burau_b2():
    b = parse_braid("s1", 2)
    mat = reduced_burau(b)
    assert mat.entries == ((LaurentPoly((-1,), 1),),)
    det = det_burau_minus_identity(b)
    assert det.canonical().coeffs == (1, 1)
    assert reduced_alexander(b).coeffs == (1,)  # unknot
    assert lehmer_gap(b) == pytest.approx(1.0, abs=1e-12)


def test_burau_identity_cases():
    assert reduced_burau(BraidWord(4)).entries == BurauMat.identity(3).entries
    assert (
        reduced_burau(parse_braid("s1 s1^-1", 4)).entries
        == BurauMat.identity(3).entries
    )
    assert (
        reduced_burau(parse_braid("s2 s2^-1 s3^-1 s3", 4)).entries
        == BurauMat.identity(3).entries
    )


def test_braid_relations_exact():
    for n in (3, 4, 5):
        for i in range(1, n - 1):
            lhs = reduced_burau(BraidWord(n, (i, i + 1, i)))
            rhs = reduced_burau(BraidWord(n, (i + 1, i, i + 1)))
            assert lhs.entries == rhs.entries, (n, i)
    far = reduced_burau(BraidWord(4, (1, 3)))
    assert far.entries == reduced_burau(BraidWord(4, (3, 1))).entries


def test_braid_relation_product_value():
    # sigma1 sigma2 sigma1 in B3 works out to [[0, -t^2], [-t, 0]]
    mat = reduced_burau(BraidWord(3, (1, 2, 1)))
    t = LaurentPoly((1,), 1)
    zero = LaurentPoly()
    assert mat.entries == ((zero, -1 * t * t), (-1 * t, zero))


def test_representation_property_random_words():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randrange(2, 6)
        gens = list(range(1, n)) + [-i for i in range(1, n)]
        w1 = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randrange(0, 5))),
                       rng.randrange(-1, 2))
        w2 = BraidWord(n, tuple(rng.choice(gens) for _ in range(rng.randrange(0, 5))),
                       rng.randrange(-1, 2))
        lhs = reduced_burau(w1 * w2)
        rhs = reduced_burau(w1) @ reduced_burau(w2)
        assert lhs.entries == rhs.entries


def test_full_twist_is_scalar():
    """The full twist must land on t^n times the identity; this pins the
    twist expansion as the actual center of the representation."""
    for n in (3, 4, 5):
        tw = reduced_burau(BraidWord(n, (), 1))
        tn = LaurentPoly((1,), n)
        for i in range(n - 1):
            for j in range(n - 1):
                expect = tn if i == j else LaurentPoly()
                assert tw.entries[i][j] == expect


def test_pretzel_alexander_all_three():
    target = lehmer_neg_t()
    for text, n in PRETZEL_BRAIDS:
        alex = reduced_alexander(parse_braid(text, n))
        assert alex == target, text


def test_det_factored_form_b3():
    b = parse_braid("s1 s2^-1 T^2", 3)
    det = det_burau_minus_identity(b)
    expected = (LaurentPoly((1, 1, 1), 0) * lehmer_neg_t()).canonical()
    assert det.canonical() == expected


def test_alexander_errors():
    with pytest.raises(ValueError):
        reduced_alexander(BraidWord(3))  # trivial braid, det = 0
    with pytest.raises(ValueError):
        lehmer_gap(BraidWord(4))


def test_alexander_conjugation_invariance():
    rng = random.Random(7)
    base = parse_braid("s3 s2 s1^-1 T^1", 4)
    target = reduced_alexander(base)
    gens = [1, 2, 3, -1, -2, -3]
    for _ in range(8):
        g = BraidWord(4, tuple(rng.choice(gens) for _ in range(rng.randrange(1, 5))))
        conj = g * base * g.inverse()
        assert reduced_alexander(conj) == target


def test_lehmer_gap_pretzel():
    gap = lehmer_gap(parse_braid("s1 s2^-1 T^2", 3))
    assert gap == pytest.approx(1.17628081825991, rel=1e-9)


def test_gap_agrees_with_the_float_route_and_is_exact_on_the_circle():
    """Seeded braids on n <= 7 strands, length <= 40, twists -2..2: the gap
    is the float route's mahler_measure value to 1e-12 relative, and exactly
    |lc| whenever the count puts every root of det(B - I) on the circle."""
    rng = random.Random(36)
    exact = inexact = 0
    for _ in range(150):
        n = rng.randint(2, 7)
        letters = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 40))]
        det = det_burau_minus_identity(BraidWord(n, letters, rng.randint(-2, 2)))
        if not det:
            continue
        f = det.canonical().to_int_poly()
        gap = gap_from_det(det, DEFAULT_TOL)
        assert gap == pytest.approx(mahler_measure(f).value, rel=1e-12, abs=0), f
        if circle_count(f) == f.degree:
            assert gap == float(abs(f.leading)), f
            exact += 1
        else:
            inexact += 1
    assert exact >= 30 and inexact >= 30, (exact, inexact)


def test_gap_is_the_leading_coefficient_when_every_root_is_on_the_circle():
    # det(B - I) = (2t^4 - 5t^3 + 7t^2 - 5t + 2)(1 + t + t^2 + t^3) up to a
    # unit; the float route gives 2.000000000000001.
    beta = parse_braid("s1 s1^-1 s1^-1 s3 s3 s2 s2 s3^-1 s1^-1 s3^-1 s1^-1 s1^-1 s3 s2 s1^-1 s1 s1", 4)
    assert lehmer_gap(beta) == 2.0


def test_artin_single_letter():
    phi = artin_endo(parse_braid("s1", 2))
    assert format_endo(phi) == "a -> a b a^-1; b -> a"
    psi = artin_endo(parse_braid("s1^-1", 2))
    assert format_endo(psi) == "a -> b; b -> b^-1 a b"
    ident = artin_endo(parse_braid("s1 s1^-1", 3))
    assert all(
        ident.images[g - 1] == parse_word("abc"[g - 1], 3) for g in range(1, 4)
    )


def test_artin_preserves_boundary_word():
    for text, n in (("s1 s2^-1 T^2", 3), ("s3 s2 s1^-1", 4), ("s1 s2 s3 s4 s1 s2 T^-1", 5)):
        phi = artin_endo(parse_braid(text, n))
        boundary = parse_word(" ".join("abcde"[:n]), n)
        assert apply(phi, boundary) == boundary


def test_artin_abelianization_is_permutation():
    for text, n in (("s1 s2^-1", 3), ("s3 s2 s1^-1 T^1", 4)):
        mat = abelianization(artin_endo(parse_braid(text, n)))
        assert sorted(map(tuple, mat.rows)) == sorted(
            map(tuple, IntMatrix.identity(n).rows)
        )


def test_entropy_minimal_pa_braids():
    cases = (
        ("s1 s2^-1", 3, 2.61803, 12),
        ("s3 s2 s1^-1", 4, 2.29663, 12),
        ("s1 s2 s3 s4 s1 s2", 5, 1.72208, 16),
    )
    for text, n, target, n_terms in cases:
        est = entropy_estimate(parse_braid(text, n), n_terms)
        assert est.gr1 == pytest.approx(target, rel=0.02), text
        assert est.log_gr1 == pytest.approx(math.log(target), abs=0.02)


def test_entropy_full_twist_invariance():
    plain = entropy_estimate(parse_braid("s1 s2^-1", 3), 12)
    twisted = entropy_estimate(parse_braid("s1 s2^-1 T^1", 3), 12)
    spread = max(r.spread for r in plain.per_generator) + max(
        r.spread for r in twisted.per_generator
    )
    assert abs(plain.gr1 - twisted.gr1) <= spread


def test_entropy_trivial_braid():
    est = entropy_estimate(parse_braid("s1 s1^-1", 3), 6)
    assert est.gr1 == pytest.approx(1.0, abs=1e-12)
    assert est.log_gr1 == pytest.approx(0.0, abs=1e-12)


def test_entropy_needs_enough_terms():
    with pytest.raises(ValueError):
        entropy_estimate(parse_braid("s1", 2), 3)


def test_entropy_ignores_conjugation_and_twist():
    """Growth rates are conjugacy invariants and T^k acts by an inner
    automorphism, so conjugated and twisted spellings of the 5-strand
    acceptance braid give its estimate exactly, within 2% of the
    dilatation, and so does the identity with a twist."""
    base = entropy_estimate(parse_braid("s1 s2 s3 s4 s1 s2", 5))
    assert base.gr1 == pytest.approx(1.722083805739043, rel=0.02)
    for text in (
        "s3^-1 s1 s2 s3 s4 s1 s2 s3",
        "s1 s1 s2 s3 s4 s1 s2 s1^-1 T^1",
        "s2 s4 s1 s2 s3 s4 s1 s2 s4^-1 s2^-1 T^-2",
    ):
        assert entropy_estimate(parse_braid(text, 5)) == base, text
    twist_only = entropy_estimate(parse_braid("s1 s2 s2^-1 s1^-1 T^1", 3), 6)
    assert twist_only.gr1 == 1.0


# Dynnikov coordinates: the three acceptance braids and their dilatations.
ACCEPTANCE_DILATATIONS = (
    ("s1 s2^-1", 3, 2.618033988749895),
    ("s3 s2 s1^-1", 4, 2.2966302628865383),
    ("s1 s2 s3 s4 s1 s2", 5, 1.722083805739043),
)


def _random_coords(rng, n):
    return tuple(
        tuple(rng.randint(-10**6, 10**6) for _ in range(n - 2)) for _ in range(2)
    )


def _dynnikov(letters, a, b):
    """Dynnikov coordinates (a, b) of a curve after the letters act."""
    a, b = list(a), list(b)
    _dynnikov_apply(a, b, letters)
    return tuple(a), tuple(b)


def test_dynnikov_inverse_letters_undo():
    rng = random.Random(57)
    for n in range(3, 8):
        for _ in range(40):
            a, b = _random_coords(rng, n)
            for i in range(1, n):
                for word in ((i, -i), (-i, i)):
                    assert _dynnikov(word, a, b) == (a, b), (n, word)


def test_dynnikov_braid_relations():
    rng = random.Random(58)
    for n in range(3, 8):
        for _ in range(40):
            a, b = _random_coords(rng, n)

            def act(*letters):
                return _dynnikov(letters, a, b)

            for i in range(1, n):
                for s in (1, -1):
                    if i + 1 < n:
                        x, y = s * i, s * (i + 1)
                        assert act(x, y, x) == act(y, x, y), (n, x, y)
                    for j in range(i + 2, n):
                        assert act(s * i, j) == act(j, s * i), (n, s * i, j)


def test_dynnikov_full_twist_fixes_coordinates():
    rng = random.Random(59)
    for n in range(3, 8):
        twist = BraidWord(n, tuple(range(1, n)) * n)
        for _ in range(40):
            a, b = _random_coords(rng, n)
            assert _dynnikov(twist.letters, a, b) == (a, b), n
            assert _dynnikov(twist.inverse().letters, a, b) == (a, b), n


def test_dynnikov_entropy_acceptance_braids():
    """At 100 iterates every acceptance braid is within 1e-9 of its
    dilatation, in under 50 ms for the three (best of three runs)."""
    braids = [(parse_braid(text, n), lam) for text, n, lam in ACCEPTANCE_DILATATIONS]
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        ests = [dynnikov_entropy(beta, 100) for beta, _ in braids]
        elapsed.append(time.perf_counter() - t0)
    for est, (beta, lam) in zip(ests, braids):
        assert abs(est.gr1 - lam) <= 1e-9 * lam, beta
        assert est.log_gr1 == math.log(est.gr1)
        assert [g.generator for g in est.per_generator] == list(range(1, beta.n + 1))
    assert min(elapsed) < 0.05, elapsed


def test_dynnikov_entropy_agrees_with_word_route():
    """On seeded braids with n <= 5 where the word route converged (spread
    of its last ratios below 1e-3), the estimates agree within that spread."""
    rng = random.Random(19)
    nontrivial = 0
    for _ in range(12):
        n = rng.randint(3, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 5))
        )
        beta = BraidWord(n, letters)
        try:
            words = entropy_estimate(beta, 12, budget=300_000)
        except BudgetError:
            continue
        spread = max(r.spread for r in words.per_generator)
        if spread >= 1e-3:
            continue
        assert abs(dynnikov_entropy(beta, 100).gr1 - words.gr1) <= spread, beta
        nontrivial += words.gr1 > 2
    assert nontrivial >= 2


def test_dynnikov_entropy_exactly_one_when_nothing_grows():
    for beta in (
        BraidWord(3),
        parse_braid("s1 s1^-1", 3),
        parse_braid("s1 s2 s2^-1 s1^-1 T^1", 3),
        parse_braid("T^-2", 6),
    ):
        est = dynnikov_entropy(beta, 6)
        assert est.gr1 == 1.0 and est.log_gr1 == 0.0, beta
    # x_g is fixed by a braid that never touches strand g, on both routes.
    for text, fixed in (("s1 s2^-1", 4), ("s2 s3^-1", 1)):
        per = dynnikov_entropy(parse_braid(text, 4)).per_generator
        for r in per:
            assert (r.estimate == 1.0 and r.spread == 0.0) == (r.generator == fixed), text
    with pytest.raises(ValueError):
        dynnikov_entropy(parse_braid("s1", 2), 3)


def _generator_oracle(n: int, letter: int) -> BurauMat:
    """Explicit reduced Burau matrix of one letter: the identity with a
    1x1, 2x2 or 3x3 block placed on the diagonal."""
    t, nt = LaurentPoly((1,), 1), LaurentPoly((-1,), 1)
    ti, nti = LaurentPoly((1,), -1), LaurentPoly((-1,), -1)
    one, zero = LaurentPoly((1,)), LaurentPoly()
    i, inv, m = abs(letter), letter < 0, n - 1
    if m == 1:
        block, at = ((nti if inv else nt,),), 0
    elif i == 1:
        block = ((nti, zero), (ti, one)) if inv else ((nt, zero), (one, one))
        at = 0
    elif i == m:
        block = ((one, one), (zero, nti)) if inv else ((one, t), (zero, nt))
        at = m - 2
    else:
        block = (
            ((one, one, zero), (zero, nti, zero), (zero, ti, one))
            if inv
            else ((one, t, zero), (zero, nt, zero), (zero, one, one))
        )
        at = i - 2
    rows = [list(r) for r in BurauMat.identity(m).entries]
    for di, brow in enumerate(block):
        for dj, v in enumerate(brow):
            rows[at + di][at + dj] = v
    return BurauMat(tuple(tuple(r) for r in rows))


def test_burau_matches_generator_matrix_product():
    """The column rule and the t^{nk} twist shortcut agree with the product
    of explicit generator matrices over the word with its twist spelled out."""
    rng = random.Random(2005)
    for n in range(2, 8):
        gens = list(range(1, n)) + [-i for i in range(1, n)]
        for _ in range(8):
            beta = BraidWord(
                n,
                tuple(rng.choice(gens) for _ in range(rng.randrange(0, 31))),
                rng.randrange(-2, 3),
            )
            oracle = BurauMat.identity(n - 1)
            for letter in beta.expanded_letters():
                oracle = oracle @ _generator_oracle(n, letter)
            assert reduced_burau(beta).entries == oracle.entries, beta


def _det_laurent_oracle(mat: BurauMat) -> LaurentPoly:
    """The slow exact route: clear t powers, then polynomial Bareiss
    elimination with an exact polynomial division at every step."""
    m = mat.size
    low = min((v.min_deg for row in mat.entries for v in row if v), default=0)
    shift = max(0, -low)
    a = [[v.shifted(shift).to_int_poly() for v in row] for row in mat.entries]
    sign = 1
    prev = IntPoly((1,))
    for k in range(m - 1):
        if not a[k][k]:
            pivot = next((r for r in range(k + 1, m) if a[r][k]), None)
            if pivot is None:
                return LaurentPoly()
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).exact_div(prev)
            a[i][k] = IntPoly()
        prev = a[k][k]
    det = a[m - 1][m - 1] if sign == 1 else -a[m - 1][m - 1]
    return LaurentPoly(det.coeffs, -shift * m)


def test_det_matches_polynomial_bareiss_oracle():
    """Kronecker substitution gives det(Burau - I) exactly as the polynomial
    Bareiss elimination does, on 200 seeded words plus edge cases and the
    words of ``_long_and_reducing_words``."""
    rng = random.Random(1923)
    cases = [
        BraidWord(2),
        BraidWord(2, (1,)),
        BraidWord(2, (-1, -1, -1), 1),
        BraidWord(5),
        BraidWord(7, (), -2),
        BraidWord(4, (-1, -2, -3, -2, -1)),
        BraidWord(9, (-8, -7, -1, -3, -5) * 6, -1),
    ]
    cases += [beta for beta, _ in _long_and_reducing_words(random.Random(1924), (450, 600))]
    for _ in range(200):
        n = rng.randint(2, 9)
        gens = list(range(1, n)) + [-i for i in range(1, n)]
        length = rng.randint(0, 40)
        cases.append(
            BraidWord(n, tuple(rng.choice(gens) for _ in range(length)), rng.randint(-2, 2))
        )
    vanished = 0
    for beta in cases:
        det = det_burau_minus_identity(beta)
        assert det == _det_laurent_oracle(reduced_burau(beta).minus_identity()), beta
        vanished += not det
    assert not det_burau_minus_identity(BraidWord(6))
    assert vanished > 1


def _burau_laurent_oracle(beta: BraidWord) -> BurauMat:
    """The column rule in LaurentPoly arithmetic, every intermediate entry a
    validated LaurentPoly: s_i makes column j = i - 1 t*(col_{j-1} - col_j)
    + col_{j+1}, s_i^-1 makes it col_{j-1} + t^-1*(col_{j+1} - col_j), and
    T^k shifts every entry by t^{nk}."""
    m = beta.n - 1
    zero, one = LaurentPoly(), LaurentPoly((1,))
    cols = [[zero] * m] + [[one if i == j else zero for i in range(m)] for j in range(m)]
    cols.append([zero] * m)
    for letter in beta.letters:
        i = abs(letter)
        left, mid, right = cols[i - 1 : i + 2]
        if letter > 0:
            cols[i] = [(a - b).shifted(1) + c for a, b, c in zip(left, mid, right)]
        else:
            cols[i] = [a + (c - b).shifted(-1) for a, b, c in zip(left, mid, right)]
    shift = beta.n * beta.full_twist_power
    return BurauMat(tuple(tuple(v.shifted(shift) for v in row) for row in zip(*cols[1:-1])))


def _assert_normalized(v: LaurentPoly):
    assert type(v.min_deg) is int and all(type(c) is int for c in v.coeffs), v
    if v.coeffs:
        assert v.coeffs[0] != 0 and v.coeffs[-1] != 0, v
    else:
        assert v.min_deg == 0, v


def _long_and_reducing_words(rng, lengths):
    """(word, reduced) pairs: one-signed words at n = 3 and 4 of the given
    lengths, whose Burau coefficients pass 2^64, of either sign with a twist
    of -2..2, and all-inverse words with T^-2, with reduced None; then words
    that freely reduce to the identity or to one letter (w w^-1, w w^-1 s_i
    and s_i with nested cancelling pairs), with the letters they reduce to."""
    words = []
    for n, length in zip((3, 4, 3, 4), lengths * 2):
        sign = rng.choice((1, -1))
        letters = tuple(sign * rng.randint(1, n - 1) for _ in range(length))
        words.append((BraidWord(n, letters, rng.randint(-2, 2)), None))
    for n in (3, 5, 8):
        words.append((BraidWord(n, tuple(-rng.randint(1, n - 1) for _ in range(60)), -2), None))
    for n in (2, 4, 7):
        w = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(30)]
        inv = [-x for x in reversed(w)]
        i = rng.choice((1, -1)) * rng.randint(1, n - 1)
        words += [
            (BraidWord(n, tuple(w + inv), rng.randint(-2, 2)), ()),
            (BraidWord(n, tuple(w + inv + [i])), (i,)),
            (BraidWord(n, tuple([i] + w[:10] + inv[-10:] + w[10:] + inv[:-10]), 1), (i,)),
        ]
    return words


def test_burau_lists_match_laurent_oracle():
    """reduced_burau agrees with the LaurentPoly column rule on seeded words,
    n = 2..12, length <= 200, twist -2..2, including one-signed words, whose
    degrees drift away from 0, and words that cancel, and on the words of
    ``_long_and_reducing_words`` and the powers of s1 s2^-1, whose
    coefficients come within a few bits of the width's bound; every entry
    comes out normalized.  det_burau_minus_identity agrees with poly_det on
    the oracle matrix where the benchmark's alexander cells reach (length
    <= 2400 / n^2: 200 letters at n = 3, 16 at n = 12), since beyond that
    one determinant takes up to a second."""
    rng = random.Random(1313)
    cases = [BraidWord(n) for n in (2, 3, 7, 12)] + [
        BraidWord(5, (), 2),
        BraidWord(4, (1, -1, 2, 3, -3, -2) * 20, -1),
        BraidWord(6, tuple(range(1, 6)) * 12),
        BraidWord(6, tuple(range(-5, 0)) * 40, 2),
        BraidWord(3, (1, 2) * 100, -2),
    ]
    long_words = _long_and_reducing_words(random.Random(1314), (400, 1000))
    cases += [beta for beta, _ in long_words]
    # Powers of the pseudo-Anosov s1 s2^-1, whose coefficients stay within
    # a few bits of the per-column bound, which meets every residue mod 8.
    cases += [BraidWord(3, (1, -2) * k) for k in range(1, 41)]
    for _ in range(80):
        n = rng.randint(2, 12)
        signs = rng.choice(((1,), (-1,), (1, -1)))
        length = rng.randint(0, rng.choice((200, min(200, 2400 // n**2))))
        letters = tuple(rng.choice(signs) * rng.randint(1, n - 1) for _ in range(length))
        cases.append(BraidWord(n, letters, rng.randint(-2, 2)))
    checked = 0
    for beta in cases:
        mat = reduced_burau(beta)
        oracle = _burau_laurent_oracle(beta)
        assert mat.entries == oracle.entries, beta
        for row in mat.entries:
            for v in row:
                _assert_normalized(v)
        if len(beta.letters) > 2400 // beta.n**2:
            continue
        checked += 1
        rows = oracle.minus_identity().entries
        low = min((v.min_deg for row in rows for v in row if v), default=0)
        shift = max(0, -low)
        expect = poly_det([[v.shifted(shift).to_int_poly() for v in row] for row in rows])
        det = det_burau_minus_identity(beta)
        assert det == LaurentPoly(expect.coeffs, -shift * len(rows)), beta
        _assert_normalized(det)
    assert checked >= 40
    # The long one-signed words pass 2^64; a cancelling word has the matrix
    # of the letters it reduces to.
    for beta, reduced in long_words:
        mat = reduced_burau(beta)
        if reduced is None:
            if len(beta.letters) >= 400:
                assert max(abs(c) for row in mat.entries for v in row for c in v.coeffs) > 2**64
        else:
            assert mat == reduced_burau(BraidWord(beta.n, reduced, beta.full_twist_power)), beta
