import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lehmerlab._blockword import Budget, apply_endo_blocks, compress_images
from lehmerlab.dynamics import IntMatrix, char_poly
from lehmerlab.freegroup import (
    BudgetError,
    Endo,
    Word,
    abelianization,
    apply,
    compose,
    endo_from_matrix,
    format_endo,
    format_word,
    generator_lengths,
    growth_report,
    growth_report_sum,
    iterate_lengths,
    nielsen_verify_basis,
    parse_endo,
    parse_word,
    positive_f2_aut,
    reduce,
)
from lehmerlab.sequence import fit_min_poly
from lehmerlab.sequence import growth_report as seq_growth_report


def test_reduce_examples():
    assert reduce(2, [(1, 1), (2, 1), (2, -1), (1, 1)]).runs == ((1, 2),)
    assert reduce(1, [(1, 1), (1, -1)]).is_identity()
    assert reduce(2, [(1, 3), (2, 0), (1, 2)]).runs == ((1, 5),)


@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(-4, 4)), max_size=12
    )
)
def test_reduce_idempotent(raw):
    w = reduce(3, raw)
    assert reduce(3, w.runs) == w


def test_word_validation():
    with pytest.raises(ValueError):
        Word(2, ((3, 1),))
    with pytest.raises(ValueError):
        Word(2, ((1, 0),))
    with pytest.raises(ValueError):
        Word(2, ((1, 2), (1, 3)))


def test_word_rejects_non_integers():
    """Rank, generators and exponents, and the rank of an Endo, go through
    operator.index, so a float is rejected instead of truncated."""
    with pytest.raises(ValueError, match=r"exponent = 2.9 is not an integer"):
        Word(2, ((1, 2.9),))
    with pytest.raises(ValueError, match=r"rank = 2.0 is not an integer"):
        Word(2.0, ((1, 2),))
    with pytest.raises(ValueError, match=r"generator = 1.0 is not an integer"):
        Word.gen(2, 1.0)
    with pytest.raises(ValueError, match=r"exponent = 2.5 is not an integer"):
        reduce(2, [(1, 2.5)])
    w = Word(np.int64(2), ((True, np.int64(3)),))
    assert type(w.rank) is int and w == Word(2, ((1, 3),))
    images = (Word.gen(2, 1), Word.gen(2, 2))
    with pytest.raises(ValueError, match=r"rank = 2.0 is not an integer"):
        Endo(2.0, images)
    phi = Endo(np.int64(2), images)
    assert type(phi.rank) is int and format_endo(phi) == "a -> a; b -> b"


def test_word_algebra():
    w = parse_word("a^3 b^-2 a")
    assert w.length() == 6
    assert w.exponent_sum(1) == 4 and w.exponent_sum(2) == -2
    assert w.count_gen(1) == 4 and w.count_gen(2) == 2
    assert not w.is_positive()
    assert (w * w.inverse()).is_identity()
    u = parse_word("a b")
    assert format_word(u ** 3) == "a b a b a b"
    assert format_word(u ** -2) == "b^-1 a^-1 b^-1 a^-1"
    assert (u ** 0).is_identity()


def test_parse_format_roundtrip():
    for text in ("a^3 b^-2 a", "1", "a b a", "b^-1"):
        w = parse_word(text)
        assert format_word(w) == text
    w = parse_word("g1 g27^-2", rank=30)
    assert w.runs == ((1, 1), (27, -2))
    assert format_word(w) == "g1 g27^-2"
    with pytest.raises(ValueError):
        parse_word("c", rank=2)
    with pytest.raises(ValueError):
        parse_word("a$")


@pytest.mark.parametrize(
    "text", ["a^x", "a^1.5", "a^", "a$", "(a b)^2", "a^2^3", "a^1_0", "g\u00b2"]
)
def test_parse_word_names_the_bad_token(text):
    bad = text.split()[0]
    message = (
        f"bad word token {bad!r}: expected a letter a-z or g<i>, "
        "optionally followed by ^<e> with e a signed integer"
    )
    with pytest.raises(ValueError) as exc:
        parse_word(text)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        parse_endo(f"a -> {text}; b -> b")
    assert str(exc.value) == message


def test_parse_endo_roundtrip():
    phi = parse_endo("a -> a b a; b -> a b")
    assert format_endo(phi) == "a -> a b a; b -> a b"
    assert phi.rank == 2
    with pytest.raises(ValueError):
        parse_endo("a -> a b")  # missing a rule for b
    with pytest.raises(ValueError):
        parse_endo("a -> a; a -> b")


def test_apply_basic():
    phi = parse_endo("a -> a^3; b -> b^2")
    z = parse_word("a b")
    once = apply(phi, z)
    assert once.runs == ((1, 3), (2, 2))
    twice = apply(phi, once)
    assert twice.runs == ((1, 9), (2, 4))
    ident = Endo.identity(2)
    assert apply(ident, parse_word("a b^-5 a^2")) == parse_word("a b^-5 a^2")
    with pytest.raises(ValueError):
        apply(phi, parse_word("a", rank=3))


@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3)), max_size=6),
    st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3)), max_size=6),
)
@settings(max_examples=60, deadline=None)
def test_apply_is_homomorphism(raw_u, raw_v):
    phi = parse_endo("a -> a b^-1 a; b -> b a")
    u, v = reduce(2, raw_u), reduce(2, raw_v)
    assert apply(phi, u * v) == apply(phi, u) * apply(phi, v)


def test_compose_matches_double_apply():
    phi = parse_endo("a -> a b; b -> a")
    rho = compose(phi, phi)
    for text in ("a", "b", "a b^-1", "b^2 a^-3"):
        w = parse_word(text, rank=2)
        assert apply(rho, w) == apply(phi, apply(phi, w))


def test_iterate_lengths_powers():
    """Doubling/tripling generators grow as pure powers, exactly."""
    phi = parse_endo("a -> a^3; b -> b^2")
    assert list(iterate_lengths(phi, 1, 25).terms) == [3 ** n for n in range(1, 26)]
    assert list(iterate_lengths(phi, 2, 25).terms) == [2 ** n for n in range(1, 26)]


def test_iterate_lengths_rejects_float_generator():
    phi = parse_endo("a -> a b; b -> a")
    with pytest.raises(ValueError, match=r"generator = 1.7 is not an integer"):
        iterate_lengths(phi, 1.7, 3)
    assert iterate_lengths(phi, np.int64(2), 3) == iterate_lengths(phi, 2, 3)


def test_iterate_lengths_conjugated_basis():
    """The same map written in the basis (ab, b) mixes the generators and
    picks up lower-order terms; the lengths must still come out exact."""
    psi = parse_endo("a -> a b^-1 a b^-1 a b; b -> b^2")
    lengths = iterate_lengths(psi, 1, 25)
    assert list(lengths.terms) == [2 * 3 ** n + 2 ** n - 2 for n in range(1, 26)]
    fitted = fit_min_poly(lengths, 4)
    assert fitted.char_int().coeffs == (-6, 11, -6, 1)  # (t-1)(t-2)(t-3)


def test_iterate_identity_constant():
    ident = Endo.identity(3)
    w = parse_word("a b^-2 c", rank=3)
    assert list(iterate_lengths(ident, w, 6).terms) == [4] * 6


def test_iterate_lengths_word_argument():
    phi = parse_endo("a -> a^3; b -> b^2")
    z = parse_word("a b")
    assert list(iterate_lengths(phi, z, 10).terms) == [
        3 ** n + 2 ** n for n in range(1, 11)
    ]


def test_growth_report_product_basis():
    phi = parse_endo("a -> a^3; b -> b^2")
    rep = growth_report(phi, 3, 14)
    assert rep.best(0) == 1.0
    assert rep.best(1) == pytest.approx(3.0, abs=1e-9)
    assert rep.best(2) == pytest.approx(0.0, abs=1e-9)
    assert rep.best(3) == pytest.approx(0.0, abs=1e-9)
    # exact route fired: length sequences satisfy short recurrences
    assert all(r.min_poly is not None for r in rep.per_generator)


def test_growth_report_conjugated_basis():
    psi = parse_endo("a -> a b^-1 a b^-1 a b; b -> b^2")
    rep = growth_report(psi, 4, 16)
    assert rep.best(1) == pytest.approx(3.0, abs=1e-9)
    assert rep.best(2) == pytest.approx(6.0, abs=1e-9)
    assert rep.best(3) == pytest.approx(6.0, abs=1e-9)
    assert rep.best(4) == pytest.approx(0.0, abs=1e-9)


def test_growth_report_rank_one():
    phi = parse_endo("a -> a^2")
    rep = growth_report(phi, 1, 10)
    assert rep.best(1) == pytest.approx(2.0, abs=1e-12)


def test_growth_report_sum_variants():
    """Summed length sequences for the two bases of the doubling/tripling
    map have different lower-order terms but the same growth maxima."""
    phi = parse_endo("a -> a^3; b -> b^2")
    rep_xy = growth_report_sum(phi, 3, 16)
    assert rep_xy.entry(1).exact == pytest.approx(3.0, abs=1e-12)
    assert rep_xy.entry(2).exact == pytest.approx(6.0, abs=1e-12)
    assert rep_xy.min_poly.char_int().coeffs == (6, -5, 1)  # (t-2)(t-3)

    psi = parse_endo("a -> a b^-1 a b^-1 a b; b -> b^2")
    rep_zy = growth_report_sum(psi, 3, 16)
    assert rep_zy.min_poly.char_int().coeffs == (-6, 11, -6, 1)
    assert rep_zy.max_exact() == pytest.approx(rep_xy.max_exact(), abs=1e-12)

    # Tetranacci sums need degree 4; 8 terms fit at most degree 2.
    tetranacci = parse_endo("a -> a b; b -> a c; c -> a d; d -> a")
    rep_none = growth_report_sum(tetranacci, 2, 8)
    assert rep_none.min_poly is None and rep_none.entry(0).exact == 1.0
    assert rep_none.max_exact() is None

    ident = Endo.identity(2)
    rep_id = growth_report_sum(ident, 1, 10)
    assert rep_id.entry(1).exact == pytest.approx(1.0, abs=1e-12)


def test_endo_from_matrix_examples():
    phi = endo_from_matrix(IntMatrix(((1, 1), (1, 0))))
    assert format_endo(phi) == "a -> a b; b -> a"
    assert endo_from_matrix(IntMatrix(((3, 0), (0, 2)))) == parse_endo(
        "a -> a^3; b -> b^2"
    )
    zero = endo_from_matrix(IntMatrix(((0, 0), (0, 0))))
    assert all(w.is_identity() for w in zero.images)
    assert list(iterate_lengths(zero, 1, 4).terms) == [0, 0, 0, 0]
    with pytest.raises(ValueError):
        endo_from_matrix(IntMatrix(((1, -1), (0, 1))))


@given(
    st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(0, 3), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_occurrence_count_law(rows):
    """For the positive endomorphism read off a nonnegative matrix, the
    number of occurrences of g_j in phi^n(g_i) is the (i, j) entry of A^n."""
    a = IntMatrix(tuple(tuple(r) for r in rows))
    m = a.dim
    powers = [a.power(n) for n in range(1, 9)]
    assume(sum(sum(row) for row in powers[-1].rows) <= 200_000)
    phi = endo_from_matrix(a)
    for i in range(1, m + 1):
        w = Word.gen(m, i)
        for n in range(1, 9):
            w = apply(phi, w)
            for j in range(1, m + 1):
                assert w.count_gen(j) == powers[n - 1].rows[i - 1][j - 1]


def test_row_sum_lengths_and_char_recurrence():
    a = IntMatrix(((2, 1), (1, 1)))
    phi = endo_from_matrix(a)
    lengths = list(iterate_lengths(phi, 1, 12).terms)
    assert lengths == [sum(a.power(n).rows[0]) for n in range(1, 13)]
    # Cayley-Hamilton: lengths obey the recurrence of char(A) = t^2 - 3t + 1
    c = char_poly(a).coeffs
    for n in range(len(lengths) - 2):
        assert c[0] * lengths[n] + c[1] * lengths[n + 1] + c[2] * lengths[n + 2] == 0


def test_abelianization_examples():
    a = IntMatrix(((1, 2), (0, 1)))
    assert abelianization(endo_from_matrix(a)) == IntMatrix(((1, 0), (2, 1)))
    assert abelianization(Endo.identity(3)) == IntMatrix.identity(3)
    conj = parse_endo("a -> b a b^-1; b -> b")
    assert abelianization(conj) == IntMatrix.identity(2)


def test_positive_f2_aut_worked_instance():
    res = positive_f2_aut(IntMatrix(((2, 1), (1, 1))))
    assert format_word(res.endo.images[0]) == "a b a"
    assert format_word(res.endo.images[1]) == "a b"
    assert res.ds == (1,)
    assert not res.swapped
    assert abelianization(res.endo) == IntMatrix(((2, 1), (1, 1)))
    assert nielsen_verify_basis(*res.endo.images)


def test_positive_f2_aut_identity():
    res = positive_f2_aut(IntMatrix(((1, 0), (0, 1))))
    assert res.endo == Endo.identity(2)


def test_positive_f2_aut_shear():
    res = positive_f2_aut(IntMatrix(((1, 1), (0, 1))))
    assert all(w.is_positive() for w in res.endo.images)
    assert abelianization(res.endo) == IntMatrix(((1, 1), (0, 1)))
    assert nielsen_verify_basis(*res.endo.images)


def test_positive_f2_aut_swap_matrix():
    res = positive_f2_aut(IntMatrix(((0, 1), (1, 0))))
    assert abelianization(res.endo) == IntMatrix(((0, 1), (1, 0)))
    assert nielsen_verify_basis(*res.endo.images)


def test_positive_f2_aut_rejects_bad_input():
    with pytest.raises(ValueError):
        positive_f2_aut(IntMatrix(((1, 1), (1, 1))))
    with pytest.raises(ValueError):
        positive_f2_aut(IntMatrix(((1, -1), (0, 1))))
    with pytest.raises(ValueError):
        positive_f2_aut(IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))))


def test_positive_f2_aut_random_elementary_products():
    rng = random.Random(911)
    lower = lambda k: IntMatrix(((1, 0), (k, 1)))
    upper = lambda k: IntMatrix(((1, k), (0, 1)))
    for _ in range(60):
        a = IntMatrix.identity(2)
        for _ in range(rng.randrange(0, 11)):
            k = rng.randrange(1, 4)
            a = a @ (lower(k) if rng.random() < 0.5 else upper(k))
        res = positive_f2_aut(a)
        assert all(w.is_positive() or w.is_identity() for w in res.endo.images)
        assert abelianization(res.endo) == a
        assert nielsen_verify_basis(*res.endo.images)


def test_nielsen_verify_basis_cases():
    assert nielsen_verify_basis(parse_word("a b a", 2), parse_word("a b", 2))
    assert nielsen_verify_basis(parse_word("a", 2), parse_word("b", 2))
    assert not nielsen_verify_basis(parse_word("a", 2), parse_word("a", 2))
    assert not nielsen_verify_basis(parse_word("a^2", 2), parse_word("b", 2))
    assert nielsen_verify_basis(parse_word("a b", 2), parse_word("b", 2))


def _greedy_nielsen_oracle(u, v):
    """The former ``nielsen_verify_basis``: greedy Nielsen reduction, true
    iff (u, v) reduces to two generators."""
    pair = [u, v]
    total = pair[0].length() + pair[1].length()
    for _ in range(total + 2):
        if (
            pair[0].length() == 1
            and pair[1].length() == 1
            and pair[0].runs[0][0] != pair[1].runs[0][0]
        ):
            return True
        best = None
        for i in (0, 1):
            w, other = pair[i], pair[1 - i]
            for cand in (
                w * other,
                w * other.inverse(),
                other * w,
                other.inverse() * w,
            ):
                if cand.length() < w.length():
                    if best is None or cand.length() - w.length() < best[2]:
                        best = (i, cand, cand.length() - w.length())
        if best is None:
            return False
        pair[best[0]] = best[1]
    return False


def _random_f2_word(rng, length):
    return Word.from_letters(2, [rng.choice((1, -1, 2, -2)) for _ in range(length)])


def _random_nielsen_basis(rng, moves):
    """A basis of F_2 from (a, b) by random Nielsen moves: swap, invert
    one element, or multiply one by the other or its inverse on either side."""
    pair = [Word.gen(2, 1), Word.gen(2, 2)]
    for _ in range(moves):
        i = rng.randrange(2)
        other = pair[1 - i] ** rng.choice((1, -1))
        move = rng.randrange(4)
        if move == 0:
            pair.reverse()
        elif move == 1:
            pair[i] = pair[i].inverse()
        else:
            pair[i] = pair[i] * other if move == 2 else other * pair[i]
    return pair


def test_nielsen_verify_basis_matches_greedy_oracle():
    """The commutator test against greedy Nielsen reduction on seeded
    bases (some conjugated by a common word), perturbed bases and short
    random pairs, the identity included."""
    rng = random.Random(1917)
    pairs = []
    for _ in range(800):
        u, v = _random_nielsen_basis(rng, rng.randrange(9))
        if rng.random() < 0.3:
            w = _random_f2_word(rng, rng.randrange(1, 4))
            u, v = w * u * w.inverse(), w * v * w.inverse()
        pairs.append((u, v))
    for _ in range(700):
        u, v = _random_nielsen_basis(rng, rng.randrange(1, 9))
        kind = rng.randrange(3)
        if kind == 0:
            u = u * _random_f2_word(rng, rng.randrange(1, 3))
        elif kind == 1:
            u = u**2
        else:
            v = _random_f2_word(rng, 1) * v
        pairs.append((u, v))
    for _ in range(600):
        pairs.append((_random_f2_word(rng, rng.randrange(5)), _random_f2_word(rng, rng.randrange(5))))
    verdicts = [nielsen_verify_basis(u, v) for u, v in pairs]
    assert verdicts == [_greedy_nielsen_oracle(u, v) for u, v in pairs]
    assert len(pairs) >= 2000 and 500 <= sum(verdicts) <= len(pairs) - 500


def test_nielsen_verify_basis_long_powers():
    """(a^N b, a^(N-1) b) is a basis at every N; greedy reduction needs
    about N rounds, so it is checked only at small N."""
    a, b = Word.gen(2, 1), Word.gen(2, 2)
    for n in (1, 2, 10, 1000):
        assert nielsen_verify_basis(a**n * b, a ** (n - 1) * b)
        assert _greedy_nielsen_oracle(a**n * b, a ** (n - 1) * b)
    n = 10**6
    assert nielsen_verify_basis(a**n * b, a ** (n - 1) * b)
    assert not nielsen_verify_basis(a**n * b, a ** (n - 2) * b)


def test_iteration_budget_error():
    phi = parse_endo("a -> b a b^-1 a; b -> a")
    with pytest.raises(BudgetError):
        iterate_lengths(phi, 1, 40, budget=10_000)


def _engine_lengths(phi, w, n_terms):
    """|phi^n(w)| by building every phi^n(w) in the block engine."""
    images = compress_images(phi.images)
    lengths = []
    for _ in range(n_terms):
        w = apply_endo_blocks(images, w, Budget(10**9))
        lengths.append(w.length())
    return lengths


def _random_positive_word(rng, rank, max_count):
    letters = [g for g in range(1, rank + 1) for _ in range(rng.randrange(max_count + 1))]
    rng.shuffle(letters)
    return reduce(rank, [(g, 1) for g in letters])


def test_positive_lengths_match_block_engine():
    """Positive maps and words take the abelianization route; the block
    engine, iterated directly, is the oracle."""
    rng = random.Random(2005)
    identity_images = 0
    for _ in range(200):
        rank = rng.randrange(2, 5)
        images = tuple(
            Word.empty(rank) if rng.random() < 0.1 else _random_positive_word(rng, rank, 3)
            for _ in range(rank)
        )
        identity_images += sum(u.is_identity() for u in images)
        phi = Endo(rank, images)
        if rng.random() < 0.5:
            w = rng.randrange(1, rank + 1)
            start = Word.gen(rank, w)
        else:
            w = start = _random_positive_word(rng, rank, 2)
        # Keep the oracle's words below about 10^5 letters.
        widest = max([1] + [u.length() for u in images])
        n_terms = rng.randrange(1, 9)
        while n_terms > 1 and max(1, start.length()) * widest**n_terms > 100_000:
            n_terms -= 1
        got = iterate_lengths(phi, w, n_terms, budget=0)
        assert list(got.terms) == _engine_lengths(phi, start, n_terms), (phi, start)
    assert identity_images > 0


def test_generator_lengths_match_block_engine():
    """One row pass u_n = 1^T A^n gives every generator's lengths; the
    block engine, iterated per generator, is the oracle."""
    rng = random.Random(1969)
    for _ in range(120):
        rank = rng.randrange(1, 5)
        images = tuple(
            Word.empty(rank) if rng.random() < 0.1 else _random_positive_word(rng, rank, 3)
            for _ in range(rank)
        )
        phi = Endo(rank, images)
        widest = max([1] + [u.length() for u in images])
        n_terms = rng.randrange(1, 9)
        while n_terms > 1 and widest**n_terms > 100_000:
            n_terms -= 1
        got = generator_lengths(phi, n_terms, budget=0)
        assert [list(s.terms) for s in got] == [
            _engine_lengths(phi, Word.gen(rank, g), n_terms) for g in range(1, rank + 1)
        ], phi
    mixed = parse_endo("a -> a b a^-1; b -> b a")
    assert generator_lengths(mixed, 6) == tuple(iterate_lengths(mixed, g, 6) for g in (1, 2))
    with pytest.raises(BudgetError):
        generator_lengths(mixed, 40, budget=10_000)
    with pytest.raises(ValueError, match="need n_terms >= 1"):
        generator_lengths(mixed, 0)


def test_growth_report_certifies_each_fitted_polynomial_once(monkeypatch):
    import lehmerlab.sequence as S

    calls = []
    real_roots = S.roots
    monkeypatch.setattr(S, "roots", lambda f, tol: calls.append(f) or real_roots(f, tol))
    tetra = parse_endo("a -> a b; b -> a c; c -> a d; d -> a")
    rep = growth_report(tetra, 3, 16)
    assert len(calls) == 1 and calls[0].coeffs == (-1, -1, -1, -1, 1)
    singles = tuple(
        seq_growth_report(iterate_lengths(tetra, g, 16), 3) for g in range(1, 5)
    )
    assert rep.per_generator == singles
    assert len(calls) == 5


def test_inverse_letters_take_the_block_engine():
    fib = parse_endo("a -> a b; b -> a")
    assert list(iterate_lengths(fib, 1, 40, budget=0).terms)[:4] == [2, 3, 5, 8]
    for word in ("a^-1", "a b^-1 a"):
        with pytest.raises(BudgetError):
            iterate_lengths(fib, parse_word(word, 2), 40, budget=10_000)
    with pytest.raises(BudgetError):
        iterate_lengths(parse_endo("a -> a b a; b -> b^-1"), 1, 40, budget=10_000)


def test_positive_lengths_reach_ten_thousand_iterates():
    fib = [1, 1]
    while len(fib) < 10_002:
        fib.append(fib[-1] + fib[-2])
    start = time.perf_counter()
    seq = iterate_lengths(parse_endo("a -> a b; b -> a"), 1, 10_000)
    elapsed = time.perf_counter() - start
    assert list(seq.terms) == fib[2:]
    assert elapsed < 1.0


@given(
    st.lists(st.tuples(st.integers(1, 2), st.integers(-3, 3)), max_size=8)
)
@settings(max_examples=60, deadline=None)
def test_apply_triangle_inequality(raw):
    phi = parse_endo("a -> a b a; b -> a^-1 b")
    w = reduce(2, raw)
    bound = sum(
        abs(e) * phi.images[g - 1].length() for g, e in w.runs
    )
    assert apply(phi, w).length() <= bound


# ---------------------------------------------------------------------------
# The block engine against a letter-level oracle

import json  # noqa: E402

from lehmerlab import _blockword, cli  # noqa: E402
from lehmerlab._blockword import Builder  # noqa: E402
from lehmerlab.braid import BraidWord, artin_endo  # noqa: E402


def _pairs(runs):
    """(signed letter, count) pairs of a run list."""
    return [(g if e > 0 else -g, abs(e)) for g, e in runs]


def _letters(w):
    return _pairs(w.runs)


def _inv(pairs):
    return [(-x, c) for x, c in reversed(pairs)]


def _flat_reduce(pairs):
    """Free reduction of (letter, count) pairs, as if letter by letter;
    returns the run list."""
    out = []
    for x, c in pairs:
        while c and out and out[-1][0] == -x:
            m = min(c, out[-1][1])
            c -= m
            out[-1][1] -= m
            if not out[-1][1]:
                out.pop()
        if c and out and out[-1][0] == x:
            out[-1][1] += c
        elif c:
            out.append([x, c])
    return tuple((abs(x), c if x > 0 else -c) for x, c in out)


def _flat_apply(phi, pairs):
    out = []
    for x, c in pairs:
        img = _letters(phi.images[abs(x) - 1])
        out += (img if x > 0 else _inv(img)) * c
    return _flat_reduce(out)


def _random_word(rng, rank, big):
    """A word built with * and ** from generator powers (exponents up to
    +-10^6 when big) and powers of short multi-letter words, next to its
    oracle letter list."""
    word, pairs = Word.empty(rank), []
    for _ in range(rng.randrange(0, 6)):
        g = rng.randrange(1, rank + 1)
        if rng.random() < 0.4:
            e = rng.choice([-1, 1]) * rng.randrange(1, 10 ** 6 if big else 4)
            word = word * Word.gen(rank, g, e)
            pairs += _pairs([(g, e)])
            continue
        raw = [(rng.randrange(1, rank + 1), rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        u = reduce(rank, raw[: rng.randrange(1, 4)])
        k = rng.choice([-1, 1]) * rng.randrange(1, 12)
        # u^k, then often a power of u^-1 that cancels part or all of it
        j = -k + rng.randrange(-2, 3) if rng.random() < 0.5 else 0
        word = word * u ** k * u ** j
        for p in (k, j):
            pairs += (_letters(u) if p > 0 else _inv(_letters(u))) * abs(p)
    return word, _flat_reduce(pairs)


def test_word_ops_match_flat_reduction_oracle():
    rng = random.Random(31337)
    for _ in range(200):
        rank = rng.randrange(1, 4)
        u, u_runs = _random_word(rng, rank, big=True)
        v, v_runs = _random_word(rng, rank, big=True)
        assert u.runs == u_runs
        assert reduce(rank, u.runs + v.runs).runs == (u * v).runs
        assert (u * v).runs == _flat_reduce(_letters(u) + _letters(v))
        assert u.inverse().runs == _flat_reduce(_inv(_letters(u)))
        assert (u * u.inverse()).is_identity()
        k = rng.randrange(-3, 4)
        base = _letters(u) if k >= 0 else _inv(_letters(u))
        assert (u ** k).runs == _flat_reduce(base * abs(k))
        # a huge power of a conjugated generator power stays small
        g, e = rng.randrange(1, rank + 1), rng.randrange(1, 4)
        big = rng.randrange(1, 10 ** 6)
        conj = v * Word.gen(rank, g, e) * v.inverse()
        expected = _letters(v) + [(g, e * big)] + _inv(_letters(v))
        assert (conj ** big).runs == _flat_reduce(expected)
        assert conj ** big == reduce(rank, conj.runs) ** big
        assert hash(conj ** big) == hash(Word(rank, _flat_reduce(expected)))

    # apply, on random images with powers.  a -> (a b)^3, b -> (b^-1 a^-1)^2
    # b^-1 sends a b to a through a partial cancel of two power blocks.
    phi = parse_endo("a -> a b a b a b; b -> b^-1 a^-1 b^-1 a^-1 b^-1")
    cases = [(phi, parse_word("a b"))]
    for _ in range(120):
        rank = rng.randrange(2, 4)
        images = tuple(_random_word(rng, rank, big=False)[0] for _ in range(rank))
        cases.append((Endo(rank, images), _random_word(rng, rank, big=False)[0]))
    for phi, w in cases:
        assert apply(phi, w).runs == _flat_apply(phi, _letters(w))
        twice = apply(phi, apply(phi, w))
        assert twice.runs == _flat_apply(phi, _pairs(_flat_apply(phi, _letters(w))))
        lengths = [apply(phi, w).length(), twice.length()]
        assert list(iterate_lengths(phi, w, 2).terms) == lengths
    assert apply(*cases[0]) == parse_word("a", 2)


def test_hash_and_eq_ignore_block_form(monkeypatch):
    rng = random.Random(2024)
    words, reblocked = [], 0
    for _ in range(200):
        rank = rng.randrange(1, 4)
        u, u_runs = _random_word(rng, rank, big=False)
        flat = Word(rank, u_runs)  # single-letter blocks only
        reblocked += u.blocks != flat.blocks
        assert u == flat and hash(u) == hash(flat)
        words.append((u, u_runs))
    assert reblocked >= 40  # 46 with this seed
    for (u, u_runs), (v, v_runs) in zip(words, words[1:]):
        assert (u == v) == (u.rank == v.rank and u_runs == v_runs)
    # Same length and end letters, different words.
    assert Word(2, ((1, 1), (2, 1), (1, 1))) != Word(2, ((1, 3),))

    a, b = Word.gen(2, 1), Word.gen(2, 2)
    n = 100_000
    big, other = (a * b) ** n, b.inverse() * (b * a) ** n * b
    assert big.blocks != other.blocks
    calls = []
    to_runs = Word.to_runs
    monkeypatch.setattr(Word, "to_runs", lambda w: calls.append(w) or to_runs(w))
    assert hash(big) == hash(other)
    # A different length or different end letters is decided from the blocks.
    assert big != big * a and big != (b * a) ** n and big != a * big * a.inverse()
    assert not calls
    assert big == other


def _flat_cyclic_length(pairs):
    """Length of the cyclic reduction of a reduced word, letter by letter."""
    letters = [x for x, c in pairs for _ in range(c)]
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i, j = i + 1, j - 1
    return j - i + 1


def _flat_power(pairs, k):
    """Run list of u^k (k >= 0) by repeated squaring with _flat_reduce."""
    out, square = (), _flat_reduce(pairs)
    while k:
        if k & 1:
            out = _flat_reduce(_pairs(out) + _pairs(square))
        square = _flat_reduce(_pairs(square) * 2)
        k >>= 1
    return out


def _cut_inside_power(blocks, k):
    """True when letter k falls strictly inside a copy of a multi-letter
    power block."""
    for base, e in blocks:
        if k < e * len(base):
            return len(base) > 1 and e >= 2 and k % len(base) != 0
        k -= e * len(base)
    return False


def _both_ends(cuts):
    """Powers whose split cut inside a power block at both ends of u; each
    such power splits twice, at |p| and then at |c|."""
    return sum(front and back for front, back in zip(cuts[0::2], cuts[1::2]))


def _random_cyclic(rng, rank, length):
    """A random cyclically reduced word of the given length (>= 2)."""
    while True:
        w = Word.from_letters(
            rank, [rng.choice([-1, 1]) * rng.randrange(1, rank + 1) for _ in range(length)]
        )
        if w.length() >= 2 and _flat_cyclic_length(_letters(w)) == w.length():
            return w


def _power_ended_word(rng, rank):
    """x^i m y^j, where the last letter of y often cancels the first letter
    of x, so that the cyclic split of the word cuts inside both powers."""
    x = _random_cyclic(rng, rank, rng.randrange(2, 4))
    y = _random_cyclic(rng, rank, rng.randrange(2, 4))
    if rng.random() < 0.7:
        first = x.flatten()[0]
        letters = y.flatten()[:-1] + [-first]
        if letters[0] != first:  # keep y cyclically reduced
            y = Word.from_letters(rank, letters)
    middle = _random_word(rng, rank, big=False)[0]
    return x ** rng.randrange(2, 5) * middle * y ** rng.randrange(2, 5)


def test_cyclic_split_matches_flat_oracle(monkeypatch):
    """u ** k, |u u| - |u| and apply on words with power blocks at both
    ends, against letter-level reduction; the cyclic split must be hit
    inside a multi-letter power block at both ends of u."""
    cuts = []
    split = _blockword._split

    def recording_split(blocks, k):
        cuts.append(_cut_inside_power(blocks, k))
        return split(blocks, k)

    monkeypatch.setattr(_blockword, "_split", recording_split)
    rng = random.Random(1929)
    a, b, c = (Word.gen(3, g) for g in (1, 2, 3))
    words = [(a * b) ** 2 * c * (c * a.inverse()) ** 2]  # p = a, mid-block twice
    assert words[0].blocks[0][1] >= 2 and words[0].blocks[-1][1] >= 2
    for _ in range(300):
        words.append(_power_ended_word(rng, rng.randrange(2, 4)))
    for u in words:
        assert _flat_cyclic_length(_letters(u)) == (u * u).length() - u.length()
        for k in range(-5, 6):
            base = _letters(u) if k >= 0 else _inv(_letters(u))
            assert (u ** k).runs == _flat_reduce(base * abs(k)), (u, k)
    assert _both_ends(cuts) >= 300

    del cuts[:]
    for u in words[:100]:
        rank = u.rank
        images = (u,) + tuple(_random_word(rng, rank, big=False)[0] for _ in range(rank - 1))
        phi = Endo(rank, images)
        w = Word.gen(rank, 1, rng.choice([-1, 1]) * rng.randrange(2, 6))
        w = w * _random_word(rng, rank, big=False)[0]
        assert apply(phi, w).runs == _flat_apply(phi, _letters(w)), (phi, w)
    assert _both_ends(cuts) >= 10

    # (b a)^n a^4 b^-1 (a^-1 b^-1)^(n-1) = p a^5 p^-1 with p = (b a)^(n-1) b,
    # cut inside the first block; its huge powers stay small.
    a, b = Word.gen(2, 1), Word.gen(2, 2)
    u = (b * a) ** 7 * a**4 * b.inverse() * (a.inverse() * b.inverse()) ** 6
    del cuts[:]
    for k in (10**6, 10**6 + 1, -(3 * 10**6)):
        base = _letters(u) if k >= 0 else _inv(_letters(u))
        assert (u ** k).runs == _flat_power(base, abs(k))
        assert len((u ** k).blocks) <= len(u.blocks) + 2
    assert cuts[0]


def test_builder_partial_inverse_power_cancel():
    """A partly cancelled power block must not keep a single multi-letter
    copy as a block, or the next letter pops a copy of its base."""
    b = Builder()
    b.push_block((1, 2), 3)
    b.push_block((-2, -1), 2)
    b.push_block((-2,), 1)
    assert b.result(2).runs == ((1, 1),)
    phi = artin_endo(BraidWord(4, (1, 2, 2, 3, 1), 2))
    boundary = parse_word("a b c d")
    assert apply(phi, boundary) == boundary


def test_artin_action_fixes_boundary_word():
    rng = random.Random(1911)
    braids = [BraidWord(4, (1, 2, 2, 3, 1), 2)]
    for _ in range(100):
        n = rng.randrange(2, 6)
        letters = tuple(
            rng.choice([-1, 1]) * rng.randrange(1, n) for _ in range(rng.randrange(0, 13))
        )
        braids.append(BraidWord(n, letters, rng.randrange(-2, 3)))
    for beta in braids:
        boundary = reduce(beta.n, [(g, 1) for g in range(1, beta.n + 1)])
        assert apply(artin_endo(beta), boundary) == boundary, beta


def test_flat_cap_error_names_the_limit(capsys):
    # Normalizing powers of the long image cores (up to 75025 letters)
    # is charged to --budget, and the error names that budget.
    argv = [
        "fg-iterate", "--endo", "a -> a b; b -> a", "--word", "a^-1",
        "--iters", "26", "--json-only", "--budget", "50000",
    ]
    code = cli.main(argv)
    assert code == 1
    message = json.loads(capsys.readouterr().out)["error"]["message"]
    assert message == "budget of 50000 operations exceeded"
