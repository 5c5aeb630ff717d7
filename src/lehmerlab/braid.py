"""Braid words, the reduced Burau representation, Alexander polynomials of
braid closures, and entropy estimation from the action on curves.

Burau matrices are exact Laurent-polynomial matrices.  The letters are
freely reduced first; then each letter rewrites one column of the running
product, whose entries are held as one integer each, their value at
t = 2^b (Kronecker packing), so a letter costs three integer operations per
entry.  The width b comes from a rigorous coefficient bound and the product
is held times t^K (K the number of inverse letters), so every shift is exact
(proofs in ``_burau_packed``); a full twist T^k scales the product by
t^{nk}.  The digits are read once, at the end, by the balanced-digit helper
of ``polynomial``.  det(Burau - I) is one integer determinant after
Kronecker substitution, through the core that ``polynomial.poly_det`` uses
too, and is shared by the Alexander polynomial and Lehmer gap.

The Lehmer gap M(det(Burau - I)) is exact when every root of the
determinant has modulus 1, as for a constant or cyclotomic Alexander
polynomial: ``_circle.all_on_circle`` decides that in integers (reciprocity,
the trace substitution t + 1/t, Descartes' rule, a Sturm sequence), and the
gap is then |lc|.  Only the other determinants take certified roots.

Entropy is estimated from Dynnikov coordinates: each letter acts on the
integer coordinates of a curve by a piecewise-linear map, so an iterate
costs one integer update per letter (``dynnikov_entropy``).  The induced
free-group action (``artin_endo``) builds the words phi^n(x_g) exactly in
the freegroup module; ``entropy_estimate`` reads the growth rate from their
lengths, at a cost exponential in the iterate count.
"""

from __future__ import annotations

import math

from .freegroup import DEFAULT_BUDGET, Endo, Word, apply, compose, generator_lengths
from .polynomial import (
    DEFAULT_TOL, LaurentPoly, _int_arg, _int_list, _kronecker_det, _LazyPattern, _Record, _unpack,
    mahler_measure,
)

__all__ = [
    "BraidWord",
    "BurauMat",
    "EntropyEstimate",
    "GeneratorRatios",
    "parse_braid",
    "format_braid",
    "reduced_burau",
    "det_burau_minus_identity",
    "alexander_from_det",
    "reduced_alexander",
    "gap_from_det",
    "lehmer_gap",
    "artin_endo",
    "entropy_estimate",
    "dynnikov_entropy",
]


class BraidWord(_Record):
    """Word in the braid group B_n: generator letters plus a formal central
    full-twist power (letter i > 0 is the i-th generator, i < 0 its inverse).
    The strand count, letters and twist power must be integers; anything
    else raises ValueError."""

    n: int
    letters: tuple[int, ...]
    full_twist_power: int

    def __init__(self, n, letters=(), full_twist_power=0):
        n = _int_arg(n, "strand count n")
        if n < 2:
            raise ValueError("braid groups need at least 2 strands")
        letters = tuple(_int_list(letters, "letter"))
        if letters and (min(letters) < 1 - n or max(letters) > n - 1 or 0 in letters):
            x = next(x for x in letters if x == 0 or abs(x) > n - 1)
            raise ValueError(f"letter {x} outside generator range 1..{n - 1}")
        full_twist_power = _int_arg(full_twist_power, "full_twist_power")
        vars(self).update(n=n, letters=letters, full_twist_power=full_twist_power)

    def expanded_letters(self) -> tuple[int, ...]:
        """Letters with the full twist spelled out as (s_{n-1}...s_1)^n."""
        k = self.full_twist_power
        if k == 0:
            return self.letters
        if k > 0:
            twist = tuple(range(self.n - 1, 0, -1)) * (self.n * k)
        else:
            twist = tuple(range(-1, -self.n, -1)) * (self.n * (-k))
        return self.letters + twist

    def inverse(self) -> "BraidWord":
        return BraidWord(
            self.n,
            tuple(-x for x in reversed(self.letters)),
            -self.full_twist_power,
        )

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BraidWord(
            self.n,
            self.letters + other.letters,
            self.full_twist_power + other.full_twist_power,
        )

    def __str__(self):
        return format_braid(self)


_BRAID_TOKEN = _LazyPattern(r"(?:s([0-9]+)|(T)|([+-]?[0-9]+))(?:\^([+-]?[0-9]+))?")


def _braid_token(tok: str) -> tuple[tuple[int, ...], int]:
    """The letters and the twist power one token stands for."""
    match = _BRAID_TOKEN.fullmatch(tok)
    if match is None:
        raise ValueError(
            f"bad braid token {tok!r}: expected s<i>, s<i>^<e>, T^<k> "
            "or a signed integer"
        )
    gen, full_twist, bare, exp = match.groups()
    e = int(exp) if exp else 1
    if full_twist:
        return (), e
    if bare is not None and e != 1:
        raise ValueError(f"exponent syntax needs s-notation: {tok!r}")
    i = int(gen if gen is not None else bare)
    if i == 0:
        raise ValueError("generator index 0 is not valid")
    return (i if e > 0 else -i,) * abs(e), 0


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse "s1 s2^-1 T^2" (or bare signed integers) into a braid word, in
    one pass over the tokens; each distinct token is parsed once, when it
    first appears, so the first token in error raises."""
    letters: list[int] = []
    twist = 0
    parsed: dict[str, tuple[tuple[int, ...], int]] = {}
    for tok in text.split():
        word = parsed.get(tok)
        if word is None:
            word = parsed[tok] = _braid_token(tok)
        letters += word[0]
        twist += word[1]
    return BraidWord(n, letters, twist)


def format_braid(b: BraidWord) -> str:
    parts = [f"s{x}" if x > 0 else f"s{-x}^-1" for x in b.letters]
    if b.full_twist_power:
        parts.append(f"T^{b.full_twist_power}")
    return " ".join(parts)  # the identity is "", which parse_braid reads back


# ---------------------------------------------------------------------------
# Reduced Burau representation


_ZERO = LaurentPoly()
_ONE = LaurentPoly((1,))


class BurauMat(_Record):
    """Square matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __init__(self, entries):
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("matrix must be square")
        vars(self)["entries"] = entries

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, m: int) -> "BurauMat":
        return cls(
            tuple(
                tuple(_ONE if i == j else _ZERO for j in range(m))
                for i in range(m)
            )
        )

    def __matmul__(self, other: "BurauMat") -> "BurauMat":
        if self.size != other.size:
            raise ValueError("size mismatch")
        m = self.size
        cols = tuple(zip(*other.entries))
        return BurauMat(
            tuple(
                tuple(
                    sum((a * b for a, b in zip(row, col)), _ZERO)
                    for col in cols
                )
                for row in self.entries
            )
        )

    def minus_identity(self) -> "BurauMat":
        return BurauMat(
            tuple(
                tuple(
                    v - _ONE if i == j else v
                    for j, v in enumerate(row)
                )
                for i, row in enumerate(self.entries)
            )
        )


def _free_reduce(letters) -> list[int]:
    """The letters with every adjacent s_i s_i^-1 and s_i^-1 s_i cancelled,
    in one stack pass.  Burau is a homomorphism, so the matrix is the same."""
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _burau_packed(beta: BraidWord) -> tuple[list[list[int]], int, int]:
    """(cols, w, K): the reduced Burau matrix of the free-reduced letters,
    times t^K, each entry held as one integer, its value at t = 2^(8w);
    cols[j][i] is entry (i, j).  The twist is left out (T^k is t^{nk}).

    Right-multiplying by s_i rewrites only column j = i - 1 (0-based): s_i
    makes it t*(col_{j-1} - col_j) + col_{j+1}, and s_i^-1 makes it
    t^-1*(col_{j+1} - col_j) + col_{j-1}, where a neighbour outside the
    matrix counts as zero.  At t = X = 2^b, b = 8w, these are
    ((L - M) << b) + R and ((R - M) >> b) + L.

    Width: no coefficient of column j exceeds sup_j, where sup_j starts at
    1 (the identity), is 0 outside the matrix, and each letter on column j
    sets sup_j = sup_{j-1} + sup_j + sup_{j+1}; so no intermediate L - M or
    R - M exceeds it either.  With b >= bitlen(max sup) + 2 every
    coefficient of the matrix, and of the matrix minus t^e I, lies below
    2^(b-2) < 2^(b-1) in absolute value, so each packed integer has the
    polynomial's coefficients as its balanced base-X digits.

    Offset: K is the number of inverse letters.  A prefix with k of them
    gives entries of min degree >= -k: the identity has min degree 0, s_i
    takes a min over degrees + 1 and degrees, and s_i^-1 over degrees - 1
    and degrees.  So when the (k+1)-th inverse letter comes, t^K (R - M)
    has min degree >= K - k >= 1, its packed value is divisible by X, and
    the ``>> b`` is exact; every stored entry has min degree >= 0.
    """
    letters = _free_reduce(beta.letters)
    m = beta.n - 1
    sup = [0] + [1] * m + [0]
    for x in letters:
        i = abs(x)
        sup[i] += sup[i - 1] + sup[i + 1]
    w = (max(sup).bit_length() + 9) // 8
    b = 8 * w
    big_k = sum(x < 0 for x in letters)
    one = 1 << (b * big_k)
    zero = [0] * m
    # Columns 1..m hold the product; columns 0 and m + 1 stay zero.
    cols = [zero] + [[one if i == j else 0 for i in range(m)] for j in range(m)] + [zero]
    for x in letters:
        if x > 0:
            left, mid, right = cols[x - 1 : x + 2]
            cols[x] = [((l - c) << b) + r for l, c, r in zip(left, mid, right)]
        else:
            left, mid, right = cols[-x - 1 : 2 - x]
            cols[-x] = [((r - c) >> b) + l for l, c, r in zip(left, mid, right)]
    return cols[1:-1], w, big_k


def reduced_burau(beta: BraidWord) -> BurauMat:
    """Reduced Burau matrix of the word, letters multiplied left to right.

    The product is taken in packed integers (``_burau_packed``, where the
    column rule, the coefficient bound and the t^K offset are proved) and
    each entry's digits are read once, at the end.  The full twist maps to
    t^n times the identity, so T^k shifts every entry by t^{nk}.
    """
    cols, w, big_k = _burau_packed(beta)
    shift = beta.n * beta.full_twist_power - big_k
    return BurauMat(
        tuple(
            tuple(LaurentPoly(c, low + shift) for low, c in (_unpack(v, w) for v in row))
            for row in zip(*cols)
        )
    )


def det_burau_minus_identity(beta: BraidWord) -> LaurentPoly:
    """det(Burau - I), exact.  With B = t^s P, s = nk for T^k and P the packed
    product t^K B0 of ``_burau_packed``, E = t^e (B - I) = t^(e - K + s) P
    - t^e I with e = max(K - s, 0) has no negative exponent; it is formed
    on the packed integers (its coefficients stay inside the width), read
    into (min_deg, coeffs) pairs, shifted down by their common lowest
    degree and handed to the Kronecker core (``polynomial._kronecker_det``);
    the determinant is shifted back."""
    cols, w, big_k = _burau_packed(beta)
    s = beta.n * beta.full_twist_power
    e, up = max(big_k - s, 0), max(s - big_k, 0) * 8 * w
    one = 1 << (8 * w * e)
    rows = [
        [_unpack((v << up) - one if i == j else v << up, w) for j, v in enumerate(row)]
        for i, row in enumerate(zip(*cols))
    ]
    low = min((d for row in rows for d, c in row if c), default=0)
    det_low, det = _kronecker_det([[(d - low if c else 0, c) for d, c in row] for row in rows])
    return LaurentPoly(det, det_low + len(rows) * (low - e))


def alexander_from_det(det: LaurentPoly, n: int) -> LaurentPoly:
    """det(Burau - I) divided by 1 + t + ... + t^{n-1}, in canonical form."""
    if not det:
        raise ValueError(
            "determinant vanishes; the closure has no reduced Alexander data"
        )
    quo = det.try_div(LaurentPoly((1,) * n, 0))
    if quo is None:
        raise ArithmeticError(
            "determinant not divisible by 1 + t + ... + t^{n-1}; "
            "Burau bookkeeping is inconsistent"
        )
    return quo.canonical()


def reduced_alexander(beta: BraidWord) -> LaurentPoly:
    """Reduced Alexander polynomial of the closure of the braid."""
    return alexander_from_det(det_burau_minus_identity(beta), beta.n)


def gap_from_det(det: LaurentPoly, tol: float) -> float:
    """Mahler measure of det(Burau - I); monomial factors contribute nothing.

    When every root has modulus 1, which ``_circle.all_on_circle`` decides
    in integers (the trace substitution and a Sturm sequence), the measure
    is exactly |lc| and no root is computed, so tol goes unused; otherwise
    it is ``mahler_measure(f, tol).value``, from certified roots."""
    if not det:
        raise ValueError("determinant vanishes; Mahler measure undefined")
    # The count is compiled on first use, not at package import.
    from ._circle import all_on_circle

    f = det.canonical().to_int_poly()
    if all_on_circle(f):
        return float(abs(f.leading))
    return mahler_measure(f, tol=tol).value


def lehmer_gap(beta: BraidWord, tol: float = DEFAULT_TOL) -> float:
    """Mahler measure of det(Burau - I) for the braid: exactly |lc| when
    every root is on the unit circle, else from certified roots within tol
    (``gap_from_det``)."""
    return gap_from_det(det_burau_minus_identity(beta), tol)


# ---------------------------------------------------------------------------
# Disk action on the free group and entropy


def _letter_endo(n: int, letter: int) -> Endo:
    i = abs(letter)
    images = [Word.gen(n, g) for g in range(1, n + 1)]
    xi, xj = Word.gen(n, i), Word.gen(n, i + 1)
    if letter > 0:
        images[i - 1] = xi * xj * xi.inverse()
        images[i] = xi
    else:
        images[i - 1] = xj
        images[i] = xj.inverse() * xi * xj
    return Endo(n, tuple(images))


def artin_endo(beta: BraidWord) -> Endo:
    """Induced automorphism of the free group on the punctures; letters act
    in word order (first letter innermost)."""
    phi = Endo.identity(beta.n)
    for letter in beta.expanded_letters():
        phi = compose(_letter_endo(beta.n, letter), phi)
    return phi


class GeneratorRatios(_Record):
    """One generator's growth-rate estimate, its last three raw ratios and
    their spread.  The spread is a convergence diagnostic of this
    generator's ratios; it does not bound the error of the estimate, nor
    of the ``gr1`` taken from it."""

    generator: int
    estimate: float
    last_ratios: tuple[float, ...]
    spread: float


class EntropyEstimate(_Record):
    """Largest per-generator growth-rate estimate plus diagnostics."""

    gr1: float
    log_gr1: float
    accelerated: bool
    per_generator: tuple[GeneratorRatios, ...]


def _core(beta: BraidWord) -> tuple[int, ...]:
    """The letters a growth rate depends on.  It is a conjugacy invariant and
    T^k acts by an inner automorphism (trivially on curves), so s w s^-1 T^k
    gives the letters of w."""
    core = beta.letters
    while len(core) > 1 and core[0] == -core[-1]:
        core = core[1:-1]
    return core


def _generator_ratios(g: int, terms: list[int], accel: bool) -> GeneratorRatios:
    """Estimate from the ratios of successive terms: the last raw ratio, or an
    Aitken step on the last three; their spread is the diagnostic."""
    # int / int is correctly rounded at any size, where float() overflows.
    ratios = [b / a for a, b in zip(terms, terms[1:])]
    tail = tuple(ratios[-3:])
    est = tail[-1]
    if accel:
        denom = tail[-1] - 2 * tail[-2] + tail[-3]
        if abs(denom) > 1e-12:
            ait = tail[-1] - (tail[-1] - tail[-2]) ** 2 / denom
            if math.isfinite(ait) and ait > 0:
                est = ait
    return GeneratorRatios(g, est, tail, max(tail) - min(tail))


def _largest(per: list[GeneratorRatios], accel: bool) -> EntropyEstimate:
    best = max(per, key=lambda r: r.estimate)
    return EntropyEstimate(best.estimate, math.log(best.estimate), accel, tuple(per))


def _check_terms(n_terms: int) -> None:
    if n_terms < 4:
        raise ValueError("need at least 4 iterates for a ratio estimate")


def entropy_estimate(
    beta: BraidWord,
    n_terms: int = 12,
    accel: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> EntropyEstimate:
    """Estimate the word-growth rate of the disk action from length ratios.

    The words phi^n(x_g), n = 1..n_terms, are built exactly, so the cost is
    exponential in ``n_terms``; ``dynnikov_entropy`` is the linear-cost
    route.  Ratios converge linearly, so an Aitken step on the last three
    usually gains several digits; the spread of the last three raw ratios
    is the reported convergence diagnostic of each generator, not a bound
    on the error of ``gr1``.
    """
    _check_terms(n_terms)
    phi = artin_endo(BraidWord(beta.n, _core(beta)))
    per = [
        _generator_ratios(g, seq.ints, accel)
        for g, seq in enumerate(generator_lengths(phi, n_terms, budget), 1)
    ]
    return _largest(per, accel)


# ---------------------------------------------------------------------------
# Dynnikov coordinates


def _dynnikov_apply(a: list[int], b: list[int], letters) -> None:
    """Act in place by the letters, in word order, on the Dynnikov
    coordinates (a_1..a_{m-2}, b_1..b_{m-2}) of a curve in the disk with
    m = len(a) + 2 punctures (m >= 3).

    With x+ = max(x, 0) and x- = min(x, 0): s_1 and s_{m-1} act on the pair
    (a_1, b_1), respectively (a_{m-2}, b_{m-2}); an interior s_i acts on
    (a_{i-1}, b_{i-1}, a_i, b_i) through c = a_{i-1} - a_i - b_i+ + b_{i-1}-.
    s_i^-1 = R s_i R with R(a, b) = (-a, b); s_i leaves the other
    coordinates alone, so only the a's it moves change sign.
    """
    last = len(a) + 1
    for letter in letters:
        i = abs(letter)
        s = 1 if letter > 0 else -1
        if i == 1:
            x, y = s * a[0], b[0]
            t = x + max(y, 0)
            a[0], b[0] = s * (max(t, 0) - y), t
        elif i == last:
            x, y = s * a[-1], b[-1]
            t = x + min(y, 0)
            a[-1], b[-1] = s * (min(t, 0) - y), t
        else:
            j = i - 2
            a0, b0, a1, b1 = s * a[j], b[j], s * a[j + 1], b[j + 1]
            c = a0 - a1 - max(b1, 0) + min(b0, 0)
            a[j] = s * (a0 - max(b0, 0) - max(max(b1, 0) + c, 0))
            b[j] = b1 + min(c, 0)
            a[j + 1] = s * (a1 - min(b1, 0) - min(min(b0, 0) - c, 0))
            b[j + 1] = b0 - min(c, 0)


def dynnikov_entropy(
    beta: BraidWord, n_terms: int = 12, accel: bool = True
) -> EntropyEstimate:
    """Estimate the growth rate of the disk action from Dynnikov coordinates.

    The disk gets n + 1 punctures: puncture 1 stands for the base point of
    the free group, and letter +-i acts as +-(i + 1).  Generator g is the
    curve around punctures 1 and 2 (a = 0, b = e_1) carried by s_2 ... s_g
    to one around the base point and puncture g + 1.  Its max-norm, at the
    start and after each of n_terms - 1 iterates of the braid, grows at the
    rate of |phi^n(x_g)|, and the ratios go through the same estimate as
    ``entropy_estimate``, with the same per-generator spread: a convergence
    diagnostic of one generator, not a bound on the error of ``gr1``.  Each
    iterate costs one integer update per letter.
    """
    _check_terms(n_terms)
    n = beta.n
    core = [x + 1 if x > 0 else x - 1 for x in _core(beta)]
    per = []
    for g in range(1, n + 1):
        a, b = [0] * (n - 1), [1] + [0] * (n - 2)
        _dynnikov_apply(a, b, range(2, g + 1))
        norms = [max(map(abs, a + b))]
        for _ in range(n_terms - 1):
            _dynnikov_apply(a, b, core)
            norms.append(max(map(abs, a + b)))
        per.append(_generator_ratios(g, norms, accel))
    return _largest(per, accel)
