"""Braid words, the reduced Burau representation, Alexander polynomials of
braid closures, and entropy estimation from the action on curves.

Burau matrices are exact Laurent-polynomial matrices: each letter rewrites
one column of the running product, held as plain integer coefficient lists,
and a full twist T^k scales it by t^{nk}.  det(Burau - I) is one integer
determinant after Kronecker substitution, through the core that
``polynomial.poly_det`` uses too, and is shared by the Alexander polynomial
and Lehmer gap.

Entropy is estimated from Dynnikov coordinates: each letter acts on the
integer coordinates of a curve by a piecewise-linear map, so an iterate
costs one integer update per letter (``dynnikov_entropy``).  The induced
free-group action (``artin_endo``) builds the words phi^n(x_g) exactly in
the freegroup module; ``entropy_estimate`` reads the growth rate from their
lengths, at a cost exponential in the iterate count.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

from .freegroup import DEFAULT_BUDGET, Endo, Word, apply, compose, generator_lengths
from .polynomial import DEFAULT_TOL, LaurentPoly, _int_arg, _kronecker_det, mahler_measure

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


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid group B_n: generator letters plus a formal central
    full-twist power (letter i > 0 is the i-th generator, i < 0 its inverse).
    The strand count, letters and twist power must be integers; anything
    else raises ValueError."""

    n: int
    letters: tuple[int, ...] = ()
    full_twist_power: int = 0

    def __post_init__(self):
        n = _int_arg(self.n, "strand count n")
        if n < 2:
            raise ValueError("braid groups need at least 2 strands")
        letters = tuple(_int_arg(x, "letter") for x in self.letters)
        for x in letters:
            if x == 0 or abs(x) > n - 1:
                raise ValueError(
                    f"letter {x} outside generator range 1..{n - 1}"
                )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(
            self, "full_twist_power", _int_arg(self.full_twist_power, "full_twist_power")
        )

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


_BRAID_TOKEN = re.compile(r"(?:s([0-9]+)|(T)|([+-]?[0-9]+))(?:\^([+-]?[0-9]+))?")


def parse_braid(text: str, n: int) -> BraidWord:
    """Parse "s1 s2^-1 T^2" (or bare signed integers) into a braid word."""
    letters: list[int] = []
    twist = 0
    for tok in text.split():
        match = _BRAID_TOKEN.fullmatch(tok)
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


def format_braid(b: BraidWord) -> str:
    parts = [f"s{x}" if x > 0 else f"s{-x}^-1" for x in b.letters]
    if b.full_twist_power:
        parts.append(f"T^{b.full_twist_power}")
    return " ".join(parts)  # the identity is "", which parse_braid reads back


# ---------------------------------------------------------------------------
# Reduced Burau representation


_ZERO = LaurentPoly()
_ONE = LaurentPoly((1,))


@dataclass(frozen=True)
class BurauMat:
    """Square matrix of Laurent polynomials."""

    entries: tuple[tuple[LaurentPoly, ...], ...]

    def __post_init__(self):
        m = len(self.entries)
        if any(len(row) != m for row in self.entries):
            raise ValueError("matrix must be square")

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


_ZERO_PAIR = (0, [])
_NONE = float("inf")  # stands in for the degrees of a zero entry in min/max bounds


def _shift_diff_add(x, y, z, k: int):
    """t^k * (x - y) + z on (min_deg, coeffs) pairs, in the same normal form
    as LaurentPoly: no zero end coefficients, and (0, []) for zero.  Inputs
    are never modified, so a result may share a list with them."""
    (dx, cx), (dy, cy), (dz, cz) = x, y, z
    if not cy:
        if not cx:
            return z
        if not cz:
            return dx + k, cx
    dx += k
    dy += k
    lo = min(dx if cx else _NONE, dy if cy else _NONE, dz if cz else _NONE)
    hi = max(
        dx + len(cx) if cx else -_NONE,
        dy + len(cy) if cy else -_NONE,
        dz + len(cz) if cz else -_NONE,
    )
    out = [0] * (hi - lo)
    if cx:
        out[dx - lo : dx - lo + len(cx)] = cx
    if cy:
        i = dy - lo
        out[i : i + len(cy)] = map(operator.sub, out[i : i + len(cy)], cy)
    if cz:
        i = dz - lo
        out[i : i + len(cz)] = map(operator.add, out[i : i + len(cz)], cz)
    while out and out[-1] == 0:
        out.pop()
    if not out:
        return _ZERO_PAIR
    start = 0
    while out[start] == 0:
        start += 1
    return lo + start, out[start:] if start else out


def reduced_burau(beta: BraidWord) -> BurauMat:
    """Reduced Burau matrix of the word, letters multiplied left to right.

    Right-multiplying by s_i rewrites only column j = i - 1 (0-based):
    s_i makes it t*(col_{j-1} - col_j) + col_{j+1}, and s_i^-1 makes it
    t^-1*(col_{j+1} - col_j) + col_{j-1}, where a neighbour outside the
    matrix counts as zero.  The columns are kept as plain (min_deg, coeffs)
    pairs and each entry becomes a LaurentPoly once, at the end.  The full
    twist maps to t^n times the identity, so T^k shifts every entry by
    t^{nk} there.
    """
    m = beta.n - 1
    zero = [_ZERO_PAIR] * m
    # Columns 1..m hold the product; columns 0 and m + 1 stay zero.
    cols = [zero]
    cols += [[(0, [1]) if i == j else _ZERO_PAIR for i in range(m)] for j in range(m)]
    cols.append(zero)
    up, down = [1] * m, [-1] * m
    for letter in beta.letters:
        i = abs(letter)
        left, mid, right = cols[i - 1 : i + 2]
        if letter > 0:
            cols[i] = list(map(_shift_diff_add, left, mid, right, up))
        else:
            cols[i] = list(map(_shift_diff_add, right, mid, left, down))
    shift = beta.n * beta.full_twist_power
    return BurauMat(
        tuple(
            tuple(LaurentPoly(c, d + shift) for d, c in row) for row in zip(*cols[1:-1])
        )
    )


def det_burau_minus_identity(beta: BraidWord) -> LaurentPoly:
    """det(Burau - I), exact: every entry is shifted by one power of t that
    clears negative exponents, its coefficients go straight into the
    Kronecker core (``polynomial._kronecker_det``), and the determinant is
    shifted back."""
    rows = reduced_burau(beta).minus_identity().entries
    low = min((v.min_deg for row in rows for v in row if v), default=0)
    shift = max(0, -low)
    det = _kronecker_det([[(v.min_deg + shift, v.coeffs) for v in row] for row in rows])
    return LaurentPoly(det, -shift * len(rows))


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
    """Mahler measure of det(Burau - I); monomial factors contribute nothing."""
    if not det:
        raise ValueError("determinant vanishes; Mahler measure undefined")
    return mahler_measure(det.canonical().to_int_poly(), tol=tol).value


def lehmer_gap(beta: BraidWord, tol: float = DEFAULT_TOL) -> float:
    """Mahler measure of det(Burau - I) for the braid."""
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


@dataclass(frozen=True)
class GeneratorRatios:
    """One generator's growth-rate estimate, its last three raw ratios and
    their spread.  The spread is a convergence diagnostic of this
    generator's ratios; it does not bound the error of the estimate, nor
    of the ``gr1`` taken from it."""

    generator: int
    estimate: float
    last_ratios: tuple[float, ...]
    spread: float


@dataclass(frozen=True)
class EntropyEstimate:
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
    return EntropyEstimate(
        gr1=best.estimate,
        log_gr1=math.log(best.estimate),
        accelerated=accel,
        per_generator=tuple(per),
    )


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
