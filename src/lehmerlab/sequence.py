"""Hankel determinants, growth-rate estimators and exact recurrence fitting.

Sequences are 1-indexed rationals (terms[0] is a_1).  Everything except the
floating-point growth estimates is exact: a Hankel determinant is one
integer determinant after clearing denominators (``polynomial.bareiss_det``)
and recurrence fitting is one Berlekamp-Massey pass over Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .polynomial import DEFAULT_TOL, IntPoly, bareiss_det, clear_denominators
from .polynomial import mahler_measure, roots

DEFAULT_WINDOW = 8


class NoRecurrenceFound(Exception):
    """No linear recurrence of the allowed degree fits all supplied terms."""


@dataclass(frozen=True)
class ExactSeq:
    """Finite prefix a_1 ... a_N of a sequence, stored as exact rationals."""

    terms: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(Fraction(t) for t in self.terms))
        if not self.terms:
            raise ValueError("a sequence needs at least one term")

    @classmethod
    def of(cls, values) -> "ExactSeq":
        return cls(tuple(Fraction(v) for v in values))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def get(self, n: int) -> Fraction:
        """1-indexed access, matching a_n."""
        if not 1 <= n <= len(self.terms):
            raise IndexError(f"index {n} outside 1..{len(self.terms)}")
        return self.terms[n - 1]

    def is_integral(self) -> bool:
        return all(t.denominator == 1 for t in self.terms)


@dataclass(frozen=True)
class Recurrence:
    """Monic recurrence: char coefficients ascending (char[-1] == 1), exact."""

    char: tuple[Fraction, ...]
    init: tuple[Fraction, ...]

    def __post_init__(self):
        char = tuple(Fraction(c) for c in self.char)
        init = tuple(Fraction(v) for v in self.init)
        if not char or char[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")
        if len(init) != len(char) - 1:
            raise ValueError("init length must equal the recurrence degree")
        object.__setattr__(self, "char", char)
        object.__setattr__(self, "init", init)

    @property
    def degree(self) -> int:
        return len(self.char) - 1

    def char_is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.char)

    def char_int(self) -> IntPoly:
        if not self.char_is_integral():
            raise ValueError("characteristic polynomial has non-integer coefficients")
        return IntPoly(tuple(int(c) for c in self.char))

    def rational_form(self):
        """Numerator and denominator of sum a_n t^n read 0-based from init.

        Returns (numer, denom) coefficient tuples with denom the reversed
        characteristic polynomial (constant term 1), so that
        sum_{n>=0} a_n t^n = numer(t) / denom(t) with a_0 = first init term.
        """
        d = self.degree
        denom = tuple(self.char[d - j] for j in range(d + 1))
        numer = []
        for k in range(d):
            b = Fraction(0)
            for j in range(k + 1):
                b += denom[j] * self.init[k - j]
            numer.append(b)
        while numer and numer[-1] == 0:
            numer.pop()
        return tuple(numer), denom


# ---------------------------------------------------------------------------
# Hankel determinants


def hankel_det(a: ExactSeq, n: int, k: int) -> Fraction:
    """Exact k x k Hankel determinant with (i, j) entry a_{n+i+j-2}."""
    if k == 0:
        return Fraction(1)
    if n < 1 or k < 0 or n + 2 * k - 2 > a.n_terms:
        raise ValueError(f"Hankel window (n={n}, k={k}) exceeds {a.n_terms} terms")
    entries = [a.get(n + i) for i in range(2 * k - 1)]
    den = math.lcm(*(e.denominator for e in entries))
    ints = [int(e * den) for e in entries]
    rows = [[ints[i + j] for j in range(k)] for i in range(k)]
    return Fraction(bareiss_det(rows), den**k)


def hankel_values(a: ExactSeq, k: int):
    """All admissible (n, H_{n,k}) pairs for the stored prefix."""
    last = a.n_terms - 2 * k + 2
    return [(n, hankel_det(a, n, k)) for n in range(1, last + 1)]


def _root_magnitude(h: Fraction, n: int) -> float:
    """|h|^(1/n) without overflowing floats on huge integers."""
    if h == 0:
        return 0.0
    lg = math.log(abs(h.numerator)) - math.log(h.denominator)
    return math.exp(lg / n)


def growth_rate(a: ExactSeq, k: int, window: int = DEFAULT_WINDOW) -> float:
    """Tail estimator of GR^(k): max of |H_{n,k}|^(1/n) over the last window n."""
    value, _ = growth_window(a, k, window)
    return value


def growth_window(a: ExactSeq, k: int, window: int = DEFAULT_WINDOW):
    """Estimate plus (max - min) spread over the window, for diagnostics."""
    if k == 0:
        return 1.0, 0.0
    last = a.n_terms - 2 * k + 2
    if last < window:
        raise ValueError(
            f"need at least {window} Hankel values at size k={k}, have {max(last, 0)}"
        )
    vals = [
        _root_magnitude(hankel_det(a, n, k), n)
        for n in range(last - window + 1, last + 1)
    ]
    return max(vals), max(vals) - min(vals)


# ---------------------------------------------------------------------------
# Exact recurrence fitting


def fit_min_poly(a: ExactSeq, d_max: int, margin: int | None = None) -> Recurrence:
    """Least-degree monic recurrence satisfied by every supplied term.

    One Berlekamp-Massey pass over Q (Massey, IEEE Trans. Inf. Theory 15,
    1969) finds the linear complexity L and a shortest recurrence in O(N^2)
    operations; raises NoRecurrenceFound when L > d_max.  The margin keeps
    short prefixes from producing spurious fits: N >= 2 d_max + margin >= 2L,
    so the shortest recurrence is unique.
    """
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
    # c is the connection polynomial 1 + c_1 x + ... + c_L x^L, with
    # a_n + c_1 a_{n-1} + ... + c_L a_{n-L} = 0 for L <= n < N; b is c as
    # it was before L last changed, b_disc the discrepancy that changed it.
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


def seq_from_recurrence(r: Recurrence, n_terms: int) -> ExactSeq:
    """Forward iteration a_{n+d} = -(c_{d-1} a_{n+d-1} + ... + c_0 a_n)."""
    d = r.degree
    if n_terms < d or n_terms < 1:
        raise ValueError("need n_terms >= max(degree, 1)")
    out = list(r.init[:n_terms])
    while len(out) < n_terms:
        out.append(-sum(r.char[i] * out[len(out) - d + i] for i in range(d)))
    return ExactSeq(tuple(out))


@dataclass(frozen=True)
class MaxGrowth:
    value: float
    min_poly: Recurrence

    def min_poly_int(self) -> IntPoly:
        return self.min_poly.char_int()


def max_growth_exact(a: ExactSeq, d_max: int) -> MaxGrowth:
    """Mahler measure of the fitted minimal polynomial: max_k GR^(k) exactly."""
    rec = fit_min_poly(a, d_max)
    if rec.degree == 0:
        return MaxGrowth(1.0, rec)
    f, d = clear_denominators(rec.char)
    return MaxGrowth(mahler_measure(f).value / d, rec)


def growth_rates_from_char(char, k_max: int, tol: float = DEFAULT_TOL):
    """Exact-route GR^(k) for k = 0..k_max from a characteristic polynomial.

    GR^(k) is the product of the k largest root moduli (with multiplicity)
    and 0 beyond the degree.
    """
    f, _ = clear_denominators(char)
    d = f.degree
    mags = sorted((abs(z) for z, _ in roots(f, tol)), reverse=True) if d else []
    out = []
    for k in range(k_max + 1):
        if k == 0:
            out.append(1.0)
        elif k <= d:
            g = 1.0
            for m in mags[:k]:
                g *= m
            out.append(g)
        else:
            out.append(0.0)
    return out


@dataclass(frozen=True)
class GrowthEntry:
    k: int
    estimate: float | None
    spread: float | None
    exact: float | None
    window: int


@dataclass(frozen=True)
class GrowthReport:
    entries: tuple[GrowthEntry, ...]
    min_poly: Recurrence | None

    def entry(self, k: int) -> GrowthEntry:
        return self.entries[k]

    def max_exact(self) -> float | None:
        vals = [e.exact for e in self.entries if e.exact is not None]
        return max(vals) if vals else None


def growth_report(
    a: ExactSeq,
    k_max: int,
    window: int = DEFAULT_WINDOW,
    d_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> GrowthReport:
    """Numeric GR^(k) estimates for k <= k_max plus the exact fitted route."""
    if d_max is None:
        d_max = a.n_terms // 3
    rec = None
    try:
        rec = fit_min_poly(a, d_max)
    except (NoRecurrenceFound, ValueError):
        rec = None
    exact = (
        growth_rates_from_char(rec.char, k_max, tol) if rec is not None else None
    )
    entries = []
    for k in range(k_max + 1):
        if k == 0:
            entries.append(GrowthEntry(0, 1.0, 0.0, 1.0, window))
            continue
        try:
            est, spread = growth_window(a, k, window)
        except ValueError:
            est, spread = None, None
        entries.append(
            GrowthEntry(k, est, spread, exact[k] if exact else None, window)
        )
    return GrowthReport(tuple(entries), rec)


# ---------------------------------------------------------------------------
# Tail comparison and periodicity


@dataclass(frozen=True)
class TailComparison:
    outside_a: tuple[complex, ...]
    outside_b: tuple[complex, ...]
    agree: bool


def _outside_roots(rec: Recurrence, tol: float):
    if rec.degree == 0:
        return ()
    f, _ = clear_denominators(rec.char)
    out = [z for z, r in roots(f, tol) if abs(z) - r > 1]
    return tuple(sorted(out, key=lambda z: (-abs(z), z.real, z.imag)))


def tail_equivalence(
    a: ExactSeq, b: ExactSeq, d_max: int, match_tol: float = 1e-7
) -> TailComparison:
    """Compare certified outside-unit-circle root multisets of the two fits."""
    ra = fit_min_poly(a, d_max)
    rb = fit_min_poly(b, d_max)
    za = _outside_roots(ra, DEFAULT_TOL)
    zb = _outside_roots(rb, DEFAULT_TOL)
    agree = len(za) == len(zb)
    if agree:
        remaining = list(zb)
        for z in za:
            hit = next(
                (i for i, w in enumerate(remaining) if abs(z - w) <= match_tol), None
            )
            if hit is None:
                agree = False
                break
            remaining.pop(hit)
    return TailComparison(za, zb, agree)


@dataclass(frozen=True)
class Periodicity:
    preperiod: int
    period: int


def eventually_periodic(a: ExactSeq, min_evidence: int = 3) -> Periodicity | None:
    """Least (period, then preperiod) fitting the prefix with enough evidence.

    Requires min_evidence full periods of agreement beyond the preperiod;
    returns None when no period qualifies.
    """
    if not a.is_integral():
        raise ValueError("periodicity detection expects integer terms")
    ts = a.terms
    n = len(ts)
    for p in range(1, n // min_evidence + 1):
        q = 0
        for i in range(n - p - 1, -1, -1):
            if ts[i] != ts[i + p]:
                q = i + 1
                break
        if n - q >= min_evidence * p:
            return Periodicity(preperiod=q, period=p)
    return None


# ---------------------------------------------------------------------------
# Text formats


def parse_seq(text: str) -> ExactSeq:
    """Comma-separated integers or rationals: "1,1,2,3" or "1/2,1/4"."""
    parts = [p.strip() for p in text.strip().split(",") if p.strip()]
    if not parts:
        raise ValueError("empty sequence")
    return ExactSeq(tuple(Fraction(p) for p in parts))


def parse_recurrence(text: str) -> Recurrence:
    """Recurrence spec "charpoly;init", e.g. "t^2-t-1;1,1"."""
    from .polynomial import parse_poly

    try:
        char_text, init_text = text.split(";")
    except ValueError as e:
        raise ValueError('recurrence spec must look like "charpoly;init"') from e
    f = parse_poly(char_text)
    if not f.is_monic:
        raise ValueError("characteristic polynomial must be monic")
    init = [Fraction(p.strip()) for p in init_text.split(",") if p.strip()]
    return Recurrence(tuple(Fraction(c) for c in f.coeffs), tuple(init))
