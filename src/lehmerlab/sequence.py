"""Hankel determinants, growth-rate estimators and exact recurrence fitting.

Sequences are 1-indexed rationals (terms[0] is a_1).  Everything except the
floating-point growth estimates is exact, and all of it runs on plain
integers: a sequence is stored only as its integer view D*a (``ExactSeq``'s
``ints`` and ``den``, D the lcm of the denominators; an integer sequence
has D = 1 and no Fraction), and H_{n,k}(D*a) = D^k H_{n,k}(a).  A whole
table of Hankel determinants, every start n and every size up to k, is one
number wall over that view (Lunnon, J. Integer Sequences 4, 2001): row k+1
comes from rows k and k-1 by the Desnanot-Jacobi identity, with one exact
integer division per entry.  A single window, or an entry whose divisor is
0, is one Bareiss determinant (``polynomial.bareiss_det``).  Recurrence
fitting is one fraction-free Berlekamp-Massey pass over the view, since
scaling a sequence changes none of its recurrences; the fitted
``Recurrence`` is kept on integers too.
"""

from __future__ import annotations

import math
import operator

from .polynomial import DEFAULT_TOL, IntPoly, _int_arg, _int_list, _LazyPattern, _Record, _strip
from .polynomial import bareiss_det, clear_denominators, mahler_measure, roots

DEFAULT_WINDOW = 8


class NoRecurrenceFound(Exception):
    """No linear recurrence of the allowed degree fits all supplied terms."""


def _lowest(ints, den):
    """ints / den in lowest terms: (tuple of ints, den), for den >= 1."""
    g = math.gcd(den, *ints) if den > 1 else 1
    return (tuple(v // g for v in ints), den // g) if g > 1 else (tuple(ints), den)


def _ratios(ints, den) -> tuple:
    """ints / den: the ints themselves when den is 1, Fractions otherwise."""
    if den == 1:
        return ints
    from fractions import Fraction

    return tuple(Fraction(v, den) for v in ints)


class ExactSeq(_Record):
    """Finite prefix a_1 ... a_N of a rational sequence, stored as its
    integer view: a_n = ints[n-1] / den, in lowest terms (den >= 1 and
    gcd(den, *ints) = 1), so equal sequences compare equal."""

    ints: tuple[int, ...]
    den: int

    def __init__(self, ints, den=1):
        ints = _int_list(ints, "term a_{}", 1)
        den = _int_arg(den, "den")
        if not ints:
            raise ValueError("a sequence needs at least one term")
        if den < 1:
            raise ValueError(f"den = {den} must be at least 1")
        ints, den = _lowest(ints, den)
        vars(self).update(ints=ints, den=den)

    @classmethod
    def of(cls, values) -> "ExactSeq":
        """The sequence of the values: ints, or anything Fraction reads."""
        return cls(*clear_denominators(values))

    @property
    def terms(self) -> tuple:
        """The terms themselves, as ``_ratios``."""
        return _ratios(self.ints, self.den)

    @property
    def n_terms(self) -> int:
        return len(self.ints)

    def get(self, n: int) -> Fraction | int:
        """1-indexed access, matching a_n."""
        if not 1 <= n <= len(self.ints):
            raise IndexError(f"index {n} outside 1..{len(self.ints)}")
        return self.terms[n - 1]


class Recurrence(_Record):
    """Recurrence(char, init) from a monic rational char and init, stored on
    integers: char = coeffs / lc for one primitive vector coeffs (ascending,
    lc = coeffs[-1] > 0) and init = ints / den in lowest terms."""

    coeffs: tuple[int, ...]
    ints: tuple[int, ...]
    den: int

    def __init__(self, char, init):
        cs, lc = clear_denominators(char)
        ints, den = clear_denominators(init)
        if not cs or cs[-1] != lc:
            raise ValueError("characteristic polynomial must be monic")
        if len(ints) != len(cs) - 1:
            raise ValueError("init length must equal the recurrence degree")
        vars(self).update(coeffs=cs, ints=ints, den=den)

    @classmethod
    def _of(cls, coeffs, ints, den) -> "Recurrence":
        """The recurrence of a primitive vector with lc > 0 and init ints / den."""
        rec, (ints, den) = object.__new__(cls), _lowest(ints, den)
        vars(rec).update(coeffs=tuple(coeffs), ints=ints, den=den)
        return rec

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def char(self) -> tuple:
        return _ratios(self.coeffs, self.coeffs[-1])

    @property
    def init(self) -> tuple:
        return _ratios(self.ints, self.den)

    def char_is_integral(self) -> bool:
        return self.coeffs[-1] == 1

    def char_int(self) -> IntPoly:
        if self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial has non-integer coefficients")
        return IntPoly(self.coeffs)

    def rational_form(self):
        """Numerator and denominator of sum a_n t^n read 0-based from init.

        Returns (numer, denom) coefficient tuples with denom the reversed
        characteristic polynomial (constant term 1), so that
        sum_{n>=0} a_n t^n = numer(t) / denom(t) with a_0 = first init term.
        """
        lc, rev, ints = self.coeffs[-1], self.coeffs[::-1], self.ints
        numer = _strip(sum(map(operator.mul, rev, ints[k::-1])) for k in range(len(ints)))
        return _ratios(numer, lc * self.den), _ratios(rev, lc)


# ---------------------------------------------------------------------------
# Hankel determinants


def hankel_det(a: ExactSeq, n: int, k: int) -> Fraction | int:
    """Exact k x k Hankel determinant with (i, j) entry a_{n+i+j-2}: an
    int when a.den**k is 1, a Fraction otherwise."""
    if n < 1:
        raise ValueError(f"Hankel start index n={n} must be at least 1")
    if k < 0:
        raise ValueError(f"Hankel determinant size k={k} must be nonnegative")
    if n + 2 * k - 2 > a.n_terms:
        raise ValueError(f"Hankel window (n={n}, k={k}) exceeds {a.n_terms} terms")
    h = _hankel_int(a.ints, n, k) if k else 1
    scale = a.den**k
    if scale == 1:
        return h
    from fractions import Fraction

    return Fraction(h, scale)


def _hankel_int(ints, n: int, k: int) -> int:
    """k x k Hankel determinant of the integer view, entry (i, j) ints[n+i+j-2]."""
    w = ints[n - 1 : n + 2 * k - 2]
    return bareiss_det([w[i : i + k] for i in range(k)])


def _number_wall(ints, k_max: int) -> list[list[int]]:
    """Rows 0..k_max of the Hankel table of an integer sequence: rows[k][n-1]
    is H_{n,k} for every n whose window fits, n + 2k - 2 <= N.

    Row 0 is all 1 and row 1 the terms.  The Desnanot-Jacobi identity on the
    (k+1) x (k+1) window at n reads
        H_{n,k+1} H_{n+2,k-1} = H_{n,k} H_{n+2,k} - H_{n+1,k}^2,
    and its division is exact, so each entry of row k+1 takes two products
    and one integer division.  Where the divisor H_{n+2,k-1} is 0 the entry
    is one Bareiss determinant instead.
    """
    rows = [[1] * (len(ints) + 2), list(ints)]
    for k in range(1, k_max):
        above, row = rows[k - 1], rows[k]
        rows.append(
            [
                (x * z - y * y) // d if d else _hankel_int(ints, n, k + 1)
                for n, (x, y, z, d) in enumerate(zip(row, row[1:], row[2:], above[2:]), 1)
            ]
        )
    return rows[: k_max + 1]


def hankel_values(a: ExactSeq, k: int):
    """All admissible (n, H_{n,k}) pairs for the stored prefix, H_{n,k} an
    int when a.den**k is 1 and a Fraction otherwise, as ``hankel_det``.

    Row k of one number wall (``_number_wall``): each entry comes from rows
    k-1 and k-2 by the Desnanot-Jacobi identity, with a Bareiss determinant
    only where the identity's divisor H_{n+2,k-2} is 0.
    """
    if k < 0:
        raise ValueError(f"Hankel determinant size k={k} must be nonnegative")
    if k and a.n_terms < 2 * k - 1:
        raise ValueError(
            f"a Hankel window of size k={k} needs {2 * k - 1} terms, have {a.n_terms}"
        )
    return list(enumerate(_ratios(_number_wall(a.ints, k)[k], a.den**k), 1))


def growth_rate(a: ExactSeq, k: int, window: int = DEFAULT_WINDOW) -> float:
    """Tail estimator of GR^(k): max of |H_{n,k}|^(1/n) over the last window n."""
    value, _ = growth_window(a, k, window)
    return value


def growth_window(a: ExactSeq, k: int, window: int = DEFAULT_WINDOW):
    """Estimate plus (max - min) spread over the window, for diagnostics:
    the one row k of ``_window_estimates``."""
    if window < 1:
        raise ValueError("need window >= 1")
    if k < 0:
        raise ValueError(f"Hankel determinant size k={k} must be nonnegative")
    last = a.n_terms - 2 * k + 2
    if k and last < window:
        raise ValueError(
            f"need at least {window} Hankel values at size k={k}, have {max(last, 0)}"
        )
    return _window_estimates(a, k, window, k_min=k)[0]


def _window_estimates(a: ExactSeq, k_max: int, window: int, k_min: int = 0):
    """(estimate, spread) of GR^(k) for k = k_min..k_max: the max and the
    max - min of |H_{n,k}|^(1/n) over the last window n, or (None, None)
    where fewer than window H_{n,k} fit the terms.

    Every row k <= k_max with at least window entries ends in the same last
    window of one number wall, built over the terms from the start of row
    k_max's last window on (from a_1 when that row is shorter).  The wall
    holds D^k H_{n,k}(a); only rows k_min..k_max are read as floats.
    """
    ints, den = a.ints, a.den
    rows = _number_wall(ints[max(0, len(ints) - 2 * k_max + 2 - window) :], k_max)
    out = []
    for k in range(k_min, k_max + 1):
        last = len(ints) - 2 * k + 2
        if k == 0:
            out.append((1.0, 0.0))
        elif last < window:
            out.append((None, None))
        else:
            out.append(_window_spread(rows[k], k, last, den**k, window))
    return out


def _window_spread(row, k: int, last: int, scale: int, window: int):
    """(max, max - min) of |H_{n,k}|^(1/n) over the last window entries of a
    wall row that ends at n = last and holds scale * H_{n,k}(a), scale = D^k.

    |H_{n,k}(a)|^(1/n) is exp((log p - log q) / n) for p/q = |h|/scale in
    lowest terms, the numerator and denominator of the value hankel_det
    returns, so huge integers never overflow a float; an estimate past the
    float64 range raises OverflowError naming k and n."""
    vals = []
    for n, h in zip(range(last - window + 1, last + 1), row[-window:]):
        if h:
            g = math.gcd(h, scale)
            try:
                vals.append(math.exp((math.log(abs(h) // g) - math.log(scale // g)) / n))
            except OverflowError:
                raise OverflowError(
                    f"|H_{{{n},{k}}}|^(1/{n}) at k={k}, n={n} exceeds the float64 "
                    "range (about 1.8e308)"
                ) from None
        else:
            vals.append(0.0)
    return max(vals), max(vals) - min(vals)


# ---------------------------------------------------------------------------
# Exact recurrence fitting


def fit_min_poly(a: ExactSeq, d_max: int, margin: int | None = None) -> Recurrence:
    """Least-degree monic recurrence satisfied by every supplied term.

    One Berlekamp-Massey pass (Massey, IEEE Trans. Inf. Theory 15, 1969)
    finds the linear complexity L and a shortest recurrence in O(N^2)
    operations; raises NoRecurrenceFound when L > d_max.  The margin keeps
    short prefixes from producing spurious fits: N >= 2 d_max + margin >= 2L,
    so the shortest recurrence is unique.

    The pass is fraction-free, over the integer view D*a, which satisfies
    exactly the recurrences of a.  Over Q the connection polynomial is
    updated as c <- c - (disc/b_disc) x^shift b, with c_0 = 1 and disc =
    sum_{i<=L} c_i a_{n-i}.  Here c = lam*c_Q and b = mu*b_Q are integer
    vectors, lam and mu nonzero, so the discrepancies lam*disc_Q and
    mu*b_disc_Q vanish at the same steps, and c <- b_disc*c - disc*x^shift*b
    is lam*mu*b_disc_Q times the new c_Q; dividing by the content keeps it
    small.  So L changes at the same n, and the primitive form of the last
    c, with c_0 > 0, is the Recurrence's coeffs reversed.
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
    ts = a.ints
    # c is an integer multiple of the connection polynomial 1 + c_1 x + ...
    # + c_L x^L, with c_0 a_n + c_1 a_{n-1} + ... + c_L a_{n-L} = 0 for
    # L <= n < N; b is c as it was before L last changed, b_disc the
    # discrepancy that changed it.
    c, b = [1], [1]
    length, shift, b_disc = 0, 1, 1
    for n in range(len(ts)):
        disc = sum(map(operator.mul, c, reversed(ts[n - length : n + 1])))
        if disc == 0:
            shift += 1
            continue
        new = [b_disc * v for v in c] + [0] * (len(b) + shift - len(c))
        for i, v in enumerate(b):
            new[i + shift] -= disc * v
        g = math.gcd(*new)
        if g > 1:
            new = [v // g for v in new]
        if 2 * length <= n:
            length, b, b_disc, shift = n + 1 - length, c, disc, 1
            if length > d_max:
                raise NoRecurrenceFound(
                    f"no recurrence of degree <= {d_max} fits all terms"
                )
        else:
            shift += 1
        c = new
    c = c[: length + 1] + [0] * (length + 1 - len(c))
    g = math.gcd(*c) if c[0] > 0 else -math.gcd(*c)
    return Recurrence._of([v // g for v in reversed(c)], a.ints[:length], a.den)


def seq_from_recurrence(r: Recurrence, n_terms: int) -> ExactSeq:
    """Forward iteration lc a_{n+d} = -(c_{d-1} a_{n+d-1} + ... + c_0 a_n) on
    e_n = lc^n den a_n (0-based): e_{n+d} = -sum_i c_i lc^(d-1-i) e_{n+i}."""
    d, lc, top = r.degree, r.coeffs[-1], n_terms - 1
    if n_terms < d or n_terms < 1:
        raise ValueError("need n_terms >= max(degree, 1)")
    scaled = [c * lc ** (d - 1 - i) for i, c in enumerate(r.coeffs[:-1])]
    out = [v * lc**n for n, v in enumerate(r.ints)]
    while len(out) < n_terms:
        out.append(-sum(map(operator.mul, scaled, out[len(out) - d :])))
    return ExactSeq([v * lc ** (top - n) for n, v in enumerate(out)], r.den * lc**top)


class MaxGrowth(_Record):
    value: float
    min_poly: Recurrence


def max_growth_exact(a: ExactSeq, d_max: int) -> MaxGrowth:
    """Mahler measure of the fitted minimal polynomial: max_k GR^(k) exactly."""
    rec = fit_min_poly(a, d_max)
    return MaxGrowth(mahler_measure(IntPoly(rec.coeffs)).value / rec.coeffs[-1], rec)


def growth_rates_from_char(coeffs, k_max: int, tol: float = DEFAULT_TOL):
    """Exact-route GR^(k) for k = 0..k_max from integer char coefficients.

    GR^(k) is the product of the k largest root moduli (with multiplicity),
    the first k of ``roots``, and 0 beyond the degree.
    """
    mags = [abs(z) for z, _ in roots(IntPoly(coeffs), tol)]
    out = [1.0]
    for k in range(1, k_max + 1):
        out.append(out[-1] * mags[k - 1] if k <= len(mags) else 0.0)
    return out


class GrowthEntry(_Record):
    k: int
    estimate: float | None
    spread: float | None
    exact: float | None
    window: int

    def __init__(self, k, estimate, spread, exact, window):
        # Written out, not bound by _Record.__init__: one is built per k of
        # every growth report.
        vars(self).update(k=k, estimate=estimate, spread=spread, exact=exact, window=window)


class GrowthReport(_Record):
    entries: tuple[GrowthEntry, ...]
    min_poly: Recurrence | None

    def entry(self, k: int) -> GrowthEntry:
        return self.entries[k]

    def max_exact(self) -> float | None:
        """max_k of the exact GR^(k), or None when no k >= 1 entry is exact.

        The k = 0 entry is exact (1.0) even when no recurrence was found,
        so on its own it says nothing."""
        if all(e.exact is None for e in self.entries[1:]):
            return None
        return max(e.exact for e in self.entries if e.exact is not None)


def _check_report_args(k_max: int, window: int, d_max: int | None) -> None:
    """Reject arguments that would otherwise read as "nothing found"."""
    if k_max < 0:
        raise ValueError("need k_max >= 0")
    if window < 1:
        raise ValueError("need window >= 1")
    if d_max is not None and d_max < 0:
        raise ValueError("d_max must be nonnegative")


def growth_report(
    a: ExactSeq,
    k_max: int,
    window: int = DEFAULT_WINDOW,
    d_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> GrowthReport:
    """Numeric GR^(k) estimates for k <= k_max plus the exact fitted route."""
    return growth_reports((a,), k_max, window, d_max, tol)[0]


def growth_reports(
    seqs,
    k_max: int,
    window: int = DEFAULT_WINDOW,
    d_max: int | None = None,
    tol: float = DEFAULT_TOL,
) -> tuple[GrowthReport, ...]:
    """growth_report of each sequence in turn.

    Each sequence's estimates for every k <= k_max come from one number
    wall over its last terms (``_window_estimates``).  The roots of a
    characteristic polynomial fitted to several of the sequences are
    certified once (every generator of the Tetranacci map fits
    t^4 - t^3 - t^2 - t - 1); nothing is kept beyond the call.
    """
    _check_report_args(k_max, window, d_max)
    exact_by_char: dict[tuple[int, ...], list[float]] = {}
    reports = []
    for a in seqs:
        try:
            rec = fit_min_poly(a, a.n_terms // 3 if d_max is None else d_max)
        except (NoRecurrenceFound, ValueError):
            rec = None
        exact = [1.0] + [None] * k_max
        if rec is not None:
            if rec.coeffs not in exact_by_char:
                exact_by_char[rec.coeffs] = growth_rates_from_char(rec.coeffs, k_max, tol)
            exact = exact_by_char[rec.coeffs]
        entries = [
            GrowthEntry(k, est, spread, x, window)
            for k, ((est, spread), x) in enumerate(
                zip(_window_estimates(a, k_max, window), exact)
            )
        ]
        reports.append(GrowthReport(tuple(entries), rec))
    return tuple(reports)


# ---------------------------------------------------------------------------
# Tail comparison and periodicity


class TailComparison(_Record):
    outside_a: tuple[complex, ...]
    outside_b: tuple[complex, ...]
    agree: bool


def tail_equivalence(
    a: ExactSeq, b: ExactSeq, d_max: int, match_tol: float = 1e-7
) -> TailComparison:
    """Compare certified outside-unit-circle root multisets of the two fits:
    the centers of the roots outside the unit circle, in ``roots`` order."""
    fits = fit_min_poly(a, d_max), fit_min_poly(b, d_max)
    za, zb = (tuple(z for z, r in roots(IntPoly(f.coeffs)) if abs(z) - r > 1) for f in fits)
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


class Periodicity(_Record):
    preperiod: int
    period: int


def eventually_periodic(a: ExactSeq, min_evidence: int = 3) -> Periodicity | None:
    """Least (period, then preperiod) fitting the prefix with enough evidence.

    Requires min_evidence full periods of agreement beyond the preperiod;
    returns None when no period qualifies.
    """
    if min_evidence < 1:
        raise ValueError("min_evidence must be >= 1")
    if a.den != 1:
        raise ValueError("periodicity detection expects integer terms")
    ts = a.ints
    n = len(ts)
    for p in range(1, n // min_evidence + 1):
        q = 0
        for i in range(n - p - 1, -1, -1):
            if ts[i] != ts[i + p]:
                q = i + 1
                break
        if n - q >= min_evidence * p:
            return Periodicity(q, p)
    return None


# ---------------------------------------------------------------------------
# Text formats


# The first alternative is a plain integer, which int reads faster than
# Fraction reads a string.
_TERM_RE = _LazyPattern(
    r"[+-]?(?:([0-9]+)|[0-9]+/0*[1-9][0-9]*|[0-9]+\.?[0-9]*|\.[0-9]+)"
)


def _terms(text: str) -> list[int | Fraction]:
    """Comma-separated terms, each matched against an ASCII pattern so that
    a bad one is named instead of read by Fraction's wider grammar; an
    integer term stays an int."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    out, fullmatch = [], _TERM_RE.fullmatch
    for p in parts:
        match = fullmatch(p)
        if not match:
            raise ValueError(
                f"bad term {p!r}: expected comma-separated integers, fractions "
                "p/q with q > 0 or decimals, such as 1,-2/3,1.5"
            )
        if match.group(1):
            out.append(int(p))
        else:
            import fractions

            out.append(fractions.Fraction(p))
    return out


def parse_seq(text: str) -> ExactSeq:
    """Comma-separated integers or rationals: "1,1,2,3" or "1/2,1/4"."""
    terms = _terms(text)
    if not terms:
        raise ValueError("empty sequence")
    return ExactSeq.of(terms)


def parse_recurrence(text: str) -> Recurrence:
    """Recurrence spec "charpoly;init", e.g. "t^2-t-1;1,1"."""
    from .polynomial import parse_poly

    try:
        char_text, init_text = text.split(";")
    except ValueError as e:
        raise ValueError('recurrence spec must look like "charpoly;init"') from e
    return Recurrence(parse_poly(char_text).coeffs, _terms(init_text))
