"""Exact integer and Laurent polynomial arithmetic with certified root finding.

Coefficients are stored in ascending order of degree, so ``IntPoly((1, 0, -2))``
is ``1 - 2*t^2``.  All ring arithmetic is exact over Z (or Q where division
requires it); floating point only enters through the numeric root finder,
which returns certified error radii alongside every approximation.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np

DEFAULT_TOL = 1e-10

# Primes used as reduction witnesses by irreducibility_certificate.
_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


class PrecisionError(RuntimeError):
    """Raised when root certification fails within the iteration budget."""


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial, coefficients ascending.

    >>> f = IntPoly((1, 1)) * IntPoly((-1, 1))
    >>> f.coeffs
    (-1, 0, 1)
    >>> f.evaluate(3)
    8
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        c = _strip(int(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPoly(out)

    def __neg__(self):
        return IntPoly(tuple(-v for v in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(tuple(other * v for v in self.coeffs))
        other = _as_poly(other)
        if not self or not other:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = IntPoly((1,))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def evaluate(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0 * x if self.coeffs else 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = evaluate

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by t^k (k >= 0)."""
        if k < 0:
            raise ValueError("use LaurentPoly for negative shifts")
        return IntPoly((0,) * k + self.coeffs) if self else self

    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs)) if self.coeffs else 0

    def primitive_part(self) -> "IntPoly":
        c = self.content()
        return IntPoly(tuple(v // c for v in self.coeffs)) if c else self

    def divmod_q(self, other):
        """Quotient and remainder over Q, as tuples of Fractions."""
        other = _as_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = [Fraction(c) for c in self.coeffs]
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d, lead = other.degree, Fraction(other.leading)
        while len(rem) - 1 >= d and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            q = rem[-1] / lead
            quo[len(rem) - 1 - d] = q
            for i, c in enumerate(other.coeffs):
                rem[len(rem) - 1 - d + i] -= q * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        return tuple(quo), tuple(rem)

    def try_div(self, other):
        """Exact quotient in Z[t] by long division, or None at the first inexact step."""
        other = _as_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem, b = list(self.coeffs), other.coeffs
        d, lead = len(b) - 1, b[-1]
        quo = [0] * max(len(rem) - d, 0)
        for k in reversed(range(len(quo))):
            q, r = divmod(rem[k + d], lead)
            if r:
                return None
            quo[k] = q
            for i in range(d):
                rem[k + i] -= q * b[i]
        return None if any(rem[:d]) else IntPoly(quo)

    def exact_div(self, other) -> "IntPoly":
        q = self.try_div(other)
        if q is None:
            raise ValueError("inexact polynomial division")
        return q

    def divides(self, other) -> bool:
        return _as_poly(other).try_div(self) is not None

    def __str__(self):
        return format_poly(self)


def _as_poly(v) -> IntPoly:
    if isinstance(v, IntPoly):
        return v
    if isinstance(v, int):
        return IntPoly((v,))
    raise TypeError(f"cannot coerce {type(v).__name__} to IntPoly")


def poly_from_roots(rs) -> IntPoly:
    """Monic polynomial with the given integer roots: prod (t - r)."""
    f = IntPoly((1,))
    for r in rs:
        f = f * IntPoly((-int(r), 1))
    return f


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] with positive leading coefficient.

    Primitive polynomial remainder sequence (Brown, J. ACM 18, 1971): each
    step takes the pseudo-remainder over Z and divides out its content.
    """
    a, b = f.primitive_part().coeffs, g.primitive_part().coeffs
    if len(a) < len(b):
        a, b = b, a
    while b:
        r, d, lead = list(a), len(b) - 1, b[-1]
        while len(r) > d:
            q, k = r[-1], len(r) - 1 - d
            r = [lead * c for c in r]
            for i in range(d):
                r[k + i] -= q * b[i]
            r.pop()
            while r and r[-1] == 0:
                r.pop()
        a, b = b, IntPoly(r).primitive_part().coeffs
    p = IntPoly(a)
    return -p if p and p.leading < 0 else p


def squarefree_decomposition(f: IntPoly):
    """Yun decomposition: (content, [(g_i, i)]) with f = content * prod g_i^i.

    The g_i are primitive, squarefree and pairwise coprime.
    """
    if not f:
        raise ValueError("zero polynomial")
    sign = 1 if f.leading > 0 else -1
    content = sign * f.content()
    p = f.primitive_part()
    if sign < 0:
        p = -p
    if p.degree == 0:
        return content, []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return content, [(p, 1)]
    parts = []
    w = p.exact_div(g)
    z = p.derivative().exact_div(g) - w.derivative()
    i = 1
    while w.degree > 0:
        h = poly_gcd(w, z)
        if h.degree > 0:
            parts.append((h, i))
        w = w.exact_div(h)
        z = z.exact_div(h) - w.derivative()
        i += 1
    return content, parts


# ---------------------------------------------------------------------------
# Laurent polynomials


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial: coeffs ascending from t^min_deg."""

    coeffs: tuple[int, ...] = ()
    min_deg: int = 0

    def __post_init__(self):
        c = list(int(v) for v in self.coeffs)
        m = self.min_deg
        while c and c[-1] == 0:
            c.pop()
        while c and c[0] == 0:
            c.pop(0)
            m += 1
        if not c:
            m = 0
        object.__setattr__(self, "coeffs", tuple(c))
        object.__setattr__(self, "min_deg", m)

    @classmethod
    def from_int(cls, f: IntPoly, shift: int = 0) -> "LaurentPoly":
        return cls(f.coeffs, shift)

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        other = _as_laurent(other)
        if not self:
            return other
        if not other:
            return self
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.max_deg, other.max_deg)
        out = [0] * (hi - lo + 1)
        for i, v in enumerate(self.coeffs):
            out[self.min_deg - lo + i] += v
        for i, v in enumerate(other.coeffs):
            out[other.min_deg - lo + i] += v
        return LaurentPoly(out, lo)

    def __neg__(self):
        return LaurentPoly(tuple(-v for v in self.coeffs), self.min_deg)

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(self.coeffs, self.min_deg + k)

    def __sub__(self, other):
        return self + (-_as_laurent(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(tuple(other * v for v in self.coeffs), self.min_deg)
        other = _as_laurent(other)
        prod = IntPoly(self.coeffs) * IntPoly(other.coeffs)
        return LaurentPoly(prod.coeffs, self.min_deg + other.min_deg)

    __rmul__ = __mul__

    def try_div(self, other):
        other = _as_laurent(other)
        q = IntPoly(self.coeffs).try_div(IntPoly(other.coeffs))
        if q is None:
            return None
        return LaurentPoly(q.coeffs, self.min_deg - other.min_deg)

    def exact_div(self, other) -> "LaurentPoly":
        q = self.try_div(other)
        if q is None:
            raise ValueError("inexact Laurent division")
        return q

    def canonical(self) -> "LaurentPoly":
        """Normal form: lowest degree 0 and positive constant term."""
        if not self:
            return LaurentPoly()
        c = self.coeffs
        if c[0] < 0:
            c = tuple(-v for v in c)
        return LaurentPoly(c, 0)

    def to_int_poly(self) -> IntPoly:
        if self.min_deg < 0:
            raise ValueError("negative exponents present; canonicalize first")
        return IntPoly((0,) * self.min_deg + self.coeffs)

    def evaluate(self, x):
        return IntPoly(self.coeffs).evaluate(x) * x ** self.min_deg

    def __str__(self):
        if not self:
            return "0"
        if self.min_deg >= 0:
            return format_poly(self.to_int_poly())
        return f"t^{self.min_deg}*({format_poly(IntPoly(self.coeffs))})"


def _as_laurent(v) -> LaurentPoly:
    if isinstance(v, LaurentPoly):
        return v
    if isinstance(v, IntPoly):
        return LaurentPoly(v.coeffs, 0)
    if isinstance(v, int):
        return LaurentPoly((v,), 0)
    raise TypeError(f"cannot coerce {type(v).__name__} to LaurentPoly")


# ---------------------------------------------------------------------------
# Determinants


def bareiss_det(rows) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix (row lists)."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def poly_det(rows) -> IntPoly:
    """Determinant of a matrix of IntPolys by Kronecker substitution.

    Every coefficient of the determinant is at most the product of the row
    sums of coefficient 1-norms in absolute value, so below 2^(B-1).  The
    entries are evaluated at t = 2^B, one integer determinant is taken, and
    its balanced base-2^B digits are the coefficients.

    >>> poly_det([[IntPoly((0, 1)), IntPoly((1,))], [IntPoly((1,)), IntPoly((0, 1))]]).coeffs
    (-1, 0, 1)
    """
    bound = math.prod(sum(abs(c) for p in row for c in p.coeffs) for row in rows)
    bits = bound.bit_length() + 1
    base = 1 << bits
    d = bareiss_det([[p.evaluate(base) for p in row] for row in rows])
    mask, half = base - 1, base >> 1
    coeffs = []
    while d:
        digit = d & mask
        if digit >= half:
            digit -= base
        coeffs.append(digit)
        d = (d - digit) >> bits
    return IntPoly(tuple(coeffs))


# ---------------------------------------------------------------------------
# Cyclotomic machinery


def _divisors(n: int):
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> IntPoly:
    """The d-th cyclotomic polynomial, via (t^d - 1) / prod of proper divisors."""
    f = IntPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in _divisors(d):
        if e < d:
            f = f.exact_div(cyclotomic(e))
    return f


def is_cyclotomic_product(f: IntPoly) -> bool:
    """Exact test: is monic f a product of cyclotomic polynomials?

    Searches every d with phi(d) <= deg f (all such d lie below 2*deg^2)
    and divides out repeated factors.
    """
    if not f or not f.is_monic:
        raise ValueError("is_cyclotomic_product expects a monic nonzero polynomial")
    g = f
    if g.degree == 0:
        return True
    if g.coeffs[0] == 0:
        return False
    n = g.degree
    for d in range(1, 2 * n * n + 1):
        if euler_phi(d) > g.degree:
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


def power_substitution_order(f: IntPoly) -> int:
    """Largest r >= 1 with f(t) = g(t^r): the gcd of all exponents in the support.

    Constant polynomials return 1 (any r works; there is no largest one).
    """
    if not f:
        raise ValueError("zero polynomial")
    r = 0
    for i, c in enumerate(f.coeffs):
        if c:
            r = math.gcd(r, i)
    return r if r >= 1 else 1


def compress_power(f: IntPoly, r: int) -> IntPoly:
    """The polynomial g with f(t) = g(t^r); r must divide every exponent."""
    if any(c and i % r for i, c in enumerate(f.coeffs)):
        raise ValueError(f"not a polynomial in t^{r}")
    return IntPoly(f.coeffs[::r])


def is_reciprocal(f: IntPoly) -> bool:
    """Palindrome test up to sign: t^deg * f(1/t) == +-f."""
    if not f:
        raise ValueError("zero polynomial")
    rev = f.coeffs[::-1]
    return rev == f.coeffs or rev == tuple(-c for c in f.coeffs)


def lehmer_polynomial() -> IntPoly:
    """Degree-10 polynomial with the smallest known Mahler measure > 1."""
    return IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))


# ---------------------------------------------------------------------------
# Certified roots and Mahler measure


@dataclass(frozen=True)
class RootList:
    """Root approximations with per-root certified disk radii.

    Every true root (with multiplicity) lies in the disk of the given
    radius about the paired approximation; overlapping disks were merged
    into clusters sharing one radius.
    """

    roots: tuple[complex, ...]
    radii: tuple[float, ...]

    def __iter__(self):
        return iter(zip(self.roots, self.radii))

    def __len__(self):
        return len(self.roots)


def _horner_mp(coeffs, z):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _aberth(coeffs, tol):
    """Certified roots of a squarefree integer polynomial.

    Companion-matrix eigenvalues give the starting points; simultaneous
    Aberth refinement runs at increasing mpmath precision until the
    Weierstrass disk radii drop below tol.
    """
    n = len(coeffs) - 1
    lead = coeffs[-1]
    dcoeffs = [i * c for i, c in enumerate(coeffs) if i]
    try:
        monic = [float(Fraction(c, coeffs[-1])) for c in coeffs]
        start = [complex(z) for z in np.roots(monic[::-1])]
        if len(start) != n:
            raise ValueError
    except (OverflowError, ValueError, np.linalg.LinAlgError):
        start = [complex(0.4 * k + 0.4, 0.9) for k in range(n)]
    # Distinct starting points are required for the Aberth denominators.
    for j in range(n):
        for k in range(j):
            if abs(start[j] - start[k]) < 1e-12:
                start[j] += (j + 1) * 1e-6 * (1 + 1j)
    dps = 40
    zs = [mp.mpc(z) for z in start]
    while dps <= 1600:
        with mp.workdps(dps):
            zs = [mp.mpc(z) for z in zs]
            stop = mp.mpf(10) ** (-dps + 8)
            for _ in range(120):
                moved = mp.mpf(0)
                for j in range(n):
                    fz = _horner_mp(coeffs, zs[j])
                    fpz = _horner_mp(dcoeffs, zs[j])
                    if fpz == 0:
                        zs[j] += mp.mpf(10) ** (-dps // 3)
                        continue
                    newton = fz / fpz
                    s = mp.mpc(0)
                    for k in range(n):
                        if k != j:
                            s += 1 / (zs[j] - zs[k])
                    denom = 1 - newton * s
                    step = newton if denom == 0 else newton / denom
                    zs[j] -= step
                    moved = max(moved, abs(step))
                if moved < stop:
                    break
            radii = []
            ok = True
            for j in range(n):
                prod = mp.mpc(lead)
                for k in range(n):
                    if k != j:
                        prod *= zs[j] - zs[k]
                if prod == 0:
                    ok = False
                    break
                w = _horner_mp(coeffs, zs[j]) / prod
                radii.append(float(n * abs(w)) * (1 + 1e-9) + 1e-290)
            if ok and all(r < tol / 4 for r in radii):
                return [complex(z) for z in zs], radii
        dps *= 2
    raise PrecisionError(f"root certification failed at tol={tol}")


def _rational_roots(g: IntPoly):
    """Exact rational roots of a squarefree primitive polynomial."""
    found = []
    if g.degree < 1:
        return found, g
    c0, cn = g.coeffs[0], g.leading
    if abs(c0) > 10**6 or abs(cn) > 10**6:
        return found, g
    for p in _divisors(abs(c0)):
        for q in _divisors(abs(cn)):
            for sp in (p, -p):
                r = Fraction(sp, q)
                if g.evaluate(r) == 0:
                    g = g.exact_div(IntPoly((-r.numerator, r.denominator)))
                    found.append(r)
                    if g.degree < 1:
                        return found, g
    return found, g


def _merge_clusters(zs, radii):
    """Union overlapping certification disks; members share the cluster radius."""
    n = len(zs)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(zs[i] - zs[j]) <= radii[i] + radii[j]:
                parent[find(i)] = find(j)
    out = list(radii)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        if len(members) == 1:
            continue
        r = max(abs(zs[i] - zs[j]) + radii[j] for i in members for j in members)
        for i in members:
            out[i] = r
    return out


def roots(f: IntPoly, tol: float = DEFAULT_TOL) -> RootList:
    """All complex roots of f with multiplicity, certified within tol.

    Multiple roots are separated exactly first (Yun decomposition), exact
    rational roots are split off, and the rest go through companion-matrix
    initialization plus Aberth refinement with Weierstrass disk bounds.
    """
    if not f:
        raise ValueError("zero polynomial has no well-defined root list")
    if f.degree == 0:
        return RootList((), ())
    if tol <= 0:
        raise ValueError("tol must be positive")
    _, parts = squarefree_decomposition(f)
    zs: list[complex] = []
    radii: list[float] = []
    for g, mult in parts:
        # t^k factors give exact zero roots.
        val = 0
        while val <= g.degree and g.coeffs[val] == 0:
            val += 1
        if val:
            g = IntPoly(g.coeffs[val:])
            zs.extend([0j] * (val * mult))
            radii.extend([1e-300] * (val * mult))
        rat, g = _rational_roots(g)
        for r in rat:
            z = complex(Fraction(r))
            err = 1e-300 if Fraction(z.real) == r else abs(z) * 1e-15 + 1e-300
            zs.extend([z] * mult)
            radii.extend([err] * mult)
        if g.degree >= 1:
            az, ar = _aberth(list(g.coeffs), tol)
            for z, r in zip(az, ar):
                rr = r + abs(z) * 4e-16 + 1e-300
                zs.extend([z] * mult)
                radii.extend([rr] * mult)
    radii = _merge_clusters(zs, radii)
    if any(r > tol for r in radii):
        raise PrecisionError("root clusters wider than the requested tolerance")
    order = sorted(range(len(zs)), key=lambda i: (-abs(zs[i]), zs[i].real, zs[i].imag))
    return RootList(tuple(zs[i] for i in order), tuple(radii[i] for i in order))


@dataclass(frozen=True)
class MahlerResult:
    value: float
    lower: float
    upper: float
    exact: bool
    roots: RootList

    def __float__(self):
        return self.value


def mahler_measure(f: IntPoly, tol: float = DEFAULT_TOL) -> MahlerResult:
    """Mahler measure |lead| * prod max(|root|, 1), with interval bounds.

    The exact flag is set when every root is certified strictly off the
    annulus of width 2*tol around the unit circle, so the set of
    contributing roots is unambiguous.
    """
    if not f:
        raise ValueError("zero polynomial")
    rl = roots(f, tol)
    value = float(abs(f.leading))
    lower = upper = value
    exact = True
    for z, r in rl:
        a = abs(z)
        value *= max(a, 1.0)
        lower *= max(a - r, 1.0)
        upper *= max(a + r, 1.0)
        if not (a + r < 1 - tol or a - r > 1 + tol):
            exact = False
    return MahlerResult(value, lower, upper, exact, rl)


def clear_denominators(coeffs) -> tuple[IntPoly, int]:
    """(D*f, D) for rational coefficients of f, D the lcm of their denominators."""
    cs = [Fraction(c) for c in coeffs]
    d = math.lcm(*(c.denominator for c in cs))
    return IntPoly(tuple(int(c * d) for c in cs)), d


def mahler_of_fraction_poly(coeffs, tol: float = DEFAULT_TOL) -> float:
    """Mahler measure of a rational-coefficient polynomial.

    Clears denominators: M(f) = M(D*f) / D for the lcm D, since the measure
    is multiplicative and M(constant) = |constant|.
    """
    f, d = clear_denominators(coeffs)
    if not f:
        raise ValueError("zero polynomial")
    return mahler_measure(f, tol).value / d


# ---------------------------------------------------------------------------
# Irreducibility certificates


@dataclass(frozen=True)
class IrreducibilityCertificate:
    """Sound verdict: 'irreducible' (mod-p witness), 'reducible' (explicit
    factor), or 'inconclusive'."""

    status: str
    witness_prime: int | None = None
    factor: IntPoly | None = None


def _polmod_mul(a, b, f, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    # reduce modulo monic f
    df = len(f) - 1
    for i in range(len(out) - 1, df - 1, -1):
        c = out[i]
        if c:
            for j in range(df):
                out[i - df + j] = (out[i - df + j] - c * f[j]) % p
            out[i] = 0
    out = out[:df]
    while len(out) < df:
        out.append(0)
    return out


def _polmod_pow_x(e, f, p):
    """x^e modulo (f, p) for monic f, by binary exponentiation."""
    df = len(f) - 1
    result = [1] + [0] * (df - 1)
    base = ([0, 1] + [0] * (df - 2))[:df] if df > 1 else [(-f[0]) % p]
    while e:
        if e & 1:
            result = _polmod_mul(result, base, f, p)
        base = _polmod_mul(base, base, f, p)
        e >>= 1
    return result


def _gf_gcd(a, b, p):
    a, b = [v % p for v in a], [v % p for v in b]

    def strip(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = strip(a), strip(b)
    while b:
        inv = pow(b[-1], p - 2, p)
        r = list(a)
        while len(r) >= len(b):
            c = (r[-1] * inv) % p
            off = len(r) - len(b)
            for i in range(len(b)):
                r[off + i] = (r[off + i] - c * b[i]) % p
            r = strip(r)
            if not r:
                break
        a, b = b, r
    return a


def _irreducible_mod_p(f: IntPoly, p: int) -> bool:
    if f.leading % p == 0:
        return False
    n = f.degree
    inv = pow(f.leading % p, p - 2, p)
    fm = [(c * inv) % p for c in f.coeffs]
    if n == 1:
        return True
    # x^(p^n) == x mod f, and gcd(x^(p^(n/q)) - x, f) trivial for prime q | n.
    xq = _polmod_pow_x(p**n, fm, p)
    xq[1] = (xq[1] - 1) % p if len(xq) > 1 else xq[1]
    if any(xq):
        return False
    m = n
    qs = set()
    d = 2
    while d * d <= m:
        if m % d == 0:
            qs.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        qs.add(m)
    for q in qs:
        g = _polmod_pow_x(p ** (n // q), fm, p)
        g[1] = (g[1] - 1) % p
        if len(_gf_gcd(g, list(fm), p)) > 1:
            return False
    return True


def _mignotte_bound(f: IntPoly, d: int) -> int:
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return math.comb(d, d // 2) * norm * abs(f.leading)


def _kronecker_factor(f: IntPoly, budget: int):
    """Bounded exhaustive search for a proper factor via interpolation."""
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
        if len(xs) < d + 1:
            return None
        bound = _mignotte_bound(f, d)
        divlists = []
        for v in ys:
            ds = [x for x in _divisors(abs(v)) if x <= bound]
            divlists.append([s * x for x in ds for s in (1, -1)])
        for combo in itertools.product(*divlists):
            spent += 1
            if spent > budget:
                return None
            g = _lagrange_int(xs, combo, d)
            if g is None or g.degree != d:
                continue
            if any(abs(c) > bound for c in g.coeffs):
                continue
            if g.primitive_part().degree >= 1 and f.try_div(g.primitive_part()) is not None:
                cand = g.primitive_part()
                if cand.degree >= 1:
                    return cand
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


def irreducibility_certificate(f: IntPoly, kronecker_budget: int = 200_000) -> IrreducibilityCertificate:
    """Sound but incomplete irreducibility test over Z.

    A mod-p witness proves irreducibility; an explicit divisor proves
    reducibility (searched only for degree <= 16); otherwise inconclusive.
    """
    if f.degree < 1:
        raise ValueError("degree >= 1 required")
    if f.content() != 1:
        raise ValueError("primitive polynomial required")
    for p in _WITNESS_PRIMES:
        if f.leading % p == 0:
            continue
        if _irreducible_mod_p(f, p):
            return IrreducibilityCertificate("irreducible", witness_prime=p)
    if f.degree <= 16:
        g = _kronecker_factor(f, kronecker_budget)
        if g is not None:
            return IrreducibilityCertificate("reducible", factor=g)
    return IrreducibilityCertificate("inconclusive")


# ---------------------------------------------------------------------------
# Text formats


_TERM_RE = re.compile(
    r"^([+-]?)(\d+)?\*?([tx])(?:\^(-?\d+))?$|^([+-]?\d+)$"
)


def parse_poly(text: str) -> IntPoly:
    """Parse either a comma list of ascending coefficients or a symbolic form.

    >>> parse_poly("1,1,0,-1").coeffs
    (1, 1, 0, -1)
    >>> parse_poly("t^3 - 2t + 1").coeffs
    (1, -2, 0, 1)
    """
    s = text.strip().replace("−", "-")
    if not s:
        raise ValueError("empty polynomial")
    if "t" not in s and "x" not in s:
        return IntPoly(tuple(int(p.strip()) for p in s.split(",")))
    s = s.replace(" ", "").replace("**", "^")
    terms = re.findall(r"[+-]?[^+-]+", s)
    out: dict[int, int] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"cannot parse term {term!r}")
        if m.group(5) is not None:
            out[0] = out.get(0, 0) + int(m.group(5))
            continue
        sign = -1 if m.group(1) == "-" else 1
        coef = sign * int(m.group(2) or 1)
        exp = int(m.group(4) or 1)
        if exp < 0:
            raise ValueError("negative exponents are not valid here")
        out[exp] = out.get(exp, 0) + coef
    deg = max(out) if out else 0
    return IntPoly(tuple(out.get(i, 0) for i in range(deg + 1)))


def format_poly(f: IntPoly, var: str = "t") -> str:
    if not f:
        return "0"
    bits = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if bits else "")
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if i == 1 else f"{head}{var}^{i}"
        bits.append(sign + body)
    return "".join(bits)
