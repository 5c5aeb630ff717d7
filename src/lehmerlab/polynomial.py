"""Exact integer and Laurent polynomial arithmetic with certified root finding.

Coefficients are stored in ascending order of degree, so ``IntPoly((1, 0, -2))``
is ``1 - 2*t^2``.  All ring arithmetic is exact over Z (or Q where division
requires it); floating point only enters through the numeric root finder,
which returns certified error radii alongside every approximation.  The
eigenvalues of the companion matrix (built as ``np.roots`` builds it and
passed to the LAPACK gufunc behind ``np.linalg.eigvals``, so the starts are
np.roots's to the bit) are certified in float64 by Weierstrass disks whose
radii are rigorous under rounding, in one pass per polynomial under one
``np.errstate``; when that bound fails, the same correction is iterated at
dyadic centers, whose disks are certified in exact integer arithmetic.
Pairwise disjoint disks prove the polynomial squarefree, so the Yun
decomposition runs only where they do not, as in irreducibility_certificate
it runs only where a witness prime does not.  Rational roots, zero
included, are recognized exactly inside their isolated disks.  numpy is
imported on the first root certification, not with this module, so code
that computes no root never loads it.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from functools import lru_cache

DEFAULT_TOL = 1e-10


class PrecisionError(RuntimeError):
    """Raised when roots cannot be certified within tol: the precision
    budget ran out, or tol is too fine for float64 at a root."""


def _int_arg(v, name: str) -> int:
    """v as an int through ``operator.index``; ValueError naming v otherwise."""
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"{name} = {v!r} is not an integer") from None


def _int_list(values, name: str, first: int = 0) -> list[int]:
    """The values as ints, through one ``map``: a Python call per value
    would dominate building a polynomial.  On a value that is not an
    integer, ``_int_arg``'s error, named ``name.format(index + first)``."""
    values = list(values)
    try:
        return list(map(operator.index, values))
    except TypeError:
        for i, v in enumerate(values, first):
            _int_arg(v, name.format(i))
        raise


class _LazyPattern:
    """``re.compile(text)``, compiled on the first call of one of its
    methods; each method is then bound on the instance, so later calls cost
    what the compiled pattern's own do."""

    def __init__(self, text: str):
        self._text = text

    def __getattr__(self, name):
        method = getattr(re.compile(self._text), name)
        setattr(self, name, method)
        return method


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


_NO_DEFAULT = object()


class _Record:
    """Immutable record compared by value, the base of the package's value
    and result types.  Its fields are the names its class body annotates,
    in order, after those of its bases, and a field's default is the value
    the class body assigns to it.  ``==`` holds only between instances of
    one class with equal fields, equal records hash equally, ``repr``
    spells out every field, and assigning or deleting an attribute raises
    AttributeError.  A class that validates its fields writes its own
    ``__init__``, storing them through ``vars(self)``.
    """

    _fields = _defaults = ()

    def __init_subclass__(cls):
        cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = tuple(getattr(cls, n, _NO_DEFAULT) for n in cls._fields)

    def __init__(self, *args, **kwargs):
        """The fields by position, then by keyword, then from their defaults."""
        names = self._fields
        if kwargs or len(args) != len(names):
            k = len(args)
            args += tuple(map(kwargs.pop, names[k:], self._defaults[k:]))
            if kwargs or len(args) != len(names) or any(a is _NO_DEFAULT for a in args):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        vars(self).update(zip(names, args))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return vars(self) == vars(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(map(vars(self).__getitem__, self._fields)))

    def __repr__(self):
        d = vars(self)
        return f"{type(self).__qualname__}({', '.join(f'{n}={d[n]!r}' for n in self._fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntPoly(_Record):
    """Dense integer polynomial, coefficients ascending.  A coefficient
    that is not an integer (ints, bools and numpy integers are) raises
    ValueError.

    >>> f = IntPoly((1, 1)) * IntPoly((-1, 1))
    >>> f.coeffs
    (-1, 0, 1)
    >>> f.evaluate(3)
    8
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        vars(self)["coeffs"] = _strip(_int_list(coeffs, "coefficient of t^{}"))

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
        return IntPoly(tuple(v // c for v in self.coeffs)) if c > 1 else self

    def divmod_q(self, other):
        """Quotient and remainder over Q, as tuples of Fractions."""
        other = _as_poly(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        from fractions import Fraction

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
        f = f * IntPoly((-_int_arg(r, "root"), 1))
    return f


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] with positive leading coefficient.

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput.
    7, 1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    Thm 7.7) on the primitive parts a and b: evaluate both at xi = 2^(8w),
    with xi > 2 min(|a|, |b|) + 2 in the max norm, take one integer gcd
    gamma, and read its balanced base-xi digits (``_unpack``) as a
    polynomial G with G(xi) = gamma.  If pp(G) divides a and b it is their
    gcd.  For h = gcd(a, b) = pp(G) k, k primitive, h(xi) divides gamma =
    cont(G) pp(G)(xi), so k(xi) divides cont(G), and |cont(G)| <= xi/2.  A
    root r of k is a root of a and of b, so |r| < 1 + min(|a|, |b|) <= xi/2
    (Cauchy's bound), and a nonconstant k would have |k(xi)| >=
    prod |xi - r| > xi/2.  So k = 1.  When pp(G) does not divide both, w
    widens by one byte, at most three times, and then the primitive
    remainder sequence ``_prs_gcd`` decides.
    """
    return _gcd_cofactors(f, g)[0]


def _gcd_cofactors(f: IntPoly, g: IntPoly):
    """(h, a / h, b / h): h = poly_gcd(f, g) and the cofactors of the
    primitive parts a and b of f and g.  GCDHEU's divisibility test yields
    them; where f or g is 0 or the remainder sequence decides, they are
    None, and where both are 0, so is h."""
    a, b = f.primitive_part(), g.primitive_part()
    if not a or not b:
        h = a or b
        return (-h if h and h.leading < 0 else h), None, None
    if not a.degree or not b.degree:
        return IntPoly((1,)), a, b
    na, nb = max(map(abs, a.coeffs)), max(map(abs, b.coeffs))
    w0 = -(-(2 * min(na, nb) + 2).bit_length() // 8)
    for w in range(w0, w0 + 4):
        # Inputs with a coefficient outside the digit range take Horner's rule.
        xi, big = 1 << 8 * w, 1 << 8 * w - 1
        va = _pack(a.coeffs, w) if na < big else a.evaluate(xi)
        vb = _pack(b.coeffs, w) if nb < big else b.evaluate(xi)
        low, digits = _unpack(math.gcd(va, vb), w)
        h = IntPoly([0] * low + digits).primitive_part()
        # gamma > 0, so the top digit, and h's leading coefficient, is positive.
        if not h.degree:
            return h, a, b
        qa = a.try_div(h)
        qb = None if qa is None else b.try_div(h)
        if qb is not None:
            return h, qa, qb
    return _prs_gcd(a, b), None, None


def _prs(a, b):
    """The primitive polynomial remainder sequence a, b, r_2, ... of two
    ascending coefficient lists with len(a) >= len(b) (Brown, J. ACM 18,
    1971).  Each r_k is the pseudo-remainder of the two members before it,
    taken with a power of |lc| of the second as multiplier, negated and
    divided by its positive content: a positive multiple of Sturm's negated
    remainder, so the signs of a Sturm sequence are kept.  The last member
    is gcd(a, b) up to a constant."""
    yield a
    while b:
        yield b
        r, d, lead = list(a), len(b) - 1, b[-1]
        s, m = (1, lead) if lead > 0 else (-1, -lead)
        while len(r) > d:
            q, k = s * r[-1], len(r) - 1 - d
            r = [m * c for c in r[:-1]]
            for i in range(d):
                r[k + i] -= q * b[i]
            while r and r[-1] == 0:
                r.pop()
        g = math.gcd(*r) if r else 1
        a, b = b, [-(c // g) for c in r]


def _prs_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """poly_gcd by the primitive polynomial remainder sequence ``_prs``."""
    a, b = f.primitive_part().coeffs, g.primitive_part().coeffs
    if len(a) < len(b):
        a, b = b, a
    *_, last = _prs(a, b)
    p = IntPoly(last)
    return -p if p and p.leading < 0 else p


def squarefree_decomposition(f: IntPoly):
    """Yun decomposition (SYMSAC 1976): (content, [(g_i, i)]) with f =
    content * prod g_i^i, the g_i primitive, squarefree, pairwise coprime.

    Every gcd is ``poly_gcd``'s heuristic gcd (the remainder sequence only
    where it fails), taken through ``_gcd_cofactors``: its divisibility
    test yields the quotients by the gcd that each step needs, so only the
    remainder sequence leaves them to a division.  Callers prove f
    squarefree first where they can:
    ``roots`` by disjoint disks, and ``irreducibility_certificate`` at a
    witness prime.
    """
    if not f:
        raise ValueError("zero polynomial")
    sign = 1 if f.leading > 0 else -1
    content = sign * f.content()
    p = f.primitive_part() if sign > 0 else -f.primitive_part()
    if p.degree == 0:
        return content, []

    def split(w, z):
        # (h, w / h, z / h), h = poly_gcd(w, z), for w primitive, as p and
        # every cofactor of a primitive gcd are; z / h is cont(z) times the
        # cofactor of pp(z).
        h, w_h, z_h = _gcd_cofactors(w, z)
        if w_h is None:
            return h, w.exact_div(h), z.exact_div(h)
        return h, w_h, z_h * z.content()

    g, w, y = split(p, p.derivative())
    if g.degree == 0:
        return content, [(p, 1)]
    parts, i = [], 1
    while w.degree > 0:
        h, w, y = split(w, y - w.derivative())
        if h.degree > 0:
            parts.append((h, i))
        i += 1
    return content, parts


# ---------------------------------------------------------------------------
# Laurent polynomials


class LaurentPoly(_Record):
    """Integer Laurent polynomial: coeffs ascending from t^min_deg;
    non-integer coefficients raise ValueError, as for IntPoly."""

    coeffs: tuple[int, ...]
    min_deg: int

    def __init__(self, coeffs=(), min_deg=0):
        m = _int_arg(min_deg, "min_deg")
        c = _int_list(coeffs, "coefficient of t^{}", m)
        while c and c[-1] == 0:
            c.pop()
        while c and c[0] == 0:
            c.pop(0)
            m += 1
        if not c:
            m = 0
        vars(self).update(coeffs=tuple(c), min_deg=m)

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


# Balanced digits at t = 2^(8w): a polynomial whose coefficients c satisfy
# -2^(8w-1) <= c < 2^(8w-1) is the integer sum c_i 2^(8wi), and back.  Adding
# the bias sum 2^(8w-1) 2^(8wi) makes every digit c_i + 2^(8w-1) nonnegative,
# so no digit borrows, and XOR with the bias then turns each into the w-byte
# two's complement of c_i; both directions are one pass over the bytes.
# Digits are read through the smallest native signed item of size >= w
# (memoryview, on a little-endian machine), moved between the two strides by
# w byte-slice copies, the sign filling the top bytes; digits of a native
# size are written through array.  A wider digit is one int.from_bytes or
# to_bytes call.
_NATIVE = (
    sorted((memoryview(bytes(8)).cast(c).itemsize, c) for c in "bhiq")
    if sys.byteorder == "little"
    else []
)
_SLOT = (
    {w: next(item for item in _NATIVE if item[0] >= w) for w in range(1, _NATIVE[-1][0] + 1)}
    if _NATIVE
    else {}
)
_SIGN_FILL = bytes(255 * (i >> 7) for i in range(256))


def _bias(n: int, w: int) -> int:
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(coeffs, w: int) -> int:
    """sum_i coeffs[i] * 2^(8wi), for -2^(8w-1) <= coeffs[i] < 2^(8w-1).
    Up to 16 coefficients Horner steps are cheaper than the bytes pass."""
    n = len(coeffs)
    if n <= 16:
        acc, b = 0, 8 * w
        for c in reversed(coeffs):
            acc = (acc << b) + c
        return acc
    if w in _SLOT and _SLOT[w][0] == w:
        import array

        raw = array.array(_SLOT[w][1], coeffs).tobytes()
    else:
        raw = b"".join(c.to_bytes(w, "little", signed=True) for c in coeffs)
    bias = _bias(n, w)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(v: int, w: int) -> tuple[int, list[int]]:
    """(low, digits) with v = sum_i digits[i] * 2^(8w(low + i)): the balanced
    base-2^(8w) digits of v, each in [-2^(8w-1), 2^(8w-1)), without the low
    zero digits and with a nonzero top digit; (0, []) for v = 0."""
    if not v:
        return 0, []
    b = 8 * w
    low = ((v & -v).bit_length() - 1) // b
    v >>= b * low
    n = (v.bit_length() + 1) // b + 1  # a digit count D has bit length >= b(D - 1) - 1
    bias = _bias(n, w)
    raw = ((v + bias) ^ bias).to_bytes(n * w, "little")
    if w in _SLOT:
        size, code = _SLOT[w]
        if size != w:
            narrow, raw = raw, bytearray(n * size)
            for k in range(w):
                raw[k::size] = narrow[k::w]
            fill = narrow[w - 1 :: w].translate(_SIGN_FILL)
            for k in range(w, size):
                raw[k::size] = fill
        digits = memoryview(raw).cast(code).tolist()
    else:
        digits = [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, n * w, w)]
    while not digits[-1]:
        digits.pop()
    return low, digits


def _kronecker_det(rows) -> tuple[int, list[int]]:
    """The determinant of a matrix whose entries are (low, coeffs) pairs,
    t^low times the polynomial with coefficients ``coeffs`` ascending, with
    low >= 0; returned as ``_unpack`` returns it, t^low times digits.

    Every coefficient of the determinant, and of every entry of a matrix
    with no zero row, is at most the product of the row sums of coefficient
    1-norms in absolute value, so below 2^(B-1) with B its bit length plus
    one.  Each entry is packed at t = 2^(8w) with 8w >= B, one integer
    determinant is taken, and its balanced digits are the coefficients.
    """
    bound = math.prod(sum(sum(map(abs, p)) for _, p in row) for row in rows)
    if not bound:
        return 0, []
    w = (bound.bit_length() + 8) // 8
    b = 8 * w
    return _unpack(bareiss_det([[_pack(p, w) << (b * low) for low, p in row] for row in rows]), w)


def poly_det(rows) -> IntPoly:
    """Determinant of a matrix of IntPolys by Kronecker substitution
    (``_kronecker_det``).

    >>> poly_det([[IntPoly((0, 1)), IntPoly((1,))], [IntPoly((1,)), IntPoly((0, 1))]]).coeffs
    (-1, 0, 1)
    """
    low, coeffs = _kronecker_det([[(0, p.coeffs) for p in row] for row in rows])
    return IntPoly([0] * low + coeffs)


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

    By Kronecker's theorem (J. reine angew. Math. 53, 1857) a monic
    integer polynomial whose roots all have modulus 1 has only roots of
    unity as roots, so f is a cyclotomic product exactly when every root
    lies on the unit circle, M(f) = 1; ``_circle.all_on_circle`` decides
    that in integers.

    >>> is_cyclotomic_product(IntPoly((-1, 0, 1)) * IntPoly((1, 1, 1)))
    True
    >>> is_cyclotomic_product(IntPoly((1, -3, 1)))
    False
    """
    if not f or not f.is_monic:
        raise ValueError("is_cyclotomic_product expects a monic nonzero polynomial")
    # The count is compiled on first use, not at package import.
    from ._circle import all_on_circle

    return all_on_circle(f)


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


class RootList(_Record):
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


_U = 2.0**-53  # unit roundoff of float64
_ETA = 2.0**-1000  # absolute allowance per Horner step for underflow
_TINY = 2.0**-960  # partial products kept this far above the underflow range
# roots() sends p straight to Yun, without the float64 certificate, when
# the float64 Weierstrass step moves an eigenvalue by more than this times
# max(1, |z|).  On simple roots the step is about u times a condition
# number; the split eigenvalues of a multiple root move by sqrt(u) or more.
# It decides only which work runs first, never a result.
_CLUSTER_STEP = 2.0**-36


def _up(x) -> float:
    """A float no smaller than x (a float or Fraction)."""
    return math.nextafter(float(x), math.inf)


def _isqrt_up(num: int, den: int) -> int:
    """The least integer m >= 0 with m^2 >= num / den."""
    q = -(-num // den)
    m = math.isqrt(q)
    return m + (m * m < q)


def _weierstrass_f64(a, z):
    """Weierstrass data at float64 centers z, with bounds rigorous under rounding.

    ``a`` holds the coefficients, ascending, as floats that are exact
    integers below 2^53.  Returns (hi, lo) with hi_j >= |f(z_j)| and
    lo_j <= |lc * prod_{k != j} (z_j - z_k)| (0 where a partial product,
    the whole one included, leaves the normal range).

    f(z_j) is taken by Horner's rule with the running error bound
    E <- |z| E + 3u |z||p| + 2u |p'| + eta of Higham (Accuracy and
    Stability of Numerical Algorithms, Alg. 5.1): 3u >= sqrt(2) gamma_2
    bounds a complex product (Lemma 3.5, with or without FMA), 2u >=
    gamma_1 a sum, and eta covers underflow.  The factors 1 + gamma and
    1 - gamma absorb 8(n + 2) roundings of relative size u along any path
    of the computation.  Each modulus np.abs takes counts as six (3 ulp;
    numpy's complex abs need not be the correctly rounded hypot, and was
    seen within 2 ulp of it).  A term of E then commits at most 17
    roundings where it enters (|z|, |p|, two products, three sums), 8 in
    each later step (|z|, a product, a sum), 1 in |p| + E and 2 in
    forming 1 + gamma and multiplying by it: at most 8n + 12 over the n
    steps.  The Horner values at all centers are the rows of
    _horner_and_products; their moduli are one np.abs, the terms one
    expression, and E runs in place.  Each element comes from the same
    operations, in the same order, as one step at a time, so hi is the
    same to the bit and the count stands.  The product of lo commits one
    rounding per difference, at most 3 per complex product, 1 for lc, 6
    for its modulus and 2 for 1 - gamma: at most 4n + 5.
    """
    import numpy as np

    n = len(a) - 1
    g = 8 * (n + 2) * _U / (1 - 8 * (n + 2) * _U)
    p, partial = _horner_and_products(a, z)
    az, pa = np.abs(z), np.abs(p)
    terms = 3 * _U * az * pa[:-1] + 2 * _U * pa[1:] + _ETA
    err = np.zeros(len(z))
    for term in terms:
        err *= az
        err += term
    hi = (pa[-1] + err) * (1 + g)
    mags = np.abs(partial)
    normal = (np.isfinite(mags) & (mags >= _TINY)).all(axis=1)
    lo = np.where(normal, mags[:, -1] * (1 - g), 0.0)
    return hi, lo


def _horner_and_products(a, z):
    """Horner's rule for the coefficients a (ascending) at the float64
    centers z, and the products lc * prod_{k != j} (z_j - z_k), in float64
    with no bound: (p, partial).

    Row k of p, (n + 1) x m, holds the Horner values after k steps, so row
    n holds f(z).  Row j of partial holds the running products of
    lc * (z_j - z_0), z_j - z_1, ..., with 1 in place of z_j - z_j, so its
    last column is the whole product, and lc entering first lets one mask
    cover every partial product.  The Horner steps run in place, adding
    the coefficients as they come (Python floats or numpy scalars give the
    same bits).
    """
    import numpy as np

    m = len(z)
    p = np.empty((len(a), m), dtype=complex)
    prev = p[0]
    prev[...] = a[-1]
    for row, c in zip(p[1:], a[-2::-1]):
        np.multiply(prev, z, out=row)
        row += c
        prev = row
    d = np.subtract.outer(z, z)
    d.flat[:: m + 1] = 1
    d[:, 0] *= a[-1]
    return p, np.multiply.accumulate(d, axis=1)


def _weierstrass_step(a, z):
    """The Weierstrass corrections w_j = f(z_j) / (lc * prod_{k != j} (z_j - z_k))
    at float64 centers z, computed in float64 from the coefficients a
    (ascending), with no bound."""
    p, partial = _horner_and_products(a, z)
    return p[-1] / partial[:, -1]


def _fixed_starts(n):
    """The starts taken where the companion eigenvalues cannot be had."""
    import numpy as np

    return np.array([complex(0.4 * k + 0.4, 0.9) for k in range(n)])


def _eigenvalues(coeffs):
    """np.roots of the integer coefficients (ascending) over lc, or fixed
    starts where it fails, from the companion matrix np.roots builds.

    Each c / lc is float(Fraction(c, lc)): CPython's int true division is
    correctly rounded; past the float64 range the starts are fixed.  As in
    np.roots, zero constant terms are stripped and their zero roots come
    last, and the matrix has -p[1:] / p[0] as row 0 (p descending, p[0] =
    1) and ones on the subdiagonal.  Its eigenvalues come from the LAPACK
    gufunc that np.linalg.eigvals wraps, called as eigvals calls it (the
    same bits, without the wrapper's checks and errstate): a NaN output is
    LAPACK's non-convergence, where eigvals raises LinAlgError, and takes
    the fixed starts.  As in eigvals, the array is real when every
    eigenvalue is.
    """
    import numpy as np
    from numpy.linalg import _umath_linalg

    n, lc = len(coeffs) - 1, coeffs[-1]
    try:
        p = [c / lc for c in coeffs]
    except OverflowError:
        return _fixed_starts(n)
    zeros = next(i for i, v in enumerate(p) if v)
    m = n - zeros
    a = np.zeros((m, m))
    a.flat[m :: m + 1] = 1
    a[:1] = [-v for v in reversed(p[zeros:-1])]
    start = _umath_linalg.eigvals(a, signature="d->D")
    imag = start.imag.tolist()
    if not any(imag):
        start = start.real
    elif any(map(math.isnan, imag)):
        return _fixed_starts(n)
    if zeros:
        start = np.concatenate((start, np.zeros(zeros, start.dtype)))
    return start


def _float64_step(coeffs, start):
    """One float64 Weierstrass step from the eigenvalues start: (a, z, moved).

    a holds the coefficients as Python floats, z the stepped centers
    (within a few ulps of simple roots; they are the centers certified)
    and moved the largest |w_j| / max(1, |start_j|) of the step (inf where
    a correction is not a number, as where centers coincide).  None when
    a coefficient is 2^53 or more.
    """
    import numpy as np

    if max(map(abs, coeffs)) >= 2**53:
        return None
    a = list(map(float, coeffs))
    z = np.asarray(start, dtype=complex)
    w = _weierstrass_step(a, z)
    moved = 0.0
    for wj, zj in zip(w.tolist(), z.tolist()):
        try:
            ratio = abs(wj) / max(1.0, abs(zj))
        except OverflowError:  # |w_j| past the float64 range
            ratio = math.inf
        moved = math.inf if math.isnan(ratio) else max(moved, ratio)
    return a, z - w, moved


def _float64_disks(step, tol):
    """The float64 certificate at the centers of step, a _float64_step:
    (centers, radii), or None when a radius is not below tol/4 (a cluster,
    a multiple root, overflow)."""
    a, z, _ = step
    hi, lo = _weierstrass_f64(a, z)
    n, radii = len(a) - 1, []
    for h, l in zip(hi.tolist(), lo.tolist()):
        # (1 + 4u) absorbs the two roundings of n * hi / lo and its own.
        r = n * h / l * (1 + 4 * _U) if l else math.inf
        if not r < tol / 4:
            return None
        radii.append(r)
    return z.tolist(), radii


def _float64_pass(coeffs, tol, cluster_step=math.inf):
    """The float64 route of an integer polynomial (coefficients
    ascending): (start, disks).

    The stages: the companion eigenvalues start (_eigenvalues), one
    float64 Weierstrass step from them (_float64_step) and, unless a
    coefficient is 2^53 or more or the step moved an eigenvalue by more
    than cluster_step, the float64 certificate disks (_float64_disks; None
    where it fails or is not run).  They open no np.errstate of their own
    and run under this one, which silences numpy's warnings on overflow
    and on LAPACK's non-convergence; the stages read both from the values,
    so a stage called alone gives the same values, with those warnings.
    """
    import numpy as np

    with np.errstate(all="ignore"):
        start = _eigenvalues(coeffs)
        step = _float64_step(coeffs, start)
        if step is None or not step[2] <= cluster_step:
            return start, None
        return start, _float64_disks(step, tol)


def _weierstrass_exact(coeffs, tol, start):
    """The escalation route of roots: centers z_j = (x_j + i y_j) / 2^p.

    In-place Weierstrass (Durand-Kerner) steps z_j <- z_j - W_j from start run in fixed
    point, each product dropping p bits, at p = e + 128, e + 256, ..., e + 4096 until every
    radius about the rounded float64 center is below tol/4.  Here e is the number of bits
    below 1 of the smallest start modulus, so a root far below 2^-128 still gets 128 bits
    of its own (at e = 0 the root 2^-200 of 2^200 t - 1 would round to 0).  No rounding
    is left to bound: F_j = 2^(pn) f(z_j) and P_j = 2^(p(n-1)) lc prod_{k != j} (z_j - z_k)
    are Gaussian integers, n|W_j| = n|F_j| / (2^p |P_j|) and the distance to that center
    are bounded by integer square roots, and every comparison is exact."""
    n, lead = len(coeffs) - 1, coeffs[-1]

    def horner_and_product(j, cs, head, shift):
        # Horner over cs, and prod_{k != j} (z_j - z_k), from head; products drop shift bits.
        x, y = xs[j], ys[j]
        fr, fi = pr, pi = head, 0
        for c in cs:
            fr, fi = ((fr * x - fi * y) >> shift) + c, (fr * y + fi * x) >> shift
        for k in range(n):
            if k != j:
                dx, dy = x - xs[k], y - ys[k]
                pr, pi = (pr * dx - pi * dy) >> shift, (pr * dy + pi * dx) >> shift
        return fr, fi, pr, pi

    from fractions import Fraction

    extra = max(0, -min(math.frexp(abs(z))[1] for z in start))
    p = 128 + extra
    xs = [round(Fraction(z.real) * 2**p) for z in start]
    ys = [round(Fraction(z.imag) * 2**p) for z in start]
    while p <= 4096 + extra:
        cs = [c << p for c in coeffs[-2::-1]]
        for _ in range(120):
            moved = 0
            for j in range(n):
                fr, fi, pr, pi = horner_and_product(j, cs, lead << p, p)
                den = pr * pr + pi * pi
                if den:
                    wr, wi = ((fr * pr + fi * pi) << p) // den, ((fi * pr - fr * pi) << p) // den
                else:  # coincident centers, or a product below 2^-p
                    wr = wi = 1 << (p - p // 3)
                xs[j], ys[j] = xs[j] - wr, ys[j] - wi
                moved = max(moved, abs(wr), abs(wi))
            if moved < 1 << 27:
                break
        # Distinct centers make P_j != 0; F_j = sum a_i 2^(p(n-i)) (x_j + i y_j)^i; units of 2^-s.
        if len(set(zip(xs, ys))) == n:
            cs = [c << p * t for t, c in enumerate(coeffs[-2::-1], 1)]
            s, one = p + 64, 1 << p
            try:
                centers = [complex(x / one, y / one) for x, y in zip(xs, ys)]  # correctly rounded
            except OverflowError:
                raise PrecisionError("root approximations left the float64 range") from None
            nws, dists, radii = [], [], []
            for j, (x, y, z) in enumerate(zip(xs, ys, centers)):
                fr, fi, pr, pi = horner_and_product(j, cs, lead, 0)
                nws.append(_isqrt_up(n * n * (fr * fr + fi * fi) << 128, pr * pr + pi * pi))
                dx, dy = Fraction(x, one) - Fraction(z.real), Fraction(y, one) - Fraction(z.imag)
                d = dx * dx + dy * dy
                dists.append(d)
                try:
                    radii.append(_up((nws[j] + _isqrt_up(d.numerator << 2 * s, d.denominator)) / (1 << s)))
                except OverflowError:
                    raise PrecisionError("root disk radii left the float64 range") from None
            if all(r < tol / 4 for r in radii):
                return centers, radii
            for j in range(n):
                # An isolated disk holds its root, so no float64 point lies
                # within dists[j]^(1/2) - nws[j] of that root.
                if dists[j] >= (Fraction(tol) / 4 + Fraction(nws[j], 1 << s)) ** 2 and all(
                    ((xs[j] - xs[k]) ** 2 + (ys[j] - ys[k]) ** 2) << 128 > (nws[j] + nws[k]) ** 2
                    for k in range(n) if k != j
                ):
                    m = abs(centers[j])
                    raise PrecisionError(
                        f"tol={tol:g} is too fine for float64 at a root of modulus {m:.6g}: "
                        f"the float64 spacing there is {math.ulp(m):.3g}, and no float64 center "
                        f"lies within tol/4 = {tol / 4:.3g} of that root"
                    )
        xs, ys = [x << p - extra for x in xs], [y << p - extra for y in ys]
        p = 2 * p - extra
    raise PrecisionError(f"root certification failed at tol={tol}")


def _near_pairs(zs, radii):
    """The pairs (i, j), i != j, of disks D(z_i, r_i) and D(z_j, r_j) that
    might meet, each pair once: |z_i - z_j| * (1 - 8u) <= r_i + r_j.

    The margin of a few units of roundoff makes "might": a pair that
    fails the test is disjoint, since the computed distance is within
    3u of the true one and the computed sum within u of r_i + r_j.  The
    disks are swept by real part on Python floats (abs(complex) is the
    C hypot): once (Re z_j - Re z_i)(1 - 8u) > r_i + max r, disk i meets
    neither disk j nor any later one, since hypot(dx, dy) >= |dx|.
    """
    disks = sorted(zip(zs, radii, range(len(zs))), key=lambda d: d[0].real)
    r_max, shrink = max(radii, default=0.0), 1 - 8 * _U
    pairs = []
    for k, (zi, ri, i) in enumerate(disks):
        for zj, rj, j in disks[k + 1 :]:
            if (zj.real - zi.real) * shrink > ri + r_max:
                break
            if abs(zi - zj) * shrink <= ri + rj:
                pairs.append((i, j))
    return pairs


def _recognize_rational_roots(g: IntPoly, zs, radii, pairs):
    """Replace, in place, each certified disk of g that holds a rational
    root by that root rounded to float64, with its rounding distance.

    Only a disk that meets the real axis and is in none of pairs (the
    _near_pairs of zs and radii) is tried: it holds exactly one root, so
    a rational q inside it with g(q) = 0 is that root.  A rational root of
    the primitive g is m / lc for an integer m, lc = |lc(g)|, and m is the
    integer nearest lc times the center once the radius is below 1 / (2 lc).
    All of it is done in integers, each float being n / 2^k: m (ties down),
    the disk test over one power-of-two denominator scaled by lc, and
    lc^deg g(m / lc) by homogeneous Horner.  For monic g a disk whose
    center lies more than its radius from the nearest integer is skipped
    first (x - round(x) is exact, Sterbenz).  The new center is m / lc
    correctly rounded, its radius the rounding distance rounded up; zero
    and float64-exact roots get radius 0.  The disks are swept again after
    each replacement, so later disks are tested against the replaced ones.
    Returns the pairs of the disks as they are left.
    """
    lc = abs(g.leading)
    crowded = {i for pair in pairs for i in pair}
    for j in range(len(zs)):
        z, r = zs[j], radii[j]
        if abs(z.imag) > r or j in crowded or (lc == 1 and abs(z.real - round(z.real)) > r):
            continue
        (a, da), (c, dc), (s, ds) = (v.as_integer_ratio() for v in (z.real, z.imag, r))
        d = max(da, dc, ds)
        m = (2 * lc * a + da - 1) // (2 * da)
        if (m * d - lc * a * (d // da)) ** 2 + (lc * c * (d // dc)) ** 2 > (lc * s * (d // ds)) ** 2:
            continue
        acc, scale = 0, 1
        for coeff in reversed(g.coeffs):
            acc, scale = acc * m + coeff * scale, scale * lc
        if acc == 0:
            x = m / lc  # correctly rounded
            fa, fd = x.as_integer_ratio()
            dist = abs(fa * lc - m * fd)
            zs[j], radii[j] = complex(x), _up(dist / (fd * lc)) if dist else 0.0
            pairs = _near_pairs(zs, radii)
            crowded = {i for pair in pairs for i in pair}
    return pairs


def _merge_clusters(zs, radii, pairs):
    """Union the certification disks of pairs, those that might meet (their
    _near_pairs); members share the cluster radius.

    The shared radius carries a margin of a few units of roundoff, as the
    overlap test does, so disks are merged whenever they might meet.
    """
    if not pairs:
        return radii
    parent = list(range(len(zs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in pairs:
        parent[find(i)] = find(j)
    out = list(radii)
    groups = {}
    for i in range(len(zs)):
        groups.setdefault(find(i), []).append(i)
    for members in groups.values():
        if len(members) == 1:
            continue
        r = max(abs(zs[i] - zs[j]) + radii[j] for i in members for j in members) * (1 + 8 * _U)
        for i in members:
            out[i] = r
    return out


def roots(f: IntPoly, tol: float = DEFAULT_TOL) -> RootList:
    """All complex roots of f with multiplicity, certified within tol.

    The order of work, on the primitive part p of f with lc(p) > 0:

    1. The float64 pass (_float64_pass: the companion eigenvalues of p,
       one float64 Weierstrass step and the float64 certificate), with no
       exact escalation.
       The certificate is skipped when the step moved an eigenvalue by
       more than _CLUSTER_STEP, the mark of a multiple root or a cluster.
    2. If every radius is below tol/4 and no two of the n disks might meet
       (_near_pairs, a sweep by real part), p is squarefree, and the Yun
       decomposition is skipped.  Proof: the disks contain the Gerschgorin
       discs of a matrix whose characteristic polynomial is p/lc
       (Carstensen), so each connected component of m disks holds m roots
       counted with multiplicity; a disk alone holds one root, and that
       root is simple.  So all n roots are simple.
    3. Otherwise multiple roots are separated exactly (Yun decomposition),
       and each squarefree part g is certified: float64 centers z_j and
       radii r_j < tol/4 such that every connected component of m disks
       D(z_j, r_j) holds exactly m roots, r_j >= n|W_j| for the Weierstrass
       corrections W_j = g(z_j) / (lc * prod_{k != j} (z_j - z_k)) (Braess
       and Hadeler; Carstensen).  The float64 pass gives them; where its
       certificate fails (a coefficient of 2^53 or more, a cluster,
       overflow) _weierstrass_exact iterates the same correction from the
       same eigenvalues at dyadic centers and certifies it in exact
       integers.
    4. Rational roots, zero included, are recognized exactly inside their
       isolated disks, in integers for every leading coefficient (the
       candidate m / lc, m nearest lc times the center), and the disks that
       might meet are merged into clusters.

    Every radius is a proven bound about its float64 center.  A tol that
    no float64 center can meet raises PrecisionError naming the float64
    spacing at that root.

    The order is part of the contract: roots come sorted by (-|z|, Re z,
    Im z) of their centers, so the first has the largest modulus and the
    first k give the k largest moduli; callers read it without sorting.
    """
    if not f:
        raise ValueError("zero polynomial has no well-defined root list")
    if not 0 < tol < math.inf:
        raise ValueError("tol must be a positive finite number")
    if f.degree == 0:
        return RootList((), ())
    p = f.primitive_part()
    if p.leading < 0:
        p = -p
    disks = _float64_pass(list(p.coeffs), tol, _CLUSTER_STEP)[1]
    if disks and not _near_pairs(*disks):
        zs, radii = disks  # p is squarefree
        pairs = _recognize_rational_roots(p, zs, radii, [])
    else:
        zs, radii = [], []
        for g, mult in squarefree_decomposition(p)[1]:
            coeffs = list(g.coeffs)
            start, disks = _float64_pass(coeffs, tol)
            az, ar = disks or _weierstrass_exact(coeffs, tol, start)
            _recognize_rational_roots(g, az, ar, _near_pairs(az, ar))
            for z, r in zip(az, ar):
                zs.extend([z] * mult)
                radii.extend([r] * mult)
        pairs = _near_pairs(zs, radii)
    radii = _merge_clusters(zs, radii, pairs)
    if any(r > tol for r in radii):
        raise PrecisionError("root clusters wider than the requested tolerance")
    order = sorted(range(len(zs)), key=lambda i: (-abs(zs[i]), zs[i].real, zs[i].imag))
    return RootList(tuple(zs[i] for i in order), tuple(radii[i] for i in order))


class MahlerResult(_Record):
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


def clear_denominators(values) -> tuple[tuple[int, ...], int]:
    """(D*v_1, ..., D*v_n) as integers and D, the lcm of the denominators of
    the rationals v_i, in lowest terms.  Integers (anything ``operator.index``
    takes: ints, bools, numpy integers) give themselves and D = 1, and no
    Fraction is built; any other value is read as ``Fraction(v)``."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values)), 1
    except TypeError:
        from fractions import Fraction

        fs = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    d = math.lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (d // f.denominator) for f in fs), d


# ---------------------------------------------------------------------------
# Irreducibility certificates


class IrreducibilityCertificate(_Record):
    """Verdict of irreducibility_certificate over Z; never inconclusive.

    ``status`` is 'irreducible' or 'reducible'.  For 'irreducible',
    ``witness_prime`` is the prime at which the proof closed: the prime
    whose mod-p factor degrees brought Musser's degree-set intersection
    down to {0, n}, or the prime of the Zassenhaus lift in which no subset
    of the lifted factors gave a divisor.  For 'reducible', ``factor`` is a
    proper divisor of f in Z[t], checked by exact division, and
    ``witness_prime`` is None.
    """

    status: str
    witness_prime: int | None = None
    factor: IntPoly | None = None


def irreducibility_certificate(f: IntPoly) -> IrreducibilityCertificate:
    """Conclusive irreducibility test for a primitive f over Z.

    ``_factor.certify`` scans primes in order, skipping those that divide
    lc(f) or leave f not squarefree mod p.  gcd(f, f') = 1 mod a prime not
    dividing lc(f) proves f squarefree; when the first two such primes
    both fail, one Yun decomposition runs, and a square factor proves f
    reducible.  Musser's degree sets (J. ACM 25, 1978) prove
    irreducibility, or after five usable primes Zassenhaus recombination
    of the lifted factors gives a least-degree, hence irreducible, factor
    or proves there is none.  Every step is deterministic.  The known
    limit is recombination: inputs that split into many factors modulo
    every prime, like Swinnerton-Dyer polynomials, try exponentially many
    subsets in the number of factors.
    """
    if f.degree < 1:
        raise ValueError("degree >= 1 required")
    if f.content() != 1:
        raise ValueError("primitive polynomial required")
    # The factoring code is compiled on first use, not at package import.
    from ._factor import certify

    return certify(f)


# ---------------------------------------------------------------------------
# Text formats


_COEFF_RE = _LazyPattern(r"[+-]?[0-9]+")
_TERM_RE = _LazyPattern(
    r"^([+-]?)([0-9]+)?\*?([tx])(?:\^(-?[0-9]+))?$|^([+-]?[0-9]+)$"
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
        coeffs, fullmatch = [p.strip() for p in s.split(",")], _COEFF_RE.fullmatch
        for p in coeffs:
            if not fullmatch(p):
                raise ValueError(
                    f"bad coefficient {p!r}: expected comma-separated signed "
                    "integers such as 1,0,-2"
                )
        return IntPoly(tuple(int(p) for p in coeffs))
    s = s.replace(" ", "").replace("**", "^")
    # Every sign starts a term, but one after ^ stays in it; signs with no
    # term after them form one, which _TERM_RE rejects.
    terms = re.findall(r"[+-]*(?:\^[+-]|[^+-])+|[+-]+", s)
    out: dict[int, int] = {}
    match = _TERM_RE.match
    for term in terms:
        m = match(term)
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
