"""Roots on the unit circle, counted in integers.

A root z of a real polynomial f with |z| = 1 is also a root, of the same
multiplicity, of the reversal f*(t) = t^n f(1/t), since 1/z is the
conjugate of z.  So the roots on the circle are those of gcd(f, f*), a
polynomial u with u* = +-u.  Dividing t - 1 and t + 1 out of u leaves a
palindrome v of even degree 2m, and t^-m v(t) = h(t + 1/t), the trace
substitution (Boyd, Duke Math. J. 44, 1977): for v = sum c_j t^j,
h = c_m + sum_{k>=1} c_{m+k} D_k with D_k(t + 1/t) = t^k + t^-k, that is
D_0 = 2, D_1 = x and D_{k+1} = x D_k - D_{k-1}.  The roots of v on the
circle are the pairs e^{+-i theta} over the roots 2 cos theta of h in
(-2, 2), and h(+-2) = v(+-1) (-1)^m is not 0.  The Sturm sequence of h,
kept over Z by the signed primitive remainder sequence ``polynomial._prs``,
counts the distinct roots of h there.

Imported on first use, by ``braid.gap_from_det`` and by
``polynomial.is_cyclotomic_product``, which by Kronecker's theorem is
``all_on_circle`` on a monic input.
"""

from __future__ import annotations

from .polynomial import IntPoly, _prs, is_reciprocal, poly_gcd


def _divide_unit_roots(f: IntPoly):
    """(k, v): v = f / ((t - 1)^a (t + 1)^b) with v(1) v(-1) != 0, k = a + b."""
    k = 0
    for r in (1, -1):
        while f.degree > 0 and f.evaluate(r) == 0:
            f, k = f.exact_div(IntPoly((-r, 1))), k + 1
    return k, f


def _trace_poly(v: IntPoly):
    """h, ascending, with v(t) = t^m h(t + 1/t), for a palindrome v of
    degree 2m."""
    c, m = v.coeffs, v.degree // 2
    h = [c[m]] + [0] * m
    d_prev, d = [2], [0, 1]
    for k in range(1, m + 1):
        if c[m + k]:
            for i, x in enumerate(d):
                h[i] += c[m + k] * x
        nxt = [0] + d
        for i, x in enumerate(d_prev):
            nxt[i] -= x
        d_prev, d = d, nxt
    return h


def _taylor_shift(a, c):
    """Coefficients of a(y + c)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _may_all_lie_inside(h):
    """False when Descartes' rule proves a root of h outside (-2, 2).

    y = (2 + x) / (2 - x) maps (-2, 2) onto (0, inf), and the d roots of h
    become those of H(y) = (y + 1)^d h(2 - 4 / (y + 1)), of degree d since
    h(2) != 0.  If all d lie in (0, inf), H has d sign variations, so its
    coefficients strictly alternate.  H is h shifted by 2, scaled by
    (-4)^i, reversed and shifted by 1."""
    p = [c * (-4) ** i for i, c in enumerate(_taylor_shift(h, 2))]
    big_h = _taylor_shift(p[::-1], 1)
    return all((x > 0) != (y > 0) and y for x, y in zip(big_h, big_h[1:]))


def _signs_at_2(p):
    """(sign p(-2), sign p(2))."""
    even = sum(c << 2 * j for j, c in enumerate(p[0::2]))
    odd = sum(c << 2 * j + 1 for j, c in enumerate(p[1::2]))
    return (even > odd) - (even < odd), (even > -odd) - (even < -odd)


def _variations(signs):
    signs = [s for s in signs if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _sturm(h):
    """(distinct roots of h in (-2, 2), gcd(h, h') up to a constant), for
    deg h >= 1 and h(+-2) != 0: the sign variations of the Sturm sequence
    at -2 less those at 2; its last member is the gcd."""
    seq = list(_prs(h, [i * c for i, c in enumerate(h)][1:]))
    lo, hi = zip(*map(_signs_at_2, seq))
    return _variations(lo) - _variations(hi), seq[-1]


def circle_count(f: IntPoly) -> int:
    """Number of roots of f on |z| = 1, counted with multiplicity.

    A root of multiplicity j of h is a root of each of h, gcd(h, h'), ...,
    j of them, so summing the Sturm counts down that chain counts it j
    times; each root of h in (-2, 2) stands for two roots of f.

    >>> circle_count(IntPoly((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)))
    8
    """
    if not f:
        raise ValueError("zero polynomial")
    f = IntPoly(f.coeffs[next(i for i, c in enumerate(f.coeffs) if c):])
    if not is_reciprocal(f):
        f = poly_gcd(f, IntPoly(f.coeffs[::-1]))
    count, v = _divide_unit_roots(f)
    h = _trace_poly(v)
    while len(h) > 1:
        n, h = _sturm(h)
        count += 2 * n
    return count


def all_on_circle(f: IntPoly) -> bool:
    """Whether every root of f has modulus 1 (True for a nonzero constant).

    f must be reciprocal up to sign (which excludes the root 0); then every
    root of h lies in (-2, 2) when Descartes' rule does not exclude it and
    the Sturm count of the distinct roots there is deg h - deg gcd(h, h'),
    all of them.
    """
    if not is_reciprocal(f):
        return False
    h = _trace_poly(_divide_unit_roots(f)[1])
    if len(h) == 1:
        return True
    if not _may_all_lie_inside(h):
        return False
    n, g = _sturm(h)
    return n == len(h) - len(g)
