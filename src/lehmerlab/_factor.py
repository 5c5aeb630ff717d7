"""Factoring over Z/p and Z/p^k behind polynomial.irreducibility_certificate.

A squarefree proof at one of the first two witness primes (else one Yun
decomposition), Musser's degree sets from one Frobenius matrix per prime, a
Berlekamp split, and Zassenhaus recombination over a Hensel tree lifted only
as far as the degree being tried needs.  Polynomials over Z/m are lists of
residues in [0, m), ascending, with no high zeros; every Z/m routine is here.
Products over Z/m are one integer product by Kronecker substitution, and
the Frobenius matrix comes by doubling in whole-array products.  Imported on
first use, with numpy only by the Frobenius and Berlekamp steps.
"""

from __future__ import annotations

import math

from . import polynomial  # squarefree_decomposition, read at call time
from .polynomial import IntPoly, IrreducibilityCertificate, _pack, _unpack

# Primes scanned in order by certify, which stops after _MUSSER_PRIMES of
# them that leave f squarefree: that bounds its cost only.
_WITNESS_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                   53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MUSSER_PRIMES = 5


def _scan_primes():
    """_WITNESS_PRIMES, then every larger prime."""
    yield from _WITNESS_PRIMES
    q = _WITNESS_PRIMES[-1]
    while True:
        q += 2
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _zm(a, m):
    out = [v % m for v in a]
    while out and out[-1] == 0:
        out.pop()
    return out


def _zm_divmod(a, b, m):
    """Quotient and remainder of a by b mod m, for lc(b) a unit mod m."""
    inv = pow(b[-1], -1, m)
    r, db = list(a), len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r.pop() * inv % m
        if c:
            r[k : k + db] = [x - c * y for x, y in zip(r[k : k + db], b)]
    return q, _zm(r, m)


def _monic(a, m):
    inv = pow(a[-1], -1, m)
    return [v * inv % m for v in a]


def _gf_gcd(a, b, p):
    """Monic gcd of a and b mod the prime p ([] when both vanish).

    Each Euclid step reduces the dividend by the divisor in place, one
    pass over its top coefficients, with no quotient kept.
    """
    a, b = _zm(a, p), _zm(b, p)
    while b:
        inv, db = pow(b[-1], -1, p), len(b) - 1
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k] * inv % p
            if c:
                a[k - db : k] = [(x - c * y) % p for x, y in zip(a[k - db : k], b)]
        del a[db:]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return _monic(a, p) if a else a


def _zm_lin(a, b, m, c=1):
    """a + c*b mod m."""
    out = list(a) + [0] * (len(b) - len(a))
    for i, v in enumerate(b):
        out[i] += c * v
    return _zm(out, m)


def _zm_mul(a, b, m):
    """a b mod m, for residues in [0, m), by Kronecker substitution: every
    coefficient of the product over Z is at most min(len a, len b) (m - 1)^2,
    so with one spare bit it is a nonnegative digit below 2^(8w - 1), and
    one integer product packed at 2^(8w) gives them all (``_pack``,
    ``_unpack``)."""
    if not a or not b:
        return []
    w = (min(len(a), len(b)) * (m - 1) ** 2).bit_length() // 8 + 1
    low, digits = _unpack(_pack(a, w) * _pack(b, w), w)
    return _zm([0] * low + digits, m)


def _zm_prod(polys, m):
    out = [1]
    for u in polys:
        out = _zm_mul(out, u, m)
    return out


def _gf_bezout(g, h, p):
    """s, t with s g + t h = 1 mod p, deg s < deg h and deg t < deg g, for
    coprime monic g and h.  Extended Euclid keeps r = s g mod h, and the
    last nonzero remainder is a constant."""
    r0, r1, s0, s1 = g, h, [1], []
    while r1:
        q, r = _zm_divmod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _zm_lin(s0, _zm_mul(q, s1, p), p, -1)
    inv = pow(r0[0], -1, p)
    s = _zm_divmod([v * inv % p for v in s0], h, p)[1]
    t = _zm_divmod(_zm_lin([1], _zm_mul(s, g, p), p, -1), h, p)[0]
    return s, t


def _x_powers(fm, p):
    """Rows x^j mod f for j < 2n, of monic f mod p of degree n, as int64: the
    identity, then x^(n + j + k) = x^(n + j) x^k for j < k by doubling, a
    shift by k with the overflow reduced by the rows of x^n .. x^(n+k-1).
    Rows n .. 2n - 2 reduce any product of two residues.  Entries stay
    below p and each product sums at most n of them times one below p, so
    every sum here and in the callers stays below n p^2, far inside int64.
    """
    import numpy as np

    n = len(fm) - 1
    t = np.zeros((2 * n, n), dtype=np.int64)
    t[:n] = np.eye(n, dtype=np.int64)
    t[n] = -np.array(fm[:n], dtype=np.int64) % p
    high, k = t[n:], 1
    while k < n:
        block, out = high[: min(k, n - k)], high[k : 2 * k]
        out[:, k:] = block[:, : n - k]
        out += block[:, n - k :] @ high[:k]
        out %= p
        k *= 2
    return t


def _frobenius_matrix(t, p):
    """Berlekamp's matrix of monic f mod p, from its ``_x_powers`` table t:
    row i holds x^(i p) mod f.

    By doubling, in whole-array products: rows k+1 .. 2k are rows 1 .. k
    times row k.  A block of residues times one residue g is the block
    times the Toeplitz matrix of g (one row per shift, from one gather),
    whose columns of degree >= n reduce with one product by rows n .. 2n-2
    of t.  x^p is row p of t for p < 2n, else comes by repeated squaring.
    """
    import numpy as np

    n = t.shape[1]
    shifts = np.arange(n - 1, -1, -1)[:, None] + np.arange(2 * n - 1)
    pad = np.zeros(n - 1, dtype=np.int64)

    def mulmod(rows, g):
        c = rows @ np.concatenate((pad, g, pad))[shifts] % p
        return (c[..., :n] + c[..., n:] @ t[n:-1]) % p

    q = t[:n].copy()
    if p < 2 * n:  # never for n = 1, as p >= 2
        q[1] = t[p]
    elif n > 1:
        xp = t[1]
        for bit in bin(p)[3:]:
            xp = mulmod(xp, xp)
            if bit == "1":
                xp = mulmod(xp, t[1])
        q[1] = xp
    k = 1
    while k + 1 < n:
        q[k + 1 : 2 * k + 1] = mulmod(q[1 : min(k, n - 1 - k) + 1], q[k])
        k *= 2
    return q


def _distinct_degree(fm, q, t, p):
    """[(d, product of the degree-d factors)] of squarefree monic f mod p,
    d ascending, from Berlekamp's matrix q and the ``_x_powers`` table t.

    x^(p^d) mod f is x^(p^(d-1)) times q, and a factor of degree e divides
    x^(p^d) - x exactly when e | d.  So one gcd of f with the product of
    x^(p^d) - x over d <= n/2 (products reduced by t) is g, the product of
    the factors of degree <= n/2, and f / g has at most one factor.  The
    degree-d part is gcd(x^(p^d) - x, what is left of g), for d ascending
    while 2d is at most the degree of what is left, which then has at most
    one factor.  Most gcds thus take a g of small degree, not f.
    """
    import numpy as np

    n = len(fm) - 1
    v, prod, steps = t[1], t[0], []
    for _ in range(n // 2):
        v = v @ q % p
        step = v.copy()
        step[1] = (step[1] - 1) % p
        steps.append(step.tolist())
        c = np.convolve(prod, step) % p
        prod = (c[:n] + c[n:] @ t[n:-1]) % p
    g = _gf_gcd(fm, prod.tolist(), p)
    parts, h, d = [], g, 0
    while 2 * (d + 1) <= len(h) - 1:
        d += 1
        part = _gf_gcd(h, steps[d - 1], p)
        if len(part) > 1:
            parts.append((d, part))
            h = _zm_divmod(h, part, p)[0]
    rest = _zm_divmod(fm, g, p)[0]
    return parts + [(len(u) - 1, u) for u in (h, rest) if len(u) > 1]


def _berlekamp_basis(q, p):
    """A basis of {v : v Q = v mod p}, Berlekamp's subalgebra, by Gaussian
    elimination of (Q - I)^T."""
    import numpy as np

    n = len(q)
    a = (q - np.eye(n, dtype=np.int64)).T % p
    pivots = []
    for c in range(n):
        r = len(pivots)
        nz = np.flatnonzero(a[r:, c])
        if not len(nz):
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
    basis = []
    for c in sorted(set(range(n)) - set(pivots)):
        v = [0] * n
        v[c] = 1
        for r, pc in enumerate(pivots):
            v[pc] = int(-a[r, c] % p)
        basis.append(_zm(v, p))
    return basis


def _gf_factors(parts, basis, p):
    """The monic irreducible factors mod p, sorted.  A distinct-degree part
    u is the product of gcd(u, v - s) over s mod p for every v in
    Berlekamp's subalgebra, and some v separates any two of its factors."""
    out = []
    for d, g in parts:
        facs = [g]
        for v in basis:
            if len(facs) * d == len(g) - 1:
                break
            split = []
            for u in facs:
                if len(u) - 1 == d:
                    split.append(u)
                    continue
                w, left = _zm_divmod(v, u, p)[1], len(u) - 1
                for s in range(p):
                    c = _gf_gcd(u, _zm_lin(w, [s], p, -1), p)
                    if len(c) > 1:
                        split.append(c)
                        left -= len(c) - 1
                        if not left:
                            break
            facs = split
        out += facs
    return sorted(out, key=lambda u: (len(u), u))


def _hensel_step(f, g, h, s, t, m):
    """f = g h and s g + t h = 1 mod m, lifted to mod m^2 (von zur Gathen
    and Gerhard, Modern Computer Algebra, Alg. 15.10; h stays monic)."""
    m *= m
    e = _zm_lin(f, _zm_mul(g, h, m), m, -1)
    q, r = _zm_divmod(_zm_mul(s, e, m), h, m)
    g = _zm_lin(_zm_lin(g, _zm_mul(t, e, m), m), _zm_mul(q, g, m), m)
    h = _zm_lin(h, r, m)
    b = _zm_lin(_zm_lin(_zm_mul(s, g, m), _zm_mul(t, h, m), m), [1], m, -1)
    c, d = _zm_divmod(_zm_mul(s, b, m), h, m)
    s = _zm_lin(s, d, m, -1)
    t = _zm_lin(_zm_lin(t, _zm_mul(t, b, m), m, -1), _zm_mul(c, g, m), m, -1)
    return g, h, s, t


def _hensel_tree(facs, p):
    """The factor tree of the pairwise coprime monic facs mod p (von zur
    Gathen and Gerhard, Alg. 15.17): [u] for one factor u, else
    [g, h, s, t, left, right], g and h the products of the two halves,
    s g + t h = 1 mod p, and left and right the halves' trees."""
    if len(facs) == 1:
        return [facs[0]]
    k = len(facs) // 2
    g, h = _zm_prod(facs[:k], p), _zm_prod(facs[k:], p)
    return [g, h, *_gf_bezout(g, h, p), _hensel_tree(facs[:k], p), _hensel_tree(facs[k:], p)]


def _lift_tree(f, node, m):
    """One quadratic Hensel step, in place, of the tree node of f mod m,
    for f monic mod m^2: its leaves then multiply to f mod m^2."""
    if len(node) == 1:
        node[0] = f
        return
    node[:4] = _hensel_step(f, *node[:4], m)
    _lift_tree(node[0], node[4], m)
    _lift_tree(node[1], node[5], m)


def _leaves(node):
    return [node[0]] if len(node) == 1 else _leaves(node[4]) + _leaves(node[5])


def _subsets(degs, total, start=0):
    """Index tuples, ascending, of the entries of degs that sum to total."""
    if total == 0:
        yield ()
        return
    for i in range(start, len(degs)):
        if degs[i] <= total:
            for rest in _subsets(degs, total - degs[i], i + 1):
                yield (i,) + rest


def _mignotte_bound(f: IntPoly, d: int) -> int:
    norm = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return math.comb(d, d // 2) * norm * abs(f.leading)


def _zassenhaus(f, degset, p, facs):
    """Zassenhaus's recombination (J. Number Theory 1, 1969) of the factors
    of f mod p.  Before the subsets of each total t the factor tree is
    lifted, one quadratic step at a time, only until the modulus passes
    twice |lc| times the Mignotte bound for degree t (von zur Gathen and
    Gerhard, §15.6): a factor of degree t, times lc(f)/lc(g), has its
    coefficients below that bound over 2."""
    n, lc, f0 = f.degree, f.leading, f.coeffs[0]
    tree, big, lifted = _hensel_tree(facs, p), p, facs
    degs = [len(u) - 1 for u in facs]
    for total in range(1, n // 2 + 1):
        if not degset >> total & 1:
            continue
        bound = 2 * abs(lc) * _mignotte_bound(f, total)
        while big <= bound:
            m, big = big, big * big
            inv = pow(lc, -1, big)
            _lift_tree([c * inv % big for c in f.coeffs], tree, m)
            lifted = _leaves(tree)
        for subset in _subsets(degs, total):
            # lc(f)/lc(g) * g(0) divides lc(f) * f(0) for a true factor g.
            c0 = lc * math.prod(lifted[i][0] for i in subset) % big
            c0 -= big if 2 * c0 > big else 0
            if lc * f0 and (not c0 or lc * f0 % c0):
                continue
            g = [lc * c % big for c in _zm_prod([lifted[i] for i in subset], big)]
            g = IntPoly(tuple(c - big if 2 * c > big else c for c in g)).primitive_part()
            if f.try_div(g) is not None:
                return IrreducibilityCertificate("reducible", None, -g if g.leading < 0 else g)
    return IrreducibilityCertificate("irreducible", p, None)


def certify(f: IntPoly) -> IrreducibilityCertificate:
    """irreducibility_certificate for a primitive f.

    A prime p not dividing lc(f) with gcd(f, f') = 1 mod p proves f
    squarefree over Z: a square factor g^2 of f keeps its degree mod p, as
    lc(g) divides lc(f), so g mod p would divide that gcd.  Yun runs only
    when the first two such primes both leave f not squarefree mod p, and
    only once.
    """
    n, df = f.degree, f.derivative().coeffs
    degset, best, usable, misses = (1 << n + 1) - 1, None, 0, 0
    for p in _scan_primes():
        if f.leading % p == 0:
            continue
        fm = _monic(_zm(f.coeffs, p), p)
        if len(_gf_gcd(fm, df, p)) > 1:
            misses += 1
            if misses == 2 and not usable:
                for g, mult in polynomial.squarefree_decomposition(f)[1]:
                    if mult > 1:
                        return IrreducibilityCertificate("reducible", None, g)
            continue
        t = _x_powers(fm, p)
        q = _frobenius_matrix(t, p)
        parts = _distinct_degree(fm, q, t, p)
        sums = 1
        for d, g in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        degset &= sums
        if degset == 1 | 1 << n:
            return IrreducibilityCertificate("irreducible", p, None)
        count = sum((len(g) - 1) // d for d, g in parts)
        if best is None or count < best[0]:
            best = (count, p, q, parts)
        usable += 1
        if usable == _MUSSER_PRIMES:
            break
    _, p, q, parts = best
    return _zassenhaus(f, degset, p, _gf_factors(parts, _berlekamp_basis(q, p), p))
