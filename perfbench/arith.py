"""Small exact-arithmetic helpers for the job generator and the oracles.

These are written from the definitions and import nothing from lehmerlab,
so a check built on them is independent of the code it checks.
Polynomials are coefficient lists in ascending order of degree.
"""

import math
from fractions import Fraction
from functools import lru_cache


def trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pdivmod(a, b):
    """Quotient and remainder over Q; b must be nonzero."""
    rem = [Fraction(x) for x in trim(a)]
    b = [Fraction(x) for x in trim(b)]
    quo = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b) and rem:
        q = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quo[shift] = q
        for i, c in enumerate(b):
            rem[shift + i] -= q * c
        rem = trim(rem)
    return quo, rem


def pgcd(a, b):
    """Monic gcd over Q."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return [Fraction(c) / a[-1] for c in a]


def divides(d, f):
    return not pdivmod(f, d)[1]


def peval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


@lru_cache(maxsize=None)
def _cyclotomic(d):
    f = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            q, _ = pdivmod(f, _cyclotomic(e))
            f = [int(c) for c in q]
    return tuple(f)


def cyclotomic(d):
    """Phi_d as (t^d - 1) divided by Phi_e for every proper divisor e of d."""
    return list(_cyclotomic(d))


def _gf_trim(p, m):
    p = [c % m for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def _gf_gcd_degree(a, b, m):
    a, b = _gf_trim(a, m), _gf_trim(b, m)
    while b:
        inv = pow(b[-1], -1, m)
        while len(a) >= len(b) and a:
            q = a[-1] * inv % m
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % m
            a = _gf_trim(a, m)
        a, b = b, a
    return len(a) - 1


def provably_squarefree(f, primes=(3, 5, 7, 11, 13, 17, 19, 23)):
    """True when gcd(f, f') = 1 modulo a prime not dividing the leading term."""
    df = [i * c for i, c in enumerate(f)][1:]
    return any(
        f[-1] % m and _gf_gcd_degree(f, df, m) == 0 for m in primes
    )


def is_palindrome(f):
    return f == f[::-1] or f == [-c for c in f[::-1]]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def row_sums_of_powers(a, n_terms):
    """Row sums of A, A^2, ..., A^N: entry [k][i] is the sum of row i of A^(k+1)."""
    out, p = [], a
    for _ in range(n_terms):
        out.append([sum(row) for row in p])
        p = matmul(p, a)
    return out


def power_traces(a, n_terms):
    out, p = [], a
    for _ in range(n_terms):
        out.append(sum(p[i][i] for i in range(len(p))))
        p = matmul(p, a)
    return out


def newton_sums(monic, n_terms):
    """Power sums of the roots of a monic polynomial (ascending coefficients)."""
    d = len(monic) - 1
    e = monic[::-1]  # e[i] is the coefficient of t^(d-i)
    ps = []
    for k in range(1, n_terms + 1):
        s = -k * e[k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            s -= e[i] * ps[k - i - 1]
        ps.append(s)
    return ps


def moebius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out
