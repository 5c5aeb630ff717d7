"""Trace and Lefschetz sequences of integer matrices, net traces,
cyclotomic padding and Perron/primitivity certification.

All matrix arithmetic is exact over arbitrary-precision integers.  Power
traces tr A^n come from the characteristic polynomial through Newton's
identities, with no power of A formed.
"""

from __future__ import annotations

from math import gcd, prod

from .polynomial import (
    DEFAULT_TOL, IntPoly, _int_arg, _int_list, _Record, cyclotomic, euler_phi, poly_det,
)
from .polynomial import roots as poly_roots
from .sequence import ExactSeq


class IntMatrix(_Record):
    """Square integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows):
        rows = tuple(
            tuple(_int_list(row, f"matrix entry [{i}][{{}}]"))
            for i, row in enumerate(rows)
        )
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square with dimension >= 1")
        vars(self)["rows"] = rows

    @classmethod
    def identity(cls, m: int) -> "IntMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(m)) for i in range(m)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def power(self, k: int) -> "IntMatrix":
        if k < 0:
            raise ValueError("negative matrix powers are not defined here")
        result = IntMatrix.identity(self.dim)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.dim))

    def is_nonnegative(self) -> bool:
        return all(v >= 0 for row in self.rows for v in row)


class SignedShiftSystem(_Record):
    """Signed collection of square matrices; sizes may differ per term."""

    terms: tuple[tuple[int, IntMatrix], ...]

    def __init__(self, terms):
        terms = tuple((_int_arg(s, "sign"), m) for s, m in terms)
        if not terms:
            raise ValueError("a signed system needs at least one term")
        if any(s not in (-1, 1) for s, _ in terms):
            raise ValueError("signs must be +1 or -1")
        vars(self)["terms"] = terms


def trace_powers(a: IntMatrix | IntPoly, n_terms: int) -> ExactSeq:
    """tr A^1, ..., tr A^N as the Newton power sums of char_poly(a).

    tr A^k is the k-th power sum of the eigenvalues of A, with
    multiplicity, so no power of A is formed: one characteristic
    polynomial, then O(dim) integer operations per term.  ``a`` may be
    that polynomial itself, for a caller that already holds it.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    char = a if isinstance(a, IntPoly) else char_poly(a)
    return ExactSeq(newton_power_sums(char, n_terms))


def lefschetz_seq(
    a: IntMatrix | IntPoly, has_boundary: bool, n_terms: int
) -> ExactSeq:
    """L_n = 1 - tr A^n for surfaces with boundary, 2 - tr A^n without;
    ``a`` is A or its characteristic polynomial, as for ``trace_powers``."""
    base = 1 if has_boundary else 2
    return ExactSeq([base - t for t in trace_powers(a, n_terms).ints])


def signed_trace_seq(system: SignedShiftSystem, n_terms: int) -> ExactSeq:
    """F_n as the signed sum of power traces across the system's matrices."""
    parts = [(sign, trace_powers(m, n_terms).ints) for sign, m in system.terms]
    return ExactSeq([sum(sign * ts[i] for sign, ts in parts) for i in range(n_terms)])


def moebius(n: int) -> int:
    """Standard Mobius function by trial factorization."""
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1 if p == 2 else 2
    if n > 1:
        result = -result
    return result


def newton_power_sums(f: IntPoly, n_terms: int) -> list[int]:
    """Power sums p_k of the roots of a monic f, exactly, for k = 1..N."""
    if not f.is_monic:
        raise ValueError("power sums need a monic polynomial")
    d = f.degree
    a = f.coeffs
    ps: list[int] = []
    for k in range(1, n_terms + 1):
        if k <= d:
            s = -k * a[d - k]
            for i in range(1, k):
                s -= a[d - i] * ps[k - i - 1]
        else:
            s = 0
            for i in range(1, d + 1):
                s -= a[d - i] * ps[k - i - 1]
        ps.append(s)
    return ps


def _power_traces(spectrum, n_terms: int):
    """Power sums for a spectrum given as an IntPoly or explicit numbers."""
    if isinstance(spectrum, IntPoly):
        return newton_power_sums(spectrum, n_terms)
    vals = list(spectrum)
    return [sum(z**k for z in vals) for k in range(1, n_terms + 1)]


def _moebius_table(n: int) -> list[int]:
    """[0, mu(1), ..., mu(n)] by the sieve of Eratosthenes: each prime p
    flips the sign at its multiples and zeroes the multiples of p^2."""
    mu = [0] + [1] * n
    composite = bytearray(n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            composite[p::p] = bytes([1]) * (n // p)
            mu[p::p] = [-v for v in mu[p::p]]
            mu[p * p :: p * p] = [0] * (n // (p * p))
    return mu


def net_traces(spectrum, n_terms: int) -> list:
    """tr_n = sum over k | n of mu(n/k) tr(Lambda^k), for n = 1..N.

    Each tr(Lambda^k) is added at the multiples n = m k with mu(m) != 0, k
    ascending, so every tr_n sums its terms in the order of its divisors.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    ps = _power_traces(spectrum, n_terms)
    mu = _moebius_table(n_terms)
    out = [0] * n_terms
    for k, pk in enumerate(ps, 1):
        for m in range(1, n_terms // k + 1):
            if mu[m]:
                out[m * k - 1] += mu[m] * pk
    return out


def net_trace(spectrum, n: int):
    """Single net trace; exact integer when the spectrum is an IntPoly."""
    return net_traces(spectrum, n)[-1]


# ---------------------------------------------------------------------------
# Perron conditions and cyclotomic padding


def _dominant_real(f: IntPoly, tol: float) -> bool:
    """Certified check that one real, positive root strictly dominates all
    others: the first root in ``roots`` order has the largest modulus.
    Positivity is checked on its own, since at degree 1 there is no other
    root to force it."""
    if f.degree <= 0:
        return False
    (z1, r1), *rest = poly_roots(f, tol)
    if abs(z1.imag) > r1 or z1.real - r1 <= 0:
        return False
    return all(z1.real - r1 > abs(z) + r for z, r in rest)


class PerronCheck(_Record):
    integer_coeffs: bool
    dominant_real: bool
    net_traces_ok_up_to_n: int
    net_traces_checked: int
    first_negative_net: int | None

    @property
    def is_perron_candidate(self) -> bool:
        return (
            self.integer_coeffs
            and self.dominant_real
            and self.net_traces_ok_up_to_n == self.net_traces_checked
        )


def perron_check(f: IntPoly, n_net: int = 50, tol: float = DEFAULT_TOL) -> PerronCheck:
    """The three synthesis conditions, reported separately.

    Integer coefficients hold by construction for IntPoly input; the
    dominant-real condition is certified from root enclosures; nonnegative
    net traces are only ever checked on the finite prefix n <= n_net.
    """
    if n_net < 1:
        raise ValueError("need n_net >= 1")
    if not f.is_monic:
        raise ValueError("perron_check needs a monic polynomial")
    dominant = _dominant_real(f, tol)
    nets = net_traces(f, n_net)
    first_bad = next((i + 1 for i, v in enumerate(nets) if v < 0), None)
    ok_up_to = n_net if first_bad is None else first_bad - 1
    return PerronCheck(True, dominant, ok_up_to, n_net, first_bad)


class PaddingResult(_Record):
    phi: IntPoly
    indices: tuple[int, ...]
    net: tuple[int, ...]


def cyclotomic_padding(
    f: IntPoly,
    n_net: int = 50,
    search_bound: int = 24,
    max_degree: int = 12,
    max_mult: int = 3,
    tol: float = DEFAULT_TOL,
) -> PaddingResult | None:
    """First cyclotomic product making all net traces of f*Phi nonnegative.

    Enumeration is deterministic: increasing total degree, then
    lexicographic in the sorted index multiset, at most max_mult copies of
    an index.  Net traces add over products, and net_n(Phi_d) = n mu(d/n)
    if n | d, else 0: t^e - 1 = prod_{d | e} Phi_d has net_n = e [n = e],
    a cyclic permutation of e points, and Moebius inversion over the
    divisors of d gives the form.  So each candidate's vector is its
    parent's plus n mu(d/n) at the divisors n of its last index d, one
    vector sum per candidate.  No index d <= search_bound moves a net_n
    with n > search_bound, so a negative one there returns None at once.
    None means nothing was found within the search bounds, not a disproof;
    a bound below 1 or a non-monic f raises ValueError before any root work.
    """
    for name, bound in (("n_net", n_net), ("search_bound", search_bound),
                        ("max_degree", max_degree), ("max_mult", max_mult)):
        if bound < 1:
            raise ValueError(f"need {name} >= 1")
    if not f.is_monic:
        raise ValueError("cyclotomic_padding needs a monic polynomial")
    if not _dominant_real(f, tol):
        raise ValueError("cyclotomic padding expects a dominant real root")
    base = net_traces(f, n_net)
    if all(v >= 0 for v in base):
        return PaddingResult(IntPoly((1,)), (), tuple(base))
    head, tail = base[:search_bound], tuple(base[search_bound:])
    if any(v < 0 for v in tail):
        return None
    mu = _moebius_table(search_bound)
    steps = [
        (d, euler_phi(d), [(n - 1, n * mu[d // n]) for n in range(1, min(d, n_net) + 1)
                           if d % n == 0 and mu[d // n]])
        for d in range(1, search_bound + 1)
    ]

    def first(indices, net, low, degree):
        """The first (indices + rest, net traces) with all traces >= 0, rest
        nondecreasing from index low with phi-degrees summing to degree,
        in lexicographic order; None if there is none."""
        for d, w, step in steps[low - 1 :]:
            if w > degree or indices.count(d) == max_mult:
                continue
            padded = list(net)
            for i, v in step:
                padded[i] += v
            if w < degree:
                hit = first(indices + (d,), padded, d, degree - w)
                if hit:
                    return hit
            elif all(x >= 0 for x in padded):
                return indices + (d,), padded
        return None

    for total in range(1, max_degree + 1):
        hit = first((), head, 1, total)
        if hit:
            phi = prod((cyclotomic(d) for d in hit[0]), start=IntPoly((1,)))
            return PaddingResult(phi, hit[0], tuple(hit[1]) + tail)
    return None


# ---------------------------------------------------------------------------
# Primitivity and characteristic polynomials


def primitivity(a: IntMatrix) -> bool:
    """True iff A is primitive: its graph, u -> v where a_uv > 0, is
    strongly connected with period 1.

    With l the breadth-first levels from vertex 0, the period is the gcd g
    over the edges u -> v of l(u) + 1 - l(v).  On a cycle the terms
    telescope to its length, so g divides the period; each term is the
    difference of two walk lengths from 0 to v, so the period divides g.
    O(m^2) in all.  A 1x1 zero matrix has no edge, so g = gcd() = 0.
    """
    if not a.is_nonnegative():
        raise ValueError("primitivity is defined for nonnegative matrices")
    succ = [[v for v, x in enumerate(row) if x > 0] for row in a.rows]
    pred = [[u for u, x in enumerate(col) if x > 0] for col in zip(*a.rows)]
    level = _levels(succ)
    if len(level) < a.dim or len(_levels(pred)) < a.dim:
        return False
    return gcd(*(level[u] + 1 - level[v] for u, vs in enumerate(succ) for v in vs)) == 1


def _levels(succ) -> dict[int, int]:
    """Breadth-first level of each vertex reached from vertex 0."""
    level = {0: 0}
    queue = [0]
    for u in queue:
        for v in succ[u]:
            if v not in level:
                level[v] = level[u] + 1
                queue.append(v)
    return level


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic det(tI - A), exact (one Kronecker-substituted determinant)."""
    return poly_det([[IntPoly((-v, int(i == j))) for j, v in enumerate(row)]
                     for i, row in enumerate(a.rows)])


def companion_matrix(f: IntPoly) -> IntMatrix:
    """Matrix whose characteristic polynomial is the monic f."""
    if not f.is_monic or f.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial, degree >= 1")
    d = f.degree
    rows = [
        [int(j == i - 1) for j in range(d - 1)] + [-f.coeffs[i]]
        for i in range(d)
    ]
    return IntMatrix(tuple(tuple(r) for r in rows))


def verify_kor_instance(a: IntMatrix, p: IntPoly, phi: IntPoly) -> bool:
    """True iff A is primitive and char(A) == t^l * p * Phi, where
    l = deg char(A) - deg(p * Phi) >= 0."""
    if not a.is_nonnegative():
        raise ValueError("expected a nonnegative matrix")
    c = char_poly(a)
    target = p * phi
    l = c.degree - target.degree
    return bool(target) and l >= 0 and c == target.shifted(l) and primitivity(a)


def parse_matrix(text: str) -> IntMatrix:
    """JSON array of arrays of integers, e.g. "[[0,1],[1,1]]"."""
    import json

    try:
        data = json.loads(text)
    except RecursionError:  # nested past json's limit: not an array of arrays
        data = None
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix must be a JSON array of arrays")
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            if type(v) is not int:
                raise ValueError(f"matrix entry [{i}][{j}] = {json.dumps(v)} is not an integer")
    return IntMatrix(tuple(tuple(row) for row in data))
