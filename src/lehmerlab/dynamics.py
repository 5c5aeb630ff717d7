"""Trace and Lefschetz sequences of integer matrices, net traces,
cyclotomic padding and Perron/primitivity certification.

All matrix arithmetic is exact over arbitrary-precision integers; power
traces derived from characteristic polynomials go through Newton's
identities, so the two routes can be compared coefficient by coefficient.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .polynomial import DEFAULT_TOL, IntPoly, cyclotomic, euler_phi, poly_det
from .polynomial import roots as poly_roots
from .sequence import ExactSeq


def _entry(v, i: int, j: int) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise ValueError(f"matrix entry [{i}][{j}] = {v!r} is not an integer") from None


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(
            tuple(_entry(v, i, j) for j, v in enumerate(row))
            for i, row in enumerate(self.rows)
        )
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square with dimension >= 1")
        object.__setattr__(self, "rows", rows)

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


@dataclass(frozen=True)
class SignedShiftSystem:
    """Signed collection of square matrices; sizes may differ per term."""

    terms: tuple[tuple[int, IntMatrix], ...]

    def __post_init__(self):
        terms = tuple((int(s), m) for s, m in self.terms)
        if not terms:
            raise ValueError("a signed system needs at least one term")
        if any(s not in (-1, 1) for s, _ in terms):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "terms", terms)


def trace_powers(a: IntMatrix, n_terms: int) -> ExactSeq:
    """tr A^1, ..., tr A^N by iterated multiplication."""
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    out = []
    b = a
    for _ in range(n_terms):
        out.append(b.trace())
        b = b @ a
    return ExactSeq.of(out)


def lefschetz_seq(a: IntMatrix, has_boundary: bool, n_terms: int) -> ExactSeq:
    """L_n = 1 - tr A^n for surfaces with boundary, 2 - tr A^n without."""
    base = 1 if has_boundary else 2
    return ExactSeq.of([base - t for t in trace_powers(a, n_terms).terms])


def signed_trace_seq(system: SignedShiftSystem, n_terms: int) -> ExactSeq:
    """F_n as the signed sum of power traces across the system's matrices."""
    parts = [
        (sign, trace_powers(m, n_terms).terms) for sign, m in system.terms
    ]
    return ExactSeq.of(
        [sum(sign * ts[i] for sign, ts in parts) for i in range(n_terms)]
    )


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


def net_traces(spectrum, n_terms: int) -> list:
    """tr_n = sum over k | n of mu(n/k) tr(Lambda^k), for n = 1..N."""
    ps = _power_traces(spectrum, n_terms)
    out = []
    for n in range(1, n_terms + 1):
        total = 0
        for k in range(1, n + 1):
            if n % k == 0:
                mu = moebius(n // k)
                if mu:
                    total += mu * ps[k - 1]
        out.append(total)
    return out


def net_trace(spectrum, n: int):
    """Single net trace; exact integer when the spectrum is an IntPoly."""
    return net_traces(spectrum, n)[-1]


# ---------------------------------------------------------------------------
# Perron conditions and cyclotomic padding


def _dominant_real(f: IntPoly, tol: float) -> bool:
    """Certified check that one real root strictly dominates all others."""
    if f.degree <= 0:
        return False
    pairs = list(poly_roots(f, tol))
    idx = max(range(len(pairs)), key=lambda i: abs(pairs[i][0]))
    z1, r1 = pairs[idx]
    if abs(z1.imag) > r1:
        return False
    lam = z1.real
    rest = pairs[:idx] + pairs[idx + 1 :]
    return all(lam - r1 > abs(z) + r for z, r in rest)


@dataclass(frozen=True)
class PerronCheck:
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
    if not f.is_monic:
        raise ValueError("perron_check needs a monic polynomial")
    dominant = _dominant_real(f, tol)
    nets = net_traces(f, n_net)
    first_bad = next((i + 1 for i, v in enumerate(nets) if v < 0), None)
    ok_up_to = n_net if first_bad is None else first_bad - 1
    return PerronCheck(
        integer_coeffs=True,
        dominant_real=dominant,
        net_traces_ok_up_to_n=ok_up_to,
        net_traces_checked=n_net,
        first_negative_net=first_bad,
    )


@dataclass(frozen=True)
class PaddingResult:
    phi: IntPoly
    indices: tuple[int, ...]
    net: tuple[int, ...]


def _index_multisets(total: int, bound: int, max_mult: int):
    """Nondecreasing index tuples with phi-degrees summing to total."""

    def gen(min_d, remaining):
        if remaining == 0:
            yield ()
            return
        for d in range(min_d, bound + 1):
            w = euler_phi(d)
            if w > remaining:
                continue
            for rest in gen(d, remaining - w):
                tup = (d,) + rest
                if tup.count(d) <= max_mult:
                    yield tup

    yield from gen(1, total)


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
    lexicographic in the sorted index multiset.  Net traces add over
    disjoint spectra, so each candidate costs one vector sum.  None means
    nothing was found within the search bounds, not a disproof.
    """
    if not _dominant_real(f, tol):
        raise ValueError("cyclotomic padding expects a dominant real root")
    base = net_traces(f, n_net)
    if all(v >= 0 for v in base):
        return PaddingResult(IntPoly((1,)), (), tuple(base))
    vecs = {
        d: net_traces(cyclotomic(d), n_net) for d in range(1, search_bound + 1)
    }
    for total in range(1, max_degree + 1):
        for combo in _index_multisets(total, search_bound, max_mult):
            padded = list(base)
            for d in combo:
                v = vecs[d]
                for i in range(n_net):
                    padded[i] += v[i]
            if all(x >= 0 for x in padded):
                phi = IntPoly((1,))
                for d in combo:
                    phi = phi * cyclotomic(d)
                return PaddingResult(phi, combo, tuple(padded))
    return None


# ---------------------------------------------------------------------------
# Primitivity and characteristic polynomials


def primitivity(a: IntMatrix) -> bool:
    """True iff some power A^N is entrywise positive, N <= (m-1)^2 + 1."""
    if not a.is_nonnegative():
        raise ValueError("primitivity is defined for nonnegative matrices")
    m = a.dim
    full = (1 << m) - 1
    adj = [
        sum(1 << j for j, v in enumerate(row) if v > 0) for row in a.rows
    ]
    cur = list(adj)
    bound = (m - 1) ** 2 + 1
    for _ in range(bound):
        if all(mask == full for mask in cur):
            return True
        cur = [_or_rows(adj, mask) for mask in cur]
    return False


def _or_rows(adj, mask):
    out = 0
    j = 0
    while mask:
        if mask & 1:
            out |= adj[j]
        mask >>= 1
        j += 1
    return out


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


def _valuation(f: IntPoly) -> int:
    for i, c in enumerate(f.coeffs):
        if c != 0:
            return i
    return 0


def verify_kor_instance(a: IntMatrix, p: IntPoly, phi: IntPoly) -> bool:
    """True iff A is primitive and char(A) == t^l * p * Phi for some l >= 0."""
    if not a.is_nonnegative():
        raise ValueError("expected a nonnegative matrix")
    c = char_poly(a)
    target = p * phi
    if target.degree < 0 or not target.coeffs:
        return False
    vc, vt = _valuation(c), _valuation(target)
    if vc < vt:
        return False
    if IntPoly(c.coeffs[vc:]) != IntPoly(target.coeffs[vt:]):
        return False
    return primitivity(a)


def parse_matrix(text: str) -> IntMatrix:
    """JSON array of arrays of integers, e.g. "[[0,1],[1,1]]"."""
    import json

    data = json.loads(text)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix must be a JSON array of arrays")
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            if type(v) is not int:
                raise ValueError(f"matrix entry [{i}][{j}] = {json.dumps(v)} is not an integer")
    return IntMatrix(tuple(tuple(row) for row in data))
