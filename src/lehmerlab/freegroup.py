"""Free-group words, endomorphisms, iterated length growth, the
matrix-to-endomorphism construction and the rank-2 positive-automorphism
descent.

There is one word type: Word is the compressed block word of the engine
(``_blockword.BlockWord``), a freely reduced word stored as power blocks
with arbitrary-precision exponents.  Products, powers, inverses, parsing
and endomorphism application all reduce through the engine's Builder and
stay in block form, so lengths like 2*3^n + 2^n - 2 stay exact at n = 25
without materializing 3^25 letters; ``Word.runs`` spells a word out as
(generator, exponent) runs only when asked.  A configurable budget turns
pathological blowups into clean errors instead of hangs.

Iterated lengths of a positive word under a positive endomorphism (no
inverse letters anywhere, so nothing cancels) skip the engine: with A the
abelianization, one row-vector pass u_n = 1^T A^n gives |phi^n(g_j)| =
u_n[j] for every generator at once, and |phi^n(w)| = u_n . e(w).  That
route builds no words and charges no budget.
"""

from __future__ import annotations

import operator

from ._blockword import (
    BlockWord,
    Budget,
    BudgetError,
    apply_endo_blocks,
    compress_images,
    reduce,
)
from .dynamics import IntMatrix
from .polynomial import _int_arg, _LazyPattern, _Record
from .sequence import DEFAULT_WINDOW, ExactSeq, GrowthReport
from .sequence import _check_report_args
from .sequence import growth_reports as seq_growth_reports

DEFAULT_BUDGET = 10_000_000

__all__ = [
    "BudgetError",
    "Word",
    "Endo",
    "EndoGrowthReport",
    "F2Descent",
    "reduce",
    "apply",
    "compose",
    "iterate_lengths",
    "generator_lengths",
    "growth_report",
    "growth_report_sum",
    "endo_from_matrix",
    "abelianization",
    "positive_f2_aut",
    "nielsen_verify_basis",
    "parse_word",
    "format_word",
    "parse_endo",
    "format_endo",
]


Word = BlockWord


class Endo(_Record):
    """Endomorphism of a free group: the image word of each generator."""

    rank: int
    images: tuple[Word, ...]

    def __init__(self, rank, images):
        rank = _int_arg(rank, "rank")
        if rank < 1:
            raise ValueError("rank must be at least 1")
        if len(images) != rank:
            raise ValueError("need exactly one image per generator")
        if any(w.rank != rank for w in images):
            raise ValueError("image rank mismatch")
        vars(self).update(rank=rank, images=images)

    @classmethod
    def identity(cls, rank: int) -> "Endo":
        return cls(rank, tuple(Word.gen(rank, g) for g in range(1, rank + 1)))

    def image(self, g: int) -> Word:
        return self.images[g - 1]

    def __str__(self):
        return format_endo(self)


def apply(phi: Endo, w: Word, budget: int = DEFAULT_BUDGET) -> Word:
    """Substitute images for generators and reduce, exactly."""
    if phi.rank != w.rank:
        raise ValueError("rank mismatch")
    return apply_endo_blocks(compress_images(phi.images), w, Budget(budget))


def compose(outer: Endo, inner: Endo, budget: int = DEFAULT_BUDGET) -> Endo:
    """outer after inner: g maps to outer(inner(g))."""
    if outer.rank != inner.rank:
        raise ValueError("rank mismatch")
    images = compress_images(outer.images)
    return Endo(
        outer.rank,
        tuple(apply_endo_blocks(images, w, Budget(budget)) for w in inner.images),
    )


def _is_positive(phi: Endo) -> bool:
    return all(u.is_positive() for u in phi.images)


def _length_rows(phi: Endo, n_terms: int) -> list[list[int]]:
    """u_1, ..., u_N with u_n = 1^T A^n, A the abelianization; for a
    positive phi, u_n[j] = |phi^n(g_{j+1})|.  Column j of A is the letter
    count of phi(g_{j+1}), so each step is u <- (u . column_j)_j."""
    columns = [
        [w.exponent_sum(i) for i in range(1, phi.rank + 1)] for w in phi.images
    ]
    u = [1] * phi.rank
    rows = []
    for _ in range(n_terms):
        u = [sum(map(operator.mul, u, col)) for col in columns]
        rows.append(u)
    return rows


def iterate_lengths(
    phi: Endo, g, n_terms: int, budget: int = DEFAULT_BUDGET
) -> ExactSeq:
    """|phi^n(g)| for n = 1..N, exact; g is a generator index or a Word.

    When the start word w and every image are positive (an identity image
    counts), |phi^n(w)| = u_n . e(w), with u_n = 1^T A^n from the row pass
    of ``generator_lengths`` and e(w) the letter counts of w: no words
    built and no budget charged.  Otherwise each phi^n(w) is built in the
    block engine under ``budget``.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    w = g if isinstance(g, Word) else Word.gen(phi.rank, g)
    if w.rank != phi.rank:
        raise ValueError("rank mismatch")
    if w.is_positive() and _is_positive(phi):
        e = [w.exponent_sum(i) for i in range(1, phi.rank + 1)]
        return ExactSeq([sum(map(operator.mul, u, e)) for u in _length_rows(phi, n_terms)])
    return _block_lengths(phi, (w,), n_terms, budget)[0]


def generator_lengths(
    phi: Endo, n_terms: int, budget: int = DEFAULT_BUDGET
) -> tuple[ExactSeq, ...]:
    """iterate_lengths(phi, g, n_terms, budget) for g = 1..rank.

    For a positive phi one row pass u_n = 1^T A^n gives them all, since
    |phi^n(g_j)| = u_n[j]; otherwise each generator is iterated in the
    block engine, with the images compressed once for all of them.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    if _is_positive(phi):
        return tuple(map(ExactSeq, zip(*_length_rows(phi, n_terms))))
    gens = [Word.gen(phi.rank, g) for g in range(1, phi.rank + 1)]
    return _block_lengths(phi, gens, n_terms, budget)


def _block_lengths(phi: Endo, words, n_terms: int, budget: int):
    """|phi^n(w)| for n = 1..N and each start word, built in the block
    engine from images compressed once; each application gets a fresh
    budget."""
    images = compress_images(phi.images)
    seqs = []
    for w in words:
        lengths = []
        for _ in range(n_terms):
            w = apply_endo_blocks(images, w, Budget(budget))
            lengths.append(w.length())
        seqs.append(ExactSeq(lengths))
    return tuple(seqs)


class EndoGrowthReport(_Record):
    """Per-generator growth reports plus the per-k maxima over generators."""

    per_generator: tuple[GrowthReport, ...]
    maxima: tuple[float | None, ...]
    k_max: int

    def best(self, k: int):
        return self.maxima[k]


def _entry_value(entry):
    return entry.exact if entry.exact is not None else entry.estimate


def growth_report(
    phi: Endo,
    k_max: int,
    n_terms: int,
    window: int = DEFAULT_WINDOW,
    d_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> EndoGrowthReport:
    """Generalized growth rates: max over generators of per-length GR^(k)."""
    _check_report_args(k_max, window, d_max)
    reports = seq_growth_reports(
        generator_lengths(phi, n_terms, budget), k_max, window=window, d_max=d_max
    )
    maxima: list[float | None] = []
    for k in range(k_max + 1):
        vals = [
            _entry_value(rep.entry(k))
            for rep in reports
            if _entry_value(rep.entry(k)) is not None
        ]
        maxima.append(max(vals) if vals else None)
    return EndoGrowthReport(reports, tuple(maxima), k_max)


def growth_report_sum(
    phi: Endo,
    k_max: int,
    n_terms: int,
    window: int = DEFAULT_WINDOW,
    d_max: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> GrowthReport:
    """Growth report of the single sequence sum_i |phi^n(g_i)|."""
    _check_report_args(k_max, window, d_max)
    per_gen = [s.ints for s in generator_lengths(phi, n_terms, budget)]
    summed = ExactSeq([sum(col) for col in zip(*per_gen)])
    return seq_growth_reports((summed,), k_max, window=window, d_max=d_max)[0]


def endo_from_matrix(a: IntMatrix) -> Endo:
    """g_i maps to g_1^{a_i1} g_2^{a_i2} ... g_m^{a_im}; entries must be >= 0."""
    if not a.is_nonnegative():
        raise ValueError("endo_from_matrix needs nonnegative entries")
    m = a.dim
    images = []
    for i in range(m):
        runs = tuple((j + 1, a.rows[i][j]) for j in range(m) if a.rows[i][j])
        images.append(Word(m, runs))
    return Endo(m, tuple(images))


def abelianization(phi: Endo) -> IntMatrix:
    """Column j holds the exponent-sum vector of phi(g_j)."""
    m = phi.rank
    return IntMatrix(
        tuple(
            tuple(phi.images[j].exponent_sum(i + 1) for j in range(m))
            for i in range(m)
        )
    )


# ---------------------------------------------------------------------------
# Rank-2 positive automorphisms (continued-fraction descent)


class F2Descent(_Record):
    endo: Endo
    swapped: bool
    ds: tuple[int, ...]
    columns: tuple[tuple[int, int], ...]


def positive_f2_aut(a: IntMatrix) -> F2Descent:
    """Positive automorphism of F_2 whose abelianization is the given matrix.

    Requires nonnegative entries and determinant +-1.  The descent divides
    the two columns like a continued fraction; when neither top-row nor
    bottom-row difference is positive the generators are swapped first
    (recorded in the result).
    """
    if a.dim != 2:
        raise ValueError("positive_f2_aut expects a 2x2 matrix")
    if not a.is_nonnegative():
        raise ValueError("matrix entries must be nonnegative")
    (p0, p1), (q0, q1) = a.rows
    if abs(p0 * q1 - p1 * q0) != 1:
        raise ValueError("matrix must have determinant +1 or -1")
    swapped = False
    if p1 != 0 and q1 != 0 and p0 - p1 <= 0 and q0 - q1 <= 0:
        swapped = True
        p0, p1, q0, q1 = q1, q0, p1, p0
    ps, qs = [p0, p1], [q0, q1]
    ds: list[int] = []
    while ps[-1] != 0 and qs[-1] != 0:
        d = min(ps[-2] // ps[-1], qs[-2] // qs[-1])
        if d < 1:
            raise AssertionError("descent stalled; input was not unimodular")
        ds.append(d)
        ps.append(ps[-2] - d * ps[-1])
        qs.append(qs[-2] - d * qs[-1])
    n = len(ps) - 1
    a_word = Word.gen(2, 1)
    b_word = Word.gen(2, 2)
    u_prev = (a_word ** ps[n]) * (b_word ** qs[n])
    u_cur = (a_word ** ps[n - 1]) * (b_word ** qs[n - 1])
    for k in range(1, n):
        u_prev, u_cur = u_cur, (u_cur ** ds[n - k - 1]) * u_prev
    phi = Endo(2, (u_cur, u_prev))
    if swapped:
        sigma = Endo(2, (Word.gen(2, 2), Word.gen(2, 1)))
        phi = Endo(2, (apply(sigma, phi.images[1]), apply(sigma, phi.images[0])))
    return F2Descent(phi, swapped, tuple(ds), tuple(zip(ps, qs)))


def nielsen_verify_basis(u: Word, v: Word) -> bool:
    """True iff (u, v) is a basis of F_2.  By Nielsen (Math. Ann. 78, 1917)
    that holds exactly when c = u v u^-1 v^-1 is conjugate to [a, b]^(+-1),
    that is, when it cyclically reduces to 4 letters: a commutator has
    exponent sum 0 in each generator, so those are a, a^-1, b, b^-1 with
    no inverse pair adjacent, a rotation of a b a^-1 b^-1 or b a b^-1 a^-1.
    Writing c = p k p^-1 with k cyclically reduced, c c reduces to
    p k^2 p^-1, so |k| = |c c| - |c|: one more product decides it, with no
    search.

    >>> nielsen_verify_basis(parse_word("a b a"), parse_word("a b"))
    True
    >>> nielsen_verify_basis(parse_word("a^2 b"), parse_word("b"))
    False
    """
    if u.rank != 2 or v.rank != 2:
        raise ValueError("basis verification works in rank 2")
    c = u * v * u.inverse() * v.inverse()
    return (c * c).length() - c.length() == 4


# ---------------------------------------------------------------------------
# Text formats


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _gen_name(g: int, rank: int) -> str:
    if rank <= 26:
        return _LETTERS[g - 1]
    return f"g{g}"


_WORD_TOKEN = _LazyPattern(r"([a-z]|g[0-9]+)(?:\^([+-]?[0-9]+))?")


def _parse_gen(token: str) -> int:
    if len(token) == 1 and token in _LETTERS:
        return _LETTERS.index(token) + 1
    if token.startswith("g") and token[1:].isascii() and token[1:].isdigit():
        g = int(token[1:])
        if g >= 1:
            return g
    raise ValueError(f"bad generator name {token!r}")


def _parse_token(tok: str) -> tuple[int, int]:
    """(generator, exponent) of one word token such as b, a^-2 or g12^3."""
    match = _WORD_TOKEN.fullmatch(tok)
    if match is None:
        raise ValueError(
            f"bad word token {tok!r}: expected a letter a-z or g<i>, "
            "optionally followed by ^<e> with e a signed integer"
        )
    name, exp = match.groups()
    return _parse_gen(name), int(exp) if exp else 1


def parse_word(text: str, rank: int | None = None) -> Word:
    """Parse "a^3 b^-2 a"; "1" is the identity.  Rank defaults to the
    largest generator mentioned."""
    tokens = text.split()
    raw = []
    top = 0
    for tok in tokens:
        if tok == "1":
            continue
        g, e = _parse_token(tok)
        raw.append((g, e))
        top = max(top, g)
    if rank is None:
        rank = max(top, 1)
    if top > rank:
        raise ValueError(f"generator index {top} exceeds rank {rank}")
    return reduce(rank, raw)


def format_word(w: Word) -> str:
    if w.is_identity():
        return "1"
    return " ".join(
        _gen_name(g, w.rank) + (f"^{e}" if e != 1 else "")
        for g, e in w.runs
    )


def parse_endo(text: str, rank: int | None = None) -> Endo:
    """Parse "a -> a b a; b -> a b" scripts."""
    rules = [part for part in text.split(";") if part.strip()]
    lhs_list, rhs_list = [], []
    top = 0
    for rule in rules:
        try:
            lhs, rhs = rule.split("->")
        except ValueError as e:
            raise ValueError(f"rule {rule!r} needs a single '->'") from e
        g = _parse_gen(lhs.strip())
        lhs_list.append(g)
        rhs_list.append(rhs.strip())
        top = max(top, g)
    if rank is None:
        rank = max(
            [top]
            + [
                _parse_token(tok)[0]
                for rhs in rhs_list
                for tok in rhs.split()
                if tok != "1"
            ]
        )
    if sorted(lhs_list) != list(range(1, rank + 1)):
        raise ValueError("need exactly one rule per generator 1..rank")
    images: list[Word | None] = [None] * rank
    for g, rhs in zip(lhs_list, rhs_list):
        images[g - 1] = parse_word(rhs, rank)
    return Endo(rank, tuple(images))


def format_endo(phi: Endo, images: list[str] | None = None) -> str:
    """The "a -> ...; b -> ..." text of phi.  images, when given, are the
    format_word texts of phi's images, so a caller that shows them too
    formats each long image once."""
    if images is None:
        images = [format_word(w) for w in phi.images]
    return "; ".join(f"{_gen_name(g, phi.rank)} -> {text}" for g, text in enumerate(images, 1))
