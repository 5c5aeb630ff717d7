"""Exact compressed words: the one word type of the free-group layer.

Letters are nonzero ints (+g for a generator, -g for its inverse).  A word
is a tuple of blocks (base, exp), each standing for base repeated exp
times; multi-letter bases always have exp >= 2 and are cyclically reduced,
so concatenating a block with itself never cancels.  Every word is freely
reduced, and every reduction goes through one routine, Builder.push_block,
for bases of every length (a letter is a one-letter block): letter by
letter at block seams, with whole-block shortcuts when bases match or are
exact inverses.  Cyclic reduction does too: a reduced u is p c p^-1 with c
cyclically reduced, and u u reduces to p c^2 p^-1 (Lyndon and Schupp,
Combinatorial Group Theory, I.1), so the lengths of one Builder product
locate p and c.  A shared budget bounds the engine's work and storage so
that pathological inputs fail loudly instead of hanging.
"""

from __future__ import annotations

import math
from itertools import chain

from .polynomial import _int_arg

COMPRESS_CAP = 512


class BudgetError(Exception):
    """Word iteration exceeded the configured storage/work budget."""


class Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.limit:
            raise BudgetError(f"budget of {self.limit} operations exceeded")


def inverse_base(base):
    return tuple(-x for x in reversed(base))


def _run_blocks(rank: int, runs):
    """The rank as an int, and the single-letter blocks of (generator,
    exponent) runs checked against it; zero exponents give (x,) with exp 0."""
    rank = _int_arg(rank, "rank")
    if rank < 1:
        raise ValueError("rank must be at least 1")
    blocks = []
    for g, e in runs:
        g, e = _int_arg(g, "generator"), _int_arg(e, "exponent")
        if not 1 <= g <= rank:
            raise ValueError(f"generator {g} outside 1..{rank}")
        blocks.append(((g if e > 0 else -g,), abs(e)))
    return rank, blocks


class BlockWord:
    """Immutable freely reduced word in the free group of the given rank.

    ``BlockWord(rank, runs)`` validates a reduced list of (generator
    index 1..rank, exponent != 0) runs; engine results come from the
    trusted ``from_blocks``.  ``runs`` is that run list, expanded on demand.
    """

    __slots__ = ("rank", "blocks")

    def __init__(self, rank: int, runs):
        rank, blocks = _run_blocks(rank, runs)
        if any(e == 0 for _, e in blocks):
            raise ValueError("zero exponents are not reduced")
        if any(abs(u[0]) == abs(v[0]) for (u, _), (v, _) in zip(blocks, blocks[1:])):
            raise ValueError("adjacent runs with equal generators")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_blocks(cls, rank: int, blocks) -> BlockWord:
        """Trusted constructor: blocks already hold the Builder invariant."""
        w = object.__new__(cls)
        object.__setattr__(w, "rank", rank)
        object.__setattr__(w, "blocks", blocks)
        return w

    @classmethod
    def from_letters(cls, rank: int, letters) -> BlockWord:
        b = Builder()
        for x in letters:
            b.push_block((x,), 1)
        return b.result(rank)

    @classmethod
    def empty(cls, rank: int) -> BlockWord:
        return cls(rank, ())

    @classmethod
    def gen(cls, rank: int, g: int, e: int = 1) -> BlockWord:
        return cls(rank, ((g, e),))

    def __setattr__(self, name, value):
        raise AttributeError("words are immutable")

    def __reduce__(self):
        return BlockWord.from_blocks, (self.rank, self.blocks)

    def length(self) -> int:
        return sum(e * len(b) for b, e in self.blocks)

    def count_gen(self, g: int) -> int:
        """Occurrences of g or g^-1 in the reduced word."""
        return sum(
            e * sum(1 for x in b if abs(x) == g) for b, e in self.blocks
        )

    def exponent_sum(self, g: int) -> int:
        return sum(
            e * sum(1 if x == g else -1 for x in b if abs(x) == g)
            for b, e in self.blocks
        )

    def is_identity(self) -> bool:
        return not self.blocks

    def is_positive(self) -> bool:
        return all(x > 0 for b, _ in self.blocks for x in b)

    def flatten(self) -> list[int]:
        return [x for base, e in self.blocks for x in base * e]

    def to_runs(self) -> tuple[tuple[int, int], ...]:
        """Signed (generator, exponent) runs; expands multi-letter blocks."""
        runs: list[list[int]] = []
        for base, e in self.blocks:
            pairs = ((base[0], e),) if len(base) == 1 else ((x, 1) for x in base * e)
            for x, c in pairs:
                if runs and runs[-1][0] == abs(x):
                    runs[-1][1] += c if x > 0 else -c
                else:
                    runs.append([abs(x), c if x > 0 else -c])
        return tuple((g, e) for g, e in runs)

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        return self.to_runs()

    def inverse(self) -> BlockWord:
        return BlockWord.from_blocks(
            self.rank, tuple((inverse_base(b), e) for b, e in reversed(self.blocks))
        )

    def __mul__(self, other: BlockWord) -> BlockWord:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        b = Builder()
        b.push_blockword(self)
        b.push_blockword(other)
        return b.result(self.rank)

    def __pow__(self, k: int) -> BlockWord:
        if k < 0:
            return self.inverse() ** (-k)
        b = Builder()
        _push_power(b, self.blocks, k)
        return b.result(self.rank)

    def _shape(self):
        """(rank, length, first letter, last letter), read off the blocks."""
        if not self.blocks:
            return self.rank, 0, None, None
        return self.rank, self.length(), self.blocks[0][0][0], self.blocks[-1][0][-1]

    def __eq__(self, other):
        if not isinstance(other, BlockWord):
            return NotImplemented
        if self.blocks == other.blocks:
            return self.rank == other.rank
        # Different block forms: rule out a different length or end letter
        # before spelling both words out.
        return self._shape() == other._shape() and self.runs == other.runs

    def __hash__(self):
        # Invariants of the reduced word, so equal words hash equally
        # whatever their block form, in time linear in the stored letters.
        sums = [0] * (self.rank + 1)
        for base, e in self.blocks:
            for x in base:
                sums[abs(x)] += e if x > 0 else -e
        return hash((self._shape(), tuple(sums)))

    def __repr__(self):
        return f"Word({self.rank}, {self.runs!r})"

    def __str__(self):
        from .freegroup import format_word

        return format_word(self)


def reduce(rank: int, runs) -> BlockWord:
    """Freely reduced normal form of a raw run list."""
    rank, blocks = _run_blocks(rank, runs)
    b = Builder()
    for base, e in blocks:
        b.push_block(base, e)
    return b.result(rank)


class Builder:
    """Stack of blocks with free reduction at the growing end.

    Stack invariant: blocks are either single-letter runs (any exp >= 1) or
    multi-letter cyclically reduced bases with exp >= 2; the concatenated
    content is always freely reduced.  ``push_block`` is the one way in,
    for single letters as for long bases; ``pop_letter`` is its letter
    cancel.  Without a budget the work is unbounded, as for plain word
    arithmetic.
    """

    def __init__(self, budget: Budget | None = None):
        self.budget = budget if budget is not None else Budget(math.inf)
        self.stack: list[list] = []  # [base tuple, exp]

    def _append_flat(self, letters):
        """Raw append known not to cancel (merges equal-letter runs)."""
        for x in letters:
            if self.stack and self.stack[-1][0] == (x,):
                self.stack[-1][1] += 1
            else:
                self.stack.append([(x,), 1])

    def pop_letter(self) -> int:
        """Remove and return the last letter, splitting blocks as needed."""
        self.budget.spend()
        base, e = self.stack[-1]
        if len(base) == 1:
            if e == 1:
                self.stack.pop()
            else:
                self.stack[-1][1] = e - 1
            return base[0]
        # peel the last copy off a multi-letter power block, keep its
        # remainder flat, and return the final letter
        self.stack.pop()
        self.budget.spend(len(base))
        if e > 2:
            self.stack.append([base, e - 1])
        else:
            self._append_flat(base)
        self._append_flat(base[:-1])
        return base[-1]

    def push_block(self, base: tuple[int, ...], exp: int):
        """Append base^exp for a base of any length, reducing at the seam:
        merge into an equal top block, cancel whole copies against an
        inverse one, else cancel one copy letter by letter."""
        if exp <= 0 or not base:
            if exp < 0:
                raise ValueError("block exponents are positive")
            return
        self.budget.spend()
        stack = self.stack
        remaining = exp
        while remaining > 0 and stack:
            top, e = stack[-1]
            if top == base:
                stack[-1][1] = e + remaining
                return
            # checked first so that a non-cancelling seam builds no inverse
            if top[-1] != -base[0]:
                break
            if top == inverse_base(base):
                m = min(e, remaining)
                remaining -= m
                if e > m and (len(top) == 1 or e - m >= 2):
                    stack[-1][1] = e - m
                else:
                    stack.pop()
                    if e > m:  # one copy of a longer base left: it goes flat
                        self._append_flat(top)
                continue
            # letter-by-letter seam cancellation against one copy
            i = 0
            while i < len(base) and stack and stack[-1][0][-1] == -base[i]:
                self.pop_letter()
                i += 1
            remaining -= 1
            if i < len(base):
                self.budget.spend(len(base) - i)
                self._append_flat(base[i:])
                break
        if remaining:
            if len(base) > 1:
                self.budget.spend(len(base))
            if remaining > 1 or len(base) == 1:
                stack.append([base, remaining])
            else:
                self._append_flat(base)

    def push_blockword(self, w: BlockWord):
        for base, e in w.blocks:
            self.push_block(base, e)

    def result(self, rank: int) -> BlockWord:
        return BlockWord.from_blocks(rank, tuple((b, e) for b, e in self.stack))


# ---------------------------------------------------------------------------
# Flat-word helpers


def primitive_root(letters: tuple[int, ...]):
    """Smallest repeating unit: letters == root * k."""
    n = len(letters)
    for d in range(1, n + 1):
        if n % d == 0 and letters[:d] * (n // d) == letters:
            return letters[:d], n // d
    raise AssertionError("unreachable")


def compress_flat(rank: int, letters) -> BlockWord:
    """Roll periodic repetitions of a reduced letter list into power blocks."""
    letters = tuple(letters)
    n = len(letters)
    blocks: list[tuple[tuple[int, ...], int]] = []
    i = 0
    while i < n:
        best_p, best_k = 1, 1
        max_p = (n - i) // 2
        for p in range(1, max_p + 1):
            unit = letters[i : i + p]
            k = 1
            while letters[i + k * p : i + (k + 1) * p] == unit:
                k += 1
            if k >= 2 and k * p > best_k * best_p:
                best_p, best_k = p, k
        if best_k >= 2:
            blocks.append((letters[i : i + best_p], best_k))
            i += best_p * best_k
        else:
            blocks.append(((letters[i],), 1))
            i += 1
    # period 1 takes each whole run of a letter, so neighbouring one-letter
    # blocks never share their letter
    return BlockWord.from_blocks(rank, tuple(blocks))


def _split(blocks, k: int):
    """The blocks of the first k letters and of the rest.  A power block cut
    at letter k keeps its whole copies on each side, and the cut copy splits
    into one flat block on each side."""
    for i, (base, e) in enumerate(blocks):
        q, r = divmod(k, len(base))
        if q < e:
            cut = int(r > 0)
            head = [*blocks[:i], (base, q), (base[:r], cut)]
            rest = [(base[r:], cut), (base, e - q - cut), *blocks[i + 1 :]]
            return [b for b in head if b[1]], [b for b in rest if b[1]]
        k -= e * len(base)
    return list(blocks), []


def _push_power(builder: Builder, blocks, exp: int, flat: bool = False):
    """Append u^exp for the word u in blocks.  A reduced u is p * c * p^-1
    with c cyclically reduced, so u * u reduces to p * c^2 * p^-1: one
    Builder product gives |p| = |u| - |u u|/2 and |c| = |u u| - |u|, and
    u^exp is p * c^exp * p^-1.  When the first letter of u is not the
    inverse of its last, p is empty and no product is built.  A core of
    several blocks is spelled out flat, at the builder's budget, to find
    its primitive root; unless ``flat`` is set, it is repeated instead
    whenever that is shorter than its flat spelling."""
    if not blocks:
        return  # u was trivial, so the whole power collapses
    prefix, core, suffix = [], blocks, []
    if blocks[0][0][0] == -blocks[-1][0][-1]:
        square = Builder(builder.budget)
        for base, e in chain(blocks, blocks):
            square.push_block(base, e)
        u_len = sum(e * len(b) for b, e in blocks)
        uu_len = sum(e * len(b) for b, e in square.stack)
        prefix, rest = _split(blocks, u_len - uu_len // 2)
        core, suffix = _split(rest, uu_len - u_len)
    for base, e in prefix:
        builder.push_block(base, e)
    total = sum(e * len(b) for b, e in core)
    if len(core) == 1:
        builder.push_block(core[0][0], core[0][1] * exp)
    elif not flat and total > exp * len(core):
        for _ in range(exp):
            for b, e in core:
                builder.push_block(b, e)
    else:
        builder.budget.spend(total)
        root, k = primitive_root(tuple(chain.from_iterable(b * e for b, e in core)))
        builder.push_block(root, k * exp)
    for base, e in suffix:
        builder.push_block(base, e)


# ---------------------------------------------------------------------------
# Endomorphism application


def _apply_power_block(builder: Builder, table, base, exp):
    """Append phi(base)^exp; the core of phi(base) is always spelled out,
    so that the power stays one block."""
    sub = Builder(builder.budget)
    for x in base:
        sub.push_blockword(table[x])
    _push_power(builder, sub.stack, exp, flat=True)


def apply_endo_blocks(images, w: BlockWord, budget: Budget) -> BlockWord:
    """phi(w) for images given as BlockWords (index i holds phi(g_{i+1}))."""
    table = {}
    for g, img in enumerate(images, 1):
        table[g], table[-g] = img, img.inverse()
    builder = Builder(budget)
    for base, exp in w.blocks:
        if exp == 1:
            for x in base:
                builder.push_blockword(table[x])
        else:
            _apply_power_block(builder, table, base, exp)
    return builder.result(w.rank)


def compress_images(images) -> list[BlockWord]:
    """Pre-roll periodic repetitions inside small images once per iteration."""
    return [
        compress_flat(img.rank, img.flatten())
        if 0 < img.length() <= COMPRESS_CAP
        else img
        for img in images
    ]
