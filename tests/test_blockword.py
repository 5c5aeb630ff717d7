"""Regression tests for the compressed-word engine underneath freegroup.

The public contract is exercised through freegroup; these tests pin the two
facts the public layer depends on but cannot see: reduction agrees with a
naive letter-level oracle, and power blocks persist across iteration so the
rewritten-basis example runs in O(1) blocks per step.
"""

import random

import pytest

from lehmerlab._blockword import (
    BlockWord,
    Budget,
    BudgetError,
    Builder,
    apply_endo_blocks,
    compress_flat,
    compress_images,
    inverse_base,
)


def naive_apply(imgs_runs, runs):
    out = []

    def push(g, e):
        if e == 0:
            return
        if out and out[-1][0] == g:
            out[-1][1] += e
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([g, e])

    for g, e in runs:
        seq = (
            imgs_runs[g - 1]
            if e > 0
            else [(h, -c) for h, c in reversed(imgs_runs[g - 1])]
        )
        for _ in range(abs(e)):
            for h, c in seq:
                push(h, c)
    return [tuple(r) for r in out]


def rand_runs(rng, rank, max_runs, max_exp):
    out, prev = [], 0
    for _ in range(rng.randrange(0, max_runs + 1)):
        g = rng.choice([g for g in range(1, rank + 1) if g != prev])
        e = rng.choice([x for x in range(-max_exp, max_exp + 1) if x])
        out.append((g, e))
        prev = g
    return out


def test_matches_naive_oracle_on_random_endos():
    rng = random.Random(2024)
    for _ in range(400):
        rank = rng.randrange(2, 4)
        imgs_runs = [rand_runs(rng, rank, 3, 3) for _ in range(rank)]
        images = compress_images([BlockWord(rank, r) for r in imgs_runs])
        runs = rand_runs(rng, rank, 4, 4)
        w = BlockWord(rank, runs)
        cur = [tuple(r) for r in runs]
        for _ in range(3):
            cur = naive_apply(imgs_runs, cur)
            w = apply_endo_blocks(images, w, Budget(500_000))
            assert list(w.to_runs()) == cur


def test_power_blocks_persist_under_iteration():
    """Iterating the rewritten doubling/tripling map must keep the word in a
    bounded number of power blocks with tiny per-step work, or the exact
    25-step acceptance path would be unreachable."""
    images = compress_images(
        [
            BlockWord(2, [(1, 1), (2, -1), (1, 1), (2, -1), (1, 1), (2, 1)]),
            BlockWord(2, [(2, 2)]),
        ]
    )
    assert images[0].blocks == (((1, -2), 2), ((1,), 1), ((2,), 1))
    w = BlockWord(2, [(1, 1)])
    for n in range(1, 26):
        budget = Budget(1000)
        w = apply_endo_blocks(images, w, budget)
        assert w.length() == 2 * 3 ** n + 2 ** n - 2
        assert len(w.blocks) <= 4
        assert budget.used < 100


def test_builder_reduces_like_free_group():
    w = BlockWord.from_letters(2, [1, 2, -2, 1, 1, -1])
    assert w.to_runs() == ((1, 2),)
    assert BlockWord.from_letters(1, [1, -1]).is_identity()
    assert BlockWord.from_letters(1, []).is_identity()


def test_inverse_word_cancels_completely():
    b = Builder(Budget(10_000))
    w = BlockWord.from_letters(2, [1, 2, 1, 2, 1, 2, -1, 2, 2])
    b.push_blockword(w)
    b.push_blockword(w.inverse())
    assert b.result(2).is_identity()


def test_word_inverse_and_counts():
    w = BlockWord.from_blocks(2, (((1, -2), 3), ((1,), 1)))
    assert w.length() == 7
    assert w.count_gen(1) == 4 and w.count_gen(2) == 3
    assert w.exponent_sum(2) == -3
    inv = w.inverse()
    assert inv.length() == 7
    b = Builder(Budget(1000))
    b.push_blockword(w)
    b.push_blockword(w.inverse())
    assert b.result(2).is_identity()


def test_compress_flat_rolls_periods():
    cf = compress_flat(2, [1, -2, 1, -2, 1, 2])
    assert cf.blocks == (((1, -2), 2), ((1,), 1), ((2,), 1))
    cf = compress_flat(1, [1, 1, 1, 1])
    assert cf.blocks == (((1,), 4),)
    assert compress_flat(1, []).is_identity()


def test_budget_error_on_uncompressible_growth():
    images = compress_images(
        [BlockWord(2, [(1, 1), (2, 1)]), BlockWord(2, [(1, 1)])]
    )
    w = BlockWord(2, [(1, 1)])
    with pytest.raises(BudgetError):
        for _ in range(40):
            w = apply_endo_blocks(images, w, Budget(10_000))


class _TwoBranchBuilder(Builder):
    """The oracle: the seam rules written out once per base length, with a
    separate letter push for the flat tails, as the engine had them before
    ``push_block`` took bases of every length."""

    def push_letter(self, x: int):
        self.budget.spend()
        if self.stack:
            base, e = self.stack[-1]
            if len(base) == 1:
                if base[0] == x:
                    self.stack[-1][1] = e + 1
                    return
                if base[0] == -x:
                    if e == 1:
                        self.stack.pop()
                    else:
                        self.stack[-1][1] = e - 1
                    return
            elif base[-1] == -x:
                self.pop_letter()
                return
        self.stack.append([(x,), 1])

    def push_block(self, base, exp):
        if exp <= 0 or not base:
            if exp < 0:
                raise ValueError("block exponents are positive")
            return
        self.budget.spend()
        if len(base) == 1:
            x = base[0]
            remaining = exp
            while remaining > 0 and self.stack:
                top, e = self.stack[-1]
                if top == (x,):
                    self.stack[-1][1] = e + remaining
                    return
                if top == (-x,):
                    m = min(e, remaining)
                    remaining -= m
                    if m == e:
                        self.stack.pop()
                    else:
                        self.stack[-1][1] = e - m
                    continue
                if len(top) > 1 and top[-1] == -x:
                    self.pop_letter()
                    remaining -= 1
                    continue
                break
            if remaining:
                self.stack.append([(x,), remaining])
            return
        remaining = exp
        while remaining > 0:
            if self.stack:
                top, e = self.stack[-1]
                if len(top) > 1:
                    if top == base:
                        self.stack[-1][1] = e + remaining
                        return
                    if top == inverse_base(base):
                        m = min(e, remaining)
                        remaining -= m
                        self.stack.pop()
                        if e - m >= 2:
                            self.stack.append([top, e - m])
                        elif e - m == 1:
                            self._append_flat(top)
                        continue
            i = 0
            while i < len(base) and self.stack and self.stack[-1][0][-1] == -base[i]:
                self.pop_letter()
                i += 1
            if i == 0:
                break
            remaining -= 1
            if i < len(base):
                for x in base[i:]:
                    self.push_letter(x)
                break
        if remaining >= 2:
            self.budget.spend(len(base))
            self.stack.append([base, remaining])
        elif remaining == 1:
            for x in base:
                self.push_letter(x)


def _rand_reduced(rng, rank, n):
    out = []
    while len(out) < n:
        x = rng.choice([s * g for g in range(1, rank + 1) for s in (1, -1)])
        if not out or x != -out[-1]:
            out.append(x)
    return tuple(out)


def _seam_base(rng, rank, top):
    """A cyclically reduced base for the next push: often one that cancels
    into the top block, wholly (its inverse) or partly (the inverse of a
    suffix of it, then other letters)."""
    while True:
        kind = rng.randrange(4)
        if top is not None and kind == 0:
            base = inverse_base(top)
        elif top is not None and kind == 1:
            cut = rng.randrange(len(top))
            base = inverse_base(top[cut:]) + _rand_reduced(rng, rank, rng.randrange(0, 4))
        elif top is not None and kind == 2:
            base = top
        else:
            base = _rand_reduced(rng, rank, rng.choice([1, 1, 2, 3, 4]))
        reduced = all(x != -y for x, y in zip(base, base[1:]))
        if base and reduced and (len(base) == 1 or base[0] != -base[-1]):
            return base


def _outcome(fn, limit):
    """(words, budget used) of fn(budget), or the budget error's message."""
    budget = Budget(limit)
    try:
        return fn(budget), budget.used
    except BudgetError as e:
        return str(e)


def test_push_block_charges_like_two_branch_push(monkeypatch):
    """The one seam loop leaves the same blocks, charges the same budget
    and fails with the same message as the two-branch oracle, push by push
    and through ``**``, ``*``, parsing and ``apply_endo_blocks``.  After a
    budget error only the message is compared: the oracle charged a flat
    tail letter by letter, so it stopped counting one letter past the
    limit."""
    import lehmerlab._blockword as engine

    rng = random.Random(1811)
    limits = (20, 60, 200, 10**9)
    seen = set()

    def pushes(cls, ops):
        def run(budget):
            b = cls(budget)
            for base, exp in ops:
                b.push_block(base, exp)
            return tuple((base, e) for base, e in b.stack)

        return run

    for _ in range(1500):
        rank = rng.randrange(1, 4)
        ops, stack = [], Builder()
        for _ in range(rng.randrange(1, 9)):
            top = stack.stack[-1][0] if stack.stack else None
            op = (_seam_base(rng, rank, top), rng.choice([1, 1, 2, 3, 5]))
            stack.push_block(*op)
            ops.append(op)
            seen.add((len(op[0]) > 1, top == inverse_base(op[0])))
        limit = rng.choice(limits)
        want = _outcome(pushes(_TwoBranchBuilder, ops), limit)
        assert _outcome(pushes(Builder, ops), limit) == want, ops
    assert seen == {(a, b) for a in (False, True) for b in (False, True)}

    def word_ops(cls, rank, runs, raw, images, k):
        with monkeypatch.context() as m:
            m.setattr(engine, "Builder", cls)
            w = BlockWord(rank, runs)
            letters = BlockWord.from_letters(rank, w.flatten())
            parsed = engine.reduce(rank, raw)
            product = w * w.inverse() * w

            def power(budget):
                b = cls(budget)
                engine._push_power(b, w.blocks, k)
                return b.result(rank)

            def twice(budget):
                once = apply_endo_blocks(images, w, budget)
                return once, apply_endo_blocks(images, once, budget)

            return (
                letters.blocks,
                parsed.blocks,
                product.blocks,
                (w ** k).blocks,
                [_outcome(f, limit) for f in (power, twice) for limit in (40, 10**9)],
            )

    for _ in range(750):
        rank = rng.randrange(2, 4)
        p = BlockWord(rank, rand_runs(rng, rank, 2, 3))
        c = BlockWord(rank, rand_runs(rng, rank, 3, 3))
        runs = (p * c * p.inverse()).runs
        # an unreduced run list, as the parser hands it over
        undo = [(g, -e) for g, e in reversed(runs)][: rng.randrange(len(runs) + 1)]
        raw = [*runs, *undo, *rand_runs(rng, rank, 3, 3)]
        images = compress_images(
            [BlockWord(rank, rand_runs(rng, rank, 3, 3)) for _ in range(rank)]
        )
        k = rng.randrange(0, 5)
        want = word_ops(_TwoBranchBuilder, rank, runs, raw, images, k)
        assert word_ops(Builder, rank, runs, raw, images, k) == want, (runs, k)
