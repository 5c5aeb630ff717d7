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

