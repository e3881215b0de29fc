"""Seeded input generators for the benchmark, in plain stdlib code.

Nothing here imports progvc: the inputs, and the set-up time spent making
them, stay the same when the program changes.
"""

from __future__ import annotations

import random

# Rejection sampling below stops after this many draws, so a target that
# the distribution cannot reach fails loudly instead of hanging.
MAX_DRAWS = 200_000


def reduced_word(rng: random.Random, rank: int, length: int) -> tuple[int, ...]:
    """Uniform reduced word of the given length over signed indices 1..rank."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    word: list[int] = []
    for _ in range(length):
        word.append(rng.choice([x for x in letters if not word or x != -word[-1]]))
    return tuple(word)


def word_text(word: tuple[int, ...]) -> str:
    """Text form read by ``progvc``: runs ``i^e`` joined by ``*``, ``e`` if empty."""
    if not word:
        return "e"
    runs: list[list[int]] = []
    for x in word:
        if runs and runs[-1][0] == x:
            runs[-1][1] += 1
        else:
            runs.append([x, 1])
    return "*".join(f"{abs(x)}^{n if x > 0 else -n}" for x, n in runs)


def antichain_set(
    rng: random.Random, rank: int, size: int, vertices: int, max_len: int
) -> list[tuple[int, ...]]:
    """``size`` reduced words, none a prefix of another, with at least two
    distinct first letters, whose prefix trie has exactly ``vertices`` nodes.

    With two first letters the identity lies between two of the words, so
    the trie is the minimal tree of the set and every word is one of its
    leaves. Fixing the trie size keeps the witness scan's work close to
    equal from seed to seed.
    """
    for _ in range(MAX_DRAWS):
        words: set[tuple[int, ...]] = set()
        # Short words can leave no room for another (all 2*rank one-letter
        # words, say), so each attempt gets a bounded number of draws.
        for _ in range(100 * size):
            if len(words) == size:
                break
            w = reduced_word(rng, rank, rng.randint(1, max_len))
            if not any(w[: len(u)] == u or u[: len(w)] == w for u in words):
                words.add(w)
        trie = {w[:i] for w in words for i in range(len(w) + 1)}
        if len(words) == size and len(trie) == vertices and len({w[0] for w in words}) > 1:
            return sorted(words)
    raise RuntimeError(f"no {size}-word antichain of rank {rank} with a {vertices}-node trie")


def interval_system(lo: int, hi: int) -> dict:
    """Traces on the window [lo, hi] of every translate g + [-N, N] of a
    rank-1 progression: all intervals of odd length, every prefix and
    suffix of the window, and the empty set. The window [-20, 20] gives 41
    points and 482 members; intervals have VC dimension 2."""
    n = hi - lo + 1
    spans = set()
    for g in range(lo - n, hi + n + 1):
        for r in range(2 * n + 1):
            a, b = max(g - r, lo), min(g + r, hi)
            if a <= b:
                spans.add((a - lo, b - lo))
    family = [[]] + [list(range(a, b + 1)) for a, b in sorted(spans)]
    return {"ground": list(range(lo, hi + 1)), "family": family}


def random_system(rng: random.Random, ground_size: int, members: int) -> dict:
    """``members`` distinct uniformly random subsets of a ``ground_size`` ground."""
    if members > 2**ground_size:
        raise ValueError(f"only {2**ground_size} subsets of a {ground_size}-point ground")
    masks: set[int] = set()
    while len(masks) < members:
        masks.add(rng.getrandbits(ground_size))
    family = [[i for i in range(ground_size) if m >> i & 1] for m in sorted(masks)]
    return {"ground": list(range(ground_size)), "family": family}
