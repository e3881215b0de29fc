"""The discrete Heisenberg group and its two-sided generalized progressions.

Points are integer triples with the product
``(x, y, z) * (x', y', z') = (x + x', y + y', z + z' + x*y')``,
the group of unitriangular 3x3 integer matrices in coordinates. The two
generators are A = (1, 0, 0) and B = (0, 1, 0); their commutator
C = (0, 0, 1) is central.

Words over {A, A^-1, B, B^-1} are plain strings over the alphabet "AaBb"
with lowercase meaning inverse, so "ABab" is the commutator word. The
progression P(N1, N2) is the set of values of all words using at most N1
letters from {A, A^-1} and at most N2 from {B, B^-1}. Over each (a, b)
its central coordinates c form one interval, from an exact four-case
formula; an independent breadth-first enumeration is provided as a
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import DomainError, ResourceLimitError

_ALPHABET = set("AaBb")
_A_TYPE = set("Aa")
_B_TYPE = set("Bb")

DEFAULT_ENUM_CAP = 20
# Budgets witness_word accepts: its word has up to n1 + n2 letters, and its
# sorting walk takes up to about q1*q2 swaps (q1, q2 as in witness_word),
# each an O(n1 + n2) scan. Within both caps a witness takes under 2 s
# (2-core VM, Python 3.11).
MAX_WITNESS_LETTERS = 1_000
MAX_WITNESS_SWAPS = 20_000


class HPoint(NamedTuple):
    a: int
    b: int
    c: int


IDENTITY = HPoint(0, 0, 0)


def h_mul(p: Sequence[int], q: Sequence[int]) -> HPoint:
    return HPoint(p[0] + q[0], p[1] + q[1], p[2] + q[2] + p[0] * q[1])


def h_inv(p: Sequence[int]) -> HPoint:
    return HPoint(-p[0], -p[1], -p[2] + p[0] * p[1])


def parse_point(text: str) -> HPoint:
    parts = text.split(",")
    if len(parts) != 3:
        raise DomainError(f"point must be 'a,b,c', got {text!r}")
    try:
        return HPoint(*(int(s.strip()) for s in parts))
    except ValueError as exc:
        raise DomainError(f"point coordinates must be integers: {text!r}") from exc


def format_point(p: Sequence[int]) -> str:
    return f"{p[0]},{p[1]},{p[2]}"


def validate_word(word: str) -> str:
    bad = set(word) - _ALPHABET
    if bad:
        raise DomainError(f"word letters must be from 'AaBb', got {sorted(bad)}")
    return word


def word_eval(word: str) -> HPoint:
    """Value of a word in one pass.

    Equivalent to folding h_mul over the letters: a and b are the signed
    letter counts, and c sums eps_i * eps_j over pairs of an A-type letter
    at position i before a B-type letter at position j.
    """
    validate_word(word)
    a = b = c = 0
    for letter in word:
        if letter == "A":
            a += 1
        elif letter == "a":
            a -= 1
        elif letter == "B":
            b += 1
            c += a
        else:
            b -= 1
            c -= a
    return HPoint(a, b, c)


def word_counts(word: str) -> tuple[int, int]:
    """Number of A-type and B-type letters, inverses included."""
    validate_word(word)
    n_a = sum(1 for ch in word if ch in _A_TYPE)
    return n_a, len(word) - n_a


def flip_a(word: str) -> str:
    """Swap A with its inverse; negates the a and c coordinates of the value."""
    return word.translate(str.maketrans("Aa", "aA"))


def flip_b(word: str) -> str:
    """Swap B with its inverse; negates the b and c coordinates of the value."""
    return word.translate(str.maketrans("Bb", "bB"))


def _trace_steps(word: str) -> Iterator[tuple[str, int]]:
    """The reduction trace of a word: the steps (word_i, j_i) of sorting it
    into B-block-then-A-block form.

    Each step swaps the rightmost adjacent pair (A-type, B-type) and adds
    the product of their signs to the running commutator exponent j. Every
    step satisfies value(word_i) * C**j_i == value(word), so the final j
    equals the c coordinate of the value.
    """
    letters = list(word)
    n_a, n_b = word_counts(word)
    j = 0
    yield word, j
    # Each swap moves one B-type letter left past one A-type letter, so the
    # count of (A-type, B-type) inversions drops by exactly 1 per step and
    # the loop runs at most n_a * n_b times.
    for _ in range(n_a * n_b):
        pivot = -1
        for i in range(len(letters) - 2, -1, -1):
            if letters[i] in _A_TYPE and letters[i + 1] in _B_TYPE:
                pivot = i
                break
        if pivot < 0:
            return
        delta = 1 if letters[pivot] == "A" else -1
        eps = 1 if letters[pivot + 1] == "B" else -1
        letters[pivot], letters[pivot + 1] = letters[pivot + 1], letters[pivot]
        j += delta * eps
        yield "".join(letters), j
    if any(x in _A_TYPE and y in _B_TYPE for x, y in zip(letters, letters[1:])):
        raise RuntimeError("sorting exceeded its inversion-count step bound")


@dataclass(frozen=True)
class HProgressionSpec:
    """Left translate of P(n1, n2) by the point ``translate``."""

    n1: int
    n2: int
    translate: HPoint = IDENTITY

    def __post_init__(self):
        if self.n1 < 0 or self.n2 < 0:
            raise DomainError(f"budgets must be nonnegative, got ({self.n1}, {self.n2})")


def _central_range(n1: int, n2: int, a: int, b: int) -> Optional[tuple[int, int]]:
    """The ends (lo, hi) of the c with (a, b, c) in P(n1, n2), or None.

    A word can use at most floor((n1+|a|)/2) A-type letters of a's sign and
    floor((n2+|b|)/2) B-type letters of b's sign; their product m caps the
    commutator count.
    """
    if abs(a) > n1 or abs(b) > n2:
        return None
    m = ((n1 + abs(a)) // 2) * ((n2 + abs(b)) // 2)
    ab = a * b
    return (ab - m, m) if ab >= 0 else (-m, ab + m)


def max_central(a: int, b: int, n1: int, n2: int) -> int:
    """Largest c with (a, b, c) in P(n1, n2), for 0 <= a <= n1, 0 <= b <= n2:
    floor((n1+a)/2) * floor((n2+b)/2)."""
    if not (0 <= a <= n1 and 0 <= b <= n2):
        raise DomainError(f"need 0 <= a <= n1 and 0 <= b <= n2, got a={a}, b={b}, n1={n1}, n2={n2}")
    return _central_range(n1, n2, a, b)[1]


def membership(spec: HProgressionSpec, p: Sequence[int]) -> bool:
    """Exact membership test: untranslated, c lies in the interval over (a, b)."""
    t0, t1, t2 = spec.translate
    p0, p1, p2 = p
    # (a, b, c) = translate^-1 * p, written out.
    b = p1 - t1
    span = _central_range(spec.n1, spec.n2, p0 - t0, b)
    return span is not None and span[0] <= p2 - t2 - t0 * b <= span[1]


def _budget_frontier(n1: int, n2: int) -> dict:
    """Every point of P(n1, n2), each with its Pareto-minimal letter budgets.

    Breadth-first search by total letter count over states (a, b, c,
    used A letters, used B letters). Maps each point (a, b, c) to the list
    of pairs (used_a, used_b) that reach it and that no other pair reaching
    it is <= in both coordinates. A state whose pair is dominated is
    dropped: each of its successors is dominated by the same move from the
    dominating state, and in BFS order that state was recorded first.
    """
    frontier = {(0, 0, 0): [(0, 0)]}
    level = [(0, 0, 0, 0, 0)]
    while level:
        successors = []
        for a, b, c, used_a, used_b in level:
            moves = []
            if used_a < n1:
                moves.append((a + 1, b, c, used_a + 1, used_b))
                moves.append((a - 1, b, c, used_a + 1, used_b))
            if used_b < n2:
                moves.append((a, b + 1, c + a, used_a, used_b + 1))
                moves.append((a, b - 1, c - a, used_a, used_b + 1))
            for state in moves:
                point, ua, ub = state[:3], state[3], state[4]
                pairs = frontier.get(point)
                if pairs is None:
                    frontier[point] = [(ua, ub)]
                elif any(x <= ua and y <= ub for x, y in pairs):
                    continue
                else:
                    pairs.append((ua, ub))
                successors.append(state)
        level = successors
    return frontier


def enumerate_progression(n1: int, n2: int, cap: int = DEFAULT_ENUM_CAP) -> frozenset:
    """All points of P(n1, n2) by breadth-first search over letter budgets.

    The search keeps, per point, only the Pareto-minimal (used A letters,
    used B letters) pairs, so a point is expanded once per minimal budget
    and not once per budget that reaches it. The point count grows
    polynomially, not exponentially, in n1 and n2: P(8, 8) has 15,105
    points in about 0.2 s, P(10, 10) 36,391 in 0.35 s, P(12, 12) 74,857 in
    0.8 s and P(14, 14) 137,943 in 2.1 s (medians of 3, 2-core VM, Python
    3.11.7). The cap on n1 + n2 bounds that time and memory.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"budgets must be nonnegative, got ({n1}, {n2})")
    if n1 + n2 > cap:
        raise ResourceLimitError(f"enumeration budget {n1}+{n2} exceeds cap {cap}")
    return frozenset(map(HPoint._make, _budget_frontier(n1, n2)))


def witness_word(p: Sequence[int], n1: int, n2: int) -> str:
    """A word within the letter budgets whose value is p.

    Builds the extremal word for the sign-normalized point, then walks its
    sorting trace to the intermediate word with the required commutator
    count, and finally undoes the sign normalization letterwise.
    """
    p = HPoint(*p)
    if not membership(HProgressionSpec(n1, n2), p):
        raise DomainError(f"{tuple(p)} is not in P({n1}, {n2})")
    if n1 + n2 > MAX_WITNESS_LETTERS:
        raise ResourceLimitError(f"witness budget {n1}+{n2} exceeds {MAX_WITNESS_LETTERS} letters")
    if p == IDENTITY:
        return ""
    a, b, c = p
    neg_a = a < 0
    if neg_a:
        a, c = -a, -c
    neg_b = b < 0
    if neg_b:
        b, c = -b, -c
    q1 = (n1 + a) // 2
    q2 = (n2 + b) // 2
    if q1 * q2 > MAX_WITNESS_SWAPS:
        raise ResourceLimitError(
            f"witness walk of up to {q1}*{q2} swaps exceeds the cap of {MAX_WITNESS_SWAPS}"
        )
    # Value (a, b, q1*q2), the largest central coordinate over this (a, b).
    top = "b" * (q2 - b) + "A" * q1 + "B" * q2 + "a" * (q1 - a)
    if c >= 0:
        start, c0 = top, q1 * q2
    else:
        # Reversing a word sends its value (a, b, c') to (a, b, a*b - c'),
        # so the reversed extremal word has the smallest central coordinate.
        start, c0 = top[::-1], a * b - q1 * q2
    word = None
    for step_word, j in _trace_steps(start):
        # value(step_word) == (a, b, c0 - j), so hit j == c0 - c.
        if j == c0 - c:
            word = step_word
            break
    if word is None:
        raise RuntimeError(f"trace walk missed target for {tuple(p)} in P({n1}, {n2})")
    if neg_b:
        word = flip_b(word)
    if neg_a:
        word = flip_a(word)
    return word


def verify_cells(nmax: int, cap: int = DEFAULT_ENUM_CAP) -> dict:
    """Compare the membership formula with enumeration for all budgets <= nmax.

    One budget frontier, enumerated at (nmax, nmax), is shared by all
    cells: a point is in P(n1, n2) exactly when one of its Pareto-minimal
    budget pairs is <= (n1, n2). Each cell checks every column (a, b) of
    the box |a| <= n1, |b| <= n2, |c| <= n1*n2 + 1 against the formula's
    interval, reports the points of the box where the two differ, and the
    enumerated points outside it.
    """
    if nmax < 0:
        raise DomainError("nmax must be nonnegative")
    if 2 * nmax > cap:
        raise ResourceLimitError(f"enumeration budget {nmax}+{nmax} exceeds cap {cap}")
    # entering[n1][n2]: the points that P(n1, n2) has and P(n1, n2 - 1) lacks.
    entering = [[[] for _ in range(nmax + 1)] for _ in range(nmax + 1)]
    for point, pairs in _budget_frontier(nmax, nmax).items():
        # Sorted by used A letters, a Pareto antichain has strictly falling
        # used B letters, so each pair is the cheapest for the n1 up to the next.
        pairs.sort()
        for (used_a, used_b), (next_a, _) in zip(pairs, pairs[1:] + [(nmax + 1, 0)]):
            for n1 in range(used_a, next_a):
                entering[n1][used_b].append(point)
    cells = []
    for n1 in range(nmax + 1):
        columns = {}
        tall = []
        size = 0
        for n2 in range(nmax + 1):
            new = entering[n1][n2]
            size += len(new)
            for a, b, c in new:
                columns.setdefault((a, b), set()).add(c)
            top = n1 * n2 + 1
            # top only grows with n2.
            tall = [p for p in tall + new if abs(p[2]) > top]
            mismatches = tall[:]
            for a in range(-n1, n1 + 1):
                for b in range(-n2, n2 + 1):
                    lo, hi = _central_range(n1, n2, a, b)
                    column = columns.get((a, b), ())
                    # Distinct ints: the right count within the ends fills the interval.
                    if len(column) == hi - lo + 1 and min(column) == lo and max(column) == hi:
                        continue
                    want = range(max(lo, -top), min(hi, top) + 1)
                    have = {c for c in column if abs(c) <= top}
                    mismatches.extend((a, b, c) for c in have.symmetric_difference(want))
            cells.append(
                {
                    "n1": n1,
                    "n2": n2,
                    "size": size,
                    "mismatches": [list(p) for p in sorted(mismatches)],
                }
            )
    total_mismatches = sum(len(cell["mismatches"]) for cell in cells)
    return {"nmax": nmax, "cells": cells, "mismatch_count": total_mismatches}
