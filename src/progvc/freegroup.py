"""Free groups of finite rank, their Cayley trees, and generalized progressions.

Elements are reduced words stored as tuples of nonzero signed generator
indices: 2 means the second generator, -2 its inverse, so ``(2, 2, -1)``
is a2 * a2 * a1^-1. Text form uses tokens ``i^e`` joined by ``*`` (``e``
alone is the identity), e.g. ``"2^5*1^3"``.

The progression P(N1, ..., Nk) consists of the points whose reduced word
uses at most Ni letters from {a_i, a_i^-1} for each i; a left translate
g * P(Nbar) is then exactly the set of x with d_i(g, x) <= N_i, where d_i
counts occurrences of a_i and its inverse in the reduced word of g^-1 x.
Everything here leans on the Cayley graph being a tree: geodesics are
unique, the d_i add along paths, and translated progressions are connected
subtrees.

Shattering questions for these translates are decided exactly, on plain
tuples of letter codes: the code of a letter is its rank in word_key order
(a_1, a_1^-1, a_2, a_2^-1, ... are 0, 1, 2, 3, ...), so the inverse of
code c is c ^ 1, its generator is a_(c >> 1 + 1), and word_key order on
reduced words is (length, tuple) order on their codes. With top the
longest common prefix of the points' code words, the minimal tree of X is
the prefix trie of the words past top, rooted at top: a vertex's word is
top plus its trie path. Every caller sorts the points' code words once,
and the trie is built from that list one level at a time, so its nodes are
numbered in word_key order of their vertices. Any cutting translate slides
to an entry vertex h of that tree without changing its trace, and at h only
the componentwise-minimal bounds matter. So the traces cut out at h are
the intersections of one threshold set {x : d_i(h, x) <= t} per coordinate
i. Visiting the nodes by index and keeping, for each trace, the first
vertex and its minimal bounds gives the trace family that every shattering
question here reads. Tripod profiles and dominating sequences read the
same trie. The public, path-based ``minimal_tree`` and ``leaves`` are the
slow reference it is tested against.

``free search`` draws its sets as code tuples from ``getrandbits``, sorts
each once, runs the leaf and tripod filters on the sorted tuples, builds a
trie only for the sets that reach the scan, never builds the trie's vertex
words, and makes ``FWord`` objects only for the sets it lists.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DomainError, ResourceLimitError
from .setsystem import ShatterReport

# Most points a shattering decision takes, as it may meet 2^n traces.
# Read at each call, so a lower cap is a patched constant.
DEFAULT_SET_CAP = 14
# Letters a word text may expand to before reduction, so that an exponent
# like 1^999999999 is refused instead of allocated.
MAX_WORD_LEN = 10_000
# Largest rank: several paths allocate per generator.
MAX_RANK = 10_000
# Pointer slots a _PrefixTrie may fill: three rank-long rows per vertex (letter
# counts, distances, threshold masks) when it is made, and one per letter of
# each vertex word that ``vertex`` builds, when it builds it (free search builds
# none; free shatter one per witness translate). At 8 bytes a slot that is 80 MB,
# well below a 700 MB address space and far above the tests (under 600,000).
MAX_TRIE_SLOTS = 10_000_000


def _check_rank(rank: int) -> None:
    if rank < 1:
        raise DomainError(f"rank must be at least 1, got {rank}")
    if rank > MAX_RANK:
        raise DomainError(f"rank {rank} exceeds the cap of {MAX_RANK}")


@dataclass(frozen=True)
class FWord:
    """A reduced word in the free group of the given rank.

    Input letters may be unreduced; adjacent inverse pairs are cancelled
    on construction.
    """

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        _check_rank(self.rank)
        stack: list[int] = []
        for x in self.letters:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise DomainError(f"letter {x!r} is not a signed index in 1..{self.rank}")
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        object.__setattr__(self, "letters", tuple(stack))

    def __mul__(self, other: "FWord") -> "FWord":
        return multiply(self, other)

    def __len__(self) -> int:
        return len(self.letters)

    @functools.cached_property
    def _text(self) -> str:
        # Once per object: the witnesses of one trie vertex share it.
        return format_word(self)

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"FWord({self.rank}, {self._text!r})"


def identity(rank: int) -> FWord:
    return FWord(rank, ())


def generator(rank: int, i: int) -> FWord:
    if not 1 <= i <= rank:
        raise DomainError(f"generator index {i} out of range 1..{rank}")
    return FWord(rank, (i,))


def _same_rank(u: FWord, v: FWord) -> int:
    if u.rank != v.rank:
        raise DomainError(f"mixed ranks {u.rank} and {v.rank}")
    return u.rank


def multiply(u: FWord, v: FWord) -> FWord:
    return FWord(_same_rank(u, v), u.letters + v.letters)


def invert(u: FWord) -> FWord:
    return FWord(u.rank, tuple(-x for x in reversed(u.letters)))


def power(u: FWord, n: int) -> FWord:
    base = u if n >= 0 else invert(u)
    return FWord(u.rank, base.letters * abs(n))


def word_key(u: FWord) -> tuple:
    """Length-then-lexicographic sort key; a_i sorts before a_i^-1."""
    return (len(u.letters), _encode(u.letters))


_TOKEN = re.compile(r"(\d+)(?:\^(-?\d+))?$")


def parse_word(rank: int, text: str) -> FWord:
    text = text.strip()
    if text == "e":
        return identity(rank)
    if not text:
        raise DomainError("empty word text; use 'e' for the identity")
    letters: list[int] = []
    for token in text.split("*"):
        m = _TOKEN.match(token.strip())
        if not m:
            raise DomainError(f"bad word token {token!r}; expected forms like '2^5' or '1^-3'")
        try:
            i = int(m.group(1))
            exp = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError as exc:  # more digits than int() converts
            raise DomainError(f"number too long in word token of {len(token)} characters") from exc
        if not 1 <= i <= rank:
            raise DomainError(f"generator index {i} out of range 1..{rank}")
        if len(letters) + abs(exp) > MAX_WORD_LEN:
            raise DomainError(f"word {text[:40]!r} expands past {MAX_WORD_LEN} letters")
        letters.extend([i if exp > 0 else -i] * abs(exp))
    return FWord(rank, tuple(letters))


def format_word(u: FWord) -> str:
    if not u.letters:
        return "e"
    tokens = []
    run_letter, run = u.letters[0], 0
    for x in u.letters + (0,):
        if x == run_letter:
            run += 1
        else:
            tokens.append(f"{abs(run_letter)}^{run if run_letter > 0 else -run}")
            run_letter, run = x, 1
    return "*".join(tokens)


def dist_vector(x: FWord, y: FWord) -> tuple[int, ...]:
    """(d_1(x, y), ..., d_k(x, y)): per generator, the occurrences of it or
    its inverse in the reduced word of x^-1 y."""
    counts = [0] * _same_rank(x, y)
    for v in multiply(invert(x), y).letters:
        counts[abs(v) - 1] += 1
    return tuple(counts)


def path(v: FWord, w: FWord) -> list[FWord]:
    """Vertices of the geodesic from v to w, endpoints included."""
    k = _same_rank(v, w)
    out = [v]
    cur = list(v.letters)
    for step in multiply(invert(v), w).letters:
        if cur and cur[-1] == -step:
            cur.pop()
        else:
            cur.append(step)
        out.append(FWord(k, tuple(cur)))
    return out


class TreeSlice:
    """A finite vertex set of the Cayley tree with its induced adjacency, a
    dict from each vertex to its neighbours in the set."""

    def __init__(self, rank: int, vertices: Iterable[FWord], adjacency: dict):
        self.rank = rank
        self.vertices = frozenset(vertices)
        self._adj = adjacency

    def __contains__(self, v: FWord) -> bool:
        return v in self.vertices

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)

    def degree(self, v: FWord) -> int:
        return len(self._adj[v])


def _common_rank(points: Iterable[FWord]) -> int:
    ranks = {p.rank for p in points}
    if not ranks:
        raise DomainError("need at least one point")
    if len(ranks) > 1:
        raise DomainError(f"mixed ranks {sorted(ranks)}")
    return ranks.pop()


def minimal_tree(points: Iterable[FWord]) -> TreeSlice:
    """Smallest subtree containing the points: the union of geodesics from
    one fixed member to the rest (geodesics in a tree are unique, so any
    connected superset contains all of them)."""
    pts = set(points)
    rank = _common_rank(pts)
    base = min(pts, key=word_key)
    vertices = {base}
    adjacency: dict[FWord, set] = {base: set()}
    for p in pts:
        walk = path(base, p)
        for u, v in zip(walk, walk[1:]):
            if v not in adjacency:
                adjacency[v] = set()
                vertices.add(v)
            adjacency[u].add(v)
            adjacency[v].add(u)
    return TreeSlice(rank, vertices, adjacency)


def leaves(tree: TreeSlice) -> frozenset:
    """Vertices of degree at most 1."""
    return frozenset(v for v in tree.vertices if tree.degree(v) <= 1)


@dataclass(frozen=True)
class DominatingSequence:
    """For each part B of the partition at the center, a choice function
    picking, per coordinate i, a point of X outside B whose d_i-distance
    to the center dominates all of X outside B.

    ``parts`` lists the branches at the center followed by the singleton
    part; ``choices[j][i-1]`` is the pick for part j and coordinate i.
    """

    center: FWord
    parts: tuple[frozenset, ...]
    choices: tuple[tuple[FWord, ...], ...]

    def image(self) -> frozenset:
        return frozenset(p for row in self.choices for p in row)


def dominating_sequence(points: Iterable[FWord], p: FWord) -> DominatingSequence:
    """Greedy construction: pick the d_i-farthest point from p globally,
    and fall back to the farthest point outside B only when the global
    pick lands inside B. Ties go to the smallest word in length-then-lex
    order. The image never exceeds 2k points: for each coordinate the
    global pick lies in a single branch, so at most one fallback appears.
    """
    pts = set(points)
    rank = _common_rank(pts)
    trie = _PrefixTrie(rank, sorted(_encode(x.letters) for x in pts))
    c = None if p.rank != rank or p in pts else trie.find(_encode(p.letters))
    if c is None:
        raise DomainError("center must be a vertex of the minimal tree outside the point set")
    parts = trie.parts(c) + (frozenset([p]),)
    dists = {x: dist_vector(p, x) for x in pts}

    # Deterministic argmax: largest distance, then smallest word.
    def pick(i: int, pool: set) -> FWord:
        best = max(dists[x][i - 1] for x in pool)
        return min((x for x in pool if dists[x][i - 1] == best), key=word_key)

    global_row = tuple(pick(i, pts) for i in range(1, rank + 1))
    choices = []
    for part in parts:
        pool = pts - part
        if not pool:
            raise DomainError("every part must leave some point of X outside it")
        row = tuple(
            global_row[i - 1] if global_row[i - 1] in pool else pick(i, pool)
            for i in range(1, rank + 1)
        )
        choices.append(row)
    # The singleton part {p} excludes nothing from X, so its row is the
    # global one; keep parts and choices aligned regardless.
    return DominatingSequence(center=p, parts=parts, choices=tuple(choices))


@dataclass(frozen=True)
class FProgressionSpec:
    """Left translate of P(bounds) by ``translate``."""

    bounds: tuple[int, ...]
    translate: FWord

    def __post_init__(self):
        object.__setattr__(self, "bounds", tuple(self.bounds))
        if len(self.bounds) != self.translate.rank:
            raise DomainError(
                f"{len(self.bounds)} bounds for rank {self.translate.rank}"
            )
        if any(n < 0 for n in self.bounds):
            raise DomainError(f"bounds must be nonnegative, got {self.bounds}")

    def __str__(self) -> str:
        return f"{self.translate}*P({', '.join(map(str, self.bounds))})"


def progression_contains(spec: FProgressionSpec, x: FWord) -> bool:
    dv = dist_vector(spec.translate, x)
    return all(d <= n for d, n in zip(dv, spec.bounds))


def progression_trace(spec: FProgressionSpec, points: Iterable[FWord]) -> frozenset:
    return frozenset(x for x in points if progression_contains(spec, x))


def _empty_trace_spec(points_sorted: Sequence[FWord]) -> FProgressionSpec:
    # Zero bounds and a translate strictly farther out along a_1 than any
    # point: the only candidate member is the translate itself, which by
    # construction is not one of the points.
    rank = points_sorted[0].rank
    top = max(sum(1 for v in x.letters if abs(v) == 1) for x in points_sorted)
    g = FWord(rank, (1,) * (top + 1))
    return FProgressionSpec((0,) * rank, g)


def _encode(letters: tuple[int, ...]) -> tuple[int, ...]:
    """Letter codes of signed letters: a_i is 2i - 2 and a_i^-1 is 2i - 1."""
    return tuple(2 * x - 2 if x > 0 else -2 * x - 1 for x in letters)


def _decode(codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-(c >> 1) - 1 if c & 1 else (c >> 1) + 1 for c in codes)


def _prefix_len(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """The length of the longest common prefix of code words u <= v."""
    return next((i for i, (a, b) in enumerate(zip(u, v)) if a != b), len(u))


def _leaf_only(words: Sequence[tuple[int, ...]]) -> bool:
    """Whether every point has degree at most 1 in the minimal tree of the
    distinct code words ``words``, in lexicographic order. Only the root, the
    least word when it is a prefix of the greatest, may be a prefix of other
    points, and then only with one letter after it in all of them. A word's
    extensions come right after it.
    """
    root = words[0]
    if words[-1][: len(root)] == root:
        words = words[1:]
        if words and words[0][len(root)] != words[-1][len(root)]:
            return False
    return all(b[: len(a)] != a for a, b in zip(words, words[1:]))


def _tripod_center(words: Sequence[tuple[int, ...]]) -> Optional[tuple[int, ...]]:
    """The code word of the vertex outside the points with three branches
    of n/3 points each, or None, for n distinct code words in lexicographic
    order, n a multiple of 3. It is unique: two branches of a second one
    would lie in one branch of the first.

    A vertex's subtree holds consecutive words. At the root ``top``, the
    words' common prefix, the letter after top forms three blocks of n/3
    words. Any other center c is the common prefix of 2n/3 consecutive
    words, not the first of them, that neither neighbour starts with, and
    the letter after c changes once, after n/3 of them.
    """
    arm = len(words) // 3
    k = _prefix_len(words[0], words[-1])
    if len(words[0]) > k:
        after = [w[k] for w in words]
        if after[0] == after[arm - 1] != after[arm] == after[2 * arm - 1] != after[2 * arm] == after[-1]:
            return words[0][:k]
    for i in range(arm + 1):
        first, last = words[i], words[i + 2 * arm - 1]
        m = _prefix_len(first, last)
        c = first[:m]
        if (
            m < len(first)
            and (i == 0 or words[i - 1][:m] != c)
            and (i == arm or words[i + 2 * arm][:m] != c)
            and first[m] == words[i + arm - 1][m]
            and words[i + arm][m] == last[m]
        ):
            return c
    return None


class _PrefixTrie:
    """The minimal tree of a point set, as the prefix trie of the points'
    distinct code words ``words``, in lexicographic order, past ``top``,
    their longest common prefix.

    Node c is the vertex whose word is ``top`` plus the trie path to c, so
    node 0 is ``top``, the vertex nearest the identity. The trie is built
    one level at a time, each level's nodes in the code order of their
    paths, so node indices follow word_key order of the vertices and
    children come after their parents. ``kids[c]`` maps a letter to the
    child across it, in code order, ``edge[c]`` is the parent and letter of
    the edge into c, ``below[c]`` is the bitmask of points (bit j for
    ``words[j]``) in the subtree of c, and ``at[j]`` is the node of point j.
    Past ``MAX_TRIE_SLOTS``, rows charged when the trie is made and letters
    when ``vertex`` builds a word, it raises ResourceLimitError.
    """

    def __init__(self, rank: int, words: Sequence[tuple[int, ...]]):
        k = _prefix_len(words[0], words[-1])
        self.rank, self.top, self.n, self.slots = rank, words[0][:k], len(words), 0
        self.kids, self.edge, self.below, self.at = [], [(0, 0)], [], [0] * self.n
        # Node c holds words[lo:hi], whose letter i follows its path. The
        # word that ends at c comes first, then one run per child's letter.
        spans = [(0, len(words), k)]
        for c, (lo, hi, i) in enumerate(spans):
            self.below.append((1 << hi) - (1 << lo))
            if len(words[lo]) == i:
                self.at[lo] = c
                lo += 1
            kids = {}
            while lo < hi:
                a, end = words[lo][i], lo + 1
                while end < hi and words[end][i] == a:
                    end += 1
                kids[a] = len(spans)
                self.edge.append((c, a))
                spans.append((lo, end, i + 1))
                lo = end
            self.kids.append(kids)
        self._charge(3 * rank * len(self.edge))

    def _charge(self, slots: int) -> None:
        self.slots += slots
        if self.slots > MAX_TRIE_SLOTS:
            raise ResourceLimitError(f"the minimal tree needs over {MAX_TRIE_SLOTS} letter and row slots")

    def find(self, code: tuple[int, ...]) -> Optional[int]:
        """The node of the vertex with code word ``code``, or None when it is
        not a vertex of the tree."""
        k = len(self.top)
        c = 0 if code[:k] == self.top else None
        for a in code[k:]:
            c = None if c is None else self.kids[c].get(a)
        return c

    def vertex(self, c: int) -> FWord:
        path = []
        while c:
            c, a = self.edge[c]
            path.append(a)
        self._charge(len(self.top) + len(path))
        return FWord(self.rank, _decode(self.top + tuple(reversed(path))))

    def parts(self, c: int) -> tuple[frozenset, ...]:
        """The vertex sets of the components of the tree minus node c, in
        word_key order: the part above c, which holds the root, unless c is
        the root, then the child subtrees of c in the code order of their
        edges. Children have larger indices than their parents, so one
        forward pass over ``edge`` puts every node after c in its part; the
        nodes before c lie above it.
        """
        kids = self.kids[c]
        part_of = {d: [d] for d in kids.values()}
        above = list(range(c))
        for d in range(c + 1, len(self.edge)):
            parent = self.edge[d][0]
            if parent in part_of:
                part_of[d] = part_of[parent]
                part_of[d].append(d)
            elif parent != c:
                above.append(d)
        parts = ([above] if c else []) + [part_of[d] for d in kids.values()]
        return tuple(frozenset(map(self.vertex, part)) for part in parts)

    def rows(self) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
        """``rows[c][i][j]`` = d_{i+1}(vertex c, point j), and
        ``masks[c][i]`` = ``_thresholds(rows[c][i])``.

        At the root it is cnt(point j), the letter count of its word past top.
        Crossing the edge into a child labelled a_i^(+-1) changes coordinate
        i only: by -1 for the points below the child, +1 for the rest. The
        child shares its other coordinates' lists with its parent, so each
        list's threshold masks are built once.
        """
        size = len(self.edge)
        cnt = [(0,) * self.rank]
        for c in range(1, size):
            parent, a = self.edge[c]
            counts = list(cnt[parent])
            counts[a >> 1] += 1
            cnt.append(tuple(counts))
        rows = [[[cnt[c][i] for c in self.at] for i in range(self.rank)]]
        masks = [[_thresholds(values) for values in rows[0]]]
        for c in range(1, size):
            parent, a = self.edge[c]
            i, sub = a >> 1, self.below[c]
            row, mrow = list(rows[parent]), list(masks[parent])
            row[i] = [d - 1 if sub >> j & 1 else d + 1 for j, d in enumerate(row[i])]
            mrow[i] = _thresholds(row[i])
            rows.append(row)
            masks.append(mrow)
        return rows, masks


def _thresholds(values: Sequence[int]) -> list[int]:
    """The masks {j : values[j] <= t}, one per distinct value t."""
    by_value: dict[int, int] = {}
    for j, v in enumerate(values):
        by_value[v] = by_value.get(v, 0) | 1 << j
    masks, acc = [], 0
    for v in sorted(by_value):
        acc |= by_value[v]
        masks.append(acc)
    return masks


def _vertex_traces(mask_row: Sequence[Sequence[int]], full: int) -> set[int]:
    """The nonempty traces cut out at one vertex, from the threshold masks
    of its distance row.

    Bounds N give the trace {x : d(h, x) <= N}, the AND of one threshold
    mask per coordinate, so the traces are the AND-combinations of the
    threshold masks, de-duplicated after each coordinate.
    """
    traces = {full}
    for masks in mask_row:
        traces = {t & m for t in traces for m in masks}
        traces.discard(0)
    return traces


def is_shattered_free(points: Iterable[FWord]) -> ShatterReport:
    """Exhaustive shattering check against all translated progressions.

    The points are in the lexicographic order of their code words, as the
    trie numbers them. The trie's nodes are visited by index, which is
    word_key order, so each trace maps to the first vertex in word_key
    order that cuts it out, with the componentwise-minimal bounds there;
    witnesses found at one vertex share its translate. The visit stops
    once every subset is present. More than ``DEFAULT_SET_CAP`` points
    raise ResourceLimitError.
    """
    pts = set(points)
    rank = _common_rank(pts)
    if len(pts) > DEFAULT_SET_CAP:
        raise ResourceLimitError(f"point set of size {len(pts)} exceeds cap {DEFAULT_SET_CAP}")
    by_code = {_encode(x.letters): x for x in pts}
    words = sorted(by_code)
    pts = [by_code[w] for w in words]
    trie = _PrefixTrie(rank, words)
    full = (1 << trie.n) - 1
    traces = {0: _empty_trace_spec(pts)}
    rows, masks = trie.rows()
    for c in range(len(rows)):
        row, vertex = rows[c], None
        for t in _vertex_traces(masks[c], full):
            if t not in traces:
                if vertex is None:
                    vertex = trie.vertex(c)
                kept = [j for j in range(trie.n) if t >> j & 1]
                bounds = tuple(max(values[j] for j in kept) for values in row)
                traces[t] = FProgressionSpec(bounds, vertex)
        if len(traces) > full:
            break
    return ShatterReport(tuple(pts), traces)


def cuts_out_free(points: Iterable[FWord], subset: Iterable[FWord]) -> Optional[FProgressionSpec]:
    """A translated progression whose trace on the points is exactly the
    subset, or None if no translate achieves it. Past ``DEFAULT_SET_CAP``
    points it raises ResourceLimitError."""
    report = is_shattered_free(points)
    sub = set(subset)
    if not sub <= report.target:
        raise DomainError("subset must be contained in the point set")
    return report.traces.get(sum(1 << j for j, x in enumerate(report.points) if x in sub))


def tripod_profile(points: Iterable[FWord]) -> Optional[tuple[FWord, tuple[frozenset, ...]]]:
    """A vertex of the minimal tree, outside the points, with exactly three
    branches each containing a third of the points; None if there is none.

    For a set of size 3k shattered by translated progressions such a vertex
    must exist, so absence certifies non-shattering for those sets.
    """
    pts = set(points)
    rank = _common_rank(pts)
    if not pts or len(pts) % 3:
        raise DomainError(f"point count {len(pts)} is not a positive multiple of 3")
    words = sorted(_encode(x.letters) for x in pts)
    center = _tripod_center(words)
    if center is None:
        return None
    trie = _PrefixTrie(rank, words)
    c = trie.find(center)
    return trie.vertex(c), trie.parts(c)


def _decide_shattered(rank: int, words: Sequence[tuple[int, ...]]) -> str:
    """Verdict for distinct code words in lexicographic order, cheapest
    certificates first.

    Returns one of "rejected-leaf", "rejected-tripod", "rejected-scan",
    "shattered". The two filters are sound: translated progressions are
    connected, so a shattered set consists of leaves of its minimal tree;
    and a shattered set of size 3k admits a tripod vertex. Both read the
    sorted words, so only the sets that reach the scan build a trie.
    """
    if not _leaf_only(words):
        return "rejected-leaf"
    if len(words) == 3 * rank and _tripod_center(words) is None:
        return "rejected-tripod"
    trie = _PrefixTrie(rank, words)
    full = (1 << trie.n) - 1
    seen: set[int] = set()
    for mask_row in trie.rows()[1]:
        seen |= _vertex_traces(mask_row, full)
        if len(seen) == full:
            return "shattered"
    return "rejected-scan"


def sample_word(rng: random.Random, rank: int, max_len: int) -> FWord:
    """Uniform length in 0..max_len, then uniform reduced letters."""
    length = rng.randint(0, max_len)
    letters: list[int] = []
    pool = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for _ in range(length):
        choices = [x for x in pool if not letters or x != -letters[-1]]
        letters.append(rng.choice(choices))
    return FWord(rank, tuple(letters))


def _sample_point_codes(rng: random.Random, rank: int, size: int, max_len: int) -> list[tuple[int, ...]]:
    """Distinct words drawn as ``sample_word`` draws them until there are
    ``size``, as codes in lexicographic order. An index below n is drawn as
    ``rng.getrandbits(n.bit_length())`` until it is below n: what ``randint``
    and ``choice`` consume on CPython 3.10 to 3.14, where tests compare the
    two. After code c, an index into the 2k - 1 letters skips c ^ 1.
    """
    getrandbits = rng.getrandbits
    n_len, n_first, n_next = max_len + 1, 2 * rank, 2 * rank - 1
    b_len, b_first, b_next = n_len.bit_length(), n_first.bit_length(), n_next.bit_length()
    pts: set[tuple[int, ...]] = set()
    attempts = 0
    while len(pts) < size:
        length = getrandbits(b_len)
        while length >= n_len:
            length = getrandbits(b_len)
        codes, n, b, ban = [], n_first, b_first, n_first  # the first letter bans none
        for _ in range(length):
            i = getrandbits(b)
            while i >= n:
                i = getrandbits(b)
            c = i + (i >= ban)
            codes.append(c)
            n, b, ban = n_next, b_next, c ^ 1
        pts.add(tuple(codes))
        attempts += 1
        if attempts > 1000 * size:
            raise ResourceLimitError(f"could not sample {size} distinct words of length <= {max_len}")
    return sorted(pts)


def sample_point_set(rng: random.Random, rank: int, size: int, max_len: int) -> frozenset:
    """Distinct words drawn by ``sample_word`` until there are ``size``."""
    _check_rank(rank)
    words = _sample_point_codes(rng, rank, size, max_len)
    return frozenset(FWord(rank, _decode(w)) for w in words)


def search_shattered_sets(rank: int, size: int, samples: int, seed: int, max_len: int = 12) -> dict:
    """Sample random point sets and decide shattering for each.

    The sets are those ``sample_point_set`` draws from one seeded
    generator, kept as code tuples; only the ``shattered`` ones become word
    texts. The report depends on the arguments alone. A ``size`` past
    ``DEFAULT_SET_CAP`` raises ResourceLimitError.
    """
    _check_rank(rank)
    if size < 1 or samples < 0 or max_len < 0:
        raise DomainError("size must be >= 1 and samples, max_len >= 0")
    if size > DEFAULT_SET_CAP:
        raise ResourceLimitError(f"set size {size} exceeds cap {DEFAULT_SET_CAP}")
    if max_len > MAX_WORD_LEN:
        raise ResourceLimitError(f"max_len {max_len} exceeds the {MAX_WORD_LEN}-letter word cap")
    rng = random.Random(seed)
    tally = {"rejected-leaf": 0, "rejected-tripod": 0, "rejected-scan": 0, "shattered": 0}
    shattered = []
    for _ in range(samples):
        # Decided as drawn, so memory does not grow with the sample count.
        words = _sample_point_codes(rng, rank, size, max_len)
        verdict = _decide_shattered(rank, words)
        tally[verdict] += 1
        if verdict == "shattered":
            # word_key order: a stable sort by length of the sorted tuples
            shattered.append([format_word(FWord(rank, _decode(w))) for w in sorted(words, key=len)])
    return {
        "rank": rank,
        "size": size,
        "samples": samples,
        "seed": seed,
        "max_len": max_len,
        "verdicts": tally,
        "shattered": shattered,
    }


def generator_shatter_witness(
    rank: int, bounds: Sequence[int], subset: Iterable[int]
) -> FProgressionSpec:
    """A translate of P(bounds) whose trace on {a_1, ..., a_k} is exactly
    the generators indexed by ``subset``; requires every bound >= 1.

    For empty subsets the translate a_1^(N_1 + 2) is far enough out to
    miss every generator. Otherwise, with j the least chosen index, the
    translate a_j * a_{i_1}^{N_{i_1}} * ... over the complement indices
    i_1 < i_2 < ... spends the full budget of each excluded generator.
    """
    _check_rank(rank)
    bounds = tuple(bounds)
    if len(bounds) != rank:
        raise DomainError(f"{len(bounds)} bounds for rank {rank}")
    if any(n < 1 for n in bounds):
        raise DomainError(f"bounds must all be at least 1, got {bounds}")
    chosen = set(subset)
    if chosen and not (1 <= min(chosen) and max(chosen) <= rank):
        raise DomainError(f"subset indices {sorted(chosen)} out of range 1..{rank}")
    length = 1 + sum(bounds) - sum(bounds[i - 1] for i in chosen) if chosen else bounds[0] + 2
    if length > MAX_WORD_LEN:
        raise ResourceLimitError(f"witness translate of {length} letters exceeds the {MAX_WORD_LEN} cap")
    if not chosen:
        g = power(generator(rank, 1), bounds[0] + 2)
    else:
        letters = [min(chosen)]
        for i in range(1, rank + 1):
            if i not in chosen:
                letters.extend([i] * bounds[i - 1])
        g = FWord(rank, tuple(letters))
    # Self-check from g's letter counts c (all letters positive): g^-1 * a_i
    # has counts c, except c_i - 1 when g starts with a_i and c_i + 1 if not.
    counts = [0] * (rank + 1)
    for x in g.letters:
        counts[x] += 1
    over = sum(c > n for c, n in zip(counts[1:], bounds))
    got = set()
    for i in range(1, rank + 1):
        c, n = counts[i], bounds[i - 1]
        if over == (c > n) and c + (-1 if g.letters[0] == i else 1) <= n:
            got.add(i)
    if got != chosen:
        raise RuntimeError(f"witness traced {sorted(got)} instead of {sorted(chosen)}")
    spec = FProgressionSpec(bounds, g)
    return spec
