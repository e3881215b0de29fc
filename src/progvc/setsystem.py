"""Finite set systems, shattering, and exact VC dimension.

A system is a finite ground sequence of distinct hashable points together
with a family of subsets, stored as integer bitmasks over ground indices,
so membership tests and traces are single AND operations.

The exact searches work on the transposed family, one column per ground
point, in two representations chosen by what each question needs.

``shatters`` and the VC searches ask whether a set is shattered. They
keep the members with equal trace on a point set as a cell, an int over
family indices; column i is the bitmask of family indices whose member
contains ground point i. Appending a point splits each cell X into
``X & col`` and ``X ^ (X & col)``, and an s-set is shattered iff it has 2^s
cells. ``vc_dimension_exact`` and ``translate_vc``, the VC dimension of
the translates of a finite set in a group, share one walk that extends
only shattered sets, so it stops at the first cell a point leaves whole.

``shatter_function`` needs the full trace count at every node of its walk,
so it keeps each member's trace as a byte in one int over the members:
column i holds a 0/1 byte per member, shifted left by the point's depth
mod 8. Appending a point is one OR, and counting traces is one C-level
count of distinct bytes, or of distinct byte tuples once more than 8
points are chosen, where a cell list would take one Python step per cell.
It prunes every subtree whose count, doubled once per remaining point,
cannot beat the best count.

A ``ShatterReport`` keeps each realized trace as a mask over the target's
points and renders its report from the masks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Hashable, Iterable, Mapping, Optional, Sequence

from .errors import DomainError, ResourceLimitError

# Guards for exhaustive searches. These stop runaway inputs; results below
# the caps are exact, never sampled. WORK_CAP, read when a search is called,
# bounds the nodes of the VC walk (with translate_vc's set-up products) and
# the n-subsets shatter_function may test.
DEFAULT_TARGET_CAP = 20
WORK_CAP = 2_000_000


@dataclass(frozen=True)
class ShatterReport:
    """Outcome of testing whether a family shatters a target set.

    ``traces`` maps each realized subset of the target ``points``, as a
    bitmask with bit j for ``points[j]``, to one witness: a family member
    for set systems, a progression spec for free groups. The frozenset
    views ``target``, ``witnesses`` and ``missing`` are built on use; the
    last two list subsets in canonical order, as ``to_json`` prints them.
    """

    points: tuple
    traces: dict

    @property
    def shattered(self) -> bool:
        return len(self.traces) == 1 << len(self.points)

    @property
    def verdict(self) -> str:
        return "shattered" if self.shattered else "not-shattered"

    @property
    def target(self) -> frozenset:
        return frozenset(self.points)

    def _subset(self, mask: int) -> frozenset:
        return frozenset(p for j, p in enumerate(self.points) if mask >> j & 1)

    def _canonical(self) -> list:
        # Masks by size, then by sorted reprs: combinations of the points
        # ranked by repr.
        rep = [repr(p) for p in self.points]
        bits = [1 << j for j in sorted(range(len(rep)), key=rep.__getitem__)]
        return [m for k in range(len(bits) + 1) for m in map(sum, combinations(bits, k))]

    @functools.cached_property
    def witnesses(self) -> dict:
        return {self._subset(m): self.traces[m] for m in self._canonical() if m in self.traces}

    @functools.cached_property
    def missing(self) -> tuple:
        return tuple(self._subset(m) for m in self._canonical() if m not in self.traces)

    def to_json(self, witness_json=None) -> dict:
        """Subsets as sorted ``str`` lists, in canonical order.

        Adding the points in ``str`` order to every mask so far gives each
        subset's list once. The order stays keyed on ``repr``, not ``str``:
        they differ for generic labels (``"a!"`` sorts before ``"a"`` by
        ``repr``), and reports must keep their bytes.
        """
        text = [str(p) for p in self.points]
        masks, lists = [0], [[]]
        for j in sorted(range(len(text)), key=text.__getitem__):
            masks += [m | 1 << j for m in masks]
            lists += [s + [text[j]] for s in lists]
        enc = dict(zip(masks, lists))
        if witness_json is None:
            witness_json = lambda w: sorted(map(str, w))
        order, traces = self._canonical(), self.traces
        return {
            "target": list(lists[-1]),
            "verdict": self.verdict,
            "missing": [enc[m] for m in order if m not in traces],
            "witnesses": [{"subset": enc[m], "witness": witness_json(traces[m])} for m in order if m in traces],
        }


class SetSystem:
    """Ground sequence plus a deduplicated family of subsets."""

    def __init__(self, ground: Sequence[Hashable], family: Iterable[Iterable[Hashable]]):
        ground = tuple(ground)
        if len(set(ground)) != len(ground):
            raise DomainError("ground points must be distinct")
        self.ground = ground
        self._index = {p: i for i, p in enumerate(ground)}
        masks = set()
        for member in family:
            mask = 0
            for p in member:
                if p not in self._index:
                    raise DomainError(f"family member contains {p!r} outside the ground set")
                mask |= 1 << self._index[p]
            masks.add(mask)
        self.masks = tuple(sorted(masks))

    @classmethod
    def from_masks(cls, ground: Sequence[Hashable], masks: Iterable[int]) -> "SetSystem":
        sys = cls(ground, ())
        masks = set(masks)
        full = (1 << len(sys.ground)) - 1
        if any(m < 0 or m & ~full for m in masks):
            raise DomainError("mask has bits outside the ground set")
        sys.masks = tuple(sorted(masks))
        return sys

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, SetSystem)
            and self.ground == other.ground
            and self.masks == other.masks
        )

    def __repr__(self) -> str:
        return f"SetSystem(|ground|={len(self.ground)}, |family|={len(self.masks)})"

    def mask_of(self, points: Iterable[Hashable]) -> int:
        mask = 0
        for p in points:
            if p not in self._index:
                raise DomainError(f"{p!r} is not a ground point")
            mask |= 1 << self._index[p]
        return mask

    def points_of(self, mask: int) -> frozenset:
        return frozenset(p for p, i in self._index.items() if mask >> i & 1)

    def members(self) -> tuple:
        return tuple(self.points_of(m) for m in self.masks)

    @classmethod
    def from_json(cls, obj: Mapping) -> "SetSystem":
        try:
            ground, family = obj["ground"], obj["family"]
        except (KeyError, TypeError) as exc:
            raise DomainError("set system JSON needs 'ground' and 'family' keys") from exc
        # A string or object would otherwise iterate as its characters or keys.
        if not isinstance(ground, list) or not isinstance(family, list):
            raise DomainError("set system 'ground' and 'family' must be JSON arrays")
        if any(isinstance(p, (list, dict)) for p in ground):
            raise DomainError("ground labels must be JSON scalars, not lists or objects")
        n = len(ground)
        masks = []
        for member in family:
            if not isinstance(member, list):
                raise DomainError(f"family member {member!r} is not a list of indices")
            mask = 0
            for i in member:
                # JSON true and false load as bools, which are ints.
                if isinstance(i, bool) or not isinstance(i, int):
                    raise DomainError(f"family index {i!r} is not an integer")
                if not 0 <= i < n:
                    raise DomainError(f"family index {i!r} out of range for ground of size {n}")
                mask |= 1 << i
            masks.append(mask)
        return cls.from_masks(ground, masks)


def cuts_out(sys: SetSystem, target: Iterable[Hashable], sub: Iterable[Hashable]) -> Optional[frozenset]:
    """First family member whose trace on target equals sub, or None.

    Requires sub to be a subset of target and target a subset of the ground.
    """
    tmask = sys.mask_of(target)
    smask = sys.mask_of(sub)
    if smask & ~tmask:
        raise DomainError("sub must be contained in target")
    for m in sys.masks:
        if m & tmask == smask:
            return sys.points_of(m)
    return None


def _columns(masks: Sequence[int], n: int) -> list:
    """Transpose a family on n points: bit k of ``cols[i]`` is set iff member k holds point i."""
    cols = [0] * n
    for k, m in enumerate(masks):
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= 1 << k
            m ^= low
    return cols


def shatters(sys: SetSystem, target: Iterable[Hashable], cap: int = DEFAULT_TARGET_CAP) -> ShatterReport:
    """Exhaustive shattering check over all subsets of the target.

    The family is partitioned by trace on the target one column at a time;
    each cell is tagged with its trace, a mask over the target's points in
    ground order, and its lowest family index is the first witness in
    ``sys.masks`` order.
    """
    tmask = sys.mask_of(target)
    t = bin(tmask).count("1")
    if t > cap:
        raise ResourceLimitError(f"target of size {t} exceeds shatter cap {cap}")
    bits = [i for i in range(len(sys.ground)) if tmask >> i & 1]
    cols = _columns(sys.masks, len(sys.ground))

    cells = [(0, (1 << len(sys.masks)) - 1)] if sys.masks else []
    for j, b in enumerate(bits):
        split = []
        for small, x in cells:
            inside = x & cols[b]
            if inside:
                split.append((small | 1 << j, inside))
            if inside != x:
                split.append((small, x ^ inside))
        cells = split
    traces = {small: sys.points_of(sys.masks[(x & -x).bit_length() - 1]) for small, x in cells}
    return ShatterReport(tuple(sys.ground[b] for b in bits), traces)


def _walk(cols: list, compat: list, root: tuple, deepest: int, budget: int) -> tuple:
    """The deepest shattered set that extends ``root``, by depth-first search.

    A node is (cells, depth, candidates, chosen): the partition of the
    family by trace on the chosen points, and masks of the points that may
    still join and of those chosen. Trying the lowest candidate j splits
    every cell by column j, stopping at the first cell it leaves whole; if
    every cell splits, the child has j chosen and its candidates cut to
    ``compat[j]``. The node then goes on without j. Only shattered sets are
    extended, since subsets of shattered sets are shattered, and a node
    that cannot pass ``deepest`` or the best depth so far is skipped.
    Trying more than ``budget`` points raises ResourceLimitError with the
    best depth, a certified lower bound, as ``partial``.
    Returns the deepest node and the number of points tried.
    """
    found, best, nodes = root, root[1], 0
    # A popped node has depth <= best, so the bound also ends it once no
    # candidate is left; at depth ``deepest`` the walk is done.
    stack = [root] if best < deepest else []
    pop, push = stack.pop, stack.append
    while stack:
        cells, d, rem, chosen = pop()
        if d + rem.bit_count() <= best:
            continue
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(f"walk needs more than the {budget} nodes left of the work cap", partial=best)
        low = rem & -rem
        j = low.bit_length() - 1
        rem ^= low
        push((cells, d, rem, chosen))
        col = cols[j]
        # Split every cell, stopping at the first one the point leaves whole.
        split = []
        for x in cells:
            inside = x & col
            if not inside or inside == x:
                break
            split += (inside, x ^ inside)
        else:
            child = (split, d + 1, rem & compat[j], chosen | low)
            if d + 1 > best:
                found, best = child, d + 1
                if best == deepest:
                    break
            push(child)
    return found, nodes


def vc_dimension_exact(sys: SetSystem, cap: int = DEFAULT_TARGET_CAP) -> Optional[int]:
    """Largest size of a shattered subset of the ground, by exhaustive search.

    Returns None for an empty family: no set is shattered, not even the
    empty one, so the dimension is undefined there rather than 0. With a
    nonempty family the empty set is always shattered and the result is a
    certified exact value. ``_walk`` runs from the empty set with every
    point a candidate, so it visits the combination tree in index order.

    ``cap`` bounds the subset size searched; a family that could still
    shatter a larger set raises ResourceLimitError with the certified lower
    bound as ``partial``. The walk's nodes are charged to ``WORK_CAP``, as
    in ``translate_vc``; past it ResourceLimitError carries the best depth
    found as ``partial``.
    """
    if not sys.masks:
        return None
    n = len(sys.ground)
    size = len(sys.masks)
    top = min(cap, n)
    # The sizes the search may certify: at most top, and 2^s <= |F|.
    deepest = min(top, size.bit_length() - 1)
    every = (1 << n) - 1
    root = ([(1 << size) - 1], 0, every, 0)
    (_, best, _, _), _ = _walk(_columns(sys.masks, n), [every] * n, root, deepest, WORK_CAP)
    if best >= top and top < n and size >= 2 ** (top + 1):
        raise ResourceLimitError(
            f"dimension at least {best} but search capped at subset size {top}",
            partial=best,
        )
    return best


def translate_vc(K: Iterable, mul, inv, identity) -> dict:
    """Exact VC dimension of the left translates g*K of a finite K = K^-1
    in an infinite group with product ``mul`` and inverse ``inv``.

    With B = K*K, a shattered set moved to contain the identity lies in B
    (each pair s, t of it lies in one translate, so s^-1*t is in B), and
    g*K meets B only if g is in B*K. So the dimension is that of the system
    {g*K & B : g in B*K} plus the empty trace of all other translates, on
    ground B. ``_walk`` runs on it from the identity, and t joins a set only
    if s^-1*t is in B for each s in it. B and the translates keep the order
    of the products over K's order. The products of each stage (|K|^2 for
    B, |B|^2 for the pairs, |B|*|K| for the translates), checked before it
    runs, and the walk's nodes share ``WORK_CAP``; past it ResourceLimitError
    carries the certified depth as ``partial`` (1, for {identity}, in
    set-up). The witness maps each subset of the shattered set to a
    translate; only the empty one may need a translate outside B*K, None
    when K generates a finite subgroup and so no product of K is one.
    """
    K = list(dict.fromkeys(K))
    if not K or set(map(inv, K)) != set(K):
        raise DomainError("K must be nonempty and closed under inverses")
    work = len(K) ** 2
    if work > WORK_CAP:
        raise ResourceLimitError(f"{len(K)}^2 products for K*K exceed work cap {WORK_CAP}", partial=1)
    index = {}
    for a in K:
        for b in K:
            index.setdefault(mul(a, b), len(index))
    ground, n = list(index), len(index)
    work += n * n + n * len(K)  # for the pairs and the translates
    if work > WORK_CAP:
        raise ResourceLimitError(f"{work} set-up products for |B| = {n} exceed work cap {WORK_CAP}", partial=1)
    compat = [sum(1 << i for i, t in enumerate(ground) if mul(s_inv, t) in index) for s_inv in map(inv, ground)]
    traces = {}  # g*K holds b exactly when g = b*k for some k in K = K^-1.
    for i, b in enumerate(ground):
        for k in K:
            g = mul(b, k)
            traces[g] = traces.get(g, 0) | 1 << i
    first = {}  # the first translate with each trace
    for g, mask in traces.items():
        first.setdefault(mask, g)
    masks, members = [*first, 0], list(first.values())
    e, cols = index[identity], _columns(masks, n)
    root = ([cols[e], ((1 << len(masks)) - 1) ^ cols[e]], 1, ((1 << n) - 1) ^ (1 << e), 1 << e)
    deepest = len(masks).bit_length() - 1
    (cells, vc, _, chosen), nodes = _walk(cols, compat, root, deepest, budget=WORK_CAP - work)
    bits = [i for i in range(n) if chosen >> i & 1]
    witness = {}
    for x in cells:
        k = (x & -x).bit_length() - 1
        trace = sum(1 << j for j, i in enumerate(bits) if masks[k] >> i & 1)
        # Only the empty trace's cell may hold no translate from B*K.
        far = (h for t in traces for a in K if (h := mul(t, a)) not in traces)
        witness[trace] = members[k] if k < len(members) else next(far, None)
    report = ShatterReport(tuple(ground[i] for i in bits), witness)
    return {"vc": vc, "ground_size": n, "translates": len(traces), "nodes": nodes, "witness": report}


def shatter_function(sys: SetSystem, n: int) -> int:
    """Maximum number of distinct traces over any n-point subset of the ground.

    A depth-first walk of the n-subsets keeps, per node, each member's trace
    on the node's points as a code in the byte lanes of one int: byte k is
    member k's trace on the points chosen since the last multiple of 8, and
    each earlier run of 8 points is frozen as a ``bytes`` plane. Appending
    the point at depth d ORs in its 0/1 byte column shifted by d mod 8. The
    node's trace count is the number of distinct bytes until a plane is
    frozen, and of distinct byte tuples across planes and lane after. Each
    appended point at most doubles the count, so a node with c traces at
    depth d is skipped once min(c * 2^(n-d), |F|) cannot beat the best
    count, and the walk stops at min(2^n, |F|). More than ``WORK_CAP``
    n-subsets of the ground raise ResourceLimitError before the walk; a
    count of the n-subsets tested would not bound its internal nodes.
    """
    g = len(sys.ground)
    if not 0 <= n <= g:
        raise DomainError(f"shatter function needs 0 <= n <= {g}, got {n}")
    if math.comb(g, n) > WORK_CAP:
        raise ResourceLimitError(f"{math.comb(g, n)} candidate subsets exceed work cap {WORK_CAP}")
    size = len(sys.masks)
    if n == 0 or size == 0:
        return min(size, 1)
    cols = [int.from_bytes(bytes(m >> i & 1 for m in sys.masks), "little") for i in range(g)]
    shifted = [[c << r for c in cols] for r in range(min(n, 8))]
    best = 0
    # Stack of (codes, planes, traces, depth, next point), one entry per
    # depth, so n is not bounded by the recursion limit; a child is pushed
    # after its parent's next sibling, so the walk stays depth-first.
    stack = [(0, (), 1, 0, 0)]
    while stack:
        codes, planes, c, d, j = stack.pop()
        if j > g - n + d or min(c << (n - d), size) <= best:
            continue
        if d + 1 == n:
            # The leaves under this node, until one reaches its bound.
            bound = min(c << 1, size)
            for col in shifted[d & 7][j : g - n + d + 1]:
                t = _count_traces(planes, (codes | col).to_bytes(size, "little"))
                if t > best:
                    best = t
                    if best >= bound:
                        break
            continue
        stack.append((codes, planes, c, d, j + 1))
        codes |= shifted[d & 7][j]
        lane = codes.to_bytes(size, "little")
        c = _count_traces(planes, lane)
        if d & 7 == 7:
            stack.append((0, planes + (lane,), c, d + 1, j + 1))
        else:
            stack.append((codes, planes, c, d + 1, j + 1))
    return best


_BYTE_VALUES = bytes(range(256))


def _count_traces(planes: tuple, lane: bytes) -> int:
    """Distinct traces of the members, given the frozen planes and the
    current byte lane: a member's trace is its byte in each."""
    if planes:
        return len(set(zip(*planes, lane)))
    return 256 - len(_BYTE_VALUES.translate(None, lane))


def complement_system(sys: SetSystem) -> SetSystem:
    """System of complements of the members within the same ground."""
    full = (1 << len(sys.ground)) - 1
    return SetSystem.from_masks(sys.ground, (full & ~m for m in sys.masks))


def intersection_system(a: SetSystem, b: SetSystem) -> SetSystem:
    """All pairwise intersections of members of a and b over a shared ground."""
    if a.ground != b.ground:
        raise DomainError("intersection requires identical ground sequences")
    return SetSystem.from_masks(a.ground, (m1 & m2 for m1 in a.masks for m2 in b.masks))


def preimage_system(mapping: Mapping[Hashable, Hashable], sys: SetSystem) -> SetSystem:
    """Pull the family back through a map from a new ground into sys.ground."""
    new_ground = tuple(mapping.keys())
    for p, q in mapping.items():
        if q not in sys._index:
            raise DomainError(f"{p!r} maps to {q!r} which is not a ground point")
    masks = []
    for m in sys.masks:
        pre = 0
        for j, p in enumerate(new_ground):
            if m >> sys._index[mapping[p]] & 1:
                pre |= 1 << j
        masks.append(pre)
    return SetSystem.from_masks(new_ground, masks)
