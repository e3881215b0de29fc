"""Tests for free-group words, tree geometry, and progression shattering.

The complete cut-out search is validated against an independent oracle in
rank 1, where translated progressions are exactly the integer intervals
[g - N, g + N] and existence of a cutting interval can be decided by a
direct window scan. In ranks 1 to 3 the trie-based trace family is checked
against a brute-force scan over the reference ``minimal_tree``.
"""

import random
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from progvc import freegroup
from progvc.errors import DomainError, ResourceLimitError
from progvc.freegroup import (
    _decide_shattered,
    _decode,
    _encode,
    _leaf_only,
    _PrefixTrie,
    _sample_point_codes,
    _tripod_center,
    DominatingSequence,
    FProgressionSpec,
    FWord,
    MAX_RANK,
    MAX_WORD_LEN,
    cuts_out_free,
    dist_vector,
    dominating_sequence,
    format_word,
    generator,
    generator_shatter_witness,
    identity,
    invert,
    is_shattered_free,
    leaves,
    minimal_tree,
    multiply,
    parse_word,
    path,
    power,
    progression_contains,
    progression_trace,
    sample_point_set,
    sample_word,
    search_shattered_sets,
    tripod_profile,
    word_key,
)


def neighbors(tree, v):
    """The vertices of the tree one generator step from v: its neighbours in
    the Cayley tree, worked out without the tree's own adjacency."""
    steps = [generator(tree.rank, i) for i in range(1, tree.rank + 1)]
    steps += [invert(g) for g in steps]
    return [w for w in (multiply(v, g) for g in steps) if w in tree]


def branches(tree, p):
    """Connected components of the tree with p removed, in canonical order:
    the path-based oracle for the trie's ``parts``."""
    if p not in tree.vertices:
        raise DomainError(f"{p} is not a vertex of the tree")
    remaining = set(tree.vertices) - {p}
    parts = []
    while remaining:
        seed = min(remaining, key=word_key)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for w in neighbors(tree, v):
                if w in remaining and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        remaining -= comp
        parts.append(frozenset(comp))
    return tuple(sorted(parts, key=lambda c: word_key(min(c, key=word_key))))


def branches_star(tree, p):
    """Branches at p followed by the singleton {p}; a partition of the tree."""
    return branches(tree, p) + (frozenset([p]),)


def w2(text):
    return parse_word(2, text)


def w1(value):
    return power(generator(1, 1), value)


def fwords(rank=2, max_len=8):
    letter = st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)])
    return st.lists(letter, max_size=max_len).map(lambda ls: FWord(rank, tuple(ls)))


def reference_four_set():
    return [w2("1^10"), w2("2^-10"), w2("1^-5"), w2("2^5*1^3")]


# ------------------------------------------------------------------ words


def test_construction_reduces():
    assert FWord(1, (1, -1)).letters == ()
    assert FWord(2, (1, 2, -2, -1, 2)).letters == (2,)


def test_construction_rejects_bad_letters():
    with pytest.raises(DomainError):
        FWord(2, (0,))
    with pytest.raises(DomainError):
        FWord(2, (3,))
    with pytest.raises(DomainError):
        FWord(0, ())


def test_multiply_and_invert_examples():
    assert multiply(w2("1^1*2^1"), w2("2^-1*1^1")) == w2("1^2")
    assert invert(w2("2^5*1^3")) == w2("1^-3*2^-5")
    assert str(invert(w2("2^5*1^3"))) == "1^-3*2^-5"


@given(fwords(), fwords(), fwords())
def test_group_axioms(u, v, w):
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))
    e = identity(2)
    assert multiply(u, e) == u == multiply(e, u)
    assert multiply(u, invert(u)) == e


def test_parse_and_format():
    assert w2("e") == identity(2)
    assert parse_word(1, "1^0") == identity(1)
    assert w2("2^5*1^3").letters == (2, 2, 2, 2, 2, 1, 1, 1)
    assert w2("1^-5").letters == (-1,) * 5
    assert format_word(w2("2^5*1^3")) == "2^5*1^3"
    assert format_word(FWord(2, (1, 1, 1, -2, -2))) == "1^3*2^-2"
    assert format_word(identity(2)) == "e"
    for bad in ("0^2", "3^1", "1^", "x", ""):
        with pytest.raises(DomainError):
            w2(bad)


def test_parse_word_length_cap():
    assert len(w2(f"1^{MAX_WORD_LEN}")) == MAX_WORD_LEN
    assert w2(f"1^{MAX_WORD_LEN // 2}*1^-{MAX_WORD_LEN // 2}") == identity(2)
    for over in (f"1^-{MAX_WORD_LEN + 1}", f"2^{MAX_WORD_LEN}*1^1", "1^99999999999999999999"):
        with pytest.raises(DomainError, match="expands past"):
            w2(over)


@given(fwords())
def test_text_round_trip(u):
    assert parse_word(2, format_word(u)) == u


def test_word_key_orders_by_length_then_letters():
    words = [w2(t) for t in ("1^-1", "e", "2^1", "1^2", "1^1", "2^-1")]
    assert sorted(words, key=word_key) == [
        w2(t) for t in ("e", "1^1", "1^-1", "2^1", "2^-1", "1^2")
    ]


# ----------------------------------------------------------------- metrics


def test_distance_examples():
    assert dist_vector(w2("1^10"), w2("2^-10")) == (10, 10)
    assert dist_vector(identity(2), w2("2^5*1^3")) == (3, 5)
    assert dist_vector(w2("1^4*2^2"), w2("1^4*2^2")) == (0, 0)
    # One coordinate per generator, so none past the rank.
    assert len(dist_vector(identity(3), identity(3))) == 3
    with pytest.raises(DomainError):
        dist_vector(identity(1), identity(2))


@given(fwords(), fwords(), fwords())
def test_pseudometric_axioms(x, y, z):
    for i in (0, 1):
        assert dist_vector(x, y)[i] == dist_vector(y, x)[i]
        assert dist_vector(x, y)[i] <= dist_vector(x, z)[i] + dist_vector(z, y)[i]
    # The coordinates sum to the word metric.
    assert sum(dist_vector(x, y)) == len(multiply(invert(x), y))
    if sum(dist_vector(x, y)) == 0:
        assert x == y


@given(fwords(), fwords(), fwords())
def test_left_invariance(g, x, y):
    assert dist_vector(multiply(g, x), multiply(g, y)) == dist_vector(x, y)


def test_path_examples():
    e = identity(2)
    assert path(e, w2("1^1*2^1")) == [e, w2("1^1"), w2("1^1*2^1")]
    assert path(w2("2^3"), w2("2^3")) == [w2("2^3")]


@given(fwords(), fwords())
def test_path_shape(v, w):
    walk = path(v, w)
    assert walk[0] == v and walk[-1] == w
    assert len(walk) == sum(dist_vector(v, w)) + 1
    for a, b in zip(walk, walk[1:]):
        assert sum(dist_vector(a, b)) == 1


@given(fwords(), fwords(), st.data())
def test_distances_add_along_paths(x, y, data):
    walk = path(x, y)
    z = data.draw(st.sampled_from(walk))
    for i in (0, 1):
        assert dist_vector(x, y)[i] == dist_vector(x, z)[i] + dist_vector(z, y)[i]


# ------------------------------------------------------------------- trees


def test_minimal_tree_examples():
    e = identity(2)
    a1, a2 = generator(2, 1), generator(2, 2)
    tree = minimal_tree([e, a1, a2])
    assert tree.vertices == {e, a1, a2}
    assert leaves(tree) == {a1, a2}

    single = minimal_tree([w2("1^2*2^1")])
    assert single.vertices == {w2("1^2*2^1")}
    assert leaves(single) == single.vertices

    through_origin = minimal_tree([a1, invert(a1)])
    assert through_origin.vertices == {a1, e, invert(a1)}
    assert leaves(through_origin) == {a1, invert(a1)}


@given(st.lists(fwords(max_len=6), min_size=1, max_size=5))
def test_minimal_tree_is_a_tree_containing_the_points(points):
    tree = minimal_tree(points)
    assert set(points) <= tree.vertices
    edges = sum(tree.degree(v) for v in tree.vertices)
    assert edges == 2 * (len(tree.vertices) - 1)
    seen = set()
    frontier = [next(iter(tree.vertices))]
    while frontier:
        v = frontier.pop()
        if v in seen:
            continue
        seen.add(v)
        frontier.extend(neighbors(tree, v))
    assert seen == tree.vertices


def test_branches_examples():
    a1 = generator(2, 1)
    e = identity(2)
    tree = minimal_tree([a1, invert(a1)])
    parts = branches(tree, e)
    assert parts == (frozenset({a1}), frozenset({invert(a1)}))

    three = minimal_tree([a1, generator(2, 2), invert(a1)])
    assert len(branches(three, e)) == 3
    # At a leaf the rest of the tree is one component.
    assert len(branches(three, a1)) == 1

    star = branches_star(three, e)
    assert star[-1] == frozenset({e})
    assert frozenset().union(*star) == three.vertices

    with pytest.raises(DomainError):
        branches(tree, w2("2^2"))


def test_dominating_sequence_rank_one_example():
    pts = [w1(2), w1(-2)]
    seq = dominating_sequence(pts, identity(1))
    assert seq.center == identity(1)
    # The singleton part comes last; its pick is the global one, with the
    # tie between the two points broken to the length-lex smaller a_1^2.
    assert seq.parts[-1] == frozenset({identity(1)})
    assert seq.choices[-1] == (w1(2),)
    assert seq.image() == {w1(2), w1(-2)}


def test_dominating_sequence_requires_interior_center():
    pts = [w1(2), w1(-2)]
    with pytest.raises(DomainError):
        dominating_sequence(pts, w1(2))
    with pytest.raises(DomainError):
        dominating_sequence(pts, w1(9))


@given(st.sets(fwords(max_len=5), min_size=3, max_size=5))
def test_dominating_sequence_properties(points):
    tree = minimal_tree(points)
    interior = sorted(tree.vertices - set(points), key=word_key)
    if not interior:
        return
    p = interior[0]
    seq = dominating_sequence(points, p)
    assert seq.parts == branches_star(tree, p)
    assert len(seq.image()) <= 2 * 2
    global_row = seq.choices[-1]
    for part, row in zip(seq.parts, seq.choices):
        outside = set(points) - part
        for i in (1, 2):
            choice = row[i - 1]
            assert choice in outside
            assert all(dist_vector(choice, p)[i - 1] >= dist_vector(x, p)[i - 1] for x in outside)
            if global_row[i - 1] not in part:
                assert choice == global_row[i - 1]


# ----------------------------------------------------------- progressions


def test_progression_contains_examples():
    e = identity(2)
    wide = FProgressionSpec((10, 10), e)
    for x in (w2("1^10"), w2("2^-10"), e):
        assert progression_contains(wide, x)
    tight = FProgressionSpec((0, 0), e)
    assert progression_contains(tight, e)
    assert not progression_contains(tight, w2("1^1"))
    shifted = FProgressionSpec((10, 1), w2("1^10"))
    assert progression_contains(shifted, w2("1^10"))
    assert not progression_contains(shifted, w2("1^-5"))


def test_spec_validation_and_text():
    with pytest.raises(DomainError):
        FProgressionSpec((1,), identity(2))
    with pytest.raises(DomainError):
        FProgressionSpec((1, -1), identity(2))
    assert str(FProgressionSpec((10, 1), w2("1^10"))) == "1^10*P(10, 1)"


def members_of(spec):
    # Independent enumeration: the members are exactly translate * u over
    # reduced words u whose per-generator letter counts stay within bounds.
    rank = spec.translate.rank
    out = set()

    def walk(letters, budgets):
        out.add(multiply(spec.translate, FWord(rank, tuple(letters))))
        for i in range(1, rank + 1):
            if not budgets[i - 1]:
                continue
            for s in (1, -1):
                if letters and letters[-1] == -s * i:
                    continue
                budgets[i - 1] -= 1
                letters.append(s * i)
                walk(letters, budgets)
                letters.pop()
                budgets[i - 1] += 1

    walk([], list(spec.bounds))
    return out


@given(fwords(max_len=4), st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_progression_members_enumerate_exactly(g, bounds):
    spec = FProgressionSpec(bounds, g)
    members = members_of(spec)
    for x in members:
        assert progression_contains(spec, x)
    # Boundary probe: one step past any member in a fresh direction must
    # leave the progression when that coordinate's budget is exhausted.
    for x in members:
        for i in (1, 2):
            if dist_vector(g, x)[i - 1] == bounds[i - 1]:
                for s in (1, -1):
                    y = multiply(x, FWord(2, (s * i,)))
                    if dist_vector(g, y)[i - 1] > bounds[i - 1]:
                        assert y not in members
                        assert not progression_contains(spec, y)


@settings(max_examples=40)
@given(fwords(max_len=3), st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_progressions_are_connected(g, bounds):
    members = members_of(FProgressionSpec(bounds, g))
    seen = {g}
    frontier = [g]
    while frontier:
        v = frontier.pop()
        for i in (1, 2):
            for s in (1, -1):
                nxt = multiply(v, FWord(2, (s * i,)))
                if nxt in members and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    assert seen == members


@settings(max_examples=40)
@given(fwords(max_len=3), st.tuples(st.integers(0, 2), st.integers(0, 2)), fwords(max_len=5))
def test_fork_criterion_implies_membership(g, bounds, x):
    # If for every coordinate some member y and some p on the geodesic
    # from g to y satisfy d_i(p, x) <= d_i(p, y), then x is a member.
    spec = FProgressionSpec(bounds, g)
    members = members_of(spec)
    for i in (1, 2):
        if not any(
            dist_vector(p, x)[i - 1] <= dist_vector(p, y)[i - 1] for y in members for p in path(g, y)
        ):
            return
    assert progression_contains(spec, x)


@settings(max_examples=60)
@given(st.sets(fwords(max_len=4), min_size=1, max_size=4), fwords(max_len=5), st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_entry_point_splits_distances_into_a_connected_set(points, g, bounds):
    # The entry-point lemma behind is_shattered_free's completeness: the
    # point h of a connected X nearest g lies on every geodesic from g into
    # X, so d(g, x) = d(g, h) + d(h, x) coordinatewise for x in X. Then
    # g*P(N) cuts out of X what h*P(N - d(g, h)) does, or nothing when a
    # bound falls below d(g, h), and the scan need only visit vertices.
    verts = minimal_tree(points).vertices
    assert minimal_tree(verts).vertices == verts  # connected
    h = min(verts, key=lambda x: sum(dist_vector(g, x)))
    drop = dist_vector(g, h)
    for x in verts:
        assert dist_vector(g, x) == tuple(a + b for a, b in zip(drop, dist_vector(h, x)))
    before = progression_trace(FProgressionSpec(bounds, g), verts)
    if any(d > n for d, n in zip(drop, bounds)):
        assert before == frozenset()
    else:
        slid = FProgressionSpec(tuple(n - d for n, d in zip(bounds, drop)), h)
        assert progression_trace(slid, verts) == before


# -------------------------------------------------------------- shattering


def interval_cut_exists(values, subset):
    # Rank-1 oracle. Any cutting interval [l, u] (l, u of equal parity,
    # since l = g - N and u = g + N) can be shrunk to l in {m-1, m} and
    # grown to u in {M, M+1} around the kept extremes m, M without
    # changing its trace, so scanning centers and radii near the value
    # range decides existence.
    if not subset:
        probe = max(values) + 2
        return all(v != probe for v in values)
    lo, hi = min(values), max(values)
    for g in range(lo - 1, hi + 2):
        for n in range(hi - lo + 3):
            if {v for v in values if g - n <= v <= g + n} == subset:
                return True
    return False


@settings(max_examples=60)
@given(st.sets(st.integers(-8, 8), min_size=1, max_size=5))
def test_cut_out_matches_interval_oracle_in_rank_one(values):
    points = {v: w1(v) for v in values}
    ordered = sorted(values)
    for mask in range(1 << len(ordered)):
        chosen = {ordered[i] for i in range(len(ordered)) if mask >> i & 1}
        spec = cuts_out_free(points.values(), {points[v] for v in chosen})
        found = spec is not None
        assert found == interval_cut_exists(values, chosen)
        if found:
            assert progression_trace(spec, points.values()) == {points[v] for v in chosen}


def test_cut_out_parity_obstruction():
    # {1, 2} cannot be cut from {0, 1, 2, 3}: an interval containing 1, 2
    # but neither 0 nor 3 would need endpoints 1 and 2, whose midpoint is
    # not an integer.
    pts = [w1(v) for v in range(4)]
    assert cuts_out_free(pts, [w1(1), w1(2)]) is None
    assert cuts_out_free(pts, [w1(1), w1(2), w1(3)]) is not None


def test_cut_out_examples():
    four = reference_four_set()
    w, z = w2("1^10"), w2("2^5*1^3")
    spec = cuts_out_free(four, [w, z])
    assert spec is not None
    assert progression_trace(spec, four) == {w, z}
    # A known witness for the same subset.
    assert progression_trace(FProgressionSpec((13, 5), w), four) == {w, z}

    everything = cuts_out_free(four, four)
    assert progression_trace(everything, four) == set(four)

    line = [w1(0), w1(5), w1(10)]
    assert cuts_out_free(line, [w1(0), w1(10)]) is None

    with pytest.raises(DomainError):
        cuts_out_free(four, [identity(2)])
    with pytest.raises(ResourceLimitError):
        cuts_out_free([w1(v) for v in range(15)], [])


@settings(max_examples=30)
@given(st.sets(fwords(max_len=5), min_size=2, max_size=4), st.data())
def test_cut_out_negatives_resist_random_specs(points, data):
    # When the complete search says no translate cuts a subset, random
    # probing must not find one either.
    pts = sorted(points, key=word_key)
    mask = data.draw(st.integers(0, (1 << len(pts)) - 1))
    chosen = {pts[i] for i in range(len(pts)) if mask >> i & 1}
    if cuts_out_free(pts, chosen) is not None:
        return
    rng = random.Random(99)
    verts = sorted(minimal_tree(pts).vertices, key=word_key)
    top = max(sum(dist_vector(u, v)) for u in pts for v in pts)
    for _ in range(60):
        g = multiply(
            verts[rng.randrange(len(verts))],
            sample_word(rng, 2, rng.randint(0, 2)),
        )
        bounds = (rng.randint(0, top), rng.randint(0, top))
        assert progression_trace(FProgressionSpec(bounds, g), pts) != chosen


def test_reference_four_set_is_shattered():
    report = is_shattered_free(reference_four_set())
    assert report.shattered
    assert report.missing == ()
    assert len(report.witnesses) == 16
    for sub, spec in report.witnesses.items():
        assert progression_trace(spec, reference_four_set()) == sub


def test_generator_sets_are_shattered():
    for k in (2, 3):
        gens = [generator(k, i) for i in range(1, k + 1)]
        assert is_shattered_free(gens).shattered


def test_intervals_on_a_line_are_not_shattered():
    report = is_shattered_free([w1(0), w1(5), w1(10)])
    assert not report.shattered
    assert frozenset({w1(0), w1(10)}) in report.missing


def test_is_shattered_cap():
    with pytest.raises(ResourceLimitError):
        is_shattered_free([w1(v) for v in range(15)])


@settings(max_examples=40)
@given(st.sets(fwords(max_len=5), min_size=1, max_size=4))
def test_shattered_sets_are_leaf_sets(points):
    report = is_shattered_free(points)
    if report.shattered:
        assert leaves(minimal_tree(points)) == frozenset(points)


def test_tripod_profile_examples():
    a1, a2 = generator(2, 1), generator(2, 2)
    hit = tripod_profile([a1, a2, invert(a1)])
    assert hit is not None
    center, parts = hit
    assert center == identity(2)
    assert set(parts) == {frozenset({a1}), frozenset({invert(a1)}), frozenset({a2})}

    assert tripod_profile([w1(0), w1(1), w1(2)]) is None

    six = [w2(t) for t in ("1^1", "1^2", "2^1", "2^2", "1^-1", "1^-2")]
    hit = tripod_profile(six)
    assert hit is not None
    assert hit[0] == identity(2)
    assert all(len(part & set(six)) == 2 for part in hit[1])

    with pytest.raises(DomainError):
        tripod_profile([a1, a2])


def oracle_witnesses(pts):
    # Brute force over the public reference geometry: for every nonempty
    # subset, the first minimal-tree vertex in word_key order whose
    # componentwise-minimal bounds cut out exactly that subset.
    rank = pts[0].rank
    verts = sorted(minimal_tree(pts).vertices, key=word_key)
    rows = {h: {x: dist_vector(h, x) for x in pts} for h in verts}
    found, missing = {}, []
    for mask in range(1, 1 << len(pts)):
        chosen = frozenset(x for j, x in enumerate(pts) if mask >> j & 1)
        for h in verts:
            bounds = tuple(max(rows[h][x][i] for x in chosen) for i in range(rank))
            spec = FProgressionSpec(bounds, h)
            if progression_trace(spec, pts) == chosen:
                found[chosen] = str(spec)
                break
        else:
            missing.append(chosen)
    return found, missing


def oracle_tripod(pts):
    tree = minimal_tree(pts)
    for p in sorted(tree.vertices - set(pts), key=word_key):
        if tree.degree(p) == 3:
            parts = branches(tree, p)
            if all(len(part & set(pts)) == len(pts) // 3 for part in parts):
                return p, parts
    return None


def oracle_verdict(pts, missing):
    # The verdict free search must give, from the reference geometry and
    # the oracle's missing subsets.
    if leaves(minimal_tree(pts)) != frozenset(pts):
        return "rejected-leaf"
    if len(pts) == 3 * pts[0].rank and oracle_tripod(pts) is None:
        return "rejected-tripod"
    return "rejected-scan" if missing else "shattered"


def codes(pts):
    # The order the sampler, the filters and the scan share.
    return sorted(_encode(x.letters) for x in pts)


def ranked_point_sets():
    return st.integers(1, 3).flatmap(
        lambda k: st.sets(fwords(rank=k, max_len=4), min_size=1, max_size=6)
    )


@settings(max_examples=100, deadline=None)
@given(ranked_point_sets())
@example(frozenset(reference_four_set()))
@example(frozenset(generator(3, i) for i in (1, 2, 3)))
@example(frozenset(w2(t) for t in ("1^1", "1^2", "2^1", "2^2", "1^-1", "1^-2")))
# The point 1^1 has two child subtrees of two points each, but a tripod
# center must lie outside the points.
@example(frozenset(w2(t) for t in ("e", "1^1", "1^3", "1^2*2^1", "1^1*2^2", "1^1*2^1*1^1")))
def test_trace_family_matches_brute_force_oracle(points):
    pts = sorted(points, key=word_key)
    found, missing = oracle_witnesses(pts)
    report = is_shattered_free(pts)
    assert list(report.missing) == sorted(missing, key=lambda s: (len(s), sorted(map(repr, s))))
    assert report.shattered == (not missing)
    assert {s: str(w) for s, w in report.witnesses.items() if s} == found
    assert progression_trace(report.witnesses[frozenset()], pts) == frozenset()
    for mask in range(1, 1 << len(pts)):
        chosen = frozenset(x for j, x in enumerate(pts) if mask >> j & 1)
        spec = cuts_out_free(pts, chosen)
        assert (None if spec is None else str(spec)) == found.get(chosen)
    if len(pts) % 3 == 0:
        assert tripod_profile(pts) == oracle_tripod(pts)
    assert _decide_shattered(pts[0].rank, codes(pts)) == oracle_verdict(pts, missing)


LETTERS3 = (1, -1, 2, -2, 3, -3)


def tails(g, shortest):
    # Reduced words of `shortest` to 2 letters that do not start with g^-1.
    def word(a):
        rest = st.sampled_from([b for b in LETTERS3 if b != -a])
        return st.tuples(rest, st.integers(shortest, 2)).map(lambda t: (a, t[0])[: t[1]])

    return st.sampled_from([a for a in LETTERS3 if a != -g]).flatmap(word)


@st.composite
def nine_point_sets(draw):
    # Three points in each of three branches at a vertex v of F3, so v is a
    # tripod center: the root when no branch holds the root, else below it.
    # With `shortest` 2 every point is three steps from v, and the set is
    # leaf-only unless a point in the branch above v lies on the way to
    # another. Then one point may move to v or to a fourth branch, or the
    # whole set is drawn at random.
    v = draw(fwords(rank=3, max_len=2))
    turns = draw(st.permutations(LETTERS3))
    shortest = draw(st.integers(0, 2))
    pts = set()
    for g in turns[:3]:
        for w in draw(st.lists(tails(g, shortest), min_size=3, max_size=3, unique=True)):
            pts.add(FWord(3, v.letters + (g,) + w))
    move = draw(st.sampled_from(["none", "to-center", "to-fourth-branch", "random"]))
    if move == "random":
        return draw(st.sets(fwords(rank=3, max_len=3), min_size=9, max_size=9))
    if move != "none":
        pts.remove(max(pts, key=word_key))
        pts.add(v if move == "to-center" else FWord(3, v.letters + (turns[3],)))
    assume(len(pts) == 9)
    return frozenset(pts)


def w3(text):
    return parse_word(3, text)


CENTER_AT_ROOT = ("1^2", "1^1*2^1", "1^1*2^-1", "2^2", "2^1*3^1", "2^1*3^-1", "3^2", "3^1*1^1", "3^1*1^-1")
CENTER_BELOW_ROOT = ("1^1", "1^-1", "3^1", "2^3", "2^2*1^1", "2^2*1^-1", "2^1*3^2", "2^1*3^1*1^1", "2^1*3^1*1^-1")


@settings(max_examples=20, deadline=None)
@given(nine_point_sets())
# A center at the root e; the 9 points are leaves, so the set reaches the scan.
@example(frozenset(map(w3, CENTER_AT_ROOT)))
# The root e is a point, where the center would be.
@example(frozenset(map(w3, ("e",) + CENTER_AT_ROOT[1:])))
# A center 2^1 below the root e; then a point at 2^1, where the center would be.
@example(frozenset(map(w3, CENTER_BELOW_ROOT)))
@example(frozenset(map(w3, ("2^1",) + CENTER_BELOW_ROOT[1:])))
# No center: branches of 3, 3, 2 and 1 points at e.
@example(frozenset(map(w3, CENTER_AT_ROOT[:-1] + ("3^-1",))))
def test_tripod_scan_and_filters_on_nine_points_in_rank_three(points):
    pts = sorted(points, key=word_key)
    tripod = oracle_tripod(pts)
    assert tripod_profile(pts) == tripod
    assert _tripod_center(codes(pts)) == (None if tripod is None else _encode(tripod[0].letters))
    verdict = _decide_shattered(3, codes(pts))
    # The exact oracle only for the sets both filters pass.
    missing = oracle_witnesses(pts)[1] if verdict in ("rejected-scan", "shattered") else None
    assert verdict == oracle_verdict(pts, missing)


@settings(max_examples=100, deadline=None)
@given(ranked_point_sets())
def test_trie_parts_match_the_branches_oracle(points):
    # Every node, the root and the points included.
    pts = sorted(points, key=word_key)
    trie, tree = _PrefixTrie(pts[0].rank, codes(pts)), minimal_tree(pts)
    assert len(trie.edge) == len(tree)
    for c in range(len(trie.edge)):
        assert trie.parts(c) == branches(tree, trie.vertex(c))


@settings(max_examples=100, deadline=None)
@given(ranked_point_sets())
# The common prefix is a point: 1^1, then e.
@example(frozenset(w2(t) for t in ("1^1", "1^2", "1^1*2^1")))
@example(frozenset(w2(t) for t in ("e", "1^1", "2^-1")))
# The tripod center e is the root and no point: the README's free tripod set.
@example(frozenset(w2(t) for t in ("1^1", "2^1", "1^-1")))
# The root e is a point, and the center 1^1 lies below it.
@example(frozenset(w2(t) for t in ("e", "2^1", "1^3", "1^2*2^1", "1^1*2^2", "1^1*2^1*1^1")))
# 1^1, then 2^1, prefixes 4 points and leaves 2 above, but in three child subtrees.
@example(frozenset(w2(t) for t in ("2^1", "2^-1", "1^2*2^1", "1^2*2^-1", "1^1*2^1", "1^1*2^-1")))
@example(frozenset(w2(t) for t in ("1^1", "1^-1", "2^1*1^1", "2^1*1^-1", "2^2*1^1", "2^2*1^-1")))
# The root e has four child subtrees, of 1, 1, 2, 2 and of 2, 1, 1, 2 points.
@example(frozenset(w2(t) for t in ("1^1", "1^-1", "2^1*1^1", "2^1*1^-1", "2^-1*1^1", "2^-1*1^-1")))
@example(frozenset(w2(t) for t in ("1^1*2^1", "1^1*2^-1", "1^-1", "2^1", "2^-1*1^1", "2^-1*1^-1")))
def test_trie_order_find_and_tripod_scan_match_the_minimal_tree(points):
    pts = sorted(points, key=word_key)
    rank, tree = pts[0].rank, minimal_tree(pts)
    trie = _PrefixTrie(rank, codes(pts))
    # Node index order is word_key order of the vertices.
    vertices = [trie.vertex(c) for c in range(len(trie.edge))]
    assert vertices == sorted(tree.vertices, key=word_key)
    for v in tree.vertices:
        assert trie.vertex(trie.find(_encode(v.letters))) == v
    steps = [generator(rank, i) for i in range(1, rank + 1)]
    steps += [invert(g) for g in steps]
    for u in {multiply(v, g) for v in tree.vertices for g in steps} - tree.vertices:
        assert trie.find(_encode(u.letters)) is None
    if len(pts) % 3 == 0:
        tripod = oracle_tripod(pts)
        center = _tripod_center(codes(pts))
        assert center == (None if tripod is None else _encode(tripod[0].letters))
        assert center is None or trie.vertex(trie.find(center)) == tripod[0]


@settings(max_examples=100, deadline=None)
@given(ranked_point_sets())
def test_trie_charges_rows_when_made_and_letters_when_words_are_built(points):
    pts = sorted(points, key=word_key)
    rank, tree = pts[0].rank, minimal_tree(pts)
    rows = 3 * rank * len(tree)
    letters = sum(len(v) for v in tree.vertices)
    trie = _PrefixTrie(rank, codes(pts))
    assert {trie.vertex(c) for c in range(len(trie.edge))} == tree.vertices
    # The whole charge is three rank-long rows per vertex and one slot per
    # letter of each vertex word built.
    with mock.patch.object(freegroup, "MAX_TRIE_SLOTS", rows + letters):
        trie = _PrefixTrie(rank, codes(pts))
        assert {trie.vertex(c) for c in range(len(trie.edge))} == tree.vertices
    with mock.patch.object(freegroup, "MAX_TRIE_SLOTS", rows + letters - 1):
        with pytest.raises(ResourceLimitError):
            trie = _PrefixTrie(rank, codes(pts))
            for c in range(len(trie.edge)):
                trie.vertex(c)
    # Without the words, only the rows count.
    with mock.patch.object(freegroup, "MAX_TRIE_SLOTS", rows):
        assert len(_PrefixTrie(rank, codes(pts)).rows()[0]) == len(tree)
    with mock.patch.object(freegroup, "MAX_TRIE_SLOTS", rows - 1):
        with pytest.raises(ResourceLimitError):
            _PrefixTrie(rank, codes(pts))


def test_generator_witness_examples():
    spec = generator_shatter_witness(2, (1, 1), [1])
    assert str(spec.translate) == "1^1*2^1"
    assert spec.bounds == (1, 1)

    full = generator_shatter_witness(2, (1, 1), [1, 2])
    assert full.translate == generator(2, 1)

    empty = generator_shatter_witness(2, (1, 1), [])
    assert empty.translate == w2("1^3")
    gens = [generator(2, 1), generator(2, 2)]
    assert progression_trace(empty, gens) == frozenset()


def test_generator_witness_cuts_every_subset():
    for k in (2, 3):
        gens = {i: generator(k, i) for i in range(1, k + 1)}
        for bounds_mask in range(1 << k):
            bounds = tuple(1 + (bounds_mask >> i & 1) for i in range(k))
            for mask in range(1 << k):
                chosen = [i for i in range(1, k + 1) if mask >> (i - 1) & 1]
                spec = generator_shatter_witness(k, bounds, chosen)
                got = progression_trace(spec, gens.values())
                assert got == {gens[i] for i in chosen}


def test_generator_witness_at_the_rank_cap():
    # Every other generator chosen: the translate spends the budgets of the
    # other 5,000, and the self-check reads letter counts in linear time.
    chosen = range(1, MAX_RANK + 1, 2)
    spec = generator_shatter_witness(MAX_RANK, (1,) * MAX_RANK, chosen)
    assert len(spec.translate.letters) == 1 + MAX_RANK // 2
    for i in [1, 2, MAX_RANK - 1, MAX_RANK] + random.Random(0).sample(range(1, MAX_RANK + 1), 16):
        assert progression_contains(spec, generator(MAX_RANK, i)) == (i % 2 == 1), i


def test_generator_witness_validation():
    with pytest.raises(DomainError):
        generator_shatter_witness(2, (1, 0), [1])
    with pytest.raises(DomainError):
        generator_shatter_witness(2, (1,), [1])
    with pytest.raises(DomainError):
        generator_shatter_witness(2, (1, 1), [3])


# ------------------------------------------------------------------ search


def test_sample_word_respects_bounds():
    rng = random.Random(5)
    for _ in range(200):
        u = sample_word(rng, 2, 6)
        assert len(u) <= 6
        assert all(1 <= abs(x) <= 2 for x in u.letters)
    pts = sample_point_set(rng, 2, 5, 6)
    assert len(pts) == 5


def test_search_is_deterministic():
    one = search_shattered_sets(2, 6, 30, seed=7)
    two = search_shattered_sets(2, 6, 30, seed=7)
    assert one == two
    assert sum(one["verdicts"].values()) == 30
    assert one["shattered"] == []


def test_search_validation():
    with pytest.raises(ResourceLimitError):
        search_shattered_sets(2, 20, 1, seed=0)
    with pytest.raises(DomainError):
        search_shattered_sets(2, 0, 1, seed=0)


# ------------------------------------------------------- code-tuple fast paths


def test_codes_follow_word_key_order():
    words = [w2(t) for t in ("e", "1^1", "1^-1", "2^1", "2^-1", "1^2", "1^1*2^-1", "2^-1*1^1")]
    want = [(), (0,), (1,), (2,), (3,), (0, 0), (0, 3), (3, 0)]
    assert [_encode(u.letters) for u in words] == want
    assert [_decode(_encode(u.letters)) for u in words] == [u.letters for u in words]
    # Free search lists a shattered set by a stable sort by length.
    assert sorted(codes(reversed(words)), key=len) == [_encode(u.letters) for u in sorted(words, key=word_key)]


def reference_point_set(rng, rank, size, max_len):
    # Distinct sample_word draws until there are size of them, each FWord
    # built and validated: the loop the code-tuple sampler replaces.
    pts, attempts = set(), 0
    while len(pts) < size:
        pts.add(sample_word(rng, rank, max_len))
        attempts += 1
        if attempts > 1000 * size:
            raise ResourceLimitError("too few distinct words")
    return frozenset(pts)


def test_code_sampler_draws_what_sample_word_draws_at_every_bit_width():
    # Ranks 1-9 and max_len 0-70 take the range sizes 2k, 2k - 1 and
    # max_len + 1 across the powers of two 1 to 64, where the bit width of
    # each draw and the share of redrawn values change.
    slow, fast = random.Random(17), random.Random(17)
    for rank in range(1, 10):
        for max_len in range(71):
            for _ in range(3):
                want = sample_word(slow, rank, max_len).letters
                assert [_decode(w) for w in _sample_point_codes(fast, rank, 1, max_len)] == [want]
            assert fast.getstate() == slow.getstate(), (rank, max_len)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 9), st.integers(0, 70), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_code_sampler_draws_what_sample_word_draws(rank, max_len, size, seed):
    slow, fast = random.Random(seed), random.Random(seed)
    for _ in range(5):
        want = sample_word(slow, rank, max_len).letters
        assert [_decode(w) for w in _sample_point_codes(fast, rank, 1, max_len)] == [want]
    assert fast.getstate() == slow.getstate()
    state = fast.getstate()
    try:
        want = reference_point_set(slow, rank, size, max_len)
    except ResourceLimitError:
        for sampler in (_sample_point_codes, sample_point_set):
            fast.setstate(state)
            with pytest.raises(ResourceLimitError):
                sampler(fast, rank, size, max_len)
    else:
        assert _sample_point_codes(fast, rank, size, max_len) == codes(want)
        assert fast.getstate() == slow.getstate()
        fast.setstate(state)
        assert sample_point_set(fast, rank, size, max_len) == want
    assert fast.getstate() == slow.getstate()


@settings(max_examples=300, deadline=None)
@given(ranked_point_sets())
@example(frozenset({w2("e")}))
@example(frozenset(w2(t) for t in ("e", "1^1", "2^1")))
@example(frozenset(w2(t) for t in ("e", "1^1", "1^2")))
@example(frozenset(w2(t) for t in ("1^1", "1^2")))
@example(frozenset(w2(t) for t in ("1^1", "1^2*2^1", "1^2*2^-1")))
@example(frozenset(w2(t) for t in ("e", "1^1*2^1", "1^1*2^1*1^1", "1^1*2^2")))
def test_leaf_check_matches_minimal_tree_leaves(points):
    pts = sorted(points, key=word_key)
    assert _leaf_only(codes(pts)) == (leaves(minimal_tree(pts)) == frozenset(pts))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_decide_shattered_matches_oracle_on_sampled_sets(rank, size, seed):
    pts = sorted(sample_point_set(random.Random(seed), rank, size, 4), key=word_key)
    _, missing = oracle_witnesses(pts)
    assert _decide_shattered(rank, codes(pts)) == oracle_verdict(pts, missing)


def test_search_lists_shattered_sets_in_word_key_order():
    report = search_shattered_sets(2, 4, 3000, seed=1)
    assert report["verdicts"]["shattered"] == len(report["shattered"]) == 5
    for texts in report["shattered"]:
        pts = [w2(t) for t in texts]
        assert pts == sorted(pts, key=word_key)
        assert is_shattered_free(pts).shattered


def test_rank_cap():
    assert len(FWord(MAX_RANK, (MAX_RANK, -1)).letters) == 2
    with pytest.raises(DomainError, match="exceeds the cap"):
        FWord(MAX_RANK + 1, ())
    with pytest.raises(DomainError, match="exceeds the cap"):
        parse_word(MAX_RANK + 1, "1^1")
    assert search_shattered_sets(MAX_RANK, 2, 3, seed=0)["samples"] == 3
    for rank in (0, MAX_RANK + 1):
        with pytest.raises(DomainError):
            search_shattered_sets(rank, 2, 1, seed=0)
