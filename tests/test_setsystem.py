"""Tests for finite set systems, shattering, and exact VC dimension."""

import math
import random
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from progvc import setsystem
from progvc.bounds import capital_c
from progvc.errors import DomainError, ResourceLimitError
from progvc.freegroup import is_shattered_free, sample_point_set
from progvc.setsystem import (
    DEFAULT_TARGET_CAP,
    WORK_CAP,
    SetSystem,
    ShatterReport,
    complement_system,
    cuts_out,
    intersection_system,
    preimage_system,
    shatter_function,
    shatters,
    vc_dimension_exact,
)


def cosets_z6():
    # The three translates of the subgroup {0, 3} in Z_6.
    return SetSystem(range(6), [[0, 3], [1, 4], [2, 5]])


def intervals_system():
    ground = range(-20, 21)
    family = [range(a, b + 1) for a in range(-20, 21) for b in range(a, 21)]
    return SetSystem(ground, family)


def powerset_3():
    ground = "pqr"
    family = [[g for i, g in enumerate(ground) if mask >> i & 1] for mask in range(8)]
    return SetSystem(ground, family)


def test_construction_dedups_family():
    sys_ = SetSystem("abc", [["a"], ["a"], ["b", "c"], ["c", "b"]])
    assert len(sys_) == 2


def test_construction_rejects_bad_input():
    with pytest.raises(DomainError):
        SetSystem([1, 1, 2], [[1]])
    with pytest.raises(DomainError):
        SetSystem([1, 2], [[3]])


def test_json_round_trip():
    blob = {"ground": list(range(6)), "family": [[1, 4], [0, 3], [2, 5]]}
    assert SetSystem.from_json(blob) == cosets_z6()


def test_from_json_rejects_malformed_input():
    with pytest.raises(DomainError):
        SetSystem.from_json({"ground": [1, 2]})
    with pytest.raises(DomainError):
        SetSystem.from_json({"ground": [1, 2], "family": [[5]]})
    # A string or object ground is not split into characters or keys.
    for obj in ({"ground": "ab", "family": [[0, 1]]}, {"ground": {"a": 1}, "family": [[0]]}):
        with pytest.raises(DomainError, match="must be JSON arrays"):
            SetSystem.from_json(obj)
    with pytest.raises(DomainError, match="must be JSON arrays"):
        SetSystem.from_json({"ground": ["a"], "family": {"0": [0]}})


def test_cuts_out_examples():
    sys_ = cosets_z6()
    assert cuts_out(sys_, {0, 1}, {0}) == frozenset({0, 3})
    # Empty target: any member works, since every trace on it is empty.
    assert cuts_out(sys_, (), ()) in set(sys_.members())
    # Each coset contains both of 0, 3 or neither.
    assert cuts_out(sys_, {0, 3}, {0}) is None


def test_cuts_out_validates_arguments():
    sys_ = cosets_z6()
    with pytest.raises(DomainError):
        cuts_out(sys_, {0, 1}, {2})
    with pytest.raises(DomainError):
        cuts_out(sys_, {0, 99}, {0})


def test_shatters_intervals_pair():
    report = shatters(intervals_system(), {0, 5})
    assert report.shattered
    assert report.verdict == "shattered"
    assert report.missing == ()
    for sub, witness in report.witnesses.items():
        assert witness & report.target == sub


def test_shatters_intervals_triple_reports_gap():
    report = shatters(intervals_system(), {0, 5, 10})
    assert not report.shattered
    assert frozenset({0, 10}) in report.missing


def test_shatters_empty_target():
    report = shatters(cosets_z6(), ())
    assert report.shattered
    assert list(report.witnesses) == [frozenset()]


def test_shatters_cap():
    sys_ = intervals_system()
    with pytest.raises(ResourceLimitError):
        shatters(sys_, range(-10, 11), cap=20)
    with pytest.raises(DomainError):
        shatters(sys_, {0, 99})


def test_vc_dimension_examples():
    assert vc_dimension_exact(cosets_z6()) == 1
    assert vc_dimension_exact(powerset_3()) == 3
    assert vc_dimension_exact(intervals_system()) == 2


def test_vc_dimension_empty_family_is_undefined():
    assert vc_dimension_exact(SetSystem("ab", [])) is None


def test_vc_dimension_cap_carries_partial_bound():
    sys_ = SetSystem("abcde", [[c for i, c in enumerate("abcde") if m >> i & 1] for m in range(32)])
    with pytest.raises(ResourceLimitError) as err:
        vc_dimension_exact(sys_, cap=2)
    assert err.value.partial == 2


def test_vc_work_cap_counts_only_sizes_the_family_can_shatter(monkeypatch):
    # Four members shatter at most 2 points, and the walk reaches a
    # shattered pair in 2 nodes: the cap counts nodes walked, not the
    # C(8, 1) = 8 or C(8, 2) = 28 candidates of a level.
    sys_ = SetSystem.from_masks(range(8), range(4))
    for cap in (2, 7, 27):
        monkeypatch.setattr(setsystem, "WORK_CAP", cap)
        assert vc_dimension_exact(sys_) == 2
    monkeypatch.setattr(setsystem, "WORK_CAP", 1)
    with pytest.raises(ResourceLimitError, match="^walk needs more than the 1 nodes left of the work cap$") as err:
        vc_dimension_exact(sys_)
    # The first node shatters a 1-set before the refusal, so 1 is certified.
    assert err.value.partial == 1


def test_vc_dimension_charges_the_walk_to_the_work_cap(monkeypatch):
    # The cap answers at exactly the nodes the walk visits, and one node
    # short refuses with a certified partial.
    sys_ = SetSystem.from_masks(range(12), random.Random(3).sample(range(2**12), 300))
    walks = []
    walk = setsystem._walk
    monkeypatch.setattr(setsystem, "_walk", lambda *args: walks.append(walk(*args)) or walks[-1])
    value = vc_dimension_exact(sys_)
    (_, nodes), = walks
    monkeypatch.setattr(setsystem, "WORK_CAP", nodes)
    assert vc_dimension_exact(sys_) == value
    for short in (1, nodes // 2, nodes - 1):
        monkeypatch.setattr(setsystem, "WORK_CAP", short)
        with pytest.raises(ResourceLimitError, match=rf"^walk needs more than the {short} nodes left") as err:
            vc_dimension_exact(sys_)
        assert 1 <= err.value.partial <= value


def test_shatter_function_examples():
    sys_ = cosets_z6()
    assert shatter_function(sys_, 0) == 1
    # pi(n) = min(n + 1, 3): index-3 subgroup traces.
    for n in range(7):
        assert shatter_function(sys_, n) == min(n + 1, 3)
    assert shatter_function(powerset_3(), 3) == 8
    with pytest.raises(DomainError):
        shatter_function(sys_, 7)


def test_shatter_function_stops_at_first_full_count(monkeypatch):
    # The first n-subset already has min(2^n, |F|) traces, so the walk
    # counts once per depth down to the first leaf and then stops: on a
    # power set, on a family smaller than 2^n, and past a frozen plane.
    calls = []
    count = setsystem._count_traces
    monkeypatch.setattr(setsystem, "_count_traces", lambda planes, lane: calls.append(lane) or count(planes, lane))
    for ground, members, n, value in [(6, 64, 4, 16), (6, 12, 4, 12), (10, 1024, 9, 512)]:
        calls.clear()
        assert shatter_function(SetSystem.from_masks(range(ground), range(members)), n) == value
        assert len(calls) == n


def test_complement_of_cosets():
    comp = complement_system(cosets_z6())
    assert set(comp.members()) == {
        frozenset({1, 2, 4, 5}),
        frozenset({0, 2, 3, 5}),
        frozenset({0, 1, 3, 4}),
    }


def test_intersection_with_full_ground_is_identity():
    sys_ = cosets_z6()
    full = SetSystem(range(6), [range(6)])
    assert intersection_system(sys_, full) == sys_
    with pytest.raises(DomainError):
        intersection_system(sys_, SetSystem(range(5), [[0]]))


def test_preimage_under_fold_map():
    fold = {i: i % 6 for i in range(12)}
    pre = preimage_system(fold, cosets_z6())
    members = set(pre.members())
    assert members == {
        frozenset({0, 3, 6, 9}),
        frozenset({1, 4, 7, 10}),
        frozenset({2, 5, 8, 11}),
    }
    with pytest.raises(DomainError):
        preimage_system({0: 99}, cosets_z6())


# ---------------------------------------------------------------- properties


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 7))
    fam = draw(st.lists(st.integers(0, 2**n - 1), max_size=12))
    return SetSystem.from_masks(range(n), fam)


@given(small_systems())
def test_sauer_shelah(sys_):
    d = vc_dimension_exact(sys_)
    if d is None:
        return
    for n in range(len(sys_.ground) + 1):
        assert shatter_function(sys_, n) <= capital_c(d, n)


@given(small_systems())
def test_pi_hits_power_of_two_exactly_at_shattered_sizes(sys_):
    d = vc_dimension_exact(sys_)
    for n in range(len(sys_.ground) + 1):
        full = shatter_function(sys_, n) == 2**n
        assert full == (d is not None and n <= d)


@given(small_systems())
def test_complement_preserves_shatter_function(sys_):
    comp = complement_system(sys_)
    for n in range(len(sys_.ground) + 1):
        assert shatter_function(sys_, n) == shatter_function(comp, n)


@given(small_systems(), st.lists(st.integers(0, 2**7 - 1), max_size=8))
def test_intersection_product_bound(sys_, other_masks):
    full = (1 << len(sys_.ground)) - 1
    other = SetSystem.from_masks(sys_.ground, [m & full for m in other_masks])
    meet = intersection_system(sys_, other)
    for n in range(len(sys_.ground) + 1):
        assert shatter_function(meet, n) <= shatter_function(sys_, n) * shatter_function(other, n)


@given(small_systems(), st.data())
def test_preimage_bound_and_surjective_equality(sys_, data):
    g = len(sys_.ground)
    size = data.draw(st.integers(1, 7))
    image = data.draw(st.lists(st.integers(0, g - 1), min_size=size, max_size=size))
    mapping = {j: sys_.ground[image[j]] for j in range(size)}
    pre = preimage_system(mapping, sys_)
    for n in range(size + 1):
        best = max(shatter_function(sys_, k) for k in range(min(n, g) + 1))
        assert shatter_function(pre, n) <= best
    if set(mapping.values()) == set(sys_.ground):
        assert vc_dimension_exact(pre) == vc_dimension_exact(sys_)


@given(small_systems(), st.data())
def test_subsets_of_shattered_sets_are_shattered(sys_, data):
    g = len(sys_.ground)
    target = data.draw(st.sets(st.sampled_from(range(g)), max_size=min(g, 5)))
    report = shatters(sys_, [sys_.ground[i] for i in target])
    if report.shattered:
        sub = data.draw(st.sets(st.sampled_from(sorted(target)), max_size=len(target))) if target else set()
        inner = shatters(sys_, [sys_.ground[i] for i in sub])
        assert inner.shattered


@given(small_systems(), st.data())
def test_shatter_report_witnesses_are_exact(sys_, data):
    g = len(sys_.ground)
    target = data.draw(st.sets(st.sampled_from(range(g)), max_size=min(g, 5)))
    points = frozenset(sys_.ground[i] for i in target)
    report = shatters(sys_, points)
    assert report.shattered == (not report.missing)
    realized = set(report.witnesses)
    assert realized.isdisjoint(report.missing)
    assert realized | set(report.missing) == {
        frozenset(s) for s in _powerset(points)
    }
    for sub, witness in report.witnesses.items():
        assert witness & points == sub
    assert set(report.witnesses.values()) <= set(sys_.members()) or not report.witnesses


def _powerset(points):
    points = sorted(points, key=repr)
    for mask in range(1 << len(points)):
        yield [points[i] for i in range(len(points)) if mask >> i & 1]


# ------------------------------------------------- brute-force level scans
#
# The original searches: every candidate subset of a level is tested by
# scanning the whole family. They stay here as the reference the
# column-partition walks must match, exceptions included; the VC scan
# models the subset-size cap but not the walk's node budget.


def level_has_shattered_subset(sys_, size):
    n = len(sys_.ground)
    if size > n or len(sys_.masks) < 2**size:
        return False
    for bits in combinations(range(n), size):
        tmask = sum(1 << b for b in bits)
        if len({m & tmask for m in sys_.masks}) == 2**size:
            return True
    return False


def level_scan_vc(sys_, cap=DEFAULT_TARGET_CAP):
    if not sys_.masks:
        return None
    best = 0
    top = min(cap, len(sys_.ground))
    for size in range(1, top + 1):
        if level_has_shattered_subset(sys_, size):
            best = size
        else:
            return best
    if top < len(sys_.ground) and len(sys_.masks) >= 2 ** (top + 1):
        raise ResourceLimitError(
            f"dimension at least {best} but search capped at subset size {top}",
            partial=best,
        )
    return best


def level_scan_pi(sys_, n, work_cap=WORK_CAP):
    g = len(sys_.ground)
    if not 0 <= n <= g:
        raise DomainError(f"shatter function needs 0 <= n <= {g}, got {n}")
    if math.comb(g, n) > work_cap:
        raise ResourceLimitError(f"{math.comb(g, n)} candidate subsets exceed work cap {work_cap}")
    return max(
        len({m & sum(1 << b for b in bits) for m in sys_.masks})
        for bits in combinations(range(g), n)
    )


def outcome(fn, *args, **kwargs):
    try:
        return ("value", fn(*args, **kwargs))
    except (DomainError, ResourceLimitError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "partial", None))


@st.composite
def rich_systems(draw):
    # Random members plus, half the time, every subset of one drawn set, so
    # dimensions up to the ground size occur and the caps are reached.
    n = draw(st.integers(0, 8))
    fam = draw(st.lists(st.integers(0, 2**n - 1), max_size=40))
    if draw(st.booleans()):
        base = draw(st.integers(0, 2**n - 1))
        fam += [m for m in range(2**n) if m & ~base == 0]
    return SetSystem.from_masks(range(n), fam)


@given(rich_systems(), st.integers(0, 9), st.one_of(st.integers(1, 60), st.just(10**9)))
def test_vc_and_pi_match_level_scans(sys_, cap, work_cap):
    # Patched per example: a function-scoped fixture would span them all.
    with mock.patch.object(setsystem, "WORK_CAP", work_cap):
        walk, scan = outcome(vc_dimension_exact, sys_, cap=cap), outcome(level_scan_vc, sys_, cap=cap)
        # Only the walk's node budget, never reached at 10**9, may refuse
        # where the scan answers; its partial is then certified.
        if walk != scan:
            assert work_cap < 10**9
            name, message, partial = walk
            assert name == "ResourceLimitError" and message.startswith("walk needs more than")
            assert partial <= (scan[1] if scan[0] == "value" else scan[2])
        for n in range(len(sys_.ground) + 1):
            assert outcome(shatter_function, sys_, n) == outcome(level_scan_pi, sys_, n, work_cap=work_cap)


@st.composite
def wide_systems(draw):
    # Grounds of 9-12 points and more than 256 members, so the shatter
    # function's byte codes fill a first plane and count across two. Half
    # the time the family holds every subset of one drawn set of at least
    # 9 points, so pi(n) = 2^n occurs there too.
    g = draw(st.integers(9, 12))
    rng = random.Random(draw(st.integers(0, 2**32)))
    fam = rng.sample(range(2**g), draw(st.integers(257, min(700, 2**g))))
    if draw(st.booleans()):
        base = sum(1 << i for i in rng.sample(range(g), draw(st.integers(9, g))))
        fam += [m for m in range(2**g) if m & ~base == 0]
    return SetSystem.from_masks(range(g), fam)


@settings(max_examples=30)
@given(wide_systems(), st.one_of(st.integers(1, 300), st.just(10**9)))
def test_pi_matches_level_scan_across_byte_planes(sys_, work_cap):
    assert len(sys_.masks) > 256
    with mock.patch.object(setsystem, "WORK_CAP", work_cap):
        for n in range(8, len(sys_.ground) + 1):
            assert outcome(shatter_function, sys_, n) == outcome(level_scan_pi, sys_, n, work_cap=work_cap)


def test_power_set_of_ten_points():
    sys_ = SetSystem.from_masks(range(10), range(1024))
    assert shatter_function(sys_, 9) == 512
    assert shatter_function(sys_, 10) == 1024
    assert vc_dimension_exact(sys_) == 10


@given(rich_systems(), st.data())
def test_shatters_matches_first_witness_scan(sys_, data):
    g = len(sys_.ground)
    target = data.draw(st.sets(st.sampled_from(range(g)), max_size=g) if g else st.just(set()))
    points = frozenset(sys_.ground[i] for i in target)
    first = {}
    for member in sys_.members():
        first.setdefault(member & points, member)
    report = shatters(sys_, points)
    everything = {frozenset(s) for s in _powerset(points)}
    assert report.witnesses == first
    assert set(report.missing) == everything - set(first)
    # Both views list subsets by size and then by their sorted reprs.
    canonical = sorted(everything, key=lambda s: (len(s), sorted(map(repr, s))))
    assert list(report.witnesses) == [s for s in canonical if s in first]
    assert list(report.missing) == [s for s in canonical if s not in first]


@given(rich_systems())
def test_pajor_shattered_subsets_outnumber_members(sys_):
    sizes = [
        len(points)
        for points in map(frozenset, _powerset(sys_.ground))
        if shatters(sys_, points).shattered
    ]
    # Pajor: a family shatters at least as many sets as it has members.
    assert len(sizes) >= len(sys_)
    assert max(sizes, default=None) == vc_dimension_exact(sys_)


# ------------------------------------------------ report rendering oracle
#
# The renderer that formats every point of every subset with str and repr.
# ShatterReport.to_json renders from one str and one repr per target point
# and must give the same dict, order included.


def reference_to_json(report, witness_json=None):
    def enc(subset):
        return sorted(map(str, subset))

    def key(subset):
        return (len(subset), sorted(map(repr, subset)))

    if witness_json is None:
        witness_json = lambda w: sorted(map(str, w))
    return {
        "target": enc(report.target),
        "verdict": report.verdict,
        "missing": [enc(m) for m in sorted(report.missing, key=key)],
        "witnesses": [
            {"subset": enc(s), "witness": witness_json(w)}
            for s, w in sorted(report.witnesses.items(), key=lambda kv: key(kv[0]))
        ],
    }


# Labels whose str order and repr order disagree: "!" and " " sort below
# the closing quote of a repr, so "a!" < "a" by repr but "a" < "a!" by str.
# Integers and digit strings share a str but not a repr.
LABELS = st.one_of(
    st.sampled_from(["a", "a!", "a b", "a'", 'a"', "b", "", "1"]),
    st.text(alphabet="ab !'\"#&", max_size=3),
    st.integers(-3, 12),
)


@st.composite
def shatter_reports(draw):
    points = tuple(draw(st.lists(LABELS, unique=True, max_size=6)))
    masks = st.integers(0, 2 ** len(points) - 1)
    traces = draw(st.dictionaries(masks, st.frozensets(LABELS, max_size=3)))
    return ShatterReport(points, traces)


@given(shatter_reports(), st.booleans())
@example(
    ShatterReport(
        ("a", "a!", "a b"),
        {m: frozenset(p for j, p in enumerate(("a", "a!", "a b")) if m >> j & 1) for m in range(8)},
    ),
    False,
)
def test_shatter_report_to_json_matches_reference(report, text_witness):
    witness_json = str if text_witness else None
    assert report.to_json(witness_json) == reference_to_json(report, witness_json)


@st.composite
def produced_reports(draw):
    # Reports as the two producers build them: a set-system check on
    # labels whose str and repr orders disagree, or a free-group check.
    if draw(st.booleans()):
        ground = draw(st.lists(LABELS, unique=True, max_size=7))
        fam = draw(st.lists(st.integers(0, 2 ** len(ground) - 1), max_size=20))
        target = draw(st.sets(st.sampled_from(ground))) if ground else set()
        return shatters(SetSystem.from_masks(ground, fam), target), None
    rank, size, seed = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(0, 10**6))
    return is_shattered_free(sample_point_set(random.Random(seed), rank, size, 4)), str


@given(produced_reports())
def test_produced_reports_render_as_the_reference(produced):
    report, witness_json = produced
    assert report.to_json(witness_json) == reference_to_json(report, witness_json)


# ---------------------------------------------------- translates of a set K


def vec_add(p, q):
    return tuple(x + y for x, y in zip(p, q))


def vec_neg(p):
    return tuple(-x for x in p)


def assert_witness_shattered(result, member):
    """The witness set is shattered, and each translate, tested by
    ``member(g, point)``, cuts out exactly the subset it is reported for."""
    report = result["witness"]
    points = report.points
    assert report.shattered and len(points) == result["vc"]
    family = [[p for p in points if member(g, p)] for g in report.traces.values()]
    assert shatters(SetSystem(points, family), points).shattered
    for mask, g in report.traces.items():
        assert {p for p in points if member(g, p)} == set(report._subset(mask))


def translate_member(K, mul, inv):
    K = set(K)
    return lambda g, p: mul(inv(g), p) in K


@pytest.mark.parametrize(
    "K, vc",
    [
        ([(x,) for x in range(-r, r + 1)], 2) for r in (1, 2, 5)
    ] + [
        ([(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)], 3) for n in (1, 2)
    ] + [
        ([(x, y) for x in range(-2, 3) for y in range(-2, 3) if abs(x) + abs(y) <= 2], 3),
    ],
    ids=["interval-1", "interval-2", "interval-5", "box-1", "box-2", "l1-ball-2"],
)
def test_translate_vc_of_intervals_and_planar_bodies(K, vc):
    # Translates of an interval have VC dimension 2, of a planar convex body 3.
    zero = (0,) * len(K[0])
    result = setsystem.translate_vc(K, vec_add, vec_neg, zero)
    assert result["vc"] == vc
    assert_witness_shattered(result, translate_member(K, vec_add, vec_neg))


def test_translate_vc_of_f2_progression():
    from progvc.freegroup import FProgressionSpec, FWord, identity, invert, multiply, progression_contains

    K = [FWord(2, w) for w in [(), (1,), (-1,), (2,), (-2,)]]
    K += [FWord(2, (x, y)) for x in (1, -1) for y in (2, -2)]
    K += [FWord(2, (y, x)) for x in (1, -1) for y in (2, -2)]
    result = setsystem.translate_vc(K, multiply, invert, identity(2))
    assert result["vc"] == 3
    assert_witness_shattered(result, lambda g, p: progression_contains(FProgressionSpec((1, 1), g), p))


def test_translate_vc_of_a_point_names_no_far_translate():
    # {0} generates no more than itself, so nothing built from K misses it.
    result = setsystem.translate_vc([0], lambda a, b: a + b, lambda a: -a, 0)
    report = result["witness"]
    assert (result["vc"], report.points, report.traces) == (1, (0,), {1: 0, 0: None})


def test_translate_vc_charges_set_up_and_walk_to_the_work_cap(monkeypatch):
    K = [(x, y) for x in range(-2, 3) for y in range(-2, 3)]
    args = (K, vec_add, vec_neg, (0, 0))
    # |K| = 25 and |B| = 81: 625 products for B, checked before B is built,
    # then 81^2 for the pairs and 81 * 25 for the translates.
    setup = 625 + 81**2 + 81 * 25
    nodes = setsystem.translate_vc(*args)["nodes"]
    monkeypatch.setattr(setsystem, "WORK_CAP", 624)
    with pytest.raises(ResourceLimitError, match=r"^25\^2 products for K\*K exceed work cap 624$") as err:
        setsystem.translate_vc(*args)
    assert err.value.partial == 1
    monkeypatch.setattr(setsystem, "WORK_CAP", setup - 1)
    with pytest.raises(ResourceLimitError, match=rf"^{setup} set-up products for \|B\| = 81 ") as err:
        setsystem.translate_vc(*args)
    assert err.value.partial == 1
    monkeypatch.setattr(setsystem, "WORK_CAP", setup + nodes)
    assert setsystem.translate_vc(*args)["nodes"] == nodes
    for short in (1, nodes // 2, nodes - 1):
        monkeypatch.setattr(setsystem, "WORK_CAP", setup + short)
        with pytest.raises(ResourceLimitError, match="walk needs more than") as err:
            setsystem.translate_vc(*args)
        assert 1 <= err.value.partial <= 3


def test_translate_vc_rejects_sets_not_closed_under_inverses():
    for K in ([], [(0,), (1,)]):
        with pytest.raises(DomainError):
            setsystem.translate_vc(K, vec_add, vec_neg, (0,))
