"""Tests for Heisenberg group arithmetic, word sorting, and progressions.

The membership formula is checked against two independent oracles: 3x3
unitriangular matrix multiplication for the group law, and breadth-first
enumeration over letter budgets for the progressions. The pruned
enumeration is itself checked against the values of every word within the
budgets.
"""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from progvc import heisenberg as hg
from progvc.errors import DomainError, ResourceLimitError
from progvc.heisenberg import (
    MAX_WITNESS_LETTERS,
    MAX_WITNESS_SWAPS,
    HPoint,
    HProgressionSpec,
    enumerate_progression,
    flip_a,
    flip_b,
    h_inv,
    h_mul,
    max_central,
    membership,
    verify_cells,
    witness_word,
    word_counts,
    word_eval,
)
from progvc.setsystem import SetSystem, shatters, translate_vc, vc_dimension_exact

coords = st.integers(-50, 50)
points = st.tuples(coords, coords, coords).map(lambda t: HPoint(*t))
small_coords = st.integers(-6, 6)
small_points = st.tuples(small_coords, small_coords, small_coords).map(lambda t: HPoint(*t))
words = st.text(alphabet="AaBb", max_size=16)

# P(1, 1), worked out from the four-case inequalities: one point per
# (a, b) with ab = -1 shifted by the half-budget products, two per axis
# pair, and the identity.
P11 = {
    (-1, -1, 0), (-1, -1, 1), (-1, 0, 0), (-1, 1, -1), (-1, 1, 0),
    (0, -1, 0), (0, 0, 0), (0, 1, 0),
    (1, -1, -1), (1, -1, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1),
}


def mat(p):
    a, b, c = p
    return ((1, a, c), (0, 1, b), (0, 0, 1))


def mat_mul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3)) for i in range(3)
    )


def unmat(m):
    return HPoint(m[0][1], m[1][2], m[0][2])


GEN_MATS = {"A": mat((1, 0, 0)), "a": mat((-1, 0, 0)), "B": mat((0, 1, 0)), "b": mat((0, -1, 0))}


def eval_by_matrices(word):
    m = mat((0, 0, 0))
    for letter in word:
        m = mat_mul(m, GEN_MATS[letter])
    return unmat(m)


def central_sum(word):
    # The double sum over A-type letters before B-type letters.
    total = 0
    for j, letter in enumerate(word):
        if letter in "Bb":
            eps = 1 if letter == "B" else -1
            for i in range(j):
                if word[i] in "Aa":
                    total += eps * (1 if word[i] == "A" else -1)
    return total


def test_h_mul_examples():
    assert h_mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    assert h_mul((3, -2, 7), (0, 0, 0)) == (3, -2, 7)
    assert word_eval("ABab") == (0, 0, 1)


@given(points, points)
def test_h_mul_matches_matrix_oracle(p, q):
    assert h_mul(p, q) == unmat(mat_mul(mat(p), mat(q)))


@given(points)
def test_h_inv(p):
    assert h_mul(p, h_inv(p)) == (0, 0, 0)
    assert h_mul(h_inv(p), p) == (0, 0, 0)


def test_point_text_round_trip():
    assert hg.parse_point(" 1, -2,3 ") == (1, -2, 3)
    assert hg.format_point((1, -2, 3)) == "1,-2,3"
    with pytest.raises(DomainError):
        hg.parse_point("1,2")
    with pytest.raises(DomainError):
        hg.parse_point("1,2,x")


def test_word_eval_examples():
    assert word_eval("AB") == (1, 1, 1)
    assert word_eval("") == (0, 0, 0)
    assert word_eval("BA") == (1, 1, 0)


def test_word_eval_rejects_other_letters():
    with pytest.raises(DomainError):
        word_eval("ABC")


@given(words)
def test_word_eval_matches_matrix_fold(word):
    assert word_eval(word) == eval_by_matrices(word)


@given(words)
def test_word_eval_central_coordinate_is_the_double_sum(word):
    a, b, c = word_eval(word)
    assert a == word.count("A") - word.count("a")
    assert b == word.count("B") - word.count("b")
    assert c == central_sum(word)


@given(words, words)
def test_word_eval_is_a_homomorphism(u, v):
    assert word_eval(u + v) == h_mul(word_eval(u), word_eval(v))


@given(words)
def test_reverse_word_value(word):
    a, b, c = word_eval(word)
    assert word_eval(word[::-1]) == (a, b, a * b - c)


@given(words)
def test_parity_identities(word):
    a, b, _ = word_eval(word)
    n_a, n_b = word_counts(word)
    assert n_a + a == 2 * word.count("A")
    assert n_b + b == 2 * word.count("B")
    assert abs(a) <= n_a and abs(b) <= n_b


@given(words)
def test_corner_bound(word):
    a, b, c = word_eval(word)
    if a >= 0 and b >= 0:
        assert c <= word.count("A") * word.count("B")


@given(words)
def test_flips_negate_coordinates(word):
    a, b, c = word_eval(word)
    assert word_eval(flip_a(word)) == (-a, b, -c)
    assert word_eval(flip_b(word)) == (a, -b, -c)


def test_reduction_trace_examples():
    assert tuple(hg._trace_steps("AB")) == (("AB", 0), ("BA", 1))
    assert tuple(hg._trace_steps("BA")) == (("BA", 0),)
    assert tuple(hg._trace_steps("Ab")) == (("Ab", 0), ("bA", -1))


@given(words)
def test_reduction_trace_invariants(word):
    steps = tuple(hg._trace_steps(word))
    base = word_eval(word)
    assert steps[0] == (word, 0)
    for (w1, j1), (w2, j2) in zip(steps, steps[1:]):
        assert abs(j1 - j2) == 1
        assert sorted(w1) == sorted(word)
    for w, j in steps:
        # value(w) * C^j is constant along the trace.
        assert h_mul(word_eval(w), (0, 0, j)) == base
    final_word, final_j = steps[-1]
    assert not any(
        x in "Aa" and y in "Bb" for x, y in zip(final_word, final_word[1:])
    )
    assert final_j == base.c


def test_membership_examples():
    spec = HProgressionSpec(1, 1)
    assert membership(spec, (1, 1, 1))
    assert membership(spec, (1, 1, 0))
    assert not membership(spec, (1, 1, 2))
    for n1, n2 in ((0, 0), (3, 1), (7, 7)):
        assert membership(HProgressionSpec(n1, n2), (0, 0, 0))


@given(points, st.integers(0, 6), st.integers(0, 6))
def test_membership_symmetries(p, n1, n2):
    spec = HProgressionSpec(n1, n2)
    a, b, c = p
    flipped_both = membership(spec, (-a, -b, c))
    flipped_a = membership(spec, (-a, b, -c))
    original = membership(spec, p)
    assert original == flipped_both == flipped_a


@given(points, points, st.integers(0, 5), st.integers(0, 5))
def test_membership_translation(g, p, n1, n2):
    translated = HProgressionSpec(n1, n2, g)
    plain = HProgressionSpec(n1, n2)
    assert membership(translated, p) == membership(plain, h_mul(h_inv(g), p))


def test_enumerate_progression_examples():
    assert enumerate_progression(0, 0) == {(0, 0, 0)}
    assert set(enumerate_progression(1, 1)) == P11
    big = enumerate_progression(2, 2)
    assert (0, 0, 1) in big and (0, 0, -1) in big
    with pytest.raises(ResourceLimitError):
        enumerate_progression(7, 6, cap=12)
    with pytest.raises(DomainError):
        enumerate_progression(-1, 0)


def test_enumeration_equals_all_words_within_budget():
    # Values of every word over AaBb with at most 3 letters of each type,
    # keyed by its (A-type, B-type) letter counts; no search involved.
    values = {}
    for length in range(7):
        for letters in product("AaBb", repeat=length):
            word = "".join(letters)
            counts = word_counts(word)
            if max(counts) <= 3:
                values.setdefault(counts, set()).add(eval_by_matrices(word))
    for n1 in range(4):
        for n2 in range(4):
            expected = set().union(*(v for (i, j), v in values.items() if i <= n1 and j <= n2))
            assert enumerate_progression(n1, n2) == expected


def box(n1, n2):
    for a in range(-n1, n1 + 1):
        for b in range(-n2, n2 + 1):
            for c in range(-(n1 * n2 + 1), n1 * n2 + 2):
                yield HPoint(a, b, c)


def test_formula_equals_enumeration_small_budgets():
    for n1 in range(4):
        for n2 in range(4):
            spec = HProgressionSpec(n1, n2)
            enumerated = enumerate_progression(n1, n2)
            from_formula = {p for p in box(n1, n2) if membership(spec, p)}
            assert enumerated == from_formula
            # Nothing enumerable falls outside the scanned box.
            assert all(abs(p.c) <= n1 * n2 + 1 for p in enumerated)


@given(small_points, st.integers(0, 3), st.integers(0, 3))
def test_translated_membership_matches_translated_enumeration(g, n1, n2):
    spec = HProgressionSpec(n1, n2, g)
    enumerated = enumerate_progression(n1, n2)
    for p in box(n1, n2):
        assert membership(spec, h_mul(g, p)) == (p in enumerated)


def test_central_convexity():
    for n1, n2 in ((2, 2), (3, 2)):
        spec = HProgressionSpec(n1, n2)
        for a, b, c in enumerate_progression(n1, n2):
            step = 1 if c >= 0 else -1
            for c2 in range(0, c + step, step):
                assert membership(spec, (a, b, c2))


def test_max_central_examples():
    assert max_central(1, 1, 1, 1) == 1
    assert max_central(0, 0, 2, 2) == 1
    assert max_central(0, 0, 1, 1) == 0
    with pytest.raises(DomainError):
        max_central(-1, 0, 1, 1)
    with pytest.raises(DomainError):
        max_central(2, 0, 1, 1)


def test_max_central_matches_enumeration():
    for n1 in range(4):
        for n2 in range(4):
            pts = enumerate_progression(n1, n2)
            for a in range(n1 + 1):
                for b in range(n2 + 1):
                    best = max(c for (x, y, c) in pts if (x, y) == (a, b))
                    assert max_central(a, b, n1, n2) == best


def test_witness_word_examples():
    word = witness_word((1, 1, 1), 1, 1)
    assert word_eval(word) == (1, 1, 1)
    n_a, n_b = word_counts(word)
    assert n_a <= 1 and n_b <= 1
    assert witness_word((0, 0, 0), 5, 5) == ""
    assert witness_word((1, 1, 0), 1, 1) == "BA"
    with pytest.raises(DomainError):
        witness_word((1, 1, 2), 1, 1)


def test_witness_word_refuses_budgets_past_the_caps():
    # The word would have 2*10^8 letters.
    with pytest.raises(ResourceLimitError, match="letters"):
        witness_word((0, 0, 1), 10**8, 10**8)
    with pytest.raises(ResourceLimitError, match="letters"):
        witness_word((0, 0, 0), MAX_WITNESS_LETTERS + 1, 0)
    # 800 letters, but a walk of up to 200*200 swaps.
    with pytest.raises(ResourceLimitError, match="swaps"):
        witness_word((0, 0, 1), 400, 400)
    # Just inside both caps: 141*141 swaps over 564 letters.
    word = witness_word((0, 0, 1), 283, 283)
    assert 141 * 141 <= MAX_WITNESS_SWAPS and word_eval(word) == (0, 0, 1)


def test_witness_word_covers_all_members_of_small_progressions():
    for n1 in range(4):
        for n2 in range(4):
            for p in enumerate_progression(n1, n2):
                word = witness_word(p, n1, n2)
                n_a, n_b = word_counts(word)
                assert word_eval(word) == p
                assert n_a <= n1 and n_b <= n2


def test_verify_cells_counts_and_fault_injection(verify_faults):
    report = verify_cells(2)
    assert len(report["cells"]) == 9
    assert report["mismatch_count"] == 0
    assert {cell["size"] for cell in report["cells"] if not cell["n1"] and not cell["n2"]} == {1}
    with pytest.raises(ResourceLimitError):
        verify_cells(7, cap=12)
    for plant, nmax, cap, flagged in verify_faults:
        with pytest.MonkeyPatch.context() as mp:
            plant(mp)
            faulty = verify_cells(nmax, cap=cap)
        assert [(c["n1"], c["n2"], c["mismatches"]) for c in faulty["cells"] if c["mismatches"]] == flagged
        assert faulty["mismatch_count"] == 1


def test_verify_cells_oracle_to_nmax_10():
    report = verify_cells(10, cap=20)
    assert report["mismatch_count"] == 0
    assert len(report["cells"]) == 121
    assert report["cells"][-1] == {"n1": 10, "n2": 10, "size": 36391, "mismatches": []}


def test_verify_cells_sizes_equal_separate_enumerations():
    for nmax in range(5):
        for cell in verify_cells(nmax)["cells"]:
            assert cell["size"] == len(enumerate_progression(cell["n1"], cell["n2"]))


def test_verify_cells_flags_wrong_enumerations(monkeypatch):
    # Negative control: a frontier that also reaches (0, 0, 1), which the
    # formula rejects, and (0, 0, 5), outside the box, at budget (1, 1).
    frontier = hg._budget_frontier

    def corrupted(n1, n2):
        found = frontier(n1, n2)
        found[(0, 0, 1)] = found[(0, 0, 5)] = [(1, 1)]
        return found

    monkeypatch.setattr(hg, "_budget_frontier", corrupted)
    report = verify_cells(1)
    flagged = [(c["n1"], c["n2"], c["mismatches"]) for c in report["cells"] if c["mismatches"]]
    assert flagged == [(1, 1, [[0, 0, 1], [0, 0, 5]])]
    assert report["mismatch_count"] == 2


def pointwise_cells(nmax, frontier):
    """verify_cells as a scan of every box point with membership: the
    reference for the column check, for any frontier. A point is in
    P(n1, n2) when one of its budget pairs is <= (n1, n2)."""
    cells = []
    for n1 in range(nmax + 1):
        for n2 in range(nmax + 1):
            points = {
                p for p, pairs in frontier.items() if any(x <= n1 and y <= n2 for x, y in pairs)
            }
            spec = HProgressionSpec(n1, n2)
            top = n1 * n2 + 1
            mismatches = [p for p in box(n1, n2) if membership(spec, p) != (p in points)]
            mismatches.extend(p for p in points if abs(p[2]) > top)
            cells.append(
                {
                    "n1": n1,
                    "n2": n2,
                    "size": len(points),
                    "mismatches": [list(p) for p in sorted(mismatches)],
                }
            )
    total_mismatches = sum(len(cell["mismatches"]) for cell in cells)
    return {"nmax": nmax, "cells": cells, "mismatch_count": total_mismatches}


@st.composite
def corrupted_frontiers(draw):
    """A true frontier for nmax <= 3 with points dropped and points added:
    inside a column of the box, past |c| > n1*n2 + 1, and outside the
    (a, b) rectangle. Each added point gets one budget pair <= nmax."""
    nmax = draw(st.integers(0, 3))
    frontier = hg._budget_frontier(nmax, nmax)
    pair = st.tuples(st.integers(0, nmax), st.integers(0, nmax))
    for p in draw(st.lists(st.sampled_from(sorted(frontier)), max_size=6, unique=True)):
        del frontier[p]
    near = st.integers(-nmax, nmax)
    far = st.integers(nmax + 1, nmax + 2).flatmap(lambda r: st.sampled_from([-r, r]))
    top = nmax * nmax + 1
    tall = st.integers(top - nmax, top + 3).flatmap(lambda c: st.sampled_from([-c, c]))
    added = st.one_of(
        st.tuples(near, near, st.integers(-top, top)),
        st.tuples(near, near, tall),
        st.tuples(far, near, st.integers(-top, top)),
        st.tuples(near, far, st.integers(-top - 2, top + 2)),
    )
    for p in draw(st.lists(added, max_size=6)):
        frontier[p] = [draw(pair)]
    return nmax, frontier


@settings(max_examples=150, deadline=None)
@given(corrupted_frontiers())
@example((2, hg._budget_frontier(2, 2)))
@example((3, {**hg._budget_frontier(3, 3), (0, 0, 11): [(3, 3)], (4, 0, 0): [(0, 0)]}))
def test_column_check_matches_pointwise_scan(case):
    nmax, frontier = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hg, "_budget_frontier", lambda n1, n2: {p: list(v) for p, v in frontier.items()})
        report = verify_cells(nmax)
    assert report == pointwise_cells(nmax, frontier)


def test_spec_rejects_negative_budgets():
    with pytest.raises(DomainError):
        HProgressionSpec(-1, 0)


def test_translate_vc_matches_the_unrooted_walk_on_the_same_system():
    # The finite system on B = K*K of the translates g*K, g in B*K, plus the
    # empty trace, built with the membership formula and searched unrooted.
    K = sorted(enumerate_progression(1, 1))
    B = sorted({h_mul(x, y) for x in K for y in K})
    family = [
        [b for b in B if membership(HProgressionSpec(1, 1, g), b)]
        for g in {h_mul(b, k) for b in B for k in K}
    ]
    unrooted = vc_dimension_exact(SetSystem(B, family + [[]]))
    result = translate_vc(K, h_mul, h_inv, hg.IDENTITY)
    assert unrooted == result["vc"] == 3
    assert result["ground_size"] == len(B) == 79
    report = result["witness"]
    traces = [
        [p for p in report.points if membership(HProgressionSpec(1, 1, g), p)]
        for g in report.traces.values()
    ]
    assert shatters(SetSystem(report.points, traces), report.points).shattered
    for mask, g in report.traces.items():
        assert {p for p in report.points if membership(HProgressionSpec(1, 1, g), p)} == set(
            report._subset(mask)
        )
