"""Tests for the exact integer bound functions.

Frozen values below were derived by independent scans of the defining
inequalities with math.comb before being written down here; the tests
re-derive each one inline so a regression points at the exact flip.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from progvc import bounds
from progvc.errors import DomainError, ResourceLimitError


def cd(d, n):
    # Independent oracle for capital_c.
    return sum(math.comb(n, i) for i in range(d + 1))


def test_capital_c_examples():
    assert bounds.capital_c(2, 4) == 11  # 1 + 4 + 6
    for n in (0, 1, 7, 40):
        assert bounds.capital_c(0, n) == 1
    assert bounds.capital_c(5, 3) == 8  # d >= n, so the full powerset 2^3


def test_capital_c_equals_power_when_d_at_least_n():
    for n in range(10):
        for d in range(n, n + 3):
            assert bounds.capital_c(d, n) == 2**n


def test_capital_c_rejects_negative_arguments():
    with pytest.raises(DomainError):
        bounds.capital_c(-1, 4)
    with pytest.raises(DomainError):
        bounds.capital_c(2, -1)
    # About 15,000 digits, past what an int prints as.
    with pytest.raises(ResourceLimitError):
        bounds.capital_c(5000, 100000)


@given(st.integers(0, 12), st.integers(0, 40))
def test_capital_c_matches_comb_sum(d, n):
    assert bounds.capital_c(d, n) == cd(d, n)


def test_capital_c_at_most_n_plus_1_power_d():
    for d in range(7):
        for n in range(41):
            assert bounds.capital_c(d, n) <= (n + 1) ** d or d == 0


def test_capital_c_e_over_d_bound():
    # cd(d, n) <= (e*n/d)**d for n >= d >= 1. Checking against a rational
    # LOWER approximation of e makes the pass a certificate for the real
    # inequality (the true right side is larger still).
    e_lower = Fraction(2718281828459045, 10**15)
    for d in range(1, 7):
        for n in range(d, 41):
            assert bounds.capital_c(d, n) <= (e_lower * n / d) ** d


def test_f_bound_frozen_values():
    # (1,1): n=1 gives 2^1 < 2^1 false; n=2 gives 3 < 4.
    assert bounds.f_bound(1, 1) == 2
    # cd(0, n) = 1, and 1 < 2^n first at n = 1.
    for k in range(1, 6):
        assert bounds.f_bound(0, k) == 1
    # cd(2, 13)^2 = 92^2 = 8464 >= 2^13; cd(2, 14)^2 = 106^2 = 11236 < 2^14.
    assert bounds.f_bound(2, 2) == 14
    # cd(3, 21)^2 = 1562^2 >= 2^21; cd(3, 22)^2 = 1794^2 < 2^22.
    assert bounds.f_bound(3, 2) == 22


@given(st.integers(0, 5), st.integers(1, 5))
def test_f_bound_is_minimal(d, k):
    n = bounds.f_bound(d, k)
    assert cd(d, n) ** k < 2**n
    if n > 0:
        assert cd(d, n - 1) ** k >= 2 ** (n - 1)


def test_g_bound_frozen_values():
    # Least n with 2 * cd(1, n) < 2^n is 4 (n=3: 8 < 8 fails), so 2*(4-1).
    assert bounds.g_bound(1, 2) == 6
    # Least n with 1 < 2^n is 1, so 1*(1-1).
    assert bounds.g_bound(0, 1) == 0
    # Least n with 2 * cd(3, n) < 2^n is 8 (n=7: 128 < 128 fails), so 2*7.
    assert bounds.g_bound(3, 2) == 14


@given(st.integers(0, 5), st.integers(1, 5))
def test_g_bound_is_k_times_minimal_minus_one(d, k):
    g = bounds.g_bound(d, k)
    assert g % k == 0
    n0 = g // k + 1
    assert k * cd(d, n0) < 2**n0
    if n0 > 0:
        assert k * cd(d, n0 - 1) >= 2 ** (n0 - 1)


def test_g_at_most_f_minus_k_on_grid():
    for d in range(1, 9):
        for k in range(1, 9):
            if d > k >= 2:
                assert bounds.g_bound(d, k) <= bounds.f_bound(d, k) - k


def test_f_exceeds_dk_log_k_on_grid():
    # d*k*log2(k) < f(d, k), in the exact form k^(d*k) < 2^f.
    for d in range(1, 9):
        for k in range(1, 9):
            assert k ** (d * k) < 2 ** bounds.f_bound(d, k)


def test_domain_errors_for_f_and_g():
    with pytest.raises(DomainError):
        bounds.f_bound(-1, 1)
    with pytest.raises(DomainError):
        bounds.f_bound(2, 0)
    with pytest.raises(DomainError):
        bounds.g_bound(2, 0)


def test_scan_ceiling_raises_resource_error():
    # Both scans stop at n = MAX_BITS, and these answers lie past it.
    with pytest.raises(ResourceLimitError):
        bounds.f_bound(300, 300)
    with pytest.raises(ResourceLimitError):
        bounds.g_bound(1, 2**12000)


def test_km_bound_frozen_value():
    # 2 * 3^4 * (1 + 2*14 + 4*91 + 8*364 + 16*1001 + 32*2002) for s*n = 14.
    factor = sum(2**i * math.comb(14, i) for i in range(6))
    assert bounds.km_bound(2, 5, 14, 1) == 162 * factor == 13508370


def test_km_bound_collapses_for_small_parameters():
    for n in range(6):
        assert bounds.km_bound(1, 1, 1, n) == 1 + 2 * n
    for d in range(1, 5):
        assert bounds.km_bound(d, 1, 3, 0) == d


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 6), st.integers(0, 6))
def test_km_bound_matches_formula(d, l, s, n):
    expected = d * (2 * d - 1) ** (l - 1) * sum(2**i * math.comb(s * n, i) for i in range(l + 1))
    assert bounds.km_bound(d, l, s, n) == expected


def test_km_bound_domain_errors():
    for bad in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, -1)):
        with pytest.raises(DomainError):
            bounds.km_bound(*bad)
    with pytest.raises(ResourceLimitError):
        bounds.km_bound(2, 100000, 1, 100000)


def translate_count(n):
    # Oracle for the translate-family pattern count.
    return (648 * sum(2**i * math.comb(14 * n, i) for i in range(6))) ** 4


def fixed_count(n):
    # Oracle for the fixed-progression pattern count.
    return 288 * sum(2**i * math.comb(14 * n, i) for i in range(4))


def test_translate_threshold_report():
    report = bounds.verify_heisenberg_translate_threshold()
    assert report.holds_at == [268]
    assert report.fails_at == [267]
    assert report.bound == 267
    assert report.to_json() == {
        "check": "heisenberg-translates",
        "holds_at": [268],
        "fails_at": [267],
        "bound": 267,
    }
    # Same comparison, recomputed from scratch.
    assert translate_count(267) >= 2**267
    assert translate_count(268) < 2**268


def test_translate_inequality_keeps_holding_up_to_400():
    for n in range(268, 401):
        assert translate_count(n) < 2**n


def test_fixed_threshold_report():
    report = bounds.verify_heisenberg_fixed_threshold()
    assert report.holds_at == [35]
    assert report.fails_at == [36]
    assert report.bound == 140 == 4 * 35
    assert 2**35 <= fixed_count(35)
    assert 2**36 > fixed_count(36)


def test_fixed_inequality_keeps_failing_up_to_100():
    for n in range(36, 101):
        assert 2**n > fixed_count(n)
