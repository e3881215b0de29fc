"""Integer bound functions used in shatter-function estimates.

Everything here is exact integer arithmetic. Inequalities that are stated
with base-2 logarithms are decided in their equivalent power form, e.g.
``k*log2(m) < n`` becomes ``m**k < 2**n``, so no floating point enters any
verdict. Logarithms are base 2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, ResourceLimitError

# Cap on the integers here, in bits: every value prints in fewer digits
# than Python's default int-to-str limit of 4,300 (14,284 bits). The f and g
# scans compare against 2**n, so the cap is also where they stop on n;
# their condition is eventually monotone in n, so stopping refuses large
# arguments but never gives a wrong answer.
MAX_BITS = 12_000


def _check_bits(what: str, bits: int) -> None:
    if bits > MAX_BITS:
        raise ResourceLimitError(f"{what} may need {bits} bits, past the cap of {MAX_BITS}")


def _capital_c_bits(d: int, n: int) -> int:
    """An upper bound on the bit length of capital_c(d, n) <= min(2**n, (n+1)**d)."""
    return min(n + 1, d * (n + 1).bit_length())


def _capital_c_scan(d: int):
    """(n, capital_c(d, n)) for n = 0, 1, ..., MAX_BITS, from
    C(n+1, <=d) = 2*C(n, <=d) - C(n, d) and C(n+1, d) = C(n, d)*(n+1)/(n+1-d)."""
    total, top = 1, int(d == 0)
    for n in range(MAX_BITS + 1):
        yield n, total
        total = 2 * total - top
        top = 1 if n + 1 == d else top * (n + 1) // (n + 1 - d)


def capital_c(d: int, n: int) -> int:
    """Sum of binomial coefficients C(n, 0) + ... + C(n, d).

    This is the Sauer-Shelah bound on the shatter function of a system of
    VC dimension d evaluated at n points.
    """
    if d < 0 or n < 0:
        raise DomainError(f"capital_c requires d >= 0 and n >= 0, got d={d}, n={n}")
    _check_bits(f"capital_c({d}, {n})", _capital_c_bits(d, n))
    total = term = 1
    for i in range(min(d, n)):
        term = term * (n - i) // (i + 1)  # C(n, i + 1)
        total += term
    return total


def f_bound(d: int, k: int) -> int:
    """Least n with capital_c(d, n)**k < 2**n.

    Controls how many points a k-fold intersection of systems of VC
    dimension d can shatter: the VC dimension of the intersection system
    is strictly below this value.
    """
    if d < 0 or k < 1:
        raise DomainError(f"f_bound requires d >= 0 and k >= 1, got d={d}, k={k}")
    for n, c in _capital_c_scan(d):
        # c**k < 2**n needs (bit_length(c) - 1) * k < n; test that first, so
        # no power past about 2n bits is built.
        if (c.bit_length() - 1) * k < n and c**k < 2**n:
            return n
    raise ResourceLimitError(f"f_bound scan exceeded ceiling {MAX_BITS} for d={d}, k={k}")


def g_bound(d: int, k: int) -> int:
    """k * (n0 - 1) where n0 is the least n with k * capital_c(d, n) < 2**n.

    Bounds the VC dimension of a union of k cosets, each carrying a trace
    system of VC dimension at most d.
    """
    if d < 0 or k < 1:
        raise DomainError(f"g_bound requires d >= 0 and k >= 1, got d={d}, k={k}")
    for n, c in _capital_c_scan(d):
        if k * c < 2**n:
            return k * (n - 1)
    raise ResourceLimitError(f"g_bound scan exceeded ceiling {MAX_BITS} for d={d}, k={k}")


def km_bound(d: int, l: int, s: int, n: int) -> int:
    """d * (2d-1)**(l-1) * sum_{i<=l} 2**i * C(s*n, i).

    Counts sign patterns of l integer polynomials of degree at most d in s
    parameter variables, evaluated over n parameter points.
    """
    if d < 1 or l < 1 or s < 1 or n < 0:
        raise DomainError(
            f"km_bound requires d, l, s >= 1 and n >= 0, got d={d}, l={l}, s={s}, n={n}"
        )
    # The sum is at most 2**l * capital_c(l, s*n).
    bits = d.bit_length() + (l - 1) * (2 * d - 1).bit_length() + l + _capital_c_bits(l, s * n)
    _check_bits(f"km_bound({d}, {l}, {s}, {n})", bits)
    return d * (2 * d - 1) ** (l - 1) * sum(2**i * math.comb(s * n, i) for i in range(l + 1))


@dataclass
class ThresholdReport:
    """Outcome of scanning an integer inequality around its flip point;
    ``verified`` when it holds and fails exactly where the bound needs."""

    check: str
    holds_at: list[int] = field(default_factory=list)
    fails_at: list[int] = field(default_factory=list)
    bound: int = 0
    verified: bool = False

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "holds_at": list(self.holds_at),
            "fails_at": list(self.fails_at),
            "bound": self.bound,
        }


def _flip_scan(
    check: str, holds: Callable[[int], bool], flip: tuple[int, int], bound: int
) -> ThresholdReport:
    """Test ``holds`` at both n of ``flip``, the n where the inequality
    should hold and the n where it should fail, the smaller first."""
    report = ThresholdReport(check=check, bound=bound)
    for n in sorted(flip):
        (report.holds_at if holds(n) else report.fails_at).append(n)
    report.verified = (report.holds_at, report.fails_at) == ([flip[0]], [flip[1]])
    return report


def _translate_pattern_count(n: int) -> int:
    # Pattern count for membership in arbitrary translates of arbitrary
    # two-sided progressions in the Heisenberg group: four sign cases, each
    # a Boolean combination of 14 quadratic polynomials in 5 parameters.
    return (648 * sum(2**i * math.comb(14 * n, i) for i in range(6))) ** 4


def verify_heisenberg_translate_threshold() -> ThresholdReport:
    """Locate the flip of (648 * sum_{i<=5} 2**i C(14n, i))**4 < 2**n.

    The inequality first holds at n = 268 and fails at n = 267, which caps
    the VC dimension of the translate system at 267.
    """
    return _flip_scan(
        "heisenberg-translates", lambda n: _translate_pattern_count(n) < 2**n, (268, 267), 267
    )


def _fixed_pattern_count(n: int) -> int:
    # Per-coset pattern count for translates of one fixed progression,
    # multiplied by the 4 cosets of (2Z x 2Z x Z).
    return 288 * sum(2**i * math.comb(14 * n, i) for i in range(4))


def verify_heisenberg_fixed_threshold() -> ThresholdReport:
    """Locate the flip of 2**n <= 288 * sum_{i<=3} 2**i C(14n, i).

    The inequality holds at n = 35 and fails at n = 36; with the four-coset
    split this caps the VC dimension of translates of any single fixed
    progression at 4 * 35 = 140.
    """
    return _flip_scan(
        "heisenberg-fixed-progression", lambda n: 2**n <= _fixed_pattern_count(n), (35, 36), 4 * 35
    )
