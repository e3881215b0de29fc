"""Set systems, shattering, and the shatter function.

Uses the three cosets of {0,3} in Z_6 as a running example, then shows
how the complement, intersection, and preimage constructions move the
shatter function around within the Sauer-Shelah envelope.
"""

from progvc.bounds import capital_c
from progvc.setsystem import (
    SetSystem,
    complement_system,
    cuts_out,
    intersection_system,
    preimage_system,
    shatter_function,
    shatters,
    vc_dimension_exact,
)

ground = list(range(6))
cosets = SetSystem(ground, [{0, 3}, {1, 4}, {2, 5}])
print(f"Cosets of {{0,3}} in Z_6: {[sorted(s) for s in cosets.members()]}")
print(f"  cuts {0} out of {{0,1}}: {cuts_out(cosets, [0, 1], [0])}")
report = shatters(cosets, [0, 1])
print(f"  {{0,1}} is {report.verdict}; no member cuts out "
      f"{[sorted(m) for m in report.missing]}")
print(f"  (the trace {{0,1}} itself is impossible: cosets are disjoint)")
print(f"  VC dimension: {vc_dimension_exact(cosets)}")
print(f"  shatter function: {[shatter_function(cosets, n) for n in range(7)]}")
print()

d = vc_dimension_exact(cosets)
print(f"Sauer-Shelah envelope c_{d}(n) for comparison: "
      f"{[capital_c(d, n) for n in range(7)]}")
print()

comp = complement_system(cosets)
print(f"Complements have the same traces up to flipping: "
      f"{[shatter_function(comp, n) for n in range(7)]}")

inter = intersection_system(cosets, comp)
print(f"Pairwise intersections multiply the envelope at worst: "
      f"{[shatter_function(inter, n) for n in range(7)]}")

mapping = {f"u{j}": j % 6 for j in range(9)}
pre = preimage_system(mapping, cosets)
print(f"Preimages under u_j -> j mod 6 never shatter more: "
      f"{[shatter_function(pre, n) for n in range(7)]}")
print()

intervals = SetSystem(
    ground, [set(range(a, b)) for a in range(7) for b in range(a, 7)]
)
print(f"Intervals on 6 points: VC dimension {vc_dimension_exact(intervals)}, "
      f"shatter function {[shatter_function(intervals, n) for n in range(7)]}")
