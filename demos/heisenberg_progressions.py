"""Tour of integer Heisenberg progressions.

Multiplies a few group elements, evaluates words, prints the progression
P(1,1) in full, and cross-checks the closed-form membership test against
brute-force enumeration on a small grid of budgets, and decides the VC
dimension of the translates of P(1,1).
"""

from progvc.heisenberg import (
    IDENTITY,
    HPoint,
    HProgressionSpec,
    enumerate_progression,
    format_point,
    h_inv,
    h_mul,
    max_central,
    membership,
    verify_cells,
    witness_word,
    word_eval,
)
from progvc.setsystem import translate_vc

print("Multiplication is (x,y,z)(x',y',z') = (x+x', y+y', z+z'+xy'):")
p, q = HPoint(1, 0, 0), HPoint(0, 1, 0)
print(f"  A*B = {format_point(h_mul(p, q))},  B*A = {format_point(h_mul(q, p))}")
print("  so the commutator [A,B] lands on the central axis:")
print(f"  word 'ABab' evaluates to {format_point(word_eval('ABab'))}")
print()

print("P(1,1): points reachable with at most one A-letter and one B-letter.")
points = sorted(enumerate_progression(1, 1))
for pt in points:
    w = witness_word(pt, 1, 1)
    print(f"  {format_point(pt):>10}  via {w!r}")
print(f"  total: {len(points)} points")
print()

print("The central reach c*(a,b) grows to n1*n2 at the corner:")
for a in range(3):
    row = [max_central(a, b, 2, 2) for b in range(3)]
    print(f"  a={a}: {row}")
print()

print("Membership formula vs enumeration for all budgets up to 3:")
report = verify_cells(3)
worst = max(cell["size"] for cell in report["cells"])
print(f"  {len(report['cells'])} cells checked, largest has {worst} points,")
print(f"  mismatches: {report['mismatch_count']}")
print()

print("A translate shifts the whole picture without changing its size:")
g = HPoint(5, -3, 7)
spec = HProgressionSpec(1, 1, translate=g)
inside = sum(
    membership(spec, h_mul(g, pt)) for pt in points
)
print(f"  all {inside} points of g*P(1,1) found again around g = {format_point(g)}")
print()

print("VC dimension of the translates g*P(1,1), decided exactly on B = P*P:")
result = translate_vc(points, h_mul, h_inv, IDENTITY)
print(f"  VC = {result['vc']}, over |B| = {result['ground_size']} points and "
      f"{result['translates']} translates meeting B ({result['nodes']} walk nodes)")
shattered = ", ".join(format_point(p) for p in result["witness"].points)
print(f"  shattered set {{{shattered}}}; the paper's bound for these translates is 140")
