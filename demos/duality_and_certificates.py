"""Dual certificates: how optimality and efficiency are proved exactly.

A balanced allocation maximizes a positively weighted welfare if and only
if its exchange graph has no negative cycle; the shortest-path potentials
then certify optimality through complementary slackness.  Everything here
is exact rational arithmetic, so equalities are real equalities.
"""

from fractions import Fraction

from fairbalance import (
    build_exchange_graph,
    compute_potentials,
    detect_negative_cycle,
    make_allocation,
    make_instance,
    solve_dual,
    solve_primal,
    verify_complementary_slackness,
)
from fairbalance.graph import cycle_weight

inst = make_instance(2, 4, [[10, 10, 21, 22], [0, 1, 6, 8]])
alpha = (Fraction(1), Fraction(1))

print("maximizing total value over balanced allocations:")
best, value = solve_primal(inst, alpha)
print(f"  optimum {value} at {[sorted(b) for b in best.bundles]}"
      " (the LP vertex is automatically integral)")

pot = solve_dual(inst, alpha)
print(f"  dual optimum k*sum(q) + sum(p) = {pot.objective(inst.k)} (equal by strong duality)")
print(f"  complementary slackness: {verify_complementary_slackness(inst, best, pot, alpha)}")

print("\nnegative cycles witness suboptimality:")
bad = make_allocation([{1, 2}, {3, 4}])
graph = build_exchange_graph(inst, bad, alpha)
cycle = detect_negative_cycle(graph)
print(f"  allocation {[sorted(b) for b in bad.bundles]} has cycle {cycle}")
print(f"  cycle weight {cycle_weight(graph, cycle)} < 0, so a swap along it helps someone")

good_graph = build_exchange_graph(inst, best, alpha)
print(f"  the optimal allocation has no cycle: {detect_negative_cycle(good_graph)}")

print("\nshortest-path potentials at the optimum:")
sp = compute_potentials(inst, best, alpha)
print(f"  q = {[str(v) for v in sp.q]}, p = {[str(v) for v in sp.p]}")
print(f"  objective {sp.objective(inst.k)}, nonnegative and dual feasible by construction")
