"""Dual certificates: how optimality and efficiency are proved exactly.

A balanced allocation maximizes a positively weighted welfare if and only
if its exchange graph has no negative cycle; the shortest-path potentials
then certify optimality.  No LP is solved: every balanced allocation gives
each agent k goods, so for any dual-feasible pair (q_i + p_j >= alpha_i *
v_ij on every pair) k*sum(q) + sum(p) bounds the weighted welfare from
above (weak duality), and a pair whose bound equals an allocation's
welfare proves both optimal.  Everything here is exact rational
arithmetic, so equalities are real equalities.
"""

from fractions import Fraction

from fairbalance import (
    build_exchange_graph,
    compute_potentials,
    detect_negative_cycle,
    full_report,
    make_allocation,
    make_instance,
    verify_complementary_slackness,
)
from fairbalance.graph import cycle_weight

inst = make_instance(2, 4, [[10, 10, 21, 22], [0, 1, 6, 8]])
alpha = (Fraction(1), Fraction(1))


print("maximizing total value over balanced allocations:")
records = full_report(inst).records
best_record = max(records, key=lambda r: r.utilitarian)
best = best_record.allocation
print(f"  optimum {best_record.utilitarian} at {[sorted(b) for b in best.bundles]}"
      f" (the best of all {len(records)} balanced allocations)")

print("\nshortest-path potentials at the optimum:")
pot = compute_potentials(inst, best, alpha)
print(f"  q = {[str(v) for v in pot.q]}, p = {[str(v) for v in pot.p]}")
print(f"  k*sum(q) + sum(p) = {inst.k * sum(pot.q) + sum(pot.p)}"
      " = the optimum, so by weak duality both are optimal")
print(f"  complementary slackness: {verify_complementary_slackness(inst, best, pot, alpha)}")

print("\nnegative cycles witness suboptimality:")
bad = make_allocation([{1, 2}, {3, 4}])
graph = build_exchange_graph(inst, bad, alpha)
cycle = detect_negative_cycle(graph)
print(f"  allocation {[sorted(b) for b in bad.bundles]} has cycle {cycle}")
print(f"  cycle weight {cycle_weight(graph, cycle)} < 0, so a swap along it helps someone")

good_graph = build_exchange_graph(inst, best, alpha)
print(f"  the optimal allocation has no cycle: {detect_negative_cycle(good_graph)}")
