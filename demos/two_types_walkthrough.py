"""Two agent types: scanning the weight ratio until fairness appears.

With types weighted 1 and gamma, the optimal split of goods changes only
at finitely many critical ratios.  This script prints the whole grid of
them and each interval's split.  The solver visits only the ratios where
the split changes, deals each type's goods by descending value, and stops
at the first EF1 deal.  Dual prices order each type's goods as its values
do, so the printed prices never reorder a deal within an interval.
Efficiency is automatic because every deal maximizes the weighted welfare
at its gamma.
"""

from fractions import Fraction

from fairbalance import (
    check_fpo,
    compute_delta,
    compute_potentials,
    critical_values,
    is_ef1,
    make_allocation,
    make_instance,
    optimal_split,
    solve_two_types,
)
from fairbalance.core import two_type_view

inst = make_instance(2, 4, [[10, 10, 21, 22], [0, 1, 6, 8]])
view = two_type_view(inst)

delta = compute_delta(view.u1, view.u2)
grid = critical_values(view.u1, view.u2)
print(f"delta = {delta}, so gamma ranges over [{delta}, {1/delta}]")
print("critical ratios:", [str(g) for g in grid.criticals])

print("\noptimal type-1 good sets per interval (computed at midpoints):")
for ell in range(1, grid.interval_count + 1):
    lo, hi = grid.interval(ell)
    split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
    print(f"  gamma in [{lo}, {hi}]: type 1 gets {sorted(split)}")

print("\ndealt allocations and prices at a few grid points:")
for gamma in (delta, Fraction(1), Fraction(3, 2), grid.upper):
    ell = next(
        e for e in range(1, grid.interval_count + 1)
        if grid.interval(e)[0] <= gamma <= grid.interval(e)[1]
    )
    lo, hi = grid.interval(ell)
    split = optimal_split(view.u1, view.u2, (lo + hi) / 2, view.n1, inst.k)
    # one agent per type, so the deal gives agent 1 the split and agent 2 the rest
    dealt = make_allocation([split, set(inst.goods()) - split])
    pot = compute_potentials(inst, dealt, view.weights(gamma))
    print(f"  gamma={str(gamma):7s} type-1 bundles {[sorted(dealt.bundle(i)) for i in view.members1]} "
          f"type-2 bundles {[sorted(dealt.bundle(i)) for i in view.members2]} "
          f"prices {[str(p) for p in pot.p]}")

solution = solve_two_types(inst)
allocation, gamma = solution.allocation, solution.gamma
print(f"\nsolver returns {[sorted(b) for b in allocation.bundles]} at gamma = {gamma}")
print("EF1:", is_ef1(inst, allocation).holds, " fPO:", check_fpo(inst, allocation).is_fpo)
