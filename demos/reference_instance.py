"""Walk through a small hand-checkable instance end to end.

Two agents, four goods, two goods each.  We enumerate every balanced
allocation, flag fairness and efficiency exactly, and let the solver find
the unique allocation that is both EF1 and fractionally Pareto optimal.
"""

from fairbalance import (
    check_fpo,
    full_report,
    is_ef1,
    make_allocation,
    make_instance,
    solve,
)

inst = make_instance(2, 4, [[10, 10, 21, 22], [0, 1, 6, 8]])

print("valuations:")
for i, row in enumerate(inst.values, start=1):
    print(f"  agent {i}: {[int(v) for v in row]}")

print("\nall balanced allocations (value vectors and flags):")
report = full_report(inst)
for record in report.records:
    bundles = " / ".join(str(sorted(b)) for b in record.allocation.bundles)
    flags = " ".join(
        name for name, on in [("EF1", record.ef1), ("PO", record.po), ("fPO", record.fpo)] if on
    )
    print(f"  {bundles:24s} values {tuple(int(v) for v in record.values)}  {flags}")

print("\nobservations:")
nash_best = max(report.records, key=lambda r: r.nash)
print(f"  the Nash product is maximized by {[sorted(b) for b in nash_best.allocation.bundles]}"
      f" (product {int(nash_best.nash)}), yet that allocation is not EF1")
po_only = make_allocation([{1, 4}, {2, 3}])
print(f"  [[1, 4], [2, 3]] is Pareto optimal but a fractional lottery dominates it:"
      f" fPO check says {check_fpo(inst, po_only).is_fpo}")

solution = solve(inst)  # two rows, so the two-type solver
allocation, gamma, potentials = solution.allocation, solution.gamma, solution.potentials
print(f"\nsolver output: {[sorted(b) for b in allocation.bundles]}  (weight ratio {gamma})")
print(f"  EF1: {is_ef1(inst, allocation).holds}")
print(f"  fPO: {check_fpo(inst, allocation).is_fpo}")
print(f"  prices: {[str(p) for p in potentials.p]}")
print(f"  agent potentials: {[str(q) for q in potentials.q]}")
solver_record = next(r for r in report.records if r.allocation == allocation)
print(f"  nash product: {int(solver_record.nash)}")
