"""Personalized bivalued valuations: one matching, fair and efficient.

Each agent rates every good either "high" (a_i) or "low" (b_i).  Expanding
each agent into k slots, weighing a high good K + s in slot s (K =
n*k*(k+1)) and a low good 0, makes a single maximum-weight perfect matching
both EF1 and fPO.  fPO is then checked twice: by ``certify_fpo`` at the
certificate weights 1/(a_i - b_i), which holds exactly when the exchange
graph has no negative cycle, and by the exact LP test.
"""


from fairbalance import certify_fpo, check_fpo, is_ef1, make_instance, solve_bivalued
from fairbalance.bivalued import bivalued_pairs, certificate_alpha, slot_rows

inst = make_instance(
    3,
    6,
    [
        [7, 2, 7, 2, 2, 7],   # agent 1: high 7, low 2
        [9, 9, 0, 0, 9, 0],   # agent 2: high 9, low 0
        [5, 4, 4, 5, 5, 4],   # agent 3: high 5, low 4
    ],
)

pairs = bivalued_pairs(inst)  # ints over inst.scale, which is 1 here
scale = inst.n * inst.k * (inst.k + 1)
print(f"n={inst.n} agents, m={inst.m} goods, k={inst.k} each; K = n*k*(k+1) = {scale}")
print("per-agent (high, low) pairs:", list(pairs))

print("\ninteger slot weights for agent 1 (slots are rows, goods are columns):")
for s, row in enumerate(slot_rows(inst)[:inst.k], start=1):
    print(f"  slot {s}: {list(row)}")

solution = solve_bivalued(inst)
allocation, alpha = solution.allocation, solution.alpha
print("\nallocation:", [sorted(b) for b in allocation.bundles])
print("certificate weights 1/(a_i - b_i):", [str(a) for a in alpha])
print("EF1:", is_ef1(inst, allocation).holds)
print("fPO via the weighted exchange graph:", certify_fpo(inst, allocation, certificate_alpha(inst)).holds)
print("fPO via the exact LP test:         ", check_fpo(inst, allocation).is_fpo)

high_per_agent = [
    sum(1 for j in allocation.bundle(i) if inst.rows[i - 1][j - 1] == pairs[i - 1][0])
    for i in inst.agents()
]
print("high goods received per agent:", high_per_agent, "(spread within one unit)")
