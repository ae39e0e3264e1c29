"""Keep two branches or merge them?

Compares the two-branch optimal value against the merged company (pooled
premiums, full claims, one ruin barrier) with and without a merger cost.
Without cost the merger always dominates: any two-branch payout plan can
be replayed by the merged company, which also survives longer.  With a
cost the comparison flips near the diagonal, where the two-branch company
is least fragile, and favors the merger when one branch is much richer
than the other.
"""

import numpy as np

from divopt import (
    Exponential,
    GridSpec,
    ModelParams,
    merger_compare,
    solve,
    validate_params,
)

params = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
law = Exponential(0.6)
grid = GridSpec.make(params, delta=0.06, x1_max=14, x2_max=14)
v, policy, rep = solve(params, law, grid)
print(f"two-branch solve: {len(rep.levels)} grids, {rep.policies} policies, "
      f"residual {rep.residual_max:.1e}")

samples = [(5.0, 5.0), (6.0, 7.0), (4.0, 5.0), (12.0, 1.0), (1.0, 12.0), (13.0, 2.0)]

print("\nno merger cost (values net of the combined surplus):")
rows, merger = merger_compare(params, law, 0.0, samples, v)
print(f"{'x1':>6} {'x2':>6} {'merged':>9} {'two-branch':>11} {'gap':>8}")
for x1, x2, vm, vd in rows:
    print(f"{x1:6.2f} {x2:6.2f} {vm:9.4f} {vd:11.4f} {vm - vd:+8.4f}")

print("\nmerger cost 3 (merged entry is None when x1 + x2 < 3):")
rows, _ = merger_compare(params, law, 3.0, samples, v)
print(f"{'x1':>6} {'x2':>6} {'merged':>9} {'two-branch':>11} {'gap':>8}")
for x1, x2, vm, vd in rows:
    gap = "     n/a" if vm is None else f"{vm - vd:+8.4f}"
    vm_s = "      --" if vm is None else f"{vm:9.4f}"
    print(f"{x1:6.2f} {x2:6.2f} {vm_s} {vd:11.4f} {gap}")
print("\nnear the diagonal the cost outweighs the pooling benefit; with a")
print("large surplus imbalance the merged company comes out ahead.")
