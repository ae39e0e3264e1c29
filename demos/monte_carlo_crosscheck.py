"""Cross-validate the grid solver against Monte Carlo policy evaluation.

Simulates the solver's own policy path by path (exponential claim arrival
times, claims split between the branches, lump and rounding payouts
discounted at their exact instants) and compares the sample mean against
the solver's value at the same node.  Each run stops once what its live
paths could still earn (tail_bound) is at most 0.05 of its standard
error, after the claim rounds it reports.  Also checks the pay-everything
strategy against its closed form x1 + x2 + (c1 + c2)/(q + lambda).
"""

import numpy as np

from divopt import (
    Exponential,
    GridSpec,
    ModelParams,
    PolicyTable,
    SurplusPoint,
    TakeAndRun,
    estimate_gap,
    simulate_policy,
    solve,
    validate_params,
)

params = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
law = Exponential(0.6)
grid = GridSpec.make(params, delta=0.06, x1_max=14, x2_max=14)
v, policy, rep = solve(params, law, grid)
print(f"solver: {len(rep.levels)} grids, {rep.policies} policies, "
      f"residual {rep.residual_max:.1e}")

n_paths = 50_000
print(f"\npolicy evaluation with {n_paths} paths per point:")
print(f"{'start':>14} {'solver':>9} {'simulated':>16} {'z':>6} {'rounds':>6} {'tail_bound':>10}")
table = PolicyTable(policy)
starts = [(5.4, 6.36), (2.04, 3.0), (8.04, 3.0)]
# one independent stream per start point, as the simulate command does
for (x1, x2), stream in zip(starts, np.random.SeedSequence(99).spawn(len(starts))):
    n, m = round(x1 / grid.dx1), round(x2 / grid.dx2)
    x0 = SurplusPoint(n * grid.dx1, m * grid.dx2)
    res = simulate_policy(params, law, table, x0, n_paths, stream)
    z = estimate_gap(res, v.values[n, m])
    print(f"({x0.x1:5.2f},{x0.x2:5.2f}) {v.values[n, m]:9.4f} "
          f"{res.mean:9.4f}+-{res.stderr:.4f} {z:+6.2f} {res.rounds:6d} {res.tail_bound:10.2e}")

x0 = SurplusPoint(3.0, 5.0)
res = simulate_policy(params, law, TakeAndRun(), x0, n_paths, seed=7)
target = x0.x1 + x0.x2 + (params.c1 + params.c2) / (params.q + params.lam)
print(f"\npay-everything at {x0.x1, x0.x2}: simulated {res.mean:.4f}+-{res.stderr:.4f}, "
      f"closed form {target:.4f}, z = {estimate_gap(res, target):+.2f}")
print("the pay-everything value is also the global lower bound of the problem.")
