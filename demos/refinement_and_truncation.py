"""Grid refinement and domain truncation behavior of the 2D solver.

Halving the step refines both grid spacings together (they are premium
rates times the step), the coarse grid nests in the fine one, and the
extended values increase monotonically toward the continuous value.
Doubling the truncated domain must leave the solution on the original
window essentially unchanged, which validates the unit-slope extension
used at the boundary.
"""

import numpy as np

from divopt import Exponential, GridSpec, ModelParams, solve, validate_params

params = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
law = Exponential(0.6)

pts = [(1.7, 2.3), (5.4, 6.36), (3.1, 8.2), (9.7, 2.9)]
print("refinement study (values at fixed points, increasing in refinement):")
header = " ".join(f"({x1:4.2f},{x2:4.2f})" for x1, x2 in pts)
print(f"{'step':>7}  {header}")
prev = None
for delta in (0.12, 0.06, 0.03):
    grid = GridSpec.make(params, delta=delta, x1_max=14, x2_max=14)
    v, policy, rep = solve(params, law, grid)
    vals = np.array([v.extend(x1, x2) for x1, x2 in pts])
    print(f"{delta:7.3f}  " + " ".join(f"{val:11.5f}" for val in vals))
    if prev is not None:
        assert np.all(vals >= prev - 1e-9), "refinement must not decrease values"
    prev = vals
print("each column is nondecreasing down the rows.")

print("\ntruncation study at step 0.06:")
grid1 = GridSpec.make(params, delta=0.06, x1_max=14, x2_max=14)
v1, _, rep1 = solve(params, law, grid1)
grid2 = GridSpec.make(params, delta=0.06, x1_max=28, x2_max=28)
v2, _, _ = solve(params, law, grid2)
win = v2.values[: grid1.n_max + 1, : grid1.m_max + 1] - v1.values
print(f"max |change| on the original window after doubling the domain: "
      f"{np.abs(win).max():.2e}")
print(f"interior residual of the original solve: {rep1.residual_max:.2e}")
print("both solves end at their grid fixed points, and the change is at rounding")
print("scale: beyond the payout bands the value grows with unit slope, exactly")
print("as the boundary rule assumes.")
