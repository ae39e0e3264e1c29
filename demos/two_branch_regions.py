"""Region map of the two-branch dividend problem with exponential claims.

Runs the 2D grid solver on the unequal-premium configuration (branch 1
earns twice the premium of branch 2, claims split evenly) and prints the
action regions: where neither branch pays, where one branch lumps surplus
out, where both do, and the isolated point the boundary strategy rides
toward.  Pass --full for the production grid (a few minutes); the default
is a coarser, faster variant of the same structure.
"""

import sys

import numpy as np

from divopt import (
    Exponential,
    GridSpec,
    ModelParams,
    extract_regions,
    solve,
    validate_params,
)
from divopt.solver2d import LABEL_NAMES, c_region_inside_d2

full = "--full" in sys.argv
params = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
law = Exponential(0.6)
delta = 0.03 if full else 0.06
grid = GridSpec.make(params, delta=delta, x1_max=14, x2_max=14)
print(f"grid: {grid.shape[0]} x {grid.shape[1]} nodes, "
      f"spacings ({grid.dx1:.3f}, {grid.dx2:.3f})")

v, policy, rep = solve(params, law, grid)
print(f"fixed point on {len(rep.levels)} grids: {rep.policies} policies, "
      f"{rep.iterations} sweeps ({rep.wall_time:.1f}s), residual {rep.residual_max:.2e}")
print(f"estimated discretisation error V_delta - V_2delta: {rep.disc_error_est:.3f}")

region = extract_regions(policy, v)
counts = {name: int((region.labels == code).sum()) for code, name in LABEL_NAMES.items()}
print("\nnodes per action region:", {k: c for k, c in counts.items() if c})
print("isolated premium-paying points:", [(round(a, 2), round(b, 2)) for a, b in region.a0_points])
print("no-pay region inside the upper half-plane:", c_region_inside_d2(region, params))

print("\ncoarse region map (x marks the premium point; 20x20 blocks):")
chars = {0: ".", 1: "1", 2: "2", 3: "#", 4: "a", 5: "b", 6: "*"}
step_n = max(1, grid.n_max // 20)
step_m = max(1, grid.m_max // 20)
a0 = region.a0_points[-1] if region.a0_points else None
for m in range(grid.m_max, -1, -2 * step_m):
    row = []
    for n in range(0, grid.n_max + 1, step_n):
        if a0 and abs(n * grid.dx1 - a0[0]) < step_n * grid.dx1 and abs(m * grid.dx2 - a0[1]) < step_m * grid.dx2:
            row.append("x")
        else:
            row.append(chars[int(region.labels[n, m])])
    print(f"  x2={m * grid.dx2:5.1f} " + "".join(row))
print("        (. no-pay, 1/2 single-branch lump, # both lump)")

print("\nvalue along the diagonal, net of the surplus itself:")
for x in (0.0, 2.0, 5.0, 8.0, 12.0):
    print(f"  V({x:4.1f}, {x:4.1f}) - 2x = {v.extend(x, x) - 2 * x:8.4f}")
