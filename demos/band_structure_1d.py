"""Band structure of the one-dimensional dividend problem.

Solves the on-ray auxiliary problem for a symmetric two-branch insurer
(equal premiums, equal claim shares, Erlang-2 claims) and prints the band
decomposition: where to lump surplus out, where to pay the incoming
premiums, and where to hold.  In the symmetric regime this 1D solution is
the whole story: the two-branch value function equals the reflection of
this band onto the proportional ray.
"""

import numpy as np

from divopt import (
    Erlang2,
    ModelParams,
    make_auxiliary_problem,
    solve_1d,
    tilde_V_eval,
    validate_params,
)

params = validate_params(
    ModelParams(c1=21.4, c2=21.4, b1=0.5, b2=0.5, lam=10, q=0.1)
)
law = Erlang2(0.5)

prob = make_auxiliary_problem(params, law, "wbar")
print(f"auxiliary problem: premium {prob.c}, claim scale {prob.b}, "
      f"reward rate {prob.kappa}, payout multiplier {prob.rho}")

sol = solve_1d(prob, delta=0.001, x_max=40.0)
print(f"\nfixed point on {len(sol.levels)} grids: {sol.policies} policies, "
      f"{sol.iterations} sweeps (residual {sol.residual_max:.2e}, {sol.wall_time:.1f}s)")

print("\nband decomposition of [0, 40]:")
for lo, hi, lab in sol.band.intervals:
    kind = {"B": "lump payout", "C": "no dividends", "A": "pay premiums"}[lab]
    print(f"  [{lo:7.3f}, {hi:7.3f}]  {lab}  ({kind})")
print(f"premium-paying points: {[round(a, 3) for a in sol.band.a_points]}")

print("\nvalue samples along the ray (both branches together):")
for x2 in (0.0, 2.0, 5.0, 10.22, 20.0):
    print(f"  W({x2:6.2f}) = {sol.extend(x2):9.4f}")

print("\nreflection value off the ray (branch with excess pays it out first):")
for x1, x2 in ((5.0, 8.0), (12.0, 4.0), (3.0, 3.0)):
    print(f"  V~({x1}, {x2}) = {tilde_V_eval(sol, params, x1, x2):9.4f}")
