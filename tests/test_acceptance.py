"""Acceptance suite: one test per criterion, at the stated tolerances.

Heavy solves are shared via module-scoped fixtures; each criterion prints a
PASS/FAIL line (run with -s to see them as they complete).  Expected
runtime is on the order of ten minutes, dominated by the refinement study
and the Monte Carlo cross-checks.
"""

import math

import numpy as np
import pytest

from divopt.hjb2d import RESIDUAL_REL, Action, build_claim_kernel
from divopt.model import (
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    SurplusPoint,
    validate_params,
)
from divopt import simulate as sim
from divopt import solver1d, solver2d
from oracles import brute_force_t_slices, brute_force_tensor, integral_I_delta

STRICT = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
SYM = validate_params(ModelParams(c1=21.4, c2=21.4, b1=0.5, b2=0.5, lam=10, q=0.1))
EX_LAWS = {
    "ex1": Exponential(0.6),
    "ex2": Erlang2(6 / 7),
    "ex3": Deterministic(29 / 12),
}
EX_DELTAS = {"ex1": 0.03, "ex2": 0.025, "ex3": 0.02}
SEED = 20240811


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _solve_example(name, x_max=14.0, delta=None):
    law = EX_LAWS[name]
    delta = EX_DELTAS[name] if delta is None else delta
    grid = GridSpec.make(STRICT, delta=delta, x1_max=x_max, x2_max=x_max)
    kernel = build_claim_kernel(STRICT, law, grid)
    v, policy, rep = solver2d.solve(STRICT, law, grid, kernel=kernel)
    return {"grid": grid, "kernel": kernel, "v": v, "policy": policy, "report": rep}


@pytest.fixture(scope="module")
def ex1():
    return _solve_example("ex1")


@pytest.fixture(scope="module")
def ex2():
    return _solve_example("ex2")


@pytest.fixture(scope="module")
def ex3():
    return _solve_example("ex3")


@pytest.fixture(scope="module")
def sym2d():
    grid = GridSpec.make(SYM, delta=0.00375, x1_max=40, x2_max=40)
    kernel = build_claim_kernel(SYM, Erlang2(0.5), grid)
    v, policy, rep = solver2d.solve(SYM, Erlang2(0.5), grid, kernel=kernel)
    return {"grid": grid, "kernel": kernel, "v": v, "policy": policy, "report": rep}


@pytest.fixture(scope="module")
def sym_wbar():
    prob = solver1d.make_auxiliary_problem(SYM, Erlang2(0.5), "wbar")
    return solver1d.solve_1d(prob, delta=0.001, x_max=40.0)


@pytest.fixture(scope="module")
def ex1_wbar():
    prob = solver1d.make_auxiliary_problem(STRICT, EX_LAWS["ex1"], "wbar")
    return solver1d.solve_1d(prob, delta=0.002, x_max=30.0)


@pytest.fixture(scope="module")
def regions(ex1, ex2, ex3):
    return {
        "ex1": solver2d.extract_regions(ex1["policy"], ex1["v"]),
        "ex2": solver2d.extract_regions(ex2["policy"], ex2["v"]),
        "ex3": solver2d.extract_regions(ex3["policy"], ex3["v"]),
    }


def test_criterion_1_symmetric_band(sym_wbar):
    cs = [iv for iv in sym_wbar.band.intervals if iv[2] == "C" and iv[1] - iv[0] > 1.0]
    assert len(cs) == 1
    lo, hi, _ = cs[0]
    ok = abs(lo - 1.803) <= 0.05 and abs(hi - 10.22) <= 0.05
    report(1, ok, f"no-pay interval ({lo:.4f}, {hi:.4f}) vs (1.803, 10.22) +-0.05")


def test_criterion_2_example1_structure(ex1, regions):
    region = regions["ex1"]
    nonzero = [p for p in region.a0_points if p[0] > 0.5]
    assert len(nonzero) == 1, region.a0_points
    a0 = nonzero[0]
    ok_a0 = abs(a0[0] - 5.4) <= 0.15 and abs(a0[1] - 6.36) <= 0.15
    report(2, ok_a0, f"isolated premium point {a0} vs (5.4, 6.36) +-0.15")
    ok_c = solver2d.c_region_inside_d2(region, STRICT)
    report(2, ok_c, "no-pay component lies inside the upper half-plane")
    grid = ex1["grid"]
    deep = [(10.0, 1.0), (8.0, 2.0), (12.0, 4.0), (9.0, 3.0)]
    labels = [
        solver2d.LABEL_NAMES[int(region.labels[round(x1 / grid.dx1), round(x2 / grid.dx2)])]
        for x1, x2 in deep
    ]
    report(2, all(l == "B1" for l in labels), f"deep-D1 labels {labels} (expect all B1)")
    # the branch-1 lump is in the argmax set at a deep-D1 node
    n, m = round(10.0 / grid.dx1), round(1.0 / grid.dx2)
    assert ex1["policy"].actions[n, m] & Action.E1


def test_criterion_3_example2_components(ex2, regions):
    region = regions["ex2"]
    ok_b0 = region.component_counts["B0"] == 2
    report(3, ok_b0, f"both-pay components = {region.component_counts['B0']} (expect 2)")
    has_origin = any(abs(p[0]) < 1e-9 and abs(p[1]) < 1e-9 for p in region.a0_points)
    report(3, has_origin, f"origin in premium points {region.a0_points}")


def test_criterion_3_example2_a0_location(ex2, regions):
    # The computed interior premium point sits at (3.981, 4.150), the point
    # of the exact grid fixed point; it is stable under grid refinement
    # (delta/2, delta/4), and the surrounding value surface is confirmed by
    # an independent Monte Carlo run, yet the expected location (4.00, 4.75)
    # differs in the second coordinate, by about 0.6.  The former 1e-8 stop
    # of plain value iteration put it at (3.933, 4.096).  The assertion is
    # kept at the required tolerance and fails honestly.
    region = regions["ex2"]
    nonzero = [p for p in region.a0_points if p[0] > 0.5]
    assert len(nonzero) == 1, region.a0_points
    a0 = nonzero[0]
    ok = abs(a0[0] - 4.00) <= 0.15 and abs(a0[1] - 4.75) <= 0.15
    report(3, ok, f"isolated premium point {a0} vs (4.00, 4.75) +-0.15")


def test_criterion_4_example3_structure(ex3, regions):
    region = regions["ex3"]
    pts = region.a0_points
    has_origin = any(abs(p[0]) < 1e-9 and abs(p[1]) < 1e-9 for p in pts)
    nonzero = [p for p in pts if p[0] > 0.5]
    assert len(nonzero) == 1, pts
    a0 = nonzero[0]
    ok_a0 = has_origin and abs(a0[0] - 3.56) <= 0.15 and abs(a0[1] - 3.62) <= 0.15
    report(4, ok_a0, f"premium points {pts} vs (0,0) and (3.56, 3.62) +-0.15")
    target = 0.5 * 29 / 12  # one claim's branch-1 share
    best = min((abs(run[2] - target), run) for run in region.slope_runs)
    ok_run = best[0] <= 0.15
    report(4, ok_run,
           f"straight boundary run extent {best[1][2]:.4f} vs {target:.4f} +-0.15")


def _residual_bound(values):
    return RESIDUAL_REL * (1.0 + float(values.max()))


def test_criterion_5_residuals(ex1, ex2, ex3, sym2d, sym_wbar, ex1_wbar):
    worst = []
    for name, case in [("ex1", ex1), ("ex2", ex2), ("ex3", ex3), ("sym", sym2d)]:
        worst.append((name, case["report"].residual_max, _residual_bound(case["v"].values)))
    for name, sol in [("sym_wbar", sym_wbar), ("ex1_wbar", ex1_wbar)]:
        worst.append((name, sol.residual_max, _residual_bound(sol.values)))
    ok = all(r <= lim for _, r, lim in worst)
    detail = ", ".join(f"{n}={r:.2e}(lim {l:.2e})" for n, r, l in worst)
    report(5, ok, detail)


def test_criterion_6_bounds(ex1, ex2, ex3, sym2d):
    # the iterates' monotonicity is checked inside the solve: fixed_point
    # raises if a policy value falls below the iterate it was greedy at
    all_ok = True
    details = []
    for name, case, params in [
        ("ex1", ex1, STRICT), ("ex2", ex2, STRICT), ("ex3", ex3, STRICT), ("sym", sym2d, SYM),
    ]:
        grid, v = case["grid"], case["v"]
        ns = np.arange(grid.n_max + 1)[:, None] * grid.dx1
        ms = np.arange(grid.m_max + 1)[None, :] * grid.dx2
        lower = bool(np.all(v.values >= ns + ms - 1e-12))
        upper = bool(
            np.all(v.values <= ns + ms + (params.c1 + params.c2) / params.q + 1e-9)
        )
        inc = bool(
            np.all(np.diff(v.values, axis=0) >= grid.dx1 - 1e-10)
            and np.all(np.diff(v.values, axis=1) >= grid.dx2 - 1e-10)
        )
        all_ok &= lower and upper and inc
        details.append(f"{name}: lower={lower} upper={upper} inc={inc}")
    report(6, all_ok, "; ".join(details))


def test_criterion_7_d1_identity(ex1, ex2, ex3):
    all_ok = True
    details = []
    for name, case in [("ex1", ex1), ("ex2", ex2), ("ex3", ex3)]:
        grid = case["grid"]
        dev = solver2d.check_D1_identity(case["v"], STRICT, n_samples=100, seed=17)
        lim = 2 * (grid.dx1 + grid.dx2)
        all_ok &= dev <= lim
        details.append(f"{name}: dev {dev:.4f} (lim {lim:.4f})")
    report(7, all_ok, "; ".join(details))


def test_criterion_8_symmetric_diagonal(sym2d, sym_wbar):
    ratio = SYM.b1 / SYM.b2
    rels = []
    for x2 in np.linspace(2.0, 35.0, 12):
        v2 = sym2d["v"].extend(ratio * x2, x2)
        v1 = sym_wbar.extend(x2)
        rels.append(abs(v2 - v1) / max(1.0, abs(v1)))
    ok = max(rels) <= 1e-2
    report(8, ok, f"diagonal vs 1D max rel dev {max(rels):.4f} (lim 0.01)")


def test_criterion_9_suboptimality_witness(ex1_wbar, sym_wbar):
    res = solver2d.check_tilde_suboptimality(STRICT, EX_LAWS["ex1"], ex1_wbar)
    ok = res["applicable"] and res["witness"][1] > 0
    report(9, ok, f"generator residual {res['witness'][1]:.4f} > 0 at {res['witness'][0]}")
    with pytest.raises(ValueError):
        solver2d.check_tilde_suboptimality(SYM, Erlang2(0.5), sym_wbar)
    report(9, True, "symmetric case correctly refused")


MC_POINTS = {
    "ex1": [(5.4, 6.36), (2.04, 3.0), (8.04, 3.0), (1.02, 8.01), (4.02, 9.99)],
    "ex2": [(4.0, 4.2), (2.0, 3.0), (8.0, 3.0), (1.0, 8.0), (4.0, 10.0)],
    "ex3": [(3.56, 3.62), (2.0, 3.0), (8.0, 3.0), (1.0, 8.0), (4.0, 10.0)],
}


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
def test_criterion_10_monte_carlo(name, request):
    case = request.getfixturevalue(name)
    grid, v, policy = case["grid"], case["v"], case["policy"]
    table = sim.PolicyTable(policy)
    zs = []
    # point i runs on child i of the seed, as in the simulate command
    streams = np.random.SeedSequence(SEED).spawn(len(MC_POINTS[name]))
    for (x1, x2), stream in zip(MC_POINTS[name], streams):
        n, m = round(x1 / grid.dx1), round(x2 / grid.dx2)
        x0 = SurplusPoint(n * grid.dx1, m * grid.dx2)
        res = sim.simulate_policy(STRICT, EX_LAWS[name], table, x0, 100_000, seed=stream)
        zs.append(sim.estimate_gap(res, v.values[n, m]))
    ok = all(abs(z) <= 3.0 for z in zs)
    report(10, ok, f"{name} policy |z| = {[f'{z:+.2f}' for z in zs]}")
    x0 = SurplusPoint(3.0, 5.0)
    res = sim.simulate_policy(STRICT, EX_LAWS[name], sim.TakeAndRun(), x0, 100_000,
                              seed=SEED + 1)
    target = x0.x1 + x0.x2 + (STRICT.c1 + STRICT.c2) / (STRICT.q + STRICT.lam)
    z = sim.estimate_gap(res, target)
    report(10, abs(z) <= 3.0, f"{name} take-and-run z = {z:+.2f}")


def test_criterion_11_merger(ex1):
    grid, v = ex1["grid"], ex1["v"]
    law = EX_LAWS["ex1"]
    prob = solver1d.make_auxiliary_problem(STRICT, law, "merger")
    merger = solver1d.solve_1d(prob, grid.delta / 4, x_max=30.0)
    ns = np.arange(grid.n_max + 1) * grid.dx1
    ms = np.arange(grid.m_max + 1) * grid.dx2
    S = ns[:, None] + ms[None, :]
    k = np.floor(S / merger.dx + 1e-12).astype(int)
    top = len(merger.values) - 1
    vm = (
        merger.values[np.minimum(k, top)]
        + np.maximum(k - top, 0) * merger.dx
        + (S - k * merger.dx)
    )
    gap = float((vm - v.values).min())
    lim = -10 * _residual_bound(v.values)
    report(11, gap >= lim, f"merger dominance min gap {gap:.4f} (lim {lim:.1e})")

    near = [(5.01, 5.01), (6.0, 6.99), (4.02, 5.01)]
    far = [(12.0, 0.99), (0.96, 12.0)]
    rows, _ = solver1d.merger_compare(STRICT, law, 3.0, near + far, v,
                                      delta=grid.delta / 4, x_max=32.0)
    diffs = [r[2] - r[3] for r in rows]
    ok_sign = all(d < 0 for d in diffs[:3]) and all(d > 0 for d in diffs[3:])
    report(11, ok_sign,
           f"cost-3 merger near-diagonal diffs {[f'{d:+.2f}' for d in diffs[:3]]} < 0, "
           f"far diffs {[f'{d:+.2f}' for d in diffs[3:]]} > 0")


def test_criterion_12_refinement_monotone(ex1):
    rng = np.random.default_rng(3)
    pts = [(rng.uniform(0.5, 12), rng.uniform(0.5, 12)) for _ in range(20)]
    vals = [np.array([ex1["v"].extend(x1, x2) for x1, x2 in pts])]
    for delta in (0.015, 0.0075):
        case = _solve_example("ex1", delta=delta)
        vals.append(np.array([case["v"].extend(x1, x2) for x1, x2 in pts]))
        # criterion 5 for these too
        assert case["report"].residual_max <= _residual_bound(case["v"].values)
    d1 = (vals[1] - vals[0]).min()
    d2 = (vals[2] - vals[1]).min()
    ok = d1 >= -1e-6 and d2 >= -1e-6
    report(12, ok, f"min increments over 20 points: {d1:.5f} (d/2), {d2:.5f} (d/4)")


def test_criterion_13_truncation_stability(ex1):
    case2 = _solve_example("ex1", x_max=28.0)
    grid = ex1["grid"]
    win = case2["v"].values[: grid.n_max + 1, : grid.m_max + 1] - ex1["v"].values
    change = float(np.abs(win).max())
    lim = 10 * _residual_bound(ex1["v"].values)
    report(13, change < lim, f"doubled-domain change {change:.2e} (lim {lim:.2e})")


def test_claim_integral_oracle_on_converged_field(ex1):
    # independent quadrature of the claim operator at a node of the
    # converged field: time-sliced with exact claim cells certifies 1e-6,
    # the plain 2000x2000 tensor midpoint its own first-order resolution
    grid, kernel, v = ex1["grid"], ex1["kernel"], ex1["v"]
    mine = integral_I_delta(kernel, v, 5, 5)
    sharp = brute_force_t_slices(STRICT, EX_LAWS["ex1"], grid, v.values, 5, 5, nt=4000)
    assert mine == pytest.approx(sharp, rel=1e-6)
    tensor = brute_force_tensor(STRICT, EX_LAWS["ex1"], grid, v.values, 5, 5,
                                nt=2000, na=2000)
    assert mine == pytest.approx(tensor, rel=5e-4)
