"""Independent reference implementations for the tests.

Brute-force quadrature oracles for the claim integral in 2D and 1D, the
column-by-column form of the in-place sweep, and strict Jacobi value
iteration.

Two decompositions, both independent of the production path (which uses
closed-form time integration over exact claim cells):

* tensor midpoint over (t, u) with the law's density: fully primitive-free,
  but first-order accurate across the floor discontinuities, so it certifies
  only a coarse tolerance;
* midpoint in t with exact per-cell claim-law integration in u: the t
  integrand is continuous, so this one converges fast and certifies tight
  tolerances while still slicing time numerically.

The sweep reference closes the branch-2 lumps one column at a time,
re-closing each column under branch-1 lumps after every step.  The policy
runner reference walks the grid strategy one drift-and-lump segment at a
time instead of jumping over the anchor graph.  The Jacobi
iteration applies T0, T1 and T2 to the previous iterate only; the in-place
sweeps of the solver stay between it and the fixed point.
"""

import math

import numpy as np

from divopt import solver2d
from divopt.model import Deterministic, Erlang2, Exponential, integrate_affine


def brute_force_tensor(params, law, grid, values, n, m, nt=2000, na=2000):
    b1, b2, c1, c2 = params.b1, params.b2, params.c1, params.c2
    dx1, dx2, delta = grid.dx1, grid.dx2, grid.delta
    lam, q = params.lam, params.q
    ts = (np.arange(nt) + 0.5) * delta / nt
    total = 0.0
    for t in ts:
        ub = min((n * dx1 + c1 * t) / b1, (m * dx2 + c2 * t) / b2)
        if ub <= 0:
            continue
        if isinstance(law, Deterministic):
            if law.atom > ub:
                continue
            al = np.array([law.atom])
            w = np.array([1.0])
        else:
            al = (np.arange(na) + 0.5) * ub / na
            if isinstance(law, Exponential):
                dens = law.rate * np.exp(-law.rate * al)
            elif isinstance(law, Erlang2):
                dens = law.rate**2 * al * np.exp(-law.rate * al)
            else:
                raise TypeError(law)
            w = dens * ub / na
        k1 = np.floor((n * dx1 + c1 * t - b1 * al) / dx1).astype(int)
        k2 = np.floor((m * dx2 + c2 * t - b2 * al) / dx2).astype(int)
        vals = values[k1, k2]
        pay = (c1 + c2) * t - al + (n - k1) * dx1 + (m - k2) * dx2
        total += (delta / nt) * lam * math.exp(-(lam + q) * t) * np.sum(w * (vals + pay))
    return total


def brute_force_t_slices(params, law, grid, values, n, m, nt=4000):
    b1, b2, c1, c2 = params.b1, params.b2, params.c1, params.c2
    dx1, dx2, delta = grid.dx1, grid.dx2, grid.delta
    lam, q = params.lam, params.q
    total = 0.0
    for i in range(nt):
        t = (i + 0.5) * delta / nt
        y1 = n * dx1 + c1 * t
        y2 = m * dx2 + c2 * t
        ub = min(y1 / b1, y2 / b2)
        cuts = [0.0, ub]
        for y, b, dx in ((y1, b1, dx1), (y2, b2, dx2)):
            ks = np.arange(0, int(math.floor(y / dx)) + 1)
            a = (y - ks * dx) / b
            cuts.extend(a[(a > 0) & (a < ub)].tolist())
        bp = np.unique(np.array(cuts))
        inner = 0.0
        for a_lo, a_hi in zip(bp[:-1], bp[1:]):
            amid = 0.5 * (a_lo + a_hi)
            k1 = int(math.floor((y1 - b1 * amid) / dx1))
            k2 = int(math.floor((y2 - b2 * amid) / dx2))
            p = values[k1, k2] + (c1 + c2) * t + (n - k1) * dx1 + (m - k2) * dx2
            inner += integrate_affine(law, a_lo, a_hi, p, -1.0)
        total += (delta / nt) * lam * math.exp(-(lam + q) * t) * inner
    return total


def brute_force_t_slices_1d(prob, delta, values, n, nt=4000):
    """1D claim field at node n: midpoint rule in t, exact law integration in u.

    A claim of size u at time t moves the surplus y = n*dx + c*t to
    y - b*u; on the floor k of that point the value is values[k] and the
    remainder y - b*u - k*dx is paid out at rho per unit.
    """
    c, b, rho = prob.c, prob.b, prob.rho
    dx = c * delta
    t = (np.arange(nt) + 0.5) * delta / nt
    y = n * dx + c * t
    # cells (lo, hi] of claim sizes between the points where y - b*u
    # crosses a grid node; the first hi is y/b, beyond which the claim ruins
    hi = (y[:, None] - np.arange(n + 1) * dx) / b
    lo = np.concatenate([hi[:, 1:], np.zeros((nt, 1))], axis=1)
    k = np.floor((y[:, None] - b * 0.5 * (lo + hi)) / dx).astype(int)
    p = values[k] + rho * (y[:, None] - k * dx)
    inner = integrate_affine(prob.law, lo, hi, p, -rho * b).sum(axis=1)
    weight = (delta / nt) * prob.lam * np.exp(-(prob.lam + prob.q) * t)
    return float(np.dot(weight, inner))


def solve_jacobi(kernel, tol=1e-8, iter_cap=200_000):
    """Strict Jacobi value iteration from zero; returns (values, tol_eff)."""
    v = np.zeros(kernel.grid.shape)
    for _ in range(iter_cap):
        t0, t1, t2 = solver2d._operator_fields(kernel, v)
        w = np.maximum(v, np.maximum(t0, np.maximum(t1, t2)))
        sup_inc = float((w - v).max())
        v = w
        tol_eff = tol * (1.0 + float(v.max()))
        if sup_inc < tol_eff:
            return v, tol_eff
    raise RuntimeError("Jacobi iteration hit the sweep cap")


def sweep_inplace_reference(w, cf, grid, disc):
    """In-place sweep with the branch-2 lump closure as a column loop."""
    n_pts, m_pts = w.shape
    dx1, dx2 = grid.dx1, grid.dx2
    offs = np.arange(n_pts) * dx1

    def t1_closure(row):
        return np.maximum(row, np.maximum.accumulate(row - offs) + offs)

    cont = np.empty(n_pts)
    for m in range(m_pts - 1, -1, -1):
        up = w[:, m] + dx2 if m == m_pts - 1 else w[:, m + 1]
        cont[:-1] = up[1:]
        cont[-1] = up[-1] + dx1
        w[:, m] = t1_closure(np.maximum(w[:, m], disc * cont + cf[:, m]))
    for m in range(1, m_pts):
        w[:, m] = t1_closure(np.maximum(w[:, m], w[:, m - 1] + dx2))
    return w


def policy_runner_reference(params, law, strat, x0):
    """Policy-table runner that walks one drift-and-lump segment at a time.

    Boundary-riding cycles (an anchor that drifts and is lumped back to
    itself) are batched as geometric sums once seen twice in a round.  The
    draws are the production runner's; run() returns the dividends, final
    times and the mask of ruined paths.
    """
    if not strat.policy.converged:
        raise ValueError("policy table must come from a converged solve")
    g = strat.policy.grid
    if x0.x1 > g.x1_max + 1e-9 or x0.x2 > g.x2_max + 1e-9:
        raise ValueError("initial surplus outside the solved grid")
    pref, anchor_n, anchor_m, paid, exit_k = solver2d.policy_flow(strat.policy)
    dx1, dx2, delta = g.dx1, g.dx2, g.delta
    c1, c2, b1, b2 = params.c1, params.c2, params.b1, params.b2
    q, lam = params.q, params.lam
    n0 = int(math.floor(x0.x1 / dx1 + 1e-12))
    m0 = int(math.floor(x0.x2 / dx2 + 1e-12))
    pay0 = (x0.x1 - n0 * dx1) + (x0.x2 - m0 * dx2)

    def run(n_paths, seed, horizon):
        rng = np.random.Generator(np.random.Philox(key=seed))
        n = np.full(n_paths, n0, dtype=np.int64)
        m = np.full(n_paths, m0, dtype=np.int64)
        t = np.zeros(n_paths)
        acc = np.full(n_paths, pay0)
        running = np.ones(n_paths, dtype=bool)
        broke = np.zeros(n_paths, dtype=bool)
        while np.any(running):
            togo = rng.exponential(1.0 / lam, n_paths)
            claim = law.sample(rng, n_paths)
            ph = running.copy()
            last_n = np.full(n_paths, -1, dtype=np.int64)
            last_m = np.full(n_paths, -1, dtype=np.int64)
            while np.any(ph):
                idx = np.nonzero(ph)[0]
                ni, mi = n[idx], m[idx]
                # instant lump payouts down to the chain anchor
                lump = pref[ni, mi] != 0
                if np.any(lump):
                    li = idx[lump]
                    acc[li] += paid[n[li], m[li]] * np.exp(-q * t[li])
                    n[li], m[li] = anchor_n[n[li], m[li]], anchor_m[n[li], m[li]]
                    ni, mi = n[idx], m[idx]
                k = exit_k[ni, mi]
                kd = k * delta
                # boundary-riding cycle: batch full periods until the claim
                cyc = (ni == last_n[idx]) & (mi == last_m[idx]) & (kd > 0)
                if np.any(cyc):
                    ci = idx[cyc]
                    kdc = kd[cyc]
                    full = np.floor(togo[ci] / kdc).astype(np.int64)
                    cap = np.floor(np.maximum(horizon - t[ci], 0.0) / kdc).astype(np.int64)
                    reps = np.minimum(full, cap)
                    pos = np.nonzero(reps > 0)[0]
                    if pos.size:
                        pi = ci[pos]
                        kdp = kdc[pos]
                        en = n[pi] + k[cyc][pos]
                        em = m[pi] + k[cyc][pos]
                        pay = paid[en, em]
                        x = np.exp(-q * kdp)
                        acc[pi] += pay * np.exp(-q * t[pi]) * x * (1 - x ** reps[pos]) / (1 - x)
                        t[pi] += reps[pos] * kdp
                        togo[pi] -= reps[pos] * kdp
                    over = ci[(full > cap)]
                    if over.size:
                        running[over] = False
                        ph[over] = False
                    idx = np.nonzero(ph)[0]
                    if idx.size == 0:
                        break
                    ni, mi = n[idx], m[idx]
                    k = exit_k[ni, mi]
                    kd = k * delta
                last_n[idx], last_m[idx] = ni, mi
                claims_now = togo[idx] <= kd
                ci = idx[claims_now]
                if ci.size:
                    s = togo[ci]
                    y1 = n[ci] * dx1 + c1 * s - b1 * claim[ci]
                    y2 = m[ci] * dx2 + c2 * s - b2 * claim[ci]
                    t[ci] += s
                    ruined = (y1 < 0) | (y2 < 0)
                    running[ci[ruined]] = False
                    broke[ci[ruined]] = True
                    ok = ci[~ruined]
                    if ok.size:
                        k1 = np.floor(y1[~ruined] / dx1 + 1e-12).astype(np.int64)
                        k2 = np.floor(y2[~ruined] / dx2 + 1e-12).astype(np.int64)
                        rem = (y1[~ruined] - k1 * dx1) + (y2[~ruined] - k2 * dx2)
                        acc[ok] += rem * np.exp(-q * t[ok])
                        n[ok], m[ok] = k1, k2
                        running[ok[t[ok] >= horizon]] = False
                    ph[ci] = False
                di = idx[~claims_now]
                if di.size:
                    t[di] += kd[~claims_now]
                    togo[di] -= kd[~claims_now]
                    n[di] += k[~claims_now]
                    m[di] += k[~claims_now]
                    hit = di[t[di] >= horizon]
                    running[hit] = False
                    ph[hit] = False
        return acc, t, broke

    return run
