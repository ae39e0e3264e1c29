"""Independent reference implementations for the tests.

Brute-force quadrature oracles for the claim integral in 2D and 1D, the
node-by-node form of the solvers' sweep, strict Jacobi value iteration,
the per-point Bellman operators, the generator residual of the continuous
extension, and a Monte Carlo runner for the ray-reflection strategy.  None of them is part of the divopt pipeline.

Two decompositions, both independent of the production path (which uses
closed-form time integration over exact claim cells):

* tensor midpoint over (t, u) with the law's density: fully primitive-free,
  but first-order accurate across the floor discontinuities, so it certifies
  only a coarse tolerance;
* midpoint in t with exact per-cell claim-law integration in u: the t
  integrand is continuous, so this one converges fast and certifies tight
  tolerances while still slicing time numerically.

The sweep reference updates one node at a time and closes the lumps one
node at a time down each axis.  The policy-flow reference finds the
lump-chain anchors row by row; the policy evaluation reference solves for
a policy's value over the full grid, on one axis or two, with a sparse
LU, where the solvers work on the no-pay nodes only; and the band
reference walks the 1D labels node by node.  The policy
runner reference walks the grid strategy one drift-and-lump segment at a
time instead of jumping over the per-cell flow.  The Jacobi
iteration applies T0, T1 and T2 to the previous iterate only; those
operator fields, as whole tables, are also what the greedy step's tie sets
and residual are checked against.

The region references label and open masks with scipy.ndimage, where
the region maps run their own labeller and opening.  The per-point
operators gather the claim integral at one node straight
from the kernel cells, the form the claim field is checked against; the
correlation reference sums a kernel table against a value table node by
node and cell by cell, the form both correlation paths are checked
against.
The value.csv reader parses the text table line by line, where the
reading commands load value.npz.
MReflection projects a start point onto the proportional ray and follows
the 1D band strategy there, event by event; simulate.simulate_policy runs
it under the same stop rule (simulate.tail_stop) as a policy table.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from divopt.hjb2d import EPS_TIE_REL, Action, ClaimKernel, ValueField, ray_integral
from divopt.model import (
    ClaimLaw,
    Deterministic,
    Erlang2,
    Exponential,
    ModelParams,
    integrate_affine,
)
from divopt.simulate import tail_stop
from divopt.solver1d import BandStructure, TruncationError, WbarSolution


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


def operator_fields(values, scheme):
    """The operator fields of a Scheme at a table, on one axis or two, each a
    whole grid-sized table: T0 = disc * lookup(n+1, m+1) + the claim field
    (past the last node of axis i the lookup adds dxs[i]), then one lump
    field per axis, values one cell down the axis plus its payout, -inf
    where the lump would leave the grid."""
    ndim = values.ndim
    up = np.pad(values, [(0, 1)] * ndim, mode="edge")[(np.s_[1:],) * ndim]
    for axis, dx in enumerate(scheme.dxs):
        up[(np.s_[:],) * axis + (-1,)] += dx
    fields = [scheme.claim(values) + scheme.disc * up]
    for axis, dx in enumerate(scheme.dxs):
        lump = np.full_like(values, -np.inf)
        lump[(np.s_[:],) * axis + (np.s_[1:],)] = values[(np.s_[:],) * axis + (np.s_[:-1],)] + dx
        fields.append(lump)
    return fields


def tie_epsilon(max_value: float) -> float:
    """The tie tolerance at a max value: EPS_TIE_REL * (1 + |max|)."""
    return EPS_TIE_REL * (1.0 + abs(max_value))


def solve_jacobi(kernel, tol=1e-8, iter_cap=200_000):
    """Strict Jacobi value iteration from zero; returns (values, tol_eff)."""
    v = np.zeros(kernel.grid.shape)
    for _ in range(iter_cap):
        t0, t1, t2 = operator_fields(v, kernel.scheme)
        w = np.maximum(v, np.maximum(t0, np.maximum(t1, t2)))
        sup_inc = float((w - v).max())
        v = w
        tol_eff = tol * (1.0 + float(v.max()))
        if sup_inc < tol_eff:
            return v, tol_eff
    raise RuntimeError("Jacobi iteration hit the sweep cap")


def sweep_reference(v, cf, disc, dxs):
    """hjb2d's vectorised sweep node by node, on one axis or two: every
    node takes max(v, disc * lookup(n+1, m+1) + cf) from the table as it
    was before the sweep (past the last node of axis i the lookup adds
    dxs[i]), then the lump closure runs down each axis in turn, one node at
    a time: v[n] <- max(v[n], v[n-1] + dx).  Like the sweep, it leaves the
    table as it was before the sweep in cf."""
    old = v.copy()
    for idx in np.ndindex(v.shape):
        up = tuple(min(i + 1, s - 1) for i, s in zip(idx, v.shape))
        edge = sum(dx for i, s, dx in zip(idx, v.shape, dxs) if i == s - 1)
        v[idx] = max(old[idx], disc * (old[up] + edge) + cf[idx])
    for axis, dx in enumerate(dxs):
        for idx in np.ndindex(v.shape):  # C order: node n-1 of the axis comes first
            if idx[axis] > 0:
                below = idx[:axis] + (idx[axis] - 1,) + idx[axis + 1:]
                v[idx] = max(v[idx], v[below] + dx)
    cf[...] = old
    return v


class FlowReference(NamedTuple):
    """A grid strategy as grid-sized tables: the action at each node (0
    no-pay, 1 or 2 the branch to lump), the no-pay node (anchor_n,
    anchor_m) its lump chain ends at, the payout paid on the way, and the
    cells a no-pay node drifts before it meets a lump node (exit_k)."""

    pref: np.ndarray
    anchor_n: np.ndarray
    anchor_m: np.ndarray
    paid: np.ndarray
    exit_k: np.ndarray


def policy_flow_reference(policy, edge_lumps=True):
    """The flow of a policy with masked assignments for the lump preference
    and a loop over the grid rows for the chain anchors: the branch-2 lumps
    take the previous row's anchors, then a prefix-max scan carries each
    branch-1 chain down to its first non-branch-1 node.  No-pay nodes on
    the outer edges become lump nodes, so drift never leaves the table.
    edge_lumps=False keeps them, for a grid with a one-node axis, where
    such a lump would leave the grid; policy and policy.grid then need
    only the fields read here."""
    g = policy.grid
    acts = policy.actions
    pref = np.zeros(g.shape, dtype=np.int8)
    pref[(acts & Action.E1) > 0] = 1
    pref[((acts & Action.E2) > 0) & (pref == 0)] = 2
    if edge_lumps:
        edge = pref[g.n_max, :] == 0
        pref[g.n_max, edge] = 1
        edge = pref[:, g.m_max] == 0
        pref[1:, g.m_max][edge[1:]] = 1
        pref[0, g.m_max] = 2 if pref[0, g.m_max] == 0 else pref[0, g.m_max]

    n_pts, m_pts = g.shape
    anchor_n = np.empty(g.shape, dtype=np.int64)
    anchor_m = np.empty(g.shape, dtype=np.int64)
    cols = np.arange(n_pts)
    for m in range(m_pts):
        row = pref[:, m]
        an = np.where(row == 0, cols, 0)
        am = np.where(row == 0, m, 0)
        is2 = row == 2
        if m > 0 and np.any(is2):
            an[is2] = anchor_n[is2, m - 1]
            am[is2] = anchor_m[is2, m - 1]
        src = np.maximum.accumulate(np.where(row != 1, cols, -1))
        is1 = row == 1
        if np.any(is1):
            an[is1] = an[src[is1]]
            am[is1] = am[src[is1]]
        anchor_n[:, m] = an
        anchor_m[:, m] = am
    paid = (cols[:, None] - anchor_n) * g.dx1 + (np.arange(m_pts)[None, :] - anchor_m) * g.dx2

    exit_k = np.zeros(g.shape, dtype=np.int64)
    for m in range(m_pts - 2, -1, -1):
        up = np.zeros(n_pts, dtype=np.int64)
        up[:-1] = exit_k[1:, m + 1]
        exit_k[:, m] = np.where(pref[:, m] == 0, 1 + up, 0)
    return FlowReference(pref, anchor_n, anchor_m, paid, exit_k)


def evaluate_policy_reference(pref, disc, dxs, cells, weights, payout):
    """Exact value of a grid policy by one sparse solve over the full grid,
    on one axis or two.

    pref is each node's action (0 no-pay, i + 1 a lump down axis i).  The
    system is (I - L_pi - P0 C) v = b_pi: a lump row ties v to the node one
    cell down its axis plus that cell's payout dxs[i]; a no-pay row to disc
    times the value one cell up every axis (past the last node of axis i,
    the last node's plus dxs[i]: shift_up_diag's edge rule) plus the claim
    integral, gathered straight from the kernel cells: weights[k] times the
    value cells[:, k] nodes down, plus the payout field.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.linalg import spsolve

    shape = pref.shape
    flat = np.arange(pref.size).reshape(shape)
    rows, cols, vals = [flat.ravel()], [flat.ravel()], [np.ones(flat.size)]
    rhs = np.zeros(flat.size)
    for axis, dx in enumerate(dxs):
        at = np.nonzero(pref == axis + 1)
        down = tuple(i - (a == axis) for a, i in enumerate(at))
        rows.append(flat[at])
        cols.append(flat[down])
        vals.append(-np.ones(at[0].size))
        rhs[flat[at]] = dx
    at = np.nonzero(pref == 0)
    rows.append(flat[at])
    cols.append(flat[tuple(np.minimum(i + 1, s - 1) for i, s in zip(at, shape))])
    vals.append(np.full(at[0].size, -disc))
    rhs[flat[at]] = (disc * sum(dx * (i == s - 1) for i, s, dx in zip(at, shape, dxs))
                     + payout[at])
    for offs, wv in zip(np.transpose(cells), weights):
        on = np.all([i >= o for i, o in zip(at, offs)], axis=0)
        rows.append(flat[at][on])
        cols.append(flat[tuple(i[on] - o for i, o in zip(at, offs))])
        vals.append(np.full(int(on.sum()), -wv))
    a = coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                   shape=(flat.size, flat.size)).tocsc()
    return spsolve(a, rhs).reshape(shape)


def extract_band_reference(is_b, is_c, dx):
    """solver1d's band extraction node by node, with each no-pay interval's
    upper end matched against every breakpoint."""
    n_pts = len(is_b)
    labels = np.where(is_b & is_c, "A", np.where(is_b, "B", "C"))
    intervals = []
    breakpoints = []
    start = 0
    for i in range(1, n_pts + 1):
        if i == n_pts or labels[i] != labels[start]:
            lo = 0.0 if start == 0 else (start - 0.5) * dx
            hi = (n_pts - 1) * dx if i == n_pts else (i - 0.5) * dx
            intervals.append((lo, hi, str(labels[start])))
            if i < n_pts:
                breakpoints.append(hi)
            start = i
    if intervals[-1][2] != "B":
        raise TruncationError("no-pay region extends to the truncation; increase x_max")
    a_points = [0.5 * (lo + hi) for lo, hi, lab in intervals if lab == "A"]
    if intervals[0][2] == "B" or (len(intervals) > 1 and intervals[0][2] == "A"):
        if 0.0 not in a_points:
            a_points.insert(0, 0.0)
    for bp_ in breakpoints:
        for lo, hi, lab in intervals:
            if lab == "C" and abs(hi - bp_) < 1e-12 and bp_ not in a_points:
                a_points.append(bp_)
    return BandStructure(
        breakpoints=breakpoints, intervals=intervals, a_points=sorted(set(a_points))
    )


def policy_runner_reference(params, law, strat, x0):
    """Policy-table runner that walks one drift-and-lump segment at a time.

    Boundary-riding cycles (an anchor that drifts and is lumped back to
    itself) are batched as geometric sums once seen twice in a round.  The
    draws are the production runner's: each round, the running paths'
    inter-arrival times, then their claims, in path order.  It reads
    policy_flow_reference, whose edge rule matches the runner's only where
    no no-pay node lies on an outer edge.
    run(n_paths, seed, rounds) runs that many claim rounds, or until every
    path is ruined, and returns the dividends, the final times (a live
    path's last claim), the mask of ruined paths and each path's node n, m.
    """
    g = strat.policy.grid
    if x0.x1 > g.x1_max + 1e-9 or x0.x2 > g.x2_max + 1e-9:
        raise ValueError("initial surplus outside the solved grid")
    pref, anchor_n, anchor_m, paid, exit_k = policy_flow_reference(strat.policy)
    dx1, dx2, delta = g.dx1, g.dx2, g.delta
    c1, c2, b1, b2 = params.c1, params.c2, params.b1, params.b2
    q, lam = params.q, params.lam
    n0 = int(math.floor(x0.x1 / dx1 + 1e-12))
    m0 = int(math.floor(x0.x2 / dx2 + 1e-12))
    pay0 = (x0.x1 - n0 * dx1) + (x0.x2 - m0 * dx2)

    def run(n_paths, seed, rounds):
        rng = np.random.Generator(np.random.Philox(seed))
        n = np.full(n_paths, n0, dtype=np.int64)
        m = np.full(n_paths, m0, dtype=np.int64)
        t = np.zeros(n_paths)
        acc = np.full(n_paths, pay0)
        running = np.ones(n_paths, dtype=bool)
        broke = np.zeros(n_paths, dtype=bool)
        for _ in range(rounds):
            if not np.any(running):
                break
            togo, claim = np.zeros(n_paths), np.zeros(n_paths)
            togo[running] = rng.exponential(1.0 / lam, running.sum())
            claim[running] = law.sample(rng, running.sum())
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
                    reps = np.floor(togo[ci] / kdc).astype(np.int64)
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
                    ph[ci] = False
                di = idx[~claims_now]
                if di.size:
                    t[di] += kd[~claims_now]
                    togo[di] -= kd[~claims_now]
                    n[di] += k[~claims_now]
                    m[di] += k[~claims_now]
        return acc, t, broke, n, m

    return run


def read_value_csv(path, grid):
    """The ValueField of a value.csv, parsed line by line: the header, then
    each node of the grid exactly once, at the coordinates n*dx1, m*dx2."""
    lines = open(path).read().splitlines()
    assert lines[0] == "n,m,x1,x2,v"
    values = np.full(grid.shape, np.nan)
    for line in lines[1:]:
        n, m, x1, x2, v = line.split(",")
        n, m = int(n), int(m)
        assert math.isnan(values[n, m])
        assert float(x1) == n * grid.dx1 and float(x2) == m * grid.dx2
        values[n, m] = float(v)
    assert not np.isnan(values).any()
    return ValueField(grid, values)


def label_reference(mask):
    """The 8-connected components of a 2D mask by ndimage.label with a 3x3
    box: (labels, count)."""
    from scipy import ndimage

    return ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))


def opening_reference(mask):
    """The opening of a 2D mask with a 2x2 square by ndimage.binary_opening."""
    from scipy import ndimage

    return ndimage.binary_opening(mask, structure=np.ones((2, 2), dtype=bool))


def correlate_reference(values, kw):
    """out[n] = sum of kw[i] * values[n - i] over the cells i of the kernel
    table kw, on one axis or two, one node and one cell at a time; a cell
    that reaches below the grid (ruin) adds nothing."""
    out = np.zeros(np.shape(values))
    for n in np.ndindex(out.shape):
        for i in np.ndindex(kw.shape):
            if all(ik <= nk for ik, nk in zip(i, n)):
                out[n] += kw[i] * values[tuple(nk - ik for nk, ik in zip(n, i))]
    return out


def integral_I_delta(kernel: ClaimKernel, v: ValueField, n: int, m: int) -> float:
    """Claim integral at a single node by direct gather over kernel cells."""
    g = kernel.grid
    if not (0 <= n <= g.n_max and 0 <= m <= g.m_max):
        raise IndexError("grid point outside the truncated grid")
    keep = (kernel.cell_i1 <= n) & (kernel.cell_i2 <= m)
    if not np.any(keep):
        return 0.0
    vals = v.values[n - kernel.cell_i1[keep], m - kernel.cell_i2[keep]]
    return float(np.dot(kernel.cell_wv[keep], vals) + kernel.cell_wp[keep].sum())


def op_lump(v: ValueField, n: int, m: int, axis: int) -> float:
    """Lump-payout operator: one grid step of surplus paid as dividends."""
    if axis == 1:
        if n <= 0:
            raise ValueError("branch-1 lump needs n > 0")
        return v.values[n - 1, m] + v.grid.dx1
    if axis == 2:
        if m <= 0:
            raise ValueError("branch-2 lump needs m > 0")
        return v.values[n, m - 1] + v.grid.dx2
    raise ValueError("axis must be 1 or 2")


def op_T0(kernel: ClaimKernel, v: ValueField, n: int, m: int) -> float:
    """No-dividend continuation over one step (or until the first claim)."""
    return kernel.scheme.disc * v.lookup(n + 1, m + 1) + integral_I_delta(kernel, v, n, m)


def op_T(kernel: ClaimKernel, v: ValueField, n: int, m: int, eps_tie: float = None):
    """Bellman operator: max of the applicable operators plus its argmax set.

    The action set contains every operator within the tie tolerance of the
    maximum.
    """
    cands = {Action.E0: op_T0(kernel, v, n, m)}
    if n > 0:
        cands[Action.E1] = op_lump(v, n, m, 1)
    if m > 0:
        cands[Action.E2] = op_lump(v, n, m, 2)
    best = max(cands.values())
    eps = tie_epsilon(best) if eps_tie is None else eps_tie
    return best, {a for a, val in cands.items() if val >= best - eps}


def continuous_L(
    v: ValueField, x1: float, x2: float, params: ModelParams, law: ClaimLaw
) -> float:
    """Generator-type residual of the continuous extension at (x1, x2).

    Diagnostic only: forward differences of step dx1/dx2 for the partials
    and exact per-cell quadrature of the claim integral along the ray
    (x1 - b1*u, x2 - b2*u).
    """
    g = v.grid
    if not (0 <= x1 <= g.x1_max - g.dx1 and 0 <= x2 <= g.x2_max - g.dx2):
        raise ValueError("point outside the domain interior")
    u0 = v.extend(x1, x2)
    d1 = (v.extend(x1 + g.dx1, x2) - u0) / g.dx1
    d2 = (v.extend(x1, x2 + g.dx2) - u0) / g.dx2
    integral = ray_integral(
        v.values, (x1, x2), (params.b1, params.b2), (g.dx1, g.dx2), (1.0, 1.0),
        min(x1 / params.b1, x2 / params.b2), law,
    )
    return (
        params.c1 * d1
        + params.c2 * d2
        - (params.q + params.lam) * u0
        + params.lam * integral
    )


@dataclass(frozen=True)
class MReflection:
    """Project onto the proportional ray, then follow the 1D band strategy.

    A strategy for simulate.simulate_policy: runner(params, law, x0) returns
    run(n_paths, seed, rel) -> (values, final times, ruined, rounds, tail),
    stopped by simulate.tail_stop at rel as a policy table's run is.
    """

    wbar: WbarSolution

    def runner(self, params, law, x0):
        wbar = self.wbar
        band = wbar.band
        c1, c2, b1, b2 = params.c1, params.c2, params.b1, params.b2
        q, lam = params.q, params.lam
        ctot = c1 + c2
        kflow = c1 - (b1 / b2) * c2
        rho = wbar.rho
        ivl_lo = np.array([iv[0] for iv in band.intervals])
        ivl_lab = np.array([iv[2] for iv in band.intervals])
        a_pts = np.array(band.a_points)
        if a_pts.size == 0:
            raise ValueError("band structure has no premium-paying points")

        ratio21 = params.b2 / params.b1
        if ratio21 * x0.x1 >= x0.x2:
            z0 = x0.x2
            pay0 = x0.x1 - (params.b1 / params.b2) * x0.x2
        else:
            z0 = ratio21 * x0.x1
            pay0 = x0.x2 - z0
        if z0 > wbar.x_max:
            raise ValueError("initial projection outside the solved band range")

        def labels_of(z):
            i = np.searchsorted(ivl_lo, z, side="right") - 1
            return ivl_lab[np.clip(i, 0, len(ivl_lab) - 1)]

        def run(n_paths, seed, rel):
            rng = np.random.Generator(np.random.Philox(seed))
            z = np.full(n_paths, z0)
            t = np.zeros(n_paths)
            acc = np.full(n_paths, pay0)
            running = np.ones(n_paths, dtype=bool)
            ruined = np.zeros(n_paths, dtype=bool)
            rounds = 0
            snap = 1e-9 * (1.0 + wbar.x_max)
            while True:
                rounds += 1
                togo, claim = np.zeros(n_paths), np.zeros(n_paths)
                togo[running] = rng.exponential(1.0 / lam, running.sum())
                claim[running] = law.sample(rng, running.sum())
                ph = running.copy()
                while np.any(ph):
                    idx = np.nonzero(ph)[0]
                    zi = z[idx]
                    at_a = np.zeros(len(idx), dtype=bool)
                    if a_pts.size:
                        nearest = a_pts[np.clip(np.searchsorted(a_pts, zi), 0, a_pts.size - 1)]
                        below = a_pts[np.clip(np.searchsorted(a_pts, zi) - 1, 0, a_pts.size - 1)]
                        at_a = (np.abs(zi - nearest) <= snap) | (np.abs(zi - below) <= snap)
                    lab = labels_of(zi)
                    # lump region: drop to the nearest premium point below
                    isb = (lab == "B") & ~at_a
                    if np.any(isb):
                        bi = idx[isb]
                        aidx = np.clip(np.searchsorted(a_pts, z[bi] + snap) - 1, 0, a_pts.size - 1)
                        target = a_pts[aidx]
                        acc[bi] += rho * (z[bi] - target) * np.exp(-q * t[bi])
                        z[bi] = target
                        at_a[isb] = True
                    # premium point: stream both premiums until the claim
                    isa = at_a
                    if np.any(isa):
                        ai = idx[isa]
                        s = togo[ai]
                        acc[ai] += ctot * np.exp(-q * t[ai]) * (1 - np.exp(-q * s)) / q
                        t[ai] += s
                        _claim_1d(ai, z, running, ruined, claim, b2)
                        ph[ai] = False
                    # no-pay region: drift up at c2, branch 1 streaming the excess
                    isc = (lab == "C") & ~at_a
                    if np.any(isc):
                        di = idx[isc]
                        nxt = np.searchsorted(a_pts, z[di] + snap)
                        a_up = a_pts[np.clip(nxt, 0, a_pts.size - 1)]
                        a_up = np.where(nxt >= a_pts.size, np.inf, a_up)
                        reach = (a_up - z[di]) / c2
                        s = np.minimum(togo[di], reach)
                        if kflow > 0:
                            acc[di] += kflow * np.exp(-q * t[di]) * (1 - np.exp(-q * s)) / q
                        t[di] += s
                        z[di] += c2 * s
                        claimers = togo[di] <= reach
                        ci = di[claimers]
                        if ci.size:
                            _claim_1d(ci, z, running, ruined, claim, b2)
                            ph[ci] = False
                        togo[di[~claimers]] -= reach[~claimers]
                # a live path's surplus on the ray is (b1/b2 * z, z)
                live = np.nonzero(running)[0]
                stop, tail = tail_stop(
                    (acc.sum(), np.square(acc).sum()),
                    float(np.sum(np.exp(-q * t[live]) * (z[live] * (b1 + b2) / b2 + ctot / q))),
                    n_paths, rel)
                if stop:
                    return acc, t, ruined, rounds, tail

        return run


def _claim_1d(ids, z, running, ruined, claim, b2):
    post = z[ids] - b2 * claim[ids]
    broke = post < 0
    running[ids[broke]] = False
    ruined[ids[broke]] = True
    ok = ids[~broke]
    z[ok] = post[~broke]
