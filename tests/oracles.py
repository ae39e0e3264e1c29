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
re-closing each column under branch-1 lumps after every step.  The Jacobi
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
