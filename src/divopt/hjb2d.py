"""Discrete dynamic-programming operators on the surplus grid.

The expensive piece is the claim integral entering the no-dividend
operator: a double integral over claim time t in [0, delta] and claim
size u, whose integrand involves the grid floor of the post-claim
surplus in each coordinate.  Swapping the integration order makes the
time integral piecewise closed-form: for fixed claim size u, each floor
index crosses at most one integer as t runs over [0, delta], at the
time delta*frac(u/h_i) with h_i = dx_i/b_i.  Partitioning the claim
axis at the multiples of h_1, h_2 (and at the points where the two
crossing times coincide) yields finitely many cells on which the
post-claim grid offset (j1, j2) relative to the start node is constant
and both the time integral and the claim-law integral have closed
forms.  Crucially the cells and their weights do not depend on the
start node (n, m): only the lookup index (n + j1, m + j2) does, and a
claim ruining a branch is exactly a negative lookup index.  The whole
claim operator is therefore one correlation of the value table with a
fixed kernel (zero padding implements ruin), evaluated over the full grid
by FFT.  The same cells on one axis, and the same FFT correlation, give
the 1D solver's claim operator; the two solvers also share the stop loop,
the argmax-set extraction and the exact ray integral defined here.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sfft

from .model import ClaimLaw, GridSpec, ModelParams, integrate_affine

__all__ = [
    "Action",
    "ValueField",
    "ClaimKernel",
    "claim_cells",
    "kernel_fft",
    "correlate",
    "build_claim_kernel",
    "claim_field",
    "NonConvergenceError",
    "iterate",
    "argmax_sets",
    "set_fft_workers",
    "shift_up_diag",
    "tie_epsilon",
    "ray_integral",
]

EPS_TIE_REL = 1e-9

_FFT_WORKERS = -1


def set_fft_workers(n: int):
    """Cap FFT worker threads (-1 or 0 = all cores)."""
    global _FFT_WORKERS
    _FFT_WORKERS = -1 if n in (0, -1) else int(n)


class Action(enum.IntFlag):
    """Grid control actions: E0 no payout, E1/E2 a one-cell lump in branch 1/2."""

    E0 = 1
    E1 = 2
    E2 = 4


@dataclass
class ValueField:
    """Value table on the truncated grid with unit-slope extension beyond it."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("value table must be finite")
        if np.any(self.values < 0):
            raise ValueError("value table must be nonnegative")

    def lookup(self, n: int, m: int) -> float:
        """Grid value at (n, m), extended linearly past the truncation."""
        if n < 0 or m < 0:
            raise IndexError("grid indices must be nonnegative")
        g = self.grid
        nc = min(n, g.n_max)
        mc = min(m, g.m_max)
        return (
            self.values[nc, mc]
            + max(n - g.n_max, 0) * g.dx1
            + max(m - g.m_max, 0) * g.dx2
        )

    def extend(self, x1: float, x2: float) -> float:
        """Continuous extension: floor to the grid and add both remainders."""
        if x1 < 0 or x2 < 0:
            raise ValueError("surplus coordinates must be nonnegative")
        g = self.grid
        n = int(math.floor(x1 / g.dx1 + 1e-12))
        m = int(math.floor(x2 / g.dx2 + 1e-12))
        return self.lookup(n, m) + (x1 - n * g.dx1) + (x2 - m * g.dx2)


def shift_up_diag(values: np.ndarray, grid: GridSpec, out: np.ndarray = None) -> np.ndarray:
    """Array of lookup(n+1, m+1), using the linear extension at the edges
    (written into out, a buffer other than values, when given)."""
    up = np.empty_like(values) if out is None else out
    up[:-1, :-1] = values[1:, 1:]
    up[-1, :-1] = values[-1, 1:] + grid.dx1
    up[:-1, -1] = values[1:, -1] + grid.dx2
    up[-1, -1] = values[-1, -1] + grid.dx1 + grid.dx2
    return up


def _breakpoints(hs, a_cap: float) -> np.ndarray:
    """Sorted claim-size cell boundaries in [0, a_cap].

    Multiples of each h_i (floor crossings of coordinate i) plus, with two
    axes, the points where the two crossing times coincide, i.e. where
    u/h1 - u/h2 is an integer; within the resulting cells the time
    ordering of the floor crossings is constant.
    """
    lattice = list(hs)
    if len(hs) == 2 and not math.isclose(hs[0], hs[1], rel_tol=1e-12):
        lattice.append(hs[0] * hs[1] / abs(hs[0] - hs[1]))
    pts = [np.array([0.0, a_cap])]
    for h in lattice:
        k = int(math.floor(a_cap / h)) + 1
        pts.append(h * np.arange(1, k + 1))
    bp = np.concatenate(pts)
    bp = bp[(bp >= 0.0) & (bp <= a_cap * (1 + 1e-12))]
    bp = np.unique(bp)
    # merge near-duplicates (h3 often coincides with an h_i lattice)
    keep = np.concatenate([[True], np.diff(bp) > 1e-9 * min(hs)])
    bp = bp[keep]
    bp[-1] = min(bp[-1], a_cap)
    return bp


def claim_cells(law: ClaimLaw, lam: float, q: float, delta: float, dxs, bs, c: float, shape):
    """Exact claim-cell kernel on a grid of one or two axes.

    Axis i has grid step dxs[i] and claim share bs[i]; c is the total
    premium rate and shape the grid shape.  Returns (kw, kp), sized to the
    largest live offset on each axis: kw[i] multiplies the value at node
    - i, and kp[i] is the dividend paid at the claim instant (the
    post-claim remainders, at one per unit).
    """
    beta = lam + q
    hs = [dx / b for dx, b in zip(dxs, bs)]
    bp = _breakpoints(hs, min(s * h for s, h in zip(shape, hs)))
    a_lo, a_hi = bp[:-1], bp[1:]
    mid = 0.5 * (a_lo + a_hi)
    f = np.array([np.floor(mid / h).astype(np.int64) for h in hs])

    # Boundary moments per cell: (E0, E1, T) with Ek = int_cell u^k
    # e^{-beta * t_b(u)} dG(u) and T = int_cell t_b(u) e^{-beta t_b(u)} dG(u),
    # for the time boundaries t_b in {0, t_i*, delta}, where
    # t_i*(u) = delta * (u/h_i - f_i) is the crossing time of floor i.
    e0_s, e1_s = law.weighted_moments(a_lo, a_hi, 0.0)
    crossings = []
    for h, fi in zip(hs, f):
        e0, e1 = law.weighted_moments(a_lo, a_hi, beta * delta / h, ref=fi * h)
        crossings.append((e0, e1, (delta / h) * (e1 - (fi * h) * e0)))
    edelta = math.exp(-beta * delta)
    start = (e0_s, e1_s, np.zeros_like(e0_s))
    end = (edelta * e0_s, edelta * e1_s, delta * (edelta * e0_s))

    # Sub-cells between consecutive crossings; on a tie axis 1 crosses first.
    # An axis that has not crossed yet sits one cell lower, at -(f_i + 1).
    times = np.array([(delta / h) * mid - delta * fi for h, fi in zip(hs, f)])
    order = np.argsort(times, axis=0, kind="stable")
    rank = np.argsort(order, axis=0)
    ordered = np.take_along_axis(np.array(crossings), order[:, None, :], axis=0)
    bounds = [start, *ordered, end]

    j_parts, wv_parts, wp_parts = [], [], []
    for sub in range(len(hs) + 1):
        (ea0, ea1, ta), (eb0, eb1, tb) = bounds[sub], bounds[sub + 1]
        j = np.where(rank < sub, -f, -(f + 1))
        wv = (lam / beta) * (ea0 - eb0)
        int_alpha = (lam / beta) * (ea1 - eb1)
        int_t = lam * ((ta - tb) / beta + (ea0 - eb0) / beta**2)
        wp = c * int_t - sum(bs) * int_alpha - sum(ji * dx for ji, dx in zip(j, dxs)) * wv
        j_parts.append(j)
        wv_parts.append(wv)
        wp_parts.append(wp)

    j_all = np.concatenate(j_parts, axis=1)
    wv_all = np.concatenate(wv_parts)
    wp_all = np.concatenate(wp_parts)

    # drop cells that no grid node can reach and exact zeros
    live = np.all(j_all > -np.array(shape)[:, None], axis=0)
    live &= (np.abs(wv_all) > 0) | (np.abs(wp_all) > 0)
    idx = -j_all[:, live]
    size = tuple(idx.max(axis=1) + 1) if idx.size else (1,) * len(shape)
    kw = np.zeros(size)
    kp = np.zeros(size)
    np.add.at(kw, tuple(idx), wv_all[live])
    np.add.at(kp, tuple(idx), wp_all[live])
    return kw, kp


def kernel_fft(kw: np.ndarray, kp: np.ndarray, shape):
    """FFT set-up of a cell kernel on a grid of the given shape: (fshape,
    transform of kw, payout field).

    fshape is sized to the kernel's reach, the table size less one, as
    described in ClaimKernel.  The payout field, the correlation of kp
    with the all-ones table, is the prefix sum of kp along every axis,
    held constant past the reach; it does not depend on the value table,
    so it is computed here once.
    """
    fshape = tuple(sfft.next_fast_len(s + r - 1) for s, r in zip(shape, kw.shape))
    fk = sfft.rfftn(kw, s=fshape, axes=tuple(range(kw.ndim)), workers=_FFT_WORKERS)
    payout = functools.reduce(np.cumsum, range(kp.ndim), kp)
    pad = [(0, s - r) for s, r in zip(shape, kp.shape)]
    return fshape, fk, np.pad(payout, pad, mode="edge")


def correlate(values: np.ndarray, fk: np.ndarray, fshape) -> np.ndarray:
    """Correlation of a table with a kernel given by its transform fk.

    Zero padding beyond the table encodes ruin; the result is a view of the
    first values.shape entries of the cyclic correlation.
    """
    axes = tuple(range(values.ndim))
    fv = sfft.rfftn(values, s=fshape, axes=axes, workers=_FFT_WORKERS)
    fv *= fk  # in place: one spectrum alive at a time bounds the peak memory
    full = sfft.irfftn(fv, s=fshape, axes=axes, workers=_FFT_WORKERS)
    return full[tuple(slice(0, s) for s in values.shape)]


@dataclass
class ClaimKernel:
    """Exact cell decomposition of the claim integral for one grid/model/law.

    Live cell k sits at offset (cell_i1[k], cell_i2[k]): its weight cell_wv[k]
    multiplies W(n - i1, m - i2), and cell_wp[k] carries the dividends paid
    at the claim instant.  payout_field is the sum of the cell_wp terms
    whose offset stays on the grid, the full payout contribution at every
    node (zero-padding encodes ruin in both pieces).

    fshape, the FFT size, is next_fast_len(s_i + r_i) per axis, where s_i
    is the grid size and r_i the reach: the largest live cell index along
    that axis (0 for an empty kernel).  The linear correlation has
    s_i + r_i points, so a cyclic one of at least that length wraps
    nothing onto the first s_i outputs and is exact there.  Since
    r_i <= s_i - 1 this never exceeds the full 2*s_i - 1 padding, and a
    short-reach kernel (a constant claim size) gets a much smaller FFT.
    """

    grid: GridSpec
    params: ModelParams
    cell_i1: np.ndarray
    cell_i2: np.ndarray
    cell_wv: np.ndarray
    cell_wp: np.ndarray
    fshape: tuple
    _fk: np.ndarray = field(repr=False, default=None)
    payout_field: np.ndarray = field(repr=False, default=None)

    @property
    def discount_step(self) -> float:
        return math.exp(-(self.params.q + self.params.lam) * self.grid.delta)


def build_claim_kernel(params: ModelParams, law: ClaimLaw, grid: GridSpec) -> ClaimKernel:
    kw, kp = claim_cells(
        law, params.lam, params.q, grid.delta, (grid.dx1, grid.dx2),
        (params.b1, params.b2), params.c1 + params.c2, grid.shape,
    )
    fshape, fk, payout = kernel_fft(kw, kp, grid.shape)
    nz = np.nonzero((kw != 0) | (kp != 0))
    return ClaimKernel(
        grid=grid,
        params=params,
        cell_i1=nz[0].astype(np.int64),
        cell_i2=nz[1].astype(np.int64),
        cell_wv=kw[nz],
        cell_wp=kp[nz],
        fshape=fshape,
        _fk=fk,
        payout_field=payout,
    )


def claim_field(kernel: ClaimKernel, values: np.ndarray) -> np.ndarray:
    """Claim integral at every grid node for the given value table."""
    return correlate(values, kernel._fk, kernel.fshape) + kernel.payout_field


class NonConvergenceError(RuntimeError):
    """A solve cannot finish: value iteration hit its sweep cap before the
    stop rule fired, or (with a message saying so) the 2D policy-iteration
    finish hit its policy cap or its linear solve stalled."""

    def __init__(self, sweeps, last_increment, message=None):
        super().__init__(
            message
            or f"value iteration hit the sweep cap ({sweeps}) with sup-increment "
            f"{last_increment:.3e}"
        )
        self.sweeps = sweeps
        self.last_increment = last_increment


def iterate(claim, sweep, v, tol, iter_cap):
    """Monotone value iteration from the table v, shared by both solvers.

    Each sweep freezes the claim field cf = claim(v) and takes sweep(copy
    of v, cf) as the next iterate, until the sup increment of a sweep drops
    below tol * (1 + sup v).  Returns (values, sweeps, last sup increment,
    min increment, effective tol, seconds per phase).
    """
    phases = {"claim_field": 0.0, "sweeps": 0.0}
    sup_inc = min_inc = math.inf
    for sweeps in range(1, iter_cap + 1):
        t_cf = time.perf_counter()
        cf = claim(v)
        t_sweep = time.perf_counter()
        w = sweep(v.copy(), cf)
        inc = w - v
        sup_inc = float(inc.max())
        min_inc = min(min_inc, float(inc.min()))
        v = w
        tol_eff = tol * (1.0 + float(v.max()))
        phases["claim_field"] += t_sweep - t_cf
        phases["sweeps"] += time.perf_counter() - t_sweep
        if sup_inc < tol_eff:
            return v, sweeps, sup_inc, min_inc, tol_eff, phases
    raise NonConvergenceError(iter_cap, sup_inc)


def tie_epsilon(max_value: float) -> float:
    return EPS_TIE_REL * (1.0 + abs(max_value))


def argmax_sets(v: np.ndarray, fields):
    """Argmax sets and residual of the operator fields T_i at the table v.

    Returns one mask per field, true where T_i is within the tie tolerance
    of max_i T_i; the tie tolerance; and |sup(max_i T_i - v)| over the
    interior nodes (all but the last on each axis).
    """
    best = functools.reduce(np.maximum, fields)
    eps = tie_epsilon(float(best.max()))
    resid = abs(float((best - v)[(slice(-1),) * v.ndim].max()))
    return [f >= best - eps for f in fields], eps, resid


def ray_integral(values: np.ndarray, xs, bs, dxs, slopes, ub: float, law: ClaimLaw):
    """int_0^ub U(x - b*u) dG(u), exactly per grid cell, over one or two axes.

    U is the floor-plus-remainder extension of the table values: the value
    at the floor node plus slopes[i] per unit of axis-i remainder.  Axis i
    starts at xs[i] with claim share bs[i] and grid step dxs[i]; ub must
    not exceed min_i xs[i]/bs[i], where the first axis is ruined.
    """
    if ub <= 0:
        return 0.0
    cuts = [np.array([0.0, ub])]
    for x, b, dx in zip(xs, bs, dxs):
        alphas = (x - np.arange(int(math.floor(x / dx)) + 1) * dx) / b
        cuts.append(alphas[(alphas > 0) & (alphas < ub)])
    bp = np.unique(np.concatenate(cuts))
    keep = np.concatenate([[True], np.diff(bp) > 1e-13 * max(1.0, ub)])
    bp = bp[keep]
    slope = -sum(r * b for r, b in zip(slopes, bs))
    total = 0.0
    for a_lo, a_hi in zip(bp[:-1], bp[1:]):
        amid = 0.5 * (a_lo + a_hi)
        ks = [int(math.floor((x - b * amid) / dx)) for x, b, dx in zip(xs, bs, dxs)]
        p = values[tuple(ks)]
        for x, k, dx, r in zip(xs, ks, dxs, slopes):
            p += r * (x - k * dx)
        total += integrate_affine(law, a_lo, a_hi, p, slope)
    return total
