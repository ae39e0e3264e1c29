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
fixed kernel (zero padding implements ruin), built once per kernel and
grid by the path that costs less: cell by cell for a kernel of a few live
cells (a constant claim size), a pruned FFT for a dense one.  The same
cells on one axis, and the same builder, give the 1D solver's claim
operator.

The two solvers also share everything else defined here, on one axis or
two: the fixed-point loop (fixed_point: policy iteration on a cascade of
grids, each seeded by the next coarser one and solved first on a crop
around that one's no-pay box, to the grid fixed point itself), its
vectorised sweep, the flow of a grid policy on its no-pay
nodes (policy_flow) and the exact inverse of its discounted drift
(drift_inverse), both of which the Monte Carlo runner reads too, the greedy
step (greedy_step: the greedy action, the tie sets and the residual from
one application of the Bellman operator, for the solve and the reading
commands alike), the exact evaluation of a policy, and the exact ray
integral.  A policy is evaluated on the leading box its no-pay nodes span,
a corner of the grid for the optimal strategy, which pays no dividend only
near the origin, below the dividend curve: claims move the surplus down,
lumps move it down an axis and every drift ends at a no-pay node, so
nothing the no-pay nodes read lies outside the box.  fixed_point is the
whole solve: a solver supplies only the Scheme of the grid of step
2^k*delta and a given shape, which build_scheme makes from the claim cells
on one axis and two alike, and gets back the finest table, its tie sets
and the one SolveReport.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import ClaimLaw, GridSpec, ModelParams, integrate_affine

__all__ = [
    "Action",
    "ValueField",
    "ClaimKernel",
    "claim_cells",
    "DirectCorrelation",
    "FFTCorrelation",
    "build_correlation",
    "Scheme",
    "build_scheme",
    "build_claim_kernel",
    "claim_field",
    "NonConvergenceError",
    "RESIDUAL_REL",
    "PolicyFlow",
    "policy_flow",
    "drift_doubling",
    "drift_inverse",
    "SolveReport",
    "fixed_point",
    "greedy_step",
    "set_fft_workers",
    "shift_up_diag",
    "ray_integral",
]

EPS_TIE_REL = 1e-9  # an action is in a node's tie set within this (relative) of the max
# the one residual bound, relative to 1 + sup v: the most validate's
# residual check allows (merger dominance allows ten times it), and the
# most a policy's value may fall below the iterate it was greedy at
# (_policy_iteration).  On the bundled configs both read below 4e-15.
RESIDUAL_REL = 1e-8


def set_fft_workers(n: int):
    """Accepted for the CLI's --threads; has no effect, since numpy's FFT
    runs on one thread."""


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


def shift_up_diag(values: np.ndarray, dxs, out: np.ndarray = None) -> np.ndarray:
    """Table of lookup(n+1, m+1) on one axis or two: past the last node of
    axis i it adds dxs[i], in axis order (into out, not values, if given)."""
    up = np.empty_like(values) if out is None else out
    for edges in itertools.product((False, True), repeat=values.ndim):
        up[tuple(-1 if e else np.s_[:-1] for e in edges)] = functools.reduce(
            np.add, [dx for e, dx in zip(edges, dxs) if e],
            values[tuple(-1 if e else np.s_[1:] for e in edges)])
    return up


def _lumps(dxs):
    """Each lump action: its code (axis + 1), the nodes it applies at, their
    lump targets one cell down the axis, and the payout dxs[axis]."""
    return [(axis + 1, (np.s_[:],) * axis + (np.s_[1:],), (np.s_[:],) * axis + (np.s_[:-1],), dx)
            for axis, dx in enumerate(dxs)]


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
    # sort, then merge near-duplicates (h3 often coincides with an h_i
    # lattice) and exact ones with them; np.unique would also load
    # numpy.ma (12-16 ms) on its first call
    bp = np.sort(bp)
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


# The correlation runs cell by cell when cells * nodes is at most this
# many times F*log2(F), F the FFT size.  The pruned FFT's time per unit of
# F*log2(F), over a direct cell-node multiply-add's, measured 0.2-1.3
# (median about 0.5) on grids of 21x41 to 351x701 nodes and 1D grids of
# 1,289-5,601 nodes, on a shared 2-core x86-64 machine with one FFT worker.
_DIRECT_PER_FFT_UNIT = 0.5


@functools.cache
def _next_fast_len(n):
    """The least 11-smooth length >= n, scipy.fft.next_fast_len's answer: a
    length pocketfft transforms fast.  Memoised: every box correlation
    asks for its lengths, and the enumeration runs in Python."""
    best = 1 << (n - 1).bit_length()  # the least power of two >= n
    odd = [1]  # the odd 11-smooth numbers below it
    for p in (3, 5, 7, 11):
        for f in odd[:]:
            while (f := f * p) < best:
                odd.append(f)
    return min(f << (-(-n // f) - 1).bit_length() for f in odd)


def _fft_shape(shape, kernel_shape):
    """_next_fast_len(s_i + r_i) per axis: see FFTCorrelation."""
    return tuple(_next_fast_len(s + r - 1) for s, r in zip(shape, kernel_shape))


class _Correlation:
    """A correlation keeps its kernel's live cells: their indices (one
    array per axis) and weights."""

    def __init__(self, kw: np.ndarray):
        self.at = np.nonzero(kw)
        self.kw_at = kw[self.at]
        self.cells = self.kw_at.size

    def on_box(self, shape):
        """This correlation on the leading box of the given shape, built by
        build_correlation from the cells inside it: out[n] for n in the box
        reads only nodes n - i of the box, and a cell past the box on some
        axis reads only negative (ruined) indices there."""
        live = np.all([i < s for i, s in zip(self.at, shape)], axis=0)
        at = tuple(i[live] for i in self.at)
        kw = np.zeros([i.max(initial=0) + 1 for i in at])
        kw[at] = self.kw_at[live]
        return build_correlation(kw, shape)


class DirectCorrelation(_Correlation):
    """Correlation of a table with a short kernel, one live cell at a time.

    out[n] = sum_i kw[i] * values[n - i] over the nonzero cells i of kw,
    with values zero at negative indices (ruin): each cell adds its
    weight times the table shifted up by its offset.  The kernel's
    transform is never computed.
    """

    kind = "direct"
    fshape = None

    def __init__(self, kw: np.ndarray):
        super().__init__(kw)
        self.offsets = np.transpose(self.at).tolist()
        self.weights = self.kw_at.tolist()

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The first cell multiplies straight into out, zeroing only the
        strips its shift leaves uncovered; each later cell adds its term."""
        if not self.weights:
            return np.zeros_like(values)
        out = np.empty_like(values)
        for c, (offset, w) in enumerate(zip(self.offsets, self.weights)):
            to = tuple(np.s_[i:] for i in offset)
            frm = tuple(np.s_[: s - i] for s, i in zip(values.shape, offset))
            if c:
                out[to] += values[frm] * w
                continue
            np.multiply(values[frm], w, out=out[to])
            for axis, i in enumerate(offset):
                out[(np.s_[:],) * axis + (np.s_[:i],)] = 0.0
        return out


class FFTCorrelation(_Correlation):
    """Correlation of a table with a dense kernel by a pruned FFT.

    fshape, the FFT size, is _next_fast_len(s_i + r_i) per axis, where s_i
    is the grid size and r_i the reach: the largest live cell index along
    that axis (0 for an empty kernel).  The linear correlation has
    s_i + r_i points, so a cyclic one of at least that length wraps
    nothing onto the first s_i outputs and is exact there.  Since
    r_i <= s_i - 1 this never exceeds the full 2*s_i - 1 padding, and a
    short-reach kernel (a constant claim size) gets a much smaller FFT.

    The transforms skip what is known to be zero or not needed (FFT
    pruning): the forward real transform runs along the last axis over the
    table's own rows only, the padding rows being zero, before the full
    transforms along the leading axes; the inverse keeps only the table's
    rows after the leading axes, so the inverse real transform runs over
    those rows alone.  Each skipped transform is one whose input is zero
    or whose output is dropped, so the result is the full cyclic
    correlation's, up to rounding.  numpy.fft runs the transforms (the C++
    pocketfft, on one thread), the inverse ones along the leading axes in
    place.
    """

    kind = "fft"

    def __init__(self, kw: np.ndarray, shape):
        super().__init__(kw)
        self.fshape = _fft_shape(shape, kw.shape)
        self.fk = np.fft.rfftn(kw, s=self.fshape, axes=tuple(range(kw.ndim)))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        lead = range(values.ndim - 1)
        fv = np.fft.rfft(values, n=self.fshape[-1], axis=-1)
        for axis in lead:
            fv = np.fft.fft(fv, n=self.fshape[axis], axis=axis)
        fv *= self.fk  # in place: one spectrum alive at a time bounds the peak memory
        for axis in lead:
            np.fft.ifft(fv, axis=axis, out=fv)
        fv = fv[tuple(np.s_[:s] for s in values.shape[:-1])]
        full = np.fft.irfft(fv, n=self.fshape[-1], axis=-1)
        return full[..., : values.shape[-1]]


def build_correlation(kw: np.ndarray, shape):
    """The correlation with kw on a grid of the given shape, by the path
    that costs less: cell by cell while the live cells times the nodes stay
    within _DIRECT_PER_FFT_UNIT * F*log2(F), F the FFT size, else by the
    pruned FFT."""
    cells = int(np.count_nonzero(kw))
    fsize = math.prod(_fft_shape(shape, kw.shape))
    if cells * math.prod(shape) <= _DIRECT_PER_FFT_UNIT * fsize * math.log2(fsize):
        return DirectCorrelation(kw)
    return FFTCorrelation(kw, shape)


class Scheme(NamedTuple):
    """The discrete scheme on a grid of one axis or two: claim(u), the claim
    field of a table u, is correlation(u) plus const (the dividends paid at
    the claim instant, and any reward accrued over the step); disc is the
    one-step discount and dxs[i] the payout of one cell down axis i."""

    claim: object
    correlation: object
    const: np.ndarray
    disc: float
    dxs: tuple


def build_scheme(kw: np.ndarray, kp: np.ndarray, shape, disc: float, dxs) -> Scheme:
    """The Scheme of a claim-cell kernel (claim_cells) on a grid of the given
    shape: the correlation with kw, and as const the payout field (kp
    correlated with the all-ones table: its prefix sum along every axis,
    held past the reach), which a caller may add to in place."""
    payout = functools.reduce(np.cumsum, range(kp.ndim), kp)
    pad = [(0, s - r) for s, r in zip(shape, kp.shape)]
    correlation = build_correlation(kw, shape)
    const = np.pad(payout, pad, mode="edge")
    return Scheme(functools.partial(_claim_field, correlation, const), correlation, const, disc,
                  tuple(dxs))


def _claim_field(correlation, const, values):
    cf = correlation(values)  # a fresh table (or a view of one) each call
    cf += const
    return cf


@dataclass
class ClaimKernel:
    """Exact cell decomposition of the claim integral for one grid/model/law.

    Live cell k sits at offset (cell_i1[k], cell_i2[k]): its weight cell_wv[k]
    multiplies W(n - i1, m - i2), and cell_wp[k] carries the dividends paid
    at the claim instant.  scheme is the grid's Scheme (build_scheme), whose
    const, the payout field, sums the cell_wp terms that stay on the grid.
    """

    grid: GridSpec
    cell_i1: np.ndarray
    cell_i2: np.ndarray
    cell_wv: np.ndarray
    cell_wp: np.ndarray
    scheme: Scheme = field(repr=False)


def build_claim_kernel(params: ModelParams, law: ClaimLaw, grid: GridSpec) -> ClaimKernel:
    kw, kp = claim_cells(
        law, params.lam, params.q, grid.delta, (grid.dx1, grid.dx2),
        (params.b1, params.b2), params.c1 + params.c2, grid.shape,
    )
    scheme = build_scheme(kw, kp, grid.shape, math.exp(-(params.q + params.lam) * grid.delta),
                          (grid.dx1, grid.dx2))
    nz = np.nonzero((kw != 0) | (kp != 0))
    return ClaimKernel(
        grid=grid,
        cell_i1=nz[0].astype(np.int64),
        cell_i2=nz[1].astype(np.int64),
        cell_wv=kw[nz],
        cell_wp=kp[nz],
        scheme=scheme,
    )


def claim_field(kernel: ClaimKernel, values: np.ndarray) -> np.ndarray:
    """Claim integral at every grid node for the given value table."""
    return _claim_field(kernel.scheme.correlation, kernel.scheme.const, values)


class NonConvergenceError(RuntimeError):
    """A solve cannot finish: policy iteration hit its policy cap on some
    level of the cascade, a policy's value fell below the iterate, or a
    policy evaluation stalled."""


class PolicyFlow(NamedTuple):
    """A grid strategy as a flow on its no-pay nodes, in rank space.

    Every node lumps, one cell at a time down its axis, to the no-pay node
    at the end of its lump chain: its anchor.  A no-pay node drifts one
    cell up every axis, to (min(n+1, n_max), min(m+1, m_max)) in 2D, and
    lumps on to that target's anchor; past the last node of axis i the
    drift pays dxs[i] instead, shift_up_diag's unit-slope rule.  Ranks
    number the no-pay nodes in flat (C) order.

    nopay is the flat index of each no-pay node, in rank order; anchor
    (int32, flat) the rank of each node's anchor; succ the anchor rank of
    each no-pay node's drift target; paid the dividends of that step.  A
    lump node's own payout is s[node] - s[anchor], s = n*dxs[0] + m*dxs[1].
    """

    nopay: np.ndarray
    anchor: np.ndarray
    succ: np.ndarray
    paid: np.ndarray


def drift_doubling(succ, disc):
    """The doubling tables of drift_inverse: (succ^(2^j), disc^(2^j)) for
    j = 0, 1, ... until disc^(2^j) underflows."""
    doubling, d = [], disc
    while d > 0.0:
        doubling.append((succ, d))
        succ, d = succ[succ], d * d
    return doubling


def drift_inverse(doubling, y):
    """x = y + disc * x[succ], solved by pointer doubling over the tables
    drift_doubling(succ, disc): after j passes x sums the first 2^j terms
    of y + disc*y[succ] + disc^2*y[succ[succ]] + ..."""
    x = y.copy()
    for succ, d in doubling:
        x += d * x[succ]
    return x


def _anchor_ranks(pref):
    """Rank of the no-pay node at the end of each node's lump chain.

    pref holds each node's action (0 no-pay, i + 1 a lump down axis i); the
    rank counts the no-pay nodes in flat (C) order, and the ranks come back
    as a flat int32 array.  Pointer jumping: each lump node points at its
    lump target, one cell down its axis, and a no-pay node holds -1 - its
    rank; every pass replaces each pointer by its target's entry, which
    doubles the chain length covered, until no pointer is left.  Every
    chain ends on a no-pay node as long as no node lumps off the grid
    (down axis i at index 0), which PolicyField and the greedy step both
    rule out.
    """
    flat = pref.ravel()
    out = np.empty(flat.size, dtype=np.int32)
    scratch = np.empty(flat.size, dtype=np.int32)
    strides = [math.prod(pref.shape[i + 1:]) for i in range(pref.ndim)]  # C order
    np.take(np.array([0, *strides], dtype=out.dtype), flat, out=scratch, mode="clip")
    np.subtract(np.arange(flat.size, dtype=out.dtype), scratch, out=out)
    nopay = flat == 0
    out[nopay] = -1 - np.arange(np.count_nonzero(nopay), dtype=out.dtype)
    live = ~nopay
    while live.any():
        np.take(out, out, out=scratch, mode="clip")  # negative entries read junk, kept below
        np.copyto(out, scratch, where=live)
        np.greater_equal(out, 0, out=live)
    return np.subtract(-1, out, out=out)


def policy_flow(pref, dxs) -> PolicyFlow:
    """The flow of the grid policy pref (0 no-pay, i + 1 a lump down axis i
    at each node) on a grid of steps dxs; the policy evaluation of
    fixed_point and the Monte Carlo runner both read it."""
    shape = pref.shape
    nopay = np.flatnonzero(pref == 0)
    anchor = _anchor_ranks(pref)
    at = np.unravel_index(nopay, shape)
    to = tuple(np.minimum(i + 1, s - 1) for i, s in zip(at, shape))
    succ = anchor[np.ravel_multi_index(to, shape)]
    frm = np.unravel_index(nopay[succ], shape)
    # one flat sum: the lumps after the drift, then the payouts past the edges
    paid = sum([(t - a) * dx for t, a, dx in zip(to, frm, dxs)]
               + [(i == s - 1) * dx for i, s, dx in zip(at, shape, dxs)])
    return PolicyFlow(nopay, anchor, succ, paid)


# The constants of fixed_point.  These are not options: policy iteration
# always runs to the fixed point.  The cascade coarsens while the next grid
# keeps this many nodes on its shorter axis: example 1 solved in 1.0-1.7 s
# with 12 or 20, 1.8-2.8 s with 45, 3.3-3.7 s with 64 and 12.9-14.4 s on one
# grid (shared 2-core x86-64 machine, one FFT worker).
_MIN_LEVEL_NODES = 20
# Each finer grid first solves on its leading crop of
# min(n, ceil(_CROP_GROWTH * 2 * b) + _CROP_MARGIN) nodes per axis, n the
# grid's nodes and b the coarser grid's final no-pay box (at least the
# origin, so a crop has 5 nodes at the least).  The box grew 1.85-2.16x per
# halving of the step on the bundled configs.  Only the speed depends on
# these: the finest and 2*delta grids end with a whole-grid pass, which
# reaches their fixed points whatever the crops were.
_CROP_GROWTH = 1.15
_CROP_MARGIN = 2
_POLICY_CAP = 100  # greedy policies evaluated on one level before fixed_point gives up
_KEEP_REL = 1e-13  # a node keeps its action while within this (relative) of the best
_GMRES_RESTART = 20
_GMRES_CYCLES = 52  # restart cycles; each must halve the residual (2**52 > 1/_GMRES_RTOL)
# evaluation residual target: root mean square over the no-pay nodes,
# relative to 1 + sup |x|.  It sits 3.6-6.5x above the rounding floor where
# GMRES stops gaining, 4.6e-17 to 8.4e-17 over the evaluations of example
# 1's finest grid at delta/2 (correlations on the no-pay box); in the 1D
# solves of validate on the bundled configs, the restart cycles ended at
# 0.05-0.22 of it at the least.  A looser target leaves more near-tie nodes
# to flip, and took example 1 through 11 policies instead of 9 at 1e-15.
_GMRES_RTOL = 3e-16


def _sweep(v, cf, disc, dxs, work):
    """One monotone sweep of v in place, with the claim field cf frozen and
    work as scratch, on one axis or two: v <- max(v, T0(v)) with
    T0 = disc * shift_up_diag(v) + cf, then one prefix-max scan per axis,
    v_n <- n*dx + max over j <= n of (v_j - j*dx), the closure under lumps
    down that axis.  A max of tables closed under axis-0 lumps stays
    closed, so the axis-1 scan keeps the axis-0 closure.  cf is left
    holding v as it was before the sweep, so no table is allocated for
    the increments."""
    np.multiply(shift_up_diag(v, dxs, out=work), disc, out=work)
    work += cf
    np.copyto(cf, v)
    np.maximum(v, work, out=v)
    for axis, dx in enumerate(dxs):
        offs = (np.arange(v.shape[axis]) * dx).reshape((-1,) + (1,) * (v.ndim - 1 - axis))
        np.subtract(v, offs, out=work)
        np.maximum.accumulate(work, axis=axis, out=work)
        work += offs
        np.maximum(v, work, out=v)
    return v


def _seed(last, pref, v):
    """Put the last grid's final (table, policy, step) on this grid, in
    place, and return (pref, v): node n takes node n // step's entry, step
    2 from the coarser grid (prolongation) and 1 from a crop of this grid
    (embedding), over the leading box those nodes cover.  Past that box
    every node lumps: down axis 0 past its rows, else down the last axis,
    so every lump chain ends in the box.  The policy lumps off no grid:
    index 0 takes the last grid's index-0 action, and no greedy step lumps
    down an axis there.  v is left alone past the box."""
    table, policy, step = last
    covered = tuple(min(s, step * c) for s, c in zip(pref.shape, policy.shape))
    box = tuple(np.s_[:c] for c in covered)
    # one strided copy per residue of the indices, so no index table is built
    for residue in itertools.product(range(step), repeat=pref.ndim):
        for src, dst in ((policy, pref), (table, v)):
            part = dst[box][tuple(np.s_[r::step] for r in residue)]
            part[...] = src[tuple(np.s_[:s] for s in part.shape)]
    for axis in reversed(range(pref.ndim)):  # axis 0 last: it wins past both
        pref[(np.s_[:],) * axis + (np.s_[covered[axis]:],)] = axis + 1
    return pref, v


@dataclass(kw_only=True)
class SolveReport:
    """What a solve reports of its run to the grid fixed point."""

    # over all levels: the total sweeps and the last one's sup increment
    iterations: int
    final_sup_increment: float
    # policy iteration: greedy policies evaluated, GMRES matvecs over all
    # evaluations, and the sup residual of the last evaluation
    policies: int
    gmres_matvecs: int
    gmres_residual: float
    # the claim correlation's path ("direct" or "fft"), its live cells and
    # its FFT size (None on the direct path)
    correlation: str
    kernel_cells: int
    fshape: tuple
    # per grid solved, coarsest first (each finer grid's crop, and the
    # whole finest and 2*delta grids after a crop smaller than them; the
    # last is the whole finest grid): shape, sweeps, policies, matvecs,
    # eval_box (the per-axis largest box its policy evaluations ran on) and
    # seconds (iterations, policies and gmres_matvecs total them);
    # and V_delta - V_2delta, sup over the 2*delta grid's nodes (None without
    # one), an estimate of the discretisation error that the residual does
    # not bound
    levels: list
    disc_error_est: float
    # seconds spent in the claim field of each sweep, in the sweeps, in the
    # policy evaluations (V^pi0 included) and in the greedy steps (each
    # with its tie sets and residual)
    phases: dict
    # the last greedy step's residual, at the final table, and the wall
    # time (a solve that cannot reach its fixed point raises)
    residual_max: float
    wall_time: float


def fixed_point(level, shape):
    """The whole solve of both solvers, on a grid of one axis or two: the
    grid fixed point by coarse-to-fine policy iteration (Howard), with the
    tie sets and residual of the finest table from its last greedy step.

    level(scale, shape) returns the Scheme on the grid of step scale*delta
    and that shape.
    The grids have steps 2^k*delta, k = K, ..., 0.  Each coarser one has
    n_max // 2 on each axis (its node i is node 2i of the next finer one)
    while its shorter axis keeps _MIN_LEVEL_NODES nodes.  The coarsest is
    solved whole, from zero with no policy.  Each finer one is solved first
    on its leading crop around the coarser one's final no-pay box (see
    _CROP_GROWTH), from V^pi0: the exact value of the coarser one's final
    policy prolonged, with a lump at every node past the nodes it covers
    (_seed).  The crop's fixed point is the grid's wherever the crop holds
    the no-pay region: claims only lower the surplus and lumps go down an
    axis, so the values on the crop depend only on the crop, and a node past
    it lumps to its target's value plus the payout, the crop edge's
    unit-slope rule.  A crop smaller than its grid on the finest grid and
    the 2*delta one (whose whole table disc_error_est reads) is followed by
    the whole grid, from the crop's final policy embedded (_seed again):
    the grid fixed point whatever the crop, after one sweep and one greedy
    step when the crop held the region.  Each of these runs
    _policy_iteration and has its levels entry.  Returns the finest table,
    its tie sets (an Action bitmask per node, greedy_step's), their tie
    tolerance and the SolveReport (the correlation is the finest grid's).
    """
    t_start = time.perf_counter()
    shapes = [tuple(shape)]
    while min(coarser := tuple((s - 1) // 2 + 1 for s in shapes[-1])) >= _MIN_LEVEL_NODES:
        shapes.append(coarser)
    phases = {"claim_field": 0.0, "sweeps": 0.0, "evaluation": 0.0, "policy": 0.0}
    levels, last, coarse = [], None, None
    k, run = len(shapes) - 1, shapes[-1]
    while True:
        t_level = time.perf_counter()
        scheme = level(2**k, run)
        counts = dict(shape=list(run), sweeps=0, policies=0, matvecs=0,
                      eval_box=[0] * len(shape))
        v, pref, (ties, eps, resid), sup_inc, gmres_residual = _policy_iteration(
            scheme, last, phases, counts)
        counts["seconds"] = time.perf_counter() - t_level
        levels.append(counts)
        if run != shapes[k] and k <= 1:
            last, run = (v, pref, 1), shapes[k]  # this grid whole, from its crop's policy
            continue
        if k == 0:
            break
        if k == 1:
            coarse = v  # V_2delta, for disc_error_est
        box = [int(i.max()) + 1 for i in np.nonzero(pref == 0)]  # never empty: the origin
        last, k = (v, pref, 2), k - 1
        run = tuple(min(s, math.ceil(_CROP_GROWTH * 2 * b) + _CROP_MARGIN)
                    for s, b in zip(shapes[k], box))
    disc_error_est = None if coarse is None else float(
        (v[(np.s_[::2],) * v.ndim] - coarse).max())
    return v, ties, eps, SolveReport(
        iterations=sum(lv["sweeps"] for lv in levels), final_sup_increment=sup_inc,
        policies=sum(lv["policies"] for lv in levels),
        gmres_matvecs=sum(lv["matvecs"] for lv in levels), gmres_residual=gmres_residual,
        correlation=scheme.correlation.kind, kernel_cells=scheme.correlation.cells,
        fshape=scheme.correlation.fshape, levels=levels, disc_error_est=disc_error_est,
        phases=phases, residual_max=resid, wall_time=time.perf_counter() - t_start)


def _policy_iteration(scheme, last, phases, counts):
    """Policy iteration on the grid of a Scheme, from V^pi0 of the last
    grid's final (table, policy, step) last (_seed), or from zero if None:
    one sweep (_sweep); one greedy step (greedy_step) at the swept table; and
    v <- max(v, V^pi), V^pi the greedy policy's exact value (_evaluate),
    until the greedy policy repeats.  V^pi0 and every V^pi are values of
    admissible grid strategies, so v stays below the fixed point; and pi
    is greedy at v, so V^pi >= v up to rounding and the near-tie actions
    kept.  V^pi below v by more than RESIDUAL_REL * (1 + sup v) anywhere
    raises NonConvergenceError.  Adds up phases and counts (the grid's levels
    entry); returns the table, its greedy policy, the last greedy step's
    (ties, eps_tie, resid), the last sweep's sup increment and the last
    evaluation's sup residual."""
    v = np.zeros(counts["shape"])
    pref = np.empty(v.shape, dtype=np.int8)
    prev = np.full(v.shape, -1, dtype=np.int8)
    if last is not None:
        t_eval = time.perf_counter()
        # the seeded values are only GMRES's start: V^pi0 overwrites them
        residual = _evaluate(scheme, *_seed(last, prev, v), v, counts)
        phases["evaluation"] += time.perf_counter() - t_eval
    work = np.empty_like(v)  # sweep and greedy-step scratch, then the tables of an evaluation
    while True:
        counts["sweeps"] += 1
        t_cf = time.perf_counter()
        # claim field, then v before the sweep, then the best field, then V^pi - v
        before = scheme.claim(v)
        t_sweep = time.perf_counter()
        _sweep(v, before, scheme.disc, scheme.dxs, work)
        np.subtract(v, before, out=before)
        sup_inc = float(before.max())
        t_greedy = time.perf_counter()
        greedy = greedy_step(scheme, v, prev, pref, before, work)
        t_eval = time.perf_counter()
        phases["claim_field"] += t_sweep - t_cf
        phases["sweeps"] += t_greedy - t_sweep
        phases["policy"] += t_eval - t_greedy
        if np.array_equal(pref, prev):
            return v, pref, greedy, sup_inc, residual
        del greedy  # its tie sets are not held through the evaluation
        if counts["policies"] == _POLICY_CAP:
            raise NonConvergenceError(
                f"policy iteration evaluated {_POLICY_CAP} policies on the "
                f"{'x'.join(map(str, v.shape))}-node grid without the greedy policy "
                f"repeating (last sweep's sup-increment {sup_inc:.3e})")
        residual = _evaluate(scheme, pref, v, work, counts)
        drop = float(np.subtract(work, v, out=before).min())
        if drop < -RESIDUAL_REL * (1.0 + float(v.max())):
            raise NonConvergenceError(
                f"policy iteration on the {'x'.join(map(str, v.shape))}-node grid: a greedy "
                f"policy's value fell {-drop:.3e} below the iterate it was greedy at")
        np.maximum(v, work, out=v)
        pref, prev = prev, pref
        phases["evaluation"] += time.perf_counter() - t_eval


def greedy_step(scheme, v, prev, pref, best, work):
    """One application of the Bellman operator of the Scheme at v: write the
    greedy action into pref (0 no-pay, i + 1 a lump down axis i), with best
    and work as grid-sized scratch, and return (ties, eps_tie, resid).

    The action attains the max of T0 = disc * shift_up_diag(v) + claim(v)
    and the lumps, exact ties going to the lump down axis 0, then axis 1.
    A node keeps its previous action prev (-1 for none) wherever that is
    within _KEEP_REL (relative) of the max, so rounding cannot flip the
    policy back and forth.  ties is an Action bitmask (uint8) per node of
    every action within eps_tie = EPS_TIE_REL * (1 + |sup max|) of the max,
    and resid is |sup(max - v)| over the interior nodes (all but the last
    on each axis), zero at any fixed point.
    """
    t0 = scheme.claim(v)  # the claim field, then T0, then T0 - max, then each lump
    lumps = _lumps(scheme.dxs)
    shift_up_diag(v, scheme.dxs, out=work)
    work *= scheme.disc
    t0 += work
    np.copyto(best, t0)
    for _, to, frm, dx in lumps:
        np.add(v[frm], dx, out=work[to])
        np.maximum(best[to], work[to], out=best[to])
    top = 1.0 + abs(float(best.max()))
    eps_tie, eps_keep = EPS_TIE_REL * top, _KEEP_REL * top
    np.subtract(best, eps_tie, out=work)  # the least value of a tie
    ties = np.greater_equal(t0, work).view(np.uint8)  # Action.E0 is bit 0
    t0 -= best
    pref[...] = 0
    keep = (prev == 0) & (t0 >= -eps_keep)
    for code, to, frm, dx in reversed(lumps):  # the last axis first: axis 0 wins exact ties
        lump = np.add(v[frm], dx, out=t0[to])
        tie = np.greater_equal(lump, work[to]).view(np.uint8)
        ties[to] |= np.left_shift(tie, code, out=tie)
        lump -= best[to]
        pref[to][lump == 0.0] = code
        keep[to] |= (prev[to] == code) & (lump >= -eps_keep)
    np.copyto(pref, prev, where=keep)
    inner = (np.s_[:-1],) * v.ndim
    resid = abs(float(np.subtract(best[inner], v[inner], out=work[inner]).max()))
    return ties, eps_tie, resid


def _evaluate(scheme, pref, v, out, counts):
    """Write V^pi of the grid policy pref into out, starting GMRES from v;
    add up counts (a levels entry) and return GMRES's sup residual.

    A lump node's value is the payout down its lump chain plus the value
    at the chain's anchor, a no-pay node, so the unknowns are the values x
    at the K no-pay nodes.  With the policy's flow (policy_flow) they solve

        x = disc * (x[succ] + paid) + claim(expanded table)[no-pay].

    The drift part x -> disc * x[succ] is a functional graph on the no-pay
    nodes, inverted exactly by pointer doubling (drift_inverse, whose
    tables are built once per evaluation; the Monte Carlo runner reads
    the same inverse for its payouts); that inverse right-preconditions a
    restarted GMRES (_gmres) whose matvec is one correlation with the
    claim kernel.

    The system lives on the leading box [0, n_hi] x [0, m_hi] that the
    no-pay nodes span, so the matvecs expand x and correlate on that box
    only (the correlation's on_box), and the result is expanded onto the
    whole grid once.  That is exact, for three reasons: the kernel's
    offsets are nonnegative (claims only lower the surplus), so the claim
    field at a no-pay node reads only box nodes; lumps go down an axis, so
    every box node's anchor lies in the box; and each drift target's
    anchor is a no-pay node.  The flow itself comes from the whole grid: a
    no-pay node on the box edge drifts onto a lump node past it, which a
    cropped grid would replace by its edge rule.
    """
    flow = policy_flow(pref, scheme.dxs)
    at = np.unravel_index(flow.nopay, pref.shape)
    box = tuple(int(i.max()) + 1 for i in at)
    counts["eval_box"] = list(map(max, counts["eval_box"], box))
    correlation = scheme.correlation.on_box(box)
    anchor = flow.anchor.reshape(pref.shape)[tuple(np.s_[:s] for s in box)].ravel()
    # s = n*dxs[0] + m*dxs[1], per axis and at the no-pay nodes
    axes = [np.arange(n) * dx for n, dx in zip(pref.shape, scheme.dxs)]
    s = sum(a[i] for a, i in zip(axes, at))
    const = scheme.const[at]
    table = out.ravel()[: anchor.size].reshape(box)  # out's leading entries: the box's scratch

    def expand_into(x, anchor, out):
        """The table of no-pay values x on out's nodes (the box's or the
        grid's, with their anchors): x at the anchor plus the payout on the
        way, s at the node less s at the anchor."""
        np.take(x - s, anchor, out=out.ravel(), mode="clip")
        for axis, a in enumerate(axes):
            out += a[: out.shape[axis]].reshape((-1,) + (1,) * (out.ndim - 1 - axis))

    def residual(x):
        expand_into(x, anchor, table)
        cf = correlation(table)[at]
        cf += const
        return scheme.disc * (x[flow.succ] + flow.paid) + cf - x

    doubling = drift_doubling(flow.succ, scheme.disc)

    def apply(z):
        """The right-preconditioned operator: z less the claim part of the
        expansion of the drift inverse of z."""
        np.take(drift_inverse(doubling, z), anchor, out=table.ravel(), mode="clip")
        return z - correlation(table)[at]

    x, resid, matvecs = _gmres(apply, residual, functools.partial(drift_inverse, doubling),
                               v.ravel()[flow.nopay])
    expand_into(x, flow.anchor, out)
    out.ravel()[flow.nopay] = x
    counts["policies"] += 1
    counts["matvecs"] += matvecs
    return resid


def _gmres(apply, residual, precondition, x):
    """Restarted GMRES from x on the right-preconditioned operator apply,
    with the true residual and the preconditioner; returns x, its sup
    residual and the matvecs.  Each cycle ends on the true residual, and a
    cycle that does not halve it is a stall, or the rounding floor if one
    more halving would have reached the target."""
    restart = _GMRES_RESTART
    basis = np.empty((restart + 1, x.size))
    r = residual(x)
    beta = float(np.linalg.norm(r))
    matvecs = 0
    for cycle in range(_GMRES_CYCLES + 1):
        target = _GMRES_RTOL * (1.0 + float(np.abs(x).max())) * math.sqrt(x.size)
        stalled = cycle and not beta < 0.5 * last
        if beta <= (2 * target if stalled else target):
            return x, float(np.abs(r).max()), matvecs
        if cycle == _GMRES_CYCLES or stalled:
            break
        hess = np.zeros((restart + 1, restart))
        cs, sn = np.zeros(restart), np.zeros(restart)
        g = np.zeros(restart + 1)
        g[0] = beta
        basis[0] = r / beta
        for j in range(restart):
            w = apply(basis[j])
            for _ in range(2):  # classical Gram-Schmidt, done twice
                h = basis[: j + 1] @ w
                w -= h @ basis[: j + 1]
                hess[: j + 1, j] += h
            hess[j + 1, j] = np.linalg.norm(w)
            if hess[j + 1, j] > 0.0:
                basis[j + 1] = w / hess[j + 1, j]
            for i in range(j):  # the earlier Givens rotations, on the new column
                hess[i, j], hess[i + 1, j] = (cs[i] * hess[i, j] + sn[i] * hess[i + 1, j],
                                              cs[i] * hess[i + 1, j] - sn[i] * hess[i, j])
            rho = math.hypot(hess[j, j], hess[j + 1, j])
            cs[j], sn[j] = hess[j, j] / rho, hess[j + 1, j] / rho
            hess[j, j], hess[j + 1, j] = rho, 0.0
            g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
            if abs(g[j + 1]) <= target:  # also on a breakdown, where sn[j] = 0
                break
        k = j + 1
        matvecs += k
        y = np.linalg.solve(np.triu(hess[:k, :k]), g[:k])
        x = x + precondition(y @ basis[:k])
        r = residual(x)
        last, beta = beta, float(np.linalg.norm(r))
    raise NonConvergenceError(
        f"policy evaluation stalled: GMRES residual {beta:.3e} against a target of "
        f"{target:.3e} after {matvecs} matvecs",
    )


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
    bp = np.sort(np.concatenate(cuts))  # the merge drops duplicates, see _breakpoints
    keep = np.concatenate([[True], np.diff(bp) > 1e-13 * max(1.0, ub)])
    bp = bp[keep]
    slope = -sum(r * b for r, b in zip(slopes, bs))
    # every segment at once: its floor node at the midpoint, the affine
    # integrand's intercept there, and one integrate_affine call
    a_lo, a_hi = bp[:-1], bp[1:]
    amid = 0.5 * (a_lo + a_hi)
    ks = [np.floor((x - b * amid) / dx).astype(np.intp) for x, b, dx in zip(xs, bs, dxs)]
    p = values[tuple(ks)]
    for x, k, dx, r in zip(xs, ks, dxs, slopes):
        p = p + r * (x - k * dx)
    return float(np.sum(integrate_affine(law, a_lo, a_hi, p, slope)))
