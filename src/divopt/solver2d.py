"""The grid fixed point by coarse-to-fine policy iteration, policy and region maps.

solve hands hjb2d.fixed_point, the solve both solvers share, the Scheme
of the claim kernel (build_claim_kernel) of the grid of step 2^k*delta
and a given shape, the whole grid's or a crop's.  Its loop solves the
coarsest grid from zero and seeds each finer one, on a crop around the
coarser grid's no-pay box first, with the exact value of the coarser
grid's final policy; policy iteration, each greedy policy's value solved
exactly on its no-pay nodes, then ends every grid at its fixed point.
Every iterate is the value of an admissible grid strategy, so the
sequence increases pointwise to the smallest fixed point.  Strict Jacobi
value iteration from zero is the test suite's reference
(tests/oracles.py).  fixed_point also returns the tie sets of its last
greedy step (hjb2d.greedy_step), which solve wraps in its PolicyField, and
the SolveReport; greedy_policy takes the same step.  The artifact writers
build their lines with numpy, the values through an exact integer %.17g
(_g17), byte for byte what per-node f-strings would write.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .hjb2d import (
    Action,
    ClaimKernel,
    NonConvergenceError,
    SolveReport,
    ValueField,
    build_claim_kernel,
    claim_field,
    fixed_point,
    greedy_step,
    ray_integral,
)
from .model import ClaimLaw, GridSpec, ModelParams, region_of, validate_params

__all__ = [
    "PolicyField",
    "RegionMap",
    "SolveReport",
    "NonConvergenceError",
    "solve",
    "greedy_policy",
    "extract_regions",
    "check_D1_identity",
    "check_tilde_suboptimality",
    "write_value_csv",
    "write_policy_csv",
    "write_summary_json",
    "write_region_data",
    "LABEL_NAMES",
    "ARGMAX_NAMES",
]

LABEL_C, LABEL_B1, LABEL_B2, LABEL_B0, LABEL_A1, LABEL_A2, LABEL_A0 = range(7)
LABEL_NAMES = dict(enumerate(("C", "B1", "B2", "B0", "A1", "A2", "A0")))
# region label and preferred action (0 no-pay, 1 or 2 the branch to lump,
# lumps before no-pay) of each E0|E1|E2 bitmask
_LABEL_OF_MASK = np.array(
    [LABEL_C, LABEL_C, LABEL_B1, LABEL_A1, LABEL_B2, LABEL_A2, LABEL_B0, LABEL_A0], dtype=np.int8
)
_PREF_OF_MASK = np.array([0, 0, 1, 1, 2, 2, 1, 1], dtype=np.int8)
# policy.csv argmax column for each E0|E1|E2 bitmask, e.g. 5 -> "E0+E2"
ARGMAX_NAMES = tuple(
    "+".join(a.name for a in (Action.E0, Action.E1, Action.E2) if mask & a)
    for mask in range(8)
)


@dataclass
class PolicyField:
    """Per-node argmax sets, packed as an Action bitmask table."""

    grid: GridSpec
    actions: np.ndarray
    eps_tie: float

    def __post_init__(self):
        a = self.actions
        if a.shape != self.grid.shape:
            raise ValueError("actions shape does not match grid")
        if np.any(a == 0):
            raise ValueError("every grid point needs a nonempty argmax set")
        if np.any(a[0, :] & Action.E1):
            raise ValueError("E1 cannot be optimal at n = 0")
        if np.any(a[:, 0] & Action.E2):
            raise ValueError("E2 cannot be optimal at m = 0")


@dataclass
class RegionMap:
    """Region labels derived from the argmax sets, plus derived geometry."""

    grid: GridSpec
    labels: np.ndarray
    a0_points: list
    component_counts: dict
    slope_runs: list = field(default_factory=list)


def solve(
    params: ModelParams,
    law: ClaimLaw,
    grid: GridSpec,
    kernel: ClaimKernel = None,
):
    """The grid fixed point and its policy, solved by hjb2d.fixed_point on
    the claim kernel of each grid and crop (kernel, if given, is grid's).
    Returns (ValueField, PolicyField, SolveReport).
    """
    params = validate_params(params)
    if kernel is None:
        kernel = build_claim_kernel(params, law, grid)

    def level(scale, shape):
        if (scale, shape) == (1, grid.shape):
            return _scheme(kernel)
        g = GridSpec(grid.delta * scale, grid.dx1 * scale, grid.dx2 * scale,
                     shape[0] - 1, shape[1] - 1)
        # build_claim_kernel resolves in this module at each call, as in _scheme
        return _scheme(build_claim_kernel(params, law, g))

    v, ties, eps, report = fixed_point(level, grid.shape)
    return ValueField(grid, v), PolicyField(grid, ties, eps), report


def greedy_policy(kernel: ClaimKernel, v: ValueField):
    """The greedy policy of a value table for the reading commands, by the
    solve's greedy step with no previous policy (hjb2d.greedy_step):
    (PolicyField, residual), the tie sets of T0, T1, T2 at v and |sup over
    interior nodes of max(T0, T1, T2) - v|, zero at any fixed point (lump
    ties included); validate requires it within RESIDUAL_REL * (1 + sup v)."""
    prev = np.full(v.values.shape, -1, dtype=np.int8)
    ties, eps, resid = greedy_step(_scheme(kernel), v.values, prev, np.empty_like(prev),
                                   np.empty_like(v.values), np.empty_like(v.values))
    return PolicyField(v.grid, ties, eps), resid


def _scheme(kernel: ClaimKernel):
    """The kernel's Scheme, its claim field taken through claim_field, which
    resolves in this module at each call, where tracers wrap it."""
    return kernel.scheme._replace(claim=lambda u: claim_field(kernel, u))


_CORNERS = [(i, j) for i in (np.s_[:-1], np.s_[1:]) for j in (np.s_[:-1], np.s_[1:])]


def _opened(mask):
    """The union of the 2x2 squares inside mask: its morphological opening
    with a 2x2 square."""
    fits = np.logical_and.reduce([mask[c] for c in _CORNERS])
    out = np.zeros_like(mask)
    for c in _CORNERS:
        out[c] |= fits
    return out


def _label(mask):
    """The 8-connected components of a 2D mask: (labels, k), labels 1..k
    numbered in raster order of each component's first node and 0 off the
    mask, as ndimage.label numbers them with a 3x3 box.

    Union-find over the runs of each row: a run joins the runs of the next
    row that overlap it or touch it at a corner.  Each round hooks the
    larger root of every edge still joining two trees onto the smaller one,
    then compresses the paths, so every run ends on its component's first
    run in raster order.
    """
    cols = mask.shape[1]
    edges = np.diff(np.pad(mask, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    row, start = np.nonzero(edges == 1)  # the runs in raster order
    stop = np.nonzero(edges == -1)[1]  # one past each run's last node
    # run [s, e) of row r meets each run [s', e') of row r + 1 with s' <= e
    # and e' >= s; the keys row * width + column are sorted along the runs
    width = cols + 1
    lo = np.searchsorted(row * width + stop, (row + 1) * width + start)
    hi = np.searchsorted(row * width + start, (row + 1) * width + stop, side="right")
    meets = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(row.size), meets)
    b = np.arange(a.size) - np.repeat(np.cumsum(meets) - meets - lo, meets)
    root = np.arange(row.size)
    while a.size:
        ra, rb = root[a], root[b]
        split = ra != rb
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        while not np.array_equal(root, hop := root[root]):
            root = hop
    first = root == np.arange(row.size)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(np.cumsum(first, dtype=np.int32)[root], stop - start)
    return labels, int(np.count_nonzero(first))


def _lens_tips(labels, nopay, grid):
    """Corner point of each no-pay component where both lump regions meet;
    nopay is the labelling of the no-pay mask (_label).

    The no-pay region ends, going up-right, at the point toward which the
    boundary-riding strategy drives the surplus; at grid level it is the
    far tip of a C component whose neighborhood contains both single-branch
    lump labels.  Returns the centroid of the cells in the last few columns
    of each qualifying component.
    """
    pts = []
    comp, k = nopay
    for idx in range(1, k + 1):
        ns, ms = np.nonzero(comp == idx)
        if ns.size < 3:
            continue
        n_hi = ns.max()
        sel = ns >= n_hi - 2
        tip_n, tip_m = ns[sel], ms[sel]
        lo_n = max(0, tip_n.min() - 3)
        hi_n = min(labels.shape[0], tip_n.max() + 4)
        lo_m = max(0, tip_m.min() - 3)
        hi_m = min(labels.shape[1], tip_m.max() + 4)
        patch = labels[lo_n:hi_n, lo_m:hi_m]
        has_b1 = np.any((patch == LABEL_B1) | (patch == LABEL_A1) | (patch == LABEL_A0))
        has_b2 = np.any((patch == LABEL_B2) | (patch == LABEL_A2) | (patch == LABEL_A0))
        if has_b1 and has_b2:
            pts.append((float(tip_n.mean() * grid.dx1), float(tip_m.mean() * grid.dx2)))
    return pts


def extract_regions(policy: PolicyField, v: ValueField) -> RegionMap:
    """Label each node, count label components, and locate corner points.

    Labels follow the argmax sets directly.  The isolated premium-paying
    points of the continuous problem (no-pay and both lump directions
    optimal at once) are recovered geometrically: the up-right tip of each
    no-pay component flanked by both lump regions, plus the origin when a
    both-pay region starts there.  Exact three-way argmax ties, when
    present, are reported as their own cluster centroids.
    """
    grid = policy.grid
    labels = _LABEL_OF_MASK[policy.actions & 7]

    # components per label after an opening with a 2x2 square: region
    # boundaries sit exactly where two operators tie, so single-cell
    # filaments of either label flip with the tie noise
    counts = {name: _label(_opened(labels == code))[1] for code, name in LABEL_NAMES.items()}

    nopay = _label(labels == LABEL_C)
    a0_points = _lens_tips(labels, nopay, grid)
    tie_lab, tie_k = _label(labels == LABEL_A0)
    for idx in range(1, tie_k + 1):
        ns, ms = np.nonzero(tie_lab == idx)
        cand = (float(ns.mean() * grid.dx1), float(ms.mean() * grid.dx2))
        if not any(
            abs(cand[0] - p[0]) <= 4 * grid.dx1 and abs(cand[1] - p[1]) <= 4 * grid.dx2
            for p in a0_points
        ):
            a0_points.append(cand)

    r = 3
    origin_patch = labels[: r + 1, : r + 1]
    if np.any((origin_patch == LABEL_B0) | (origin_patch == LABEL_A0)):
        if not any(abs(p[0]) < 3 * grid.dx1 and abs(p[1]) < 3 * grid.dx2 for p in a0_points):
            a0_points.insert(0, (0.0, 0.0))
    a0_points.sort()

    return RegionMap(
        grid=grid,
        labels=labels,
        a0_points=a0_points,
        component_counts=counts,
        slope_runs=_slope_runs(nopay, grid),
    )


def _slope_runs(nopay, grid):
    """Maximal straight runs of the lower boundary of the largest no-pay
    component, nopay the labelling of the no-pay mask (_label), with one
    diagonal step per column (slope dx2/dx1 = c2/c1 in surplus units)."""
    comp, k = nopay
    if k == 0:
        return []
    sizes = np.bincount(comp.ravel())[1:]
    main = int(np.argmax(sizes)) + 1
    mask = comp == main
    cols = np.nonzero(mask.any(axis=1))[0]
    # lowest no-pay cell of each column; a run is a stretch of adjacent
    # columns whose lowest cell rises by one each
    diag = (np.diff(np.argmax(mask[cols], axis=1)) == 1) & (np.diff(cols) == 1)
    edges = np.diff(np.concatenate(([0], diag.astype(np.int8), [0])))
    x1 = cols * grid.dx1
    return [
        (float(x1[i]), float(x1[j]), float((cols[j] - cols[i]) * grid.dx1))
        for i, j in zip(np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0])
    ]


def c_region_inside_d2(region: RegionMap, params: ModelParams) -> bool:
    """True if the no-pay region sits inside D2 at grid resolution.

    Requires a nonempty set of C nodes strictly above the proportional ray
    and no C node deeper below it than the grid jitter band (two cells);
    the continuous no-pay region touches the ray only along its boundary.
    """
    g = region.grid
    ns, ms = np.nonzero(region.labels == LABEL_C)
    if ns.size == 0:
        return False
    ratio = params.b2 / params.b1
    depth = ratio * ns * g.dx1 - ms * g.dx2
    has_d2 = np.any(depth < 0)
    no_deep_d1 = np.all(depth <= 2 * (g.dx1 + g.dx2))
    return bool(has_d2 and no_deep_d1)


def check_D1_identity(
    v: ValueField, params: ModelParams, n_samples: int = 100, seed: int = 0
) -> float:
    """Max deviation of the deep-branch-1 reduction over sampled points.

    For surpluses below the proportional ray the value must equal the
    immediate branch-1 payout down to the ray plus the on-ray value; the
    grid solution satisfies this to O(dx1 + dx2).
    """
    g = v.grid
    rng = np.random.default_rng(seed)
    ratio = params.b1 / params.b2
    worst = 0.0
    count = 0
    while count < n_samples:
        x1 = rng.uniform(0.1 * g.x1_max, 0.95 * g.x1_max)
        x2_cap = min((params.b2 / params.b1) * x1 * 0.98, 0.95 * g.x2_max)
        if x2_cap <= 0:
            continue
        x2 = rng.uniform(0.0, x2_cap)
        if region_of(params, x1, x2) != "D1":
            continue
        proj = ratio * x2
        dev = abs(v.extend(x1, x2) - (x1 - proj + v.extend(proj, x2)))
        worst = max(worst, dev)
        count += 1
    return worst


def check_tilde_suboptimality(params: ModelParams, law: ClaimLaw, wbar):
    """Probe the ray-reflection value for a positive generator residual.

    In the strict premium regime, if the 1D no-pay set is nonempty the
    reflection construction fails the HJB equation just above the ray;
    returns {'witness': ((x1, x2), L-value)} in plain floats with a positive
    residual, or {'applicable': False, ...} when the 1D no-pay set is empty
    (pay everything immediately is optimal along the ray).  Rejects
    symmetric parameter sets, where the reflection value is genuinely
    optimal.
    """
    if params.is_symmetric:
        raise ValueError("reflection strategy is optimal in the symmetric case")
    # the origin node can never carry a lump label, so a no-pay interval
    # must span more than a couple of cells to count as genuinely nonempty
    c_intervals = [
        iv for iv in wbar.band.intervals if iv[2] == "C" and iv[1] - iv[0] > 2 * wbar.dx
    ]
    if not c_intervals:
        formula = lambda x2: (params.b1 / params.b2 + 1.0) * x2 + (
            params.c1 + params.c2
        ) / (params.lam + params.q)
        xs = np.linspace(0.0, 0.8 * wbar.x_max, 9)
        dev = max(abs(wbar.extend(x) - formula(x)) / max(1.0, formula(x)) for x in xs)
        return {"applicable": False, "linear_value_deviation": dev}

    lo, hi, _ = max(c_intervals, key=lambda iv: iv[1] - iv[0])
    best = None
    for frac in np.linspace(0.25, 0.75, 4):
        x2_0 = lo + frac * (hi - lo)
        x1_0 = (params.b1 / params.b2) * x2_0
        for steps in (2, 4, 8):
            x2 = x2_0 + steps * wbar.dx
            lval = _tilde_L(params, law, wbar, x1_0, x2)
            if best is None or lval > best[1]:
                best = ((float(x1_0), float(x2)), float(lval))
        if best is not None and best[1] > 0:
            return {"applicable": True, "witness": best}
    return {"applicable": True, "witness": best}


def _tilde_L(params, law, wbar, x1, x2):
    """Generator residual of the reflection value at (x1, x2) above the ray."""
    ratio = params.b2 / params.b1
    z0 = ratio * x1
    if not z0 < x2:
        raise ValueError("probe point must lie strictly above the ray")
    u0 = x2 - z0 + wbar.extend(z0)
    k = int(math.floor(z0 / wbar.dx))
    wprime = (wbar.values[min(k + 1, len(wbar.values) - 1)] - wbar.values[k]) / wbar.dx
    d1 = -ratio + ratio * wprime
    d2 = 1.0
    ub = x1 / params.b1
    shift = x2 - z0
    integral = shift * float(law.cdf(ub)) + ray_integral(
        wbar.values, (z0,), (params.b2,), (wbar.dx,), (wbar.rho,), ub, law
    )
    return (
        params.c1 * d1
        + params.c2 * d2
        - (params.q + params.lam) * u0
        + params.lam * integral
    )


# The artifact writers build their lines with numpy, about _BLOCK nodes at a
# time, from byte columns; the files are byte for byte what the per-node
# f-strings f"{n},{m},{x1:.17g},{x2:.17g},{v:.17g}\n",
# f"{n},{m},{label},{argmax}\n" and f"{x1:.6f} {x2:.6f} {code}\n" give.
_BLOCK = 1 << 13


def _texts(strings, width=None):
    """The strings as the rows of a uint8 array, NUL-padded to one width."""
    a = np.array([s.encode() for s in strings], dtype=f"S{width}" if width else bytes)
    return a.view(np.uint8).reshape(a.size, -1)


def _write_lines(path, head, shape, line, tail=b""):
    """Write head, then one line per node of a grid of this shape in raster
    order, and tail after each grid row.  line(rows), for a slice of grid
    rows, gives the byte columns of their lines: uint8 arrays, (rows, 1, w)
    per row, (1, cols, w) per column or (rows, cols, w) per node, joined in
    order with their NUL bytes dropped."""
    n, m = shape
    step = max(1, _BLOCK // m)
    with open(path, "wb") as fh:
        fh.write(head)
        for lo in range(0, n, step):
            rows = slice(lo, min(lo + step, n))
            r = rows.stop - lo
            cols = [np.broadcast_to(c, (r, m, c.shape[-1])) for c in line(rows)]
            block = np.concatenate(cols, axis=2).reshape(r, -1)
            if tail:
                block = np.concatenate([block, _texts([tail.decode()] * r)], axis=1)
            flat = block.ravel()
            fh.write(flat[flat != 0])


@functools.cache
def _g17_tables():
    """The read-only tables of _g17, built at first use: '%04d' % c for
    c < 10^4 as little-endian 4-byte words, and word 10^4 the point
    (NUL NUL NUL '.'); the trailing zeros of each; per (k + 4) * 21 + t, the
    word masks keeping the bytes of a value of decade k whose 20-digit
    fraction ends in t zeros; and 5^p for p < 23."""
    digits = np.minimum(np.arange(10_001), 9999)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    words = (digits + 48).astype(np.uint8)
    words[-1] = 0, 0, 0, ord(".")
    tz = np.cumprod(digits[:, ::-1] == 0, axis=1).sum(axis=1)
    k, t, j = np.ogrid[-4:15, 0:21, 0:20]
    kept = np.stack([(j >= 15 - np.maximum(k, 0)) & (j < 20 - (t == 20)),
                     (j >= 4 + k) & (j < 20 - t)], axis=2)
    masks = (kept * np.uint8(255)).view("<u4").reshape(19 * 21, 10).T.copy()
    tables = words.view("<u4").ravel(), tz, masks, 5 ** np.arange(23, dtype=np.uint64)
    for a in tables:
        a.flags.writeable = False
    return tables


def _scaled(m, e, k, pow5):
    """(floor, round half to even) of m * 2^e * 10^p, p = 16 - k, exactly,
    for m < 2^53 and 1 <= -(e + p) <= 63: the product m * 5^p is taken in
    two 64-bit words from 32-bit limbs, then shifted right by -(e + p)."""
    p = 16 - k
    s = (-(e + p)).astype(np.uint64)
    f = pow5[p]
    m1, m0, f1, f0 = m >> 32, m & 0xFFFFFFFF, f >> 32, f & 0xFFFFFFFF
    lo = m0 * f0
    mid = m1 * f0 + m0 * f1 + (lo >> 32)
    lo = (lo & 0xFFFFFFFF) | (mid << 32)
    q = ((m1 * f1 + (mid >> 32)) << (64 - s)) | (lo >> s)
    rem, half = lo & ((1 << s) - 1), 1 << (s - 1)
    return q, q + ((rem > half) | ((rem == half) & (q & 1 == 1)))


def _g17(x):
    """f"{v:.17g}" for each v of x: an array of x.shape + (w,) uint8, each
    value's text its bytes that are not NUL, w at most 40.

    A finite v in [1e-4, 1e15) prints in fixed notation, exactly (Steele &
    White, PLDI 1990): with v = m * 2^e and k = floor(log10 v), its 17
    significant digits are d = round(v * 10^(16 - k)), half to even, taken
    in integers (_scaled).  Bytes 0-15 hold the integer part d // 10^(16 - k)
    and bytes 20-39 the fraction, its 16 - k digits right-aligned, both in
    4-digit words; byte 19 holds the point, and a mask drops the integer
    part's leading zeros, the padding and the fraction's trailing zeros (the
    point too if no digit is left).  Every other value goes through Python.
    """
    shape, x = x.shape, np.asarray(x, dtype=float).ravel()
    fast = (x >= 1e-4) & (x < 1e15)
    v, slow = np.where(fast, x, 1.0), np.flatnonzero(~fast)
    words, tz4, masks, pow5 = _g17_tables()
    frac, e = np.frexp(v)
    m, e = (frac * 2.0**53).astype(np.uint64), e.astype(np.int64) - 53
    k = np.floor(np.log10(v)).astype(np.int64)
    q, d = _scaled(m, e, k, pow5)
    off = np.flatnonzero((q < 10**16) | (q >= 10**17))  # log10 missed the decade
    k[off] += np.where(q[off] >= 10**17, 1, -1)
    q[off], d[off] = _scaled(m[off], e[off], k[off], pow5)
    # d < 10^17 without a carry: the largest double below each power of ten
    # from 1e-4 to 1e15 lies more than 8 units of d below it
    # the table entries of the ten words: the integer part in 0-3, the point
    # in 4, and the fraction, right-aligned in 20 digits, in 5-9
    whole, part = np.divmod(d, 10 ** (16 - k).astype(np.uint64))
    g = np.empty((10, v.size), np.int64)
    g[4] = 10_000
    g[5], part = np.divmod(part, 10**16)
    for at, val in ((0, whole), (6, part)):
        hi, lo = np.divmod(val, 10**8)
        np.divmod(hi, 10**4, out=(g[at], g[at + 1]))
        np.divmod(lo, 10**4, out=(g[at + 2], g[at + 3]))
    tz = tz4[g[9]]  # the fraction's trailing zeros, from its last word back
    for i in (8, 7, 6, 5):
        tz += (tz == 4 * (9 - i)) * tz4[g[i]]
    text = np.take(words, g)
    text &= np.take(masks, (k + 4) * 21 + tz, axis=1)
    if not slow.size:  # only the 4-byte words some value uses
        return text[text.any(axis=1)].T.copy().view(np.uint8).reshape(*shape, -1)
    text = text.T.copy().view(np.uint8)
    text[slow] = _texts([f"{val:.17g}" for val in x[slow].tolist()], 40)
    return text.reshape(*shape, 40)


def write_value_csv(path, v: ValueField):
    g = v.grid
    ns, ms = (_texts([f"{i}," for i in range(s)]) for s in g.shape)
    x1s = _texts([f"{n * g.dx1:.17g}," for n in range(g.n_max + 1)])
    x2s = _texts([f"{m * g.dx2:.17g}," for m in range(g.m_max + 1)])
    newline = _texts(["\n"])[None]
    _write_lines(path, b"n,m,x1,x2,v\n", g.shape, lambda rows: (
        ns[rows, None], ms[None], x1s[rows, None], x2s[None],
        _g17(v.values[rows]), newline))


def write_policy_csv(path, policy: PolicyField, region: RegionMap):
    g = policy.grid
    ns, ms = (_texts([f"{i}," for i in range(s)]) for s in g.shape)
    # one "label,argmax" line end per (label, E0|E1|E2 bitmask)
    ends = _texts([f"{LABEL_NAMES[lab]},{name}\n" for lab in LABEL_NAMES for name in ARGMAX_NAMES])
    _write_lines(path, b"n,m,label,argmax\n", g.shape, lambda rows: (
        ns[rows, None], ms[None],
        np.take(ends, 8 * region.labels[rows].astype(np.intp) + (policy.actions[rows] & 7), axis=0)))


def write_summary_json(path, region: RegionMap, report: SolveReport):
    payload = {
        "a0_points": [list(p) for p in region.a0_points],
        "b0_components": region.component_counts.get("B0", 0),
        "component_counts": region.component_counts,
        "residual_max": report.residual_max,
        "iterations": report.iterations,
        "disc_error_est": report.disc_error_est,
        "policies": report.policies,
        "gmres_matvecs": report.gmres_matvecs,
        "gmres_residual": report.gmres_residual,
        "final_sup_increment": report.final_sup_increment,
        "slope_runs": region.slope_runs,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_region_data(path, region: RegionMap, recipe_path=None):
    """Gnuplot-ready map: x1 x2 label_code, blank line per grid column."""
    g = region.grid
    x1s = _texts([f"{n * g.dx1:.6f} " for n in range(g.n_max + 1)])
    x2s = _texts([f"{m * g.dx2:.6f} " for m in range(g.m_max + 1)])
    codes = _texts([f"{code}\n" for code in LABEL_NAMES])
    _write_lines(path, b"# x1 x2 label (0=C 1=B1 2=B2 3=B0 4=A1 5=A2 6=A0)\n", g.shape,
                 lambda rows: (x1s[rows, None], x2s[None], np.take(codes, region.labels[rows], axis=0)),
                 tail=b"\n")
    if recipe_path:
        with open(recipe_path, "w") as fh:
            fh.write(
                "set view map\n"
                "set palette maxcolors 7\n"
                "set cbrange [-0.5:6.5]\n"
                f"splot '{path}' using 1:2:3 with points pt 5 ps 0.4 palette\n"
            )
