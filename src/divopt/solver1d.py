"""One-dimensional dividend problems with reward rate and payout multiplier.

Covers the on-ray auxiliary problem (premium c2, claims b2*U, reward for
staying alive, dividends amplified by both branches paying together), the
merged-company problem (pooled premiums, full claims), and the generic
constant-reward case.  The scheme is the 2D one on one axis: grid step
c*delta, lump/no-pay/stop actions, exact claim-cell kernel, and the same
fixed-point loop (hjb2d.fixed_point: coarse-to-fine policy iteration to
the grid fixed point), with a lump paying rho*dx and the reward for
staying alive folded into the claim field.  The solve supplies that loop
the Scheme of the grid of step 2^k*delta (hjb2d.build_scheme on one
axis); the bands come from the argmax sets that fixed_point returns with
the fixed point, and the solution is its SolveReport with the problem,
grid, values and band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hjb2d import SolveReport, build_scheme, claim_cells, fixed_point
from .model import ClaimLaw, ModelParams, validate_params

__all__ = [
    "OneDimProblem",
    "BandStructure",
    "WbarSolution",
    "TruncationError",
    "make_auxiliary_problem",
    "solve_1d",
    "tilde_V_eval",
    "merger_compare",
]

class TruncationError(RuntimeError):
    """The band did not close with a lump region before the truncation."""


@dataclass(frozen=True)
class OneDimProblem:
    """Surplus drifts at rate c, claims enter as b*U, dividends pay rho per
    unit of surplus released, and a reward accrues at rate rho*kappa until
    ruin."""

    c: float
    b: float
    law: ClaimLaw
    lam: float
    q: float
    kappa: float = 0.0
    rho: float = 1.0

    def __post_init__(self):
        if self.c <= 0 or self.b <= 0:
            raise ValueError("premium c and claim scale b must be positive")
        if self.rho < 1.0:
            raise ValueError("payout multiplier rho must be >= 1")
        if self.kappa < 0.0:
            raise ValueError("reward rate kappa must be >= 0")
        if self.lam <= 0 or self.q <= 0:
            raise ValueError("lam and q must be positive")


@dataclass
class BandStructure:
    """Sorted breakpoints splitting [0, x_max] into labeled intervals."""

    breakpoints: list
    intervals: list  # (lo, hi, label) with label in {"A", "B", "C"}
    a_points: list

    def label_at(self, x):
        for lo, hi, lab in self.intervals:
            if lo <= x <= hi:
                return lab
        raise ValueError("x outside the solved range")


@dataclass(kw_only=True)
class WbarSolution(SolveReport):
    """A 1D solve's SolveReport, with its problem, grid, values and band."""

    problem: OneDimProblem
    delta: float
    dx: float
    values: np.ndarray
    band: BandStructure

    @property
    def rho(self):
        return self.problem.rho

    @property
    def x_max(self):
        return (len(self.values) - 1) * self.dx

    def extend(self, x: float) -> float:
        """Floor-plus-remainder extension; the remainder pays rho per unit."""
        if x < 0:
            raise ValueError("surplus must be nonnegative")
        n = int(math.floor(x / self.dx + 1e-12))
        n_max = len(self.values) - 1
        base = self.values[min(n, n_max)] + max(n - n_max, 0) * self.rho * self.dx
        return base + self.rho * (x - n * self.dx)


def make_auxiliary_problem(params: ModelParams, law: ClaimLaw, kind: str) -> OneDimProblem:
    """Build the on-ray problem ('wbar') or the merged-company one ('merger').

    For a merger the caller shifts the initial surplus by x1 + x2 - m_cost.
    """
    params = validate_params(params)
    if kind == "wbar":
        ratio = params.b1 / params.b2
        kappa = (params.c1 - ratio * params.c2) / (1.0 + ratio)
        return OneDimProblem(
            c=params.c2, b=params.b2, law=law, lam=params.lam, q=params.q,
            kappa=kappa, rho=1.0 + ratio,
        )
    if kind == "merger":
        return OneDimProblem(
            c=params.c1 + params.c2, b=1.0, law=law, lam=params.lam, q=params.q,
            kappa=0.0, rho=1.0,
        )
    raise ValueError("kind must be 'wbar' or 'merger'")


def _scheme(prob: OneDimProblem, delta: float, n_pts: int):
    """The Scheme of prob on n_pts nodes of step c*delta: the 2D cells on one
    axis, claim-instant and lump payouts scaled by rho, and the reward
    accrued over the step added to the claim field's constant."""
    beta = prob.lam + prob.q
    dx = prob.c * delta
    kw, kp = claim_cells(prob.law, prob.lam, prob.q, delta, (dx,), (prob.b,), prob.c, (n_pts,))
    scheme = build_scheme(kw, prob.rho * kp, (n_pts,), math.exp(-beta * delta), (prob.rho * dx,))
    scheme.const[...] += prob.rho * prob.kappa * (1.0 - scheme.disc) / beta
    return scheme


def solve_1d(
    prob: OneDimProblem,
    delta: float,
    x_max: float,
) -> WbarSolution:
    """The 1D grid fixed point, solved by hjb2d.fixed_point, and its band.
    Raises TruncationError when the final interval before x_max is not a
    lump region (the truncation cut through the band).
    """
    if delta <= 0 or x_max <= 0:
        raise ValueError("delta and x_max must be positive")
    dx = prob.c * delta
    n_max = int(round(x_max / dx))
    if n_max < 4:
        raise ValueError("truncation too coarse: fewer than 5 grid nodes")
    w, (is_c, is_b), _, report = fixed_point(
        lambda scale, shape: _scheme(prob, delta * scale, shape[0]), (n_max + 1,))
    return WbarSolution(**vars(report), problem=prob, delta=delta, dx=dx, values=w,
                        band=_extract_band(is_b, is_c, dx))


def _extract_band(is_b, is_c, dx):
    n_pts = len(is_b)
    labels = np.where(is_b & is_c, "A", np.where(is_b, "B", "C"))
    # runs of equal labels: node i starts a run where its label changes
    starts = [0] + (np.flatnonzero(labels[1:] != labels[:-1]) + 1).tolist()
    breakpoints = [(i - 0.5) * dx for i in starts[1:]]
    intervals = [
        (lo, hi, str(labels[i]))
        for i, lo, hi in zip(starts, [0.0] + breakpoints, breakpoints + [(n_pts - 1) * dx])
    ]
    if intervals[-1][2] != "B":
        raise TruncationError(
            "no-pay region extends to the truncation; increase x_max"
        )
    a_points = [0.5 * (lo + hi) for lo, hi, lab in intervals if lab == "A"]
    # a lump region anchored at the origin pays premiums out at 0
    if intervals[0][2] == "B" or (len(intervals) > 1 and intervals[0][2] == "A"):
        a_points.append(0.0)
    # each no-pay interval ends at a barrier, where the surplus accumulates
    # (never at the truncation: the last interval is a lump interval)
    a_points += [hi for lo, hi, lab in intervals if lab == "C"]
    return BandStructure(
        breakpoints=breakpoints, intervals=intervals, a_points=sorted(set(a_points))
    )


def tilde_V_eval(wbar: WbarSolution, params: ModelParams, x1: float, x2: float) -> float:
    """Reflection value: project to the proportional ray, then the 1D value.

    Below or on the ray, branch 1 pays the horizontal distance; above it,
    branch 2 pays the vertical distance.  The projection must lie within
    the solved 1D range.
    """
    if x1 < 0 or x2 < 0:
        raise ValueError("surplus coordinates must be nonnegative")
    ratio21 = params.b2 / params.b1
    if ratio21 * x1 >= x2:  # D1 or on the ray
        proj = x2
        offset = x1 - (params.b1 / params.b2) * x2
    else:
        proj = ratio21 * x1
        offset = x2 - ratio21 * x1
    if proj > wbar.x_max + 1e-9:
        raise ValueError("projection outside the solved 1D range")
    return offset + wbar.extend(proj)


def merger_compare(
    params: ModelParams,
    law: ClaimLaw,
    m_cost: float,
    samples,
    v2d,
    merger: WbarSolution = None,
    delta: float = None,
    x_max: float = None,
):
    """Tabulate merged-company vs two-branch values at the given surpluses.

    Returns rows (x1, x2, v_merger - (x1+x2), v_2d - (x1+x2)); the merger
    entry is None when x1 + x2 < m_cost.  Values are the floor extensions
    of the respective solves.
    """
    if m_cost < 0:
        raise ValueError("merger cost must be >= 0")
    if merger is None:
        prob = make_auxiliary_problem(params, law, "merger")
        if delta is None:
            delta = v2d.grid.delta / 4.0
        if x_max is None:
            x_max = v2d.grid.x1_max + v2d.grid.x2_max + 1.0
        merger = solve_1d(prob, delta, x_max)
    rows = []
    for x1, x2 in samples:
        s = x1 + x2 - m_cost
        base = x1 + x2
        vm = merger.extend(s) - base if s >= 0 else None
        rows.append((x1, x2, vm, v2d.extend(x1, x2) - base))
    return rows, merger
