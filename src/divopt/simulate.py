"""Monte Carlo evaluation of dividend strategies on the controlled process.

Paths are driven event by event: premium and reward streams between events
are discounted in closed form, so the only discretization in a simulated
path is the strategy's own grid.  Between claims a policy table moves a
path along a fixed flow: lump to the chain anchor, drift the no-pay run
(the uncontrolled drift is linear), lump to the next anchor.  Binary-lifting
jump tables over that anchor graph (pointer jumping) cover 2^j segments at
once, so each claim round costs one log-depth descent per live path, and a
path riding the boundary (drift up, lump back) is just a loop in the graph.

All draws use a counter-based Philox generator and are made in full-size
arrays per claim round, indexed by path, so results are bit-identical for a
given seed whichever paths are still live.

Two strategies ship: a grid policy table and pay-everything (TakeAndRun).
simulate_policy runs any other strategy that provides the same runner
method as PolicyTable, which is how the tests drive their reference
strategies through the same pilot run and horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ClaimLaw, ModelParams, SurplusPoint, validate_params
from .solver2d import PolicyField, policy_flow

__all__ = [
    "PolicyTable",
    "TakeAndRun",
    "SimResult",
    "simulate_policy",
    "estimate_gap",
]

RNG_ALGORITHM = "philox4x64"


@dataclass(frozen=True)
class TakeAndRun:
    """Pay the whole surplus at once, then stream premiums until the first claim."""


@dataclass(frozen=True)
class PolicyTable:
    """Follow the grid policy of a converged solve, with the initial
    rounding payout down to the grid and floor-rounding payouts at claims."""

    policy: PolicyField

    @cached_property
    def flow(self):
        """The policy-flow tables, built on first use and shared by every run."""
        return policy_flow(self.policy)

    def runner(self, params, law, x0: SurplusPoint):
        """run(n_paths, seed, horizon) -> (values, final times, ruined, rounds)
        of this table's paths from x0."""
        g = self.policy.grid
        if x0.x1 > g.x1_max + 1e-9 or x0.x2 > g.x2_max + 1e-9:
            raise ValueError("initial surplus outside the solved grid")
        flow = self.flow
        _, anchor_n, anchor_m, paid, exit_k = flow
        dx1, dx2, delta = g.dx1, g.dx2, g.delta
        c1, c2, b1, b2 = params.c1, params.c2, params.b1, params.b2
        q, lam = params.q, params.lam
        jumps = _AnchorJumps(flow, delta, q)
        n0 = int(math.floor(x0.x1 / dx1 + 1e-12))
        m0 = int(math.floor(x0.x2 / dx2 + 1e-12))
        pay0 = (x0.x1 - n0 * dx1) + (x0.x2 - m0 * dx2)

        def run(n_paths, seed, horizon):
            jumps.cover(horizon)
            rng = np.random.Generator(np.random.Philox(key=seed))
            vals = np.empty(n_paths)
            t_final = np.empty(n_paths)
            ruined = np.zeros(n_paths, dtype=bool)
            # state of the live paths only, compacted as paths finish
            ids = np.arange(n_paths)
            n = np.full(n_paths, n0, dtype=np.int64)
            m = np.full(n_paths, m0, dtype=np.int64)
            t = np.zeros(n_paths)
            acc = np.full(n_paths, pay0)
            rounds = 0
            while ids.size:
                rounds += 1
                # full-size draws indexed by path id: every path sees the same
                # claims whichever other paths are still live
                togo = rng.exponential(1.0 / lam, n_paths)[ids]
                claim = law.sample(rng, n_paths)[ids]
                # instant lump payouts down to the chain anchor (paid is 0 on
                # no-pay nodes, which are their own anchors)
                acc += paid[n, m] * np.exp(-q * t)
                n, m = anchor_n[n, m], anchor_m[n, m]
                # cum: cells drifted this round before the node the round ends
                # at; cells: cum plus the drift run from that node
                cum = np.zeros(ids.size, dtype=np.int64)
                cells = exit_k[n, m]
                go = np.flatnonzero((cells * delta < togo) & (t + cells * delta < horizon))
                if go.size:
                    # the first drift run lands every path on an anchor, the
                    # descent takes the rest of the round's whole segments
                    k, a, gain = jumps.segment(n[go], m[go])
                    gain *= np.exp(-q * (t[go] + delta * k))
                    n[go], m[go], cum[go] = jumps.descend(a, k, gain, t[go], togo[go], horizon)
                    acc[go] += gain
                    cells[go] = cum[go] + exit_k[n[go], m[go]]
                # the next segment ends at or after the claim, or else at or
                # after the horizon, where the path stops with no more payouts
                hit = np.flatnonzero(cells * delta >= togo)
                cut = np.ones(ids.size, dtype=bool)
                cut[hit] = False
                t[cut] += delta * cells[cut]
                s = togo[hit] - delta * cum[hit]
                t[hit] += togo[hit]
                y1 = n[hit] * dx1 + c1 * s - b1 * claim[hit]
                y2 = m[hit] * dx2 + c2 * s - b2 * claim[hit]
                broke = (y1 < 0) | (y2 < 0)
                ok = hit[~broke]
                k1 = np.floor(y1[~broke] / dx1 + 1e-12).astype(np.int64)
                k2 = np.floor(y2[~broke] / dx2 + 1e-12).astype(np.int64)
                rem = (y1[~broke] - k1 * dx1) + (y2[~broke] - k2 * dx2)
                acc[ok] += rem * np.exp(-q * t[ok])
                n[ok], m[ok] = k1, k2
                ruined[ids[hit[broke]]] = True
                keep = np.zeros(ids.size, dtype=bool)
                keep[ok] = t[ok] < horizon
                if not np.all(keep):
                    done = np.flatnonzero(~keep)
                    vals[ids[done]], t_final[ids[done]] = acc[done], t[done]
                    keep = np.flatnonzero(keep)
                    ids, n, m, t, acc = ids[keep], n[keep], m[keep], t[keep], acc[keep]
            return vals, t_final, ruined, rounds

        return run


@dataclass(frozen=True)
class SimResult:
    mean: float
    stderr: float
    n_paths: int
    horizon: float
    seed: int
    rng: str = RNG_ALGORITHM
    # claim rounds of the reported run, and how its paths ended: ruined by
    # a claim or cut at the horizon
    rounds: int = 0
    ruined: int = 0
    horizon_cut: int = 0


def estimate_gap(sim: SimResult, solver_value: float) -> float:
    """(solver_value - sample mean) in standard-error units."""
    if sim.stderr <= 0:
        if abs(solver_value - sim.mean) > 1e-12 * (1 + abs(solver_value)):
            raise ValueError("zero standard error with a mean mismatch")
        return 0.0
    return (solver_value - sim.mean) / sim.stderr


def simulate_policy(
    params: ModelParams,
    law: ClaimLaw,
    strat,
    x0: SurplusPoint,
    n_paths: int,
    seed: int,
) -> SimResult:
    """Sample mean and standard error of discounted dividends until ruin.

    The horizon is picked in a pilot run so the discarded tail is below a
    tenth of the reported standard error (the discounted value beyond T is
    at most e^{-qT} times the global upper bound).  The pilot takes at
    least two paths, so its standard deviation is defined.  Any strategy
    but TakeAndRun supplies its runner as strat.runner(params, law, x0).
    """
    params = validate_params(params)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if isinstance(strat, TakeAndRun):
        rng = np.random.Generator(np.random.Philox(key=seed))
        tau = rng.exponential(1.0 / params.lam, n_paths)
        ctot = params.c1 + params.c2
        vals = x0.x1 + x0.x2 + ctot * (1.0 - np.exp(-params.q * tau)) / params.q
        # everything is paid at once, so the first claim ruins every path
        return _wrap(vals, math.inf, seed, 1, np.ones(n_paths, dtype=bool))
    runner = strat.runner(params, law, x0)
    pilot_n = max(min(max(n_paths // 50, 200), 2000, n_paths), 2)
    pilot_T = math.log(1e4) / params.q
    pilot = runner(pilot_n, seed + 1, pilot_T)[0]
    target = 0.1 * max(np.std(pilot, ddof=1) / math.sqrt(n_paths), 1e-8)
    ub = x0.x1 + x0.x2 + (params.c1 + params.c2) / params.q
    horizon = math.log(max(ub / target, 10.0)) / params.q
    vals, _, ruined, rounds = runner(n_paths, seed, horizon)
    return _wrap(vals, horizon, seed, rounds, ruined)


def _wrap(vals, horizon, seed, rounds, ruined):
    n = len(vals)
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    n_ruined = int(np.count_nonzero(ruined))
    return SimResult(
        mean=float(np.mean(vals)), stderr=stderr, n_paths=n, horizon=horizon, seed=seed,
        rounds=rounds, ruined=n_ruined, horizon_cut=n - n_ruined,
    )


class _AnchorJumps:
    """Binary-lifting tables over the anchor graph of a policy flow.

    The anchors are the no-pay nodes where the lump chains at the end of
    no-pay runs come to rest.  From anchor a the flow drifts exit_k cells,
    then lumps to the next anchor; level j holds, for 2^j such segments,
    the anchor reached (nxt), the cells drifted (dur) and the dividends
    discounted to the start (pay).  Levels are added until the shortest 2^j
    span reaches the horizon, so a greedy descent over them finds any
    number of segments a claim round can take.  The tables have one row per
    anchor, never one per grid node.
    """

    def __init__(self, flow, delta, q):
        self.flow, self.delta, self.q = flow, delta, q
        self.cols = flow.pref.shape[1]
        self.nodes = np.unique(self._run_end(*np.nonzero(flow.pref == 0))[1])
        self.an, self.am = np.divmod(self.nodes, self.cols)
        k, nxt, paid = self.segment(self.an, self.am)
        self.levels = [(nxt, k, paid * np.exp(-q * delta * k))]

    def _run_end(self, n, m):
        """From no-pay nodes (n, m): the cells of the drift run, the flat
        index of the anchor the lump at its end reaches, and its dividend."""
        f = self.flow
        k = f.exit_k[n, m]
        en, em = n + k, m + k
        return k, f.anchor_n[en, em] * self.cols + f.anchor_m[en, em], f.paid[en, em]

    def segment(self, n, m):
        """As _run_end, with the anchor as an index into the tables."""
        k, node, paid = self._run_end(n, m)
        return k, np.searchsorted(self.nodes, node), paid

    def cover(self, horizon):
        """Add levels until the shortest span of the top one reaches horizon."""
        while self.levels[-1][1].min() * self.delta < horizon:
            nxt, dur, pay = self.levels[-1]
            self.levels.append(
                (nxt[nxt], dur + dur[nxt], pay + np.exp(-self.q * self.delta * dur) * pay[nxt])
            )

    def descend(self, a, cum, gain, t0, togo, horizon):
        """From anchors a, reached after cum cells since the round start at
        t0, take the most whole segments that end before both the claim,
        togo from t0, and the horizon.  Adds their dividends, discounted to
        time 0, to gain; returns the anchor nodes reached and the cells."""
        # the top level spans the horizon from every anchor: it is never taken
        for nxt, dur, pay in reversed(self.levels[:-1]):
            span = cum + dur[a]
            end = span * self.delta
            take = np.flatnonzero((end < togo) & (t0 + end < horizon))
            at = a[take]
            gain[take] += pay[at] * np.exp(-self.q * (t0[take] + self.delta * cum[take]))
            cum[take] = span[take]
            a[take] = nxt[at]
        return self.an[a], self.am[a], cum
