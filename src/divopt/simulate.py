"""Monte Carlo evaluation of dividend strategies on the controlled process.

Paths are driven event by event: premium and reward streams between events
are discounted in closed form, so the only discretization in a simulated
path is the strategy's own grid.  Between claims a policy table moves a
path along the flow the solver's policy evaluation reads
(hjb2d.policy_flow): lump to the chain anchor, then one diagonal cell
at a time from no-pay node to no-pay node, each cell ending with the lump
at its drift target, and past the outer edges the unit-slope extension the
solver's value assumes.  The dividends of that drift come from a
potential: phi = hjb2d.drift_inverse of the flow's discounted per-cell
payouts, the solver's own drift inverse, so phi[r] is what drifting on
from no-pay node r forever pays, and c cells from r pay
phi[r] - e^{-q*delta*c} * phi[r_c], r_c the node c cells on.  Base-8
lifting tables of nodes over the per-cell flow (pointer jumping), built
once per policy table and shared by every run, find r_c for digit*8^k
cells at once, so a claim round takes its whole cells by the base-8
digits of their count, and a path riding the boundary (drift up, lump
back) is just a loop in the flow.  A path carries its flat grid index and
its discount factor from round to round, and the lump to its anchor comes
from a per-node table.  A path runs until a claim ruins it or tail_stop
ends the run after a claim round.  A round has no horizon in it, so a run
stopped after R rounds is, path for path, the first R rounds of any
longer run on the same stream.

All draws use a counter-based Philox generator keyed by a
np.random.SeedSequence.  Each claim round draws the inter-arrival times,
then the claim sizes, of the paths still live, in ascending path order,
so the numbers a path draws depend on which other paths are still live;
a run is reproducible from its stream alone.  A run takes child 0 of the
stream it is given, and the commands give each start point a child of its
own, so the points of one run are independent.

Two strategies ship: a grid policy table and pay-everything (TakeAndRun).
simulate_policy runs any other strategy that provides the same runner
method as PolicyTable, which is how the tests drive their reference
strategies through the same stop rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import ClaimLaw, ModelParams, SurplusPoint, validate_params
from .hjb2d import drift_doubling, drift_inverse, policy_flow
from .solver2d import _PREF_OF_MASK, PolicyField

__all__ = [
    "PolicyTable",
    "TakeAndRun",
    "SimResult",
    "simulate_policy",
    "estimate_gap",
]

RNG_ALGORITHM = "philox4x64/seedsequence-spawn"
TAIL_REL = 0.05  # tail_stop's share of the standard error at which a run stops


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
        """The policy's flow (hjb2d.policy_flow), its anchor ranks as
        np.intp, which numpy gathers with no conversion; built on first use
        and shared by every run."""
        g = self.policy.grid
        flow = policy_flow(_PREF_OF_MASK[self.policy.actions & 7], (g.dx1, g.dx2))
        return flow._replace(anchor=flow.anchor.astype(np.intp))

    @cached_property
    def nodes(self):
        """The runner's tables of the flow, built on first use and shared by
        every run: each grid node's lump payout down to its anchor, then
        each no-pay node's coordinates x1 and x2."""
        g = self.policy.grid
        nopay, anchor, _, _ = self.flow
        node_n, node_m = np.divmod(nopay, g.shape[1])
        n, m = np.divmod(np.arange(anchor.size), g.shape[1])
        lump = (n - node_n[anchor]) * g.dx1 + (m - node_m[anchor]) * g.dx2
        return lump, node_n * g.dx1, node_m * g.dx2

    @cached_property
    def lifts(self):
        """The base-8 lifting tables of the flow (see _lift_level), built
        level by level as the runs need them and shared by every run."""
        return []

    def runner(self, params, law, x0: SurplusPoint):
        """run(n_paths, seed, rel) -> (values, final times, ruined, rounds,
        tail) of this table's paths from x0, stopped by tail_stop at rel;
        seed is anything np.random.Philox takes."""
        g = self.policy.grid
        if x0.x1 > g.x1_max + 1e-9 or x0.x2 > g.x2_max + 1e-9:
            raise ValueError("initial surplus outside the solved grid")
        _, anchor, succ, paid = self.flow
        lump, node_x1, node_x2 = self.nodes
        levels = self.lifts
        m_pts = g.shape[1]
        dx1, dx2, delta = g.dx1, g.dx2, g.delta
        c1, c2, b1, b2 = params.c1, params.c2, params.b1, params.b2
        q, lam = params.q, params.lam
        d_cell = math.exp(-q * delta)
        # the potential: phi[r] is the dividends of drifting on from no-pay
        # node r forever, discounted to r
        phi = drift_inverse(drift_doubling(succ, d_cell), paid * d_cell)
        n0 = int(math.floor(x0.x1 / dx1 + 1e-12))
        m0 = int(math.floor(x0.x2 / dx2 + 1e-12))
        pay0 = (x0.x1 - n0 * dx1) + (x0.x2 - m0 * dx2)

        def run(n_paths, seed, rel):
            rng = np.random.Generator(np.random.Philox(seed))
            vals, t_final = np.empty(n_paths), np.empty(n_paths)
            ruined = np.zeros(n_paths, dtype=bool)
            # state of the live paths only, compacted as paths are ruined:
            # the flat grid index, the time, the dividends so far and e^{-q*t}
            ids = np.arange(n_paths)
            p = np.full(n_paths, n0 * m_pts + m0, dtype=np.intp)
            t = np.zeros(n_paths)
            acc = np.full(n_paths, pay0)
            disc = np.ones(n_paths)
            rounds = 0
            sums = np.zeros(2)  # of the ruined paths' values and of their squares
            while True:
                rounds += 1
                togo = rng.exponential(1.0 / lam, ids.size)
                claim = law.sample(rng, ids.size)
                # instant lump payout down to the chain anchor (none on no-pay nodes)
                r = anchor[p]
                buf = lump[p]
                buf *= disc
                acc += buf
                # the whole cells that end before the claim, and the time s
                # from the last of them to the claim
                np.divide(togo, delta, out=buf)
                np.ceil(buf, out=buf)
                buf -= 1
                np.maximum(buf, 0, out=buf)
                cells = buf.astype(np.intp)
                buf *= delta
                t += togo
                s = np.subtract(togo, buf, out=togo)
                # the whole cells take r to r_c, the node they end on, by the
                # base-8 digits of their count, and pay
                # disc * (phi[r] - e^{-q*delta*cells} * phi[r_c])
                paid_c = phi[r]
                digit, at = np.empty_like(cells), np.empty_like(cells)
                for k in range((int(cells.max()).bit_length() + 2) // 3):
                    np.bitwise_and(cells, 7, out=digit)
                    cells >>= 3
                    np.multiply(digit, succ.size, out=at)
                    at += r
                    _lift_level(levels, k, succ).take(at, out=r, mode="clip")
                np.exp(np.multiply(buf, -q, out=buf), out=buf)
                buf *= phi[r]
                paid_c -= buf
                paid_c *= disc
                acc += paid_c
                del paid_c, digit, at
                # the claim ruins the path or lands it by floor rounding, the
                # excess past the outer edges paid with the remainder
                y1, y2, scratch = node_x1[r], node_x2[r], buf
                y1 += np.multiply(s, c1, out=scratch)
                y1 -= np.multiply(claim, b1, out=scratch)
                y2 += np.multiply(s, c2, out=scratch)
                y2 -= np.multiply(claim, b2, out=scratch)
                broke = (y1 < 0) | (y2 < 0)
                # the landing node, as floats, and the remainder paid there
                n, m, scratch = s, buf, claim
                _floor_index(y1, dx1, g.n_max, n)
                _floor_index(y2, dx2, g.m_max, m)
                y1 -= np.multiply(n, dx1, out=scratch)
                y2 -= np.multiply(m, dx2, out=scratch)
                y1 += y2
                np.copyto(y1, 0.0, where=broke)
                np.exp(np.multiply(t, -q, out=disc), out=disc)
                y1 *= disc
                acc += y1
                # tail_stop's e^{-q*t} * (x1 + x2 + (c1+c2)/q) at the landing node
                np.multiply(n, dx1, out=y2)
                y2 += np.multiply(m, dx2, out=scratch)
                y2 += (c1 + c2) / q
                tail_sum = np.multiply(y2, disc, out=y2).sum(where=~broke)
                n *= m_pts  # the landing node's flat index, as a float
                n += m
                # the round's buffers go before the compaction copies come
                del togo, claim, r, cells, buf, s, m, y1, y2, scratch
                done = np.flatnonzero(broke)
                if done.size:
                    fin = ids[done]
                    vals[fin], t_final[fin], ruined[fin] = acc[done], t[done], True
                    sums += acc[done].sum(), np.square(acc[done]).sum()
                    # one array at a time, so at most one is held twice
                    lands = ~broke
                    ids = ids[lands]
                    t = t[lands]
                    acc = acc[lands]
                    disc = disc[lands]
                    n = n[lands]
                stop, tail = tail_stop(sums + (acc.sum(), np.square(acc).sum()), tail_sum,
                                       n_paths, rel)
                if stop:  # the live paths are cut here, with their dividends so far
                    vals[ids], t_final[ids] = acc, t
                    return vals, t_final, ruined, rounds, tail
                p = n.astype(np.intp)

        return run


def tail_stop(sums, tail_sum, n, rel):
    """(stop, tail) after a claim round of a run of n paths.  tail_sum sums
    e^{-q*t_i} * (x1_i + x2_i + (c1+c2)/q) over the live paths, t_i a path's
    last claim and (x1_i, x2_i) its surplus then, which with (c1+c2)/q bounds
    its later dividends discounted to t_i: tail = tail_sum/n bounds what they
    can still add to the mean.  stop is tail <= rel * max(stderr, 1e-8), the
    stderr of n values (a live path's its dividends so far) with these sums."""
    total, total_sq = sums
    var = max(total_sq - total * total / n, 0.0) / (n - 1) if n > 1 else 0.0
    tail = tail_sum / n
    return tail <= rel * max(math.sqrt(var / n), 1e-8), tail


def _floor_index(y, dx, top, out):
    """min(floor(y/dx + 1e-12), top) into out, as floats."""
    np.divide(y, dx, out=out)
    out += 1e-12
    np.floor(out, out=out)
    np.minimum(out, top, out=out)


def _lift_level(levels, k, succ):
    """Level k of the base-8 lifting tables of the per-cell flow succ,
    appending levels to levels until it is there: for digit j in 0..7 and
    no-pay node r, entry j*N + r (N = succ.size) is the no-pay node j*8^k
    cells on, digit 0 the identity.  The tables are np.intp, which numpy
    gathers with no conversion.  Three levels cover 511 cells.
    """
    while len(levels) <= k:
        if levels:
            # one step of the new level: the last level's digit 7, then its digit 1
            nxt = levels[-1]
            step = nxt[succ.size:2 * succ.size][nxt[7 * succ.size:]]
        else:
            step = succ.astype(np.intp)
        nxts = [np.arange(succ.size, dtype=np.intp)]
        for _ in range(7):
            nxts.append(step[nxts[-1]])
        levels.append(np.concatenate(nxts))
    return levels[k]


@dataclass(frozen=True)
class SimResult:
    mean: float
    stderr: float
    n_paths: int
    # the earliest time at which the stop cut a path (inf if none was cut)
    horizon: float
    seed: int
    rng: str = RNG_ALGORITHM
    # claim rounds, and how the paths ended: ruined by a claim or cut by the stop
    rounds: int = 0
    ruined: int = 0
    horizon_cut: int = 0
    # the stream the run was given: SeedSequence(seed, spawn_key=spawn_key)
    spawn_key: tuple = ()
    # tail_stop's bound at the stop: the most the cut paths could add to the mean
    tail_bound: float = 0.0


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
    seed: int | np.random.SeedSequence,
) -> SimResult:
    """Sample mean and standard error of discounted dividends until ruin.

    seed is a np.random.SeedSequence, or an int read as SeedSequence(seed).
    The run draws from its child 0, the child seed.spawn(1) would give;
    seed itself is left as it was.  The run stops by tail_stop at TAIL_REL.
    Any strategy but TakeAndRun supplies strat.runner(params, law, x0).
    """
    params = validate_params(params)
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    main = np.random.SeedSequence(ss.entropy, spawn_key=(*ss.spawn_key, 0),
                                  pool_size=ss.pool_size)
    if isinstance(strat, TakeAndRun):
        rng = np.random.Generator(np.random.Philox(main))
        tau = rng.exponential(1.0 / params.lam, n_paths)
        vals = x0.x1 + x0.x2 + (params.c1 + params.c2) * (1.0 - np.exp(-params.q * tau)) / params.q
        # everything is paid at once, so the first claim ruins every path
        t_final, ruined, rounds, tail = tau, np.ones(n_paths, dtype=bool), 1, 0.0
    else:
        vals, t_final, ruined, rounds, tail = strat.runner(params, law, x0)(
            n_paths, main, TAIL_REL)
    n_ruined = int(np.count_nonzero(ruined))
    return SimResult(
        mean=float(np.mean(vals)), n_paths=n_paths,
        stderr=float(np.std(vals, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0,
        horizon=float(np.min(t_final, where=~ruined, initial=math.inf)),
        rounds=rounds, ruined=n_ruined, horizon_cut=n_paths - n_ruined, tail_bound=float(tail),
        seed=ss.entropy, spawn_key=tuple(ss.spawn_key),
    )
