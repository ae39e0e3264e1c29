import math
from unittest import mock

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divopt import hjb2d
from divopt.hjb2d import (
    DirectCorrelation,
    FFTCorrelation,
    NonConvergenceError,
    claim_cells,
    ray_integral,
)
from divopt.model import Deterministic, Erlang2, Exponential, ModelParams, validate_params
from divopt import solver1d
from divopt.solver1d import (
    OneDimProblem,
    TruncationError,
    make_auxiliary_problem,
    merger_compare,
    solve_1d,
    tilde_V_eval,
)
from oracles import brute_force_t_slices_1d, extract_band_reference, sweep_reference

EX1 = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
SYM = validate_params(ModelParams(c1=21.4, c2=21.4, b1=0.5, b2=0.5, lam=10, q=0.1))


class TestMakeAuxiliary:
    def test_symmetric_reward_vanishes(self):
        prob = make_auxiliary_problem(SYM, Erlang2(0.5), "wbar")
        assert prob.kappa == pytest.approx(0.0)
        assert prob.rho == pytest.approx(2.0)
        assert prob.c == pytest.approx(21.4)
        assert prob.b == pytest.approx(0.5)

    def test_example1_reward(self):
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "wbar")
        assert prob.kappa == pytest.approx(0.5)
        assert prob.rho == pytest.approx(2.0)

    def test_merger_problem(self):
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "merger")
        assert (prob.c, prob.b, prob.kappa, prob.rho) == (3.0, 1.0, 0.0, 1.0)

    def test_bad_merger_cost(self):
        with pytest.raises(ValueError, match="merger cost"):
            merger_compare(EX1, Exponential(0.6), -1.0, [(1.0, 1.0)], v2d=None)

    def test_problem_invariants(self):
        with pytest.raises(ValueError):
            OneDimProblem(c=1.0, b=0.5, law=Exponential(1), lam=1, q=0.1, rho=0.5)
        with pytest.raises(ValueError):
            OneDimProblem(c=1.0, b=0.5, law=Exponential(1), lam=1, q=0.1, kappa=-0.1)


class TestClaimField1d:
    # h = dx/b = 0.25 puts every atom's floor-crossing time on a boundary of
    # the oracle's t-slices, so the midpoint rule is exact across the jump
    @pytest.mark.parametrize("law, reach", [
        (Exponential(0.6), None),
        (Erlang2(6 / 7), None),
        (Deterministic(4.35), 18),
        (Deterministic(0.35), 2),  # short reach: a wrongly sized FFT wraps
    ])
    def test_matches_t_slice_oracle(self, law, reach):
        # the claim field of the solve's scheme, and its constant beside both
        # correlation paths.  The constant carries the reward accrued until
        # the claim or the step's end, rho*kappa * int_0^delta e^(-(lam+q)t) dt
        prob = OneDimProblem(c=1.5, b=0.6, law=law, lam=1, q=0.05, kappa=0.3, rho=1.7)
        delta, n_pts = 0.1, 41
        scheme = solver1d._scheme(prob, delta, n_pts)
        beta = prob.lam + prob.q
        reward = prob.rho * prob.kappa * (1.0 - math.exp(-beta * delta)) / beta
        kw, _ = claim_cells(law, prob.lam, prob.q, delta, (prob.c * delta,), (prob.b,), prob.c,
                            (n_pts,))
        reach = n_pts - 1 if reach is None else reach
        fft = FFTCorrelation(kw, (n_pts,))
        assert fft.fshape == (sfft.next_fast_len(n_pts + reach),)
        rng = np.random.default_rng(5)
        values = np.cumsum(rng.uniform(0.0, 0.6, n_pts))
        ref = [brute_force_t_slices_1d(prob, delta, values, n, nt=3000) + reward
               for n in range(n_pts)]
        for field in (scheme.claim(values), DirectCorrelation(kw)(values) + scheme.const,
                      fft(values) + scheme.const):
            np.testing.assert_allclose(field, ref, rtol=1e-6, atol=1e-12)


class TestSweep:
    @settings(max_examples=60, deadline=None)
    @given(
        n_pts=st.integers(1, 20_000),
        d=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_pts=20_000, d=math.exp(-0.06), scale=1.0, seed=0)
    @example(n_pts=20_000, d=math.exp(-0.06), scale=30.0, seed=1)
    def test_matches_node_loop(self, n_pts, d, scale, seed):
        rng = np.random.default_rng(seed)
        a = np.cumsum(rng.uniform(0.0, 1.0, n_pts)) * scale
        c = rng.uniform(-1.0, 1.0, n_pts) * scale
        dx = rng.uniform(0.0, 2.0) * scale
        got_c = c.copy()
        y = hjb2d._sweep(a.copy(), got_c, d, (dx,), np.empty(n_pts))
        ref = sweep_reference(a.copy(), c, d, (dx,))
        # the table as it was before the sweep, in place of the claim field
        assert np.array_equal(got_c, a) and np.array_equal(c, a)
        assert np.all(np.isfinite(y))
        assert np.all(y >= a)
        # the node loop adds dx once per node of a lump chain, so its own
        # rounding error grows with the chain's length
        atol = max(1e-12, np.finfo(float).eps * n_pts) * (1.0 + np.abs(y).max())
        np.testing.assert_allclose(y, ref, rtol=0, atol=atol)

    def test_solve_with_node_loop_sweep(self, monkeypatch):
        # the same cascade (401 nodes down to 26) with the sweep run node by node
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "wbar")
        sol = solve_1d(prob, delta=0.05, x_max=20.0)
        monkeypatch.setattr(hjb2d, "_sweep",
                            lambda v, cf, disc, dxs, work: sweep_reference(v, cf, disc, dxs))
        ref = solve_1d(prob, delta=0.05, x_max=20.0)
        assert [lv["shape"] for lv in sol.levels] == [[26], [51], [101], [201], [401]]
        assert sol.iterations == ref.iterations
        assert sol.band.intervals == ref.band.intervals
        assert sol.band.a_points == ref.band.a_points
        np.testing.assert_allclose(sol.values, ref.values, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n_max=st.integers(15, 400), kind=st.sampled_from(["wbar", "merger"]))
    @example(n_max=38, kind="wbar")  # one coarser grid, of 20 nodes
    def test_cascade_matches_single_grid_solve(self, n_max, kind):
        prob = make_auxiliary_problem(EX1, Exponential(0.6), kind)
        delta = 12.0 / (prob.c * n_max)
        sol = solve_1d(prob, delta, 12.0)
        with mock.patch.object(hjb2d, "_MIN_LEVEL_NODES", math.inf):
            alone = solve_1d(prob, delta, 12.0)
        assert len(sol.values) == n_max + 1 and len(alone.levels) == 1
        assert (sol.disc_error_est is None) == (n_max < 38)
        top = 1.0 + alone.values.max()
        np.testing.assert_allclose(sol.values, alone.values, rtol=0, atol=1e-12 * top)
        assert sol.band.intervals == alone.band.intervals
        assert sol.residual_max <= 1e-12 * top
        assert np.all(np.diff(sol.values) >= sol.rho * sol.dx - 1e-10)


class TestSolve1d:
    def test_take_the_money_regime_linear_value(self):
        # heavy discounting empties the no-pay set; the value is the
        # pay-everything closed form rho*x + rho*(c + kappa)/(lam + q)
        p = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=5.0))
        prob = make_auxiliary_problem(p, Exponential(0.6), "wbar")
        sol = solve_1d(prob, delta=0.001, x_max=8.0)
        assert all(lab == "B" for _, _, lab in sol.band.intervals[1:])
        for x in (0.0, 1.0, 3.7, 6.0):
            expect = 2.0 * x + (p.c1 + p.c2) / (p.lam + p.q)
            # the grid strategy streams premiums with a one-step delay, so
            # the discrete value sits O(q*delta) below the closed form
            assert sol.extend(x) == pytest.approx(expect, rel=5e-3)

    def test_rho_scaling_doubles_value(self):
        base = OneDimProblem(c=1.0, b=0.5, law=Exponential(0.6), lam=1, q=0.05,
                             kappa=0.5, rho=1.0)
        doubled = OneDimProblem(c=1.0, b=0.5, law=Exponential(0.6), lam=1, q=0.05,
                                kappa=0.5, rho=2.0)
        s1 = solve_1d(base, delta=0.02, x_max=20.0)
        s2 = solve_1d(doubled, delta=0.02, x_max=20.0)
        assert np.allclose(s2.values, 2.0 * s1.values, rtol=0, atol=1e-7)

    def test_monotone_iterates_and_bounds(self):
        # fixed_point raises if a policy value falls below its iterate
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "wbar")
        sol = solve_1d(prob, delta=0.01, x_max=20.0)
        xs = np.arange(len(sol.values)) * sol.dx
        # lump residual <= 0: increments of at least rho per grid step
        assert np.all(np.diff(sol.values) >= sol.rho * sol.dx - 1e-10)
        upper = sol.rho * xs + sol.rho * (prob.c + prob.kappa) / prob.q
        assert np.all(sol.values <= upper + 1e-9)
        assert sol.residual_max <= hjb2d.RESIDUAL_REL * (1.0 + sol.values.max())

    def test_band_terminal_is_lump(self):
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "wbar")
        sol = solve_1d(prob, delta=0.01, x_max=20.0)
        assert sol.band.intervals[-1][2] == "B"
        assert len(sol.band.a_points) >= 1

    def test_truncation_too_small_raises(self):
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "wbar")
        with pytest.raises(TruncationError):
            solve_1d(prob, delta=0.01, x_max=2.0)

    def test_policy_cap_raises(self, monkeypatch):
        # 1201 nodes coarsen five times, to 38, where the cascade starts
        monkeypatch.setattr(hjb2d, "_POLICY_CAP", 1)
        prob = make_auxiliary_problem(EX1, Exponential(0.6), "wbar")
        with pytest.raises(NonConvergenceError, match="on the 38-node grid"):
            solve_1d(prob, delta=0.01, x_max=12.0)

    def test_symmetric_band_breakpoints(self):
        prob = make_auxiliary_problem(SYM, Erlang2(0.5), "wbar")
        sol = solve_1d(prob, delta=0.002, x_max=40.0)
        cs = [iv for iv in sol.band.intervals if iv[2] == "C" and iv[1] - iv[0] > 1.0]
        assert len(cs) == 1
        lo, hi, _ = cs[0]
        assert lo == pytest.approx(1.803, abs=0.05)
        assert hi == pytest.approx(10.22, abs=0.05)


class TestBandExtraction:
    @settings(max_examples=200, deadline=None)
    @given(runs=st.lists(st.tuples(st.booleans(), st.booleans(), st.integers(1, 30)),
                         min_size=1, max_size=12),
           dx=st.floats(1e-3, 1.0))
    def test_matches_node_walk(self, runs, dx):
        is_b = np.repeat([b for b, _, _ in runs], [k for _, _, k in runs])
        is_c = np.repeat([c for _, c, _ in runs], [k for _, _, k in runs])
        try:
            ref = extract_band_reference(is_b, is_c, dx)
        except TruncationError:
            with pytest.raises(TruncationError):
                solver1d._extract_band(is_b, is_c, dx)
            return
        band = solver1d._extract_band(is_b, is_c, dx)
        assert band.intervals == ref.intervals
        assert band.breakpoints == ref.breakpoints
        assert band.a_points == ref.a_points


@pytest.fixture(scope="module")
def wbar():
    return solve_1d(make_auxiliary_problem(EX1, Exponential(0.6), "wbar"),
                    delta=0.005, x_max=25.0)


class TestTildeV:

    def test_on_ray_equals_wbar(self, wbar):
        x2 = 3.0
        x1 = (EX1.b1 / EX1.b2) * x2
        assert tilde_V_eval(wbar, EX1, x1, x2) == pytest.approx(wbar.extend(x2))

    def test_on_axis(self, wbar):
        assert tilde_V_eval(wbar, EX1, 4.0, 0.0) == pytest.approx(4.0 + wbar.values[0])

    def test_projection_out_of_range_rejected(self, wbar):
        with pytest.raises(ValueError):
            tilde_V_eval(wbar, EX1, 100.0, 300.0)

    @pytest.mark.filterwarnings("ignore::UserWarning", "ignore:The occurrence of roundoff")
    def test_ray_integral_matches_quadrature(self, wbar):
        from scipy.integrate import quad
        for got, integrand, ub, points in (_one_axis_ray(wbar), _two_axis_ray()):
            ref, _ = quad(integrand, 0.0, ub, limit=400, epsabs=1e-12, points=points)
            assert got == pytest.approx(ref, rel=1e-6)


def _one_axis_ray(wbar):
    """A 1D solution's extension along z0 - b*u, exponential claims."""
    law = Exponential(0.6)
    z0, b, ub = 4.0, 0.5, 6.0
    got = ray_integral(wbar.values, (z0,), (b,), (wbar.dx,), (wbar.rho,), ub, law)
    return (
        got,
        lambda u: wbar.extend(z0 - b * u) * law.rate * math.exp(-law.rate * u),
        ub,
        [(z0 - k * wbar.dx) / b for k in range(0, int(z0 / wbar.dx), 50)],
    )


def _two_axis_ray():
    """A solved 2D field along (x1 - b1*u, x2 - b2*u), b1 != b2, Erlang-2 claims."""
    from divopt import solver2d
    from divopt.model import GridSpec
    params = validate_params(ModelParams(c1=2, c2=1, b1=0.6, b2=0.4, lam=1, q=0.05))
    law = Erlang2(0.857)
    v, _, _ = solver2d.solve(params, law, GridSpec.make(params, delta=0.1, x1_max=6, x2_max=6))
    # just above the proportional ray, where the floor crossings of both axes
    # move the integrand
    (x1, x2), bs, dxs = (3.05, 2.15), (params.b1, params.b2), (v.grid.dx1, v.grid.dx2)
    ub = min(x1 / bs[0], x2 / bs[1])
    got = ray_integral(v.values, (x1, x2), bs, dxs, (1.0, 1.0), ub, law)
    return (
        got,
        lambda u: (v.extend(x1 - bs[0] * u, x2 - bs[1] * u)
                   * law.rate**2 * u * math.exp(-law.rate * u)),
        ub,
        sorted((x - k * dx) / b for x, b, dx in zip((x1, x2), bs, dxs)
               for k in range(int(x / dx) + 1) if 0 < (x - k * dx) / b < ub),
    )


class TestMergerCompare:
    def test_zero_cost_dominates_and_below_cost_is_none(self):
        from divopt.model import GridSpec
        from divopt import solver2d
        grid = GridSpec.make(EX1, delta=0.1, x1_max=6, x2_max=6)
        v, p, r = solver2d.solve(EX1, Exponential(0.6), grid)
        samples = [(0.0, 0.0), (1.0, 2.0), (4.0, 3.0)]
        rows, merger = merger_compare(EX1, Exponential(0.6), 0.0, samples, v)
        for x1, x2, vm, vd in rows:
            assert vm is not None
            assert vm >= vd - 1e-6
        rows2, _ = merger_compare(EX1, Exponential(0.6), 1.0, [(0.0, 0.0)], v,
                                  merger=merger)
        assert rows2[0][2] is None
