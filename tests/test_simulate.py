import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divopt.hjb2d import Action, build_claim_kernel, drift_doubling, drift_inverse
from divopt.model import (
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    SurplusPoint,
    validate_params,
)
from divopt import solver1d, solver2d
from divopt.simulate import (
    PolicyTable,
    SimResult,
    TakeAndRun,
    _lift_level,
    estimate_gap,
    simulate_policy,
)

from oracles import MReflection, policy_flow_reference, policy_runner_reference

PARAMS = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
LAW = Exponential(0.6)


@pytest.fixture(scope="module")
def small_policy():
    # the truncation clears the band (top near x2 = 6.4), so no no-pay node
    # lies on an outer edge and the segment-walk reference, which turns
    # such nodes into lumps, follows the same strategy as the runner
    grid = GridSpec.make(PARAMS, delta=0.1, x1_max=9, x2_max=9)
    v, policy, report = solver2d.solve(PARAMS, LAW, grid)
    return grid, v, policy


@pytest.fixture(scope="module")
def edge_policy():
    # the truncation cuts the band: no-pay nodes on the top edge drift
    # along it, the excess paid out as the solver's unit-slope extension
    grid = GridSpec.make(PARAMS, delta=0.1, x1_max=9, x2_max=5)
    v, policy, report = solver2d.solve(PARAMS, LAW, grid)
    return grid, v, policy


class TestEstimateGap:
    def test_exact_match(self):
        sim = SimResult(mean=5.0, stderr=0.1, n_paths=100, horizon=10.0, seed=1)
        assert estimate_gap(sim, 5.0) == 0.0

    def test_two_sigma(self):
        sim = SimResult(mean=5.0, stderr=0.1, n_paths=100, horizon=10.0, seed=1)
        assert estimate_gap(sim, 5.2) == pytest.approx(2.0)

    def test_zero_stderr_mismatch_raises(self):
        sim = SimResult(mean=5.0, stderr=0.0, n_paths=1, horizon=10.0, seed=1)
        with pytest.raises(ValueError):
            estimate_gap(sim, 6.0)
        assert estimate_gap(sim, 5.0) == 0.0


class TestTakeAndRun:
    def test_matches_closed_form(self):
        x0 = SurplusPoint(3.0, 5.0)
        res = simulate_policy(PARAMS, LAW, TakeAndRun(), x0, 40_000, seed=7)
        target = 3 + 5 + (PARAMS.c1 + PARAMS.c2) / (PARAMS.q + PARAMS.lam)
        assert abs(estimate_gap(res, target)) <= 3.0

    def test_huge_intensity_immediate_ruin_limit(self):
        p = ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1e6, q=0.05)
        x0 = SurplusPoint(2.0, 3.0)
        res = simulate_policy(p, Deterministic(100.0), TakeAndRun(), x0, 5_000, seed=3)
        assert res.mean == pytest.approx(5.0, abs=1e-3)

    def test_reproducible(self):
        x0 = SurplusPoint(1.0, 2.0)
        a = simulate_policy(PARAMS, LAW, TakeAndRun(), x0, 1000, seed=42)
        b = simulate_policy(PARAMS, LAW, TakeAndRun(), x0, 1000, seed=42)
        assert a == b

    def test_zero_paths_rejected(self):
        with pytest.raises(ValueError):
            simulate_policy(PARAMS, LAW, TakeAndRun(), SurplusPoint(1, 1), 0, seed=1)


class TestPolicyTable:
    def test_cross_check_against_solver(self, small_policy):
        grid, v, policy = small_policy
        n, m = 20, 30
        x0 = SurplusPoint(n * grid.dx1, m * grid.dx2)
        res = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 30_000, seed=9)
        assert abs(estimate_gap(res, v.values[n, m])) <= 3.0

    def test_cross_check_with_no_pay_edge(self, edge_policy):
        grid, v, policy = edge_policy
        pref = solver2d._PREF_OF_MASK[policy.actions & 7]
        edge = np.flatnonzero(pref[:, grid.m_max] == 0)
        assert edge.size == 7
        for n, m in [(20, 30), (edge[3], grid.m_max)]:
            x0 = SurplusPoint(n * grid.dx1, m * grid.dx2)
            res = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 30_000, seed=9)
            assert abs(estimate_gap(res, v.values[n, m])) <= 3.0

    def test_initial_rounding_payout(self, small_policy):
        grid, v, policy = small_policy
        # off-grid start: the immediate payout equals both remainders, so
        # the sample mean estimates the continuous extension
        x0 = SurplusPoint(20.3 * grid.dx1, 30.7 * grid.dx2)
        res = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 30_000, seed=9)
        assert abs(estimate_gap(res, v.extend(x0.x1, x0.x2))) <= 3.0

    def test_matches_segment_walk_reference(self, small_policy):
        # the per-cell jump runner against the one-segment-at-a-time walk
        # with the same draws, from a node deep in the no-pay region and
        # from nodes in the branch-1 and branch-2 lump regions
        grid, v, policy = small_policy
        pref = solver2d._PREF_OF_MASK[policy.actions & 7]
        assert np.all(pref[grid.n_max, :] != 0) and np.all(pref[:, grid.m_max] != 0)
        flow = policy_flow_reference(policy)
        strat = PolicyTable(policy)
        inside = np.unravel_index(np.argmax(np.where(flow.pref == 0, flow.exit_k, 0)),
                                  grid.shape)
        starts = [inside, (20, 30), (5, 80)]
        assert [flow.pref[s] for s in starts] == [0, 1, 2]
        assert flow.exit_k[inside] > 1
        for n, m in starts:
            x0 = SurplusPoint(n * grid.dx1, m * grid.dx2)
            out = strat.runner(PARAMS, LAW, x0)(2000, 17, 0.05)
            assert out[3] > 1 and 0 < np.count_nonzero(~out[2]) < 2000
            _assert_matches_reference(PARAMS, LAW, strat, x0, 2000, 17, out)

    @settings(max_examples=60, deadline=None)
    @given(b1=st.floats(0.2, 0.8), c2=st.floats(0.5, 2.0), tilt=st.floats(1.01, 3.0),
           lam=st.floats(0.05, 3.0), q=st.floats(0.02, 0.3),
           law=st.sampled_from([Exponential(0.6), Erlang2(1.5), Deterministic(1.3)]),
           delta=st.floats(0.02, 0.5), n_max=st.integers(2, 9), m_max=st.integers(2, 9),
           no_pay=st.floats(0.0, 0.9), start=st.tuples(st.floats(0, 1), st.floats(0, 1)),
           rel=st.floats(-4.0, 0.0).map(lambda e: 10.0 ** e),
           seed=st.integers(0, 2**32 - 1))
    # long claim gaps: rounds of 64 cells and more, three base-8 digits
    # and up, on paths some of whose counts have fewer
    @example(b1=0.5, c2=1.0, tilt=1.5, lam=0.1, q=0.05, law=Exponential(0.6), delta=0.05,
             n_max=9, m_max=9, no_pay=0.5, start=(0.5, 0.5), rel=1e-3, seed=0)
    def test_matches_segment_walk_on_random_policies(self, b1, c2, tilt, lam, q, law, delta,
                                                     n_max, m_max, no_pay, start, rel, seed):
        # any policy the solver could return, with no no-pay node on an
        # outer edge (where the segment walk lumps instead of drifting), any
        # model, grid and start: the same draws give the same paths
        params = validate_params(ModelParams(c1=tilt * c2 * b1 / (1 - b1), c2=c2, b1=b1,
                                             b2=1 - b1, lam=lam, q=q))
        grid = GridSpec.make(params, delta=delta, x1_max=n_max * params.c1 * delta,
                             x2_max=m_max * params.c2 * delta)
        assert (grid.n_max, grid.m_max) == (n_max, m_max)
        rng = np.random.default_rng(seed)
        acts = np.where(rng.random(grid.shape) < no_pay, Action.E0,
                        rng.integers(2, 8, grid.shape)).astype(np.uint8)
        acts[0, :] &= ~np.uint8(Action.E1)
        acts[:, 0] &= ~np.uint8(Action.E2)
        acts[acts == 0] = Action.E0
        for edge in (acts[n_max, :], acts[1:, m_max]):
            edge[edge == Action.E0] = Action.E1
        if acts[0, m_max] == Action.E0:
            acts[0, m_max] = Action.E2
        strat = PolicyTable(solver2d.PolicyField(grid, acts, eps_tie=0.0))
        x0 = SurplusPoint(start[0] * grid.x1_max, start[1] * grid.x2_max)
        out = strat.runner(params, law, x0)(200, seed, rel)
        assert out[3] >= 1
        _assert_matches_reference(params, law, strat, x0, 200, seed, out)

    def test_stop_is_a_prefix_of_longer_runs(self, small_policy):
        # a round has no horizon in it, so a run stopped early is path for
        # path the first rounds of a longer run on the same stream: the
        # ruined paths end alike, no value falls, and the mean rises by at
        # most the tail bound of the shorter run
        grid, v, policy = small_policy
        run = PolicyTable(policy).runner(PARAMS, LAW, SurplusPoint(2.0, 3.0))
        vals, t_final, ruined, rounds, tail = run(3000, 8, 0.05)
        long_vals, long_t, long_ruined, long_rounds, long_tail = run(3000, 8, 1e-6)
        assert long_rounds > rounds and long_tail < tail
        assert np.all(long_ruined[ruined]) and np.any(long_ruined[~ruined])
        np.testing.assert_array_equal(long_vals[ruined], vals[ruined])
        np.testing.assert_array_equal(long_t[ruined], t_final[ruined])
        assert np.all(long_vals >= vals) and np.all(long_t >= t_final)
        assert 0 < long_vals.mean() - vals.mean() <= tail

    @pytest.mark.parametrize("policy_name", ["small_policy", "edge_policy"])
    def test_lifting_tables_match_stepping(self, policy_name, request):
        # the base-8 digits of c taken from the tables send every no-pay
        # node r to the node r_c of c single cells, at the edges of each
        # digit, and the potential's difference phi[r] - d^c * phi[r_c] is
        # the dividends of those cells discounted to their start, up to the
        # potential's rounding where the cells pay nothing
        grid, v, policy = request.getfixturevalue(policy_name)
        nopay, anchor, succ, paid = PolicyTable(policy).flow
        assert anchor.dtype == np.intp
        d_cell = math.exp(-PARAMS.q * grid.delta)
        phi = drift_inverse(drift_doubling(succ, d_cell), paid * d_cell)
        levels = []
        for c in (0, 1, 3, 4, 7, 8, 15, 16, 17, 63, 64, 255, 256, 511, 512, 1000):
            r = np.arange(succ.size)
            for k in range(4):
                nxt = _lift_level(levels, k, succ)
                assert nxt.dtype == np.intp and nxt.size == 8 * succ.size
                r = nxt[(c >> 3 * k) % 8 * succ.size + r]
            r_ref, acc_ref, disc_ref = np.arange(succ.size), np.zeros(succ.size), 1.0
            for _ in range(c):
                disc_ref *= d_cell
                acc_ref += paid[r_ref] * disc_ref
                r_ref = succ[r_ref]
            np.testing.assert_array_equal(r, r_ref)
            np.testing.assert_allclose(phi - math.exp(-PARAMS.q * grid.delta * c) * phi[r],
                                       acc_ref, rtol=1e-12, atol=1e-13 * phi.max())
        assert len(levels) == 4

    def test_lifting_tables_built_once_per_table(self, small_policy):
        # one list of levels per table, whatever the discount of the run
        grid, v, policy = small_policy
        table = PolicyTable(policy)
        simulate_policy(PARAMS, LAW, table, SurplusPoint(2.0, 3.0), 500, seed=1)
        levels = table.lifts
        built = [id(level) for level in levels]
        simulate_policy(validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.1)),
                        LAW, table, SurplusPoint(4.0, 1.0), 500, seed=2)
        assert built and table.lifts is levels
        assert [id(level) for level in levels[:len(built)]] == built

    def test_diagnostics_count_every_path(self, small_policy):
        grid, v, policy = small_policy
        res = simulate_policy(PARAMS, LAW, PolicyTable(policy), SurplusPoint(2.0, 3.0),
                              3000, seed=4)
        assert res.rounds > 1
        assert res.ruined > 0 and res.horizon_cut > 0
        assert res.ruined + res.horizon_cut == res.n_paths
        tr = simulate_policy(PARAMS, LAW, TakeAndRun(), SurplusPoint(2.0, 3.0), 100, seed=4)
        assert (tr.rounds, tr.ruined, tr.horizon_cut) == (1, 100, 0)

    def test_reproducible_bit_identical(self, small_policy):
        grid, v, policy = small_policy
        x0 = SurplusPoint(1.0, 2.0)
        a = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 2000, seed=5)
        b = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 2000, seed=5)
        assert a == b

    def test_take_and_run_dominated(self, small_policy):
        grid, v, policy = small_policy
        x0 = SurplusPoint(2.0, 3.0)
        tr = simulate_policy(PARAMS, LAW, TakeAndRun(), x0, 20_000, seed=13)
        pol = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 20_000, seed=14)
        assert tr.mean <= pol.mean + 3.0 * (tr.stderr + pol.stderr)

    def test_start_outside_grid_rejected(self, small_policy):
        grid, v, policy = small_policy
        with pytest.raises(ValueError):
            simulate_policy(PARAMS, LAW, PolicyTable(policy),
                            SurplusPoint(100.0, 1.0), 10, seed=1)

    def test_single_path_run_ends(self, small_policy):
        # one path has no standard error: the run stops on the 1e-8 floor
        grid, v, policy = small_policy
        res = simulate_policy(PARAMS, LAW, PolicyTable(policy),
                              SurplusPoint(2.0, 3.0), 1, seed=4)
        assert res.n_paths == res.ruined + res.horizon_cut == 1 and res.stderr == 0.0
        assert res.tail_bound <= 0.05 * 1e-8

    def test_tail_bound_within_budget(self, small_policy):
        # the run's own running standard error is the reported one, up to
        # the rounding of the sum of squares against np.std
        grid, v, policy = small_policy
        res = simulate_policy(PARAMS, LAW, PolicyTable(policy),
                              SurplusPoint(1.0, 1.0), 5000, seed=2)
        assert res.horizon_cut > 0 and 0 < res.horizon < math.inf
        assert 0 < res.tail_bound <= 0.05 * res.stderr * (1 + 1e-9)


def _assert_matches_reference(params, law, strat, x0, n_paths, seed, out):
    """The runner's output out against the segment walk run for as many
    rounds with the same draws: values and every final time within 1e-9,
    ruined exact, and the tail bound recomputed from the walk's live paths."""
    vals, t_final, ruined, rounds, tail = out
    ref_vals, ref_t, ref_ruined, n, m = policy_runner_reference(params, law, strat, x0)(
        n_paths, seed, rounds)
    np.testing.assert_allclose(vals, ref_vals, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(ruined, ref_ruined)
    np.testing.assert_allclose(t_final, ref_t, rtol=0, atol=1e-9)
    g, live = strat.policy.grid, ~ref_ruined
    ref_tail = np.sum(np.exp(-params.q * ref_t[live])
                      * (n[live] * g.dx1 + m[live] * g.dx2 + (params.c1 + params.c2) / params.q))
    assert tail == pytest.approx(ref_tail / n_paths, rel=1e-9)


class TestMReflection:
    def test_matches_reflection_value_symmetric(self):
        # in the symmetric regime the reflection strategy is optimal, and
        # its simulated value must match the 1D construction
        sym = validate_params(
            ModelParams(c1=21.4, c2=21.4, b1=0.5, b2=0.5, lam=10, q=0.1)
        )
        law = Erlang2(0.5)
        wbar = solver1d.solve_1d(
            solver1d.make_auxiliary_problem(sym, law, "wbar"), delta=0.002, x_max=40.0
        )
        for x0 in (SurplusPoint(5.0, 8.0), SurplusPoint(12.0, 4.0)):
            res = simulate_policy(sym, law, MReflection(wbar), x0, 20_000, seed=21)
            target = solver1d.tilde_V_eval(wbar, sym, x0.x1, x0.x2)
            assert abs(estimate_gap(res, target)) <= 3.5

    def test_strict_case_runs_and_is_dominated(self, small_policy):
        grid, v, policy = small_policy
        wbar = solver1d.solve_1d(
            solver1d.make_auxiliary_problem(PARAMS, LAW, "wbar"), delta=0.01, x_max=25.0
        )
        x0 = SurplusPoint(2.0, 3.0)
        refl = simulate_policy(PARAMS, LAW, MReflection(wbar), x0, 20_000, seed=33)
        pol = simulate_policy(PARAMS, LAW, PolicyTable(policy), x0, 20_000, seed=34)
        assert refl.rounds > 1 and refl.ruined + refl.horizon_cut == refl.n_paths
        assert refl.mean <= pol.mean + 3.0 * (refl.stderr + pol.stderr)
