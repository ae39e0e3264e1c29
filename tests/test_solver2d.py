import functools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divopt import hjb2d
from divopt.hjb2d import (
    Action,
    ValueField,
    build_claim_kernel,
    policy_flow,
)
from divopt.model import (
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    validate_params,
)
from divopt import solver1d, solver2d
from divopt.solver2d import (
    ARGMAX_NAMES,
    LABEL_NAMES,
    NonConvergenceError,
    PolicyField,
    check_D1_identity,
    check_tilde_suboptimality,
    extract_regions,
    greedy_policy,
    solve,
)
from oracles import (
    evaluate_policy_reference,
    label_reference,
    opening_reference,
    policy_flow_reference,
    solve_jacobi,
    sweep_reference,
)

PARAMS = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
LAW = Exponential(0.6)


@pytest.fixture(scope="module")
def small_solve():
    grid = GridSpec.make(PARAMS, delta=0.1, x1_max=6, x2_max=6)
    kernel = build_claim_kernel(PARAMS, LAW, grid)
    v, policy, report = solve(PARAMS, LAW, grid, kernel=kernel)
    return grid, kernel, v, policy, report


class TestSolve:
    def test_bounds_and_increments(self, small_solve):
        grid, kernel, v, policy, report = small_solve
        ns = np.arange(grid.n_max + 1)[:, None] * grid.dx1
        ms = np.arange(grid.m_max + 1)[None, :] * grid.dx2
        assert np.all(v.values >= ns + ms - 1e-12)
        assert np.all(v.values <= ns + ms + (PARAMS.c1 + PARAMS.c2) / PARAMS.q + 1e-9)
        assert np.all(np.diff(v.values, axis=0) >= grid.dx1 - 1e-10)
        assert np.all(np.diff(v.values, axis=1) >= grid.dx2 - 1e-10)

    def test_monotone_iterates(self, monkeypatch):
        # each policy iteration step's V^pi lies above the iterate v its
        # policy is greedy at, to rounding: far inside the RESIDUAL_REL *
        # (1 + sup v) that fixed_point enforces (V^pi0, evaluated into v
        # itself from the prolonged coarse values, is no such step)
        evaluate, drops = hjb2d._evaluate, []

        def spy(scheme, pref, v, out, counts):
            start = v.copy()
            residual = evaluate(scheme, pref, v, out, counts)
            if out is not v:
                drops.append(float((out - start).min()) / (1.0 + float(start.max())))
            return residual

        monkeypatch.setattr(hjb2d, "_evaluate", spy)
        grid = GridSpec.make(PARAMS, delta=0.1, x1_max=6, x2_max=6)
        solve(PARAMS, LAW, grid)
        assert len(drops) >= 2 and min(drops) >= -1e-13

    def test_residual_within_ten_tolerances(self, small_solve):
        grid, kernel, v, policy, report = small_solve
        resid = greedy_policy(kernel, v)[1]
        assert resid <= hjb2d.RESIDUAL_REL * (1.0 + v.values.max())
        assert resid == pytest.approx(report.residual_max, abs=1e-12)

    def test_jacobi_agrees_with_inplace(self, small_solve):
        grid, kernel, v, _, _ = small_solve
        # the solve ends at the fixed point, so the Jacobi reference runs
        # close to it too; a Jacobi iterate is a subsolution, never above
        vj, tol_eff = solve_jacobi(kernel, tol=1e-13)
        gap = 200 * max(tol_eff, 1e-8)
        assert np.abs(vj - v.values).max() <= gap
        assert np.all(vj <= v.values + 1e-12)

    def test_zero_seed_not_a_solution(self, small_solve):
        grid, kernel, _, _, _ = small_solve
        zero = ValueField(grid, np.zeros(grid.shape))
        assert greedy_policy(kernel, zero)[1] > 0.1

    def test_linear_family_is_fixed_point(self, small_solve):
        # unit-slope fields with a large constant solve the discrete
        # equation: lumps are exact identities, the no-pay residual is
        # strictly negative, so the pointwise max of residuals is zero
        grid, kernel, _, _, _ = small_solve
        K = 2 * (PARAMS.c1 + PARAMS.c2) / PARAMS.q
        vals = (np.arange(grid.n_max + 1)[:, None] * grid.dx1
                + np.arange(grid.m_max + 1)[None, :] * grid.dx2 + K)
        u = ValueField(grid, vals)
        assert greedy_policy(kernel, u)[1] <= 1e-10

    def test_policy_cap_on_the_coarsest_grid(self, monkeypatch):
        # 41x41 nodes coarsen once, to 21x21, where the cascade starts
        monkeypatch.setattr(hjb2d, "_POLICY_CAP", 1)
        grid = GridSpec.make(PARAMS, delta=0.1, x1_max=8, x2_max=4)
        with pytest.raises(NonConvergenceError, match="on the 21x21-node grid"):
            solve(PARAMS, LAW, grid)

    def test_policy_cap(self, monkeypatch):
        monkeypatch.setattr(hjb2d, "_POLICY_CAP", 1)
        grid = GridSpec.make(PARAMS, delta=0.1, x1_max=4, x2_max=4)
        with pytest.raises(NonConvergenceError, match="policy iteration"):
            solve(PARAMS, LAW, grid)

    def test_gmres_stall(self, monkeypatch):
        monkeypatch.setattr(hjb2d, "_GMRES_CYCLES", 0)
        grid = GridSpec.make(PARAMS, delta=0.1, x1_max=4, x2_max=4)
        with pytest.raises(NonConvergenceError, match="stalled"):
            solve(PARAMS, LAW, grid)

    def test_gmres_stall_far_above_the_target(self, monkeypatch):
        # a restart cycle of one matvec does not halve the residual: far above
        # the target that is a stall, not the rounding floor
        monkeypatch.setattr(hjb2d, "_GMRES_RESTART", 1)
        grid = GridSpec.make(PARAMS, delta=0.1, x1_max=4, x2_max=4)
        with pytest.raises(NonConvergenceError, match="stalled"):
            solve(PARAMS, LAW, grid)

    def test_finish_reaches_fixed_point(self, small_solve):
        _, _, _, _, report = small_solve
        assert report.policies >= 1 and report.gmres_matvecs >= 1
        assert report.residual_max <= 1e-11
        assert report.gmres_residual <= 1e-11
        assert report.final_sup_increment <= 1e-11

    # validate's bounds, increments, residual and merger dominance, on small
    # random models: c1/b1 >= c2/b2 by b1 = share * c1 / (c1 + c2), and claim
    # laws of the given mean
    @settings(max_examples=25, deadline=None)
    @given(c=st.tuples(st.floats(0.5, 2.5), st.floats(0.5, 2.5)).map(sorted),
           share=st.floats(0.3, 0.99), lam=st.floats(0.5, 2.0), q=st.floats(0.05, 0.3),
           kind=st.sampled_from(["exponential", "erlang2", "deterministic"]),
           mean=st.floats(0.5, 2.0), delta=st.floats(0.2, 0.5), x_max=st.floats(4.0, 6.0))
    def test_invariants_of_random_models(self, c, share, lam, q, kind, mean, delta, x_max):
        c2, c1 = c
        b1 = share * c1 / (c1 + c2)
        params = validate_params(ModelParams(c1=c1, c2=c2, b1=b1, b2=1.0 - b1, lam=lam, q=q))
        law = {"exponential": Exponential(1.0 / mean), "erlang2": Erlang2(2.0 / mean),
               "deterministic": Deterministic(mean)}[kind]
        grid = GridSpec.make(params, delta=delta, x1_max=x_max, x2_max=x_max)
        v, _, report = solve(params, law, grid)
        x = (np.arange(grid.n_max + 1)[:, None] * grid.dx1
             + np.arange(grid.m_max + 1)[None, :] * grid.dx2)
        assert np.all(v.values >= x - 1e-9)
        assert np.all(v.values <= x + (c1 + c2) / q + 1e-9)
        assert np.all(np.diff(v.values, axis=0) >= grid.dx1 - 1e-9)
        assert np.all(np.diff(v.values, axis=1) >= grid.dx2 - 1e-9)
        assert report.residual_max < 1e-10
        # the merged company at no cost, truncated at 40, past its band on
        # these models (merger_compare's default, x1_max + x2_max + 1, cuts
        # some bands at q near 0.05)
        samples = [(n * grid.dx1, m * grid.dx2)
                   for n in range(grid.n_max + 1) for m in range(grid.m_max + 1)]
        rows, _ = solver1d.merger_compare(params, law, 0.0, samples, v, x_max=40.0)
        assert min(vm - vd for _, _, vm, vd in rows) >= -10 * hjb2d.RESIDUAL_REL * (
            1.0 + v.values.max())


class TestSweep:
    @pytest.mark.parametrize("shape", [(1,), (2,), (57,), (1, 1), (2, 3), (21, 41), (30, 17)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_matches_node_loop_reference(self, shape):
        rng = np.random.default_rng(11)
        dxs = (0.2, 0.1)[: len(shape)]
        for _ in range(5):
            # nondecreasing along every axis, with random claim fields
            v = functools.reduce(np.cumsum, range(len(shape)), rng.uniform(0, 0.5, shape))
            cf = rng.uniform(0, 2.0, shape)
            got_cf, ref_cf = cf.copy(), cf.copy()
            got = hjb2d._sweep(v.copy(), got_cf, 0.9, dxs, np.empty(shape))
            ref = sweep_reference(v.copy(), ref_cf, 0.9, dxs)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)
            # both leave the table as it was before the sweep in cf
            assert np.array_equal(got_cf, v) and np.array_equal(ref_cf, v)

    def test_solve_with_node_loop_sweep(self, monkeypatch):
        # the same cascade (41x41 nodes, then 21x21) with the sweep run node by node
        grid = GridSpec.make(PARAMS, delta=0.1, x1_max=8, x2_max=4)
        v, policy, report = solve(PARAMS, LAW, grid)
        monkeypatch.setattr(hjb2d, "_sweep",
                            lambda v, cf, disc, dxs, work: sweep_reference(v, cf, disc, dxs))
        ref_v, ref_policy, ref_report = solve(PARAMS, LAW, grid)
        assert len(report.levels) == len(ref_report.levels) == 2
        assert report.iterations == ref_report.iterations
        np.testing.assert_array_equal(policy.actions, ref_policy.actions)
        np.testing.assert_allclose(v.values, ref_v.values, rtol=0, atol=1e-12)


class TestCascade:
    @settings(max_examples=25, deadline=None)
    @given(n_max=st.integers(12, 48), m_max=st.integers(12, 48),
           law=st.sampled_from([LAW, Deterministic(29 / 12)]),
           q=st.sampled_from([0.05, 5.0]))
    # q = 5 empties the no-pay set: every node but the origin lumps, down to
    # index 0 of its axis and then along it, on each grid
    @example(n_max=39, m_max=38, law=LAW, q=5.0)
    @example(n_max=38, m_max=47, law=LAW, q=0.05)
    @example(n_max=79, m_max=78, law=Deterministic(29 / 12), q=0.05)  # three grids
    def test_matches_single_grid_solve(self, n_max, m_max, law, q):
        params = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=q))
        grid = GridSpec(delta=0.1, dx1=0.2, dx2=0.1, n_max=n_max, m_max=m_max)
        kernel = build_claim_kernel(params, law, grid)
        v, policy, report = solve(params, law, grid, kernel=kernel)
        with mock.patch.object(hjb2d, "_MIN_LEVEL_NODES", math.inf):
            alone, alone_policy, alone_report = solve(params, law, grid, kernel=kernel)
        # a coarser grid has n_max // 2 on each axis, kept while both axes have 20 nodes
        levels = 1 + (min(n_max, m_max) >= 38) + (min(n_max, m_max) >= 78)
        assert [lv["shape"] for lv in report.levels][-1] == [n_max + 1, m_max + 1]
        assert len(report.levels) == levels and len(alone_report.levels) == 1
        assert (report.disc_error_est is None) == (levels == 1)
        assert alone_report.disc_error_est is None
        assert report.iterations == sum(lv["sweeps"] for lv in report.levels)
        assert report.policies == sum(lv["policies"] for lv in report.levels)
        assert report.gmres_matvecs == sum(lv["matvecs"] for lv in report.levels)
        top = 1 + v.values.max()
        np.testing.assert_allclose(v.values, alone.values, rtol=0, atol=1e-12 * top)
        np.testing.assert_array_equal(policy.actions, alone_policy.actions)
        assert report.residual_max <= 1e-12 * top
        # the table is the exact value of its greedy policy
        pref = solver2d._PREF_OF_MASK[policy.actions & 7]
        ref = evaluate_policy_reference(pref, kernel.scheme.disc, kernel.scheme.dxs,
                                        (kernel.cell_i1, kernel.cell_i2), kernel.cell_wv,
                                        kernel.scheme.const)
        np.testing.assert_allclose(v.values, ref, rtol=0, atol=1e-9 * top)
        # bounds, increments of at least one cell's payout
        ns = np.arange(n_max + 1)[:, None] * grid.dx1
        ms = np.arange(m_max + 1)[None, :] * grid.dx2
        assert np.all(v.values >= ns + ms - 1e-12)
        assert np.all(v.values <= ns + ms + (params.c1 + params.c2) / params.q + 1e-9)
        assert np.all(np.diff(v.values, axis=0) >= grid.dx1 - 1e-10)
        assert np.all(np.diff(v.values, axis=1) >= grid.dx2 - 1e-10)

    @pytest.mark.parametrize("shape", [(5,), (6,), (5, 8), (6, 7)])
    def test_prolongation(self, shape):
        # fine node n takes coarse node n // 2's entry; a policy that lumps
        # at every node it may keeps every lump on the grid
        coarse_shape = tuple((s - 1) // 2 + 1 for s in shape)
        coarse = np.arange(math.prod(coarse_shape)).reshape(coarse_shape)
        fine = hjb2d._prolong(coarse, np.empty(shape, dtype=coarse.dtype))
        want = functools.reduce(lambda a, ax: np.repeat(a, 2, axis=ax), range(len(shape)), coarse)
        np.testing.assert_array_equal(fine, want[tuple(np.s_[:s] for s in shape)])
        lumps = np.ones(coarse_shape, dtype=np.int8)
        lumps[0] = 0
        if len(shape) == 2:
            lumps[0, 1:] = 2
        fine = hjb2d._prolong(lumps, np.empty(shape, dtype=np.int8))
        assert not np.any(fine[0] == 1)
        if len(shape) == 2:
            assert not np.any(fine[:, 0] == 2)


class TestExtendValue:
    def test_node_and_offset(self, small_solve):
        grid, _, v, _, _ = small_solve
        assert v.extend(3 * grid.dx1, 4 * grid.dx2) == v.values[3, 4]
        h1, h2 = 0.4 * grid.dx1, 0.7 * grid.dx2
        assert v.extend(3 * grid.dx1 + h1, 4 * grid.dx2 + h2) == pytest.approx(
            v.values[3, 4] + h1 + h2
        )

    def test_negative_rejected(self, small_solve):
        _, _, v, _, _ = small_solve
        with pytest.raises(ValueError):
            v.extend(-0.1, 1.0)


class TestPolicyAndRegions:
    def test_policy_invariants(self, small_solve):
        _, _, _, policy, _ = small_solve
        assert np.all(policy.actions > 0)
        assert not np.any(policy.actions[0, :] & Action.E1)
        assert not np.any(policy.actions[:, 0] & Action.E2)

    def test_labels_partition(self, small_solve):
        _, _, v, policy, _ = small_solve
        region = extract_regions(policy, v)
        assert set(np.unique(region.labels)) <= set(LABEL_NAMES)
        assert region.labels.shape == v.values.shape

    def test_degenerate_all_e0_policy(self, small_solve):
        grid, _, v, _, _ = small_solve
        actions = np.full(grid.shape, int(Action.E0), dtype=np.uint8)
        pol = PolicyField(grid=grid, actions=actions, eps_tie=1e-9)
        region = extract_regions(pol, v)
        assert region.component_counts["C"] == 1
        assert all(c == 0 for k, c in region.component_counts.items() if k != "C")
        assert region.a0_points == []

    def test_bad_policy_rejected(self, small_solve):
        grid, _, _, _, _ = small_solve
        actions = np.full(grid.shape, int(Action.E1), dtype=np.uint8)
        with pytest.raises(ValueError):
            PolicyField(grid=grid, actions=actions, eps_tie=1e-9)

    def test_label_of_each_argmax_set(self, small_solve):
        grid, _, v, _, _ = small_solve
        expected = {"E0": "C", "E1": "B1", "E2": "B2", "E1+E2": "B0",
                    "E0+E1": "A1", "E0+E2": "A2", "E0+E1+E2": "A0"}
        actions = np.full(grid.shape, int(Action.E0), dtype=np.uint8)
        inner = actions[1:, 1:]
        inner[...] = 1 + np.arange(inner.size).reshape(inner.shape) % 7
        region = extract_regions(PolicyField(grid=grid, actions=actions, eps_tie=1e-9), v)
        for mask, lab in zip(actions.ravel(), region.labels.ravel()):
            assert LABEL_NAMES[int(lab)] == expected[ARGMAX_NAMES[mask]]


def _assert_regions_match_ndimage(mask):
    labels, count = solver2d._label(mask)
    ref_labels, ref_count = label_reference(mask)
    assert count == ref_count
    np.testing.assert_array_equal(labels, ref_labels)
    np.testing.assert_array_equal(solver2d._opened(mask), opening_reference(mask))


def _diagonal_chains(n):
    """Masks whose nodes join only at corners: the two diagonals of an n x n
    square, and a V of two chains that start apart on the top row and meet
    on the bottom one, so their components merge late."""
    eye = np.eye(n, dtype=bool)
    v_shape = np.zeros((n, 2 * n - 1), dtype=bool)
    v_shape[np.arange(n), np.arange(n)] = True
    v_shape[np.arange(n), 2 * n - 2 - np.arange(n)] = True
    return [eye, eye[::-1], v_shape, v_shape[::-1], (np.indices((n, n)).sum(axis=0) % 2) == 0]


class TestRegionMasks:
    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 30), cols=st.integers(1, 30),
           fill=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]), seed=st.integers(0, 2**32 - 1))
    @example(rows=1, cols=23, fill=0.5, seed=1)
    @example(rows=23, cols=1, fill=0.5, seed=1)
    @example(rows=1, cols=1, fill=1.0, seed=0)
    def test_random_masks_match_ndimage(self, rows, cols, fill, seed):
        # fill 0 and 1 give the all-false and all-true masks
        _assert_regions_match_ndimage(np.random.default_rng(seed).random((rows, cols)) < fill)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_diagonal_chains_match_ndimage(self, n):
        for mask in _diagonal_chains(n):
            _assert_regions_match_ndimage(mask)
            _assert_regions_match_ndimage(mask.T.copy())


def _random_policy(n_pts, m_pts, lump_share, seed):
    """Random argmax sets on an n_pts x m_pts grid that obey the PolicyField
    invariants; lump_share of the nodes hold a lump only, which makes long
    lump chains."""
    rng = np.random.default_rng(seed)
    grid = GridSpec(delta=0.1, dx1=0.2, dx2=0.1, n_max=n_pts - 1, m_max=m_pts - 1)
    actions = np.where(rng.random(grid.shape) < lump_share,
                       rng.choice([2, 4, 6], grid.shape), rng.integers(1, 8, grid.shape))
    actions = actions.astype(np.uint8)
    actions[0, :] &= ~np.uint8(Action.E1)
    actions[:, 0] &= ~np.uint8(Action.E2)
    actions[actions == 0] = Action.E0
    return PolicyField(grid=grid, actions=actions, eps_tie=1e-9)


class TestPolicyFlow:
    @settings(max_examples=60, deadline=None)
    @given(n_pts=st.integers(3, 40), m_pts=st.integers(3, 40),
           lump_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]), seed=st.integers(0, 10_000))
    def test_matches_row_loop_reference(self, n_pts, m_pts, lump_share, seed):
        # on the reference's edge-converted actions, so no no-pay node
        # drifts past an outer edge and the two edge rules agree
        policy = _random_policy(n_pts, m_pts, lump_share, seed)
        ref = policy_flow_reference(policy)
        g = policy.grid
        flow = policy_flow(ref.pref, (g.dx1, g.dx2))
        nopay = np.flatnonzero(ref.pref == 0)
        np.testing.assert_array_equal(flow.nopay, nopay)
        assert flow.anchor.dtype == np.int32
        anchor_n, anchor_m = np.divmod(flow.nopay[flow.anchor].reshape(g.shape), m_pts)
        np.testing.assert_array_equal(anchor_n, ref.anchor_n)
        np.testing.assert_array_equal(anchor_m, ref.anchor_m)
        lump = ((np.arange(n_pts)[:, None] - anchor_n) * g.dx1
                + (np.arange(m_pts)[None, :] - anchor_m) * g.dx2)
        np.testing.assert_array_equal(lump, ref.paid)
        # a no-pay node drifts to (n+1, m+1), then lumps to that node's anchor
        target = np.unravel_index(nopay + m_pts + 1, g.shape)
        np.testing.assert_array_equal(
            flow.nopay[flow.succ], ref.anchor_n[target] * m_pts + ref.anchor_m[target])
        np.testing.assert_array_equal(flow.paid, ref.paid[target])

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1,), (1, 1)])
    def test_one_node_axis(self, shape):
        # a node lumps only down an axis of more than one node; the
        # reference keeps the edge no-pay nodes, whose drift stops at the
        # edge and pays one cell past it.  A 1D grid of k nodes is the
        # reference's k x 1 grid with axis 1 dropped.
        n_pts, m_pts = shape2 = shape + (1,) * (2 - len(shape))
        dxs = (0.2, 0.1)
        grid = types.SimpleNamespace(shape=shape2, n_max=n_pts - 1, m_max=m_pts - 1,
                                     dx1=dxs[0], dx2=dxs[1])
        rng = np.random.default_rng(n_pts * 10 + len(shape))
        lump = Action.E2 if n_pts == 1 else Action.E1
        for _ in range(10):
            actions = np.where(rng.random(shape2) < 0.6, lump, Action.E0).astype(np.uint8)
            actions[0, 0] = Action.E0
            ref = policy_flow_reference(types.SimpleNamespace(grid=grid, actions=actions),
                                        edge_lumps=False)
            flow = policy_flow(ref.pref.reshape(shape), dxs[: len(shape)])
            nopay = np.flatnonzero(ref.pref == 0)
            np.testing.assert_array_equal(flow.nopay, nopay)
            at_n, at_m = np.unravel_index(flow.nopay[flow.anchor], shape2)
            np.testing.assert_array_equal(at_n.reshape(shape2), ref.anchor_n)
            np.testing.assert_array_equal(at_m.reshape(shape2), ref.anchor_m)
            n, m = np.unravel_index(nopay, shape2)
            target = (np.minimum(n + 1, n_pts - 1), np.minimum(m + 1, m_pts - 1))
            np.testing.assert_array_equal(
                flow.nopay[flow.succ], ref.anchor_n[target] * m_pts + ref.anchor_m[target])
            past = (n == n_pts - 1) * dxs[0] + (m == m_pts - 1) * dxs[1] * (len(shape) == 2)
            np.testing.assert_allclose(flow.paid, ref.paid[target] + past, rtol=0, atol=1e-12)


def _scheme_1d(n_pts, law=LAW):
    """Example 1's on-ray problem on n_pts nodes, as solve_1d sets it up: a
    lump pays rho*dx, and the claim field carries the reward."""
    return solver1d._scheme(solver1d.make_auxiliary_problem(PARAMS, law, "wbar"), 0.1, n_pts)


def _evaluate(scheme, pref):
    """V^pi of pref by hjb2d._evaluate from zero, and the counts it added up."""
    counts = dict(policies=0, matvecs=0, eval_box=[0] * pref.ndim)
    out = np.empty(pref.shape)
    hjb2d._evaluate(scheme, pref, np.zeros(pref.shape), out, counts)
    return out, counts


def _assert_matches_reference(scheme, pref):
    """The evaluation of pref on the scheme against the reference's sparse
    solve, which reads the live cells of the scheme's correlation on the
    whole grid."""
    got, counts = _evaluate(scheme, pref)
    want = evaluate_policy_reference(pref, scheme.disc, scheme.dxs, scheme.correlation.at,
                                     scheme.correlation.kw_at, scheme.const)
    assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())
    assert counts["policies"] == 1
    return counts


def _rectangle_policy(shape, rect):
    """No-pay at the origin and on the rectangle rect = ((n_lo, m_lo),
    (n_hi, m_hi)), or at the origin alone if rect is None; every other node
    lumps toward them.  In 2D a node at n >= n_lo above row m_lo lumps down
    axis 1, onto the rectangle or onto row m_lo, and the rest lump down
    axis 0, then down axis 1 at n = 0.  So a no-pay node (n_hi, m) drifts
    onto (n_hi + 1, m + 1), whose anchor is (n_hi, m_lo): on the policy
    cropped to the box it would take the edge rule to (n_hi, m + 1)."""
    pref = np.ones(shape, dtype=np.int8)
    if len(shape) == 2:
        pref[0, :] = 2
        if rect is not None:
            n, m = np.indices(shape)
            pref[(n >= rect[0][0]) & (m > rect[0][1])] = 2
    if rect is not None:
        pref[tuple(np.s_[lo : hi + 1] for lo, hi in zip(*rect))] = 0
    pref[(0,) * len(shape)] = 0
    return pref


class TestNoPayEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(n_pts=st.integers(3, 40), m_pts=st.integers(3, 40),
           lump_share=st.sampled_from([0.0, 0.5, 0.9, 1.0]), edge_nopay=st.booleans(),
           one_axis=st.booleans(), seed=st.integers(0, 10_000))
    # GMRES from zero needs 11 restart cycles here, and here its last cycle
    # ends at the rounding floor, 1.007x the target
    @example(n_pts=27, m_pts=32, lump_share=0.9, edge_nopay=False, one_axis=True, seed=2)
    @example(n_pts=29, m_pts=33, lump_share=0.5, edge_nopay=False, one_axis=True, seed=1)
    def test_matches_full_grid_solve(self, n_pts, m_pts, lump_share, edge_nopay, one_axis,
                                     seed):
        if one_axis:  # a 1D grid of n_pts * m_pts nodes; node 0 cannot lump
            rng = np.random.default_rng(seed)
            pref = (rng.random(n_pts * m_pts) < lump_share).astype(np.int8)
            pref[0] = 0
            if edge_nopay:  # the top node drifts along the edge
                pref[-1] = 0
            _assert_matches_reference(_scheme_1d(pref.size), pref)
            return
        policy = _random_policy(n_pts, m_pts, lump_share, seed)
        pref = solver2d._PREF_OF_MASK[policy.actions & 7]
        if edge_nopay:  # no-pay nodes drift along the outer edges
            pref[-1, :] = 0
            pref[:, -1] = 0
        _assert_matches_reference(build_claim_kernel(PARAMS, LAW, policy.grid).scheme, pref)

    @pytest.mark.parametrize("chain", [4, 5, 8, 9, 16, 17, 32, 33])
    @pytest.mark.parametrize("kind", ["branch1", "branch2", "staircase"])
    def test_lump_chains_of_each_length(self, chain, kind):
        # the longest lump chain has `chain` cells, so pointer jumping
        # takes ceil(log2(chain)) doubling passes, 2 to 6: odd and even
        # counts both.  Every other node of the bottom row (column) lumps
        # on along it, so a no-pay node's rank differs from its flat index.
        if kind == "branch1":  # lumps in branch 1 down to n = 0
            shape = (chain, 4)
        elif kind == "branch2":  # ... in branch 2 down to m = 0
            shape = (4, chain)
        else:  # branch 1 down to n = 0, then branch 2 to the origin
            shape = (chain // 2 + 1, chain - chain // 2 + 1)
        grid = GridSpec(delta=0.1, dx1=0.2, dx2=0.1, n_max=shape[0] - 1, m_max=shape[1] - 1)
        pref = np.zeros(shape, dtype=np.int8)
        if kind == "branch1":
            pref[1:, :] = 1
            pref[0, 1::2] = 2
        elif kind == "branch2":
            pref[:, 1:] = 2
            pref[1::2, 0] = 1
        else:
            pref[1:, :] = 1
            pref[0, 1:] = 2
        _assert_matches_reference(build_claim_kernel(PARAMS, LAW, grid).scheme, pref)

    @pytest.mark.parametrize("path,law", [("fft", LAW), ("direct", Deterministic(0.9))])
    @pytest.mark.parametrize("one_axis", [False, True])
    @pytest.mark.parametrize("rect", [None, ((8, 10), (25, 40))])
    def test_box_inside_the_grid(self, path, law, one_axis, rect):
        # the no-pay nodes span a box strictly inside the grid (a 1x1 box
        # with rect None), and every other node lumps toward them
        if one_axis:
            scheme = _scheme_1d(300, law)
            rect = rect and tuple(corner[:1] for corner in rect)
            pref = _rectangle_policy((300,), rect)
        else:
            grid = GridSpec(delta=0.1, dx1=0.2, dx2=0.1, n_max=39, m_max=59)
            scheme = build_claim_kernel(PARAMS, law, grid).scheme
            pref = _rectangle_policy(grid.shape, rect)
        assert scheme.correlation.kind == path
        box = [1] * pref.ndim if rect is None else [hi + 1 for hi in rect[1]]
        if rect is not None:
            assert scheme.correlation.on_box(box).kind == path
        assert _assert_matches_reference(scheme, pref)["eval_box"] == box

    def test_greedy_policy_of_the_solve(self, small_solve):
        # at the fixed point the value of its greedy policy is the table
        _, kernel, v, policy, _ = small_solve
        pref = solver2d._PREF_OF_MASK[policy.actions & 7]
        _assert_matches_reference(kernel.scheme, pref)
        assert np.abs(_evaluate(kernel.scheme, pref)[0] - v.values).max() <= 1e-9


class TestStructuralChecks:
    def test_d1_identity_small(self, small_solve):
        grid, _, v, _, _ = small_solve
        dev = check_D1_identity(v, PARAMS, n_samples=60, seed=1)
        assert dev <= 2 * (grid.dx1 + grid.dx2)

    def test_d1_identity_zero_offset(self, small_solve):
        _, _, v, _, _ = small_solve
        # on the ray the identity is tautological
        x2 = 1.0
        proj = (PARAMS.b1 / PARAMS.b2) * x2
        lhs = v.extend(proj, x2)
        rhs = proj - proj + v.extend(proj, x2)
        assert lhs == rhs

    def test_suboptimality_witness_strict_case(self):
        wbar = solver1d.solve_1d(
            solver1d.make_auxiliary_problem(PARAMS, LAW, "wbar"),
            delta=0.005, x_max=25.0,
        )
        res = check_tilde_suboptimality(PARAMS, LAW, wbar)
        assert res["applicable"]
        (x1, x2), lval = res["witness"]
        assert lval > 0
        assert x2 > (PARAMS.b2 / PARAMS.b1) * x1

    def test_suboptimality_rejects_symmetric(self):
        sym = validate_params(ModelParams(c1=21.4, c2=21.4, b1=0.5, b2=0.5, lam=10, q=0.1))
        wbar = solver1d.solve_1d(
            solver1d.make_auxiliary_problem(sym, Erlang2(0.5), "wbar"),
            delta=0.005, x_max=40.0,
        )
        with pytest.raises(ValueError):
            check_tilde_suboptimality(sym, Erlang2(0.5), wbar)

    def test_suboptimality_take_the_money_regime(self):
        p = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=5.0))
        wbar = solver1d.solve_1d(
            solver1d.make_auxiliary_problem(p, LAW, "wbar"), delta=0.001, x_max=8.0
        )
        res = check_tilde_suboptimality(p, LAW, wbar)
        assert res["applicable"] is False
        assert res["linear_value_deviation"] <= 5e-3


class TestWriters:
    def test_artifacts_roundtrip(self, small_solve, tmp_path):
        grid, _, v, policy, report = small_solve
        region = extract_regions(policy, v)
        solver2d.write_value_csv(tmp_path / "value.csv", v)
        solver2d.write_policy_csv(tmp_path / "policy.csv", policy, region)
        solver2d.write_summary_json(tmp_path / "summary.json", region, report)
        solver2d.write_region_data(tmp_path / "regions.dat", region, tmp_path / "regions.gp")
        data = np.loadtxt(tmp_path / "value.csv", delimiter=",", skiprows=1,
                          usecols=(0, 1, 4))
        back = np.zeros(grid.shape)
        back[data[:, 0].astype(int), data[:, 1].astype(int)] = data[:, 2]
        assert np.array_equal(back, v.values)
        import json
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["iterations"] == report.iterations
        assert "a0_points" in summary and "b0_components" in summary

    def test_policy_csv_matches_per_node_formatter(self, small_solve, tmp_path):
        grid, _, v, policy, _ = small_solve
        region = extract_regions(policy, v)
        solver2d.write_policy_csv(tmp_path / "policy.csv", policy, region)
        assert (tmp_path / "policy.csv").read_text() == _policy_text(policy, region)

    def test_value_and_region_files_match_per_node_formatters(self, small_solve, tmp_path):
        grid, _, v, policy, _ = small_solve
        region = extract_regions(policy, v)
        solver2d.write_value_csv(tmp_path / "value.csv", v)
        solver2d.write_region_data(tmp_path / "regions.dat", region)
        assert (tmp_path / "value.csv").read_text() == _value_text(v)
        assert (tmp_path / "regions.dat").read_text() == _region_text(region)

    def test_example3_cascade_grid_files_match_per_node_formatters(self, tmp_path):
        # example 3 at delta = 0.05: 81x161 nodes, a cascade of grids
        grid = GridSpec.make(PARAMS, delta=0.05, x1_max=8, x2_max=8)
        v, policy, _ = solve(PARAMS, Deterministic(29 / 12), grid)
        region = extract_regions(policy, v)
        solver2d.write_value_csv(tmp_path / "value.csv", v)
        solver2d.write_policy_csv(tmp_path / "policy.csv", policy, region)
        solver2d.write_region_data(tmp_path / "regions.dat", region)
        assert grid.shape == (81, 161)
        assert (tmp_path / "value.csv").read_text() == _value_text(v)
        assert (tmp_path / "policy.csv").read_text() == _policy_text(policy, region)
        assert (tmp_path / "regions.dat").read_text() == _region_text(region)

    def test_value_csv_mixes_exact_and_python_formatted_values(self, tmp_path):
        # 0, values below 1e-4 and from 1e15 on are formatted by Python, the
        # rest by the integer kernel, in the same rows
        grid = GridSpec.make(PARAMS, delta=0.5, x1_max=3, x2_max=3)
        values = np.random.default_rng(3).uniform(0.0, 40.0, grid.shape)
        values.flat[::5] = 0.0
        values.flat[1::5] = 3e-5
        values.flat[2::7] = 1e16
        values[-1, -1], values[0, -1] = 5e-324, 1e300
        v = ValueField(grid, values)
        solver2d.write_value_csv(tmp_path / "value.csv", v)
        assert (tmp_path / "value.csv").read_text() == _value_text(v)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0), min_size=1, max_size=40))
    @example([5e-324, 2.2250738585072014e-308, 1e300, math.inf, 0.0])
    @example([1e-4, 9.999999999999999e-05, 1e15, 999999999999999.9, 0.5, 12.5])
    def test_g17_is_python_percent_17g(self, values):
        _assert_g17(values)

    def test_g17_on_ties_and_decade_edges(self):
        # j / 65536 in [10, 12) has 18 significant digits, the last a 5 when
        # j is odd: an exact tie at the 17th, rounded half to even
        tens = 10.0 ** np.arange(-5, 18)
        below_1e15 = np.nextafter(1e15, 0.0)
        _assert_g17(np.arange(10 * 65536, 12 * 65536) / 65536)
        _assert_g17(np.random.default_rng(5).integers(0, 40 * 65536, 50_000) / 65536)
        _assert_g17([*tens, *np.nextafter(tens, np.inf), *np.nextafter(tens, -np.inf),
                     1e15, below_1e15, 0.0])


def _assert_g17(values):
    """The text of solver2d._g17, its NULs dropped, is b"%.17g" % v per value."""
    values = np.asarray(values, dtype=float)
    text = solver2d._g17(values.reshape(-1, 1))
    assert text.shape[:2] == (values.size, 1)
    flat = np.concatenate([text.reshape(values.size, -1),
                           np.full((values.size, 1), ord("\n"), np.uint8)], axis=1).ravel()
    assert flat[flat != 0].tobytes() == b"".join(b"%.17g\n" % v for v in values.tolist())


def _value_text(v):
    g = v.grid
    lines = ["n,m,x1,x2,v\n"]
    for n in range(g.n_max + 1):
        for m in range(g.m_max + 1):
            lines.append(f"{n},{m},{n * g.dx1:.17g},{m * g.dx2:.17g},{v.values[n, m]:.17g}\n")
    return "".join(lines)


def _policy_text(policy, region):
    g = policy.grid
    lines = ["n,m,label,argmax\n"]
    for n in range(g.n_max + 1):
        for m in range(g.m_max + 1):
            acts = "+".join(
                a.name for a in (Action.E0, Action.E1, Action.E2)
                if policy.actions[n, m] & a
            )
            lines.append(f"{n},{m},{LABEL_NAMES[int(region.labels[n, m])]},{acts}\n")
    return "".join(lines)


def _region_text(region):
    g = region.grid
    lines = ["# x1 x2 label (0=C 1=B1 2=B2 3=B0 4=A1 5=A2 6=A0)\n"]
    for n in range(g.n_max + 1):
        for m in range(g.m_max + 1):
            lines.append(f"{n * g.dx1:.6f} {m * g.dx2:.6f} {int(region.labels[n, m])}\n")
        lines.append("\n")
    return "".join(lines)
