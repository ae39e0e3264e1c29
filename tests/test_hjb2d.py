import dataclasses
import math

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divopt import hjb2d, solver1d
from divopt.hjb2d import (
    Action,
    DirectCorrelation,
    FFTCorrelation,
    ValueField,
    build_correlation,
    build_claim_kernel,
    claim_field,
    greedy_step,
    shift_up_diag,
)
from divopt.model import (
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    validate_params,
)
from oracles import (
    brute_force_t_slices,
    brute_force_tensor,
    continuous_L,
    correlate_reference,
    integral_I_delta,
    op_T,
    op_T0,
    op_lump,
    operator_fields,
    tie_epsilon,
)

PARAMS = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))


def small_grid(delta=0.1, x1_max=4.0, x2_max=4.0):
    return GridSpec.make(PARAMS, delta=delta, x1_max=x1_max, x2_max=x2_max)


def linear_field(grid, const=0.0):
    vals = (
        np.arange(grid.n_max + 1)[:, None] * grid.dx1
        + np.arange(grid.m_max + 1)[None, :] * grid.dx2
        + const
    )
    return ValueField(grid, vals)


def random_field(grid, seed=0, scale=0.5):
    rng = np.random.default_rng(seed)
    return ValueField(grid, linear_field(grid).values + rng.uniform(0, scale, grid.shape))


class TestValueField:
    def test_shape_checked(self):
        g = small_grid()
        with pytest.raises(ValueError):
            ValueField(g, np.zeros((3, 3)))

    def test_negative_rejected(self):
        g = small_grid()
        with pytest.raises(ValueError):
            ValueField(g, -np.ones(g.shape))

    def test_lookup_linear_extension(self):
        g = small_grid()
        v = random_field(g)
        base = v.values[g.n_max, g.m_max]
        assert v.lookup(g.n_max + 3, g.m_max) == pytest.approx(base + 3 * g.dx1)
        assert v.lookup(g.n_max + 1, g.m_max + 2) == pytest.approx(
            base + g.dx1 + 2 * g.dx2
        )

    def test_extend_on_node_and_offset(self):
        g = small_grid()
        v = random_field(g)
        assert v.extend(3 * g.dx1, 5 * g.dx2) == pytest.approx(v.values[3, 5])
        h1, h2 = 0.3 * g.dx1, 0.6 * g.dx2
        assert v.extend(3 * g.dx1 + h1, 5 * g.dx2 + h2) == pytest.approx(
            v.values[3, 5] + h1 + h2
        )


class TestLump:
    def test_zero_field(self):
        g = small_grid()
        v = ValueField(g, np.zeros(g.shape))
        assert op_lump(v, 1, 0, axis=1) == pytest.approx(g.dx1)

    def test_identity_on_unit_slope(self):
        g = small_grid()
        u = linear_field(g, const=3.0)
        assert op_lump(u, 4, 2, axis=1) == pytest.approx(u.values[4, 2], abs=1e-12)
        assert op_lump(u, 4, 2, axis=2) == pytest.approx(u.values[4, 2], abs=1e-12)

    def test_boundary_rejected(self):
        g = small_grid()
        v = ValueField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            op_lump(v, 0, 0, axis=1)
        with pytest.raises(ValueError):
            op_lump(v, 0, 0, axis=2)


LAW_CASES = [Exponential(0.6), Erlang2(6 / 7), Deterministic(0.35)]


class TestClaimIntegral:
    @pytest.mark.parametrize("law", LAW_CASES)
    def test_matches_sharp_oracle(self, law):
        g = small_grid(delta=0.1, x1_max=3.0, x2_max=2.0)
        kern = build_claim_kernel(PARAMS, law, g)
        v = random_field(g, seed=3)
        for n, m in [(0, 0), (3, 5), (g.n_max, g.m_max), (5, 2)]:
            mine = integral_I_delta(kern, v, n, m)
            ref = brute_force_t_slices(PARAMS, law, g, v.values, n, m, nt=3000)
            assert mine == pytest.approx(ref, rel=1e-6, abs=1e-12)

    def test_matches_tensor_oracle_at_its_resolution(self):
        law = Exponential(0.6)
        g = small_grid(delta=0.1, x1_max=3.0, x2_max=2.0)
        kern = build_claim_kernel(PARAMS, law, g)
        v = random_field(g, seed=3)
        mine = integral_I_delta(kern, v, 6, 4)
        ref = brute_force_tensor(PARAMS, law, g, v.values, 6, 4, nt=800, na=800)
        assert mine == pytest.approx(ref, rel=5e-4)

    def test_fft_field_matches_gather(self):
        # Deterministic(0.9) reaches only a few cells, so its FFT is far
        # shorter than 2*s - 1: the case a wrongly sized FFT would wrap around.
        # On the all-zero table the field is the payout field alone.  Both
        # correlation paths run on every kernel.
        g = small_grid(delta=0.1, x1_max=3.0, x2_max=2.0)
        for law in LAW_CASES + [Deterministic(0.9)]:
            kern = build_claim_kernel(PARAMS, law, g)
            reach = (int(kern.cell_i1.max()), int(kern.cell_i2.max()))
            kw = np.zeros(np.add(reach, 1))
            kw[kern.cell_i1, kern.cell_i2] = kern.cell_wv
            fft = FFTCorrelation(kw, g.shape)
            for s, r, f in zip(g.shape, reach, fft.fshape):
                assert f == sfft.next_fast_len(s + r)
                assert f <= sfft.next_fast_len(2 * s - 1)
            for path in (DirectCorrelation(kw), fft):
                on_path = dataclasses.replace(kern, scheme=kern.scheme._replace(correlation=path))
                for v in (random_field(g, seed=9), ValueField(g, np.zeros(g.shape))):
                    cf = claim_field(on_path, v.values)
                    gather = np.array(
                        [[integral_I_delta(kern, v, n, m) for m in range(g.m_max + 1)]
                         for n in range(g.n_max + 1)]
                    )
                    np.testing.assert_allclose(cf, gather, rtol=0, atol=1e-12)

    def test_zero_intensity_gives_zero(self):
        p0 = ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=0.0, q=0.05)
        g = small_grid()
        kern = build_claim_kernel(p0, Exponential(0.6), g)
        v = random_field(g)
        assert integral_I_delta(kern, v, 3, 3) == 0.0
        assert np.all(claim_field(kern, v.values) == 0.0)

    def test_certain_ruin_atom_gives_zero(self):
        # atom exceeds the upper integration limit at every node of a small
        # grid: the first claim ruins both branches with certainty
        g = small_grid(delta=0.1, x1_max=2.0, x2_max=2.0)
        law = Deterministic(50.0)
        kern = build_claim_kernel(PARAMS, law, g)
        v = random_field(g)
        assert integral_I_delta(kern, v, g.n_max, g.m_max) == 0.0
        assert np.all(claim_field(kern, v.values) == 0.0)

    def test_nonnegative_and_monotone_in_v(self):
        g = small_grid()
        kern = build_claim_kernel(PARAMS, Exponential(0.6), g)
        lo = random_field(g, seed=1)
        hi = ValueField(g, lo.values + np.random.default_rng(2).uniform(0, 1, g.shape))
        cf_lo = claim_field(kern, lo.values)
        cf_hi = claim_field(kern, hi.values)
        assert np.all(cf_lo >= -1e-12)
        assert np.all(cf_hi >= cf_lo - 1e-12)


def _rounding_bound(path, kw, values):
    """Worst-case float64 rounding of a correlation path, fixed before any
    run.  Direct: each output is a recursive sum of at most `cells`
    products, within (cells + 1) * eps * sum|kw| * max|values| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1).
    FFT: each transform is within 7 * log2(F) * eps of its result in the
    2-norm (ibid., Theorem 24.2, with exactly rounded twiddles); carried
    through the product with the kernel's transform and the inverse, that
    bounds the 2-norm of the error, and so every entry, by
    3 * 7 * log2(F) * eps * (2 * ||kw||_1 + sqrt(F) * ||kw||_2) * ||values||_2.
    """
    eps = np.finfo(float).eps
    if path.fshape is None:
        return (path.cells + 1) * eps * np.abs(kw).sum() * np.abs(values).max()
    f = math.prod(path.fshape)
    norm_kw = 2 * np.abs(kw).sum() + math.sqrt(f) * np.linalg.norm(kw)
    return 21 * math.log2(f) * eps * norm_kw * np.linalg.norm(values)


class TestCorrelation:
    @settings(max_examples=80, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(1, 90)),
                           st.tuples(st.integers(1, 13), st.integers(1, 13))),
           reach=st.floats(0.0, 1.0), density=st.sampled_from([0.0, 0.3, 1.0]),
           corner=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(shape=(11, 13), reach=1.0, density=0.3, corner=True, seed=1)  # a cell at shape - 1
    @example(shape=(11, 13), reach=1.0, density=0.0, corner=True, seed=2)  # one cell
    @example(shape=(40,), reach=1.0, density=0.0, corner=True, seed=3)  # one cell, one axis
    @example(shape=(11, 13), reach=0.5, density=0.0, corner=False, seed=4)  # an all-zero kernel
    # short reach: the FFT is shorter than 2*s - 1, and a wrongly sized one wraps
    @example(shape=(13, 13), reach=0.2, density=1.0, corner=True, seed=5)
    @example(shape=(90,), reach=0.05, density=1.0, corner=True, seed=6)
    def test_each_path_matches_the_node_loop(self, shape, reach, density, corner, seed):
        rng = np.random.default_rng(seed)
        size = tuple(1 + round(reach * (s - 1)) for s in shape)
        kw = np.where(rng.random(size) < density, rng.uniform(-1.0, 1.0, size), 0.0)
        if corner:
            kw[tuple(r - 1 for r in size)] = rng.uniform(0.5, 1.0)
        values = rng.uniform(-1.0, 1.0, shape)
        want = correlate_reference(values, kw)
        for path in (DirectCorrelation(kw), FFTCorrelation(kw, shape)):
            assert path.cells == np.count_nonzero(kw)
            got = path(values)
            assert got.shape == shape
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=_rounding_bound(path, kw, values))
            if path.fshape is None:  # the same products, added in the same order
                np.testing.assert_array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(1, 90)),
                           st.tuples(st.integers(1, 13), st.integers(1, 13))),
           reach=st.floats(0.0, 1.0), density=st.sampled_from([0.0, 0.3, 1.0]),
           box=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(11, 13), reach=1.0, density=1.0, box=(0.5, 1.0), seed=1)
    # a 3-node box inside a 5-cell reach: the cells past the box are dropped
    @example(shape=(90,), reach=0.05, density=1.0, box=(0.02, 0.0), seed=2)
    def test_on_a_leading_box_matches_the_full_grid(self, shape, reach, density, box, seed):
        rng = np.random.default_rng(seed)
        size = tuple(1 + round(reach * (s - 1)) for s in shape)
        kw = np.where(rng.random(size) < density, rng.uniform(-1.0, 1.0, size), 0.0)
        sub = tuple(1 + round(f * (s - 1)) for f, s in zip(box, shape))
        for path in (DirectCorrelation(kw), FFTCorrelation(kw, shape)):
            _assert_on_box_matches(path, kw, rng.uniform(-1.0, 1.0, shape), sub)

    def test_a_crop_can_take_the_direct_path(self):
        # three cells near the origin and a dense block past the box: the
        # grid's correlation is an FFT, the box keeps the three cells only
        rng = np.random.default_rng(7)
        kw = np.zeros((40, 40))
        kw[20:, 20:] = rng.uniform(0.0, 1.0, (20, 20))
        kw[0, 0], kw[1, 0], kw[0, 2] = 0.5, 0.25, 0.125
        full = build_correlation(kw, kw.shape)
        assert full.kind == "fft" and full.on_box((20, 30)).kind == "direct"
        _assert_on_box_matches(full, kw, rng.uniform(-1.0, 1.0, kw.shape), (20, 30))


def _assert_on_box_matches(path, kw, values, sub):
    """path.on_box(sub) on the leading box of values equals path on values
    restricted there, within both paths' rounding bounds."""
    box = tuple(np.s_[:s] for s in sub)
    on_box = path.on_box(sub)
    assert on_box.cells == np.count_nonzero(kw[box])
    want = path(values)[box]
    got = on_box(values[box])
    assert got.shape == sub
    np.testing.assert_allclose(got, want, rtol=0, atol=_rounding_bound(path, kw, values)
                               + _rounding_bound(on_box, kw, values[box]))


class TestBellmanOperators:
    def test_t0_claim_free_limit(self):
        p0 = ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=0.0, q=0.05)
        g = small_grid()
        kern = build_claim_kernel(p0, Exponential(0.6), g)
        v = random_field(g, seed=4)
        got = op_T0(kern, v, 3, 3)
        assert got == pytest.approx(v.values[4, 4] * math.exp(-0.05 * g.delta))

    def test_t0_on_tall_linear_field_is_contraction(self):
        g = small_grid()
        kern = build_claim_kernel(PARAMS, Exponential(0.6), g)
        u = linear_field(g, const=2 * (PARAMS.c1 + PARAMS.c2) / PARAMS.q)
        for n in range(0, g.n_max + 1, 5):
            for m in range(0, g.m_max + 1, 5):
                assert op_T0(kern, u, n, m) <= u.values[n, m]

    def test_argmax_at_origin_is_e0(self):
        g = small_grid()
        kern = build_claim_kernel(PARAMS, Exponential(0.6), g)
        v = ValueField(g, np.zeros(g.shape))
        val, acts = op_T(kern, v, 0, 0)
        assert acts == {Action.E0}
        assert val == pytest.approx(op_T0(kern, v, 0, 0))

    def test_lumps_tie_on_unit_slope_field(self):
        g = small_grid()
        kern = build_claim_kernel(PARAMS, Exponential(0.6), g)
        u = linear_field(g, const=2 * (PARAMS.c1 + PARAMS.c2) / PARAMS.q)
        val, acts = op_T(kern, u, 5, 5)
        assert val <= u.values[5, 5] + 1e-12
        assert Action.E1 in acts and Action.E2 in acts

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monotonicity_in_field(self, seed):
        g = small_grid(delta=0.15, x1_max=3.0, x2_max=3.0)
        kern = build_claim_kernel(PARAMS, Erlang2(0.9), g)
        rng = np.random.default_rng(seed)
        lo = random_field(g, seed=seed)
        hi = ValueField(g, lo.values + rng.uniform(0, 0.7, g.shape))
        n = int(rng.integers(0, g.n_max + 1))
        m = int(rng.integers(0, g.m_max + 1))
        assert op_T0(kern, lo, n, m) <= op_T0(kern, hi, n, m) + 1e-12
        assert op_T(kern, lo, n, m)[0] <= op_T(kern, hi, n, m)[0] + 1e-12

    def test_shift_up_diag_edges(self):
        g = small_grid()
        v = random_field(g, seed=8)
        up = shift_up_diag(v.values, (g.dx1, g.dx2))
        assert up[2, 3] == v.values[3, 4]
        assert up[g.n_max, 3] == pytest.approx(v.values[g.n_max, 4] + g.dx1)
        assert up[2, g.m_max] == pytest.approx(v.values[3, g.m_max] + g.dx2)
        assert up[g.n_max, g.m_max] == pytest.approx(
            v.values[g.n_max, g.m_max] + g.dx1 + g.dx2
        )


class TestGreedyStep:
    @settings(max_examples=60, deadline=None)
    @given(shape=st.one_of(st.tuples(st.integers(3, 60)),
                           st.tuples(st.integers(3, 14), st.integers(3, 14))),
           law=st.sampled_from([Exponential(0.6), Erlang2(0.9), Deterministic(0.45)]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_the_operator_fields(self, shape, law, seed):
        # a real scheme's claim field at a random table, with T0 moved at some
        # nodes onto the best lump exactly, or within or just past the tie and
        # keep tolerances of it, on either side, and then at a few other
        # nodes T0 or the best lump exactly at the tie bound, best - eps_tie;
        # on 2D grids some nodes also get two exactly tied lumps.  The greedy
        # step must give the oracle's tie sets, tie tolerance and residual
        # bit for bit, and the greedy action of the exact-tie and keep rules
        # for a random previous policy
        rng = np.random.default_rng(seed)
        if len(shape) == 1:
            scheme = solver1d._scheme(solver1d.make_auxiliary_problem(PARAMS, law, "wbar"),
                                      0.1, shape[0])
        else:
            grid = GridSpec(delta=0.1, dx1=0.2, dx2=0.1, n_max=shape[0] - 1, m_max=shape[1] - 1)
            scheme = build_claim_kernel(PARAMS, law, grid).scheme
        axes = np.meshgrid(*[np.arange(s) * dx for s, dx in zip(shape, scheme.dxs)],
                           indexing="ij")
        v = sum(axes) + rng.uniform(0.0, 0.5, shape)
        if len(shape) == 2:
            for n, m in zip(rng.integers(1, shape[0], 6), rng.integers(1, shape[1], 6)):
                v[n, m - 1] = _planted(v[n - 1, m] + scheme.dxs[0], scheme.dxs[1])
        cf = scheme.claim(v)
        scheme = scheme._replace(claim=lambda u: cf.copy())
        drift = operator_fields(v, scheme._replace(claim=np.zeros_like))[0]
        fields = np.array(operator_fields(v, scheme))
        lump = fields[1:].max(axis=0)
        top = 1.0 + abs(float(fields.max()))
        eps, keep = hjb2d.EPS_TIE_REL * top, hjb2d._KEEP_REL * top
        gaps = [0.0] + [sign * g for sign in (-1, 1) for g in
                        (0.5 * keep, 2 * keep, eps * (1 - 1e-3), eps * (1 + 1e-3))]
        prev = rng.integers(-1, len(shape) + 1, shape).astype(np.int8)
        at = np.flatnonzero(np.isfinite(lump))
        for i in rng.choice(at, min(at.size, 12), replace=False):
            idx = np.unravel_index(i, shape)
            cf[idx] = _planted(lump[idx] + gaps[rng.integers(len(gaps))], drift[idx])
            prev[idx] = 0 if rng.random() < 0.5 else np.argmax(fields[(np.s_[1:],) + idx]) + 1
        # the bound plants move no node's max to the table's max, so eps_tie stays
        fields = np.array(operator_fields(v, scheme))
        best = fields.max(axis=0)
        eps = tie_epsilon(float(best.max()))
        low = np.flatnonzero(np.isfinite(lump) & (np.maximum(best, lump + 2 * eps) < best.max()))
        for i in rng.choice(low, min(low.size, 4), replace=False):
            idx = np.unravel_index(i, shape)
            if fields[0][idx] < lump[idx]:  # T0 at the bound below the lump
                cf[idx] = _planted(lump[idx] - eps, drift[idx])
            else:  # T0 where the lump sits at the bound below it
                t0 = lump[idx] + eps
                for _ in range(4):
                    t0 = np.nextafter(t0, t0 + (lump[idx] - (t0 - eps)))
                cf[idx] = _planted(t0, drift[idx])

        fields = np.array(operator_fields(v, scheme))
        best = fields.max(axis=0)
        want_eps = tie_epsilon(float(best.max()))
        want_ties = sum((f >= best - want_eps).astype(np.uint8) << a
                        for a, f in enumerate(fields))
        want_resid = abs(float((best - v)[(np.s_[:-1],) * v.ndim].max()))
        want_pref = np.zeros(shape, dtype=np.int8)
        for code in reversed(range(1, len(shape) + 1)):
            want_pref[fields[code] == best] = code
        prev_gap = np.take_along_axis(fields, np.maximum(prev, 0)[None], 0)[0] - best
        kept = (prev >= 0) & (prev_gap >= -hjb2d._KEEP_REL * (1.0 + abs(float(best.max()))))
        want_pref[kept] = prev[kept]

        pref = np.empty(shape, dtype=np.int8)
        ties, got_eps, resid = greedy_step(scheme, v.copy(), prev.copy(), pref,
                                           np.empty(shape), np.empty(shape))
        assert ties.dtype == np.uint8
        np.testing.assert_array_equal(ties, want_ties)
        assert got_eps == want_eps
        assert resid == want_resid
        np.testing.assert_array_equal(pref, want_pref)

    def test_planted_ties_land_where_meant(self):
        # the plants of the property above: an exact tie is exact, T0 just
        # inside or just past the tie tolerance of a lump lands in or out of
        # the tie set, and T0 exactly at the bound lands in it
        grid = GridSpec(delta=0.1, dx1=0.2, dx2=0.1, n_max=5, m_max=5)
        scheme = build_claim_kernel(PARAMS, Exponential(0.6), grid).scheme
        v = linear_field(grid, const=3.0).values
        fields = operator_fields(v, scheme)
        eps = tie_epsilon(float(np.max(fields, axis=0).max()))
        cf = scheme.claim(v)
        drift = operator_fields(v, scheme._replace(claim=np.zeros_like))[0]
        lump = max(fields[1][3, 3], fields[2][3, 3])  # the two lumps, an ulp apart or tied
        for target, tied in ((lump, True), (lump - eps * (1 - 1e-3), True), (lump - eps, True),
                             (lump - eps * (1 + 1e-3), False)):
            cf[3, 3] = _planted(target, drift[3, 3])
            assert drift[3, 3] + cf[3, 3] == target
            planted = scheme._replace(claim=lambda u: cf.copy())
            ties = greedy_step(planted, v, np.full(v.shape, -1, dtype=np.int8),
                               np.empty(v.shape, dtype=np.int8), np.empty(v.shape),
                               np.empty(v.shape))[0]
            assert ties[3, 3] == (Action.E0 if tied else 0) | Action.E1 | Action.E2


def _planted(target, a):
    """c with a + c == target exactly where a few ulps of c can make it, and
    c = target - a (rounded) elsewhere."""
    c = target - a
    for _ in range(4):
        got = a + c
        if got == target:
            break
        c = np.nextafter(c, c + (target - got))
    return c


class TestContinuousL:
    def test_constant_field_no_claims(self):
        # finite differences over a full grid step see only the table, so a
        # constant table has vanishing partials and L reduces to -q*K
        p0 = ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=0.0, q=0.05)
        g = small_grid()
        v = ValueField(g, np.full(g.shape, 7.0))
        got = continuous_L(v, 1.0, 1.0, p0, Exponential(0.6))
        assert got == pytest.approx(-p0.q * 7.0)

    def test_tall_linear_field_negative(self):
        g = small_grid()
        K = 2 * (PARAMS.c1 + PARAMS.c2) / PARAMS.q
        u = linear_field(g, const=K)
        law = Exponential(0.6)
        for x in [(0.5, 0.5), (1.0, 2.0), (2.5, 1.0)]:
            val = continuous_L(u, x[0], x[1], PARAMS, law)
            assert val <= PARAMS.c1 + PARAMS.c2 - PARAMS.q * K + 1e-9
            assert val < 0

    def test_outside_domain_rejected(self):
        g = small_grid()
        v = random_field(g)
        with pytest.raises(ValueError):
            continuous_L(v, 100.0, 1.0, PARAMS, Exponential(0.6))
