import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from divopt.model import (
    Deterministic,
    Erlang2,
    Exponential,
    GridSpec,
    ModelParams,
    SurplusPoint,
    integrate_affine,
    region_of,
    validate_params,
)

LAWS = [Exponential(0.6), Erlang2(0.5), Erlang2(6 / 7), Deterministic(29 / 12)]


class TestValidateParams:
    def test_example1_params_strict(self):
        p = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
        assert p.regime == "strict"

    def test_symmetric_params(self):
        p = validate_params(ModelParams(c1=21.4, c2=21.4, b1=0.5, b2=0.5, lam=10, q=0.1))
        assert p.regime == "symmetric"

    def test_reversed_normalization_rejected(self):
        with pytest.raises(ValueError, match="normalization"):
            validate_params(ModelParams(c1=1, c2=2, b1=0.5, b2=0.5, lam=1, q=0.05))

    def test_bad_proportions_rejected(self):
        with pytest.raises(ValueError, match="b1 \\+ b2"):
            validate_params(ModelParams(c1=2, c2=1, b1=0.6, b2=0.5, lam=1, q=0.05))

    @pytest.mark.parametrize("field,value", [("c1", -1.0), ("q", 0.0), ("lam", -2.0)])
    def test_nonpositive_rates_rejected(self, field, value):
        kw = dict(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05)
        kw[field] = value
        with pytest.raises(ValueError):
            validate_params(ModelParams(**kw))


class TestClaimCdf:
    def test_exponential_at_origin(self):
        assert Exponential(0.6).cdf(0.0) == 0.0

    def test_erlang2_analytic_point(self):
        # 1 - (1 + 0.5*2) e^{-0.5*2} = 1 - 2/e
        assert Erlang2(0.5).cdf(2.0) == pytest.approx(1 - 2 / math.e, abs=1e-15)

    def test_deterministic_step(self):
        law = Deterministic(29 / 12)
        assert law.cdf(2.0) == 0.0
        assert law.cdf(3.0) == 1.0
        assert law.cdf(29 / 12) == 1.0

    @pytest.mark.parametrize("law", LAWS)
    def test_monotone_bounded(self, law):
        xs = np.linspace(0, 20, 200)
        c = law.cdf(xs)
        assert np.all(np.diff(c) >= 0)
        assert np.all((c >= 0) & (c <= 1))
        assert law.cdf(1e9) == pytest.approx(1.0)
        assert law.cdf(-0.5) == 0.0


class TestIntegrateAffine:
    def test_deterministic_point_mass(self):
        law = Deterministic(2.0)
        assert integrate_affine(law, 0.0, 3.0, 1.5, 2.0) == pytest.approx(1.5 + 2.0 * 2.0)
        assert integrate_affine(law, 2.5, 3.0, 1.5, 2.0) == 0.0

    # the closed-form means of LAWS: 1/rate, 2/rate, 2/rate and the atom
    @pytest.mark.parametrize("law,mean", zip(LAWS, [1 / 0.6, 2 / 0.5, 2 / (6 / 7), 29 / 12]),
                             ids=[f"law{i}" for i in range(len(LAWS))])
    def test_mean_recovered(self, law, mean):
        assert integrate_affine(law, 0.0, math.inf, 0.0, 1.0) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("law", LAWS)
    def test_empty_interval(self, law):
        assert integrate_affine(law, 1.3, 1.3, 5.0, 7.0) == 0.0

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            integrate_affine(Exponential(1.0), 2.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate_affine(Exponential(1.0), -0.1, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("law", LAWS)
    def test_indicator_matches_cdf_increment(self, law):
        for a, b in [(0.0, 1.0), (0.5, 2.5), (2.0, 7.0)]:
            got = integrate_affine(law, a, b, 1.0, 0.0)
            if isinstance(law, Deterministic):
                expect = 1.0 if a < law.atom <= b else 0.0
            else:
                expect = float(law.cdf(b) - law.cdf(a))
            assert got == pytest.approx(expect, abs=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        cuts=st.lists(st.floats(0.01, 9.9), min_size=1, max_size=6),
        p=st.floats(-2, 2),
        s=st.floats(-2, 2),
        law_idx=st.integers(0, len(LAWS) - 1),
    )
    def test_additive_over_partitions(self, cuts, p, s, law_idx):
        law = LAWS[law_idx]
        pts = sorted({0.0, 10.0, *cuts})
        whole = integrate_affine(law, pts[0], pts[-1], p, s)
        parts = sum(
            integrate_affine(law, a, b, p, s) for a, b in zip(pts[:-1], pts[1:])
        )
        assert parts == pytest.approx(whole, abs=1e-12 * (1 + abs(whole)))

    @pytest.mark.parametrize("law", [Exponential(0.6), Erlang2(0.5)])
    def test_matches_adaptive_quadrature(self, law):
        rng = np.random.default_rng(5)
        if isinstance(law, Exponential):
            dens = lambda u: law.rate * math.exp(-law.rate * u)
        else:
            dens = lambda u: law.rate**2 * u * math.exp(-law.rate * u)
        for _ in range(6):
            a, b = sorted(rng.uniform(0, 8, 2))
            p, s = rng.uniform(-3, 3, 2)
            ref, _ = quad(lambda u: (p + s * u) * dens(u), a, b, epsabs=1e-14, epsrel=1e-13)
            got = integrate_affine(law, a, b, p, s)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("law", [Exponential(0.6), Erlang2(6 / 7)])
    def test_weighted_moments_shift_consistent(self, law):
        a, b, gamma, ref = 2.0, 3.5, 1.7, 1.5
        e0, e1 = law.weighted_moments(a, b, gamma, ref=ref)
        f0, f1 = law.weighted_moments(a, b, gamma)
        scale = math.exp(gamma * ref)
        assert e0 == pytest.approx(scale * f0, rel=1e-12)
        assert e1 == pytest.approx(scale * f1, rel=1e-12)


class TestGridAndPoints:
    def test_grid_spacings_exact(self):
        p = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
        g = GridSpec.make(p, delta=0.03, x1_max=14, x2_max=14)
        assert g.dx1 == 2 * 0.03
        assert g.dx2 == 1 * 0.03
        assert g.n_max == round(14 / 0.06)
        assert g.m_max == round(14 / 0.03)

    def test_grid_too_coarse_rejected(self):
        p = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
        with pytest.raises(ValueError):
            GridSpec.make(p, delta=1.0, x1_max=2, x2_max=14)

    def test_surplus_point_validation(self):
        with pytest.raises(ValueError):
            SurplusPoint(-1.0, 2.0)
        with pytest.raises(ValueError):
            SurplusPoint(math.nan, 2.0)

    def test_region_classification(self):
        p = validate_params(ModelParams(c1=2, c2=1, b1=0.5, b2=0.5, lam=1, q=0.05))
        assert region_of(p, 3.0, 1.0) == "D1"
        assert region_of(p, 1.0, 3.0) == "D2"
        assert region_of(p, 2.0, 2.0) == "M"
