"""Risk-model parameters, claim-size laws, and grid geometry.

All quadrature elsewhere in the package reduces to exact moments of the
claim law against exponential weights, so each law implements

    weighted_moments(a, b, gamma) = ( int_a^b e^{-g*u} dG(u),
                                      int_a^b u e^{-g*u} dG(u) )

in closed form.  Intervals are half-open (a, b] so that partitions add up
exactly, also for laws with atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "ClaimLaw",
    "Exponential",
    "Erlang2",
    "Deterministic",
    "GridSpec",
    "SurplusPoint",
    "validate_params",
    "integrate_affine",
    "region_of",
]


@dataclass(frozen=True)
class ModelParams:
    """Premium rates, claim split proportions, claim intensity, discount rate.

    Branch 1 is the one receiving more premium per unit of claim paid,
    c1/b1 >= c2/b2; callers with reversed branches must swap labels.
    """

    c1: float
    c2: float
    b1: float
    b2: float
    lam: float
    q: float

    @property
    def regime(self) -> str:
        """'symmetric' when c1/b1 == c2/b2, else 'strict'."""
        return "symmetric" if self.c1 * self.b2 == self.c2 * self.b1 else "strict"

    @property
    def is_symmetric(self) -> bool:
        return self.regime == "symmetric"


def validate_params(p: ModelParams) -> ModelParams:
    """Check all parameter invariants; returns p unchanged if valid.

    Raises ValueError on nonpositive rates, b1 + b2 != 1, or a violated
    branch normalization c1/b1 >= c2/b2.
    """
    for name in ("c1", "c2", "b1", "b2", "lam", "q"):
        v = getattr(p, name)
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
            raise ValueError(f"{name} must be a finite number, got {v!r}")
    if p.c1 <= 0 or p.c2 <= 0:
        raise ValueError("premium rates c1, c2 must be positive")
    if p.b1 <= 0 or p.b2 <= 0:
        raise ValueError("claim proportions b1, b2 must be positive")
    if abs(p.b1 + p.b2 - 1.0) > 1e-12:
        raise ValueError(f"claim proportions must satisfy b1 + b2 = 1, got {p.b1 + p.b2}")
    if p.lam <= 0:
        raise ValueError("claim intensity lam must be positive")
    if p.q <= 0:
        raise ValueError("discount rate q must be positive")
    if p.c1 * p.b2 < p.c2 * p.b1:
        raise ValueError(
            "branch normalization violated: need c1/b1 >= c2/b2 "
            "(swap the branch labels and try again)"
        )
    return p


class ClaimLaw:
    """Base class for claim-size distributions with exact affine moments."""

    def cdf(self, x):
        raise NotImplementedError

    def weighted_moments(self, a, b, gamma, ref=0.0):
        """Return (E0, E1) with Ek = int_(a,b] u^k e^{-gamma*(u - ref)} dG(u).

        a, b may be arrays (broadcast together); b may be +inf.  gamma is a
        nonnegative scalar; ref (scalar or array) must satisfy ref <= a so
        exponents stay nonpositive.
        """
        raise NotImplementedError

    def sample(self, rng, size):
        raise NotImplementedError


def _exp_poly(a, b, s, off=0.0):
    """Closed-form (I0, I1, I2) with Ik = int_a^b u^k e^{off - s*u} du, s > 0.

    Supports b = +inf; equal endpoints give 0.  Callers keep off <= s*a so
    every exponent is nonpositive and nothing overflows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ea = np.exp(off - s * a)
    finite_b = np.isfinite(b)
    bb = np.where(finite_b, b, 0.0)
    eb = np.where(finite_b, np.exp(off - s * bb), 0.0)
    i0 = (ea - eb) / s
    i1 = (a / s + 1.0 / s**2) * ea - np.where(finite_b, (bb / s + 1.0 / s**2) * eb, 0.0)
    i2 = ((a**2 / s + 2.0 * a / s**2 + 2.0 / s**3) * ea
          - np.where(finite_b, (bb**2 / s + 2.0 * bb / s**2 + 2.0 / s**3) * eb, 0.0))
    return i0, i1, i2


@dataclass(frozen=True)
class Exponential(ClaimLaw):
    """Claim law G(x) = 1 - exp(-rate * x)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("Exponential rate must be a positive finite number")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, 1.0 - np.exp(-self.rate * np.maximum(x, 0.0)))

    def weighted_moments(self, a, b, gamma, ref=0.0):
        d = self.rate
        s = d + gamma
        i0, i1, _ = _exp_poly(a, b, s, off=gamma * np.asarray(ref, dtype=float))
        return d * i0, d * i1

    def sample(self, rng, size):
        return rng.exponential(1.0 / self.rate, size)


@dataclass(frozen=True)
class Erlang2(ClaimLaw):
    """Claim law G(x) = 1 - (1 + rate*x) exp(-rate*x), density rate^2 x e^{-rate x}."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("Erlang2 rate must be a positive finite number")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xr = self.rate * np.maximum(x, 0.0)
        return np.where(x < 0, 0.0, 1.0 - (1.0 + xr) * np.exp(-xr))

    def weighted_moments(self, a, b, gamma, ref=0.0):
        r = self.rate
        s = r + gamma
        _, i1, i2 = _exp_poly(a, b, s, off=gamma * np.asarray(ref, dtype=float))
        return r**2 * i1, r**2 * i2

    def sample(self, rng, size):
        return rng.gamma(2.0, 1.0 / self.rate, size)


@dataclass(frozen=True)
class Deterministic(ClaimLaw):
    """Constant claim size: all mass at `atom` (> 0), right-continuous cdf."""

    atom: float

    def __post_init__(self):
        if not (self.atom > 0 and math.isfinite(self.atom)):
            raise ValueError("Deterministic atom must be a positive finite number")

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, (x >= self.atom).astype(float))

    def weighted_moments(self, a, b, gamma, ref=0.0):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        hit = (a < self.atom) & (self.atom <= b)
        e0 = np.where(hit, np.exp(-gamma * (self.atom - np.asarray(ref, dtype=float))), 0.0)
        return e0, self.atom * e0

    def sample(self, rng, size):
        return np.full(size, self.atom)


def integrate_affine(law: ClaimLaw, a, b, p, s):
    """Exact value of int_(a,b] (p + s*u) dG(u).

    0 <= a <= b required; b may be +inf.  Additive over partitions of
    (a, b], including for laws with atoms.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr < 0):
        raise ValueError("lower limit must be nonnegative")
    if np.any(a_arr > b_arr):
        raise ValueError("need a <= b")
    e0, e1 = law.weighted_moments(a_arr, b_arr, 0.0)
    out = p * e0 + s * e1
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class GridSpec:
    """Grid with spacings dx1 = c1*delta, dx2 = c2*delta and truncation indices."""

    delta: float
    dx1: float
    dx2: float
    n_max: int
    m_max: int

    def __post_init__(self):
        if not (self.delta > 0):
            raise ValueError("delta must be positive")
        if self.n_max < 2 or self.m_max < 2:
            raise ValueError("truncation indices n_max, m_max must be >= 2")

    @classmethod
    def make(cls, params: ModelParams, delta: float, x1_max: float, x2_max: float):
        dx1 = params.c1 * delta
        dx2 = params.c2 * delta
        return cls(
            delta=delta,
            dx1=dx1,
            dx2=dx2,
            n_max=int(round(x1_max / dx1)),
            m_max=int(round(x2_max / dx2)),
        )

    @property
    def shape(self):
        return (self.n_max + 1, self.m_max + 1)

    @property
    def x1_max(self):
        return self.n_max * self.dx1

    @property
    def x2_max(self):
        return self.m_max * self.dx2


@dataclass(frozen=True)
class SurplusPoint:
    """Initial surplus (x1, x2), both coordinates finite and >= 0."""

    x1: float
    x2: float

    def __post_init__(self):
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise ValueError("surplus coordinates must be finite")
        if self.x1 < 0 or self.x2 < 0:
            raise ValueError("surplus coordinates must be nonnegative")


def region_of(params: ModelParams, x1: float, x2: float) -> str:
    """Classify (x1, x2) as 'D1' (below the proportional ray), 'D2' (above), or 'M'."""
    lhs = (params.b2 / params.b1) * x1
    if lhs > x2:
        return "D1"
    if lhs < x2:
        return "D2"
    return "M"
