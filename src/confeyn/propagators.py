"""Euclidean position-space propagators with independent numeric oracles.

Conventions (D = 2*lam + 2 throughout):

* massless real:      G_0(x) = ||x||^(2-D)
* massive real:       G_m(x) = (2 pi)^(-D/2) m^(D-2) (m||x||)^(-(D-2)/2) K_{(D-2)/2}(m||x||)
* massless complex:   -(D-2)!/(2 pi i)^D ||x||^(2-2D), phase kept as exact metadata
* massive complex:    (2 pi)^(-D) m^(D-1) ||x||^(-(D-1)) K_{D-1}(m||x||)
* Dirac:              S = (-i dslash + m) G_{sqrt(m)}, returned as the pair of
                      coefficients of i gamma^mu x_mu and of the identity
* vector boson:       Stueckelberg-gauge combination of G_{sqrt(m)} and
                      G_{sqrt(m/alpha)} second derivatives

The mass convention difference is deliberate: the scalar/Helmholtz sections
use momentum denominators ||k||^2 + m^2 while the Dirac/boson ones use
||k||^2 + m (hence the sqrt(m) kernels); both are surfaced as written.

No kernel returns a silent 0, inf or nan: the four scalar kernels raise
ValueError when their value, or the K_nu inside it, is outside the normal
doubles, and take summed logarithms where only the plain product of their
factors leaves that range (:func:`_normal_product`); the Dirac and boson
kernels raise ValueError on a non-finite value.

An independent route to the massive kernel is provided here: the heat-kernel
integral representation

    G_m(x) = (4 pi)^(-D/2) Integral_0^inf t^(-D/2) exp(-t m^2 - ||x||^2/(4t)) dt

evaluated by trapezoid quadrature after t = e^u (double-exponential decay).
The finite-difference checks of the Helmholtz / Dirac / boson defining
relations live with the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .specfun import bessel_k, bessel_k_ladder


class DiagonalError(ValueError):
    """Evaluation requested on the diagonal x = 0, where propagators diverge."""


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested accuracy."""

    def __init__(self, message: str, estimate: float):
        super().__init__(f"{message} (achieved error estimate {estimate:.3e})")
        self.estimate = estimate


@dataclass(frozen=True)
class Kinematics:
    """Spacetime dimension, separation vector, and mass for one edge."""
    D: int
    x: tuple[float, ...]
    m: float = 0.0

    def __post_init__(self):
        if not isinstance(self.D, int) or self.D < 3:
            raise ValueError(f"D must be an integer >= 3, got {self.D}")
        object.__setattr__(self, "x", tuple(float(c) for c in self.x))
        if len(self.x) != self.D:
            raise ValueError(f"x must have D = {self.D} components, got {len(self.x)}")
        if not all(math.isfinite(c) for c in (*self.x, self.m)):
            raise ValueError(f"coordinates and mass must be finite, got x={self.x}, m={self.m}")
        if self.m < 0:
            raise ValueError("mass must be >= 0")

    @property
    def lam(self) -> Fraction:
        return Fraction(self.D - 2, 2)

    @property
    def r(self) -> float:
        return math.sqrt(sum(c * c for c in self.x))

    @classmethod
    def radial(cls, D: int, r: float, m: float = 0.0) -> "Kinematics":
        """Separation of length r along the first axis."""
        return cls(D, (r,) + (0.0,) * (D - 1), m)


def _require_off_diagonal(k: Kinematics) -> float:
    r = k.r
    if r == 0.0:
        raise DiagonalError("propagator evaluated at x = 0 (diagonal singularity)")
    return r


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal doubles


def _normal_product(name: str, k: Kinematics, factors: Sequence[tuple[float, float]],
                    bessel: float = 1.0) -> float:
    """The product of base ** exponent over ``factors`` (positive bases),
    times the value ``bessel`` of K_nu: computed as that product, in order,
    when every factor and every partial product are normal doubles, and as
    exp of the summed logs otherwise.  Raises ValueError when K_nu or the
    value of ``name`` at ``k`` is outside the normal doubles."""
    value = 1.0
    try:
        for base, e in factors:
            x = base ** e
            value *= x
            if not (_TINY <= x <= _HUGE and _TINY <= value <= _HUGE):
                break
        else:
            value *= bessel
            if _TINY <= value <= _HUGE and _TINY <= bessel <= _HUGE:
                return value
    except OverflowError:  # a factor beyond the doubles
        pass
    what = f"|{name}| at D = {k.D}, m = {k.m}, r = {k.r}"
    if not _TINY <= bessel <= _HUGE:
        raise ValueError(f"{what}: K_nu = {bessel} is outside the normal doubles")
    log_value = sum(e * math.log(base) for base, e in factors) + math.log(bessel)
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not _TINY <= value <= _HUGE:
        raise ValueError(f"{what} = exp({log_value:.6g}) is outside the normal doubles")
    return value


def g0_real(k: Kinematics) -> float:
    """Massless propagator ||x||^(2-D)."""
    r = _require_off_diagonal(k)
    return _normal_product("g0_real", k, ((r, 2 - k.D),))


def gm_real(k: Kinematics) -> float:
    """Massive propagator via the Macdonald function."""
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("gm_real requires m > 0")
    nu = (k.D - 2) / 2.0
    z = k.m * r
    return _normal_product("gm_real", k,
                           ((2 * math.pi, -k.D / 2.0), (k.m, k.D - 2), (z, -nu)),
                           bessel_k(nu, z))


@dataclass(frozen=True)
class QuadratureConfig:
    """Trapezoid rule on u in [-L, L] after t = e^u, with refinement check;
    L is chosen from m and r."""
    points: int = 1600
    target: float = 1e-10


def gm_integral(k: Kinematics, quad: QuadratureConfig | None = None) -> float:
    """Heat-kernel integral representation of the massive propagator.

    Independent of the Bessel route; raises :class:`QuadratureError` with the
    achieved estimate if the refinement check misses the target.
    """
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("gm_integral requires m > 0")
    if quad is None:
        quad = QuadratureConfig()
    # after t = e^u the integrand is exp((1 - D/2) u - m^2 e^u - (r^2/4) e^-u);
    # choose L so both exponential walls are far below double precision
    L = 6.0 + max(abs(math.log(45.0 / k.m ** 2)), abs(math.log(4 * 45.0 / r ** 2)))

    def scan(points: int) -> float:
        h = 2 * L / points
        total = 0.0
        for i in range(points + 1):
            u = -L + i * h
            w = 1.0 if 0 < i < points else 0.5
            expo = (1 - k.D / 2.0) * u - k.m ** 2 * math.exp(u) - (r * r / 4.0) * math.exp(-u)
            if expo > -745.0:
                total += w * math.exp(expo)
        return total * h * (4 * math.pi) ** (-k.D / 2.0)

    coarse = scan(quad.points // 2)
    fine = scan(quad.points)
    estimate = abs(fine - coarse) / max(abs(fine), 1e-300)
    if estimate > quad.target:
        raise QuadratureError("heat-kernel quadrature did not converge", estimate)
    return fine


@dataclass(frozen=True)
class ComplexPhase:
    """Exact phase i^i_power times a positive magnitude."""
    magnitude: float
    i_power: int  # 0..3


def g0_complex(k: Kinematics) -> ComplexPhase:
    """Massless complex propagator -(D-2)!/(2 pi i)^D ||x||^(2-2D).

    The magnitude is a float; the overall sign and power of i are exact
    metadata so period bookkeeping stays exact.
    """
    r = _require_off_diagonal(k)
    D = k.D
    magnitude = _normal_product("g0_complex", k, (
        (math.factorial(D - 2), 1), (2 * math.pi, -D), (r, 2 - 2 * D)))
    # -1/i^D = i^(2-D mod 4)
    return ComplexPhase(magnitude, (2 - D) % 4)


def gm_complex(k: Kinematics) -> float:
    """Massive complex propagator (2 pi)^(-D) m^(D-1) ||x||^(-(D-1)) K_{D-1}(m||x||)."""
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("gm_complex requires m > 0")
    nu = k.D - 1
    return _normal_product("gm_complex", k,
                           ((2 * math.pi, -k.D), (k.m, nu), (r, -nu)), bessel_k(nu, k.m * r))


def diag_continuation(D: int, m: float) -> float:
    """Analytic continuation (4 pi)^(-D/2) m^(D-2) Gamma(1 - D/2) on the
    diagonal; finite for odd D only (even D diverges)."""
    if D % 2 == 0:
        raise DiagonalError(f"diagonal value diverges in even dimension D={D}")
    if m <= 0:
        raise ValueError("diag_continuation requires m > 0")
    return (4 * math.pi) ** (-D / 2.0) * m ** (D - 2) * math.gamma(1 - D / 2.0)


@dataclass(frozen=True)
class DiracCoeffs:
    """S(x) = a * (i gamma^mu x_mu) + b * 1."""
    a: float
    b: float


def dirac_propagator(k: Kinematics) -> DiracCoeffs:
    """Euclidean Dirac propagator coefficients, from S = (-i dslash + m) G_{sqrt(m)}.

    Requires integer lam >= 1 (even dimension D = 2 lam + 2).
    """
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("dirac_propagator requires m > 0")
    lam = k.lam
    if lam.denominator != 1 or lam < 1:
        raise ValueError("Dirac coefficients need integer lam = (D-2)/2 >= 1")
    lam = float(lam)
    sm = math.sqrt(k.m)
    z = sm * r
    pref = (2 * math.pi) ** (-(lam + 1)) * k.m ** (lam / 2.0)
    k_lm1, k_lam, k_lp1 = bessel_k_ladder(lam - 1, z, 2)
    a = pref * r ** (-(lam + 1)) * ((lam / r) * k_lam + (sm / 2.0) * (k_lm1 + k_lp1))
    b = pref * k.m * r ** (-lam) * k_lam
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"Dirac coefficients at D = {k.D}, m = {k.m}, r = {r} are not finite")
    return DiracCoeffs(a, b)


def _scalar_radial_derivs(D: int, mass: float, r: float) -> tuple[float, float, float]:
    """(G, G', G'') for G(r) = (2 pi)^(-(lam+1)) mass^lam r^(-lam) K_lam(mass r),
    using K_nu'(z) = -(K_{nu+1} + K_{nu-1})/2 with K_{-nu} = K_nu; the five
    orders lam-2 .. lam+2 come from one ladder."""
    lam = (D - 2) / 2.0
    pref = (2 * math.pi) ** (-(lam + 1)) * mass ** lam
    low = min(abs(lam - 2), abs(lam - 1))
    ks = bessel_k_ladder(low, mass * r, round(lam + 2 - low))

    def k(order):
        return ks[round(abs(order) - low)]
    k0 = k(lam)
    kp = -(k(lam + 1) + k(lam - 1)) / 2.0
    kpp = (k(lam + 2) + 2.0 * k0 + k(lam - 2)) / 4.0
    g = pref * r ** (-lam) * k0
    gp = pref * (-lam * r ** (-lam - 1) * k0 + r ** (-lam) * mass * kp)
    gpp = pref * (lam * (lam + 1) * r ** (-lam - 2) * k0
                  - 2.0 * lam * mass * r ** (-lam - 1) * kp
                  + mass * mass * r ** (-lam) * kpp)
    return g, gp, gpp


def _second_partial(x: Sequence[float], r: float, gp: float, gpp: float,
                    mu: int, nu: int) -> float:
    """d_mu d_nu of a radial kernel at x from its radial derivatives G', G''."""
    delta = 1.0 if mu == nu else 0.0
    return delta * gp / r + x[mu] * x[nu] * (gpp - gp / r) / (r * r)


def boson_propagator(k: Kinematics, alpha: float, mu: int, nu: int) -> float:
    """Massive vector-boson propagator component in the Stueckelberg gauge:

        g_{mu nu} G_{sqrt(m)} + (1/m^2)(d_mu d_nu G_{sqrt(m/alpha)} - d_mu d_nu G_{sqrt(m)})
    """
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("boson_propagator requires m > 0")
    if alpha <= 0:
        raise ValueError("gauge parameter alpha must be positive")
    if not (0 <= mu < k.D and 0 <= nu < k.D):
        raise ValueError("index out of range")
    m1 = math.sqrt(k.m)
    if alpha == 1.0:  # the derivative terms cancel identically
        return (1.0 if mu == nu else 0.0) * gm_real(Kinematics(k.D, k.x, m1))
    g1, gp1, gpp1 = _scalar_radial_derivs(k.D, m1, r)
    _, gp2, gpp2 = _scalar_radial_derivs(k.D, math.sqrt(k.m / alpha), r)
    dd = (_second_partial(k.x, r, gp2, gpp2, mu, nu)
          - _second_partial(k.x, r, gp1, gpp1, mu, nu))
    value = (1.0 if mu == nu else 0.0) * g1 + dd / (k.m ** 2)
    if not math.isfinite(value):
        raise ValueError(f"boson propagator at D = {k.D}, m = {k.m}, r = {r} is not finite")
    return value
