"""Euclidean position-space propagators with independent numeric oracles.

Conventions (D = 2*lam + 2 throughout):

* massless real:      G_0(x) = ||x||^(2-D)
* massive real:       G^(D)_m(x) = (2 pi)^(-D/2) m^(D-2) (m||x||)^(-(D-2)/2) K_{(D-2)/2}(m||x||)
* massless complex:   -(D-2)!/(2 pi i)^D ||x||^(2-2D), phase kept as exact metadata
* massive complex:    (2 pi)^(-D) m^(D-1) ||x||^(-(D-1)) K_{D-1}(m||x||) = G^(2D)_m(x)
* Dirac:              S = (-i dslash + m) G_{sqrt(m)}, returned as the pair of
                      coefficients of i gamma^mu x_mu and of the identity
* vector boson:       Stueckelberg-gauge combination of G_{sqrt(m)} and
                      G_{sqrt(m/alpha)} second derivatives

The mass convention difference is deliberate: the scalar/Helmholtz sections
use momentum denominators ||k||^2 + m^2 while the Dirac/boson ones use
||k||^2 + m (hence the sqrt(m) kernels); both are surfaced as written.

Every massive kernel is the real kernel at a shifted dimension: by
d/dr [(m/r)^nu K_nu(m r)] = -r (m/r)^(nu+1) K_{nu+1}(m r) (DLMF 10.29),
d_mu G^(D) = -2 pi x_mu G^(D+2), so the Dirac coefficients are
2 pi G^(D+2) and m G^(D), and d_mu d_nu G^(D) = -2 pi delta_{mu nu} G^(D+2)
+ 4 pi^2 x_mu x_nu G^(D+4).  One ladder of K_nu gives G^(D), G^(D+2), ...
at one mass (:func:`_scalar_ladder`); each is a product of powers and K_nu
(:func:`_product`).  Both carry K_nu, a power or a partial product as a
double mantissa times a power of two, so a scalar kernel or a Dirac
coefficient is a normal double wherever its value is one (for m r above
about 1e-154, where no ladder step overflows).

No kernel returns a silent 0, inf or nan: each raises ValueError exactly
when its value is outside the normal doubles (:func:`_normal`), except a
boson component that is zero by symmetry.

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

from .specfun import bessel_k_ladder


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
        """||x||, without squaring, so no coordinate under- or overflows."""
        return math.hypot(*self.x)

    @classmethod
    def radial(cls, D: int, r: float, m: float = 0.0) -> "Kinematics":
        """Separation of length r >= 0 along the first axis."""
        if r < 0:
            raise ValueError(f"a radial separation needs r >= 0, got {r}")
        return cls(D, (r,) + (0.0,) * (D - 1), m)


def _require_off_diagonal(k: Kinematics) -> float:
    r = k.r
    if r == 0.0:
        raise DiagonalError("propagator evaluated at x = 0 (diagonal singularity)")
    if r == math.inf:
        raise ValueError(f"||x|| of x = {k.x} is beyond the doubles")
    return r


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal doubles
_LOW, _HIGH = 2.0 ** -500, 2.0 ** 500  # a product of two stays normal


def _power(base, x) -> tuple[float, int]:
    """base ** x as (mantissa, exponent): frexp of the power where it is a normal
    double, else of (base ** (x/2)) ** 2; an integer base sheds its bit length."""
    if isinstance(base, int):
        mantissa, exponent = _power(base / (1 << base.bit_length()), x)
        return mantissa, exponent + base.bit_length() * x
    try:
        p = base ** x
    except OverflowError:
        p = math.inf
    if _TINY <= p <= _HUGE:
        return math.frexp(p)
    mantissa, exponent = _power(base, x / 2)
    mantissa, k = math.frexp(mantissa * mantissa)
    return mantissa, 2 * exponent + k


def _product(factors: Sequence[tuple[float, float]],
             bessel: tuple[float, int] = (1.0, 0)) -> float:
    """The product of base ** x over ``factors``, in order, times K_nu as
    (mantissa, exponent); 0 or inf beyond the doubles.  A power or partial
    product outside [2^-500, 2^500] moves its exponent into a scale, which is
    exact: where the plain product is normal throughout, it is bit for bit."""
    value, scale = 1.0, bessel[1]
    for base, x in factors:
        try:
            p = base ** x
        except OverflowError:
            p = math.inf
        if not _LOW <= p <= _HIGH:
            p, k = _power(base, x)
            scale += k
        value *= p
        if not _LOW <= value <= _HIGH:
            value, k = math.frexp(value)
            scale += k
    if scale:  # so that value times the mantissa stays normal
        value, k = math.frexp(value)
        scale += k
    value *= bessel[0]
    if not scale:
        return value
    try:
        return math.ldexp(value, scale)
    except OverflowError:
        return math.inf


def _normal(name: str, D: int, m: float, r: float, value: float) -> float:
    """``value`` of ``name`` at (D, m, r); ValueError unless a normal double."""
    if not _TINY <= abs(value) <= _HUGE:
        raise ValueError(f"|{name}| at D = {D}, m = {m}, r = {r} = {value} "
                         "is outside the normal doubles")
    return value


def _scalar_ladder(D: int, M: float, r: float, n: int = 0) -> list[float]:
    """[G^(D), G^(D+2), ..., G^(D+2n)] of the real kernel at mass M and
    distance r, from one ladder of K_nu; each by :func:`_product`."""
    nu, z = (D - 2) / 2.0, M * r
    ladder = bessel_k_ladder(nu, z, n)
    for i, K in enumerate(ladder):  # G^(2 nu + 2) from K_nu, nu = (D-2)/2 + i
        ladder[i] = _product(((2 * math.pi, -1.0 - nu), (M, 2.0 * nu), (z, -nu)), K)
        nu += 1.0
    return ladder


def g0_real(k: Kinematics) -> float:
    """Massless propagator ||x||^(2-D)."""
    r = _require_off_diagonal(k)
    return _normal("g0_real", k.D, k.m, r, _product(((r, 2 - k.D),)))


def gm_real(k: Kinematics) -> float:
    """Massive propagator via the Macdonald function."""
    return _gm_real(k.D, _require_off_diagonal(k), k.m)


def _gm_real(D: int, r: float, m: float) -> float:
    """gm_real at D and r > 0 as :class:`Kinematics` checks them; checks m."""
    if not 0 < m < math.inf:
        raise ValueError(f"gm_real requires a finite m > 0, got {m}")
    return _normal("gm_real", D, m, r, _scalar_ladder(D, m, r)[0])


QUADRATURE_TARGET = 1e-10  # relative change of gm_integral when its step halves


def gm_integral(k: Kinematics, points: int = 1600) -> float:
    """Heat-kernel integral representation of the massive propagator: the
    trapezoid rule on u in [-L, L] after t = e^u, L chosen from m and r, with
    at least ``points`` (an int >= 2) steps, none wider than
    max(160 / points, 0.1).

    Independent of the Bessel route; raises :class:`QuadratureError` with the
    achieved estimate if the rule with half the steps differs by more than
    QUADRATURE_TARGET.  Raises ValueError where m^2 or r^2 is outside the
    normal doubles, or the value is.
    """
    if not isinstance(points, int) or points < 2:
        raise ValueError(f"gm_integral needs an integer points >= 2, got {points!r}")
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("gm_integral requires m > 0")
    if not (_TINY <= k.m * k.m <= _HUGE and _TINY <= r * r <= _HUGE):
        raise ValueError(f"gm_integral needs m^2 and r^2 inside the normal doubles, "
                         f"got m = {k.m}, r = {r}")
    # after t = e^u the integrand is exp((1 - D/2) u - m^2 e^u - (r^2/4) e^-u);
    # choose L so both exponential walls are far below double precision
    L = 6.0 + max(abs(math.log(45.0 / k.m ** 2)), abs(math.log(4 * 45.0 / r ** 2)))
    # the integrand's peak is about one unit of u wide wherever the walls put
    # it, so the step follows that width, not the span: it is at most 160 /
    # points (the default's step at L = 80), or 0.1 where that is finer, so a
    # wide span adds at most 20 L < 14,400 steps
    points = max(points, math.ceil(min(points / 80.0, 20.0) * L))

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

    coarse = scan(points // 2)
    fine = scan(points)
    estimate = abs(fine - coarse) / max(abs(fine), 1e-300)
    if estimate > QUADRATURE_TARGET:
        raise QuadratureError("heat-kernel quadrature did not converge", estimate)
    return _normal("gm_integral", k.D, k.m, r, fine)


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
    magnitude = _normal("g0_complex", D, k.m, r, _product((
        (math.factorial(D - 2), 1), (2 * math.pi, -D), (r, 2 - 2 * D))))
    # -1/i^D = i^(2-D mod 4)
    return ComplexPhase(magnitude, (2 - D) % 4)


def gm_complex(k: Kinematics) -> float:
    """Massive complex propagator (2 pi)^(-D) m^(D-1) ||x||^(-(D-1)) K_{D-1}(m||x||),
    evaluated as the real kernel in dimension 2D."""
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("gm_complex requires m > 0")
    return _normal("gm_complex", k.D, k.m, r, _scalar_ladder(2 * k.D, k.m, r)[0])


def diag_continuation(D: int, m: float) -> float:
    """Analytic continuation (4 pi)^(-D/2) m^(D-2) Gamma(1 - D/2) on the
    diagonal; finite for odd D only (even D diverges).  At D = 2n + 1,
    Gamma(1/2 - n) = (-4)^n n! sqrt(pi) / (2n)! = (-2)^n sqrt(pi) / (2n-1)!!,
    so the value is (-1)^n (2 pi)^(-n) m^(2n-1) / (2 (2n-1)!!), one
    :func:`_product` with the double factorial an exact int."""
    if not isinstance(D, int) or D < 3:
        raise ValueError(f"D must be an integer >= 3, got {D}")
    if D % 2 == 0:
        raise DiagonalError(f"diagonal value diverges in even dimension D={D}")
    if not 0 < m < math.inf:
        raise ValueError(f"diag_continuation requires a finite m > 0, got {m}")
    n = D // 2
    value = _product(((2 * math.pi, -n), (m, 2 * n - 1), (2, -1),
                      (math.prod(range(1, 2 * n, 2)), -1)))
    return _normal("diag_continuation", D, m, 0.0, -value if n % 2 else value)


@dataclass(frozen=True)
class DiracCoeffs:
    """S(x) = a * (i gamma^mu x_mu) + b * 1."""
    a: float
    b: float


def dirac_propagator(k: Kinematics) -> DiracCoeffs:
    """Euclidean Dirac propagator coefficients, from S = (-i dslash + m) G_{sqrt(m)}:
    a = 2 pi G^(D+2)_{sqrt(m)} and b = m G^(D)_{sqrt(m)}.

    Requires integer lam >= 1 (even dimension D = 2 lam + 2).
    """
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("dirac_propagator requires m > 0")
    lam = k.lam
    if lam.denominator != 1 or lam < 1:
        raise ValueError("Dirac coefficients need integer lam = (D-2)/2 >= 1")
    g, g_up = _scalar_ladder(k.D, math.sqrt(k.m), r, 1)
    return DiracCoeffs(_normal("Dirac a", k.D, k.m, r, 2 * math.pi * g_up),
                       _normal("Dirac b", k.D, k.m, r, k.m * g))


BOSON_ROUNDING_LIMIT = 1e-8  # relative rounding bound past which a boson value is refused


def boson_propagator(k: Kinematics, alpha: float, mu: int, nu: int) -> float:
    """Massive vector-boson propagator component in the Stueckelberg gauge:

        g_{mu nu} G_{sqrt(m)} + (1/m^2)(d_mu d_nu G_{sqrt(m/alpha)} - d_mu d_nu G_{sqrt(m)}),

    with d_mu d_nu G^(D) = -2 pi g_{mu nu} G^(D+2) + 4 pi^2 x_mu x_nu G^(D+4).
    At small m the difference cancels: its rounding is bounded by eps times
    the sum of the magnitudes of its terms, over m^2, and a value is refused
    (ValueError) where that bound exceeds BOSON_ROUNDING_LIMIT = 1e-8 of it,
    as where m^2 underflows (alpha = 1 has no difference).
    """
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("boson_propagator requires m > 0")
    if not 0 < alpha < math.inf:
        raise ValueError(f"gauge parameter alpha must be finite and positive, got {alpha}")
    if not (0 <= mu < k.D and 0 <= nu < k.D):
        raise ValueError("index out of range")
    m1 = math.sqrt(k.m)
    if alpha == 1.0:  # the derivative terms cancel identically
        return gm_real(Kinematics(k.D, k.x, m1)) if mu == nu else 0.0
    m2 = k.m ** 2
    if m2 < _TINY:
        raise ValueError(f"boson_propagator divides by m^2, which underflows at m = {k.m}")
    delta = 1.0 if mu == nu else 0.0
    g, g2, g4 = _scalar_ladder(k.D, m1, r, 2)
    h2, h4 = _scalar_ladder(k.D + 2, math.sqrt(k.m / alpha), r, 1)
    xx = 4 * math.pi ** 2 * k.x[mu] * k.x[nu]
    dd = xx * (h4 - g4) - 2 * math.pi * delta * (h2 - g2)
    value = delta * g + dd / m2
    if value == 0.0 and mu != nu and 0.0 in (k.x[mu], k.x[nu]):
        return value  # zero by symmetry, off the diagonal with x_mu = 0 or x_nu = 0
    _normal("boson propagator", k.D, k.m, r, value)
    bound = sys.float_info.epsilon * (
        abs(xx) * (abs(h4) + abs(g4)) + 2 * math.pi * delta * (abs(h2) + abs(g2))) / m2
    if not bound <= BOSON_ROUNDING_LIMIT * abs(value):
        raise ValueError(f"boson propagator at D = {k.D}, m = {k.m}, r = {r}: the rounding "
                         f"of (h - g)/m^2 may reach {bound / abs(value):.1e} of its value "
                         f"{value}, past {BOSON_ROUNDING_LIMIT}")
    return value
