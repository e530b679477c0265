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
at one mass (:func:`_scalar_ladder`); each is a product of powers and K_nu,
taken in plain floats, or in summed logarithms where only the plain product
leaves the normal doubles (:func:`_product`).

No kernel returns a silent 0, inf or nan.  The four scalar kernels raise
ValueError when their value is outside the normal doubles, which includes
every value whose K_nu is outside them.  The Dirac and boson kernels check
only their own result: they raise ValueError on a non-finite value, and on
a value below the normal doubles unless it is zero by symmetry; a boson
term that underflows counts as 0.

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
        return math.sqrt(sum(c * c for c in self.x))

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
    return r


_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal doubles


def _product(factors: Sequence[tuple[float, float]], bessel: float = 1.0) -> float:
    """The product of base ** exponent over ``factors`` (positive bases),
    times the value ``bessel`` of K_nu: computed as that product, in order,
    when every factor, every partial product and the result are normal
    doubles, and as exp of the summed logs otherwise, so it may be 0, below
    the normal doubles or inf.  A K_nu below or above the normal doubles
    gives 0 or inf."""
    if not _TINY <= bessel <= _HUGE:
        return 0.0 if bessel < _TINY else math.inf
    value = 1.0
    try:
        for base, e in factors:
            x = base ** e
            value *= x
            if not (_TINY <= x <= _HUGE and _TINY <= value <= _HUGE):
                break
        else:
            value *= bessel
            if _TINY <= value <= _HUGE:
                return value
    except OverflowError:  # a factor beyond the doubles
        pass
    try:
        return math.exp(sum(e * math.log(base) for base, e in factors) + math.log(bessel))
    except OverflowError:
        return math.inf


def _normal(name: str, D: int, m: float, r: float, value: float) -> float:
    """``value`` of ``name`` at (D, m, r); ValueError unless a normal double."""
    if not _TINY <= value <= _HUGE:
        raise ValueError(f"|{name}| at D = {D}, m = {m}, r = {r} = {value} "
                         "is outside the normal doubles")
    return value


def _scalar_ladder(D: int, M: float, r: float, n: int = 0) -> list[float]:
    """[G^(D), G^(D+2), ..., G^(D+2n)] of the real kernel at mass M and
    distance r, from one ladder of K_nu; each by :func:`_product`."""
    nu = (D - 2) / 2.0
    z = M * r
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
    trapezoid rule with ``points`` (an int >= 2) steps on u in [-L, L] after
    t = e^u, L chosen from m and r.

    Independent of the Bessel route; raises :class:`QuadratureError` with the
    achieved estimate if the rule with half the steps differs by more than
    QUADRATURE_TARGET.
    """
    if not isinstance(points, int) or points < 2:
        raise ValueError(f"gm_integral needs an integer points >= 2, got {points!r}")
    r = _require_off_diagonal(k)
    if k.m <= 0:
        raise ValueError("gm_integral requires m > 0")
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

    coarse = scan(points // 2)
    fine = scan(points)
    estimate = abs(fine - coarse) / max(abs(fine), 1e-300)
    if estimate > QUADRATURE_TARGET:
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
    a = 2 * math.pi * g_up
    b = k.m * g
    if not (_TINY <= a <= _HUGE and _TINY <= b <= _HUGE):  # both are positive
        what = f"Dirac coefficients at D = {k.D}, m = {k.m}, r = {r}"
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError(f"{what} are not finite")
        raise ValueError(f"{what}: a = {a}, b = {b} is outside the normal doubles")
    return DiracCoeffs(a, b)


def boson_propagator(k: Kinematics, alpha: float, mu: int, nu: int) -> float:
    """Massive vector-boson propagator component in the Stueckelberg gauge:

        g_{mu nu} G_{sqrt(m)} + (1/m^2)(d_mu d_nu G_{sqrt(m/alpha)} - d_mu d_nu G_{sqrt(m)}),

    with d_mu d_nu G^(D) = -2 pi g_{mu nu} G^(D+2) + 4 pi^2 x_mu x_nu G^(D+4).
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
    delta = 1.0 if mu == nu else 0.0
    g, g2, g4 = _scalar_ladder(k.D, m1, r, 2)
    h2, h4 = _scalar_ladder(k.D + 2, math.sqrt(k.m / alpha), r, 1)
    dd = 4 * math.pi ** 2 * k.x[mu] * k.x[nu] * (h4 - g4) - 2 * math.pi * delta * (h2 - g2)
    value = delta * g + dd / (k.m ** 2)
    # an exact 0 is right only off the diagonal with x_mu = 0 or x_nu = 0
    if not _TINY <= abs(value) <= _HUGE and (
            value != 0.0 or mu == nu or 0.0 not in (k.x[mu], k.x[nu])):
        what = f"boson propagator at D = {k.D}, m = {k.m}, r = {r}"
        if not math.isfinite(value):
            raise ValueError(f"{what} is not finite")
        raise ValueError(f"{what} = {value} is below the normal doubles")
    return value
