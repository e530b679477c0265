"""Special functions: exact Gamma/digamma values and the Macdonald function.

Exact values at integer and half-integer arguments use the functional equation
``Gamma(z+1) = z*Gamma(z)`` together with ``Gamma(1/2) = sqrt(pi)``, and the
digamma identities

    psi(n)       = H_{n-1} - gamma
    psi(n + 1/2) = -gamma - 2*log(2) + sum_{k=1}^{n} 2/(2k-1).

The modified Bessel function of the second kind ``K_nu(z)`` is computed in
double precision for integer and half-integer orders, the only ones the
propagators use (nu = (D-2)/2 for the real kernels, D-1 for the complex one,
with integer D); any other order is a ValueError.  The two lowest orders come
from

* Temme's series at order 0 for ``z < 2`` (Temme, J. Comput. Phys. 19 (1975)
  324), or Steed's continued fraction CF2 for ``z >= 2`` (Thompson & Barnett,
  J. Comput. Phys. 64 (1986) 490; Numerical Recipes section 6.7), giving
  ``K_0`` and ``K_1``;
* the closed forms ``K_{1/2}(z) = sqrt(pi/(2z)) exp(-z)`` and
  ``K_{3/2} = K_{1/2} (1 + 1/z)``;

and the upward recurrence ``K_{n+1} = K_{n-1} + (2n/z) K_n``, which adds
positive terms only, gives the higher orders, each carried as a double
mantissa times a power of two.  The module uses the standard library only.

The coefficients of the large-argument asymptotic series

    K_nu(z) ~ sqrt(pi/(2z)) * exp(-z) * sum_l (nu,l) / (2z)**l,
    (nu,l) = Gamma(nu+l+1/2) / (l! * Gamma(nu-l+1/2)),

are exact rationals (:func:`asym_coeff`); the amplitude expansions build on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .exact import _EULER_GAMMA, SymbolicCoeff

HalfInteger = Union[int, Fraction]


def as_half_integer(z, name: str = "argument") -> Fraction:
    """Coerce to a Fraction with denominator 1 or 2; a float converts exactly,
    so one that is no half-integer is refused, not rounded."""
    if isinstance(z, float) and not math.isfinite(z):
        raise ValueError(f"{name} must be finite, got {z}")
    z = Fraction(z)
    if z.denominator not in (1, 2):
        raise ValueError(f"{name} must be an integer or half-integer, got {z}")
    return z


def check_weight(lam, name: str = "lambda") -> Fraction:
    """A Gegenbauer weight: a half-integer lam >= 1/2, as for dimension
    D = 2 lam + 2 >= 3."""
    lam = as_half_integer(lam, name)
    if lam < Fraction(1, 2):
        raise ValueError(f"{name} must be >= 1/2, got {lam}")
    return lam


@lru_cache(maxsize=None)
def rising(x: Fraction, k: int) -> Fraction:
    """Pochhammer symbol (x)_k = x (x+1) ... (x+k-1), cached: every Gegenbauer
    table of degree n asks for it at each k <= n."""
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


def gamma_exact(z) -> SymbolicCoeff:
    """Gamma(z) for positive integer or half-integer z, as an exact scalar.

    Integer z gives (z-1)!; half-integer z gives a rational multiple of
    sqrt(pi) via the functional equation from Gamma(1/2).
    """
    z = as_half_integer(z, "gamma argument")
    if z <= 0:
        raise ValueError(f"gamma_exact requires z > 0, got {z}")
    if z.denominator == 1:
        return SymbolicCoeff.from_rational(math.factorial(int(z) - 1))
    # z = n + 1/2: Gamma(z) = (1/2)_n * sqrt(pi)
    return SymbolicCoeff.monomial(rising(Fraction(1, 2), int(z)), pi_half=1)


def digamma_exact(z) -> SymbolicCoeff:
    """psi(z) for positive integer or half-integer z, in Q + Q*gamma + Q*log(2)."""
    z = as_half_integer(z, "digamma argument")
    if z <= 0:
        raise ValueError(f"digamma_exact requires z > 0, got {z}")
    if z.denominator == 1:
        n = int(z)
        harmonic = sum((Fraction(1, k) for k in range(1, n)), Fraction(0))
        return SymbolicCoeff.from_rational(harmonic) - SymbolicCoeff.monomial(gamma=1)
    n = int(z - Fraction(1, 2))
    odd_sum = sum((Fraction(2, 2 * k - 1) for k in range(1, n + 1)), Fraction(0))
    return (SymbolicCoeff.from_rational(odd_sum) - SymbolicCoeff.monomial(gamma=1)
            - SymbolicCoeff.monomial(2, log2=1))


def asym_coeff(nu, ell: int) -> Fraction:
    """Asymptotic-series coefficient (nu,ell) = Gamma(nu+ell+1/2)/(ell! Gamma(nu-ell+1/2)).

    Computed as the Pochhammer product (nu-ell+1/2)_{2 ell} / ell!, which is
    exact for integer and half-integer nu, and vanishes automatically when the
    denominator Gamma sits at a pole (non-positive integer argument) -- that is
    what terminates the series at half-integer order.
    """
    nu = as_half_integer(nu, "order")
    if ell < 0:
        raise ValueError("ell must be >= 0")
    return rising(nu - ell + Fraction(1, 2), 2 * ell) / math.factorial(ell)


# kept here: the bench tracer labels bessel_k calls by this crossover until it reads z = 2
@dataclass(frozen=True)
class BesselEvalConfig:
    """Branch knobs of the extended-precision reference K_nu of the tests.

    ``crossover_z=None`` selects the default ``max(10, 2*nu**2)``, the
    argument above which the reference series gives way to the asymptotic one.
    """
    series_terms: int = 80
    asymptotic_terms: int = 24
    crossover_z: float | None = None

    def __post_init__(self):
        if self.series_terms < 1:
            raise ValueError("series_terms must be >= 1")
        if self.crossover_z is not None and self.crossover_z <= 0:
            raise ValueError("crossover_z must be positive")

    def crossover(self, nu: float) -> float:
        if self.crossover_z is not None:
            return self.crossover_z
        return max(10.0, 2.0 * nu * nu)


DEFAULT_BESSEL_CONFIG = BesselEvalConfig()

MAX_ORDER = 1000  # bounds the recurrence's length, not its range: K_nu is carried scaled
_EPS = 1e-16
_MAX_ITER = 10_000
_EXP_NORMAL_Z = 700.0  # exp(-z) is a normal double up to here
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10  # fdlibm's log(2)
_SPLIT_K = 1 << 21  # k * _LN2_HI is exact below; past z = 2^21 log 2 every kernel underflows


def _temme_k01(z: float) -> tuple[float, float]:
    """K_0(z) and K_1(z) for 0 < z < 2 from Temme's series at order 0, where
    Gamma_1 = -gamma and Gamma_2 = 1."""
    x2 = 0.5 * z
    d = x2 * x2
    ff = -math.log(x2) - _EULER_GAMMA
    p = 0.5  # p = q at order 0
    c = 1.0
    s0 = ff
    s1 = p
    for i in range(1, _MAX_ITER):
        ff = (i * ff + 2.0 * p) / (i * i)
        c *= d / i
        p /= i
        term = c * ff
        s0 += term
        s1 += c * (p - i * ff)
        if abs(term) < abs(s0) * _EPS:
            return s0, s1 / x2
    raise ArithmeticError(f"Temme series for K_0({z}) did not converge")


def _steed_k01(z: float) -> tuple[float, float]:
    """e^z K_0(z) and e^z K_1(z) for z >= 2 from Steed's continued fraction
    CF2 at order 0."""
    b = 2.0 * (1.0 + z)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = 0.25
    a = -0.25
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < abs(s) * _EPS:
            k0 = math.sqrt(math.pi / (2.0 * z)) / s
            return k0, k0 * (z + 0.5 - 0.25 * h) / z
    raise ArithmeticError(f"Steed's CF2 for K_0({z}) did not converge")


def bessel_k_ladder(nu: float, z: float, steps: int) -> list[tuple[float, int]]:
    """[K_nu(z), K_(nu+1)(z), ..., K_(nu+steps)(z)] for integer or half-integer
    nu >= 0, from one evaluation of the two lowest orders, each as (mantissa,
    exponent) worth mantissa * 2 ** exponent.

    The upward recurrence K_(n+1) = K_(n-1) + (2n/z) K_n adds positive terms
    only; the downward direction cancels, so every ladder starts at order 0
    or 1/2.  Past z = 700, e^-z is 2^-k exp(k log 2 - z) (Cody and Waite), and
    a step past 2^500 divides by 2^500, both exactly: with exponent 0 the
    mantissa is the plain recurrence.  Below z of about 1e-154 one step can
    still overflow the mantissa to inf."""
    if not (math.isfinite(nu) and math.isfinite(z)):
        raise ValueError(f"bessel_k needs finite nu and z, got nu={nu}, z={z}")
    if z <= 0:
        raise ValueError(f"bessel_k requires z > 0 (singular at the origin), got {z}")
    if nu < 0:
        raise ValueError("bessel_k requires nu >= 0 (K_{-nu} = K_nu)")
    if nu > MAX_ORDER:
        raise ValueError(f"bessel_k supports orders up to {MAX_ORDER}, got {nu}")
    two_nu = round(2 * nu)
    if abs(2 * nu - two_nu) >= 1e-12:
        raise ValueError(f"K_nu needs an integer or half-integer order, got {nu}")
    mu = 0.5 if two_nu % 2 else 0.0
    if steps < 0 or nu + steps > MAX_ORDER:
        raise ValueError(f"ladder steps must lie in [0, {MAX_ORDER} - nu], got {steps}")
    if mu:
        a = math.sqrt(math.pi / (2.0 * z))
        b = a * (1.0 + 1.0 / z)
    elif z < 2.0:
        a, b = _temme_k01(z)
    else:
        a, b = _steed_k01(z)
    exponent = 0
    if mu or z >= 2.0:  # a, b carry e^z: fold e^-z in before high orders can overflow
        k = min(round(z / _LN2_HI), _SPLIT_K) if z > _EXP_NORMAL_Z else 0
        f = math.exp((k * _LN2_HI - z) + k * _LN2_LO)  # exp(-z) itself at k = 0
        a, b, exponent = a * f, b * f, -k
    first = round(nu - mu)
    out = []
    for i in range(first + steps + 1):
        if i >= first:
            out.append((a, exponent))
        a, b = b, a + (2.0 * (mu + i + 1) / z) * b
        if b > 2.0 ** 500:
            a, b, exponent = a * 2.0 ** -500, b * 2.0 ** -500, exponent + 500
    return out


def bessel_k(nu: float, z: float) -> float:
    """Modified Bessel function (Macdonald function) K_nu(z) for z > 0 and
    integer or half-integer 0 <= nu <= MAX_ORDER, as a double (0 or inf where
    it leaves the doubles): the ladder of no steps, with its ValueErrors."""
    mantissa, exponent = bessel_k_ladder(nu, z, 0)[0]
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf
