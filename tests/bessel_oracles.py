"""Extended-precision reference K_nu, kept as an oracle for the library's
double-precision ladder (Temme's series, Steed's CF2 and the recurrence).

:func:`bessel_k_branch` sums one forced branch in mpmath: the convergent
small-argument expansion, or the large-argument asymptotic series

    K_nu(z) ~ sqrt(pi/(2z)) * exp(-z) * sum_l (nu,l) / (2z)**l,

with the branch knobs of :class:`confeyn.specfun.BesselEvalConfig`.
Half-integer orders use the terminating form of that series.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from confeyn.specfun import DEFAULT_BESSEL_CONFIG, BesselEvalConfig, _checked_order, asym_coeff


def _k_half_integer(n: int, z, terms_cap: int | None = None):
    """Exact terminating form of K_{n+1/2}(z)."""
    z = mpmath.mpf(z)
    total = mpmath.mpf(0)
    upper = n if terms_cap is None else min(n, terms_cap - 1)
    for ell in range(upper + 1):
        c = asym_coeff(Fraction(2 * n + 1, 2), ell)
        total += mpmath.mpf(c.numerator) / c.denominator / (2 * z) ** ell
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.exp(-z) * total


def _k_asymptotic(nu: float, z, terms: int):
    """Partial sum of the large-argument asymptotic series."""
    z = mpmath.mpf(z)
    term = mpmath.mpf(1)
    total = mpmath.mpf(1)
    prev = mpmath.inf
    for ell in range(terms - 1):
        # (nu,l+1)/(nu,l) = (nu+l+1/2)(nu-l-1/2)/(l+1)
        term *= mpmath.mpf(nu + ell + 0.5) * (nu - ell - 0.5) / (ell + 1)
        contrib = term / (2 * z) ** (ell + 1)
        if abs(contrib) > prev:
            break  # divergent tail reached; stop at the smallest term
        prev = abs(contrib)
        total += contrib
    return mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.exp(-z) * total


def _k_series_integer(n: int, z, terms: int):
    """Convergent small-argument expansion at integer order n >= 0."""
    z = mpmath.mpf(z)
    half = z / 2
    total = mpmath.mpf(0)
    # finite sum of negative powers
    for ell in range(n):
        total += (mpmath.mpf((-1) ** ell * math.factorial(n - ell - 1))
                  / math.factorial(ell)) * half ** (2 * ell - n) / 2
    # log series
    logh = mpmath.log(half)
    sign = (-1) ** (n + 1)
    psi_a = -mpmath.euler  # psi(1)
    psi_b = -mpmath.euler + sum(mpmath.mpf(1) / k for k in range(1, n + 1))  # psi(n+1)
    power = half ** n
    fact_l = mpmath.mpf(1)
    fact_nl = mpmath.mpf(math.factorial(n))
    for ell in range(terms):
        coeff = power / (fact_l * fact_nl)
        total += sign * coeff * (logh - (psi_a + psi_b) / 2)
        # advance ell -> ell+1
        psi_a += mpmath.mpf(1) / (ell + 1)
        psi_b += mpmath.mpf(1) / (n + ell + 1)
        fact_l *= (ell + 1)
        fact_nl *= (n + ell + 1)
        power *= half * half
    return total


def _k_series_real(nu: float, z, terms: int):
    """K_nu via pi/2 (I_{-nu} - I_nu)/sin(pi nu) for non-integer real order."""
    z = mpmath.mpf(z)
    half = z / 2

    def i_series(order: float):
        total = mpmath.mpf(0)
        for k in range(terms):
            total += half ** (2 * k + order) / (mpmath.factorial(k)
                                                * mpmath.gamma(k + order + 1))
        return total

    return (mpmath.pi / 2) * (i_series(-nu) - i_series(nu)) / mpmath.sin(mpmath.pi * nu)


def bessel_k_branch(nu: float, z: float, branch: str,
                    cfg: BesselEvalConfig | None = None) -> float:
    """Reference K_nu(z) from one forced mpmath branch, 'series' or
    'asymptotic', summed at 35 digits.  The convergent series gets z digits
    more: its terms of size e^z cancel to a sum of size e^-z.

    Half-integer orders use the terminating form, capped at
    ``cfg.asymptotic_terms`` terms on the asymptotic branch.
    """
    if cfg is None:
        cfg = DEFAULT_BESSEL_CONFIG
    mu = _checked_order(nu, z)
    if branch not in ("series", "asymptotic"):
        raise ValueError(f"unknown branch {branch!r}")
    series = branch == "series" and mu != 0.5
    with mpmath.workdps(35 + int(z) if series else 35):
        if mu == 0.5:
            cap = cfg.asymptotic_terms if branch == "asymptotic" else None
            return float(_k_half_integer(int(nu), z, terms_cap=cap))
        if branch == "asymptotic":
            return float(_k_asymptotic(nu, z, cfg.asymptotic_terms))
        if mu == 0.0:
            return float(_k_series_integer(round(nu), z, cfg.series_terms))
        return float(_k_series_real(nu, z, cfg.series_terms))
