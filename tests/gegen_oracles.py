"""Closed-form Gegenbauer conversions, kept as oracles for the library's
single route (monomial forms converted one x^k row at a time).

``product_by_gamma`` is the linearization of C_n^(lam) C_m^(lam) by the
Gamma-function double sum (DLMF 18.18(vi) in monomial form), evaluated in
the exact ring so that the sqrt(pi) factors of Gamma at half-integers are
carried until they cancel.  ``reproject_by_double_sum`` expands C_n^(ell) in the
C^(lam) basis by summing the explicit monomial form of C_n^(ell) against the
closed-form expansion of each x^(n-2k).  Both return {degree: Fraction}.

``chebyshev_limit_check`` compares T_n with the lam -> 0 limit
(n/2) C_n^(lam)(x) / lam of the generating-series coefficient, and
``expand`` writes a Gegenbauer combination {degree: coeff} back in monomials.

``bare_factor_by_products`` builds the bare edge factor (1 - 2ux + u^2)^(p/2)
and its log-branch partner (1 - 2ux + u^2)^l (1/2) log(1 - 2ux + u^2) as
products of at most two exact series: a binomial expansion
(``radial_power``), the C^(w) generating series at w >= 1/2 and the
Chebyshev log series (1/2) log(1 - 2ux + u^2) = -sum_p T_p(x) u^p / p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from confeyn.exact import SymbolicCoeff
from confeyn.gegenbauer import (_chebyshev_monomials, _gegen_monomials, gegenbauer_coeffs,
                                generating_series_coeff)
from confeyn.specfun import gamma_exact, rising

_fact = math.factorial


@lru_cache(maxsize=None)
def _gamma(z: Fraction) -> SymbolicCoeff:
    return gamma_exact(z)


def product_by_gamma(n: int, m: int, lam: Fraction) -> dict[int, Fraction]:
    gam_lam = _gamma(lam)
    out: dict[int, Fraction] = {}
    for r in range((n + m) // 2 + 1):
        inner = SymbolicCoeff.zero()
        for k in range(r + 1):
            j = r - k
            if n - 2 * k < 0 or m - 2 * j < 0:
                continue
            inner = inner + (_gamma(lam + n - k) * _gamma(lam + m - j)
                             / Fraction(_fact(k) * _fact(j) * _fact(n - 2 * k) * _fact(m - 2 * j)))
        if inner.is_zero():
            continue
        # alpha carries 1/Gamma(lam) twice, from the two monomial forms; the
        # powers of sqrt(pi) cancel there, or the unpacking or the check fails
        ((key, ratio),) = (inner / (gam_lam * gam_lam)).terms.items()
        assert key == (0,) * 6, key
        alpha = ratio * ((-1) ** r * _fact(n + m - 2 * r))
        for k in range((n + m - 2 * r) // 2 + 1):
            beta = ((lam + n + m - 2 * (r + k))
                    / (rising(lam, n + m - 2 * r + 1 - k) * _fact(k)))
            d = n + m - 2 * (r + k)
            out[d] = out.get(d, 0) + alpha * beta
    return {d: c for d, c in out.items() if c}


def reproject_by_double_sum(ell: Fraction, n: int, lam: Fraction) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for k in range(n // 2 + 1):
        outer = Fraction((-1) ** k) * rising(ell, n - k) / _fact(k)
        for j in range((n - 2 * k) // 2 + 1):
            inner = (lam + n - 2 * (k + j)) / (_fact(j) * rising(lam, n - 2 * k + 1 - j))
            d = n - 2 * (k + j)
            out[d] = out.get(d, Fraction(0)) + outer * inner
    return {d: c for d, c in out.items() if c}


def chebyshev_limit_check(n: int, x: float, eps_lambda: float) -> tuple[float, float]:
    """(T_n(x), (n/2) C_n^{(eps)}(x)/eps) for the lam -> 0 Chebyshev limit."""
    if n < 1:
        raise ValueError("the limit formula needs n >= 1")
    if eps_lambda <= 0:
        raise ValueError("eps_lambda must be positive")
    t_prev, t_n = 1.0, x  # T_{k+1} = 2x T_k - T_{k-1}
    for _ in range(n - 1):
        t_prev, t_n = t_n, 2.0 * x * t_n - t_prev
    approx = (n / 2.0) * generating_series_coeff(eps_lambda, n, x) / eps_lambda
    return t_n, approx


def expand(combo: dict[int, Fraction], lam: Fraction) -> dict[int, Fraction]:
    """Monomial coefficients of the combination {degree: coeff} of the
    C^(lam) (exact)."""
    out: dict[int, Fraction] = {}
    for deg, c in combo.items():
        for power, a in _gegen_monomials(Fraction(lam), deg):
            out[power] = out.get(power, 0) + c * a
    return {p: c for p, c in out.items() if c}


def radial_power(ell: int, radial: int) -> list[dict[int, int]]:
    """(1 - 2ux + u^2)^ell up to u^radial: item n holds {k: coeff of x^k} of
    u^n, from the binomial expansion of (1 + u^2 - 2ux)^ell."""
    out: list[dict[int, int]] = [{} for _ in range(radial + 1)]
    for k in range(ell + 1):
        for q in range(ell - k + 1):
            if k + 2 * q <= radial:
                out[k + 2 * q][k] = math.comb(ell, k) * math.comb(ell - k, q) * (-2) ** k
    return out


def chebyshev_log_series(radial: int) -> list[dict[int, Fraction]]:
    """(1/2) log(1 - 2ux + u^2) = -sum_{p >= 1} T_p(x) u^p / p up to u^radial."""
    return [{}] + [{k: Fraction(-c, p) for k, c in _chebyshev_monomials(p)}
                   for p in range(1, radial + 1)]


def series_product(a: list[dict], b: list[dict], radial: int) -> list[dict]:
    """The product of two series in the layout of :func:`radial_power`,
    truncated at u^radial."""
    out: list[dict] = [{} for _ in range(radial + 1)]
    for n1, poly1 in enumerate(a):
        for n2, poly2 in enumerate(b[:radial + 1 - n1]):
            acc = out[n1 + n2]
            for k1, c1 in poly1.items():
                for k2, c2 in poly2.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    return out


def bare_factor_by_products(p: int, radial: int, log: bool = False) -> list[dict]:
    """(1 - 2ux + u^2)^(p/2) up to u^radial; with ``log`` (p = 2l even and
    >= 0) its log-branch partner (1 - 2ux + u^2)^l (1/2) log(1 - 2ux + u^2)."""
    if log:
        return series_product(radial_power(p // 2, radial), chebyshev_log_series(radial), radial)
    if p < 0:
        return [gegenbauer_coeffs(Fraction(-p, 2), n) for n in range(radial + 1)]
    if p % 2 == 0:
        return radial_power(p // 2, radial)
    half = [gegenbauer_coeffs(Fraction(1, 2), n) for n in range(radial + 1)]
    return series_product(radial_power((p + 1) // 2, radial), half, radial)
