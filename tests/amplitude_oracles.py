"""Term-by-term oracles for the compiled edge kernels of ``confeyn.amplitude``.

Each edge factor is summed here the long way: every Taylor or asymptotic
term binds its symbolic coefficient at the mass and multiplies by its own
power of r, and every Gegenbauer expansion sums its two tensors as
(n, d, float) rows against the tables u^0..u^R and C_0^(lam)..C_cap^(lam)(cos).
The kernels fold all of this into one polynomial in z = m r (or m rho) per
edge, so the two routes share only the exact coefficients.
``expansion_value`` evaluates one expansion by the library's own kernel, as
a one-expansion edge, and ``separation`` is the distance |x_s - x_t| of an
edge's endpoints.

Each ``*_terms`` function returns (value, scale): the sum of the terms and
the sum of their absolute values, the size of the rounding of any order of
summation.  The half-integer Taylor coefficient is also kept here in its
direct form, one ``asym_coeff`` per j, as the oracle of the running-ratio
sum of the library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from confeyn.amplitude import (AsymptoticTerm, EdgeGeometry, GegenExpansion, TaylorTerm,
                               TaylorTermSpec, TruncationOrders, _GegenKernel,
                               _taylor_indices, asymptotic_term_coefficient,
                               edge_gegenbauer_expansion, taylor_term_coefficient,
                               two_pi_power)
from confeyn.exact import SymbolicCoeff
from confeyn.gegenbauer import gegenbauer_table
from confeyn.specfun import asym_coeff


def taylor_term_value(term: TaylorTerm, r: float, m: float) -> float:
    value = term.coeff_const.bind(m)
    if not term.coeff_log.is_zero():
        value += term.coeff_log.bind(m) * math.log(r)
    return value * r ** float(term.r_exponent)


def asymptotic_term_value(term: AsymptoticTerm, r: float, m: float) -> float:
    return term.coeff.bind(m) * r ** float(term.r_exponent) * math.exp(-m * r)


def separation(geom: EdgeGeometry) -> float:
    return math.sqrt(geom.rho ** 2 + geom.r ** 2 - 2 * geom.rho * geom.r * geom.cos)


def expansion_value(exp: GegenExpansion, geom: EdgeGeometry, m: float) -> float:
    """Value of one expansion, compiled as the kernel of a one-term edge."""
    return _GegenKernel(exp.lam, (exp,)).evaluate(geom, m)


def gegen_tables(lam, geom: EdgeGeometry, n_max: int, d_max: int
                 ) -> tuple[list[float], list[float]]:
    """[u^0..u^n_max] and [C_0^(lam)..C_d_max^(lam)](cos) of one edge."""
    u = geom.u if geom.rho else 0.0
    u_pows = [1.0]
    for _ in range(n_max):
        u_pows.append(u_pows[-1] * u)
    return u_pows, gegenbauer_table(lam, d_max, geom.cos)


def _row_sums(tensor, tables) -> tuple[float, float]:
    """sum_i values[i] u^ns[i] C_ds[i](cos), and the sum of absolute terms."""
    u_pows, c_vals = tables
    terms = [float(c) * u_pows[n] * c_vals[d] for (n, d), c in tensor.items()]
    return sum(terms, 0.0), sum(map(abs, terms), 0.0)


def expansion_terms(exp: GegenExpansion, geom: EdgeGeometry, m: float) -> tuple[float, float]:
    """(value, scale) of one expansion, its rows summed at the mass m."""
    keys = list(exp.log_rho) + list(exp.series)
    tables = gegen_tables(exp.lam, geom, max((n for n, _ in keys), default=0),
                          max((d for _, d in keys), default=0))
    total, scale = _row_sums(exp.series, tables)
    if exp.log_rho:
        factor = exp.k0.bind(m) + math.log(geom.rho)
        value, size = _row_sums(exp.log_rho, tables)
        total += factor * value
        scale += abs(factor) * size
    outer = exp.prefactor.bind(m) * geom.rho ** float(exp.rho_exponent)
    return total * outer, scale * abs(outer)


def edge_taylor_terms(lam, r: float, m: float, orders: TruncationOrders
                      ) -> tuple[float, float]:
    lam = Fraction(lam)
    values = [taylor_term_value(taylor_term_coefficient(TaylorTermSpec.make(ell, lam), lam),
                                r, m) for ell in _taylor_indices(lam, orders.ell_max)]
    return sum(values, 0.0), sum(map(abs, values), 0.0)


def edge_asymptotic_terms(lam, r: float, m: float, orders: TruncationOrders
                          ) -> tuple[float, float]:
    values = [asymptotic_term_value(asymptotic_term_coefficient(ell, lam), r, m)
              for ell in range(orders.asym_terms)]
    return sum(values, 0.0), sum(map(abs, values), 0.0)


@lru_cache(maxsize=None)
def edge_expansions(lam: Fraction, orders: TruncationOrders) -> tuple[GegenExpansion, ...]:
    return tuple(edge_gegenbauer_expansion(TaylorTermSpec.make(ell, lam), lam, orders)
                 for ell in _taylor_indices(lam, orders.ell_max))


def edge_gegenbauer_terms(lam, geom: EdgeGeometry, m: float, orders: TruncationOrders
                          ) -> tuple[float, float]:
    pairs = [expansion_terms(e, geom, m) for e in edge_expansions(Fraction(lam), orders)]
    return sum(v for v, _ in pairs), sum(s for _, s in pairs)


def half_integer_taylor_scalar(lam: Fraction, ell: Fraction) -> SymbolicCoeff:
    """The coefficient of r^(2 ell) at half-integer lam, m = 1, summed one
    asym_coeff(lam, j) at a time."""
    p = int(2 * ell)
    total = SymbolicCoeff.zero()
    for j in range(int(lam - Fraction(1, 2)) + 1):
        k = p + int(lam + Fraction(1, 2)) + j
        if k < 0:
            continue
        a_j = (asym_coeff(lam, j)
               * two_pi_power(-(lam + 1))
               * SymbolicCoeff.monomial(Fraction(1, 2), sqrt2=1, pi_half=1)  # sqrt(pi/2)
               * Fraction(1, 2 ** j))
        total = total + a_j * Fraction((-1) ** k, math.factorial(k))
    return total

