"""Exact Gegenbauer / Chebyshev polynomial engine.

The ultraspherical polynomials ``C_n^{(lam)}`` are generated by

    (1 - 2tx + t^2)^(-lam) = sum_n C_n^{(lam)}(x) t^n,   |t| < 1,

with the explicit monomial form

    C_n^{(lam)}(x) = sum_{k=0}^{[n/2]} (-1)^k Gamma(lam+n-k) / (k! (n-2k)! Gamma(lam)) (2x)^{n-2k}.

Every basis change into C^{(lam)} takes one route: the polynomial is
written in monomials and each x^k is converted by its row of the expansion

    x^m = 2^{-m} Gamma(lam) m! sum_k (lam+m-2k) / (k! Gamma(lam+m+1-k)) C_{m-2k}^{(lam)}(x)

(:func:`_to_gegenbauer`).  The Chebyshev-to-Gegenbauer conversion, the
re-projection of C_n^{(ell)} onto weight lam, the linearization of a product
C_n^{(lam)} C_m^{(lam)} and the (t-power, C^{(lam)}-degree) tensors of power
series in t with polynomial coefficients in x (:func:`gegenbauer_tensor`) are
all built on it.  Since Gamma(lam+j)/Gamma(lam) is a Pochhammer symbol, every
conversion coefficient is a Fraction, and each conversion returns the dict
{degree: Fraction} of its non-zero coefficients; only the zonal
spherical-harmonic constants carry powers of pi (as exact SymbolicCoeff
scalars).  Float values of C_n^{(lam)} come from the three-term recurrence
(:func:`gegenbauer_table`), never from the monomial form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .exact import SymbolicCoeff
from .specfun import as_half_integer, gamma_exact

_fact = math.factorial


def _check_weight(lam, minimum: Fraction, name: str = "lambda") -> Fraction:
    lam = as_half_integer(lam, name)
    if lam < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {lam}")
    return lam


def _check_degrees(*degrees: int) -> None:
    if min(degrees) < 0:
        raise ValueError(f"degrees must be >= 0, got {', '.join(map(str, degrees))}")


@lru_cache(maxsize=None)
def rising(x: Fraction, k: int) -> Fraction:
    """Pochhammer symbol x (x+1) ... (x+k-1), cached: every table of degree
    n asks for it at each k <= n."""
    out = Fraction(1)
    for i in range(k):
        out *= x + i
    return out


@lru_cache(maxsize=None)
def _gegen_monomials(lam: Fraction, n: int) -> tuple[tuple[int, Fraction], ...]:
    # Gamma(lam+n-k)/Gamma(lam) = rising(lam, n-k) keeps everything rational
    out = []
    for k in range(n // 2 + 1):
        coeff = (Fraction((-1) ** k) * rising(lam, n - k)
                 / (Fraction(_fact(k)) * _fact(n - 2 * k))) * 2 ** (n - 2 * k)
        out.append((n - 2 * k, coeff))
    return tuple(out)


@lru_cache(maxsize=None)
def _chebyshev_monomials(n: int) -> tuple[tuple[int, int], ...]:
    # T_0 = 1, T_1 = x, T_{n+1} = 2x T_n - T_{n-1}, in integers
    prev = {0: 1}
    if n == 0:
        return tuple(prev.items())
    cur = {1: 1}
    for _ in range(n - 1):
        nxt: dict[int, int] = {}
        for p, c in cur.items():
            nxt[p + 1] = nxt.get(p + 1, 0) + 2 * c
        for p, c in prev.items():
            nxt[p] = nxt.get(p, 0) - c
        prev, cur = cur, {p: c for p, c in nxt.items() if c}
    return tuple(sorted(cur.items()))


def gegenbauer_coeffs(lam, n: int) -> dict[int, Fraction]:
    """Exact monomial coefficients {k: coeff of x^k} of C_n^{(lam)}(x), lam >= 1/2."""
    lam = _check_weight(lam, Fraction(1, 2))
    _check_degrees(n)
    return dict(_gegen_monomials(lam, n))


def gegenbauer_table(lam, n_max: int, x: float) -> list[float]:
    """[C_0^{(lam)}(x), ..., C_{n_max}^{(lam)}(x)] in floats by the three-term
    recurrence (DLMF 18.9.1)

        (n+1) C_{n+1} = 2 (n+lam) x C_n - (n+2lam-1) C_{n-1},

    which is stable for |x| <= 1, unlike summing the monomial form, whose
    terms cancel at high degree near |x| = 1."""
    _check_degrees(n_max)
    lam = float(lam)
    out = [1.0, 2.0 * lam * x]
    for n in range(1, n_max):
        out.append((2.0 * (n + lam) * x * out[n] - (n + 2.0 * lam - 1.0) * out[n - 1])
                   / (n + 1))
    return out[:n_max + 1]


def gegenbauer_value(lam, n: int, x: float) -> float:
    return gegenbauer_table(lam, n, x)[n]


def generating_series_coeff(lam, n: int, x: float) -> float:
    """n-th Taylor coefficient in t of (1-2tx+t^2)^(-lam), by the binomial
    series in y = t(2x-t); an oracle independent of the explicit formula and
    of the recurrence.  The terms cancel near |x| = 1, so the series is summed
    exactly from Fraction(x) and Fraction(lam) and rounded once."""
    _check_degrees(n)
    lam, two_x = Fraction(lam), 2 * Fraction(x)
    total = Fraction(0)
    binom_rising = Fraction(1)  # rising(lam, j) / j!
    # y^j contributes to t^{j+i} via (2x-t)^j = sum_i C(j,i) (2x)^{j-i} (-t)^i
    for j in range(n + 1):
        i = n - j
        if i <= j:
            total += binom_rising * math.comb(j, i) * two_x ** (j - i) * (-1) ** i
        binom_rising *= (lam + j) / (j + 1)
    return float(total)


@lru_cache(maxsize=None)
def _monomial_combo(m: int, lam: Fraction) -> tuple[tuple[int, Fraction], ...]:
    # 2^{-m} m! (lam+m-2k) / (k! rising(lam, m+1-k)), in integers: with
    # lam = a/b, rising(lam, j) = R_j / b^j and R_j = prod_{i<j} (a + i b)
    a, b = lam.numerator, lam.denominator
    rise = math.prod(a + i * b for i in range(m + 1))  # R_{m+1-k}, from k = 0
    out = []
    for k in range(m // 2 + 1):
        out.append((m - 2 * k, Fraction(_fact(m) * (a + (m - 2 * k) * b) * b ** (m - k),
                                        2 ** m * _fact(k) * rise)))
        rise //= a + (m - k) * b
    return tuple(out)


def _to_gegenbauer(poly: dict[int, Fraction], lam: Fraction) -> dict[int, Fraction]:
    """The polynomial {k: coeff of x^k} in the C^{(lam)} basis as {d: coeff},
    each x^k converted by its monomial row; zero entries are dropped.  Every
    conversion of this module goes through here."""
    out: dict[int, Fraction] = {}
    for k, c in poly.items():
        for d, w in _monomial_combo(k, lam):
            out[d] = out.get(d, 0) + c * w
    return {d: c for d, c in out.items() if c}


def monomial_to_gegenbauer(m: int, lam) -> dict[int, Fraction]:
    """Expansion of x^m in the C^{(lam)} basis, lam >= 1/2."""
    lam = _check_weight(lam, Fraction(1, 2))
    _check_degrees(m)
    return _to_gegenbauer({m: 1}, lam)


def generating_series(weight, radial: int) -> list[dict[int, Fraction]]:
    """sum_n t^n C_n^{(weight)}(x) up to t^radial: item n holds the monomial
    coefficients {k: coeff of x^k} of t^n."""
    weight = _check_weight(weight, Fraction(1, 2), "weight")
    return [dict(_gegen_monomials(weight, n)) for n in range(radial + 1)]


def chebyshev_log_series(radial: int) -> list[dict[int, Fraction]]:
    """(1/2) log(1 - 2tx + t^2) = -sum_{p >= 1} T_p(x) t^p / p up to t^radial,
    in the layout of :func:`generating_series`."""
    return [{}] + [{k: Fraction(-c, p) for k, c in _chebyshev_monomials(p)}
                   for p in range(1, radial + 1)]


def gegenbauer_tensor(series, lam) -> dict[tuple[int, int], Fraction]:
    """The tensor {(n, d): coeff} of sum_n t^n sum_k series[n][k] x^k in the
    C^{(lam)} basis; zero entries are dropped."""
    lam = _check_weight(lam, Fraction(1, 2))
    out: dict[tuple[int, int], Fraction] = {}
    for n, poly in enumerate(series):
        for d, c in _to_gegenbauer(poly, lam).items():
            out[n, d] = c
    return out


def chebyshev_to_gegenbauer(n: int, lam) -> dict[int, Fraction]:
    """Coefficients c^lam_{n,m} with T_n = sum_m c^lam_{n,m} C_m^{(lam)}."""
    lam = _check_weight(lam, Fraction(1, 2))
    _check_degrees(n)
    return _to_gegenbauer(dict(_chebyshev_monomials(n)), lam)


@lru_cache(maxsize=None)
def _reproject(ell: Fraction, n: int, lam: Fraction) -> tuple[tuple[int, Fraction], ...]:
    return tuple(sorted(_to_gegenbauer(dict(_gegen_monomials(ell, n)), lam).items()))


def reproject_gegenbauer(ell, n: int, lam) -> dict[int, Fraction]:
    """Expansion of C_n^{(ell)} in the C^{(lam)} basis (both weights >= 1/2)."""
    ell = _check_weight(ell, Fraction(1, 2), "source weight")
    lam = _check_weight(lam, Fraction(1, 2), "target weight")
    _check_degrees(n)
    return dict(_reproject(ell, n, lam))


@lru_cache(maxsize=None)
def _product_combo(n: int, m: int, lam: Fraction) -> tuple[tuple[int, Fraction], ...]:
    # the product of the two monomial forms, then one row per x^k
    poly: dict[int, Fraction] = {}
    for p, a in _gegen_monomials(lam, n):
        for q, b in _gegen_monomials(lam, m):
            poly[p + q] = poly.get(p + q, 0) + a * b
    return tuple(sorted(_to_gegenbauer(poly, lam).items()))


def product_linearize(n: int, m: int, lam) -> dict[int, Fraction]:
    """Linearization C_n^{(lam)} C_m^{(lam)} = sum_d coeff_d C_d^{(lam)}."""
    lam = _check_weight(lam, Fraction(1, 2))
    _check_degrees(n, m)
    return dict(_product_combo(n, m, lam))


def sphere_volume(D: int) -> SymbolicCoeff:
    """Surface volume of S^{D-1}: 2 pi^{D/2} / Gamma(D/2)."""
    if D < 1:
        raise ValueError("D must be >= 1")
    return SymbolicCoeff.monomial(2, pi_half=D) / gamma_exact(Fraction(D, 2))


def zonal_coefficient(D: int, n: int) -> SymbolicCoeff:
    """c_{D,n} = Vol(S^{D-1}) (D-2) / (2n + D - 2), the zonal-harmonic constant."""
    if D < 3:
        raise ValueError("zonal coefficient needs dimension D >= 3")
    _check_degrees(n)
    return sphere_volume(D) * Fraction(D - 2, 2 * n + D - 2)

