"""Per-edge expansions of massive amplitudes with symbolic coefficients.

Every edge factor of the massive Euclidean amplitude (dimension D = 2 lam + 2)
is decomposed as a sum of terms indexed by l_e:

* integer lam, l_e in {-lam, ..., -1}: pure powers

      (2 pi)^-(lam+1) (-m^2)^(lam+l) 2^(-lam-2l-1) (-l-1)! / (lam+l)! * r^(2l)

  (the Laurent part of the small-argument expansion of the Macdonald kernel);

* integer lam, l_e = l >= 0: power-times-log terms

      (-1)^(lam+1) (2 pi)^-(lam+1) m^(2(lam+l)) / (2^(lam+2l) l! (lam+l)!)
          * r^(2l) ( log(m r / 2) - (psi(l+1) + psi(lam+l+1)) / 2 );

* half-integer lam: the Macdonald function at half-integer order terminates,
  and expanding the exponential gives one pure power r^(2 l_e) per
  half-integer l_e >= -lam, with rational-times-integer-pi-power coefficients.

Each term is further expanded in Gegenbauer polynomials of the fixed weight
lam: writing rho = max(|x_s|, |x_t|), r = min(...), u = r/rho and
c = omega_s . omega_t, the squared separation is rho^2 (1 - 2 u c + u^2), so
each term is rho^(2 l_e) times a product of at most two exact series in
(u, c): (1 - 2 u c + u^2)^l, the log series
(1/2) log(1 - 2 u c + u^2) = -sum_p T_p(c) u^p / p, and the generating series
sum_n u^n C_n^(w)(c) for negative and odd powers.  The product is truncated
at the radial order and each power c^k converted to the weight-lam basis
once.

The tensors are rational and read-only; the term coefficient (prefactor) and
the constant k0 of the log bracket log(m r / 2) - ... = log r + k0 factor
out, so a log-branch term is prefactor * rho^(2l) * [(k0 + log rho) log_rho +
series].  The symbolic tensor plain = k0 log_rho + series is a view for the
JSON output.

Numeric evaluation rests on the exact identity G_m(r) = m^(2 lam) g(m r):
the mass exponent of every term is 2 lam plus its radial exponent, and
log m only enters through log(m r).  The first evaluation of an edge factor
at a weight lam and :class:`TruncationOrders` checks this in exact
arithmetic, term by term, and compiles one float kernel, which is cached;
after that an edge costs one cache lookup and float arithmetic, with no
symbolic coefficient bound.  With z = m r, the Taylor edge is
r^(-2 lam) [A(z) + log(z) B(z)] for two polynomials evaluated by Horner's
rule, and the asymptotic edge is m^(2 lam) z^(-lam-1/2) e^(-z) P(1/z).  The
Gegenbauer edge is rho^(-2 lam) [P(zeta) + log(zeta) Q(zeta)] at zeta = m rho,
where each coefficient of P and Q is a float row dotted with one basis
u^n C_d^(lam)(cos) built per edge, C by the three-term recurrence.

The complex-case kernel in dimension D coincides with the real kernel at
weight D - 1 (its prefactor is (2 pi)^-D and the Macdonald order is D - 1),
so every expansion here covers the complex case by passing lam = D - 1; see
:func:`complex_case_weight`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Sequence

from .exact import SymbolicCoeff
from .gegenbauer import (chebyshev_log_series, gegenbauer_table, gegenbauer_tensor,
                         generating_series)
from .specfun import as_half_integer, asym_coeff, digamma_exact

if TYPE_CHECKING:  # the graph argument of amplitude_truncated_eval only
    from .feyngraph import FeynmanGraph


class DivergentRatioError(ValueError):
    """Gegenbauer evaluation requested at r/rho >= 1, outside convergence."""


def two_pi_power(exp) -> SymbolicCoeff:
    """(2 pi)**exp for integer or half-integer exp, as an exact scalar."""
    exp = Fraction(exp)
    if (2 * exp).denominator != 1:
        raise ValueError("exponent must be a half-integer")
    # 2^exp = 2^floor(exp) sqrt(2)^(2 exp mod 2)
    return SymbolicCoeff.monomial(Fraction(2) ** math.floor(exp), sqrt2=exp.denominator - 1,
                                  pi_half=int(2 * exp))


_SQRT_PI_OVER_2 = SymbolicCoeff.monomial(Fraction(1, 2), sqrt2=1, pi_half=1)


@dataclass(frozen=True)
class EdgeGeometry:
    """Radial/angular data of one edge: rho = max endpoint norm, r = min,
    cos = the angle between the endpoint directions."""
    rho: float
    r: float
    cos: float

    def __post_init__(self):
        if not (0 <= self.r <= self.rho):
            raise ValueError("need 0 <= r <= rho")
        if not (-1.0 - 1e-12 <= self.cos <= 1.0 + 1e-12):
            raise ValueError("cos out of range")

    @classmethod
    def from_points(cls, xs: Sequence[float], xt: Sequence[float]) -> "EdgeGeometry":
        ns = math.sqrt(sum(map(mul, xs, xs)))
        nt = math.sqrt(sum(map(mul, xt, xt)))
        rho, r = max(ns, nt), min(ns, nt)
        if r == 0.0:
            return cls(rho, 0.0, 0.0)
        dot = sum(map(mul, xs, xt))
        return cls(rho, r, max(-1.0, min(1.0, dot / (ns * nt))))

    @property
    def u(self) -> float:
        return self.r / self.rho


@dataclass(frozen=True)
class TaylorTerm:
    """One term coeff_const * r^e + coeff_log * r^e * log(r); coeff_log is
    non-zero exactly on the power-times-log branch."""
    r_exponent: Fraction
    coeff_const: SymbolicCoeff
    coeff_log: SymbolicCoeff


def _check_lambda(lam) -> Fraction:
    lam = as_half_integer(lam, "lambda")
    if lam < Fraction(1, 2):
        raise ValueError("need lam >= 1/2 (dimension D >= 3)")
    return lam


def complex_case_weight(D: int) -> Fraction:
    """Weight for the complex-case expansions: the massive complex kernel in
    dimension D is the real kernel at lam = D - 1 (indices then run over
    {-(D-1), ..., inf})."""
    if D < 2:
        raise ValueError("complex case needs D >= 2")
    return Fraction(D - 1)


def _log_constant(ell: int, lam: Fraction) -> SymbolicCoeff:
    """k0 = log m - log 2 - (psi(ell+1) + psi(lam+ell+1)) / 2: the log branch
    bracket log(m r / 2) - (psi(ell+1) + psi(lam+ell+1)) / 2 is log r + k0."""
    return (SymbolicCoeff.monomial(logm=1) - SymbolicCoeff.monomial(log2=1)
            - Fraction(1, 2) * (digamma_exact(ell + 1) + digamma_exact(lam + ell + 1)))


@lru_cache(maxsize=None)
def taylor_term_coefficient(ell, lam) -> TaylorTerm:
    """Exact coefficient of the l_e = ell term of the massive edge factor
    (cached: the result is immutable).  At integer lam, ell is an integer:
    ell < 0 sits on the pure-power branch and ell >= 0 on the power-times-log
    branch.  At half-integer lam, ell runs over the half-integers and every
    term is a pure power."""
    lam = _check_lambda(lam)
    ell = as_half_integer(ell, "ell")
    if ell < -lam:
        raise ValueError(f"ell must be >= -lam = {-lam}")
    if lam.denominator == 1:
        lam_i = int(lam)
        if ell.denominator != 1:
            raise ValueError(f"integer lam needs an integer ell, got {ell}")
        if ell < 0:
            # Laurent sum of the small-z Macdonald expansion, re-indexed
            l = int(lam + ell)  # 0 .. lam-1
            coeff = (Fraction((-1) ** l) * Fraction(2) ** (lam_i - 2 * l - 1)
                     * math.factorial(lam_i - l - 1) / math.factorial(l))
            return TaylorTerm(2 * ell, two_pi_power(-(lam + 1))
                              * SymbolicCoeff.monomial(coeff, m_exp=2 * l), SymbolicCoeff.zero())
        l = int(ell)
        b = two_pi_power(-(lam + 1)) * SymbolicCoeff.monomial(
            Fraction((-1) ** (lam_i + 1), 2 ** (lam_i + 2 * l))
            / Fraction(math.factorial(l) * math.factorial(lam_i + l)), m_exp=2 * (lam + ell))
        return TaylorTerm(2 * ell, b * _log_constant(l, lam), b)
    # half-integer lam: terminating Macdonald form, exponential expanded; the
    # sum over j <= lam - 1/2 of (lam,j) 2^-j (-1)^k / k!, k = 2 ell + lam + 1/2 + j,
    # runs by the term ratio, with (lam,j+1)/(lam,j) = (lam+j+1/2)(lam-j-1/2)/(j+1)
    p = 2 * ell
    k0 = int(p + lam + Fraction(1, 2))  # k at j = 0; ell >= -lam makes -k0 <= jmax
    j0, jmax = max(0, -k0), int(lam - Fraction(1, 2))
    a_j = asym_coeff(lam, j0) * Fraction((-1) ** (k0 + j0), 2 ** j0 * math.factorial(k0 + j0))
    total = a_j
    for j in range(j0, jmax):
        a_j *= Fraction(-int(lam + j + Fraction(1, 2)) * int(lam - j - Fraction(1, 2)),
                        2 * (j + 1) * (k0 + j + 1))
        total += a_j
    return TaylorTerm(p, two_pi_power(-(lam + 1)) * _SQRT_PI_OVER_2
                      * SymbolicCoeff.monomial(total, m_exp=2 * lam + p), SymbolicCoeff.zero())


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term of the large-distance expansion: coeff * r^e * exp(-m r)."""
    r_exponent: Fraction
    coeff: SymbolicCoeff


def asymptotic_term_coefficient(ell: int, lam) -> AsymptoticTerm:
    """Coefficient sqrt(pi/2) (2 pi)^-(lam+1) (lam,ell) 2^-ell m^(lam-ell-1/2)
    paired with the radial exponent -(ell + lam + 1/2)."""
    lam = _check_lambda(lam)
    if ell < 0 or int(ell) != ell:
        raise ValueError(f"ell must be an integer >= 0, got {ell}")
    ell = int(ell)
    coeff = (two_pi_power(-(lam + 1)) * _SQRT_PI_OVER_2 * SymbolicCoeff.monomial(
        asym_coeff(lam, ell) / 2 ** ell, m_exp=lam - ell - Fraction(1, 2)))
    return AsymptoticTerm(-(ell + lam + Fraction(1, 2)), coeff)


# ---------------------------------------------------------------------------
# Gegenbauer tensors
# ---------------------------------------------------------------------------

Tensor = Mapping[tuple[int, int], Fraction]


@dataclass(frozen=True)
class GegenExpansion:
    """Truncated double series of one edge term in the weight-lam basis:

        prefactor * rho^rho_exponent *
          sum_{n,d} [ (k0 + log(rho)) log_rho[n,d] + series[n,d] ] u^n C_d^(lam)(cos)

    The rational tensors expand the *bare* radial/log factor; the term
    coefficient is kept in ``prefactor`` (this is what makes the worked
    massless values come out with unit entries) and the constant of the log
    bracket in ``k0`` (zero on the power branch).  The tensors are read-only."""
    lam: Fraction
    rho_exponent: Fraction
    prefactor: SymbolicCoeff
    k0: SymbolicCoeff
    log_rho: Tensor = field(default_factory=dict)
    series: Tensor = field(default_factory=dict)
    radial_order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "log_rho", MappingProxyType(dict(self.log_rho)))
        object.__setattr__(self, "series", MappingProxyType(dict(self.series)))

    @property
    def plain(self) -> Mapping[tuple[int, int], SymbolicCoeff]:
        """The symbolic tensor k0 * log_rho + series, built on each access."""
        plain = {key: SymbolicCoeff.from_rational(c) for key, c in self.series.items()}
        for key, q in self.log_rho.items():
            plain[key] = self.k0 * q + plain[key] if key in plain else self.k0 * q
        return MappingProxyType(plain)

    def to_json(self) -> dict:
        def tensor_json(t: Mapping[tuple[int, int], SymbolicCoeff]) -> list:
            return [{"radial": n, "degree": d, "coeff": t[(n, d)].to_json()}
                    for (n, d) in sorted(t)]
        log_rho = {key: SymbolicCoeff.from_rational(q) for key, q in self.log_rho.items()}
        return {
            "lambda": str(self.lam),
            "rho_exponent": str(self.rho_exponent),
            "radial_order": self.radial_order,
            "prefactor": self.prefactor.to_json(),
            "plain": tensor_json(self.plain),
            "log_rho": tensor_json(log_rho),
        }


def _radial_power(ell: int, radial: int) -> list[dict[int, int]]:
    """(1 - 2ux + u^2)^ell up to u^radial: item n holds {k: coeff of x^k} of
    u^n, from the binomial expansion of (1 + u^2 - 2ux)^ell."""
    out: list[dict[int, int]] = [{} for _ in range(radial + 1)]
    for k in range(ell + 1):
        for q in range(ell - k + 1):
            if k + 2 * q <= radial:
                out[k + 2 * q][k] = math.comb(ell, k) * math.comb(ell - k, q) * (-2) ** k
    return out


def _series_product(a: list[dict], b: list[dict], radial: int) -> list[dict]:
    """The product of two series in the layout of :func:`_radial_power`,
    truncated at u^radial."""
    out: list[dict] = [{} for _ in range(radial + 1)]
    for n1, poly1 in enumerate(a):
        for n2, poly2 in enumerate(b[:radial + 1 - n1]):
            acc = out[n1 + n2]
            for k1, c1 in poly1.items():
                for k2, c2 in poly2.items():
                    acc[k1 + k2] = acc.get(k1 + k2, 0) + c1 * c2
    return out


def edge_gegenbauer_expansion(ell, lam, orders: "TruncationOrders | None" = None
                              ) -> GegenExpansion:
    """Gegenbauer-basis expansion of the l_e = ell edge term at fixed weight lam.

    With rho^2 (1 - 2ux + u^2) the squared separation, the bare factor of the
    term is a product of at most two exact series in (u, x), truncated at
    u^radial and converted to the C^(lam) basis once: (1 - 2ux + u^2)^ell
    times log(rho) + k0 + (1/2) log(1 - 2ux + u^2) on the log branch; on the
    power branch r^p with p = 2 ell, the generating series of C^(-p/2) for
    p < 0, (1 - 2ux + u^2)^(p/2) for even p >= 0, and for odd p > 0
    (1 - 2ux + u^2)^((p+1)/2) times the generating series of C^(1/2)."""
    lam = _check_lambda(lam)
    orders = orders or TruncationOrders()
    radial = orders.radial
    coeff = taylor_term_coefficient(ell, lam)
    p = int(coeff.r_exponent)
    log_rho, prefactor, k0 = [], coeff.coeff_const, SymbolicCoeff.zero()
    if not coeff.coeff_log.is_zero():
        log_rho = _radial_power(p // 2, radial)
        series = _series_product(log_rho, chebyshev_log_series(radial), radial)
        prefactor, k0 = coeff.coeff_log, _log_constant(p // 2, lam)
    elif p < 0:
        series = generating_series(Fraction(-p, 2), radial)
    elif p % 2 == 0:
        series = _radial_power(p // 2, radial)
    else:
        series = _series_product(_radial_power((p + 1) // 2, radial),
                                 generating_series(Fraction(1, 2), radial), radial)
    cap = orders.gegen if orders.gegen is not None else radial
    tensors = ({k: c for k, c in gegenbauer_tensor(s, lam).items() if k[1] <= cap}
               for s in (log_rho, series))
    return GegenExpansion(lam, coeff.r_exponent, prefactor, k0, *tensors, radial)


# ---------------------------------------------------------------------------
# Whole-amplitude truncated evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncationOrders:
    """Explicit truncation knobs (no adaptivity): radial order of the
    Gegenbauer tensors, optional Gegenbauer degree cap (defaults to radial),
    the highest Taylor index ell, and the asymptotic term count."""
    radial: int = 24
    gegen: int | None = None
    ell_max: int = 20
    asym_terms: int = 6

    def __post_init__(self):
        if self.radial < 0 or (self.gegen is not None and self.gegen < 0) or self.ell_max < 0:
            raise ValueError(f"truncation orders must be >= 0, got {self}")
        if self.asym_terms < 1:
            raise ValueError(f"asym_terms must be >= 1, got {self.asym_terms}")


def _taylor_indices(lam: Fraction, ell_max: int) -> list[Fraction]:
    if lam.denominator == 1:
        return [Fraction(e) for e in range(-int(lam), ell_max + 1)]
    # half-integer lam: 2*ell runs over the integers from -2 lam upward
    return [Fraction(t, 2) for t in range(-int(2 * lam), 2 * ell_max + 1)]


# ---------------------------------------------------------------------------
# Float kernels
# ---------------------------------------------------------------------------


def _unit_mass(coeff: SymbolicCoeff, k: int | Fraction, log_part: SymbolicCoeff | None = None
               ) -> float:
    """a = coeff at m = 1, after checking exactly that coeff = m^k (a + b log m)
    with b m^k = log_part (b = 0 when it is None): what puts a term into
    m^(2 lam) g(m s)."""
    twice = 2 * k
    if any(m2 != twice or logm > 1 for m2, logm, *_ in coeff.terms):
        raise ValueError(f"{coeff!r} is not m^{k} (a + b log m)")
    # (gamma, log2, sqrt2, pi_half) -> rational of the log m terms
    logs = {key[2:]: q for key, q in coeff.terms.items() if key[1]}
    if logs != {key[2:]: q for key, q in (log_part.terms.items() if log_part is not None else ())}:
        raise ValueError(f"the log m part of {coeff!r} is not {log_part!r}")
    return coeff.bind(1.0)


def _z_power(r_exponent: Fraction, lam: Fraction) -> int:
    """k = r_exponent + 2 lam: the term r^r_exponent m^k is r^(-2 lam) z^k,
    z = m r, which needs an integer k >= 0."""
    k = r_exponent + 2 * lam
    if k.denominator != 1 or k < 0:
        raise ValueError(f"r^{r_exponent} at lam = {lam} is no power z^k with k >= 0")
    return int(k)


def _powers(plain: dict[int, object], log: dict[int, object], empty
            ) -> tuple[int, tuple, tuple]:
    """From the coefficients {k: c_k} of z^k in P and in Q, the step s, the
    greatest common divisor of the k, and the coefficient tuples of P and Q
    in w = z^s."""
    step = math.gcd(*plain, *log) or 1

    def table(coeffs):
        size = max(coeffs, default=-1) // step + 1
        return tuple(coeffs.get(j * step, empty) for j in range(size))
    return step, table(plain), table(log)


def _horner(coeffs: Sequence[float], w: float) -> float:
    total = 0.0
    for c in reversed(coeffs):
        total = total * w + c
    return total


def _bracket(lam2: float, step: int, plain: Sequence[float], log: Sequence[float],
             s: float, m: float) -> float:
    """s^(-2 lam) [P(z) + log(z) Q(z)] at z = m s, that is m^(2 lam) g(m s),
    for P and Q given by their coefficients of 1, z^step, z^(2 step), ..."""
    if not m >= 0:
        raise ValueError(f"mass must be >= 0, got {m}")
    z = m * s
    w = z ** step
    value = _horner(plain, w)
    if log:
        value += math.log(z) * _horner(log, w)
    return value * s ** -lam2


@lru_cache(maxsize=None)
def _taylor_kernel(lam, ell_max: int) -> tuple[float, int, tuple, tuple]:
    """The :func:`_bracket` arguments of the edge factor up to ell_max.  With
    k = p + 2 lam, the term coeff_const r^p + coeff_log r^p log r is
    r^(-2 lam) z^k (a + b log z) when coeff_log = b m^k and coeff_const =
    m^k (a + b log m), which is checked.  The kernels are cached by lam as
    given: a value equal to a checked lam is that lam."""
    lam = _check_lambda(lam)
    plain: dict[int, float] = {}
    log: dict[int, float] = {}
    for ell in _taylor_indices(lam, ell_max):
        term = taylor_term_coefficient(ell, lam)
        k = _z_power(term.r_exponent, lam)
        b = _unit_mass(term.coeff_log, k)
        plain[k] = plain.get(k, 0.0) + _unit_mass(term.coeff_const, k, term.coeff_log)
        if b:
            log[k] = log.get(k, 0.0) + b
    return (float(2 * lam), *_powers(plain, log, 0.0))


def edge_taylor_value(lam, r: float, m: float, orders: TruncationOrders) -> float:
    """Truncated small-separation value of one edge factor."""
    return _bracket(*_taylor_kernel(lam, orders.ell_max), r, m)


@lru_cache(maxsize=None)
def _asymptotic_kernel(lam, terms: int) -> tuple[float, float, tuple[float, ...]]:
    """2 lam, lam + 1/2 and the coefficients of P in the edge factor
    m^(2 lam) z^-(lam+1/2) e^-z P(1/z), z = m r: the term of index ell is
    c m^(lam-ell-1/2) r^-(lam+ell+1/2) e^-z = c m^(2 lam) z^-(lam+ell+1/2) e^-z."""
    lam = _check_lambda(lam)
    coeffs = []
    for ell in range(terms):
        term = asymptotic_term_coefficient(ell, lam)
        coeffs.append(_unit_mass(term.coeff, term.r_exponent + 2 * lam))
    return float(2 * lam), float(lam + Fraction(1, 2)), tuple(coeffs)


def edge_asymptotic_value(lam, r: float, m: float, orders: TruncationOrders) -> float:
    """Truncated large-separation value of one edge factor."""
    lam2, power, coeffs = _asymptotic_kernel(lam, orders.asym_terms)
    if not m > 0:
        raise ValueError(f"the asymptotic expansion needs m > 0, got {m}")
    z = m * r
    return m ** lam2 * z ** -power * math.exp(-z) * _horner(coeffs, 1.0 / z)


class _GegenKernel:
    """A sum of Gegenbauer expansions of one weight as a float kernel.

    The expansion of index l_e contributes m^k rho^(2 l_e) c [(k0 + log rho)
    log_rho + series] with k = 2 l_e + 2 lam and k0 = log m + kappa, that is
    rho^(-2 lam) z^k c [(kappa + log z) log_rho + series] at z = m rho.  So
    the sum is rho^(-2 lam) [P(z) + log(z) Q(z)], where the coefficient of
    z^k in P is the row c (kappa log_rho + series) and in Q the row
    c log_rho, each dotted with the basis u^n C_d^(lam)(cos) over the union
    of the tensors' keys.  The keys are sorted by n, so a row stops at its
    last non-zero entry."""

    def __init__(self, lam: Fraction, expansions: Sequence[GegenExpansion]):
        keys = sorted({key for e in expansions for key in (*e.log_rho, *e.series)})
        index = {key: i for i, key in enumerate(keys)}
        plain: dict[int, list[float]] = {}
        log: dict[int, list[float]] = {}
        for e in expansions:
            k = _z_power(e.rho_exponent, lam)
            c = _unit_mass(e.prefactor, k)
            row = plain.setdefault(k, [0.0] * len(keys))
            for key, q in e.series.items():
                row[index[key]] += c * float(q)
            if e.log_rho:
                kappa = _unit_mass(e.k0, 0, SymbolicCoeff.one())
                log_row = log.setdefault(k, [0.0] * len(keys))
                for key, q in e.log_rho.items():
                    row[index[key]] += c * kappa * float(q)
                    log_row[index[key]] += c * float(q)
        self.lam = float(lam)
        self.ns = tuple(n for n, _ in keys)
        self.ds = tuple(d for _, d in keys)
        self.n_max, self.d_max = max(self.ns, default=0), max(self.ds, default=0)
        self.lam2, self.step, self.plain, self.log = float(2 * lam), *_powers(
            {k: _trimmed(r) for k, r in plain.items()},
            {k: _trimmed(r) for k, r in log.items()}, ())

    def evaluate(self, geom: EdgeGeometry, m: float) -> float:
        if geom.r > 0 and geom.u >= 1.0:
            raise DivergentRatioError("expansion needs r/rho < 1")
        u = geom.u if geom.rho else 0.0
        u_pows = list(accumulate(repeat(u, self.n_max), mul, initial=1.0))
        c_vals = gegenbauer_table(self.lam, self.d_max, geom.cos)
        basis = list(map(mul, map(u_pows.__getitem__, self.ns), map(c_vals.__getitem__, self.ds)))
        return _bracket(self.lam2, self.step,
                        [sum(map(mul, row, basis), 0.0) for row in self.plain],
                        [sum(map(mul, row, basis), 0.0) for row in self.log], geom.rho, m)


def _trimmed(row: list[float]) -> tuple[float, ...]:
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return tuple(row[:end])


@lru_cache(maxsize=None)
def _cached_expansion(ell: Fraction, lam: Fraction, radial: int, gegen: int | None
                      ) -> GegenExpansion:
    orders = TruncationOrders(radial=radial, gegen=gegen)
    return edge_gegenbauer_expansion(ell, lam, orders)


@lru_cache(maxsize=None)
def _gegen_kernel(lam, orders: TruncationOrders) -> _GegenKernel:
    """The kernel of the expansions of every term of one edge factor."""
    lam = _check_lambda(lam)
    return _GegenKernel(lam, [_cached_expansion(ell, lam, orders.radial, orders.gegen)
                              for ell in _taylor_indices(lam, orders.ell_max)])


def edge_gegenbauer_value(lam, geom: EdgeGeometry, m: float,
                          orders: TruncationOrders) -> float:
    """Truncated value of one edge factor: the sum of the Gegenbauer
    expansions of its terms, evaluated by one compiled kernel."""
    return _gegen_kernel(lam, orders).evaluate(geom, m)


def amplitude_truncated_eval(graph: FeynmanGraph,
                             positions: dict[int, Sequence[float]],
                             masses: dict[int, float] | float,
                             lam,
                             method: str = "direct",
                             orders: TruncationOrders | None = None) -> float:
    """Scalar factor of the amplitude: the product over all edges of the
    (truncated) edge values; the volume form is a degree tag the caller keeps.

    ``method`` is one of direct | taylor | asymptotic | gegenbauer.
    """
    from .propagators import Kinematics, gm_real

    # the edge functions take lam as given: their kernel caches check it once
    D = int(2 * _check_lambda(lam) + 2)
    orders = orders or TruncationOrders()
    total = 1.0
    for idx, e in enumerate(graph.edges):
        xs = tuple(map(float, positions[e.src]))
        xt = tuple(map(float, positions[e.tgt]))
        m = masses if isinstance(masses, (int, float)) else masses[idx]
        diff = tuple(map(sub, xs, xt))
        r = math.sqrt(sum(map(mul, diff, diff)))
        if r == 0.0:
            raise ValueError(f"edge {idx} has coincident endpoints")
        if method == "direct":
            total *= gm_real(Kinematics(D, diff, m))
        elif method == "taylor":
            total *= edge_taylor_value(lam, r, m, orders)
        elif method == "asymptotic":
            total *= edge_asymptotic_value(lam, r, m, orders)
        elif method == "gegenbauer":
            geom = EdgeGeometry.from_points(xs, xt)
            if geom.r > 0 and geom.u >= 1.0:
                raise DivergentRatioError(
                    f"edge {idx}: r/rho = {geom.u} is not < 1")
            total *= edge_gegenbauer_value(lam, geom, m, orders)
        else:
            raise ValueError(f"unknown method {method!r}")
    return total
