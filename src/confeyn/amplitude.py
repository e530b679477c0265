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
a term r^(2 l_e) is rho^(2 l_e) times the generating function
(1 - 2 u c + u^2)^(l_e) = sum_n u^n C_n^(-l_e)(c), and the log branch adds
(1 - 2 u c + u^2)^l (1/2) log(1 - 2 u c + u^2), half its derivative in the
exponent (:func:`~confeyn.gegenbauer.log_generating_series`).  Both are
truncated at the radial order and each power c^k converted to the weight-lam
basis once.

Every term is stored free of the mass.  By the exact identity
G_m(r) = m^(2 lam) g(m r), a term of radial exponent p is r^(-2 lam) z^k
(a + b log z) with z = m r and k = p + 2 lam, so an :class:`EdgeTerm` holds
k and the exact a and b (an asymptotic term also carries e^(-z), with b = 0);
m^k and log m are written only into columns of the JSON output.  The rational
tensors are read-only; the term coefficient (prefactor) and the constant kappa
of the log bracket log(m r / 2) - ... = log z + kappa factor out, so a term is
prefactor * rho^(-2 lam) zeta^k [(kappa + log zeta) log_rho + series] at
zeta = m rho.  The symbolic tensor plain = kappa log_rho + series (the bracket
at m = 1, to which the JSON output adds log(m) log_rho) is a view.

The first evaluation of an edge factor at a weight lam, a method and
:class:`TruncationOrders` compiles one float kernel from these mass-free
constants, and a warm kernel binds no symbolic coefficient.  The Taylor edge
is r^(-2 lam) [A(z) + log(z) B(z)] for two polynomials evaluated by Horner's
rule, and the asymptotic edge is m^(2 lam) z^(-lam-1/2) e^(-z) P(1/z).  The
Gegenbauer edge is rho^(-2 lam) [P(zeta) + log(zeta) Q(zeta)], where each
coefficient of P and Q is a float row dotted with one basis
u^n C_d^(lam)(cos) built per edge, C by the three-term recurrence.

Every edge value, of one edge or of a whole amplitude, goes through a plan
cached per lam, method and orders, the only cache of compiled kernels: it
checks lam once and binds the method's edge function (a compiled kernel, or
the Macdonald kernel for direct).  :func:`amplitude_truncated_eval` takes
the plan once per call; each vertex is checked (D finite floats) and its
norm taken once.  An edge costs its separation, the mass lookup and the
edge function, which checks the mass; a non-finite factor or product raises.

The complex-case kernel in dimension D coincides with the real kernel at
weight D - 1 (its prefactor is (2 pi)^-D and the Macdonald order is D - 1),
so every expansion here covers the complex case by passing lam = D - 1; see
:func:`complex_case_weight`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, repeat
from operator import mul, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .exact import SymbolicCoeff
from .gegenbauer import (gegenbauer_table, gegenbauer_tensor, generating_series,
                         log_generating_series)
from .specfun import as_half_integer, asym_coeff, check_weight, digamma_exact

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
    def from_points(cls, xs: Sequence[float], xt: Sequence[float],
                    ns: float | None = None, nt: float | None = None) -> "EdgeGeometry":
        ns = math.hypot(*xs) if ns is None else ns
        nt = math.hypot(*xt) if nt is None else nt
        rho, r = max(ns, nt), min(ns, nt)
        if r == 0.0:
            return cls(rho, 0.0, 0.0)
        dot = sum(map(mul, xs, xt))
        return cls(rho, r, max(-1.0, min(1.0, dot / (ns * nt))))

    @property
    def u(self) -> float:
        return self.r / self.rho


@dataclass(frozen=True)
class EdgeTerm:
    """One term r^(-2 lam) z^k (a + b log z) of an edge factor, z = m r: the
    mass enters only through z, so a and b are exact and free of m.  b is
    non-zero exactly on the power-times-log branch; an asymptotic term also
    carries e^(-z) and has b = 0."""
    z_power: Fraction
    a: SymbolicCoeff
    b: SymbolicCoeff


def complex_case_weight(D: int) -> Fraction:
    """Weight for the complex-case expansions: the massive complex kernel in
    dimension D is the real kernel at lam = D - 1 (indices then run over
    {-(D-1), ..., inf})."""
    if D < 2:
        raise ValueError("complex case needs D >= 2")
    return Fraction(D - 1)


def _log_constant(ell: int, lam: Fraction) -> SymbolicCoeff:
    """kappa = -log 2 - (psi(ell+1) + psi(lam+ell+1)) / 2: the log branch
    bracket log(m r / 2) - (psi(ell+1) + psi(lam+ell+1)) / 2 is log z + kappa."""
    return (-SymbolicCoeff.monomial(log2=1)
            - Fraction(1, 2) * (digamma_exact(ell + 1) + digamma_exact(lam + ell + 1)))


@lru_cache(maxsize=None)
def taylor_term_coefficient(ell, lam) -> EdgeTerm:
    """Exact term of index l_e = ell of the massive edge factor, of radial
    exponent 2 ell (cached: the result is immutable).  At integer lam, ell is
    an integer: ell < 0 sits on the pure-power branch and ell >= 0 on the
    power-times-log branch.  At half-integer lam, ell runs over the
    half-integers and every term is a pure power."""
    lam = check_weight(lam)
    ell = as_half_integer(ell, "ell")
    if ell < -lam:
        raise ValueError(f"ell must be >= -lam = {-lam}")
    z_power = 2 * (lam + ell)
    if lam.denominator == 1:
        lam_i = int(lam)
        if ell.denominator != 1:
            raise ValueError(f"integer lam needs an integer ell, got {ell}")
        if ell < 0:
            # Laurent sum of the small-z Macdonald expansion, re-indexed
            l = int(lam + ell)  # 0 .. lam-1
            coeff = (Fraction((-1) ** l) * Fraction(2) ** (lam_i - 2 * l - 1)
                     * math.factorial(lam_i - l - 1) / math.factorial(l))
            return EdgeTerm(z_power, two_pi_power(-(lam + 1)) * SymbolicCoeff.monomial(coeff),
                            SymbolicCoeff.zero())
        l = int(ell)
        b = two_pi_power(-(lam + 1)) * SymbolicCoeff.monomial(
            Fraction((-1) ** (lam_i + 1), 2 ** (lam_i + 2 * l))
            / Fraction(math.factorial(l) * math.factorial(lam_i + l)))
        return EdgeTerm(z_power, b * _log_constant(l, lam), b)
    # half-integer lam: terminating Macdonald form, exponential expanded; the
    # sum over j <= lam - 1/2 of (lam,j) 2^-j (-1)^k / k!, k = 2 ell + lam + 1/2 + j,
    # runs by the term ratio, with (lam,j+1)/(lam,j) = (lam+j+1/2)(lam-j-1/2)/(j+1)
    k0 = int(2 * ell + lam + Fraction(1, 2))  # k at j = 0; ell >= -lam makes -k0 <= jmax
    j0, jmax = max(0, -k0), int(lam - Fraction(1, 2))
    a_j = asym_coeff(lam, j0) * Fraction((-1) ** (k0 + j0), 2 ** j0 * math.factorial(k0 + j0))
    total = a_j
    for j in range(j0, jmax):
        a_j *= Fraction(-int(lam + j + Fraction(1, 2)) * int(lam - j - Fraction(1, 2)),
                        2 * (j + 1) * (k0 + j + 1))
        total += a_j
    return EdgeTerm(z_power, two_pi_power(-(lam + 1)) * _SQRT_PI_OVER_2
                    * SymbolicCoeff.monomial(total), SymbolicCoeff.zero())


def asymptotic_term_coefficient(ell: int, lam) -> EdgeTerm:
    """The term sqrt(pi/2) (2 pi)^-(lam+1) (lam,ell) 2^-ell
    m^(lam-ell-1/2) r^-(lam+ell+1/2) e^-z, that is a r^(-2 lam) z^k e^-z
    with k = lam - ell - 1/2."""
    lam = check_weight(lam)
    if ell < 0 or int(ell) != ell:
        raise ValueError(f"ell must be an integer >= 0, got {ell}")
    ell = int(ell)
    a = two_pi_power(-(lam + 1)) * _SQRT_PI_OVER_2 * SymbolicCoeff.monomial(
        asym_coeff(lam, ell) / 2 ** ell)
    return EdgeTerm(lam - ell - Fraction(1, 2), a, SymbolicCoeff.zero())


# ---------------------------------------------------------------------------
# Gegenbauer tensors
# ---------------------------------------------------------------------------

Tensor = Mapping[tuple[int, int], Fraction]


@dataclass(frozen=True)
class GegenExpansion:
    """Truncated double series of one edge term in the weight-lam basis:

        prefactor * rho^(-2 lam) zeta^k *
          sum_{n,d} [ (kappa + log(zeta)) log_rho[n,d] + series[n,d] ] u^n C_d^(lam)(cos)

    at zeta = m rho, with k = rho_exponent + 2 lam.  The rational tensors
    expand the *bare* radial/log factor; the mass-free term coefficient is
    kept in ``prefactor`` (this is what makes the worked massless values come
    out with unit entries) and the constant of the log bracket in ``kappa``
    (zero on the power branch).  The tensors are read-only."""
    lam: Fraction
    rho_exponent: Fraction
    prefactor: SymbolicCoeff
    kappa: SymbolicCoeff
    log_rho: Tensor = field(default_factory=dict)
    series: Tensor = field(default_factory=dict)
    radial_order: int = 0

    def __post_init__(self):
        object.__setattr__(self, "log_rho", MappingProxyType(dict(self.log_rho)))
        object.__setattr__(self, "series", MappingProxyType(dict(self.series)))

    @property
    def plain(self) -> Mapping[tuple[int, int], SymbolicCoeff]:
        """The symbolic tensor kappa log_rho + series, built on each access: the
        bracket of prefactor m^k rho^rho_exponent at m = 1 (it adds log(m) log_rho)."""
        plain = {key: SymbolicCoeff.from_rational(c) for key, c in self.series.items()}
        for key, q in self.log_rho.items():
            plain[key] = self.kappa * q + plain[key] if key in plain else self.kappa * q
        return MappingProxyType(plain)

    def to_json(self) -> dict:
        """The expansion at a symbolic mass m: the prefactor carries m^k, and
        each plain entry adds log(m) log_rho to the bracket at m = 1."""
        def tensor_json(t: Mapping[tuple[int, int], list]) -> list:
            return [{"radial": n, "degree": d, "coeff": t[(n, d)]} for (n, d) in sorted(t)]
        log_rho = {key: SymbolicCoeff.from_rational(q) for key, q in self.log_rho.items()}
        zero = SymbolicCoeff.zero()
        return {
            "lambda": str(self.lam),
            "rho_exponent": str(self.rho_exponent),
            "radial_order": self.radial_order,
            "prefactor": self.prefactor.to_json(self.rho_exponent + 2 * self.lam),
            "plain": tensor_json({key: c.to_json() + log_rho.get(key, zero).to_json(0, 1)
                                  for key, c in self.plain.items()}),
            "log_rho": tensor_json({key: c.to_json() for key, c in log_rho.items()}),
        }


def edge_gegenbauer_expansion(ell, lam, orders: "TruncationOrders | None" = None
                              ) -> GegenExpansion:
    """Gegenbauer-basis expansion of the l_e = ell edge term at fixed weight lam.

    With rho^2 (1 - 2ux + u^2) the squared separation, the bare factor of the
    term comes from the one generating function (1 - 2ux + u^2)^(p/2), p the
    radial exponent, truncated at u^radial and converted to the C^(lam) basis
    once: on the power branch it is the whole factor; on the log branch
    (p = 2l) it multiplies log(zeta) + kappa, kappa = a / b, and its
    derivative in p/2 at l, halved, is the series
    (1 - 2ux + u^2)^l (1/2) log(1 - 2ux + u^2)."""
    lam = check_weight(lam)
    orders = orders or TruncationOrders()
    radial = orders.radial
    term = taylor_term_coefficient(ell, lam)
    p = int(term.z_power - 2 * lam)
    if term.b.is_zero():
        log_rho, series = [], generating_series(Fraction(-p, 2), radial)
        prefactor, kappa = term.a, SymbolicCoeff.zero()
    else:
        l = p // 2
        log_rho, series = generating_series(-l, radial), log_generating_series(l, radial)
        prefactor, kappa = term.b, term.a / term.b
    cap = orders.gegen if orders.gegen is not None else radial
    tensors = ({k: c for k, c in gegenbauer_tensor(s, lam).items() if k[1] <= cap}
               for s in (log_rho, series))
    return GegenExpansion(lam, Fraction(p), prefactor, kappa, *tensors, radial)


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
    if not 0 <= m < math.inf:
        raise ValueError(f"mass must be >= 0 and finite, got {m}")
    z = m * s
    if log and not z > 0:
        raise ValueError(f"log m needs m > 0, got m = {m} (m r = {z})")
    try:
        w = z ** step
        value = _horner(plain, w)
        if log:
            value += math.log(z) * _horner(log, w)
        value *= s ** -lam2
        if math.isfinite(value):
            return value
    except OverflowError:  # a power beyond the doubles
        value = math.inf
    raise ValueError(f"the edge factor at m = {m}, r = {s} is {value}, not a finite double")


def _taylor_kernel(lam: Fraction, ell_max: int) -> tuple[float, int, tuple, tuple]:
    """The :func:`_bracket` arguments of the edge factor up to ell_max: the
    terms r^(-2 lam) z^k (a + b log z) put a into P and b into Q at z^k."""
    terms = [taylor_term_coefficient(ell, lam) for ell in _taylor_indices(lam, ell_max)]
    plain = {int(t.z_power): float(t.a) for t in terms}
    log = {int(t.z_power): float(t.b) for t in terms if not t.b.is_zero()}
    return (float(2 * lam), *_powers(plain, log, 0.0))


def edge_taylor_value(lam, r: float, m: float, orders: TruncationOrders) -> float:
    """Truncated small-separation value of one edge factor."""
    return _edge_plan(lam, "taylor", orders)[1](r, m)


def _asymptotic_kernel(lam: Fraction, terms: int) -> tuple[float, float, tuple[float, ...]]:
    """2 lam, lam + 1/2 and the coefficients of P in the edge factor
    m^(2 lam) z^-(lam+1/2) e^-z P(1/z), z = m r: the term of index ell is
    a r^(-2 lam) z^(lam-ell-1/2) e^-z = a m^(2 lam) z^-(lam+ell+1/2) e^-z."""
    coeffs = tuple(float(asymptotic_term_coefficient(ell, lam).a) for ell in range(terms))
    return float(2 * lam), float(lam + Fraction(1, 2)), coeffs


def _asymptotic(lam2: float, power: float, coeffs: Sequence[float], r: float, m: float
                ) -> float:
    """m^(2 lam) z^-(lam+1/2) e^-z P(1/z) at z = m r, refused where e^-z
    underflows as where a factor overflows."""
    if not 0 < m < math.inf:
        raise ValueError(f"the asymptotic expansion needs a finite m > 0, got {m}")
    z = m * r
    try:
        value = m ** lam2 * z ** -power * math.exp(-z) * _horner(coeffs, 1.0 / z)
        if math.isfinite(value) and abs(value) >= sys.float_info.min:
            return value
    except OverflowError:
        value = math.inf
    raise ValueError(f"the edge factor at m = {m}, r = {r} is {value}, "
                     "not a finite double of normal magnitude")


def edge_asymptotic_value(lam, r: float, m: float, orders: TruncationOrders) -> float:
    """Truncated large-separation value of one edge factor."""
    return _edge_plan(lam, "asymptotic", orders)[1](r, m)


class _GegenKernel:
    """A sum of Gegenbauer expansions of one weight as a float kernel.

    The expansion of index l_e contributes rho^(-2 lam) z^k c [(kappa +
    log z) log_rho + series] at z = m rho, with k = 2 l_e + 2 lam and c its
    prefactor.  So the sum is rho^(-2 lam) [P(z) + log(z) Q(z)], where the
    coefficient of z^k in P is the row c (kappa log_rho + series) and in Q the row
    c log_rho, each dotted with the basis u^n C_d^(lam)(cos) over the union
    of the tensors' keys.  The keys are sorted by n, so a row stops at its
    last non-zero entry."""

    def __init__(self, lam: Fraction, expansions: Sequence[GegenExpansion]):
        keys = sorted({key for e in expansions for key in (*e.log_rho, *e.series)})
        index = {key: i for i, key in enumerate(keys)}
        plain: dict[int, list[float]] = {}
        log: dict[int, list[float]] = {}
        for e in expansions:
            k = int(e.rho_exponent + 2 * lam)
            c = float(e.prefactor)
            row = plain.setdefault(k, [0.0] * len(keys))
            for key, q in e.series.items():
                row[index[key]] += c * float(q)
            if e.log_rho:
                kappa = float(e.kappa)
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
            raise DivergentRatioError(f"expansion needs r/rho < 1, got {geom.u}")
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


def _gegen_kernel(lam: Fraction, orders: TruncationOrders) -> _GegenKernel:
    """The kernel of the expansions of every term of one edge factor."""
    return _GegenKernel(lam, [edge_gegenbauer_expansion(ell, lam, orders)
                              for ell in _taylor_indices(lam, orders.ell_max)])


def edge_gegenbauer_value(lam, geom: EdgeGeometry, m: float,
                          orders: TruncationOrders) -> float:
    """Truncated value of one edge factor: the sum of the Gegenbauer
    expansions of its terms, evaluated by one compiled kernel."""
    return _edge_plan(lam, "gegenbauer", orders)[1](geom, m)


@lru_cache(maxsize=None)
def _edge_plan(lam, method: str, orders: TruncationOrders) -> tuple[int, Callable, bool]:
    """The fixed work of an edge or amplitude evaluation: D, the edge function
    edge(r, m) of ``method`` and whether it takes an :class:`EdgeGeometry` in
    place of r.  The only cache of compiled kernels, keyed by lam as given: a
    value equal to a checked lam is that lam."""
    lam = check_weight(lam)
    D = int(2 * lam + 2)
    if method == "direct":
        from .propagators import _gm_real
        return D, partial(_gm_real, D), False
    if method == "taylor":
        return D, partial(_bracket, *_taylor_kernel(lam, orders.ell_max)), False
    if method == "asymptotic":
        return D, partial(_asymptotic, *_asymptotic_kernel(lam, orders.asym_terms)), False
    if method == "gegenbauer":
        return D, _gegen_kernel(lam, orders).evaluate, True
    raise ValueError(f"unknown method {method!r}")


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
    D, edge, angular = _edge_plan(lam, method, orders or TruncationOrders())
    points = {}
    for v in dict.fromkeys(v for e in graph.edges for v in (e.src, e.tgt)):
        try:
            x = points[v] = tuple(map(float, positions[v]))
        except LookupError:
            raise ValueError(f"vertex {v} has no position") from None
        if len(x) != D or not all(map(math.isfinite, x)):
            raise ValueError(f"vertex {v} needs D = {D} finite coordinates, got {x}")
    norms = {v: math.hypot(*x) for v, x in points.items()} if angular else {}
    total = 1.0
    for idx, e in enumerate(graph.edges):
        xs, xt = points[e.src], points[e.tgt]
        r = math.hypot(*map(sub, xs, xt))
        if not 0 < r < math.inf:
            raise ValueError(f"edge {idx} has {'coincident endpoints' if r == 0 else 'r = inf'}")
        try:
            m = masses if isinstance(masses, (int, float)) else masses[idx]
        except LookupError:
            raise ValueError(f"edge {idx} has no mass") from None
        total *= edge(EdgeGeometry.from_points(xs, xt, norms[e.src], norms[e.tgt])
                      if angular else r, m)
    if not math.isfinite(total):
        raise ValueError(f"the amplitude, a product of finite edge factors, is {total}")
    return total
