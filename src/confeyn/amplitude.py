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
JSON output.  Numeric evaluation reads the two tensors as (n, d, float) rows
compiled once per expansion and sums them against the tables u^0..u^R and
C_0^(lam)..C_cap^(lam)(cos), the latter by the three-term recurrence;
:func:`edge_gegenbauer_value` computes the two tables once per edge and
shares them across all the edge's terms.

The complex-case kernel in dimension D coincides with the real kernel at
weight D - 1 (its prefactor is (2 pi)^-D and the Macdonald order is D - 1),
so every expansion here covers the complex case by passing lam = D - 1; see
:func:`complex_case_weight`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from .exact import ExactScalar, SymbolicCoeff
from .gegenbauer import (chebyshev_log_series, gegenbauer_table, gegenbauer_tensor,
                         generating_series)
from .specfun import as_half_integer, asym_coeff, digamma_exact

if TYPE_CHECKING:  # the graph argument of amplitude_truncated_eval only
    from .feyngraph import FeynmanGraph


class DivergentRatioError(ValueError):
    """Gegenbauer evaluation requested at r/rho >= 1, outside convergence."""


def two_pi_power(exp) -> ExactScalar:
    """(2 pi)**exp for integer or half-integer exp, as an exact scalar."""
    exp = Fraction(exp)
    if (2 * exp).denominator != 1:
        raise ValueError("exponent must be a half-integer")
    if exp.denominator == 1:
        two = ExactScalar.from_rational(Fraction(2) ** exp)
    else:
        whole = exp - Fraction(1, 2)
        two = ExactScalar.term(Fraction(2) ** whole, sqrt2=1)
    return two * ExactScalar.pi_power(int(2 * exp))


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
        ns = math.sqrt(sum(c * c for c in xs))
        nt = math.sqrt(sum(c * c for c in xt))
        rho, r = max(ns, nt), min(ns, nt)
        if r == 0.0:
            return cls(rho, 0.0, 0.0)
        dot = sum(a * b for a, b in zip(xs, xt))
        return cls(rho, r, max(-1.0, min(1.0, dot / (ns * nt))))

    @property
    def u(self) -> float:
        return self.r / self.rho

    def separation(self) -> float:
        return math.sqrt(self.rho ** 2 + self.r ** 2 - 2 * self.rho * self.r * self.cos)


@dataclass(frozen=True)
class TaylorTermSpec:
    """Index l_e of one expansion term; negative l_e sit on the pure-power
    branch, l_e >= 0 on the power-times-log branch (integer lam only).  For
    half-integer lam the index runs over half-integers >= -lam and the branch
    is always 'power'."""
    ell: Fraction
    branch: str

    def __post_init__(self):
        object.__setattr__(self, "ell", as_half_integer(self.ell, "ell"))
        if self.branch not in ("power", "log"):
            raise ValueError("branch must be 'power' or 'log'")
        if self.branch == "log" and self.ell < 0:
            raise ValueError("log branch needs ell >= 0")

    @classmethod
    def make(cls, ell, lam) -> "TaylorTermSpec":
        ell = as_half_integer(ell, "ell")
        lam = as_half_integer(lam, "lambda")
        if lam.denominator == 2:
            return cls(ell, "power")
        return cls(ell, "power" if ell < 0 else "log")


@dataclass(frozen=True)
class TaylorTerm:
    """One term coeff_const * r^e + coeff_log * r^e * log(r)."""
    r_exponent: Fraction
    coeff_const: SymbolicCoeff
    coeff_log: SymbolicCoeff

    def eval(self, r: float, m: float) -> float:
        value = self.coeff_const.bind(m)
        if not self.coeff_log.is_zero():
            value += self.coeff_log.bind(m) * math.log(r)
        return value * r ** float(self.r_exponent)


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
    return (SymbolicCoeff.logm_symbol() - SymbolicCoeff.log2_symbol()
            - Fraction(1, 2) * (digamma_exact(ell + 1) + digamma_exact(lam + ell + 1)))


@lru_cache(maxsize=None)
def taylor_term_coefficient(term: TaylorTermSpec, lam) -> TaylorTerm:
    """Exact coefficient of the l_e term of the massive edge factor (cached:
    the result is immutable)."""
    lam = _check_lambda(lam)
    ell = term.ell
    if ell < -lam:
        raise ValueError(f"ell must be >= -lam = {-lam}")
    if lam.denominator == 1:
        lam_i = int(lam)
        if lam_i < 1:
            raise ValueError("integer branch needs lam >= 1")
        if term.branch == "power":
            if ell >= 0:
                raise ValueError("integer lam power branch needs ell in {-lam..-1}")
            # Laurent sum of the small-z Macdonald expansion, re-indexed
            l = int(lam + ell)  # 0 .. lam-1
            coeff = (Fraction((-1) ** l) * Fraction(2) ** (lam_i - 2 * l - 1)
                     * math.factorial(lam_i - l - 1) / math.factorial(l))
            scalar = two_pi_power(-(lam + 1)) * coeff
            return TaylorTerm(2 * ell, SymbolicCoeff.monomial(scalar, m_exp=2 * l),
                              SymbolicCoeff.zero())
        l = int(ell)
        scalar = (two_pi_power(-(lam + 1))
                  * Fraction((-1) ** (lam_i + 1), 2 ** (lam_i + 2 * l))
                  / Fraction(math.factorial(l) * math.factorial(lam_i + l)))
        b = SymbolicCoeff.monomial(scalar, m_exp=2 * (lam + ell))
        return TaylorTerm(2 * ell, b * _log_constant(l, lam), b)
    # half-integer lam: terminating Macdonald form, exponential expanded
    if term.branch != "power":
        raise ValueError("half-integer lam has no log branch")
    p = 2 * ell
    if p.denominator != 1:
        raise ValueError("2*ell must be an integer")
    p = int(p)
    jmax = int(lam - Fraction(1, 2))
    total = ExactScalar.zero()
    for j in range(jmax + 1):
        k = p + int(lam + Fraction(1, 2)) + j
        if k < 0:
            continue
        a_j = (asym_coeff(lam, j)
               * two_pi_power(-(lam + 1))
               * ExactScalar.term(Fraction(1, 2), sqrt2=1, pi_half=1)  # sqrt(pi/2)
               * Fraction(1, 2 ** j))
        total = total + a_j * Fraction((-1) ** k, math.factorial(k))
    return TaylorTerm(2 * ell, SymbolicCoeff.monomial(total, m_exp=2 * lam + 2 * ell),
                      SymbolicCoeff.zero())


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term of the large-distance expansion: coeff * r^e * exp(-m r)."""
    r_exponent: Fraction
    coeff: SymbolicCoeff

    def eval(self, r: float, m: float) -> float:
        return self.coeff.bind(m) * r ** float(self.r_exponent) * math.exp(-m * r)


def asymptotic_term_coefficient(ell: int, lam) -> AsymptoticTerm:
    """Coefficient sqrt(pi/2) (2 pi)^-(lam+1) (lam,ell) 2^-ell m^(lam-ell-1/2)
    paired with the radial exponent -(ell + lam + 1/2)."""
    lam = _check_lambda(lam)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    scalar = (asym_coeff(lam, ell)
              * ExactScalar.term(Fraction(1, 2), sqrt2=1, pi_half=1)
              * two_pi_power(-(lam + 1)) * Fraction(1, 2 ** ell))
    coeff = SymbolicCoeff.monomial(scalar, m_exp=lam - ell - Fraction(1, 2))
    return AsymptoticTerm(-(ell + lam + Fraction(1, 2)), coeff)


# ---------------------------------------------------------------------------
# Gegenbauer tensors
# ---------------------------------------------------------------------------

Tensor = Mapping[tuple[int, int], Fraction]
Rows = tuple[tuple[int, ...], tuple[int, ...], tuple[float, ...]]


class _FloatForm(NamedTuple):
    """Float rows (n's, d's, values) of the two tensors of one expansion,
    compiled once from them."""
    log_rho: Rows
    series: Rows
    rho_exponent: float
    n_max: int
    d_max: int


def _rows(tensor: Tensor) -> Rows:
    return (tuple(n for n, _ in tensor), tuple(d for _, d in tensor),
            tuple(float(c) for c in tensor.values()))


def _row_sum(rows: Rows, u_pows: list[float], c_vals: list[float]) -> float:
    """sum_i values[i] u^ns[i] C_ds[i](cos), the loop run by map."""
    ns, ds, values = rows
    return sum(map(mul, values, map(mul, map(u_pows.__getitem__, ns),
                                    map(c_vals.__getitem__, ds))), 0.0)


def gegen_tables(lam, geom: EdgeGeometry, n_max: int, d_max: int
                 ) -> tuple[list[float], list[float]]:
    """[u^0..u^n_max] and [C_0^(lam)..C_d_max^(lam)](cos) of one edge, shared
    by every expansion evaluated at that edge."""
    u = geom.u if geom.rho else 0.0
    u_pows = [1.0]
    for _ in range(n_max):
        u_pows.append(u_pows[-1] * u)
    return u_pows, gegenbauer_table(lam, d_max, geom.cos)


@dataclass(frozen=True)
class GegenExpansion:
    """Truncated double series of one edge term in the weight-lam basis:

        prefactor * rho^rho_exponent *
          sum_{n,d} [ (k0 + log(rho)) log_rho[n,d] + series[n,d] ] u^n C_d^(lam)(cos)

    The rational tensors expand the *bare* radial/log factor; the term
    coefficient is kept in ``prefactor`` (this is what makes the worked
    massless values come out with unit entries) and the constant of the log
    bracket in ``k0`` (zero on the power branch).  The tensors are read-only;
    their float form is compiled from them on the first evaluation."""
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

    @cached_property
    def float_form(self) -> _FloatForm:
        """The float rows of this instance's own tensors, compiled once."""
        keys = list(self.log_rho) + list(self.series)
        return _FloatForm(_rows(self.log_rho), _rows(self.series), float(self.rho_exponent),
                          max((n for n, _ in keys), default=0),
                          max((d for _, d in keys), default=0))

    def evaluate(self, geom: EdgeGeometry, m: float | None = None,
                 tables: tuple[list[float], list[float]] | None = None) -> float:
        """Value at one edge; ``tables`` are the :func:`gegen_tables` of the
        edge, at least as long as this expansion needs."""
        if geom.r > 0 and geom.u >= 1.0:
            raise DivergentRatioError("expansion needs r/rho < 1")
        form = self.float_form
        if tables is None:
            tables = gegen_tables(self.lam, geom, form.n_max, form.d_max)
        total = _row_sum(form.series, *tables)
        if self.log_rho:
            total += (self.k0.bind(m) + math.log(geom.rho)) * _row_sum(form.log_rho, *tables)
        return total * self.prefactor.bind(m) * geom.rho ** form.rho_exponent

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


def edge_gegenbauer_expansion(term: TaylorTermSpec, lam,
                              orders: "TruncationOrders | None" = None) -> GegenExpansion:
    """Gegenbauer-basis expansion of one edge term at fixed weight lam.

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
    coeff = taylor_term_coefficient(term, lam)
    if term.branch == "log":
        ell = int(term.ell)
        log_rho = _radial_power(ell, radial)
        series = _series_product(log_rho, chebyshev_log_series(radial), radial)
        prefactor, k0 = coeff.coeff_log, _log_constant(ell, lam)
    else:
        p = int(2 * term.ell)
        if p < 0:
            series = generating_series(Fraction(-p, 2), radial)
        elif p % 2 == 0:
            series = _radial_power(p // 2, radial)
        else:
            series = _series_product(_radial_power((p + 1) // 2, radial),
                                     generating_series(Fraction(1, 2), radial), radial)
        log_rho, prefactor, k0 = [], coeff.coeff_const, SymbolicCoeff.zero()
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


def _taylor_indices(lam: Fraction, ell_max: int) -> list[Fraction]:
    if lam.denominator == 1:
        return [Fraction(e) for e in range(-int(lam), ell_max + 1)]
    # half-integer lam: 2*ell runs over the integers from -2 lam upward
    return [Fraction(t, 2) for t in range(-int(2 * lam), 2 * ell_max + 1)]


@lru_cache(maxsize=None)
def _taylor_terms(lam: Fraction, ell_max: int) -> tuple[TaylorTerm, ...]:
    """The terms of one edge factor up to ell_max."""
    return tuple(taylor_term_coefficient(TaylorTermSpec.make(ell, lam), lam)
                 for ell in _taylor_indices(lam, ell_max))


def edge_taylor_value(lam, r: float, m: float, orders: TruncationOrders) -> float:
    """Truncated small-separation value of one edge factor."""
    lam = _check_lambda(lam)
    return sum((term.eval(r, m) for term in _taylor_terms(lam, orders.ell_max)), 0.0)


def edge_asymptotic_value(lam, r: float, m: float, orders: TruncationOrders) -> float:
    """Truncated large-separation value of one edge factor."""
    lam = _check_lambda(lam)
    return sum(asymptotic_term_coefficient(ell, lam).eval(r, m)
               for ell in range(orders.asym_terms))


@lru_cache(maxsize=None)
def _cached_expansion(ell: Fraction, lam: Fraction, radial: int, gegen: int | None
                      ) -> GegenExpansion:
    orders = TruncationOrders(radial=radial, gegen=gegen)
    return edge_gegenbauer_expansion(TaylorTermSpec.make(ell, lam), lam, orders)


@lru_cache(maxsize=None)
def _edge_expansions(lam: Fraction, orders: TruncationOrders
                     ) -> tuple[tuple[GegenExpansion, ...], int, int]:
    """The expansions of every term of one edge factor, and the table lengths
    they need."""
    expansions = tuple(_cached_expansion(ell, lam, orders.radial, orders.gegen)
                       for ell in _taylor_indices(lam, orders.ell_max))
    return (expansions, max(e.float_form.n_max for e in expansions),
            max(e.float_form.d_max for e in expansions))


def edge_gegenbauer_value(lam, geom: EdgeGeometry, m: float,
                          orders: TruncationOrders) -> float:
    """Truncated value of one edge factor: the sum of the Gegenbauer
    expansions of its terms, all reading one pair of :func:`gegen_tables`."""
    lam = _check_lambda(lam)
    expansions, n_max, d_max = _edge_expansions(lam, orders)
    tables = gegen_tables(lam, geom, n_max, d_max)
    return sum((e.evaluate(geom, m, tables=tables) for e in expansions), 0.0)


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

    lam = _check_lambda(lam)
    orders = orders or TruncationOrders()
    D = int(2 * lam + 2)
    total = 1.0
    for idx, e in enumerate(graph.edges):
        xs = tuple(float(c) for c in positions[e.src])
        xt = tuple(float(c) for c in positions[e.tgt])
        m = masses if isinstance(masses, (int, float)) else masses[idx]
        diff = tuple(a - b for a, b in zip(xs, xt))
        r = math.sqrt(sum(c * c for c in diff))
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
