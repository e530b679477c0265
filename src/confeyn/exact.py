"""Exact arithmetic for special-function values and expansion coefficients.

In the complex setting every renormalized value is a period of a mixed Tate
motive, and every exact coefficient built here lies in one commutative ring:
finite sums of terms

    q * m^(a/2) * log(m)^b * gamma^c * log(2)^d * sqrt(2)^s * pi^(p/2)

with ``q`` an exact rational, ``a`` and ``p`` integers, ``b, c, d >= 0``
(``gamma`` is the Euler-Mascheroni constant) and ``s`` in {0, 1}:
``sqrt(2) * sqrt(2)`` folds into the rational 2, and integer powers of pi are
even powers of ``sqrt(pi)``.  Gamma at half-integers (rational multiples of
``sqrt(pi)``), the digamma values in Q + Q gamma + Q log(2), the
``sqrt(pi/2)`` prefactor of large-argument Bessel asymptotics, the zonal
constants and the edge-expansion coefficients are all elements of
:class:`SymbolicCoeff`, which is immutable, hashable and has exact equality.
Its sums, scaling and product are those of the sparse core
:class:`confeyn.linear.Linear`; this module names the key product, checks
keys, and adds inverses of single terms, float binding and JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from operator import add
from typing import Iterable, Mapping, Union

from .linear import Linear, rational

RationalLike = Union[int, Fraction]
# (2*m_exp, logm_exp, gamma_exp, log2_exp, sqrt2, pi_half_exp)
Key = tuple[int, int, int, int, int, int]

_SQRT2 = math.sqrt(2.0)
_EULER_GAMMA = 0.5772156649015329
_LOG2 = math.log(2.0)


def _scalar_json(terms: Iterable[tuple[Key, RationalLike]]) -> list[dict]:
    out = []
    for (*_, s, p), q in terms:
        entry: dict = {"rational": str(q), "pi_half_exp": p}
        if s:
            entry["sqrt2"] = True
        out.append(entry)
    return out


class SymbolicCoeff(Linear):
    """Element of the exact ring on the sparse core: a map from the key
    ``(2*m_exp, logm_exp, gamma_exp, log2_exp, sqrt2, pi_half_exp)`` to a
    non-zero int or Fraction.

    The exponent of ``m`` may be any half-integer (it is stored doubled) and
    that of ``sqrt(pi)`` any integer; the exponents of ``log(m)``, ``gamma``
    and ``log(2)`` are non-negative and the ``sqrt(2)`` flag is 0 or 1.  A
    product of keys adds the exponents, with ``sqrt(2) * sqrt(2)`` folded
    into the factor 2.
    """

    unit_key = (0, 0, 0, 0, 0, 0)
    factored = True
    _floats: tuple[tuple[float, int, float], ...] | None = None

    def __init__(self, terms: Mapping[Key, RationalLike] | None = None):
        clean: dict[Key, RationalLike] = {}
        for key, q in (terms or {}).items():
            if any(int(e) != e for e in key):
                raise ValueError(f"exponents must be integers (that of m doubled), got {key}")
            m2, lm, g, l2, s, p = key = tuple(map(int, key))
            if lm < 0 or g < 0 or l2 < 0:
                raise ValueError("log(m), gamma, log(2) exponents must be >= 0")
            if s not in (0, 1):
                raise ValueError("sqrt2 flag must be 0 or 1")
            clean[key] = clean.get(key, 0) + rational(q)
        super().__init__(clean)

    @staticmethod
    def key_product(a: Key, b: Key) -> tuple[int, Key]:
        m2, lm, g, l2, s, p = map(add, a, b)
        return (2, (m2, lm, g, l2, 0, p)) if s == 2 else (1, (m2, lm, g, l2, s, p))

    # bench/tracing.py counts ring operations by patching these names in this
    # class's own __dict__, so the core's methods are bound here too
    __add__ = Linear.__add__
    __mul__ = Linear.__mul__
    __rmul__ = Linear.__rmul__

    @classmethod
    def from_rational(cls, q: RationalLike) -> "SymbolicCoeff":
        return cls.monomial(q)

    @classmethod
    def monomial(cls, coeff: RationalLike = 1, m_exp: RationalLike = 0, logm: int = 0,
                 gamma: int = 0, log2: int = 0, sqrt2: int = 0,
                 pi_half: int = 0) -> "SymbolicCoeff":
        """``coeff * m^m_exp log(m)^logm gamma^gamma log(2)^log2
        sqrt(2)^sqrt2 pi^(pi_half/2)``; m_exp is an integer or a half-integer."""
        return cls({(rational(m_exp) * 2, logm, gamma, log2, sqrt2, pi_half): coeff})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, SymbolicCoeff):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "SymbolicCoeff":
        """Inverse of a single term free of log(m), gamma and log(2); general
        inverses are not needed."""
        if len(self.terms) != 1 or any(next(iter(self.terms))[1:4]):
            raise ValueError(f"{self!r} is not a single term in m, sqrt(2) and pi")
        ((m2, _, _, _, s, p), q), = self.terms.items()
        # 1/(q sqrt(2)) = sqrt(2)/(2 q)
        return self._wrap({(-m2, 0, 0, 0, s, -p): 1 / Fraction(q * 2 ** s)})

    def bind(self, m: float | None = None) -> float:
        """Numeric value with gamma, log(2), sqrt(2), pi and, where a term
        needs it, m bound, from float terms compiled on the first call."""
        if self._floats is None:
            self._floats = tuple(
                (m2 / 2.0, lm, float(q) * _SQRT2 ** s * math.pi ** (p / 2.0)
                 * (_EULER_GAMMA ** g * _LOG2 ** l2))
                for (m2, lm, g, l2, s, p), q in self.terms.items())
        if m is None:
            if any(e or lm for e, lm, _ in self._floats):
                raise ValueError("mass value required to bind this coefficient")
            return sum((c for _, _, c in self._floats), 0.0)
        return sum((c * m ** e * math.log(m) ** lm if lm else c * m ** e
                    for e, lm, c in self._floats), 0.0)

    def __float__(self) -> float:
        return self.bind()

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymbolicCoeff.from_rational(other)
        return Linear.__eq__(self, other)

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        bits = []
        for (m2, lm, g, l2, s, p), q in sorted(self.terms.items()):
            names = [str(q)]
            for name, e in (("m", Fraction(m2, 2)), ("log(m)", lm), ("gamma", g),
                            ("log(2)", l2), ("sqrt2", s), ("pi", Fraction(p, 2))):
                if e:
                    names.append(name if e == 1 else f"{name}^({e})")
            bits.append("*".join(names))
        return " + ".join(bits) or "0"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[dict]:
        """One entry per monomial in m, log(m), gamma and log(2), sorted, whose
        "value" is its coefficient in the layout of :meth:`scalar_json`."""
        return [{"m_exp": str(Fraction(m2, 2)), "logm_exp": lm, "gamma_exp": g,
                 "log2_exp": l2, "value": _scalar_json(group)}
                for (m2, lm, g, l2), group in groupby(sorted(self.terms.items()),
                                                      lambda t: t[0][:4])]

    def scalar_json(self) -> list[dict]:
        """The terms ``[{"rational", "pi_half_exp", "sqrt2"?}]`` of an element
        free of m, log(m), gamma and log(2)."""
        if any(any(key[:4]) for key in self.terms):
            raise ValueError(f"{self!r} is not free of m, log(m), gamma and log(2)")
        return _scalar_json(sorted(self.terms.items()))

    @classmethod
    def from_json(cls, data: list[dict]) -> "SymbolicCoeff":
        terms: dict[Key, Fraction] = {}
        for entry in data:
            head = (Fraction(entry["m_exp"]) * 2, entry["logm_exp"], entry["gamma_exp"],
                    entry["log2_exp"])
            for term in entry["value"]:
                key = (*head, 1 if term.get("sqrt2") else 0, term["pi_half_exp"])
                terms[key] = terms.get(key, 0) + Fraction(term["rational"])
        return cls(terms)
