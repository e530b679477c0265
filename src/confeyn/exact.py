"""Exact arithmetic for special-function values and expansion coefficients.

In the complex setting every renormalized value is a period of a mixed Tate
motive, and every exact constant built here lies in one commutative ring:
finite sums of terms

    q * gamma^c * log(2)^d * sqrt(2)^s * pi^(p/2)

with ``q`` an exact rational, ``p`` an integer, ``c, d >= 0`` (``gamma`` is
the Euler-Mascheroni constant) and ``s`` in {0, 1}: ``sqrt(2) * sqrt(2)``
folds into the rational 2, and integer powers of pi are even powers of
``sqrt(pi)``.  Gamma at half-integers (rational multiples of ``sqrt(pi)``),
the digamma values in Q + Q gamma + Q log(2), the ``sqrt(pi/2)`` prefactor of
large-argument Bessel asymptotics, the zonal constants and the mass-free
edge-expansion coefficients are all elements of :class:`SymbolicCoeff`, which
is immutable, hashable and has exact equality; the JSON writers give the
powers of m and log(m).  Its sums, scaling and product are those of the
sparse core :class:`confeyn.linear.Linear`; this module names the key
product, checks keys, and adds inverses of single terms, float binding and
JSON.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from operator import add
from typing import Iterable, Mapping, Union

from .linear import Linear, rational

RationalLike = Union[int, Fraction]
# (gamma_exp, log2_exp, sqrt2, pi_half_exp)
Key = tuple[int, int, int, int]

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
    ``(gamma_exp, log2_exp, sqrt2, pi_half_exp)`` to a non-zero int or
    Fraction.

    The exponent of ``sqrt(pi)`` may be any integer; those of ``gamma`` and
    ``log(2)`` are non-negative and the ``sqrt(2)`` flag is 0 or 1.  A
    product of keys adds the exponents, with ``sqrt(2) * sqrt(2)`` folded
    into the factor 2.
    """

    unit_key = (0, 0, 0, 0)
    factored = True
    _value: float | None = None

    def __init__(self, terms: Mapping[Key, RationalLike] | None = None):
        clean: dict[Key, RationalLike] = {}
        for key, q in (terms or {}).items():
            if any(int(e) != e for e in key):
                raise ValueError(f"exponents must be integers, got {key}")
            g, l2, s, p = key = tuple(map(int, key))
            if g < 0 or l2 < 0:
                raise ValueError("gamma, log(2) exponents must be >= 0")
            if s not in (0, 1):
                raise ValueError("sqrt2 flag must be 0 or 1")
            clean[key] = clean.get(key, 0) + rational(q)
        super().__init__(clean)

    @staticmethod
    def key_product(a: Key, b: Key) -> tuple[int, Key]:
        g, l2, s, p = map(add, a, b)
        return (2, (g, l2, 0, p)) if s == 2 else (1, (g, l2, s, p))

    # bench/tracing.py counts ring operations by patching these names in this
    # class's own __dict__, so the core's methods are bound here too
    __add__ = Linear.__add__
    __mul__ = Linear.__mul__
    __rmul__ = Linear.__rmul__

    @classmethod
    def from_rational(cls, q: RationalLike) -> "SymbolicCoeff":
        return cls.monomial(q)

    @classmethod
    def monomial(cls, coeff: RationalLike = 1, gamma: int = 0, log2: int = 0,
                 sqrt2: int = 0, pi_half: int = 0) -> "SymbolicCoeff":
        """``coeff * gamma^gamma log(2)^log2 sqrt(2)^sqrt2 pi^(pi_half/2)``."""
        return cls({(gamma, log2, sqrt2, pi_half): coeff})

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if isinstance(other, SymbolicCoeff):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "SymbolicCoeff":
        """Inverse of a single term free of gamma and log(2); general inverses
        are not needed."""
        if len(self.nums) != 1 or any(next(iter(self.nums))[:2]):
            raise ValueError(f"{self!r} is not a single term in sqrt(2) and pi")
        ((_, _, s, p), n), = self.nums.items()
        # 1/(q sqrt(2)) = sqrt(2)/(2 q), with q = n / den
        q = Fraction(self.den, n * 2 ** s)
        return self._from_nums({(0, 0, s, -p): q.numerator}, q.denominator)

    def bind(self) -> float:
        """Numeric value with gamma, log(2), sqrt(2) and pi bound, computed on
        the first call and cached."""
        if self._value is None:
            self._value = sum((float(q) * _SQRT2 ** s * math.pi ** (p / 2.0)
                               * (_EULER_GAMMA ** g * _LOG2 ** l2)
                               for (g, l2, s, p), q in self.terms.items()), 0.0)
        return self._value

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
        for (g, l2, s, p), q in sorted(self.terms.items()):
            names = [str(q)]
            for name, e in (("gamma", g), ("log(2)", l2), ("sqrt2", s), ("pi", Fraction(p, 2))):
                if e:
                    names.append(name if e == 1 else f"{name}^({e})")
            bits.append("*".join(names))
        return " + ".join(bits) or "0"

    # -- serialization -------------------------------------------------------

    def to_json(self, m_exp: RationalLike = 0, logm_exp: int = 0) -> list[dict]:
        """One entry per monomial in gamma and log(2), sorted, whose "value" is
        its coefficient in the layout of :meth:`scalar_json`.  Every entry
        carries the power m^m_exp log(m)^logm_exp that the caller gives: the
        ring itself holds no mass."""
        m_exp = str(Fraction(m_exp))
        return [{"m_exp": m_exp, "logm_exp": logm_exp, "gamma_exp": g, "log2_exp": l2,
                 "value": _scalar_json(group)}
                for (g, l2), group in groupby(sorted(self.terms.items()), lambda t: t[0][:2])]

    def scalar_json(self) -> list[dict]:
        """The terms ``[{"rational", "pi_half_exp", "sqrt2"?}]`` of an element
        free of gamma and log(2)."""
        if any(any(key[:2]) for key in self.nums):
            raise ValueError(f"{self!r} is not free of gamma and log(2)")
        return _scalar_json(sorted(self.terms.items()))
