"""Exact scalar arithmetic for special-function values.

Two commutative rings are provided:

* :class:`ExactScalar` -- finite sums of terms ``q * sqrt(2)**s * pi**(p/2)``
  with ``q`` an exact rational, ``s`` in {0, 1} and ``p`` an integer.  This is
  where values of the Gamma function at half-integers live (rational multiples
  of ``sqrt(pi)``), together with the ``sqrt(pi/2)`` prefactor of large-argument
  Bessel asymptotics.

* :class:`SymbolicCoeff` -- polynomials in the formal symbols ``m``, ``log(m)``,
  ``gamma`` (Euler-Mascheroni) and ``log(2)`` with ExactScalar coefficients.
  The mass exponent may be a half-integer (it is stored doubled), the other
  exponents are non-negative integers.

Both types are immutable, hashable, and support exact equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

_SQRT2 = math.sqrt(2.0)
_EULER_GAMMA = 0.5772156649015329
_LOG2 = math.log(2.0)


def _as_fraction(q: RationalLike) -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"expected an exact rational, got {type(q).__name__}")


class ExactScalar:
    """Element of Q[sqrt(2)^{+-1}, sqrt(pi)^{+-1}].

    Terms are keyed by ``(sqrt2, pi_half)`` where ``sqrt2`` is 0 or 1 and
    ``pi_half`` is the (integer) exponent of ``sqrt(pi)``; integer powers of 2
    are folded into the rational coefficient.  No zero coefficients are stored.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], Fraction] | None = None):
        clean: dict[tuple[int, int], Fraction] = {}
        if terms:
            for (s, p), q in terms.items():
                q = _as_fraction(q)
                if q == 0:
                    continue
                if s not in (0, 1):
                    raise ValueError("sqrt2 flag must be 0 or 1")
                clean[(s, int(p))] = clean.get((s, int(p)), Fraction(0)) + q
        self._terms = {k: v for k, v in clean.items() if v != 0}
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactScalar":
        return cls()

    @classmethod
    def one(cls) -> "ExactScalar":
        return cls({(0, 0): Fraction(1)})

    @classmethod
    def from_rational(cls, q: RationalLike) -> "ExactScalar":
        return cls({(0, 0): _as_fraction(q)})

    @classmethod
    def pi_power(cls, half_exp: int, coeff: RationalLike = 1) -> "ExactScalar":
        """``coeff * pi**(half_exp/2)``."""
        return cls({(0, half_exp): _as_fraction(coeff)})

    @classmethod
    def term(cls, coeff: RationalLike, sqrt2: int = 0, pi_half: int = 0) -> "ExactScalar":
        return cls({(sqrt2, pi_half): _as_fraction(coeff)})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        terms = dict(self._terms)
        for k, q in other._terms.items():
            terms[k] = terms.get(k, Fraction(0)) + q
        return ExactScalar(terms)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar({k: -q for k, q in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return ExactScalar({k: v * q for k, v in self._terms.items()})
        if not isinstance(other, ExactScalar):
            return NotImplemented
        terms: dict[tuple[int, int], Fraction] = {}
        for (s1, p1), q1 in self._terms.items():
            for (s2, p2), q2 in other._terms.items():
                s = s1 + s2
                q = q1 * q2
                if s == 2:  # sqrt(2)*sqrt(2) = 2
                    s, q = 0, 2 * q
                k = (s, p1 + p2)
                terms[k] = terms.get(k, Fraction(0)) + q
        return ExactScalar(terms)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            if q == 0:
                raise ZeroDivisionError("division by zero rational")
            return self * (Fraction(1) / q)
        if isinstance(other, ExactScalar):
            return self * other.inverse()
        return NotImplemented

    def inverse(self) -> "ExactScalar":
        """Inverse of a monomial scalar (single term); general inverses are not needed."""
        if len(self._terms) != 1:
            raise ValueError("only single-term ExactScalars are invertible here")
        ((s, p), q), = self._terms.items()
        if s == 0:
            return ExactScalar({(0, -p): 1 / q})
        # 1/(q*sqrt2*pi^{p/2}) = sqrt2/(2q) * pi^{-p/2}
        return ExactScalar({(1, -p): 1 / (2 * q)})

    # -- predicates and views ------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def as_rational(self) -> Fraction:
        if any(k != (0, 0) for k in self._terms):
            raise ValueError(f"{self!r} is not rational")
        return self._terms.get((0, 0), Fraction(0))

    def pi_half_exponents(self) -> set[int]:
        """Exponents of sqrt(pi) appearing with nonzero coefficient."""
        return {p for (_, p) in self._terms}

    def terms(self) -> Iterable[tuple[int, int, Fraction]]:
        for (s, p), q in sorted(self._terms.items()):
            yield s, p, q

    def __float__(self) -> float:
        total = 0.0
        for (s, p), q in self._terms.items():
            total += float(q) * (_SQRT2 if s else 1.0) * math.pi ** (p / 2.0)
        return total

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ExactScalar.from_rational(other)
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for s, p, q in self.terms():
            bit = str(q)
            if s:
                bit += "*sqrt2"
            if p:
                bit += f"*pi^({p}/2)"
            parts.append(bit)
        return " + ".join(parts)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for s, p, q in self.terms():
            entry: dict = {"rational": str(q), "pi_half_exp": p}
            if s:
                entry["sqrt2"] = True
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, data: list[dict]) -> "ExactScalar":
        terms: dict[tuple[int, int], Fraction] = {}
        for entry in data:
            k = (1 if entry.get("sqrt2") else 0, int(entry["pi_half_exp"]))
            terms[k] = terms.get(k, Fraction(0)) + Fraction(entry["rational"])
        return cls(terms)


# Symbol key layout for SymbolicCoeff: (2*m_exp, logm_exp, gamma_exp, log2_exp)
_ZERO_KEY = (0, 0, 0, 0)


def bind_monomial(key: tuple[int, int, int, int], m: float | None) -> float:
    """Value of the symbol monomial ``key = (m2, lm, g, l2)``, that is
    m^(m2/2) log(m)^lm gamma^g log(2)^l2; ``m`` is needed only when m2 or lm
    is non-zero."""
    m2, lm, g, l2 = key
    value = 1.0
    if m2 or lm:
        if m is None:
            raise ValueError("mass value required to bind this coefficient")
        value = m ** (m2 / 2.0)
        if lm:
            value *= math.log(m) ** lm
    if g:
        value *= _EULER_GAMMA ** g
    if l2:
        value *= _LOG2 ** l2
    return value


class SymbolicCoeff:
    """Polynomial in ``m, log(m), gamma, log(2)`` over :class:`ExactScalar`.

    The exponent of ``m`` may be any half-integer (Laurent-type monomials in
    ``m`` arise in asymptotic expansion coefficients); the remaining exponents
    are non-negative integers.
    """

    __slots__ = ("_poly", "_hash", "_floats")

    def __init__(self, poly: Mapping[tuple[int, int, int, int], ExactScalar] | None = None):
        clean: dict[tuple[int, int, int, int], ExactScalar] = {}
        if poly:
            for key, c in poly.items():
                if not isinstance(c, ExactScalar):
                    c = ExactScalar.from_rational(c)
                if c.is_zero():
                    continue
                m2, lm, g, l2 = key
                if lm < 0 or g < 0 or l2 < 0:
                    raise ValueError("log(m), gamma, log(2) exponents must be >= 0")
                key = (int(m2), int(lm), int(g), int(l2))
                clean[key] = clean.get(key, ExactScalar.zero()) + c
        self._poly = {k: v for k, v in clean.items() if not v.is_zero()}
        self._hash: int | None = None
        self._floats: tuple[tuple[tuple[int, int, int, int], float], ...] | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SymbolicCoeff":
        return cls()

    @classmethod
    def one(cls) -> "SymbolicCoeff":
        return cls({_ZERO_KEY: ExactScalar.one()})

    @classmethod
    def from_exact(cls, c: ExactScalar) -> "SymbolicCoeff":
        return cls({_ZERO_KEY: c})

    @classmethod
    def from_rational(cls, q: RationalLike) -> "SymbolicCoeff":
        return cls.from_exact(ExactScalar.from_rational(q))

    @classmethod
    def monomial(cls, coeff: ExactScalar, m_exp: RationalLike = 0, logm: int = 0,
                 gamma: int = 0, log2: int = 0) -> "SymbolicCoeff":
        m2 = _as_fraction(m_exp) * 2
        if m2.denominator != 1:
            raise ValueError("m exponent must be integer or half-integer")
        return cls({(int(m2), logm, gamma, log2): coeff})

    @classmethod
    def gamma_symbol(cls) -> "SymbolicCoeff":
        return cls.monomial(ExactScalar.one(), gamma=1)

    @classmethod
    def log2_symbol(cls) -> "SymbolicCoeff":
        return cls.monomial(ExactScalar.one(), log2=1)

    @classmethod
    def logm_symbol(cls) -> "SymbolicCoeff":
        return cls.monomial(ExactScalar.one(), logm=1)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "SymbolicCoeff") -> "SymbolicCoeff":
        if not isinstance(other, SymbolicCoeff):
            return NotImplemented
        poly = dict(self._poly)
        for k, c in other._poly.items():
            poly[k] = poly.get(k, ExactScalar.zero()) + c
        return SymbolicCoeff(poly)

    def __sub__(self, other: "SymbolicCoeff") -> "SymbolicCoeff":
        return self + (-other)

    def __neg__(self) -> "SymbolicCoeff":
        return SymbolicCoeff({k: -c for k, c in self._poly.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymbolicCoeff.from_rational(other)
        elif isinstance(other, ExactScalar):
            other = SymbolicCoeff.from_exact(other)
        if not isinstance(other, SymbolicCoeff):
            return NotImplemented
        poly: dict[tuple[int, int, int, int], ExactScalar] = {}
        for k1, c1 in self._poly.items():
            for k2, c2 in other._poly.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                c = c1 * c2
                if k in poly:
                    poly[k] = poly[k] + c
                else:
                    poly[k] = c
        return SymbolicCoeff(poly)

    __rmul__ = __mul__

    # -- views ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._poly

    def coefficients(self) -> Iterable[tuple[tuple[int, int, int, int], ExactScalar]]:
        yield from sorted(self._poly.items())

    def pi_half_exponents(self) -> set[int]:
        exps: set[int] = set()
        for c in self._poly.values():
            exps |= c.pi_half_exponents()
        return exps

    def bind(self, m: float | None = None) -> float:
        """Numeric value with gamma, log(2), log(m), and powers of m bound,
        from (monomial, float) terms compiled on the first call."""
        if self._floats is None:
            self._floats = tuple((key, float(c)) for key, c in self._poly.items())
        return sum((c * bind_monomial(key, m) for key, c in self._floats), 0.0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SymbolicCoeff.from_rational(other)
        if not isinstance(other, SymbolicCoeff):
            return NotImplemented
        return self._poly == other._poly

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(sorted((k, hash(c)) for k, c in self._poly.items())))
        return self._hash

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for (m2, lm, g, l2), c in self.coefficients():
            names = []
            if m2:
                names.append(f"m^({Fraction(m2, 2)})")
            if lm:
                names.append("log(m)" + (f"^{lm}" if lm > 1 else ""))
            if g:
                names.append("gamma" + (f"^{g}" if g > 1 else ""))
            if l2:
                names.append("log(2)" + (f"^{l2}" if l2 > 1 else ""))
            mono = "*".join(names) if names else "1"
            bits.append(f"({c!r})*{mono}")
        return " + ".join(bits)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[dict]:
        out = []
        for (m2, lm, g, l2), c in self.coefficients():
            out.append({
                "m_exp": str(Fraction(m2, 2)),
                "logm_exp": lm,
                "gamma_exp": g,
                "log2_exp": l2,
                "value": c.to_json(),
            })
        return out

    @classmethod
    def from_json(cls, data: list[dict]) -> "SymbolicCoeff":
        poly: dict[tuple[int, int, int, int], ExactScalar] = {}
        for entry in data:
            m2 = Fraction(entry["m_exp"]) * 2
            key = (int(m2), int(entry["logm_exp"]), int(entry["gamma_exp"]),
                   int(entry["log2_exp"]))
            c = ExactScalar.from_json(entry["value"])
            poly[key] = poly.get(key, ExactScalar.zero()) + c
        return cls(poly)
