"""Finite Q-linear combinations of keys: the one sparse core under the exact
ring, Hopf elements, their tensor powers, Laurent series and log forms.

An element is a dict from keys to nonzero coefficients, each an int or a
Fraction kept as given (a sum or product of ints stays an int).  A subclass
names only the product of two keys and the key of its unit; sums, scaling,
the bilinear product and equality live here.  Arithmetic builds new dicts
and never changes an operand, so an element may be shared (memo entries are).
"""

from __future__ import annotations

from fractions import Fraction


def rational(c):
    """c itself if it is an int or a Fraction; TypeError otherwise."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"expected an int or Fraction coefficient, got {type(c).__name__}")


def accumulate(out: dict, items) -> dict:
    """Add (key, coefficient) pairs into out in place, dropping terms that cancel."""
    for key, c in items:
        out[key] = c = out.get(key, 0) + c
        if not c:
            del out[key]
    return out


class Linear:
    """Sparse Q-linear combination: key -> nonzero coefficient.

    ``key_product(k1, k2)`` is the product of two keys; a subclass with
    ``factored = True`` returns ``(factor, key)`` from it instead, the product
    being factor times the key (a sign, or 2 for sqrt(2) sqrt(2)), or None
    when the product of the two keys vanishes.  ``unit_key`` is the key of 1.
    """

    unit_key = ()
    factored = False

    def __init__(self, terms: dict | None = None):
        self.terms = {key: c for key, c in terms.items() if rational(c)} if terms else {}

    @classmethod
    def _wrap(cls, terms: dict):
        """An element on terms that arithmetic produced: checked and free of zeros."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls._wrap({})

    @classmethod
    def one(cls):
        return cls._wrap({cls.unit_key: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms),
                                     ((key, -c) for key, c in other.terms.items())))

    def scale(self, c):
        c = rational(c)
        return self._wrap({key: v * c for key, v in self.terms.items()} if c else {})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        product = self.key_product
        out: dict = {}
        if self.factored:
            for key1, c1 in self.terms.items():
                for key2, c2 in other.terms.items():
                    merged = product(key1, key2)
                    if merged is not None:
                        factor, key = merged
                        out[key] = out.get(key, 0) + factor * c1 * c2
        else:
            for key1, c1 in self.terms.items():
                for key2, c2 in other.terms.items():
                    key = product(key1, key2)
                    out[key] = out.get(key, 0) + c1 * c2
        return self._wrap({key: c for key, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.terms == other.terms
