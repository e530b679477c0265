"""Finite Q-linear combinations of keys: the one sparse core under the exact
ring, Hopf elements, their tensor powers, Laurent series and log forms.

An element stores int numerators over one positive int denominator, in lowest
terms: ``nums`` maps each key to a nonzero int, ``den`` is the denominator and
gcd(den, *nums) = 1, so the zero element and every element with integral
coefficients (every Hopf element the algebra builds) have den 1.  Sums rescale
to the lcm of the two denominators and add ints, products multiply numerators
and denominators, scaling by p/q multiplies them by p and q, and each result
is reduced by one gcd.  ``terms`` reads the coefficients back as values: an
int where the value is integral, a Fraction otherwise.

A subclass names only the product of two keys and the key of its unit; sums,
scaling, the bilinear product and equality live here.  Arithmetic builds new
dicts and never changes an operand, so an element may be shared (memo entries
are).
"""

from __future__ import annotations

import math
from fractions import Fraction


def rational(c):
    """c itself if it is an int or a Fraction; TypeError otherwise."""
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"expected an int or Fraction coefficient, got {type(c).__name__}")


def accumulate(out: dict, items, factor: int = 1) -> dict:
    """Add factor times each (key, coefficient) pair into out in place,
    dropping terms that cancel."""
    for key, c in items:
        out[key] = c = out.get(key, 0) + factor * c
        if not c:
            del out[key]
    return out


class Linear:
    """Sparse Q-linear combination: key -> nonzero coefficient, stored as
    ``nums[key] / den`` in lowest terms (module docstring).

    ``key_product(k1, k2)`` is the product of two keys; a subclass with
    ``factored = True`` returns ``(factor, key)`` from it instead, the product
    being factor times the key (a sign, or 2 for sqrt(2) sqrt(2)), or None
    when the product of the two keys vanishes.  ``unit_key`` is the key of 1.
    """

    unit_key = ()
    factored = False

    def __init__(self, terms: dict | None = None):
        values = {key: c for key, c in terms.items() if rational(c)} if terms else {}
        den = math.lcm(*(c.denominator for c in values.values()))
        # already reduced: a prime's full power in den is some c's denominator,
        # and that c's numerator is prime to it
        self.nums = {key: c.numerator * (den // c.denominator) for key, c in values.items()}
        self.den = den

    @classmethod
    def _from_nums(cls, nums: dict, den: int = 1):
        """The element nums / den: nums maps keys to nonzero ints and den > 0
        is reduced against them here."""
        if den != 1:
            g = math.gcd(den, *nums.values())  # den itself when nums is empty
            if g != 1:
                den //= g
                nums = {key: n // g for key, n in nums.items()}
        out = object.__new__(cls)
        out.nums = nums
        out.den = den
        return out

    @property
    def terms(self) -> dict:
        """key -> coefficient value; with den 1 this is ``nums`` itself (read-only)."""
        den = self.den
        if den == 1:
            return self.nums
        return {key: n // den if n % den == 0 else Fraction(n, den)
                for key, n in self.nums.items()}

    @classmethod
    def zero(cls):
        return cls._from_nums({})

    @classmethod
    def one(cls):
        return cls._from_nums({cls.unit_key: 1})

    def is_zero(self) -> bool:
        return not self.nums

    def _keep(self, keep):
        """The terms whose key satisfies ``keep``: a projection onto a span of keys."""
        return self._from_nums({key: n for key, n in self.nums.items() if keep(key)}, self.den)

    def _add_scaled(self, other, sign: int):
        """self + sign * other, over the lcm of the two denominators."""
        den1, den2 = self.den, other.den
        den = math.lcm(den1, den2)
        f = den // den1  # mostly 1: a running sum's den soon holds its terms' dens
        out = dict(self.nums) if f == 1 else {key: n * f for key, n in self.nums.items()}
        return self._from_nums(accumulate(out, other.nums.items(), sign * (den // den2)), den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._add_scaled(other, 1)

    def __neg__(self):
        return self._from_nums({key: -n for key, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._add_scaled(other, -1)

    def scale(self, c):
        c = rational(c)
        if c == 1:
            return self
        if not c:
            return self.zero()
        p = c.numerator
        return self._from_nums({key: n * p for key, n in self.nums.items()},
                               self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        product = self.key_product
        items2 = other.nums.items()
        out: dict = {}
        get = out.get
        if self.factored:
            for key1, n1 in self.nums.items():
                for key2, n2 in items2:
                    merged = product(key1, key2)
                    if merged is not None:
                        factor, key = merged
                        out[key] = get(key, 0) + factor * n1 * n2
        else:
            for key1, n1 in self.nums.items():
                for key2, n2 in items2:
                    key = product(key1, key2)
                    out[key] = get(key, 0) + n1 * n2
        return self._from_nums({key: n for key, n in out.items() if n}, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums
