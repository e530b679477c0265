"""Weight -1 Rota-Baxter algebras: Laurent series and even log forms.

A Rota-Baxter algebra of weight -1 is a commutative unital algebra with a
linear operator T satisfying

    T(x) T(y) = T(x T(y)) + T(T(x) y) - T(x y).

Both models are sparse combinations of the ``linear`` core: int numerators
over one denominator per element, so products, sums and T run on ints, and
coefficients read back as an int where integral and a Fraction otherwise; a
coefficient that is not an int or a Fraction raises TypeError.  A target of
the Birkhoff layer (``LaurentAlgebra``, ``MultiLogAlgebra``) names only its
element type, its product ``mul`` and T; sums, differences, scaling, zero and
one are the elements' own arithmetic.

Model 1: Laurent series over Q with T the projection onto the polar part
(strictly negative exponents).

Model 2: wedges of even log forms over several spaces.  On one space an even
log form is a sum of *polar monomials* -- an even-cardinality set J of
divisor labels standing for dlog f_{j1} ^ ... ^ dlog f_{j2r} with a constant
scalar coefficient (the iterated residue, already restricted to the stratum)
-- plus a *regular part*, a polynomial in divisor-restriction variables.  A
polar block times a regular monomial keeps the block scaled by the monomial's
value on the stratum (its constant term).  The pole projection keeps exactly
the polar monomials; the polar span is an ideal, the regular span a unital
subalgebra, and T is the projection onto the ideal along the subalgebra.  A
monomial of the model wedges one such component per space, and

    T(eta_1 ^ eta_2) = T eta_1 ^ eta_2 + eta_1 ^ T eta_2 - T eta_1 ^ T eta_2

extended recursively, i.e. T = id - prod_i (id - T_i) monomial-wise: T keeps
every monomial with at least one polar component.  The single-space algebra
is the case of one factor.

Divisor labels for the compactification of n points avoiding k marked
components: separation divisors D_{c,S} with c in {1..k, inf} and nonempty
S in {1..n}, and diagonal divisors D_I with I in {1..n}, |I| > 1.  A label
is a ``Label`` (kind, component, points) whose tuple order is the label
order: separation labels before diagonal ones, then the component (1..k, then
inf), then the sorted points.  A polar block lists its labels strictly in
that order, and the log-form JSON and the ``divisors`` command follow it.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .linear import Linear, rational

Rational = int | Fraction


# ---------------------------------------------------------------------------
# Laurent series
# ---------------------------------------------------------------------------


class LaurentSeries(Linear):
    """Laurent polynomial over Q with finitely many terms: exponent -> coefficient."""

    key_product = staticmethod(operator.add)
    unit_key = 0

    def __init__(self, coeffs: Mapping[int, Rational] | None = None):
        super().__init__({int(e): c for e, c in (coeffs or {}).items()})

    @property
    def coeffs(self) -> dict[int, Rational]:
        return self.terms

    def __repr__(self) -> str:
        bits = []
        for e, c in sorted(self.terms.items()):
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*z" if c != 1 else "z")
            else:
                bits.append(f"{c}*z^{e}" if c != 1 else f"z^{e}")
        return " + ".join(bits) or "0"

    def to_json(self) -> dict:
        return {str(e): str(c) for e, c in sorted(self.terms.items())}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "LaurentSeries":
        """The series of :meth:`to_json`.  The exponent form of a coefficient
        is refused: Fraction('1e20000000') alone builds a twenty-million-digit
        integer, and every product with it is as long."""
        for c in data.values():
            if "e" in str(c).lower():
                raise ValueError(
                    f"coefficient must be a rational such as 3/2, got {str(c)[:64]!r}")
        return cls({int(e): Fraction(c) for e, c in data.items()})


def laurent_T(s: LaurentSeries) -> LaurentSeries:
    """Projection onto the polar part (strictly negative exponents)."""
    return s._keep(lambda e: e < 0)


# ---------------------------------------------------------------------------
# Divisor labels
# ---------------------------------------------------------------------------

class Label(NamedTuple):
    """A boundary divisor; labels order themselves as tuples (module docstring)."""

    kind: int  # 0 for a separation label D_{c,S}, 1 for a diagonal label D_I
    component: int | float  # c in 1..k, or math.inf; 0 on diagonal labels
    points: tuple[int, ...]  # S or I, sorted


def label_str(label: Label) -> str:
    points = ",".join(map(str, label.points))
    if label.kind:
        return "diag:" + points
    return f"sep:{'inf' if label.component == math.inf else label.component}:{points}"


def diagonal_label(I: Iterable[int]) -> Label:
    I = tuple(sorted({int(i) for i in I}))
    if len(I) < 2:
        raise ValueError("diagonal labels need |I| > 1")
    return Label(1, 0, I)


def separation_label(c, S: Iterable[int]) -> Label:
    """D_{c,S}: c is a marked component (an int >= 1), or "inf" or math.inf."""
    if c == "inf":
        c = math.inf
    elif c != math.inf and (type(c) is not int or c < 1):
        raise ValueError(f"separation components are 'inf' or an int >= 1, got {c!r}")
    S = tuple(sorted({int(i) for i in S}))
    if not S:
        raise ValueError("separation labels need nonempty S")
    return Label(0, c, S)


def divisor_labels(n: int, k: int) -> frozenset[Label]:
    """All boundary-divisor labels for n points avoiding k marked components
    (plus the one at infinity): D_{c,S} and D_I."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    labels: set[Label] = set()
    points = range(1, n + 1)
    for size in range(1, n + 1):
        for S in combinations(points, size):
            for c in list(range(1, k + 1)) + ["inf"]:
                labels.add(separation_label(c, S))
            if size > 1:
                labels.add(diagonal_label(S))
    return frozenset(labels)


# ---------------------------------------------------------------------------
# Log forms: wedges of one log-form monomial per space
# ---------------------------------------------------------------------------

RegKey = tuple  # sorted tuple of (label, positive exponent)
# component monomial: ("polar", sorted tuple of labels) or ("reg", RegKey)
CompMono = tuple
MultiKey = tuple  # sorted tuple of (space, CompMono)


def _merge_polar(a: tuple, b: tuple) -> tuple[int, tuple] | None:
    """Exterior product of two sorted dlog blocks: None if a factor repeats,
    else (sign, merged sorted block) with the interleaving parity sign."""
    if not set(a).isdisjoint(b):
        return None
    return (-1) ** sum(bisect_left(b, x) for x in a), tuple(sorted(a + b))


def _mul_reg_keys(k1: RegKey, k2: RegKey) -> RegKey:
    exps: dict = {}
    for label, e in k1:
        exps[label] = exps.get(label, 0) + e
    for label, e in k2:
        exps[label] = exps.get(label, 0) + e
    return tuple(sorted(exps.items()))


def _comp_mul(c1: CompMono, c2: CompMono) -> tuple[int, CompMono] | None:
    kind1, data1 = c1
    kind2, data2 = c2
    if kind1 != kind2:
        return None  # polar x regular: stratum evaluation kills variables
    if kind1 == "reg":
        return 1, ("reg", _mul_reg_keys(data1, data2))
    merged = _merge_polar(data1, data2)
    if merged is None:
        return None
    sign, J = merged
    return sign, ("polar", J)


def _merge_multikeys(k1: MultiKey, k2: MultiKey) -> tuple[int, MultiKey] | None:
    by_space: dict[int, CompMono] = dict(k1)
    sign = 1
    for space, comp in k2:
        if space in by_space:
            merged = _comp_mul(by_space[space], comp)
            if merged is None:
                return None
            s, by_space[space] = merged
            sign *= s
        else:
            by_space[space] = comp
    return sign, tuple(sorted(by_space.items()))


class MultiLogForm(Linear):
    """Linear combination of wedge monomials, one log-form monomial per space.

    A key is a sorted tuple of (space, component) with distinct spaces; the
    empty key is the unit.  Every polar component is a nonempty block of even
    cardinality, and every regular one a nonempty monomial of distinct labels
    in label order with positive int exponents.  So on one space polar x
    regular is 0, regular x regular merges into a nonempty monomial and polar
    x polar wedges: no product has an empty component.
    """

    key_product = staticmethod(_merge_multikeys)
    factored = True

    def __init__(self, terms: Mapping[MultiKey, Rational] | None = None):
        out: dict[MultiKey, Rational] = {}
        for key, c in (terms or {}).items():
            key = tuple(sorted(key))
            spaces = [s for s, _ in key]
            if len(spaces) != len(set(spaces)):
                raise ValueError("component spaces must be distinct in a monomial")
            for _, (kind, data) in key:
                if kind == "polar" and (not data or len(data) % 2):
                    raise ValueError("polar blocks must be nonempty with even cardinality")
                if kind == "polar" and any(x >= y for x, y in zip(data, data[1:])):
                    raise ValueError("polar blocks must list distinct labels in label order")
                if kind == "reg" and not data:
                    raise ValueError("the unit is the empty key, not a ('reg', ()) component")
                if kind == "reg" and any(x >= y for (x, _), (y, _) in zip(data, data[1:])):
                    raise ValueError("regular monomials must list distinct labels in label order")
                if kind == "reg" and any(type(e) is not int or e < 1 for _, e in data):
                    raise ValueError("regular exponents must be positive integers")
            out[key] = out.get(key, 0) + rational(c)
        super().__init__(out)

    def __repr__(self) -> str:
        return f"MultiLogForm({len(self.nums)} monomials)"

    def to_json(self) -> list:
        out = []
        for key, c in sorted(self.terms.items()):
            comps = []
            for space, (kind, data) in key:
                if kind == "polar":
                    comps.append({"space": space, "polar": [label_str(x) for x in data]})
                else:
                    comps.append({"space": space,
                                  "monomial": [[label_str(l), e] for l, e in data]})
            # the value keeps the layout of an exact scalar with no power of pi
            out.append({"components": comps,
                        "value": [{"pi_half_exp": 0, "rational": str(c)}]})
        return out


def multi_T(a: MultiLogForm) -> MultiLogForm:
    """T = id - prod_i (id - T_i): keeps every monomial with at least one
    polar component."""
    return a._keep(lambda key: any(kind == "polar" for _, (kind, _) in key))


# ---------------------------------------------------------------------------
# Rota-Baxter targets: an element type, its product and T
# ---------------------------------------------------------------------------


class LaurentAlgebra:
    """Rota-Baxter target: Laurent series with pole-part projection."""

    element = LaurentSeries
    mul = staticmethod(operator.mul)

    @staticmethod
    def T(a):
        return laurent_T(a)


class MultiLogAlgebra:
    """Rota-Baxter target: multi-space even log forms with polar projection."""

    element = MultiLogForm
    mul = staticmethod(operator.mul)

    @staticmethod
    def T(a):
        return multi_T(a)
