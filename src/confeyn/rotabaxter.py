"""Weight -1 Rota-Baxter algebras: Laurent series and even log forms.

A Rota-Baxter algebra of weight -1 is a commutative unital algebra with a
linear operator T satisfying

    T(x) T(y) = T(x T(y)) + T(T(x) y) - T(x y).

Both models are sparse combinations of the ``linear`` core, with rational
coefficients kept as the int or Fraction they were given; any other
coefficient type raises TypeError.

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
S in {1..n}, and diagonal divisors D_I with I in {1..n}, |I| > 1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

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

    def polar_part(self) -> "LaurentSeries":
        return LaurentSeries._wrap({e: c for e, c in self.terms.items() if e < 0})

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                bits.append(f"{c}")
            elif e == 1:
                bits.append(f"{c}*z" if c != 1 else "z")
            else:
                bits.append(f"{c}*z^{e}" if c != 1 else f"z^{e}")
        return " + ".join(bits)

    def to_json(self) -> dict:
        return {str(e): str(self.terms[e]) for e in sorted(self.terms)}

    @classmethod
    def from_json(cls, data: Mapping[str, str]) -> "LaurentSeries":
        return cls({int(e): Fraction(c) for e, c in data.items()})


def laurent_T(s: LaurentSeries) -> LaurentSeries:
    """Projection onto the polar part (strictly negative exponents)."""
    return s.polar_part()


# ---------------------------------------------------------------------------
# Divisor labels
# ---------------------------------------------------------------------------

# ("sep", c, S) with c an int in 1..k or the string "inf"; ("diag", I)
Label = tuple


def label_sort_key(label: Label) -> tuple:
    kind = label[0]
    if kind == "sep":
        c = label[1]
        c_key = (1, 0) if c == "inf" else (0, int(c))
        return (0, c_key, tuple(sorted(label[2])))
    if kind == "diag":
        return (1, (0, 0), tuple(sorted(label[1])))
    raise ValueError(f"unknown label kind {kind!r}")


def label_str(label: Label) -> str:
    if label[0] == "sep":
        return f"sep:{label[1]}:" + ",".join(str(i) for i in sorted(label[2]))
    return "diag:" + ",".join(str(i) for i in sorted(label[1]))


def diagonal_label(I: Iterable[int]) -> Label:
    I = frozenset(int(i) for i in I)
    if len(I) < 2:
        raise ValueError("diagonal labels need |I| > 1")
    return ("diag", I)


def separation_label(c, S: Iterable[int]) -> Label:
    S = frozenset(int(i) for i in S)
    if not S:
        raise ValueError("separation labels need nonempty S")
    if c != "inf":
        c = int(c)
    return ("sep", c, S)


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


def _merge_polar(J1: frozenset, J2: frozenset) -> tuple[int, frozenset] | None:
    """Exterior product of two sorted dlog blocks: None if a factor repeats,
    else (sign, union) with the interleaving parity sign."""
    if J1 & J2:
        return None
    a = sorted(J1, key=label_sort_key)
    b = sorted(J2, key=label_sort_key)
    inversions = 0
    for x in a:
        kx = label_sort_key(x)
        inversions += sum(1 for y in b if label_sort_key(y) < kx)
    return (-1) ** inversions, J1 | J2


def _mul_reg_keys(k1: RegKey, k2: RegKey) -> RegKey:
    exps: dict = {}
    for label, e in k1:
        exps[label] = exps.get(label, 0) + e
    for label, e in k2:
        exps[label] = exps.get(label, 0) + e
    return tuple(sorted(exps.items(), key=lambda kv: label_sort_key(kv[0])))


def _comp_mul(c1: CompMono, c2: CompMono) -> tuple[int, CompMono] | None:
    kind1, data1 = c1
    kind2, data2 = c2
    if kind1 == "polar" and kind2 == "polar":
        merged = _merge_polar(frozenset(data1), frozenset(data2))
        if merged is None:
            return None
        sign, J = merged
        return sign, ("polar", tuple(sorted(J, key=label_sort_key)))
    if kind1 == "polar":
        return (1, c1) if data2 == () else None  # stratum evaluation kills variables
    if kind2 == "polar":
        return (1, c2) if data1 == () else None
    return 1, ("reg", _mul_reg_keys(data1, data2))


def _merge_multikeys(k1: MultiKey, k2: MultiKey) -> tuple[int, MultiKey] | None:
    by_space: dict[int, CompMono] = dict(k1)
    sign = 1
    for space, comp in k2:
        if space in by_space:
            merged = _comp_mul(by_space[space], comp)
            if merged is None:
                return None
            s, newcomp = merged
            sign *= s
            if newcomp == ("reg", ()):
                del by_space[space]
            else:
                by_space[space] = newcomp
        else:
            by_space[space] = comp
    return sign, tuple(sorted(by_space.items()))


class MultiLogForm(Linear):
    """Linear combination of wedge monomials, one log-form monomial per space.

    A key is a sorted tuple of (space, component) with distinct spaces; the
    empty key is the unit.  Every polar component is a nonempty block of even
    cardinality.
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
            out[key] = out.get(key, 0) + rational(c)
        super().__init__(out)

    def __repr__(self) -> str:
        return f"MultiLogForm({len(self.terms)} monomials)"

    def to_json(self) -> list:
        out = []
        for key in sorted(self.terms, key=_multikey_sort_key):
            comps = []
            for space, (kind, data) in key:
                if kind == "polar":
                    comps.append({"space": space, "polar": [label_str(x) for x in data]})
                else:
                    comps.append({"space": space,
                                  "monomial": [[label_str(l), e] for l, e in data]})
            # the value keeps the layout of an exact scalar with no power of pi
            out.append({"components": comps,
                        "value": [{"pi_half_exp": 0, "rational": str(self.terms[key])}]})
        return out


def _multikey_sort_key(key: MultiKey) -> list:
    """Orders monomials by space, kind and then labels through label_sort_key."""
    return [(space, kind, [label_sort_key(x) if kind == "polar" else (label_sort_key(x[0]), x[1])
                           for x in data]) for space, (kind, data) in key]


def multi_T(a: MultiLogForm) -> MultiLogForm:
    """T = id - prod_i (id - T_i): keeps every monomial with at least one
    polar component."""
    kept = {key: c for key, c in a.terms.items()
            if any(kind == "polar" for _, (kind, _) in key)}
    return MultiLogForm._wrap(kept)


def polar_subtract(a):
    """a - T(a); all iterated residues of the result vanish."""
    if isinstance(a, MultiLogForm):
        return a - multi_T(a)
    if isinstance(a, LaurentSeries):
        return a - laurent_T(a)
    raise TypeError(f"no polar subtraction for {type(a).__name__}")


def multi_residues_vanish(a: MultiLogForm) -> bool:
    """True when no monomial carries a polar block (all iterated residues zero)."""
    return multi_T(a).is_zero()


# ---------------------------------------------------------------------------
# Algebra models (uniform protocol for characters / Birkhoff factorization)
# ---------------------------------------------------------------------------


class _Model:
    """zero, one, add and scale of a Rota-Baxter model on its element type;
    each model names its own product and projection."""

    def zero(self):
        return self.element.zero()

    def one(self):
        return self.element.one()

    add = staticmethod(operator.add)

    @staticmethod
    def scale(a, q):
        return a.scale(q)


@dataclass(frozen=True)
class LaurentAlgebra(_Model):
    """Rota-Baxter model: Laurent series with pole-part projection."""

    element = LaurentSeries

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def T(a):
        return laurent_T(a)


@dataclass(frozen=True)
class MultiLogAlgebra(_Model):
    """Rota-Baxter model: multi-space even log forms with polar projection."""

    element = MultiLogForm

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def T(a):
        return multi_T(a)
