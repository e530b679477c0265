"""Connes-Kreimer Hopf algebra of 1PI Feynman graphs over Q.

The algebra is free commutative on isomorphism classes of 1PI graphs, graded
by the number of internal edges.  The coproduct on a generator is

    Delta(G) = G (x) 1 + 1 (x) G + sum_gamma gamma (x) G/gamma

summed over admissible subgraphs (disjoint unions of 1PI pieces with 1PI
quotient), extended multiplicatively; the antipode is the usual inductive
formula S(X) = -X - sum S(X') X'' on the reduced coproduct.  The grading
derivation Y(X) = deg(X) X and the Dynkin operator D = S * Y define the beta
function phi_- o D; ``dynkin`` is that convolution, taken by ``convolve`` like
any other, and the Birkhoff module's test oracle (it computes beta by its
recursion).

Elements of H and of its tensor powers are sparse combinations of the
``linear`` core, keyed by monomials and by tuples of monomials.  Every
coefficient the algebra produces is a Python int, so its elements have
denominator 1 and ``terms`` is their stored dict; scaling by a Fraction gives
exact rationals.  A ``HopfAlgebra`` memoises Delta and S per monomial,
keyed by the monomial itself (a graph hashes and compares by its canonical
form, so relabelled copies share an entry); the reduced and iterated
coproducts, the antipode, the Dynkin operator and convolution read those
memos.  Elements the algebra returns may be memo entries shared with later
calls: treat them as read-only.  ``extend_linearly`` is the one linear
extension of a map on monomials: of the coproduct, the antipode, and the
Birkhoff module's phi, phi_-, phi_+, beta and frame.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .feyngraph import FeynmanGraph
from .linear import Linear, accumulate

# A monomial is a sorted tuple of FeynmanGraph generators (empty tuple = 1).
Monomial = tuple[FeynmanGraph, ...]


def monomial(*graphs: FeynmanGraph) -> Monomial:
    for g in graphs:
        if not g.is_1pi():
            raise ValueError("Hopf generators must be 1PI graphs")
    return tuple(sorted(graphs, key=FeynmanGraph.canonical_key))


def monomial_degree(mono: Monomial) -> int:
    return sum(g.degree() for g in mono)


def _merge(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials."""
    if not m1 or not m2:
        return m1 or m2
    return tuple(sorted(m1 + m2, key=FeynmanGraph.canonical_key))


class HopfElement(Linear):
    """Finite Q-linear combination of graph monomials."""

    key_product = staticmethod(_merge)

    @classmethod
    def generator(cls, graph: FeynmanGraph) -> "HopfElement":
        return cls._from_nums({monomial(graph): 1})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: int | Fraction = 1) -> "HopfElement":
        return cls({mono: coeff})

    def __repr__(self) -> str:
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda kv: (monomial_degree(kv[0]), str(kv[1]))):
            name = "*".join(g.label() for g in m) if m else "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits) or "0"


class TensorElement(Linear):
    """Element of H (x) H, or of H^(x)k: a key is a k-tuple of monomials."""

    key_product = staticmethod(lambda key1, key2: tuple(map(_merge, key1, key2)))
    unit_key = ((), ())

    def __repr__(self) -> str:
        bits = []
        for key, c in self.terms.items():
            names = " (x) ".join("*".join(g.label() for g in m) if m else "1" for m in key)
            bits.append(f"{c} * [{names}]")
        return " + ".join(bits) or "0"


def as_element(x: HopfElement | Monomial | FeynmanGraph) -> HopfElement:
    """A graph, a monomial or a HopfElement, as a HopfElement."""
    if isinstance(x, HopfElement):
        return x
    if isinstance(x, FeynmanGraph):
        return HopfElement.generator(x)
    if isinstance(x, tuple):
        return HopfElement.from_monomial(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a Hopf element")


def extend_linearly(x, element: type[Linear], on_monomial: Callable) -> Linear:
    """sum c * on_monomial(mono) over the terms of x, a graph, a monomial or a
    HopfElement: the linear extension of a map to ``element`` values."""
    total = element.zero()
    for mono, c in as_element(x).terms.items():
        total = total + c * on_monomial(mono)
    return total


class HopfAlgebra:
    """Coproduct / antipode engine memoised per monomial.  Parts and
    quotients are interned by the key of their normalized labelling (see
    ``feyngraph``), taken from the selection before any graph is built, so
    each distinct normalized graph is built once and pays for one canonical
    form per algebra: G/(gamma u gamma') recurs as (G/gamma)/gamma', and
    relabelled copies of a part meet under one key.  The table keeps each
    interned graph alive with the algebra."""

    def __init__(self):
        self._coproduct_gen: dict[Monomial, TensorElement] = {}  # Delta per monomial
        self._antipode: dict[Monomial, HopfElement] = {}
        self._graphs: dict[tuple, FeynmanGraph] = {}

    def _intern(self, key: tuple) -> FeynmanGraph:
        """The graph of a part or quotient key of a 1PI graph: 1PI itself."""
        graph = self._graphs.get(key)
        if graph is None:
            graph = self._graphs[key] = FeynmanGraph._from_key(key, is_1pi=True)
        return graph

    # -- coproduct -----------------------------------------------------------

    def coproduct_generator(self, graph: FeynmanGraph) -> TensorElement:
        cached = self._coproduct_gen.get((graph,))
        if cached is not None:
            return cached
        g_mono = monomial(graph)
        terms = {(g_mono, ()): 1, ((), g_mono): 1}
        for sel, quotient in graph._admissible_pairs():
            parts = monomial(*(self._intern(graph._component_key(c)) for c in sel.components))
            key = (parts, monomial(self._intern(quotient)))
            terms[key] = terms.get(key, 0) + 1
        out = self._coproduct_gen[g_mono] = TensorElement._from_nums(terms)
        return out

    def _coproduct_monomial(self, mono: Monomial) -> TensorElement:
        if len(mono) == 1:
            return self.coproduct_generator(mono[0])
        cached = self._coproduct_gen.get(mono)
        if cached is None:
            cached = TensorElement.one()
            for g in mono:
                cached = cached * self.coproduct_generator(g)
            self._coproduct_gen[mono] = cached
        return cached

    def coproduct(self, x: HopfElement | Monomial | FeynmanGraph) -> TensorElement:
        x = as_element(x)
        if list(x.terms.values()) == [1]:  # one monomial: its shared memo entry
            return self._coproduct_monomial(next(iter(x.terms)))
        return extend_linearly(x, TensorElement, self._coproduct_monomial)

    def reduced_coproduct(self, mono: Monomial) -> TensorElement:
        """Delta(x) - x (x) 1 - 1 (x) x on a monomial x != 1: the terms of the
        memoised coproduct whose two sides are both nonempty (0 on 1)."""
        return self._coproduct_monomial(mono)._keep(all)

    def iterated_coproduct(self, x: HopfElement | Monomial, k: int) -> TensorElement:
        """Delta^(k-1): H -> H^(x)k (k >= 1), applied on the last slot."""
        if k < 1:
            raise ValueError(f"the iterated coproduct needs k >= 1, got {k}")
        x = as_element(x)
        if k == 1:
            return TensorElement({(m,): c for m, c in x.terms.items()})
        out: dict[tuple[Monomial, ...], int | Fraction] = {}
        for key, c in self.iterated_coproduct(x, k - 1).terms.items():
            for (a, b), c2 in self._coproduct_monomial(key[-1]).terms.items():
                nk = key[:-1] + (a, b)
                out[nk] = out.get(nk, 0) + c * c2
        return TensorElement(out)

    # -- counit, antipode, Dynkin ----------------------------------------------

    @staticmethod
    def counit(x: HopfElement | Monomial | FeynmanGraph) -> int | Fraction:
        return as_element(x).terms.get((), 0)

    def antipode(self, x: HopfElement | Monomial | FeynmanGraph) -> HopfElement:
        return extend_linearly(x, HopfElement, self._antipode_monomial)

    def _antipode_monomial(self, mono: Monomial) -> HopfElement:
        if not mono:
            return HopfElement.one()
        cached = self._antipode.get(mono)
        if cached is not None:
            return cached
        out = {mono: -1}
        for (left, right), c in self.reduced_coproduct(mono).terms.items():
            accumulate(out, ((_merge(m, right), -c * c2)
                             for m, c2 in self._antipode_monomial(left).terms.items()))
        cached = self._antipode[mono] = HopfElement(out)
        return cached

    def dynkin(self, x: HopfElement | Monomial | FeynmanGraph) -> HopfElement:
        """D = S * Y (convolution of antipode and grading): the graded-Hopf
        realization of the Dynkin idempotent, with Y(m) = deg(m) m."""
        return self.convolve(self._antipode_monomial,
                             lambda m: HopfElement.from_monomial(m, monomial_degree(m)),
                             x, HopfElement)

    # -- convolution ------------------------------------------------------------

    def convolve(self, phi1: Callable, phi2: Callable,
                 x: HopfElement | Monomial | FeynmanGraph, element: type[Linear]) -> Linear:
        """(phi1 * phi2)(x) = <phi1 (x) phi2, Delta(x)>: ``phi1`` and ``phi2``
        map monomials to values of type ``element`` (HopfElement, LaurentSeries,
        ...), whose own arithmetic sums, scales and multiplies them."""
        total = element.zero()
        for (left, right), c in self.coproduct(x).terms.items():
            total = total + c * (phi1(left) * phi2(right))
        return total


def generate_graph_family(max_degree: int = 4, with_legs: bool = True
                          ) -> list[FeynmanGraph]:
    """Deterministic family of small 1PI graphs (optionally with external
    legs), deduplicated by isomorphism; used by tests and the CLI examples."""
    bases = [FeynmanGraph.build(2, [(0, 1)] * n) for n in (2, 3, 4) if n <= max_degree]
    if max_degree >= 3:
        bases.append(FeynmanGraph.build(3, [(0, 1), (1, 2), (0, 2)]))  # triangle
    if max_degree >= 4:
        bases.append(FeynmanGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))  # square
        bases.append(FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)]))  # doubled triangle
        bases.append(FeynmanGraph.build(3, [(0, 1), (0, 1), (1, 2), (1, 2)]))  # eyeglasses
    family: list[FeynmanGraph] = []
    seen = set()
    for base in bases:
        variants = [base]
        if with_legs:
            nv = len(base.internal_vertices())
            pairs = [(e.src, e.tgt) for e in base.edges]
            variants += [FeynmanGraph.build(nv, pairs, legs=legs)
                         for legs in ([0], [0, 1], [0, 0], [0, 1, 2]) if max(legs) < nv]
        # dedupe by isomorphism class, keep the degree bound
        for g in variants:
            if g.degree() <= max_degree and not g.validate() and g.is_1pi():
                k = g.canonical_key()
                if k not in seen:
                    seen.add(k)
                    family.append(g)
    return family
