"""Birkhoff factorization of Hopf-algebra characters into Rota-Baxter targets.

A character phi: H -> R (R a weight -1 Rota-Baxter algebra) factors as

    phi = (phi_- o S) * phi_+

with the counterterm and renormalized parts built inductively on the grading:

    phi_-(X) = -T( phi(X) + sum phi_-(X') phi(X'') )
    phi_+(X) = (1-T)( phi(X) + sum phi_-(X') phi(X'') )

where the sum runs over the reduced coproduct.  The weight -1 relation makes
both phi_- and phi_+ algebra morphisms again (tested, not assumed).

Target values are summed, negated and scaled by their own arithmetic and
multiplied through the target's ``mul``; phi, the prepared values, beta and
the frame are memoised per monomial, keyed by the monomial itself, and
extended to combinations by ``hopf.extend_linearly``, the one linear
extension.

The renormalization group enters through the Dynkin operator D = S * Y:
beta = phi_- o D.  Both targets are commutative, so beta = phi_-^(*-1) *
Y(phi_-) is an infinitesimal character: it vanishes on 1 and on every product
of two or more graphs, and Y(phi_-) = phi_- * beta gives, on a graph G and
over the reduced coproduct,

    beta(G) = deg G phi_-(G) - sum phi_-(G') beta(G''),

memoised per graph.  The Dynkin form phi_-(D(x)), which expands the antipode
into products, is the test oracle.  phi_- is recovered from the graded pieces
of beta by the universal singular frame

    phi_- = sum_{n >= 0, k_i > 0} beta_{k_1} * ... * beta_{k_n}
            / (k_1 (k_1+k_2) ... (k_1+...+k_n)).

The grading Y multiplies the term of (k_1, ..., k_n) by k_1+...+k_n, which
makes it the term of (k_1, ..., k_{n-1}) times beta_{k_n}: the frame F solves
Y(F) = F * beta.  With F(1) = 1 and beta(1) = 0 this is, on a monomial X of
degree d > 0 and over the reduced coproduct,

    F(X) = ( beta(X) + sum F(X') beta(X'') ) / d,

one recursion on the memoised coproduct in place of a sum over the 2^(d-1)
compositions of d; only the terms whose X'' is one graph contribute.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Callable

from .feyngraph import FeynmanGraph
from .hopf import HopfAlgebra, Monomial, extend_linearly, monomial_degree
from .rotabaxter import MultiLogAlgebra, MultiLogForm, diagonal_label, separation_label


class _MonomialMap:
    """A linear map from the Hopf algebra into ``target``, memoised per
    monomial: a subclass gives ``on_monomial`` and ``__call__`` extends it
    linearly."""

    def __init__(self, hopf: HopfAlgebra, target):
        self.hopf = hopf
        self.target = target
        self._memo: dict[Monomial, object] = {}

    def __call__(self, x):
        return extend_linearly(x, self.target.element, self.on_monomial)


class Character(_MonomialMap):
    """Multiplicative unital map from the Hopf algebra into a target algebra,
    defined by its values on generators: ``gen_rule`` runs once per
    generator, and a product multiplies the memoised generator values."""

    def __init__(self, hopf: HopfAlgebra, target,
                 gen_rule: Callable[[FeynmanGraph], object]):
        super().__init__(hopf, target)
        self.gen_rule = gen_rule

    def on_monomial(self, mono: Monomial):
        cached = self._memo.get(mono)
        if cached is None:
            if len(mono) == 1:
                cached = self.gen_rule(mono[0])
            else:
                cached = self.target.element.one()
                for g in mono:
                    cached = self.target.mul(cached, self.on_monomial((g,)))
            self._memo[mono] = cached
        return cached


class BirkhoffPair:
    """phi_- and phi_+ of a Birkhoff factorization, computed lazily by the
    Connes-Kreimer recursion and memoized per monomial."""

    def __init__(self, phi: Character):
        self.phi = phi
        self.hopf = phi.hopf
        self.target = phi.target
        self._prepared: dict[Monomial, object] = {}

    def _prepare(self, mono: Monomial):
        """phi(X) + sum phi_-(X') phi(X'') over the reduced coproduct."""
        cached = self._prepared.get(mono)
        if cached is not None:
            return cached
        mul = self.target.mul
        value = self.phi.on_monomial(mono)
        for (left, right), c in self.hopf.reduced_coproduct(mono).terms.items():
            value = value + c * mul(self.minus_on_monomial(left), self.phi.on_monomial(right))
        self._prepared[mono] = value
        return value

    def minus_on_monomial(self, mono: Monomial):
        if not mono:
            return self.target.element.one()
        return -self.target.T(self._prepare(mono))

    def plus_on_monomial(self, mono: Monomial):
        if not mono:
            return self.target.element.one()
        prepared = self._prepare(mono)
        return prepared - self.target.T(prepared)

    def phi_minus(self, x):
        return extend_linearly(x, self.target.element, self.minus_on_monomial)

    def phi_plus(self, x):
        """phi_+: the renormalized value, free of poles (T(phi_+) = 0)."""
        return extend_linearly(x, self.target.element, self.plus_on_monomial)

    def factorization_lhs(self, x):
        """(phi_- o S) * phi_+ evaluated at x; recovers phi(x)."""
        return self.hopf.convolve(lambda m: self.phi_minus(self.hopf.antipode(m)),
                                  self.plus_on_monomial, x, self.target.element)


birkhoff_factorize = BirkhoffPair  # lazy and total on graded elements


# ---------------------------------------------------------------------------
# Toy geometric character into the multi-space log-form algebra
# ---------------------------------------------------------------------------


def _stable_rational(head: str, *parts) -> Fraction:
    """A rational in [-6, 6] / [1, 5] hashed from the JSON list whose first
    items ``head`` dumps (a list, dumped once per graph) and then ``parts``."""
    blob = (head[:-1] + ", " + json.dumps(parts)[1:]).encode()
    h = int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")
    num = -6 + h % 13
    den = 1 + (h >> 16) % 5
    if num == 0:
        num = 1
    return Fraction(num, den)


def toy_feynman_character(hopf: HopfAlgebra, n_vertices: int, k_external: int,
                          rule_seed: int) -> Character:
    """Deterministic stand-in for the regularized-form assignment Gamma -> eta.

    eta_Gamma is a one-factor log form on the space labeled by the
    internal-edge count; its polar blocks pair the diagonal label of the
    vertex set of each 1PI subgraph gamma of Gamma with the matching
    separation-at-infinity label (so blocks have even cardinality), with
    hash-seeded rational residues, plus a seeded regular part.  The
    vertices are numbered 1..|V| in canonical order: eta maps the graph's
    own cached blocks, which its coproduct also combines, through the
    positions of its canonical form, so isomorphic graphs get one form and
    no graph is rebuilt.  The labels only use those points and the
    component at infinity, so ``k_external`` (the number of marked
    components, at least 0) does not change the values.  Raises if a graph
    needs more vertices than the configured budget.
    """
    if k_external < 0:
        raise ValueError(f"k_external must be >= 0, got {k_external}")
    target = MultiLogAlgebra()

    def eta(graph: FeynmanGraph) -> MultiLogForm:
        internal = graph.internal_vertices()
        if len(internal) > n_vertices:
            raise ValueError(
                f"divisor set too small: graph has {len(internal)} internal vertices, "
                f"budget is {n_vertices}")
        space = graph.degree()
        head = json.dumps([rule_seed, graph.canonical_key()])
        terms: dict[tuple, Fraction] = {}
        for labels in graph._canonical_blocks():
            I = frozenset(labels)
            block = (separation_label("inf", I), diagonal_label(I))
            terms[((space, ("polar", block)),)] = _stable_rational(head, labels, "polar")
        terms[()] = _stable_rational(head, "const")
        linear = ((separation_label("inf", frozenset({1})), 1),)
        terms[((space, ("reg", linear)),)] = _stable_rational(head, "lin")
        return MultiLogForm(terms)

    return Character(hopf, target, eta)


# ---------------------------------------------------------------------------
# Renormalization group: beta function and universal singular frame
# ---------------------------------------------------------------------------


class BetaFunction(_MonomialMap):
    """beta = phi_- o D with D the Dynkin operator S * Y, by its recursion
    beta(G) = deg G phi_-(G) - sum phi_-(G') beta(G'') on a graph, memoised
    per graph, and 0 on 1 and on products (module docstring)."""

    def __init__(self, pair: BirkhoffPair):
        super().__init__(pair.hopf, pair.target)
        self.pair = pair

    def on_monomial(self, mono: Monomial):
        if len(mono) != 1:
            return self.target.element.zero()
        cached = self._memo.get(mono)
        if cached is None:
            minus, mul = self.pair.minus_on_monomial, self.target.mul
            value = monomial_degree(mono) * minus(mono)
            for (left, right), c in self.hopf.reduced_coproduct(mono).terms.items():
                value = value - c * mul(minus(left), self.on_monomial(right))
            self._memo[mono] = cached = value
        return cached


beta_function = BetaFunction


class FrameCharacter(_MonomialMap):
    """The universal frame by its defining recursion
    F(X) = (beta(X) + sum F(X') beta(X'')) / deg X, memoised per monomial:
    the inverse of the Dynkin bijection, which recovers phi_- from beta."""

    def __init__(self, beta: BetaFunction):
        super().__init__(beta.hopf, beta.target)
        self.beta = beta

    def on_monomial(self, mono: Monomial):
        degree = monomial_degree(mono)
        if degree == 0:
            return self.target.element.one()
        cached = self._memo.get(mono)
        if cached is None:
            beta, mul = self.beta.on_monomial, self.target.mul
            value = beta(mono)
            for (left, right), c in self.hopf.reduced_coproduct(mono).terms.items():
                if len(right) == 1:  # beta vanishes on products
                    value = value + c * mul(self.on_monomial(left), beta(right))
            self._memo[mono] = cached = Fraction(1, degree) * value
        return cached


universal_frame = FrameCharacter
