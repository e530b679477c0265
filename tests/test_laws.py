"""Hopf, Birkhoff and Rota-Baxter laws as hypothesis properties:
coassociativity, S * id = eps, S o S = id, Delta(xy) = Delta(x) Delta(y),
phi = (phi_- o S) * phi_+ and Y(phi_-) = phi_- * beta on generated 1PI
graphs, the weight -1
Rota-Baxter identity with T o T = T on both targets, and the commutative
ring laws of the exact ring, whose float binding is a ring homomorphism.  The laws that read the
coproduct and antipode memos run on a warm shared algebra and on a fresh one,
so that a stale or aliased memo entry cannot pass."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confeyn.birkhoff import Character, beta_function, birkhoff_factorize
from confeyn.exact import SymbolicCoeff
from confeyn.feyngraph import FeynmanGraph
from confeyn.hopf import HopfAlgebra, HopfElement, TensorElement
from confeyn.rotabaxter import (LaurentAlgebra, LaurentSeries, MultiLogForm,
                                divisor_labels, label_sort_key, laurent_T, multi_T)
from conftest import laurent_rule, one_factor_form

HOPF = HopfAlgebra()
PAIR = birkhoff_factorize(Character(HOPF, LaurentAlgebra(), laurent_rule(7)))
BETA = beta_function(PAIR)
LAWS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def one_pi_graphs(draw, max_edges: int = 8):
    """A ring through 2-5 internal vertices whose links are 1-3 parallel
    edges, plus chords: 1PI, at most 8 internal edges, 0-2 legs."""
    nv = draw(st.integers(2, 5))
    links = [(0, 1)] if nv == 2 else [(i, (i + 1) % nv) for i in range(nv)]
    edges = [(0, 1)] if nv == 2 else []
    for n, link in enumerate(links):
        spare = max_edges - len(edges) - (len(links) - n - 1)
        edges += [link] * draw(st.integers(1, min(3, spare)))
    chords = draw(st.lists(st.tuples(st.integers(0, nv - 1), st.integers(1, nv - 1)),
                           max_size=max_edges - len(edges)))
    edges += [(a, (a + shift) % nv) for a, shift in chords]
    legs = draw(st.lists(st.integers(0, nv - 1), max_size=2))
    return FeynmanGraph.build(nv, edges, legs=legs)


class HopfTarget:
    """H itself as a convolution target."""
    zero = staticmethod(HopfElement.zero)
    one = staticmethod(HopfElement.one)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def scale(a, c):
        return c * a


@LAWS
@given(one_pi_graphs())
def test_coassociativity(graph):
    assert graph.is_1pi()
    left: dict = {}
    for (a, b), c in HOPF.coproduct(graph).terms.items():
        for (a1, a2), c2 in HOPF.coproduct(a).terms.items():
            key = (a1, a2, b)
            left[key] = left.get(key, Fraction(0)) + c * c2
    assert TensorElement(left) == HOPF.iterated_coproduct(HopfElement.generator(graph), 3)


@LAWS
@given(one_pi_graphs())
def test_antipode_convolution_is_counit(graph):
    got = HOPF.convolve(HOPF.antipode, HopfElement.from_monomial, graph, HopfTarget)
    assert got == HOPF.counit(graph) * HopfElement.one() == HopfElement.zero()


ALGEBRAS = {"warm": lambda: HOPF, "fresh": HopfAlgebra}
each_algebra = pytest.mark.parametrize("algebra", ALGEBRAS.values(), ids=ALGEBRAS)


@each_algebra
@LAWS
@given(one_pi_graphs())
def test_antipode_is_an_involution(algebra, graph):
    # H is commutative, so S is an involution
    hopf = algebra()
    x = HopfElement.generator(graph)
    assert hopf.antipode(hopf.antipode(x)) == x


@each_algebra
@LAWS
@given(one_pi_graphs(max_edges=6), one_pi_graphs(max_edges=6))
def test_coproduct_is_multiplicative(algebra, g1, g2):
    hopf = algebra()
    x, y = HopfElement.generator(g1), HopfElement.generator(g2)
    assert hopf.coproduct(x * y) == hopf.coproduct(x) * hopf.coproduct(y)


@LAWS
@given(one_pi_graphs())
def test_birkhoff_factorization(graph):
    assert PAIR.factorization_lhs(graph) == PAIR.phi(graph)


@LAWS
@given(one_pi_graphs())
def test_grading_of_phi_minus_is_its_convolution_with_beta(graph):
    # Y(phi_-) = phi_- * beta, the identity the universal frame solves
    want = PAIR.target.scale(PAIR.phi_minus(graph), graph.degree())
    assert HOPF.convolve(PAIR.minus_on_monomial, BETA.on_monomial, graph, PAIR.target) == want


LABELS = sorted(divisor_labels(2, 1), key=label_sort_key)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def laurent_series(draw):
    return LaurentSeries(draw(st.dictionaries(st.integers(-3, 3), RATIONALS, max_size=5)))


@st.composite
def one_factor_forms(draw, space: int):
    """Up to two polar blocks (two or four labels) and two regular monomials."""
    polar = {}
    for labels in draw(st.lists(st.lists(st.sampled_from(LABELS), min_size=2,
                                         max_size=4, unique=True), max_size=2)):
        polar[frozenset(labels[:len(labels) // 2 * 2])] = draw(RATIONALS)
    regular = {}
    for mono in draw(st.lists(st.lists(st.tuples(st.sampled_from(LABELS), st.integers(1, 2)),
                                       max_size=2, unique_by=lambda v: v[0]), max_size=2)):
        regular[tuple(sorted(mono, key=lambda v: label_sort_key(v[0])))] = draw(RATIONALS)
    return one_factor_form(space, polar, regular)


@st.composite
def multi_log_forms(draw):
    """A sum of one or two wedges of one-factor forms over 1-3 spaces."""
    spaces = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    out = MultiLogForm.zero()
    for _ in range(draw(st.integers(1, 2))):
        wedge = MultiLogForm.one()
        for space in spaces:
            wedge = wedge * draw(one_factor_forms(space))
        out = out + wedge
    return out


def assert_rota_baxter(T, x, y):
    assert T(x) * T(y) == T(x * T(y)) + T(T(x) * y) - T(x * y)
    assert T(T(x)) == T(x)


@LAWS
@given(laurent_series(), laurent_series())
def test_rota_baxter_laurent(x, y):
    assert_rota_baxter(laurent_T, x, y)


@LAWS
@given(multi_log_forms(), multi_log_forms())
def test_rota_baxter_log_forms(x, y):
    assert_rota_baxter(multi_T, x, y)


# (2*m_exp, logm, gamma, log2, sqrt2, pi_half): odd first entries are
# half-integer powers of m, and sqrt(2) * sqrt(2) folds into the factor 2
EXACT_KEYS = st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 1),
                       st.integers(0, 1), st.integers(0, 1), st.integers(-3, 3))
EXACT = st.dictionaries(EXACT_KEYS, RATIONALS, max_size=4).map(SymbolicCoeff)


def _magnitude(a: SymbolicCoeff, m: float) -> float:
    """The sum of the absolute values of the terms of a at m."""
    return sum(abs(SymbolicCoeff({key: q}).bind(m)) for key, q in a.terms.items())


@LAWS
@given(EXACT, EXACT, EXACT)
def test_exact_ring_is_a_commutative_ring(a, b, c):
    zero, one = SymbolicCoeff.zero(), SymbolicCoeff.one()
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and (a * zero).is_zero()
    assert (a - b) + b == a and a - a == zero and -(-a) == a


@LAWS
@given(EXACT, EXACT, st.floats(0.1, 5.0))
def test_bind_is_a_ring_homomorphism(a, b, m):
    size_a, size_b = _magnitude(a, m), _magnitude(b, m)
    assert math.isclose((a + b).bind(m), a.bind(m) + b.bind(m),
                        rel_tol=0, abs_tol=1e-13 * (size_a + size_b) + 1e-300)
    assert math.isclose((a * b).bind(m), a.bind(m) * b.bind(m),
                        rel_tol=0, abs_tol=1e-13 * size_a * size_b + 1e-300)
