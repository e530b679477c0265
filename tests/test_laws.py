"""Hopf and Birkhoff laws as hypothesis properties on generated 1PI graphs:
coassociativity, S * id = eps and phi = (phi_- o S) * phi_+."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from confeyn.birkhoff import Character, birkhoff_factorize
from confeyn.feyngraph import FeynmanGraph
from confeyn.hopf import HopfAlgebra, HopfElement, TensorElement
from confeyn.rotabaxter import LaurentAlgebra
from conftest import laurent_rule

HOPF = HopfAlgebra()
PAIR = birkhoff_factorize(Character(HOPF, LaurentAlgebra(), laurent_rule(7)))
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
    one = staticmethod(HopfElement.unit)

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
    assert TensorElement(left, k=3) == HOPF.iterated_coproduct(HopfElement.generator(graph), 3)


@LAWS
@given(one_pi_graphs())
def test_antipode_convolution_is_counit(graph):
    got = HOPF.convolve(HOPF.antipode, HopfElement.from_monomial, graph, HopfTarget)
    assert got == HOPF.counit(graph) * HopfElement.unit() == HopfElement.zero()


@LAWS
@given(one_pi_graphs())
def test_birkhoff_factorization(graph):
    assert PAIR.factorization_lhs(graph) == PAIR.phi(graph)
