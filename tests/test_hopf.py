"""Hopf algebra: coproduct examples, axioms, Dynkin, convolution, and the
per-monomial memos."""
import itertools
from fractions import Fraction

import pytest

from confeyn.feyngraph import FeynmanGraph
from confeyn.hopf import (HopfAlgebra, HopfElement, TensorElement, monomial,
                          monomial_degree)
from confeyn.rotabaxter import LaurentAlgebra, LaurentSeries, laurent_T
from confeyn.birkhoff import (Character, beta_function, birkhoff_factorize,
                              universal_frame)
from conftest import banana, doubled_triangle, laurent_rule, necklace, triangle

F = Fraction


class TestCoproduct:
    def test_unit(self, hopf):
        assert hopf.coproduct(HopfElement.one()) == TensorElement.one()

    def test_primitive_banana(self, hopf):
        b = banana(2)
        got = hopf.coproduct(b)
        want = TensorElement({(monomial(b), ()): F(1), ((), monomial(b)): F(1)})
        assert got == want

    def test_nested_doubled_triangle(self, hopf):
        dt = doubled_triangle()
        got = hopf.coproduct(dt)
        key = (monomial(banana(2)), monomial(banana(2)))
        assert got.terms[key] == 1
        assert len(got.terms) == 3

    def test_multiplicative(self, hopf):
        x = HopfElement.generator(banana(2))
        y = HopfElement.generator(triangle())
        lhs = hopf.coproduct(x * y)
        rhs = hopf.coproduct(x) * hopf.coproduct(y)
        assert lhs == rhs

    def test_a_combination_is_that_combination_of_the_memo_entries(self):
        hopf = HopfAlgebra()
        g, h = doubled_triangle(), banana(2)
        monos = (monomial(g), monomial(h), monomial(g, h))
        entries = [hopf.coproduct(mono) for mono in monos]
        before = [dict(e.terms) for e in entries]
        G, H = HopfElement.generator(g), HopfElement.generator(h)
        got = hopf.coproduct(2 * G - H + G * H)
        assert got == 2 * entries[0] - entries[1] + entries[2]
        # the sum is built beside the memo, which still holds the same entries
        assert [dict(e.terms) for e in entries] == before
        assert all(hopf.coproduct(mono) is e for mono, e in zip(monos, entries))

    def test_grading_respected(self, hopf, monomials_deg4):
        for m in monomials_deg4:
            for (a, b), _ in hopf.coproduct(HopfElement.from_monomial(m)).terms.items():
                assert monomial_degree(a) + monomial_degree(b) == monomial_degree(m)


class TestAxioms:
    def test_coassociativity(self, hopf, monomials_deg4):
        for m in monomials_deg4:
            x = HopfElement.from_monomial(m)
            left = {}
            for (a, b), c in hopf.coproduct(x).terms.items():
                for (a1, a2), c2 in hopf.coproduct(HopfElement.from_monomial(a)).terms.items():
                    key = (a1, a2, b)
                    left[key] = left.get(key, F(0)) + c * c2
            left = {k: v for k, v in left.items() if v}
            right = hopf.iterated_coproduct(x, 3).terms
            assert left == right

    @pytest.mark.parametrize("k", [0, -1])
    def test_iterated_coproduct_needs_one_slot(self, hopf, k):
        # k = 0 once recursed until RecursionError
        with pytest.raises(ValueError, match="k >= 1"):
            hopf.iterated_coproduct(monomial(banana(2)), k)

    def test_counit(self, hopf, monomials_deg4):
        for m in monomials_deg4:
            x = HopfElement.from_monomial(m)
            left = HopfElement.zero()
            right = HopfElement.zero()
            for (a, b), c in hopf.coproduct(x).terms.items():
                left = left + (c * hopf.counit(a)) * HopfElement.from_monomial(b)
                right = right + (c * hopf.counit(b)) * HopfElement.from_monomial(a)
            assert left == x and right == x

    def test_antipode_axiom(self, hopf, monomials_deg4):
        for m in monomials_deg4:
            x = HopfElement.from_monomial(m)
            total = HopfElement.zero()
            for (a, b), c in hopf.coproduct(x).terms.items():
                total = total + c * (hopf.antipode(a) * HopfElement.from_monomial(b))
            assert total == hopf.counit(x) * HopfElement.one()


class TestAntipode:
    def test_unit(self, hopf):
        assert hopf.antipode(HopfElement.one()) == HopfElement.one()

    def test_primitive(self, hopf):
        b = banana(2)
        assert hopf.antipode(b) == (-1) * HopfElement.generator(b)

    def test_one_nesting_step(self, hopf):
        dt = doubled_triangle()
        b = banana(2)
        want = ((-1) * HopfElement.generator(dt)
                + HopfElement.generator(b) * HopfElement.generator(b))
        assert hopf.antipode(dt) == want


class TestReducedCoproduct:
    def assert_definition(self, hopf, monos):
        for m in monos:
            got = hopf.reduced_coproduct(m)
            want = (hopf.coproduct(m) - TensorElement({(m, ()): 1})
                    - TensorElement({((), m): 1}))
            assert got == want, m
            assert all(left and right for left, right in got.terms), m

    def test_degree_four_monomials(self, hopf, monomials_deg4):
        self.assert_definition(hopf, [m for m in monomials_deg4 if m])

    def test_products_of_generators(self, hopf, family):
        small = [g for g in family if g.degree() <= 3][:6]
        self.assert_definition(hopf, [monomial(*gs) for r in (2, 3)
                                      for gs in itertools.combinations_with_replacement(small, r)])

    def test_renorm_bench_graphs(self, hopf, renorm_bench_graphs):
        self.assert_definition(hopf, [monomial(g) for g in renorm_bench_graphs])

    def test_zero_on_unit(self, hopf):
        assert hopf.reduced_coproduct(()).is_zero()


class TestGradingAndDynkin:
    def test_dynkin_on_primitives(self, hopf):
        for g in (banana(2), banana(3), triangle()):
            assert hopf.dynkin(g) == g.degree() * HopfElement.generator(g)

    def test_dynkin_on_unit(self, hopf):
        assert hopf.dynkin(HopfElement.one()) == HopfElement.zero()

    def test_dynkin_nested(self, hopf):
        dt = doubled_triangle()
        b = banana(2)
        want = (4 * HopfElement.generator(dt)
                - 2 * (HopfElement.generator(b) * HopfElement.generator(b)))
        assert hopf.dynkin(dt) == want


class TestConvolution:
    def test_counit_is_neutral(self, hopf, family, laurent_character):
        def eps(mono):  # the counit, then the unit of the target
            return LaurentSeries.zero() if mono else LaurentSeries.one()

        for g in family[:6]:
            got = hopf.convolve(laurent_character.on_monomial, eps, g, LaurentSeries)
            assert got == laurent_character(g)
            got2 = hopf.convolve(eps, laurent_character.on_monomial, g, LaurentSeries)
            assert got2 == laurent_character(g)

    def test_primitive_convolution_adds(self, hopf):
        target = LaurentAlgebra()
        phi1 = Character(hopf, target, laurent_rule(1))
        phi2 = Character(hopf, target, laurent_rule(2))
        b = banana(2)
        got = hopf.convolve(phi1.on_monomial, phi2.on_monomial, b, LaurentSeries)
        assert got == phi1(b) + phi2(b)

    def test_antipode_convolution_is_counit(self, hopf, monomials_deg4,
                                            laurent_character):
        # (phi o S) * phi = u eps as characters, brute force on degree <= 3
        phi = laurent_character

        def phi_s(mono):
            return phi(phi.hopf.antipode(HopfElement.from_monomial(mono)))

        for m in monomials_deg4:
            if monomial_degree(m) > 3:
                continue
            got = hopf.convolve(phi_s, phi.on_monomial, m, LaurentSeries)
            want = LaurentSeries.zero() if m else LaurentSeries.one()
            assert got == want


class TestFamily:
    def test_size_and_degrees(self, family):
        assert len(family) >= 20
        assert all(g.is_1pi() and not g.validate() for g in family)
        assert all(g.degree() <= 4 for g in family)

    def test_isomorphism_distinct(self, family):
        keys = [g.canonical_key() for g in family]
        assert len(keys) == len(set(keys))

    def test_monomial_requires_1pi(self):
        with pytest.raises(ValueError):
            monomial(FeynmanGraph.build(2, [(0, 1)]))


K4 = FeynmanGraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


class TestMemo:
    def test_entries_survive_the_pipeline(self):
        # Birkhoff, beta and the frame all read the shared memo entries; none
        # of them may change one
        hopf = HopfAlgebra()
        pair = birkhoff_factorize(Character(hopf, LaurentAlgebra(), laurent_rule(3)))
        beta = beta_function(pair)
        frame = universal_frame(beta)
        graphs = [necklace(3), necklace(4), necklace(5), K4]
        for g in graphs:
            assert frame.on_monomial(monomial(g)) == pair.phi_minus(g)
            assert pair.factorization_lhs(g) == pair.phi(g)
            assert laurent_T(pair.phi_plus(g)).is_zero()
            beta(g)
        assert len(hopf._coproduct_gen) > len(graphs) and hopf._antipode
        for mono, delta in hopf._coproduct_gen.items():
            assert delta == HopfAlgebra().coproduct(mono)
        for mono, s in hopf._antipode.items():
            assert s == HopfAlgebra().antipode(mono)

    def test_keys_do_not_depend_on_labelling(self):
        # necklace(4) with its vertices permuted and its edges reordered: each
        # of the five memos keeps one entry for both copies
        g = necklace(4)
        perm = [2, 0, 3, 1]
        copy = FeynmanGraph.build(4, [(perm[e.src], perm[e.tgt])
                                      for e in reversed(g.edges) if e.internal],
                                  legs=[perm[0], perm[1]])
        assert copy.to_json() != g.to_json() and copy == g

        def pipeline():
            hopf = HopfAlgebra()
            pair = birkhoff_factorize(Character(hopf, LaurentAlgebra(), laurent_rule(3)))
            frame = universal_frame(beta_function(pair))

            def values(graph):
                return (hopf.coproduct(graph), hopf.antipode(graph), pair.phi(graph),
                        pair.phi_minus(graph), pair.phi_plus(graph), frame(graph))
            return values, (hopf._coproduct_gen, hopf._antipode, pair.phi._memo,
                            pair._prepared, frame._memo)

        values, memos = pipeline()
        original = values(g)
        sizes = [len(memo) for memo in memos]
        assert all(monomial(copy) in memo for memo in memos)
        assert values(copy) == original
        assert [len(memo) for memo in memos] == sizes
        assert pipeline()[0](copy) == original

    def test_coefficients_are_int(self, hopf, family):
        for g in family + [necklace(4), K4]:
            for element in (hopf.coproduct(g), hopf.antipode(g), hopf.dynkin(g),
                            hopf.reduced_coproduct(monomial(g)),
                            hopf.iterated_coproduct(monomial(g), 3)):
                assert all(type(c) is int for c in element.terms.values())

