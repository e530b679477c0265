"""Birkhoff factorization, counterterms, beta function, universal frame."""

import itertools
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from confeyn.birkhoff import (Character, beta_function, birkhoff_factorize,
                              toy_feynman_character, universal_frame)
from confeyn.feyngraph import FeynmanGraph
from confeyn.hopf import (HopfAlgebra, HopfElement, generate_graph_family, monomial,
                          monomial_degree)
from confeyn.rotabaxter import LaurentAlgebra, LaurentSeries, multi_T
from conftest import banana, doubled_triangle, laurent_rule, necklace

F = Fraction
BENCH = Path(__file__).resolve().parent.parent / "bench"


def dynkin_beta(pair, x):
    """beta by its definition phi_- o D, D = S * Y expanded through the antipode."""
    return pair.phi_minus(pair.hopf.dynkin(x))


class TestWorkedExamples:
    def test_primitive_split(self, hopf):
        target = LaurentAlgebra()
        phi = Character(hopf, target,
                        lambda g: LaurentSeries({-2: 1, 0: 3, 1: 1}))
        pair = birkhoff_factorize(phi)
        b = banana(2)
        assert pair.phi_minus(b) == LaurentSeries({-2: -1})
        assert pair.phi_plus(b) == LaurentSeries({0: 3, 1: 1})

    def test_nested_two_step(self, hopf):
        # reduced coproduct of the doubled triangle is banana (x) banana;
        # phi(banana) = z^-1 makes the preparation 3 + z, so phi_- vanishes
        target = LaurentAlgebra()
        b, dt = banana(2), doubled_triangle()

        def rule(g):
            if g == b:
                return LaurentSeries({-1: 1})
            if g == dt:
                return LaurentSeries({-2: 1, 0: 3, 1: 1})
            raise AssertionError("unexpected generator")

        pair = birkhoff_factorize(Character(hopf, target, rule))
        assert pair.phi_minus(dt) == LaurentSeries({})
        assert pair.phi_plus(dt) == LaurentSeries({0: 3, 1: 1})

    def test_renormalized_value_primitive(self, hopf):
        target = LaurentAlgebra()
        phi = Character(hopf, target, laurent_rule(3))
        pair = birkhoff_factorize(phi)
        b = banana(3)
        assert pair.phi_plus(b) == phi(b) - target.T(phi(b))


class TestCharacter:
    def test_rule_runs_once_per_generator(self, renorm_bench_graphs):
        # a product multiplies the memoised values of its generators
        budget = max(len(g.internal_vertices()) for g in renorm_bench_graphs)
        phi = toy_feynman_character(HopfAlgebra(), budget, 1, rule_seed=1)
        rule, calls = phi.gen_rule, Counter()

        def counted(graph):
            calls[graph] += 1
            return rule(graph)

        phi.gen_rule = counted
        pair = birkhoff_factorize(phi)
        for g in renorm_bench_graphs:
            pair.phi_minus(g), pair.phi_plus(g)
        assert set(calls) == {g for mono in phi._memo for g in mono}
        assert set(calls.values()) == {1}


class TestFactorizationIdentity:
    def test_laurent_degree_four(self, hopf, monomials_deg4, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        for m in monomials_deg4:
            assert pair.factorization_lhs(m) == laurent_character.on_monomial(m)

    def test_logform_degree_four(self, hopf, monomials_deg4):
        toy = toy_feynman_character(hopf, n_vertices=6, k_external=1, rule_seed=5)
        pair = birkhoff_factorize(toy)
        for m in monomials_deg4:
            assert pair.factorization_lhs(m) == toy.on_monomial(m)

    def test_multiplicativity(self, hopf, family, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        t = laurent_character.target
        count = 0
        for a, b in itertools.combinations_with_replacement(family, 2):
            prod = monomial(a, b)
            assert pair.minus_on_monomial(prod) == t.mul(
                pair.minus_on_monomial(monomial(a)), pair.minus_on_monomial(monomial(b)))
            assert pair.plus_on_monomial(prod) == t.mul(
                pair.plus_on_monomial(monomial(a)), pair.plus_on_monomial(monomial(b)))
            count += 1
        assert count >= 200

    def test_images_in_subalgebras(self, hopf, family, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        for g in family:
            minus = pair.phi_minus(g)
            plus = pair.phi_plus(g)
            assert all(e < 0 for e in minus.coeffs)
            assert all(e >= 0 for e in plus.coeffs)


class TestLogFormPipeline:
    def test_residue_freeness(self, hopf, family):
        toy = toy_feynman_character(hopf, n_vertices=6, k_external=1, rule_seed=9)
        pair = birkhoff_factorize(toy)
        for g in family:
            assert multi_T(pair.phi_plus(g)).is_zero()

    def test_counterterms_purely_polar(self, hopf, family):
        toy = toy_feynman_character(hopf, n_vertices=6, k_external=1, rule_seed=9)
        pair = birkhoff_factorize(toy)
        target = toy.target
        for g in family[:10]:
            minus = pair.phi_minus(g)
            assert target.T(minus) == minus

    def test_determinism(self, hopf):
        a = toy_feynman_character(hopf, 5, 1, rule_seed=21)
        b = toy_feynman_character(hopf, 5, 1, rule_seed=21)
        c = toy_feynman_character(hopf, 5, 1, rule_seed=22)
        for g in (banana(2), doubled_triangle()):
            assert a(g) == b(g)
        assert a(banana(2)) != c(banana(2))

    def test_isomorphism_invariance(self, hopf):
        # the rule sees only the isomorphism class
        toy = toy_feynman_character(hopf, 5, 1, rule_seed=4)
        g1 = FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)])
        g2 = FeynmanGraph.build(3, [(2, 1), (1, 2), (0, 2), (0, 1)])
        assert g1 == g2 and toy(g1) == toy(g2)

    def test_budget_error(self, hopf):
        toy = toy_feynman_character(hopf, n_vertices=2, k_external=0, rule_seed=1)
        with pytest.raises(ValueError, match="divisor set too small"):
            toy(FeynmanGraph.build(3, [(0, 1), (1, 2), (0, 2)]))

    def test_negative_k_external_rejected(self, hopf):
        with pytest.raises(ValueError, match="k_external"):
            toy_feynman_character(hopf, 6, -1, 1)

    def test_large_graph_has_no_ambient_label_set(self, hopf):
        # necklace of ten bananas with two legs, E = 20: an ambient set of all
        # divisor labels would hold about 3.1 million labels; eta holds only
        # one polar block per 1PI vertex set plus the two regular terms
        g = FeynmanGraph.build(10, [(i, (i + 1) % 10) for i in range(10) for _ in range(2)],
                               legs=[0, 1])
        assert g.degree() == 20
        t0 = time.monotonic()
        value = toy_feynman_character(hopf, 10, 1, rule_seed=3)(g)
        assert time.monotonic() - t0 < 10.0
        blocks = g.one_pi_blocks()
        polar = [key for key in value.terms
                 if any(kind == "polar" for _, (kind, _) in key)]
        assert len(blocks) == 81  # 10 arcs of each size 2..9, and the ring
        assert len(polar) == len(blocks)
        assert len(value.terms) == len(blocks) + 2

    def test_multiplicative_over_monomials(self, hopf):
        toy = toy_feynman_character(hopf, 6, 1, rule_seed=2)
        b, t = banana(2), doubled_triangle()
        lhs = toy.on_monomial(monomial(b, t))
        rhs = toy.target.mul(toy(b), toy(t))
        assert lhs == rhs


class TestBetaAndFrame:
    def test_beta_on_primitives(self, hopf, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        beta = beta_function(pair)
        for g in (banana(2), banana(3)):
            got = beta(HopfElement.generator(g))
            want = g.degree() * pair.phi_minus(g)
            assert got == want

    def test_beta_on_unit(self, hopf, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        beta = beta_function(pair)
        assert beta(HopfElement.one()).is_zero()

    def test_beta_vanishes_on_products(self, hopf, family, laurent_character):
        deg2 = [g for g in family if g.degree() == 2]
        for phi in (laurent_character, toy_feynman_character(hopf, 6, 1, rule_seed=1)):
            beta = beta_function(birkhoff_factorize(phi))
            for a, b in itertools.combinations_with_replacement(deg2, 2):
                assert beta(HopfElement.from_monomial(monomial(a, b))).is_zero()

    @pytest.mark.parametrize("target", ["laurent", "logform"])
    def test_beta_is_phi_minus_of_the_dynkin_operator(self, hopf, monkeypatch, target):
        # the recursion against the defining beta = phi_- o (S * Y), which
        # expands the antipode: necklaces, the family, the dense benchmark
        # shapes and products of two and three graphs (where both are 0)
        monkeypatch.syspath_prepend(str(BENCH))
        from jobs import DENSE_GRAPHS

        phi = (Character(hopf, LaurentAlgebra(), laurent_rule(1)) if target == "laurent"
               else toy_feynman_character(hopf, 8, 1, rule_seed=1))
        pair = birkhoff_factorize(phi)
        beta = beta_function(pair)
        family = generate_graph_family(4, with_legs=True)
        graphs = ([necklace(k) for k in range(3, 8)] + family
                  + [FeynmanGraph.build(n, edges) for n, edges in DENSE_GRAPHS.values()])
        small = [g for g in family if g.degree() <= 3]
        products = [monomial(*gs) for r in (2, 3)
                    for gs in itertools.combinations_with_replacement(small[:4], r)]
        for x in graphs + products:
            want = dynkin_beta(pair, x)
            assert beta(x) == want
            assert want.is_zero() == isinstance(x, tuple)

    def test_frame_round_trip_laurent(self, hopf, monomials_deg4, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        beta = beta_function(pair)
        frame = universal_frame(beta)
        for m in monomials_deg4:
            if monomial_degree(m) > 3:
                continue
            assert frame.on_monomial(m) == pair.minus_on_monomial(m)

    def test_frame_round_trip_logform(self, hopf, monomials_deg4):
        toy = toy_feynman_character(hopf, 6, 1, rule_seed=13)
        pair = birkhoff_factorize(toy)
        beta = beta_function(pair)
        frame = universal_frame(beta)
        for m in monomials_deg4:
            if monomial_degree(m) > 3:
                continue
            assert frame.on_monomial(m) == pair.minus_on_monomial(m)

    def test_frame_unit(self, hopf, laurent_character):
        pair = birkhoff_factorize(laurent_character)
        frame = universal_frame(beta_function(pair))
        assert frame.on_monomial(()) == LaurentSeries.one()

    def test_frame_matches_per_composition_reference(self, hopf, monomials_deg4,
                                                     laurent_character):
        # the defining sum over the compositions (k_1, ..., k_n) of the degree,
        # read off Delta^(n-1) (taken once per n), against the recursion the
        # frame runs; both targets, up to the 12-edge necklace
        def compositions(total):
            if total == 0:
                yield ()
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest

        toy = toy_feynman_character(hopf, 6, 1, rule_seed=13)
        monos = monomials_deg4 + [monomial(necklace(6))]
        for phi in (laurent_character, toy):
            pair = birkhoff_factorize(phi)
            beta = beta_function(pair)
            frame = universal_frame(beta)
            t = frame.target

            def reference(mono):
                total = t.element.zero()
                by_profile = {}  # n -> the terms of Delta^(n-1) by degree profile
                for comp in compositions(monomial_degree(mono)):
                    denom = F(1)
                    for i in range(1, len(comp) + 1):
                        denom *= sum(comp[:i])
                    n = len(comp)
                    if n not in by_profile:
                        by_profile[n] = {}
                        spread = hopf.iterated_coproduct(HopfElement.from_monomial(mono), n)
                        for key, c in spread.terms.items():
                            profile = tuple(monomial_degree(m) for m in key)
                            by_profile[n].setdefault(profile, []).append((key, c))
                    for key, c in by_profile[n].get(comp, ()):
                        value = t.element.one()
                        for m in key:
                            value = t.mul(value, beta.on_monomial(m))
                        total = total + c / denom * value
                return total

            for mono in monos:
                if monomial_degree(mono):
                    assert frame.on_monomial(mono) == reference(mono)
