"""Shared fixtures: graph families, deterministic pseudo-random characters."""

from __future__ import annotations

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from confeyn.feyngraph import FeynmanGraph
from confeyn.hopf import HopfAlgebra, generate_graph_family, monomial, monomial_degree
from confeyn.rotabaxter import LaurentAlgebra, LaurentSeries, MultiLogForm
from confeyn.birkhoff import Character


BENCH = Path(__file__).resolve().parent.parent / "bench"


def stable_int(*parts, bits: int = 40) -> int:
    blob = json.dumps([str(p) for p in parts], sort_keys=True).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[: bits // 8 + 1], "big")


def stable_fraction(*parts, lo: int = -5, hi: int = 5) -> Fraction:
    h = stable_int(*parts)
    num = lo + h % (hi - lo + 1)
    den = 1 + (h >> 20) % 4
    return Fraction(num, den)


def laurent_rule(seed: int):
    """Deterministic per-isomorphism-class Laurent values with genuine poles."""
    def rule(g: FeynmanGraph) -> LaurentSeries:
        key = g.canonical_key()
        coeffs = {}
        for e in range(-2, 3):
            coeffs[e] = stable_fraction(seed, key, e)
        if coeffs[-1] == 0 and coeffs[-2] == 0:
            coeffs[-1] = Fraction(1)
        return LaurentSeries(coeffs)
    return rule


def one_factor_form(space: int, polar=None, regular=None) -> MultiLogForm:
    """The one-factor log form on ``space`` with the given polar blocks
    {J: c} and regular monomials {((label, exponent), ...): c}."""
    terms = {((space, ("polar", tuple(sorted(J)))),): c
             for J, c in (polar or {}).items()}
    terms.update({((space, ("reg", tuple(mono))),) if mono else (): c
                  for mono, c in (regular or {}).items()})
    return MultiLogForm(terms)


@pytest.fixture(scope="session")
def hopf() -> HopfAlgebra:
    return HopfAlgebra()


@pytest.fixture(scope="session")
def family() -> list[FeynmanGraph]:
    return generate_graph_family(4)


@pytest.fixture(scope="session")
def monomials_deg4(family):
    """All test monomials of degree <= 4 over the family (unit included)."""
    monos = [()]
    monos += [monomial(g) for g in family]
    deg2 = [g for g in family if g.degree() == 2]
    monos += [monomial(a, b) for a, b in
              itertools.combinations_with_replacement(deg2, 2)]
    return [m for m in monos if monomial_degree(m) <= 4]


@pytest.fixture(scope="session")
def renorm_bench_graphs() -> list[FeynmanGraph]:
    """The graph set of the renorm benchmark at seed 1 (``bench/jobs.py``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import jobs
    return [g for _, g in jobs.make_renorm_inputs(jobs.Confeyn(), 1, "full")]


@pytest.fixture(scope="session")
def laurent_character(hopf):
    return Character(hopf, LaurentAlgebra(), laurent_rule(7))


def banana(n: int = 2) -> FeynmanGraph:
    return FeynmanGraph.build(2, [(0, 1)] * n)


def triangle() -> FeynmanGraph:
    return FeynmanGraph.build(3, [(0, 1), (1, 2), (0, 2)])


def doubled_triangle() -> FeynmanGraph:
    return FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)])


def necklace(k: int) -> FeynmanGraph:
    """A ring of k bananas (bead i is edges 2i, 2i+1) with legs on 0 and 1."""
    return FeynmanGraph.build(k, [(i, (i + 1) % k) for i in range(k) for _ in range(2)],
                              legs=[0, 1])


DENSE = {
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K33": (6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
    "wheel5": (6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
}
