"""Subdivergence enumeration from 1PI vertex sets against the 2^E subset
scans it replaced (kept in ``subset_scan``), on a fixed graph set and on
hypothesis-generated multigraphs; and the quotients the Hopf layer is handed
against contractions made again with the admissibility check."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from confeyn.feyngraph import Edge, FeynmanGraph, SubgraphSelection
from confeyn.hopf import HopfAlgebra, generate_graph_family, monomial
from conftest import necklace
from subset_scan import scan_admissible_subgraphs, scan_one_pi_vertex_sets

DENSE = {
    "K4": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
    "K33": (6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)]),
    "wheel5": (6, [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]),
}


def fixed_graphs() -> list[tuple[str, FeynmanGraph]]:
    out = [(f"family{i}", g) for i, g in enumerate(generate_graph_family(4))]
    out += [(f"family_nolegs{i}", g)
            for i, g in enumerate(generate_graph_family(4, with_legs=False))]
    out += [(f"necklace{k}", necklace(k)) for k in range(3, 8)]
    for name, (nv, edges) in DENSE.items():
        out.append((name, FeynmanGraph.build(nv, edges)))
        out.append((f"{name}_legs", FeynmanGraph.build(nv, edges, legs=list(edges[0]))))
    return out


def assert_matches_scan(graph: FeynmanGraph):
    assert graph.admissible_subgraphs() == scan_admissible_subgraphs(graph)
    assert [verts for verts, _ in graph.one_pi_blocks()] == scan_one_pi_vertex_sets(graph)


def assert_quotients_carried(graph: FeynmanGraph):
    pairs = graph._admissible_pairs()
    selections = graph.admissible_subgraphs()
    assert selections == [sel for sel, _ in pairs]
    assert all(type(sel) is SubgraphSelection for sel in selections)
    for sel, quotient in pairs:
        checked = graph.contract(sel)
        assert (quotient.external, quotient.edges) == (checked.external, checked.edges)
        assert quotient.canonical_key() == checked.canonical_key()
    if not graph.is_1pi():
        return
    # the Hopf layer counts each carried quotient and contracts nothing again
    want = {(monomial(graph), ()): 1, ((), monomial(graph)): 1}
    for sel in selections:
        key = (monomial(*map(graph.component_graph, sel.components)),
               monomial(graph.contract(sel)))
        want[key] = want.get(key, 0) + 1
    with mock.patch.object(FeynmanGraph, "contract", autospec=True,
                           side_effect=FeynmanGraph.contract) as contract:
        got = HopfAlgebra().coproduct_generator(graph)
    assert got.terms == want
    assert contract.call_count >= len(pairs)
    assert all(call.kwargs == {"_check_admissible": False}
               for call in contract.call_args_list)


@pytest.mark.parametrize("graph", [pytest.param(g, id=n) for n, g in fixed_graphs()])
def test_fixed_set_matches_scan(graph):
    assert_matches_scan(graph)


@pytest.mark.parametrize("graph", [pytest.param(g, id=n) for n, g in fixed_graphs()])
def test_fixed_set_quotients_carried(graph):
    assert_quotients_carried(graph)


@pytest.mark.parametrize("graph", [pytest.param(g, id=f"family{i}")
                                   for i, g in enumerate(generate_graph_family(4))]
                         + [pytest.param(necklace(6), id="necklace6")])
def test_carried_quotients_are_valid(graph):
    # the enumeration does not validate its quotients: a valid graph divided
    # by vertex-disjoint induced 1PI blocks is valid
    assert all(quotient.validate() == [] for _, quotient in graph._admissible_pairs())


@st.composite
def multigraphs(draw):
    """Valid multigraphs: 2-6 internal vertices, at most 11 internal edges
    (parallel edges allowed, no looping edges), 0-3 legs."""
    nv = draw(st.integers(2, 6))
    ends = st.tuples(st.integers(0, nv - 1), st.integers(1, nv - 1))
    size = draw(st.integers(nv, 11))
    edges = [(a, (a + shift) % nv)
             for a, shift in draw(st.lists(ends, min_size=size, max_size=size))]
    legs = draw(st.lists(st.integers(0, nv - 1), max_size=3))
    return FeynmanGraph.build(nv, edges, legs=legs)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(multigraphs())
def test_generated_graphs_match_scan(graph):
    assert not graph.validate()
    assert_matches_scan(graph)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(multigraphs())
def test_generated_graphs_quotients_carried(graph):
    assert_quotients_carried(graph)


def test_necklace_ten():
    # E = 20 is out of the scan's reach.  The admissible selections of a
    # necklace are the unions of 1..k-2 whole beads: one edge of a bead is a
    # bridge, and k-1 beads close the ring into a looping edge.
    k = 10
    g = necklace(k)
    expected = [frozenset(i for b in beads for i in (2 * b, 2 * b + 1))
                for size in range(1, k - 1)
                for beads in itertools.combinations(range(k), size)]
    expected.sort(key=lambda s: (len(s), sorted(s)))
    got = g.admissible_subgraphs()
    assert len(got) == 2 ** k - k - 2 == 1012
    assert [s.edge_indices for s in got] == expected


def test_invalid_graph_rejected():
    g = FeynmanGraph({0: False, 1: False}, [Edge(0, 1), Edge(0, 1), Edge(1, 1)])
    with pytest.raises(ValueError, match="looping"):
        g.admissible_subgraphs()
