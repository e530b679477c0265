"""Subdivergence enumeration from 1PI vertex sets against the 2^E subset
scans it replaced (kept in ``subset_scan``), on a fixed graph set and on
hypothesis-generated multigraphs; and the quotients the Hopf layer is handed
against contractions made again with the admissibility check."""

import hashlib
import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from confeyn import feyngraph
from confeyn.feyngraph import Edge, FeynmanGraph, SubgraphSelection
from confeyn.hopf import HopfAlgebra, generate_graph_family, monomial
from conftest import DENSE, banana, doubled_triangle, necklace, triangle
from subset_scan import scan_admissible_subgraphs, scan_one_pi_vertex_sets
from test_canon import SHAPES
from test_laws import LAWS, one_pi_graphs

SHARED = HopfAlgebra()


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
    for sel, key in pairs:
        # the carried key writes the checked contraction, which is normalized
        checked = graph.contract(sel)
        flags, edges = key
        assert list(checked.external.items()) == list(enumerate(flags))
        assert checked.edges == tuple(Edge(*e) for e in edges)
    if not graph.is_1pi():
        return
    # the Hopf layer counts each carried quotient and contracts nothing
    want = {(monomial(graph), ()): 1, ((), monomial(graph)): 1}
    for sel in selections:
        key = (monomial(*map(graph.component_graph, sel.components)),
               monomial(graph.contract(sel)))
        want[key] = want.get(key, 0) + 1
    with mock.patch.object(FeynmanGraph, "contract", autospec=True,
                           side_effect=FeynmanGraph.contract) as contract:
        got = HopfAlgebra().coproduct_generator(graph)
    assert got.terms == want
    assert contract.call_count == 0


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
    assert all(FeynmanGraph._from_key(key).validate() == []
               for _, key in graph._admissible_pairs())


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


DENSE_DIGESTS = {  # sha256 of the blocks and of the selections, as first enumerated
    5: (676, "f09f0decdf393de58e4c26813363cd96acfb6a86e698c0e86e921a4746c26c9f",
        1925, "491d3a9720626d5bbb9c4591d47f538ad05e364b57b2895ff037b96230887c56"),
    6: (3249, "f87d39df7887615174e11b3f7c0f16755b85727c203ed50355fa20eb36bf75b2",
        38398, "f6438db4c89a5a6fafd4250e6b22b19262776b2955a93e7a0dc9ec7dbb7e02df"),
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(DENSE_DIGESTS), ids=lambda n: f"K{n},{n}")
def test_dense_enumeration_is_pinned(n):
    # K6,6 lies above the CLI's caps; its blocks and their 38,398 families
    # keep their content and order through changes to the enumeration
    g = FeynmanGraph.build(2 * n, [(i, n + j) for i in range(n) for j in range(n)])
    blocks, selections = g.one_pi_blocks(), g.admissible_subgraphs()
    assert (len(blocks), _digest([[sorted(v), sorted(e)] for v, e in blocks]),
            len(selections), _digest([[sorted(c) for c in s.components] for s in selections])
            ) == DENSE_DIGESTS[n]


def test_invalid_graph_rejected():
    g = FeynmanGraph({0: False, 1: False}, [Edge(0, 1), Edge(0, 1), Edge(1, 1)])
    with pytest.raises(ValueError, match="looping"):
        g.admissible_subgraphs()


def _blocks_families(graph: FeynmanGraph):
    """Every nonempty family of vertex-disjoint one_pi_blocks, as (vertex
    sets, selection)."""
    blocks = graph.one_pi_blocks()

    def extend(start, used, family):
        for j in range(start, len(blocks)):
            if not blocks[j][0] & used:
                chosen = family + [blocks[j]]
                yield chosen
                yield from extend(j + 1, used | blocks[j][0], chosen)

    for family in extend(0, frozenset(), []):
        comps = [edges for _, edges in family]
        yield ([verts for verts, _ in family],
               SubgraphSelection(frozenset().union(*comps), tuple(sorted(comps, key=sorted))))


def _conftest_graphs() -> list[FeynmanGraph]:
    return (generate_graph_family(4) + generate_graph_family(4, with_legs=False)
            + [banana(n) for n in (2, 3, 4)] + [triangle(), doubled_triangle()]
            + [necklace(k) for k in range(3, 8)])


def assert_one_pi_quotient_rule(graph: FeynmanGraph):
    # a 1PI graph's quotient by vertex-disjoint 1PI blocks is 1PI unless one
    # block holds every internal vertex, and no quotient of a graph that is
    # not 1PI is 1PI: checked by the bridge search
    whole = frozenset(graph.internal_vertices())
    kept = []
    for groups, sel in _blocks_families(graph):
        quotient = graph.contract(sel)
        assert quotient._is_1pi is None  # so is_1pi runs the bridge search
        searched = quotient.is_1pi()
        assert searched == (graph.is_1pi() and groups != [whole])
        if searched:
            kept.append(sel)
    kept.sort(key=lambda s: (len(s.edge_indices), sorted(s.edge_indices)))
    assert graph.admissible_subgraphs() == kept


@pytest.mark.parametrize("graph", [pytest.param(g, id=f"conftest{i}")
                                   for i, g in enumerate(_conftest_graphs())]
                         + [pytest.param(SHAPES[n], id=n) for n in sorted(SHAPES)])
def test_one_pi_quotient_rule(graph):
    assert_one_pi_quotient_rule(graph)


@LAWS
@given(one_pi_graphs())
def test_one_pi_quotient_rule_on_generated_graphs(graph):
    assert_one_pi_quotient_rule(graph)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(multigraphs())
def test_one_pi_quotient_rule_on_generated_multigraphs(graph):
    assert_one_pi_quotient_rule(graph)


def _stands_for(graph: FeynmanGraph, sel: SubgraphSelection):
    """The parts and the quotient of a selection on the graph's own vertex
    ids, edge order and orientation."""
    parts = []
    rep = {}
    for comp in sel.components:
        ends = {v for i in comp for v in (graph.edges[i].src, graph.edges[i].tgt)}
        parts.append(FeynmanGraph({v: False for v in ends}, [graph.edges[i] for i in comp]))
        rep.update(dict.fromkeys(ends, min(ends)))
    quotient = FeynmanGraph(
        {v: ext for v, ext in graph.external.items() if rep.get(v, v) == v},
        [Edge(rep.get(e.src, e.src), rep.get(e.tgt, e.tgt), e.internal)
         for i, e in enumerate(graph.edges) if i not in sel.edge_indices])
    return parts, quotient


@LAWS
@given(one_pi_graphs())
def test_interned_graphs_keep_their_class(graph):
    # normalized labels merge relabelled copies only: on the algebra shared by
    # every example, each interned part and quotient of the coproduct closure
    # has the canonical key of the graph it stands for
    todo, seen = [graph], {id(graph)}
    while todo:
        g = todo.pop()
        for sel, key in g._admissible_pairs():
            parts, quotient = _stands_for(g, sel)
            for k, original in [*zip(map(g._component_key, sel.components), parts),
                                (key, quotient)]:
                interned = SHARED._intern(k)
                assert interned.canonical_key() == feyngraph._canonical_form(original)[0]
                if id(interned) not in seen:
                    seen.add(id(interned))
                    todo.append(interned)
