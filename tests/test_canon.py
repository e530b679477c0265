"""Canonical forms: the pruned search against the exhaustive oracle in
``canon_oracle`` (keys must be equal, not just consistent), key equality
against networkx isomorphism, and how often a factorization computes a form."""

import itertools
import random
from collections import Counter, defaultdict

import networkx as nx
import pytest
from hypothesis import given, strategies as st
from networkx.algorithms.isomorphism import (categorical_multiedge_match,
                                             categorical_node_match)

from canon_oracle import oracle_canonical_form
from confeyn import feyngraph
from confeyn.birkhoff import Character, birkhoff_factorize, toy_feynman_character
from confeyn.feyngraph import Edge, FeynmanGraph
from confeyn.hopf import HopfAlgebra, generate_graph_family
from confeyn.rotabaxter import LaurentAlgebra
from conftest import DENSE, labelled_graphs, laurent_rule
from test_laws import LAWS


def complete(n: int) -> FeynmanGraph:
    return FeynmanGraph.build(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(n: int) -> FeynmanGraph:
    return FeynmanGraph.build(2 * n, [(i, n + j) for i in range(n) for j in range(n)])


def necklace(k: int, legs: bool) -> FeynmanGraph:
    return FeynmanGraph.build(k, [(i, (i + 1) % k) for i in range(k) for _ in range(2)],
                              legs=[0, 1] if legs else [])


SHAPES = {f"K{n}": complete(n) for n in range(3, 8)}
SHAPES.update({f"K{n},{n}": complete_bipartite(n) for n in range(2, 6)})
SHAPES.update({f"necklace{k}{'-legs' if legs else ''}": necklace(k, legs)
               for k in range(3, 11) for legs in (False, True)})


@st.composite
def multigraphs(draw) -> FeynmanGraph:
    """A multigraph on 1-7 internal vertices with up to 12 internal edges,
    not necessarily connected, and 0-3 legs."""
    nv = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(nv), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=12)) if pairs else []
    legs = draw(st.lists(st.integers(0, nv - 1), max_size=3))
    return FeynmanGraph.build(nv, edges, legs=legs)


@st.composite
def relabellings(draw, graph: FeynmanGraph) -> FeynmanGraph:
    """The graph with its vertex ids permuted, its edges reordered and some
    of them reversed."""
    ids = sorted(graph.external)
    rename = dict(zip(ids, draw(st.permutations(ids))))
    edges = []
    for i in draw(st.permutations(range(len(graph.edges)))):
        e = graph.edges[i]
        a, b = (e.tgt, e.src) if draw(st.booleans()) else (e.src, e.tgt)
        edges.append(Edge(rename[a], rename[b], e.internal))
    return FeynmanGraph({rename[v]: graph.external[v] for v in ids}, edges)


def nx_graph(graph: FeynmanGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    for v, ext in graph.external.items():
        g.add_node(v, external=ext)
    for e in graph.edges:
        g.add_edge(e.src, e.tgt, internal=e.internal)
    return g


def nx_isomorphic(g1: FeynmanGraph, g2: FeynmanGraph) -> bool:
    return nx.is_isomorphic(nx_graph(g1), nx_graph(g2),
                            node_match=categorical_node_match("external", None),
                            edge_match=categorical_multiedge_match("internal", None))


class TestAgainstOracle:
    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_shapes(self, name):
        graph = SHAPES[name]
        assert feyngraph._canonical_form(graph)[0] == oracle_canonical_form(graph)

    @LAWS
    @given(multigraphs())
    def test_random_multigraphs(self, graph):
        assert feyngraph._canonical_form(graph)[0] == oracle_canonical_form(graph)

    @pytest.mark.parametrize("graph", [
        FeynmanGraph({}, []), FeynmanGraph({0: True}, []), FeynmanGraph({3: False}, []),
        FeynmanGraph({0: True, 1: True}, [Edge(0, 1, False)])])
    def test_degenerate_graphs(self, graph):
        assert feyngraph._canonical_form(graph)[0] == oracle_canonical_form(graph)


def fixes_path_and_maps(graph: FeynmanGraph, path: list[int], a: int, b: int) -> bool:
    """Whether an automorphism of ``graph`` fixes each vertex of ``path`` and
    maps ``a`` to ``b``, vertices given by their index in ``graph.external``."""
    def pinned(mark: int) -> nx.MultiGraph:
        ids = list(graph.external)
        pins = {ids[p]: i for i, p in enumerate(path)}
        pins.setdefault(ids[mark], -1)
        g = nx_graph(graph)
        for v in g:
            g.nodes[v]["pin"] = (g.nodes[v]["external"], pins.get(v))
        return g
    return nx.is_isomorphic(pinned(a), pinned(b), node_match=categorical_node_match("pin", None),
                            edge_match=categorical_multiedge_match("internal", None))


def prism(k: int, legs: list[int]) -> FeynmanGraph:
    """Two k-cycles joined by k rungs."""
    return FeynmanGraph.build(2 * k, [(i, (i + 1) % k) for i in range(k)]
                              + [(k + i, k + (i + 1) % k) for i in range(k)]
                              + [(i, k + i) for i in range(k)], legs=legs)


PRUNED = {"K3,3": complete_bipartite(3), "K4": complete(4), "necklace5": necklace(5, False),
          "prism4": prism(4, []), "prism4-legs": prism(4, list(range(8))),
          "petersen": FeynmanGraph.build(10, [(i, (i + 1) % 5) for i in range(5)]
                                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
                                         + [(i, 5 + i) for i in range(5)])}


class TestPruning:
    @pytest.mark.parametrize("name", sorted(PRUNED))
    def test_orbits_come_from_automorphisms_that_fix_the_path(self, name, monkeypatch):
        """Each node prunes by orbits under automorphisms that fix its path:
        every pair of vertices joined in a node's orbit forest is mapped one
        onto the other by such an automorphism (found by networkx), although
        the search records automorphisms that move the path too."""
        graph = PRUNED[name]
        join = feyngraph._join_orbits
        moving = []
        checked: dict = {}

        def checked_join(root, automorphisms, path):
            join(root, automorphisms, path)
            moving.extend(g for g in automorphisms if any(g[p] != p for p in path))
            orbits = defaultdict(list)
            for u in range(len(root)):
                orbits[feyngraph._find(root, u)].append(u)
            for orbit in orbits.values():
                for b in orbit[1:]:
                    key = (tuple(path), orbit[0], b)
                    if key not in checked:
                        checked[key] = fixes_path_and_maps(graph, path, orbit[0], b)
                    assert checked[key], key

        monkeypatch.setattr(feyngraph, "_join_orbits", checked_join)
        assert feyngraph._canonical_form(graph)[0] == oracle_canonical_form(graph)
        assert moving and any(checked.values())


class TestAgainstNetworkx:
    @LAWS
    @given(st.data())
    def test_key_equality_is_isomorphism(self, data):
        g1 = data.draw(multigraphs())
        if data.draw(st.booleans()):  # an isomorphic copy, or a near miss
            g2 = data.draw(relabellings(g1))
            if g2.edges and data.draw(st.booleans()):
                e = g2.edges[0]
                if e.internal:
                    others = [v for v, ext in g2.external.items()
                              if not ext and v not in (e.src, e.tgt)]
                    if others:
                        g2 = FeynmanGraph(g2.external,
                                          [Edge(e.src, data.draw(st.sampled_from(others)))]
                                          + list(g2.edges[1:]))
        else:
            g2 = data.draw(multigraphs())
        assert (g1.canonical_key() == g2.canonical_key()) == nx_isomorphic(g1, g2)


def normalized(graph: FeynmanGraph) -> tuple:
    """The graph with its vertices numbered in sorted order and each edge a
    sorted (min, max, internal) triple, the triples sorted."""
    at = {v: i for i, v in enumerate(sorted(graph.external))}
    return (tuple(graph.external[v] for v in sorted(graph.external)),
            tuple(sorted((*sorted((at[e.src], at[e.tgt])), e.internal) for e in graph.edges)))


def count_forms(monkeypatch, graphs: list[FeynmanGraph]) -> tuple[Counter, list]:
    """Forms computed by one Laurent factorization of ``graphs``, counted per
    normalized labelled graph, and the graphs they were computed for."""
    seen: Counter = Counter()
    objects: list[FeynmanGraph] = []
    form = feyngraph._canonical_form

    def counted(graph):
        seen[normalized(graph)] += 1
        objects.append(graph)
        return form(graph)

    monkeypatch.setattr(feyngraph, "_canonical_form", counted)
    pair = birkhoff_factorize(Character(HopfAlgebra(), LaurentAlgebra(), laurent_rule(7)))
    for g in graphs:
        pair.phi_minus(g)
        pair.phi_plus(g)
    return seen, objects


class TestCallCounts:
    def test_one_form_per_labelled_graph_and_no_rehash(self, monkeypatch):
        """One Laurent factorization computes each normalized labelled
        graph's form at most once, and a graph's hash, once taken, is not
        recomputed from its form."""
        graphs = [necklace(4, legs=True)] + generate_graph_family(3)
        seen, objects = count_forms(monkeypatch, graphs)
        assert seen and max(seen.values()) == 1

        key_calls = []
        key = FeynmanGraph.canonical_key
        monkeypatch.setattr(FeynmanGraph, "canonical_key",
                            lambda graph: key_calls.append(graph) or key(graph))
        for g in objects:
            first = hash(g)
            key_calls.clear()
            assert hash(g) == first and not key_calls

    def test_log_form_factorization_builds_no_representative(self, monkeypatch):
        """One log-form factorization reads each generator's blocks through
        its canonical positions and rebuilds no canonical representative."""
        rebuilt = []
        rebuild = FeynmanGraph.canonical_representative
        monkeypatch.setattr(FeynmanGraph, "canonical_representative",
                            lambda graph: rebuilt.append(graph) or rebuild(graph))
        pair = birkhoff_factorize(toy_feynman_character(HopfAlgebra(), 8, 1, rule_seed=1))
        for g in [necklace(4, legs=True)] + generate_graph_family(3):
            pair.phi_minus(g)
            pair.phi_plus(g)
        assert pair.phi._memo and not rebuilt

    def test_blocks_enumerated_once_per_graph(self, monkeypatch):
        """One log-form factorization enumerates each graph object's 1PI
        blocks at most once across the coproduct and eta, and every
        enumeration of connected vertex sets is some graph's block cache
        being filled."""
        grown = []
        connected_sets = feyngraph._connected_sets
        monkeypatch.setattr(feyngraph, "_connected_sets",
                            lambda near: grown.append(near) or connected_sets(near))
        per_graph: Counter = Counter()
        objects = []  # kept alive, so that no id is reused
        block_masks = FeynmanGraph._block_masks

        def counted(graph):
            before = len(grown)
            out = block_masks(graph)
            if len(grown) > before:
                per_graph[id(graph)] += len(grown) - before
                objects.append(graph)
            return out

        monkeypatch.setattr(FeynmanGraph, "_block_masks", counted)
        hopf = HopfAlgebra()
        pair = birkhoff_factorize(toy_feynman_character(hopf, 8, 1, rule_seed=1))
        for g in [necklace(4, legs=True)] + generate_graph_family(3):
            pair.phi_minus(g)
            pair.phi_plus(g)
        assert per_graph and max(per_graph.values()) == 1
        assert len(grown) == sum(per_graph.values())
        # the coproduct read the cached blocks of each generator it expanded
        assert {id(mono[0]) for mono in hopf._coproduct_gen if len(mono) == 1} <= set(per_graph)

    def test_relabelled_copies_share_one_form(self, monkeypatch):
        """Parts and quotients that differ only in vertex ids, edge order or
        orientation share one form: the forms of one Laurent factorization of
        relabelled necklaces and dense graphs number at most the inputs plus
        the distinct normalized graphs."""
        rng = random.Random(0)
        shapes = [(k, [(i, (i + 1) % k) for i in range(k) for _ in range(2)])
                  for k in range(3, 7)] + list(DENSE.values())
        graphs = []
        for nv, edges in shapes:
            perm = rng.sample(range(nv), nv)
            relabelled = [(perm[a], perm[b]) for a, b in edges]
            rng.shuffle(relabelled)
            graphs.append(FeynmanGraph.build(nv, relabelled, legs=[perm[v] for v in edges[0]]))
        seen, _ = count_forms(monkeypatch, graphs)
        assert sum(seen.values()) <= len(graphs) + len(seen), (sum(seen.values()), len(seen))


class TestPositions:
    @pytest.mark.parametrize("graph", [pytest.param(g, id=n) for n, g in labelled_graphs()])
    def test_positions_map_onto_the_canonical_representative(self, graph):
        """The positions stored with the canonical form number the vertices
        0..n-1 and carry the graph's flags and edges exactly onto those of
        canonical_representative()."""
        canon = graph.canonical_representative()
        position = dict(zip(graph.external, graph._positions))
        assert sorted(position.values()) == list(range(len(graph.external)))
        assert all(canon.external[position[v]] == flag for v, flag in graph.external.items())
        mapped = sorted((*sorted((position[e.src], position[e.tgt])), e.internal)
                        for e in graph.edges)
        assert mapped == [(e.src, e.tgt, e.internal) for e in canon.edges]
