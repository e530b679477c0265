"""Graph validation, 1PI detection, subgraph enumeration, contraction,
canonical forms; the enumeration oracle is an independent networkx route."""

import itertools
import random

import networkx as nx
import pytest

from confeyn.feyngraph import Edge, FeynmanGraph, SubgraphSelection
from conftest import banana, doubled_triangle, triangle


class TestValidation:
    def test_simple_ok(self):
        assert FeynmanGraph.build(2, [(0, 1)]).validate() == []

    def test_looping_edge(self):
        g = FeynmanGraph({0: False, 1: False}, [Edge(0, 0, True)])
        assert any("looping" in p for p in g.validate())

    def test_external_valence(self):
        g = FeynmanGraph({0: False, 1: True, 2: False},
                         [Edge(0, 1, False), Edge(2, 1, False)])
        assert any("valence" in p for p in g.validate())

    def test_flag_consistency(self):
        g = FeynmanGraph({0: False, 1: True}, [Edge(0, 1, True)])
        assert any("external vertex" in p or "internal" in p for p in g.validate())

    def test_missing_vertex(self):
        g = FeynmanGraph({0: False}, [Edge(0, 5, True)])
        assert any("missing" in p for p in g.validate())


class TestOnePI:
    def test_banana_is_1pi(self):
        assert banana(2).is_1pi()

    def test_single_edge_is_bridge(self):
        assert not FeynmanGraph.build(2, [(0, 1)]).is_1pi()

    def test_triangle_is_1pi(self):
        assert triangle().is_1pi()

    def test_disconnected_is_not(self):
        g = FeynmanGraph.build(4, [(0, 1), (0, 1), (2, 3), (2, 3)])
        assert not g.is_1pi()

    def test_dumbbell_has_bridge(self):
        g = FeynmanGraph.build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3)])
        assert not g.is_1pi()

    def test_external_legs_ignored(self):
        g = FeynmanGraph.build(2, [(0, 1), (0, 1)], legs=[0, 1])
        assert g.is_1pi()

    def test_matches_networkx_bridges(self):
        # multigraph bridges = bridges of the collapsed simple graph whose
        # parallel class has multiplicity one
        rng = random.Random(5)
        for _ in range(80):
            nv = rng.randint(2, 5)
            edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(1, 7))]
            edges = [(a, b) for a, b in edges if a != b]
            if not edges:
                continue
            g = FeynmanGraph.build(nv, edges)
            mg = nx.MultiGraph()
            mg.add_nodes_from(range(nv))
            mg.add_edges_from(edges)
            counts: dict[frozenset, int] = {}
            for a, b in edges:
                counts[frozenset((a, b))] = counts.get(frozenset((a, b)), 0) + 1
            simple = nx.Graph()
            simple.add_nodes_from(range(nv))
            simple.add_edges_from(tuple(k) for k in counts)
            real_bridges = [e for e in nx.bridges(simple)
                            if counts[frozenset(e)] == 1]
            expected = nx.is_connected(mg) and not real_bridges
            assert g.is_1pi() == expected


def brute_force_admissible(graph: FeynmanGraph):
    """Independent enumeration: networkx for components/bridges/validity."""
    internal = graph.internal_edge_indices()
    found = []
    for size in range(1, len(internal)):
        for subset in itertools.combinations(internal, size):
            mg = nx.MultiGraph()
            for i in subset:
                e = graph.edges[i]
                mg.add_edge(e.src, e.tgt, key=i)
            comps_ok = True
            for comp in nx.connected_components(mg):
                sub = mg.subgraph(comp)
                simple_counts = {}
                for a, b, _ in sub.edges(keys=True):
                    key = frozenset((a, b))
                    simple_counts[key] = simple_counts.get(key, 0) + 1
                simple = nx.Graph((tuple(k) for k, c in simple_counts.items() if c == 1))
                simple.add_nodes_from(comp)
                if sub.number_of_edges() < 2 or list(nx.bridges(simple)):
                    comps_ok = False
                    break
            if not comps_ok:
                continue
            # contract and check the quotient with the library itself excluded:
            # rebuild by hand with networkx-derived component map
            comp_map = {}
            for idx, comp in enumerate(nx.connected_components(mg)):
                for v in comp:
                    comp_map[v] = f"c{idx}"
            vertices = {}
            edges = []
            ok = True
            names = {}

            def node(v):
                tag = comp_map.get(v, v)
                if tag not in names:
                    names[tag] = len(names)
                return names[tag]

            for i, e in enumerate(graph.edges):
                if i in subset:
                    continue
                s, t = node(e.src), node(e.tgt)
                if s == t:
                    ok = False
                    break
                edges.append(Edge(s, t, e.internal))
            if not ok:
                continue
            for v, ext in graph.external.items():
                vertices[node(v)] = ext
            quotient = FeynmanGraph(vertices, edges)
            if quotient.validate() or not quotient.is_1pi():
                continue
            found.append(frozenset(subset))
    return sorted(found, key=sorted)


class TestAdmissibleSubgraphs:
    def test_banana_has_none(self):
        assert banana(2).admissible_subgraphs() == []

    def test_triple_banana_loop_exclusion(self):
        assert banana(3).admissible_subgraphs() == []

    def test_doubled_triangle(self):
        subs = doubled_triangle().admissible_subgraphs()
        assert [sorted(s.edge_indices) for s in subs] == [[0, 1]]

    def test_matches_brute_force(self):
        graphs = [banana(2), banana(3), banana(4), triangle(), doubled_triangle(),
                  FeynmanGraph.build(3, [(0, 1), (0, 1), (1, 2), (1, 2)]),
                  FeynmanGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                  FeynmanGraph.build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (1, 3)]),
                  FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)], legs=[0, 1])]
        for g in graphs:
            mine = sorted((sorted(s.edge_indices) for s in g.admissible_subgraphs()))
            brute = [sorted(s) for s in brute_force_admissible(g)]
            assert mine == brute


class TestContraction:
    def test_banana_in_doubled_triangle(self):
        g = doubled_triangle()
        sel = g.admissible_subgraphs()[0]
        q = g.contract(sel)
        assert q.validate() == [] and q.is_1pi()
        assert q == banana(2)

    def test_edge_count_conserved(self):
        g = doubled_triangle()
        for sel in g.admissible_subgraphs():
            q = g.contract(sel)
            assert len(q.edges) == len(g.edges) - len(sel.edge_indices)

    def test_degree_additivity(self):
        for g in [doubled_triangle(),
                  FeynmanGraph.build(3, [(0, 1), (0, 1), (1, 2), (1, 2)])]:
            for sel in g.admissible_subgraphs():
                parts_deg = len(sel.edge_indices)
                assert parts_deg + g.contract(sel).degree() == g.degree()

    def test_inadmissible_rejected(self):
        g = triangle()
        sel = SubgraphSelection(frozenset({0}), (frozenset({0}),))
        with pytest.raises(ValueError):
            g.contract(sel)

    def test_listed_components_are_checked(self):
        # two bananas in a chain with legs; the whole edge set listed as two
        # components once collapsed to a disconnected 2-vertex quotient
        g = FeynmanGraph.build(3, [(0, 1), (0, 1), (1, 2), (1, 2)], legs=[0, 2])
        whole = frozenset(range(4))
        with pytest.raises(ValueError, match="vertex-disjoint 1PI"):
            g.contract(SubgraphSelection(whole, (frozenset({0, 1}), frozenset({2, 3}))))
        with pytest.raises(ValueError, match="do not cover"):
            g.contract(SubgraphSelection(whole, (frozenset({0, 1}),)))
        q = g.contract(SubgraphSelection(whole, (whole,)))
        assert q.internal_vertices() == [0] and q.validate() == []

    def test_external_structure_preserved(self):
        g = FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)], legs=[2])
        sel = [s for s in g.admissible_subgraphs()
               if sorted(s.edge_indices) == [0, 1]][0]
        q = g.contract(sel)
        assert sum(1 for e in q.edges if not e.internal) == 1
        assert q.validate() == []


class TestCanonicalForm:
    def permuted(self, g, rng):
        vs = g.vertices()
        perm = dict(zip(vs, rng.sample(vs, len(vs))))
        return FeynmanGraph({perm[v]: g.external[v] for v in g.external},
                            [Edge(perm[e.src], perm[e.tgt], e.internal)
                             for e in g.edges])

    def test_stable_under_permutation(self):
        rng = random.Random(17)
        graphs = [banana(2), banana(3), triangle(), doubled_triangle(),
                  FeynmanGraph.build(3, [(0, 1), (1, 2), (0, 2)], legs=[0, 1]),
                  FeynmanGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], legs=[0])]
        for g in graphs:
            for _ in range(25):
                assert self.permuted(g, rng).canonical_key() == g.canonical_key()

    def test_agrees_with_brute_force_isomorphism(self):
        # equality of canonical keys must match existence of a flag- and
        # multiplicity-preserving bijection, for <= 6 vertices
        rng = random.Random(23)
        pool = []
        for _ in range(16):
            nv = rng.randint(2, 4)
            edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(1, 5))]
            edges = [(a, b) for a, b in edges if a != b]
            if not edges:
                continue
            pool.append(FeynmanGraph.build(nv, edges))

        def brute_iso(g1, g2):
            v1, v2 = g1.vertices(), g2.vertices()
            if len(v1) != len(v2) or len(g1.edges) != len(g2.edges):
                return False
            def multiset(g, order):
                return sorted(
                    (min(order[e.src], order[e.tgt]), max(order[e.src], order[e.tgt]),
                     e.internal) for e in g.edges)
            id2 = {v: i for i, v in enumerate(v2)}
            base = multiset(g2, id2)
            flags2 = [g2.external[v] for v in v2]
            for perm in itertools.permutations(range(len(v1))):
                order = {v: perm[i] for i, v in enumerate(v1)}
                if [g1.external[v] for v in sorted(v1, key=lambda v: order[v])] != flags2:
                    continue
                if multiset(g1, order) == base:
                    return True
            return False

        for g1, g2 in itertools.combinations(pool, 2):
            assert (g1.canonical_key() == g2.canonical_key()) == brute_iso(g1, g2)


class TestJson:
    def test_round_trip(self):
        g = FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)], legs=[0, 2])
        doc = g.to_json()
        back = FeynmanGraph.from_json(doc)
        assert back.to_json() == doc
        assert back == g

    def test_schema_fields(self):
        doc = banana(2).to_json()
        assert set(doc) == {"vertices", "edges"}
        assert all(set(v) == {"id", "external"} for v in doc["vertices"])
        assert all(set(e) == {"src", "tgt", "internal"} for e in doc["edges"])
