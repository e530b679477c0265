"""The original 2^E edge-subset scans, kept as oracles for the enumeration
built on ``FeynmanGraph.one_pi_blocks``.

Both functions examine every internal edge subset, so they only run on graphs
with at most about 14 internal edges.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from confeyn.feyngraph import FeynmanGraph, SubgraphSelection


def edge_components(graph: FeynmanGraph, edge_indices: Iterable[int]) -> list[frozenset[int]]:
    """Connected components (sharing a vertex) of an internal edge subset."""
    edge_indices = list(edge_indices)
    parent = {i: i for i in edge_indices}

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    by_vertex: dict[int, int] = {}
    for i in edge_indices:
        e = graph.edges[i]
        for v in (e.src, e.tgt):
            if v in by_vertex:
                parent[find(i)] = find(by_vertex[v])
            else:
                by_vertex[v] = i
    groups: dict[int, set[int]] = {}
    for i in edge_indices:
        groups.setdefault(find(i), set()).add(i)
    return [frozenset(g) for g in groups.values()]


def scan_admissible_subgraphs(graph: FeynmanGraph) -> list[SubgraphSelection]:
    """All proper nonempty disjoint unions of 1PI internal subgraphs whose
    contraction is again a valid 1PI graph."""
    internal = graph.internal_edge_indices()
    out = []
    for size in range(1, len(internal)):
        for subset in combinations(internal, size):
            sel = frozenset(subset)
            components = edge_components(graph, sel)
            if not all(graph.component_graph(c).is_1pi() for c in components):
                continue
            selection = SubgraphSelection(sel, tuple(sorted(components, key=sorted)))
            try:  # a looping edge or an invalid quotient
                quotient = graph.contract(selection)
            except ValueError:
                continue
            if not quotient.is_1pi():
                continue
            out.append(selection)
    return out


def scan_one_pi_vertex_sets(graph: FeynmanGraph) -> list[frozenset[int]]:
    """Vertex sets of the connected 1PI internal edge subsets (the graph
    itself included)."""
    internal = graph.internal_edge_indices()
    seen: set[frozenset[int]] = set()
    for size in range(2, len(internal) + 1):
        for subset in combinations(internal, size):
            comps = edge_components(graph, frozenset(subset))
            if len(comps) != 1:
                continue
            comp = comps[0]
            if graph.component_graph(comp).is_1pi():
                verts = frozenset(v for i in comp
                                  for v in (graph.edges[i].src, graph.edges[i].tgt))
                seen.add(verts)
    return sorted(seen, key=sorted)
