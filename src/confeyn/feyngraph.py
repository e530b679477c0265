"""Feynman graph combinatorics: validation, 1PI tests, subgraph enumeration
from 1PI vertex sets (never from edge subsets), contraction, canonical forms.

Graphs are finite multigraphs without looping edges.  External vertices have
valence 1; an edge is external exactly when it touches an external vertex.
The grading used by the Hopf algebra is the number of internal edges.

Parts and quotients come in one normalized labelling: the vertices numbered
0..k-1 in the order of their old ids, each edge a sorted (min, max, internal)
triple, the triples sorted.  Its (flags, edges) key has the shape of a
canonical form, so labelled copies that differ only in vertex ids, edge order
or orientation share a key, and a key is known before any graph is built.

Two graphs compare equal when they are isomorphic (as multigraphs with the
external/internal vertex flags).  The canonical form is the least leaf of an
individualization-refinement search over vertex indices, pruned by the
automorphisms it knows (McKay & Piperno, arXiv:1301.1493): K5,5 takes 91
search nodes where the unpruned search visits its 28,800 automorphic leaves.
The key equals that unpruned search's, so labels derived from it are stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True, slots=True)
class Edge:
    src: int
    tgt: int
    internal: bool = True


class FeynmanGraph:
    """Multigraph with flagged external vertices and no looping edges.

    A graph caches its canonical form, its hash and its 1PI flag on first
    use, so it must not be mutated after construction."""

    __slots__ = ("external", "edges", "_canon", "_hash", "_is_1pi")

    def __init__(self, vertices: dict[int, bool] | Iterable[tuple[int, bool]],
                 edges: Sequence[Edge | tuple]):
        if not isinstance(vertices, dict):
            vertices = dict(vertices)
        self.external: dict[int, bool] = {int(v): bool(flag) for v, flag in vertices.items()}
        self.edges: tuple[Edge, ...] = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges)
        self._canon: tuple | None = None
        self._hash: int | None = None
        self._is_1pi: bool | None = None

    # -- construction / serialization ---------------------------------------

    @classmethod
    def build(cls, n_internal: int, internal_edges: Sequence[tuple[int, int]],
              legs: Sequence[int] = ()) -> "FeynmanGraph":
        """Convenience builder: internal vertices 0..n-1, one external leg
        vertex appended per entry of ``legs`` (the internal vertex it hangs on)."""
        vertices = {i: False for i in range(n_internal)}
        edges = [Edge(a, b, True) for a, b in internal_edges]
        nxt = n_internal
        for anchor in legs:
            vertices[nxt] = True
            edges.append(Edge(anchor, nxt, False))
            nxt += 1
        return cls(vertices, edges)

    @classmethod
    def _from_key(cls, key: tuple, is_1pi: bool | None = None) -> "FeynmanGraph":
        """The graph on vertices 0..k-1 that a (flags, edge triples) key
        writes, as canonical forms and normalized labellings do; ``is_1pi``
        presets the flag where the caller knows it."""
        flags, edges = key
        graph = cls(dict(enumerate(flags)), [Edge(*e) for e in edges])
        graph._is_1pi = is_1pi
        return graph

    @classmethod
    def from_json(cls, data: dict) -> "FeynmanGraph":
        vertices = {int(v["id"]): bool(v["external"]) for v in data["vertices"]}
        edges = [Edge(int(e["src"]), int(e["tgt"]), bool(e["internal"]))
                 for e in data["edges"]]
        return cls(vertices, edges)

    def to_json(self) -> dict:
        return {
            "vertices": [{"id": v, "external": self.external[v]}
                         for v in sorted(self.external)],
            "edges": [{"src": e.src, "tgt": e.tgt, "internal": e.internal}
                      for e in self.edges],
        }

    # -- basic views ---------------------------------------------------------

    def vertices(self) -> list[int]:
        return sorted(self.external)

    def internal_vertices(self) -> list[int]:
        return sorted(v for v, ext in self.external.items() if not ext)

    def internal_edge_indices(self) -> list[int]:
        return [i for i, e in enumerate(self.edges) if e.internal]

    def valence(self, v: int) -> int:
        return sum(1 for e in self.edges if v in (e.src, e.tgt))

    def degree(self) -> int:
        """Hopf grading: number of internal edges."""
        return len(self.internal_edge_indices())

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Structured invariant violations; empty list means valid."""
        problems = []
        for i, e in enumerate(self.edges):
            if e.src not in self.external or e.tgt not in self.external:
                problems.append(f"edge {i} references a missing vertex")
                continue
            if e.src == e.tgt:
                problems.append(f"edge {i} is a looping edge")
            touches_external = self.external[e.src] or self.external[e.tgt]
            if e.internal and touches_external:
                problems.append(f"edge {i} flagged internal but touches an external vertex")
            if not e.internal and not touches_external:
                problems.append(f"edge {i} flagged external but joins internal vertices")
        for v, ext in self.external.items():
            if ext and self.valence(v) != 1:
                problems.append(f"external vertex {v} has valence {self.valence(v)} != 1")
        return problems

    def require_valid(self) -> "FeynmanGraph":
        problems = self.validate()
        if problems:
            raise ValueError("invalid graph: " + "; ".join(problems))
        return self

    # -- connectivity / 1PI ---------------------------------------------------

    def _internal_adjacency(self) -> dict[int, list[tuple[int, int]]]:
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in self.internal_vertices()}
        for i in self.internal_edge_indices():
            e = self.edges[i]
            adj[e.src].append((e.tgt, i))
            adj[e.tgt].append((e.src, i))
        return adj

    def is_1pi(self) -> bool:
        """True iff the internal structure is connected, has at least one
        internal edge, and no internal edge is a bridge."""
        if self._is_1pi is None:
            self._is_1pi = (bool(self.internal_edge_indices())
                            and self._connected_bridgeless(self._internal_adjacency()))
        return self._is_1pi

    @staticmethod
    def _connected_bridgeless(adj: dict[int, list[tuple[int, int]]]) -> bool:
        """True iff the multigraph is nonempty, connected and has no bridge
        (parallel edges never bridge): one depth-first search with low links."""
        if not adj:
            return False
        root = next(iter(adj))
        index = {root: 0}
        low = {root: 0}
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, in_edge, it = stack[-1]
            for w, ei in it:
                if ei == in_edge:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append((w, ei, iter(adj[w])))
                    break
                low[v] = min(low[v], index[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] > index[parent]:
                        return False
                    low[parent] = min(low[parent], low[v])
        return len(index) == len(adj)

    # -- subgraphs and contraction --------------------------------------------

    def component_graph(self, component: frozenset[int]) -> "FeynmanGraph":
        """The subgraph spanned by an internal-edge component, as a standalone
        graph in the normalized labelling (all vertices internal)."""
        return FeynmanGraph._from_key(self._component_key(component))

    def _component_key(self, component: frozenset[int]) -> tuple:
        verts = sorted({v for i in component for v in (self.edges[i].src, self.edges[i].tgt)})
        return _normalized((False,) * len(verts), {v: j for j, v in enumerate(verts)},
                           ((self.edges[i].src, self.edges[i].tgt, True) for i in component))

    def one_pi_blocks(self) -> list[tuple[frozenset[int], frozenset[int]]]:
        """(V, edges of G[V]) for each internal vertex set V, |V| >= 2, whose
        induced subgraph G[V] is connected and bridgeless, by sorted(V).  As
        edges added to a bridgeless graph make no bridge, these V are the
        vertex sets of the connected 1PI internal edge subsets."""
        adj = self._internal_adjacency()
        seen: set[frozenset[int]] = set()
        frontier = {frozenset((v,)) for v in adj}
        while frontier:  # grow connected sets one neighbour at a time
            frontier = {verts | {w} for verts in frontier for v in verts
                        for w, _ in adj[v] if w not in verts} - seen
            seen |= frontier
        blocks = []
        for verts in sorted(seen, key=sorted):
            induced = {v: [(w, i) for w, i in adj[v] if w in verts] for v in verts}
            if self._connected_bridgeless(induced):
                blocks.append((verts, frozenset(i for v in verts for _, i in induced[v])))
        return blocks

    def admissible_subgraphs(self) -> list["SubgraphSelection"]:
        """All proper nonempty disjoint unions of 1PI internal subgraphs whose
        contraction is again a valid 1PI graph, ordered by size,
        then by sorted edge indices.  An unselected edge inside a component
        would contract to a looping edge, so the candidates are the families
        of vertex-disjoint :meth:`one_pi_blocks`.  Raises ValueError on an
        invalid graph."""
        return [selection for selection, _ in self._admissible_pairs()]

    def _admissible_pairs(self) -> list[tuple["SubgraphSelection", tuple]]:
        """Each admissible selection with the normalized key of its quotient.
        Contracting connected vertex sets keeps a 1PI graph connected and
        bridgeless, so its quotients are 1PI except by the block of every
        internal vertex, which leaves no internal edge.  It also keeps each
        bridge of a graph that is not 1PI (no block holds one) and each
        split of its internal part, so such a graph has no admissible pair."""
        self.require_valid()
        if not self.is_1pi():
            return []
        blocks = self.one_pi_blocks()
        whole = frozenset(self.internal_vertices())
        out = []

        def extend(start: int, used: frozenset[int], groups: list[frozenset[int]],
                   family: list[frozenset[int]]):
            for j in range(start, len(blocks)):
                verts, edges = blocks[j]
                if verts & used:
                    continue
                chosen = family + [edges]
                merged = groups + [verts]
                selection = SubgraphSelection(frozenset().union(*chosen),
                                              tuple(sorted(chosen, key=sorted)))
                if verts != whole:
                    # vertex-disjoint induced 1PI blocks leave a valid quotient
                    out.append((selection, self._quotient_key(merged, selection.edge_indices)))
                extend(j + 1, used | verts, merged, chosen)

        extend(0, frozenset(), [], [])
        return sorted(out, key=lambda p: (len(p[0].edge_indices), sorted(p[0].edge_indices)))

    def _quotient_key(self, groups: Sequence[frozenset[int]], dropped: frozenset[int]) -> tuple:
        """The normalized key of the graph with the edges ``dropped`` removed
        and each vertex set of ``groups`` merged into its least vertex."""
        rep: dict[int, int] = {}
        for verts in groups:
            rep.update(dict.fromkeys(verts, min(verts)))
        kept = sorted(v for v in self.external if rep.get(v, v) == v)
        at = {v: j for j, v in enumerate(kept)}
        for v, target in rep.items():
            at[v] = at[target]
        return _normalized(tuple(self.external[v] for v in kept), at,
                           ((e.src, e.tgt, e.internal) for i, e in enumerate(self.edges)
                            if i not in dropped))

    def contract(self, selection: "SubgraphSelection") -> "FeynmanGraph":
        """Collapse each component of the selection to a single internal
        vertex, in the normalized labelling.  Raises ValueError unless the
        components are vertex-disjoint 1PI subgraphs whose edges are the
        selection's and the quotient is valid."""
        if frozenset().union(*selection.components) != selection.edge_indices:
            raise ValueError("selection components do not cover its edges")
        groups: list[frozenset[int]] = []
        for comp in selection.components:
            verts = frozenset(v for i in comp for v in (self.edges[i].src, self.edges[i].tgt))
            if any(verts & g for g in groups) or not self.component_graph(comp).is_1pi():
                raise ValueError("selection components are not vertex-disjoint 1PI subgraphs")
            groups.append(verts)
        return FeynmanGraph._from_key(
            self._quotient_key(groups, selection.edge_indices)).require_valid()

    # -- canonical form --------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Isomorphism-invariant canonical form (orientation is ignored)."""
        if self._canon is None:
            self._canon = _canonical_form(self)
        return self._canon

    def canonical_representative(self) -> "FeynmanGraph":
        """The graph rebuilt from its canonical form: one for every labelling."""
        return FeynmanGraph._from_key(self.canonical_key())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeynmanGraph):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.canonical_key())
        return self._hash

    def __repr__(self) -> str:
        nv = len(self.external)
        return f"FeynmanGraph({nv} vertices, {len(self.edges)} edges, deg {self.degree()})"

    def label(self) -> str:
        """Short deterministic label derived from the canonical form."""
        import hashlib
        blob = json.dumps(self.canonical_key()).encode()
        return "g" + hashlib.sha256(blob).hexdigest()[:8]


@dataclass(frozen=True)
class SubgraphSelection:
    """An internal-edge subset together with its connected components."""
    edge_indices: frozenset[int]
    components: tuple[frozenset[int], ...]


def _normalized(flags: tuple[bool, ...], at: dict[int, int],
                ends: Iterable[tuple[int, int, bool]]) -> tuple:
    """The (flags, edges) key of the edges ``ends`` with their vertices
    renumbered by ``at``, each edge a sorted (min, max, internal) triple."""
    edges = []
    for src, tgt, internal in ends:
        a, b = at[src], at[tgt]
        if a == b:
            raise ValueError("contraction would create a looping edge")
        edges.append((a, b, internal) if a < b else (b, a, internal))
    edges.sort()
    return flags, tuple(edges)


def _refine(colors: list[int], cells: int, adj: list[list[tuple[int, bool]]]
            ) -> tuple[list[int], int]:
    """Color refinement of a coloring of the vertices 0..n-1 by ``cells``
    colors.  A pass recolors each vertex by the rank of its color followed by
    the sorted codes 2 * color + internal of its edges' far ends (a vertex
    alone in its cell needs only its color).  The ranks depend only on the
    order of the input colors, and each pass refines the last, so the first
    pass that keeps the number of cells finds the stable coloring, numbered
    0..k-1.  Its ranks are its input colors, which lead each signature, so it
    returns those."""
    while True:
        sizes = [0] * cells
        for c in colors:
            sizes[c] += 1
        signature = [(c, *sorted([2 * colors[w] + f for w, f in ends])) if sizes[c] > 1
                     else (c,) for c, ends in zip(colors, adj)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signature)))}
        if len(palette) == cells:
            return colors, cells
        colors = [palette[sig] for sig in signature]
        cells = len(palette)


def _find(root: list[int], u: int) -> int:
    while root[u] != u:
        root[u] = u = root[root[u]]
    return u


def _join_orbits(root: list[int], automorphisms: list[list[int]], path: list[int]) -> None:
    """Join into the union-find forest ``root`` the orbits of those
    ``automorphisms`` that fix every vertex of ``path``."""
    for g in automorphisms:
        if all(g[p] == p for p in path):
            for u, w in enumerate(g):
                root[_find(root, u)] = _find(root, w)


def _canonical_form(graph: FeynmanGraph) -> tuple:
    """The least leaf encoding of the search tree that refines the coloring
    by the external flag and individualizes, in turn, each vertex of the
    first non-singleton cell.  The map between two leaves that encode alike
    is an automorphism.  A node skips a child whose vertex shares an orbit
    with an explored sibling, under the recorded automorphisms that fix the
    node's path: such an automorphism maps the child's subtree onto the
    sibling's, so the least leaf is the exhaustive search's."""
    n = len(graph.external)
    if not n:
        return ((), ())
    index = {v: i for i, v in enumerate(graph.external)}
    flags = list(graph.external.values())
    adj: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
    edges = []
    for e in graph.edges:
        a, b = index[e.src], index[e.tgt]
        adj[a].append((b, e.internal))
        adj[b].append((a, e.internal))
        edges.append((a, b, e.internal))
    best: tuple | None = None
    best_order: list[int] = []
    automorphisms: list[list[int]] = []

    def search(colors: list[int], cells: int, path: list[int]) -> None:
        nonlocal best, best_order
        colors, cells = _refine(colors, cells, adj)
        if cells == n:  # a leaf: color = position
            verts = [False] * n
            for v, pos in enumerate(colors):
                verts[pos] = flags[v]
            enc = (tuple(verts), tuple(sorted([
                (colors[a], colors[b], f) if colors[a] < colors[b] else (colors[b], colors[a], f)
                for a, b, f in edges])))
            if best is None or enc < best:
                best, best_order = enc, colors
            elif enc == best:
                at = [0] * n
                for v, pos in enumerate(colors):
                    at[pos] = v
                automorphisms.append([at[pos] for pos in best_order])
            return
        sizes = [0] * cells
        for c in colors:
            sizes[c] += 1
        target = next(c for c, size in enumerate(sizes) if size > 1)
        root = list(range(n))
        joined = 0
        explored: list[int] = []
        for v in [v for v, c in enumerate(colors) if c == target]:
            if explored:
                _join_orbits(root, automorphisms[joined:], path)
                joined = len(automorphisms)
                if _find(root, v) in {_find(root, u) for u in explored}:
                    continue
            child = [c + 1 for c in colors]  # individualize v ahead of all
            child[v] = 0
            search(child, cells + 1, path + [v])
            explored.append(v)

    cells = len(set(flags))
    search([int(flag) for flag in flags] if cells == 2 else [0] * n, cells, [])
    assert best is not None
    return best
