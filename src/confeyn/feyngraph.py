"""Feynman graph combinatorics: validation, 1PI tests, subgraph enumeration
from 1PI vertex sets (never from edge subsets), contraction, canonical forms.

A graph enumerates its 1PI blocks once and caches them as int bitmasks,
which the admissible families, the Hopf layer and the toy character share.

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
The search also gives each vertex its position in the form, which a graph
keeps with the key: its blocks map through them into the canonical numbering
with no graph built.
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

    A graph caches its canonical form (with each vertex's position in it),
    its hash, its 1PI flag and its 1PI blocks on first use, so it must not
    be mutated after construction."""

    __slots__ = ("external", "edges", "_canon", "_positions", "_hash", "_is_1pi", "_blocks")

    def __init__(self, vertices: dict[int, bool] | Iterable[tuple[int, bool]],
                 edges: Sequence[Edge | tuple]):
        if not isinstance(vertices, dict):
            vertices = dict(vertices)
        self.external: dict[int, bool] = {int(v): bool(flag) for v, flag in vertices.items()}
        self.edges: tuple[Edge, ...] = tuple(
            e if isinstance(e, Edge) else Edge(*e) for e in edges)
        self._canon: tuple | None = None
        self._positions: tuple[int, ...] = ()
        self._hash: int | None = None
        self._is_1pi: bool | None = None
        self._blocks: tuple[tuple[int, int], ...] | None = None

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
        """The graph that ``to_json`` writes.  Raises ValueError on an id
        that is not an int (a bool included), a flag that is not a bool, or
        a repeated vertex id: nothing is cast."""
        vertices: dict[int, bool] = {}
        for v in data["vertices"]:
            vid = _json_value(v["id"], int, "vertex id")
            if vid in vertices:
                raise ValueError(f"repeated vertex id {vid}")
            vertices[vid] = _json_value(v["external"], bool, f"vertex {vid} external flag")
        edges = [Edge(_json_value(e["src"], int, f"edge {i} src"),
                      _json_value(e["tgt"], int, f"edge {i} tgt"),
                      _json_value(e["internal"], bool, f"edge {i} internal flag"))
                 for i, e in enumerate(data["edges"])]
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

    def _internal_adjacency(self) -> list[list[tuple[int, int]]]:
        """For the j-th sorted internal vertex, its (neighbour's index in
        that order, edge index) pairs over the internal edges."""
        at = {v: j for j, v in enumerate(self.internal_vertices())}
        adj: list[list[tuple[int, int]]] = [[] for _ in at]
        for i in self.internal_edge_indices():
            a, b = at[self.edges[i].src], at[self.edges[i].tgt]
            adj[a].append((b, i))
            adj[b].append((a, i))
        return adj

    def is_1pi(self) -> bool:
        """True iff the internal structure is connected, has at least one
        internal edge, and no internal edge is a bridge."""
        if self._is_1pi is None:
            adj = self._internal_adjacency()
            self._is_1pi = bool(_bridgeless_edges(adj, (1 << len(adj)) - 1))
        return self._is_1pi

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
        internal = self.internal_vertices()
        return [(frozenset(internal[j] for j in _bit_indices(verts)), frozenset(_bit_indices(edges)))
                for verts, edges in self._block_masks()]

    def _block_masks(self) -> tuple[tuple[int, int], ...]:
        """The blocks of :meth:`one_pi_blocks` as (vertex mask, edge mask)
        pairs of ints, in its order, enumerated once and cached: bit j of a
        vertex mask is the j-th sorted internal vertex, bit i of an edge mask
        is edge i.  Each connected vertex set is grown once and tested for
        bridges by one depth-first search."""
        if self._blocks is None:
            adj = self._internal_adjacency()
            near = [sum({1 << w for w, _ in ends}) for ends in adj]  # neighbour masks
            blocks = []
            for verts in _connected_sets(near):
                edges = _bridgeless_edges(adj, verts) if verts & (verts - 1) else 0
                if edges:
                    blocks.append((verts, edges))
            blocks.sort(key=lambda block: _bit_indices(block[0]))
            self._blocks = tuple(blocks)
        return self._blocks

    def _block_key(self, b: int) -> tuple:
        """The normalized key of block ``b`` of :meth:`_block_masks`."""
        return self._component_key(_bit_indices(self._block_masks()[b][1]))

    def admissible_subgraphs(self) -> list["SubgraphSelection"]:
        """All proper nonempty disjoint unions of 1PI internal subgraphs whose
        contraction is again a valid 1PI graph, ordered by size,
        then by sorted edge indices.  An unselected edge inside a component
        would contract to a looping edge, so the candidates are the families
        of vertex-disjoint :meth:`one_pi_blocks`.  Raises ValueError on an
        invalid graph."""
        return [selection for selection, _ in self._admissible_pairs()]

    def _admissible_pairs(self) -> list[tuple["SubgraphSelection", tuple]]:
        """Each admissible selection with the normalized key of its quotient."""
        families = self._admissible_families()
        edge_lists = [_bit_indices(edges) for _, edges in self._block_masks()]
        out = []
        for family, edges, key in families:
            components = tuple(frozenset(edge_lists[b])
                               for b in sorted(family, key=edge_lists.__getitem__))
            out.append((SubgraphSelection(frozenset(_bit_indices(edges)), components), key))
        return out

    def _admissible_families(self) -> list[tuple[tuple[int, ...], int, tuple]]:
        """Each admissible selection as the indices of its blocks in
        :meth:`_block_masks`, its edge mask and the normalized key of its
        quotient, in the order of :meth:`admissible_subgraphs`.
        Contracting connected vertex sets keeps a 1PI graph connected and
        bridgeless, so its quotients are 1PI except by the block of every
        internal vertex, which leaves no internal edge.  It also keeps each
        bridge of a graph that is not 1PI (no block holds one) and each
        split of its internal part, so such a graph has no admissible pair."""
        self.require_valid()
        if not self.is_1pi():
            return []
        blocks = self._block_masks()
        internal = self.internal_vertices()
        whole = (1 << len(internal)) - 1
        merge = []  # per block: each of its vertices -> its least vertex
        for verts, _ in blocks:
            members = [internal[j] for j in _bit_indices(verts)]
            merge.append(dict.fromkeys(members, members[0]))
        out = []

        def extend(later: list[int], family: tuple[int, ...], rep: dict[int, int], dropped: int):
            # later: the blocks after the last chosen one, disjoint from the family
            for j, b in enumerate(later):
                verts, edges = blocks[b]
                chosen, merged, cut = family + (b,), {**rep, **merge[b]}, dropped | edges
                if verts != whole:
                    # vertex-disjoint induced 1PI blocks leave a valid quotient
                    out.append((chosen, cut, self._quotient_key(merged, cut)))
                extend([c for c in later[j + 1:] if not verts & blocks[c][0]], chosen, merged, cut)

        extend(list(range(len(blocks))), (), {}, 0)
        return sorted(out, key=lambda f: (f[1].bit_count(), _bit_indices(f[1])))

    def _quotient_key(self, rep: dict[int, int], dropped: int) -> tuple:
        """The normalized key of the graph with the edges of the mask
        ``dropped`` removed and each vertex of ``rep`` merged into
        ``rep[v]``, its group's least vertex."""
        kept = sorted(v for v in self.external if rep.get(v, v) == v)
        at = {v: j for j, v in enumerate(kept)}
        for v, target in rep.items():
            at[v] = at[target]
        return _normalized(tuple(self.external[v] for v in kept), at,
                           ((e.src, e.tgt, e.internal) for i, e in enumerate(self.edges)
                            if not dropped >> i & 1))

    def contract(self, selection: "SubgraphSelection") -> "FeynmanGraph":
        """Collapse each component of the selection to a single internal
        vertex, in the normalized labelling.  Raises ValueError unless the
        components are vertex-disjoint 1PI subgraphs whose edges are the
        selection's and the quotient is valid."""
        if frozenset().union(*selection.components) != selection.edge_indices:
            raise ValueError("selection components do not cover its edges")
        rep: dict[int, int] = {}
        for comp in selection.components:
            verts = {v for i in comp for v in (self.edges[i].src, self.edges[i].tgt)}
            if not verts.isdisjoint(rep) or not self.component_graph(comp).is_1pi():
                raise ValueError("selection components are not vertex-disjoint 1PI subgraphs")
            rep.update(dict.fromkeys(verts, min(verts)))
        dropped = sum(1 << i for i in selection.edge_indices)
        return FeynmanGraph._from_key(self._quotient_key(rep, dropped)).require_valid()

    # -- canonical form --------------------------------------------------------

    def canonical_key(self) -> tuple:
        """Isomorphism-invariant canonical form (orientation is ignored)."""
        if self._canon is None:
            self._canon, self._positions = _canonical_form(self)
        return self._canon

    def canonical_representative(self) -> "FeynmanGraph":
        """The graph rebuilt from its canonical form: one for every labelling."""
        return FeynmanGraph._from_key(self.canonical_key())

    def _canonical_blocks(self) -> list[list[int]]:
        """The vertex sets of the 1PI blocks of :meth:`canonical_representative`,
        its internal vertices numbered 1..k in order, each set sorted and the
        sets sorted; read from this graph's blocks through the positions its
        canonical form gives its vertices, with no graph built.  Any canonical
        labelling gives the same sets: an automorphism permutes the blocks."""
        self.canonical_key()
        position = dict(zip(self.external, self._positions))
        internal = self.internal_vertices()
        rank = {v: r for r, v in enumerate(sorted(internal, key=position.__getitem__), 1)}
        label = [rank[v] for v in internal]
        return sorted(sorted(label[j] for j in _bit_indices(verts))
                      for verts, _ in self._block_masks())

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


def _bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _json_value(value, kind: type, what: str):
    """``value`` if it is exactly of type ``kind`` (a bool is no int);
    ValueError otherwise."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be a JSON {'integer' if kind is int else 'boolean'}, "
                         f"got {value!r}")
    return value


def _connected_sets(near: list[int]) -> list[int]:
    """Each vertex set, as a mask, that induces a connected subgraph of the
    graph on 0..n-1 whose vertex v has the neighbour mask ``near[v]``, once.
    A set grows from its least vertex v; a vertex above v joins the
    extension only when it enters the neighbourhood of the set, so no set is
    reached twice (Wernicke's ESU)."""
    out = []

    def extend(verts: int, extension: int, closed: int, above: int):
        # closed: the set and its neighbours
        out.append(verts)
        while extension:
            w = extension & -extension
            extension ^= w
            ends = near[w.bit_length() - 1]
            extend(verts | w, extension | (ends & ~closed & above), closed | ends, above)

    for v, ends in enumerate(near):
        above = -1 << (v + 1)
        extend(1 << v, ends & above, ends | 1 << v, above)
    return out


def _bridgeless_edges(adj: list[list[tuple[int, int]]], verts: int) -> int:
    """The edge mask of the subgraph that the vertex mask ``verts`` induces
    in the multigraph ``adj``, if it is nonempty, connected and has no bridge
    (parallel edges never bridge), else 0: one depth-first search with low
    links."""
    if not verts:
        return 0
    root = (verts & -verts).bit_length() - 1
    index = {root: 0}
    low = {root: 0}
    edges = 0
    stack = [(root, -1, iter(adj[root]))]
    while stack:
        v, in_edge, it = stack[-1]
        for w, ei in it:
            if ei == in_edge or not verts >> w & 1:
                continue
            edges |= 1 << ei
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
                    return 0
                low[parent] = min(low[parent], low[v])
    return edges if len(index) == verts.bit_count() else 0


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


def _canonical_form(graph: FeynmanGraph) -> tuple[tuple, tuple[int, ...]]:
    """The least leaf encoding of the search tree that refines the coloring
    by the external flag and individualizes, in turn, each vertex of the
    first non-singleton cell.  The map between two leaves that encode alike
    is an automorphism.  A node skips a child whose vertex shares an orbit
    with an explored sibling, under the recorded automorphisms that fix the
    node's path: such an automorphism maps the child's subtree onto the
    sibling's, so the least leaf is the exhaustive search's.  Returned with
    the leaf's positions: the i-th vertex of ``graph.external`` is vertex
    positions[i] of the form."""
    n = len(graph.external)
    if not n:
        return ((), ()), ()
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
    return best, tuple(best_order)
