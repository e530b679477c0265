"""The exhaustive canonical form, kept as the oracle for ``feyngraph``'s
pruned search.

Color refinement to a stable coloring, then every vertex of the first
non-singleton cell is individualized in turn, with no automorphism pruning,
so the search visits about |Aut(G)| leaves.  The key is the least leaf
encoding.  ``feyngraph._canonical_form`` must return exactly this key on
every graph: it refines to the same colorings and prunes only subtrees that
an automorphism maps onto explored ones.
"""

from __future__ import annotations

from confeyn.feyngraph import FeynmanGraph


def _refine(colors: dict[int, int], adj: dict[int, list[tuple[int, int]]]) -> dict[int, int]:
    """Stable color refinement on the vertex coloring (multigraph aware)."""
    while True:
        signature = {
            v: (colors[v], tuple(sorted((colors[w], flag) for w, flag in adj[v])))
            for v in colors
        }
        palette = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        new = {v: palette[signature[v]] for v in colors}
        if new == colors:
            return colors
        colors = new


def _encode(graph: FeynmanGraph, order: dict[int, int]) -> tuple:
    verts = tuple(flag for _, flag in sorted(
        ((order[v], graph.external[v]) for v in graph.external)))
    edges = tuple(sorted(
        (min(order[e.src], order[e.tgt]), max(order[e.src], order[e.tgt]), e.internal)
        for e in graph.edges))
    return (verts, edges)


def oracle_canonical_form(graph: FeynmanGraph) -> tuple:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in graph.external}
    for e in graph.edges:
        adj[e.src].append((e.tgt, e.internal))
        adj[e.tgt].append((e.src, e.internal))
    base = {v: (1 if graph.external[v] else 0) for v in graph.external}

    best: list[tuple | None] = [None]

    def search(colors: dict[int, int]):
        colors = _refine(colors, adj)
        cells: dict[int, list[int]] = {}
        for v, c in colors.items():
            cells.setdefault(c, []).append(v)
        ambiguous = sorted((c for c, vs in cells.items() if len(vs) > 1))
        if not ambiguous:
            order = {v: c for v, c in colors.items()}
            enc = _encode(graph, order)
            if best[0] is None or enc < best[0]:
                best[0] = enc
            return
        cell = cells[ambiguous[0]]
        for v in sorted(cell):
            refined = dict(colors)
            refined[v] = -1 - refined[v]  # individualize
            search(refined)

    if not graph.external:
        return ((), ())
    search(base)
    assert best[0] is not None
    return best[0]
