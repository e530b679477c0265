"""The toy log-form character's eta as first written, kept as the oracle for
``birkhoff.toy_feynman_character``: it rebuilds the canonical representative
of the graph and enumerates that graph's 1PI blocks again, where the library
reads the blocks of the graph it is given through the canonical positions."""

from __future__ import annotations

import json
from fractions import Fraction

from confeyn.birkhoff import _stable_rational
from confeyn.feyngraph import FeynmanGraph
from confeyn.rotabaxter import MultiLogForm, diagonal_label, separation_label


def oracle_eta(graph: FeynmanGraph, n_vertices: int, rule_seed: int) -> MultiLogForm:
    canon = graph.canonical_representative()
    internal = canon.internal_vertices()
    if len(internal) > n_vertices:
        raise ValueError(
            f"divisor set too small: graph has {len(internal)} internal vertices, "
            f"budget is {n_vertices}")
    space = canon.degree()
    renumber = {v: i + 1 for i, v in enumerate(internal)}
    head = json.dumps([rule_seed, graph.canonical_key()])
    terms: dict[tuple, Fraction] = {}
    for subset, _ in canon.one_pi_blocks():
        I = frozenset(renumber[v] for v in subset)
        block = (separation_label("inf", I), diagonal_label(I))
        terms[((space, ("polar", block)),)] = _stable_rational(head, sorted(I), "polar")
    terms[()] = _stable_rational(head, "const")
    linear = ((separation_label("inf", frozenset({1})), 1),)
    terms[((space, ("reg", linear)),)] = _stable_rational(head, "lin")
    return MultiLogForm(terms)
