"""phi_-, phi_+ and beta on the bench's larger renorm shapes, pinned by hash.

``tests/goldens/renorm.json`` maps each (graph, target, value) case to the
sha256 of the deterministic JSON of the value, for the Laurent target under
``laurent_rule(7)`` and the toy log-form character at rule seed 1.  The file
was written once, before the sparse core moved to integer numerators over one
denominator, and is never regenerated: a changed hash means a changed value.

Regenerate nothing; to inspect a case, print ``documents()[name]``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from confeyn.birkhoff import (Character, beta_function, birkhoff_factorize,
                              toy_feynman_character)
from confeyn.cli import dumps_deterministic
from confeyn.feyngraph import FeynmanGraph
from confeyn.hopf import HopfAlgebra
from confeyn.rotabaxter import LaurentAlgebra
from conftest import DENSE, laurent_rule, necklace

GOLDEN = Path(__file__).parent / "goldens" / "renorm.json"


def graphs() -> dict[str, FeynmanGraph]:
    """necklace(6), K3,3 and wheel5, the last two with legs on the ends of
    their first edge as in the bench's graph set."""
    out = {"necklace6": necklace(6)}
    for name in ("K33", "wheel5"):
        nv, edges = DENSE[name]
        out[name] = FeynmanGraph.build(nv, edges, legs=list(edges[0]))
    return out


def documents() -> dict[str, str]:
    """``"<graph> <target> <value>"`` -> the deterministic JSON of the value."""
    shapes = graphs()
    n_vertices = max(len(g.internal_vertices()) for g in shapes.values())
    hopf = HopfAlgebra()
    targets = {
        "laurent": Character(hopf, LaurentAlgebra(), laurent_rule(7)),
        "logform": toy_feynman_character(hopf, n_vertices, 1, 1),
    }
    out = {}
    for target, phi in targets.items():
        pair = birkhoff_factorize(phi)
        beta = beta_function(pair)
        for name, g in shapes.items():
            for value, fn in (("phi_minus", pair.phi_minus), ("phi_plus", pair.phi_plus),
                              ("beta", beta)):
                out[f"{name} {target} {value}"] = dumps_deterministic(fn(g).to_json())
    return out


def digest(doc: str) -> str:
    return hashlib.sha256(doc.encode()).hexdigest()


def test_renorm_goldens():
    golden = json.loads(GOLDEN.read_text())
    docs = documents()
    assert sorted(golden) == sorted(docs)
    changed = [name for name, doc in docs.items() if digest(doc) != golden[name]]
    assert not changed, f"renorm values changed: {changed}"
