"""Exact Gegenbauer edge tensors pinned by hash.

``tests/goldens/tensors.json`` maps each case of a fixed (lam, ell, radial,
gegen cap) grid to the sha256 of the deterministic JSON of its
``edge_gegenbauer_expansion``.  The file was written once, before the tensor
build was changed, and is never regenerated: a changed hash means the exact
tensors changed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from confeyn.amplitude import (TaylorTermSpec, TruncationOrders, _taylor_indices,
                               edge_gegenbauer_expansion)
from confeyn.cli import dumps_deterministic

GOLDEN = Path(__file__).parent / "goldens" / "tensors.json"

LAMBDAS = tuple(Fraction(k, 2) for k in range(1, 7))  # 1/2, 1, ..., 3
RADIALS = (8, 24)
CAPS = (None, 6)


def grid() -> list[tuple[Fraction, Fraction, int, int | None]]:
    """(lam, ell, radial, gegen cap) of every pinned case."""
    cases = [(lam, ell, radial, cap)
             for lam in LAMBDAS
             for ell in _taylor_indices(lam, 4)
             for radial in RADIALS for cap in CAPS]
    cases.append((Fraction(1), Fraction(12), 40, None))
    return cases


def case_name(lam, ell, radial, cap) -> str:
    return f"lam={lam} ell={ell} radial={radial} gegen={cap}"


def tensor_hash(lam, ell, radial, cap) -> str:
    orders = TruncationOrders(radial=radial, gegen=cap)
    expansion = edge_gegenbauer_expansion(TaylorTermSpec.make(ell, lam), lam, orders)
    return hashlib.sha256(dumps_deterministic(expansion.to_json()).encode()).hexdigest()


def test_tensor_goldens():
    golden = json.loads(GOLDEN.read_text())
    cases = grid()
    assert sorted(golden) == sorted(case_name(*c) for c in cases)
    changed = [case_name(*c) for c in cases if tensor_hash(*c) != golden[case_name(*c)]]
    assert not changed, f"exact tensors changed: {changed}"
