"""``prop-expand`` output pinned by hash.

``tests/goldens/expand.json`` maps each case of a fixed grid to the sha256 of
the bytes that ``confeyn prop-expand`` writes for it: D from 3 to 12 in the
real and the complex case, the Taylor term of every index ell from -lambda to
8, the asymptotic term of every ell from 0 to 8, and the Gegenbauer expansion
of every Taylor index at radial order 8.  The file was written once, before
the exact ring was changed, and is never regenerated: a changed hash means
the command's output changed.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from confeyn.amplitude import _taylor_indices, complex_case_weight
from confeyn.cli import main

GOLDEN = Path(__file__).parent / "goldens" / "expand.json"

DIMENSIONS = range(3, 13)
ELL_MAX = 8
RADIAL = 8


def grid() -> list[list[str]]:
    """The prop-expand arguments of every pinned case."""
    cases = []
    for case in ("real", "complex"):
        for D in DIMENSIONS:
            lam = complex_case_weight(D) if case == "complex" else Fraction(D - 2, 2)
            head = ["--D", str(D), "--case", case]
            for ell in _taylor_indices(lam, ELL_MAX):
                cases.append(head + ["--method", "taylor", f"--ell={ell}"])
                cases.append(head + ["--method", "gegenbauer", f"--ell={ell}",
                                     "--radial", str(RADIAL)])
            for ell in range(ELL_MAX + 1):
                cases.append(head + ["--method", "asymptotic", f"--ell={ell}"])
    return cases


def case_name(args: list[str]) -> str:
    return " ".join(args)


def output_hash(args: list[str], out: Path) -> str:
    assert main(["prop-expand", *args, "--out", str(out)]) == 0, args
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_expand_goldens(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    cases = grid()
    assert sorted(golden) == sorted(map(case_name, cases))
    out = tmp_path / "out.json"
    changed = [case_name(c) for c in cases if output_hash(c, out) != golden[case_name(c)]]
    assert not changed, f"prop-expand output changed: {changed}"
