"""Finite-difference oracle for the propagators' defining PDE."""

from __future__ import annotations

from typing import Sequence

from confeyn.propagators import Kinematics, _require_off_diagonal, g0_real, gm_real


def _fd_laplacian(f, x: Sequence[float], h: float) -> float:
    base = f(x)
    total = 0.0
    for mu in range(len(x)):
        xp = list(x); xp[mu] += h
        xm = list(x); xm[mu] -= h
        total += f(xp) - 2.0 * base + f(xm)
    return total / (h * h)


def helmholtz_residual(k: Kinematics, h: float) -> float:
    """Relative residual of the defining PDE, by central finite differences.

    Away from the diagonal the massive propagator satisfies
    ``sum_mu d^2 G = m^2 G`` (the geometer's sign convention flips the
    analyst's Laplacian); at m = 0 the massless kernel is harmonic.  Returns
    |Delta_h G - m^2 G| / |G|.
    """
    r = _require_off_diagonal(k)
    if h <= 0 or h > 0.05 * r:
        raise ValueError("step must satisfy 0 < h <= 0.05 ||x||")
    if k.m > 0:
        def f(pt):
            return gm_real(Kinematics(k.D, tuple(pt), k.m))
    else:
        def f(pt):
            return g0_real(Kinematics(k.D, tuple(pt)))
    lap = _fd_laplacian(f, k.x, h)
    val = f(k.x)
    return abs(lap - k.m ** 2 * val) / abs(val)
