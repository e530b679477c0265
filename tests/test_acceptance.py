"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from amplitude_oracles import expansion_value
from confeyn.amplitude import (EdgeGeometry, TruncationOrders,
                               edge_asymptotic_value, edge_gegenbauer_expansion,
                               edge_taylor_value)
from confeyn.birkhoff import (Character, beta_function, birkhoff_factorize,
                              toy_feynman_character, universal_frame)
from confeyn.cli import main as cli_main
from confeyn.feyngraph import FeynmanGraph
from confeyn.gegenbauer import (_chebyshev_monomials,
                                chebyshev_to_gegenbauer, gegenbauer_coeffs, gegenbauer_value,
                                generating_series_coeff, monomial_to_gegenbauer,
                                product_linearize, reproject_gegenbauer,
                                zonal_coefficient)
from confeyn.hopf import HopfElement, monomial, monomial_degree
from confeyn.propagators import Kinematics, gm_integral, gm_real
from confeyn.rotabaxter import (LaurentAlgebra, LaurentSeries, divisor_labels,
                                label_sort_key, laurent_T, multi_T,
                                multi_residues_vanish)
from confeyn.specfun import gamma_exact
from conftest import laurent_rule, one_factor_form
from gegen_oracles import expand
from propagator_oracles import helmholtz_residual

F = Fraction
GOLDENS = Path(__file__).parent / "goldens" / "cli"


def _report(num: int, text: str):
    print(f"criterion {num}: PASS - {text}")


def test_criterion_1_rota_baxter_identity():
    t0 = time.monotonic()
    rng = random.Random(101)

    def rand_laurent():
        return LaurentSeries({e: F(rng.randint(-5, 5), rng.randint(1, 4))
                              for e in range(rng.randint(-3, 0), rng.randint(1, 4))})

    labels = sorted(divisor_labels(3, 1), key=label_sort_key)

    def rand_logform(space=3):
        """A random one-factor log form."""
        polar = {}
        for _ in range(rng.randint(0, 2)):
            J = frozenset(rng.sample(labels, 2))
            polar[J] = F(rng.randint(-4, 4), rng.randint(1, 5))
        regular = {}
        for _ in range(rng.randint(0, 2)):
            vars_ = rng.sample(labels, rng.randint(0, 2))
            key = tuple(sorted(((v, rng.randint(1, 2)) for v in vars_),
                               key=lambda kv: label_sort_key(kv[0])))
            regular[key] = F(rng.randint(-4, 4), rng.randint(1, 5))
        return one_factor_form(space, polar, regular)

    def rand_multi():
        out = rand_logform(rng.choice([2, 3]))
        if rng.random() < 0.5:
            out = out + rand_logform(rng.choice([2, 3]))
        return out

    for _ in range(1000):
        x, y = rand_laurent(), rand_laurent()
        assert laurent_T(x) * laurent_T(y) == (laurent_T(x * laurent_T(y))
                                               + laurent_T(laurent_T(x) * y)
                                               - laurent_T(x * y))
    for _ in range(1000):
        x, y = rand_logform(), rand_logform()
        assert multi_T(x) * multi_T(y) == (multi_T(x * multi_T(y))
                                           + multi_T(multi_T(x) * y)
                                           - multi_T(x * y))
    for _ in range(1000):
        x, y = rand_multi(), rand_multi()
        assert multi_T(x) * multi_T(y) == (multi_T(x * multi_T(y))
                                           + multi_T(multi_T(x) * y)
                                           - multi_T(x * y))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(1, f"weight -1 identity exact on 3x1000 fuzzed pairs: Laurent, one-factor "
               f"and multi-space log forms ({elapsed:.1f}s)")


def test_criterion_2_birkhoff_factorization(hopf, family, monomials_deg4):
    t0 = time.monotonic()
    assert len(family) >= 20
    targets = {
        "laurent": Character(hopf, LaurentAlgebra(), laurent_rule(31)),
        "logform": toy_feynman_character(hopf, n_vertices=6, k_external=1,
                                         rule_seed=31),
    }
    for name, phi in targets.items():
        pair = birkhoff_factorize(phi)
        for m in monomials_deg4:
            assert pair.factorization_lhs(m) == phi.on_monomial(m), (name, m)
    # multiplicativity on 200 fuzzed monomial pairs (Laurent target)
    pair = birkhoff_factorize(targets["laurent"])
    t = targets["laurent"].target
    pairs = list(itertools.combinations_with_replacement(family, 2))[:200]
    assert len(pairs) == 200
    for a, b in pairs:
        prod = monomial(a, b)
        assert pair.minus_on_monomial(prod) == t.mul(
            pair.minus_on_monomial(monomial(a)), pair.minus_on_monomial(monomial(b)))
        assert pair.plus_on_monomial(prod) == t.mul(
            pair.plus_on_monomial(monomial(a)), pair.plus_on_monomial(monomial(b)))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(2, f"factorization exact deg<=4 on {len(family)} graphs, both targets; "
               f"200 multiplicativity pairs ({elapsed:.1f}s)")


def test_criterion_3_renormalized_residue_freeness(hopf, family):
    toy = toy_feynman_character(hopf, n_vertices=6, k_external=1, rule_seed=77)
    pair = birkhoff_factorize(toy)
    for g in family:
        plus = pair.phi_plus(g)
        assert multi_residues_vanish(plus), g
    _report(3, f"phi_+ residue-free on all {len(family)} test graphs")


def test_criterion_4_hopf_axioms(hopf, monomials_deg4):
    for m in monomials_deg4:
        x = HopfElement.from_monomial(m)
        delta = hopf.coproduct(x)
        # coassociativity
        left = {}
        for (a, b), c in delta.terms.items():
            for (a1, a2), c2 in hopf.coproduct(HopfElement.from_monomial(a)).terms.items():
                key = (a1, a2, b)
                left[key] = left.get(key, F(0)) + c * c2
        left = {k: v for k, v in left.items() if v}
        assert left == hopf.iterated_coproduct(x, 3).terms
        # counit both sides
        recon_l = HopfElement.zero()
        recon_r = HopfElement.zero()
        total = HopfElement.zero()
        for (a, b), c in delta.terms.items():
            recon_l = recon_l + (c * hopf.counit(a)) * HopfElement.from_monomial(b)
            recon_r = recon_r + (c * hopf.counit(b)) * HopfElement.from_monomial(a)
            total = total + c * (hopf.antipode(a) * HopfElement.from_monomial(b))
        assert recon_l == x and recon_r == x
        # antipode axiom
        assert total == hopf.counit(x) * HopfElement.one()
    _report(4, f"coassociativity, counit, antipode exact on {len(monomials_deg4)} "
               "monomials of degree <= 4")


def test_criterion_5_beta_frame_round_trip(hopf, monomials_deg4):
    characters = [
        Character(hopf, LaurentAlgebra(), laurent_rule(55)),
        toy_feynman_character(hopf, n_vertices=6, k_external=1, rule_seed=55),
    ]
    count = 0
    for phi in characters:
        pair = birkhoff_factorize(phi)
        frame = universal_frame(beta_function(pair))
        for m in monomials_deg4:
            if monomial_degree(m) > 3:
                continue
            assert frame.on_monomial(m) == pair.minus_on_monomial(m)
            count += 1
    _report(5, f"universal frame reconstructs phi_- exactly through degree 3 "
               f"({count} checks, both targets)")


def test_criterion_6_gegenbauer():
    # generating-function oracle, n <= 12
    rng = random.Random(6)
    for lam in [F(1, 2), 1, F(3, 2), 2]:
        for n in range(13):
            for _ in range(3):
                x = rng.uniform(-1, 1)
                direct = gegenbauer_value(lam, n, x)
                oracle = generating_series_coeff(lam, n, x)
                assert abs(direct - oracle) <= 1e-12 * max(1.0, abs(oracle))
    # orthogonality, n, m <= 10
    for lam in [F(1, 2), 1, F(3, 2), 2]:
        nodes = int(4 * (20 + float(lam) + 2))
        t, w = np.polynomial.legendre.leggauss(nodes)
        theta = (t + 1) * (math.pi / 2)
        x = np.cos(theta)
        weight = np.sin(theta) ** (2 * float(lam))
        values = [np.array([gegenbauer_value(lam, n, xx) for xx in x])
                  for n in range(11)]
        for n in range(11):
            want = (math.pi * 2.0 ** (1 - 2 * float(lam))
                    * float(gamma_exact(n + 2 * lam))
                    / (math.factorial(n) * (n + float(lam))
                       * float(gamma_exact(lam)) ** 2))
            for m in range(11):
                got = (math.pi / 2) * float(np.sum(w * values[n] * values[m] * weight))
                target = want if n == m else 0.0
                assert abs(got - target) <= 1e-10 * want
    # exact inversion of all four conversions to degree 10
    weights = [F(1, 2), 1, F(3, 2), 2, F(5, 2), 3]
    for lam in weights:
        for n in range(11):
            assert expand(monomial_to_gegenbauer(n, lam), lam) == {n: 1}
            assert expand(chebyshev_to_gegenbauer(n, lam), lam) == \
                dict(_chebyshev_monomials(n))
            for ell in [F(1, 2), 2]:
                assert expand(reproject_gegenbauer(ell, n, lam), lam) == \
                    gegenbauer_coeffs(ell, n)
        for n in range(0, 11, 2):
            for m in range(1, 11, 2):
                got = expand(product_linearize(n, m, lam), lam)
                want = {}
                for p, c in gegenbauer_coeffs(lam, n).items():
                    for q, d in gegenbauer_coeffs(lam, m).items():
                        key = p + q
                        acc = want.get(key, 0) + c * d
                        if not acc:
                            want.pop(key, None)
                        else:
                            want[key] = acc
                assert got == want
    _report(6, "oracle <= 1e-12 (n<=12); orthogonality <= 1e-10 (n,m<=10); "
               "all four conversions invert exactly to degree 10")


def test_criterion_7_propagators():
    for D in (3, 4, 6):
        for m in (0.5, 1.0, 2.0):
            for r in (0.25, 1.0, 4.0):
                k = Kinematics.radial(D, r, m)
                direct, oracle = gm_real(k), gm_integral(k)
                assert abs(direct - oracle) <= 1e-8 * abs(oracle)
                rhs = m ** (D - 2) * gm_real(Kinematics.radial(D, m * r, 1.0))
                assert abs(direct - rhs) <= 1e-12 * abs(rhs)
    for m in (0.5, 1.0, 2.0):
        for r in (0.3, 1.0, 5.0):
            want = math.exp(-m * r) / (4 * math.pi * r)
            assert abs(gm_real(Kinematics.radial(3, r, m)) - want) <= 1e-12 * want
    # PDE residuals: <= 1e-5 at a step fine enough for each point, with the
    # O(h^2) ratio observed at steps where truncation dominates rounding
    for D, m, h in [(3, 1.0, 1e-3), (4, 1.0, 5e-4), (4, 0.0, 5e-4), (6, 2.0, 2e-4)]:
        k = Kinematics.radial(D, 1.0, m)
        assert helmholtz_residual(k, h) <= 1e-5
        coarse = helmholtz_residual(k, 2e-3)
        assert helmholtz_residual(k, 1e-3) * 4 == pytest.approx(coarse, rel=0.05)
    # Dirac and boson against finite differences
    from confeyn.propagators import boson_propagator, dirac_propagator
    D, m, r = 4, 1.3, 1.5
    dc = dirac_propagator(Kinematics.radial(D, r, m))
    assert abs(dc.b - m * gm_real(Kinematics.radial(D, r, math.sqrt(m)))) \
        <= 1e-5 * abs(dc.b)
    h = 1e-3
    g = lambda rr: gm_real(Kinematics.radial(D, rr, math.sqrt(m)))
    gp = (g(r + h) - g(r - h)) / (2 * h)
    assert abs(dc.a + gp / r) <= 1e-5 * abs(dc.a)
    x = (1.0, 0.0, 0.0, 0.0)
    k4 = Kinematics(4, x, 1.0)
    m1, m2 = 1.0, math.sqrt(0.5)

    def scal(pt, mass):
        return gm_real(Kinematics(4, tuple(pt), mass))

    xp = [1.0 + h, 0, 0, 0]
    xm = [1.0 - h, 0, 0, 0]
    dd = lambda mass: (scal(xp, mass) - 2 * scal(x, mass) + scal(xm, mass)) / h ** 2
    fd = scal(x, m1) + dd(m2) - dd(m1)
    got = boson_propagator(k4, 2.0, 0, 0)
    assert abs(got - fd) <= 1e-5 * abs(got)
    _report(7, "quadrature oracle <= 1e-8; D=3 closed form and scaling <= 1e-12; "
               "PDE residuals <= 1e-5 with O(h^2); Dirac/boson oracles <= 1e-5")


def test_criterion_8_amplitude_expansions():
    # Taylor truncation at m r = 0.1, 20 terms, integer lam <= 3
    for lam in (1, 2, 3):
        D = 2 * lam + 2
        direct = gm_real(Kinematics.radial(D, 1.0, 0.1))
        got = edge_taylor_value(lam, 1.0, 0.1, TruncationOrders(ell_max=20))
        assert abs(got - direct) <= 1e-10 * direct
    # asymptotic truncation at m r = 20, 6 terms
    direct = gm_real(Kinematics.radial(4, 20.0, 1.0))
    got = edge_asymptotic_value(1, 20.0, 1.0, TruncationOrders(asym_terms=6))
    assert abs(got - direct) <= 1e-8 * direct
    # worked Gegenbauer value 0.8 / rho^2 at cos = 0, u = 1/2
    exp = edge_gegenbauer_expansion(-1, 1, TruncationOrders(radial=60))
    for rho in (1.0, 2.5):
        geom = EdgeGeometry(rho=rho, r=rho / 2, cos=0.0)
        val = expansion_value(exp, geom, m=1.0) / exp.prefactor.bind(1.0)
        assert abs(val - 0.8 / rho ** 2) <= 1e-10 * (0.8 / rho ** 2)
    # coefficient-field structure on every generated tensor
    generated = [(-1, F(1)), (0, F(1)), (1, F(1)), (-2, F(2)), (2, F(2)),
                 (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (1, F(3, 2)),
                 (F(-3, 2), F(3, 2))]
    for ell, lam in generated:
        tensor = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=8))
        for coeff in (tensor.prefactor * c
                      for c in (*tensor.plain.values(), *tensor.log_rho.values())):
            exps = {p for (*_, p), _ in coeff.terms.items()}
            if lam.denominator == 1:
                assert all(p % 2 == 0 for p in exps), (ell, lam, exps)
            # either parity: membership in Q[m, log m, sqrt(pi)^{+-1}, gamma, log 2]
            assert all(s == 0 for (*_, s, _), _ in coeff.terms.items()), (ell, lam)
    _report(8, "taylor <= 1e-10 at mr=0.1; asymptotic <= 1e-8 at mr=20; "
               "worked 0.8/rho^2 <= 1e-10; coefficient field structural checks")


def test_criterion_9_zonal_reproducing():
    t0 = time.monotonic()
    rng = np.random.default_rng(1234)
    n_samples = 1_000_000
    z = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, 2 * math.pi, n_samples)
    s = np.sqrt(1.0 - z * z)
    omega = np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)
    w1 = np.array([0.0, 0.0, 1.0])
    for cos12, w2 in [(1.0, np.array([0.0, 0.0, 1.0])),
                      (0.8, np.array([0.6, 0.0, 0.8]))]:
        d1 = omega @ w1
        d2 = omega @ w2
        for n in range(5):
            coeffs = gegenbauer_coeffs(F(1, 2), n)
            poly = np.zeros(n + 1)
            for p, c in coeffs.items():
                poly[n - p] = float(c)
            estimate = 4 * math.pi * float(np.mean(np.polyval(poly, d1)
                                                   * np.polyval(poly, d2)))
            want = float(zonal_coefficient(3, n)) * float(np.polyval(poly, cos12))
            assert abs(estimate - want) <= 0.02 * abs(want), (n, cos12)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(9, f"zonal reproducing property within 2% at 10^6 samples, n <= 4 "
               f"({elapsed:.1f}s)")


def golden_suite(tmp_path) -> list[list[str]]:
    """The CLI commands whose stdout is stored in tests/goldens/cli, in file
    order, with their input files written to ``tmp_path``."""
    banana = FeynmanGraph.build(2, [(0, 1), (0, 1)])
    dt = FeynmanGraph.build(3, [(0, 1), (0, 1), (0, 2), (2, 1)])
    graphs = tmp_path / "graphs.json"
    graphs.write_text(json.dumps({"graphs": [
        dict(name="banana", **banana.to_json()),
        dict(name="dtriangle", **dt.to_json())]}))
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps({"banana": {"-2": "1", "0": "3", "1": "1"},
                               "dtriangle": {"-2": "1", "-1": "2", "0": "3"}}))
    return [
        ["prop-eval", "--D", "3", "--m", "1", "--r", "1"],
        ["prop-eval", "--D", "6", "--m", "2", "--r", "0.5", "--kind", "gm-integral"],
        ["prop-eval", "--D", "4", "--m", "1.2", "--r", "1.5", "--kind", "dirac"],
        ["prop-expand", "--D", "4", "--method", "taylor", "--ell", "1"],
        ["prop-expand", "--D", "4", "--method", "gegenbauer", "--ell", "-1",
         "--radial", "8"],
        ["prop-expand", "--D", "3", "--method", "asymptotic", "--ell", "2"],
        ["gegen", "--op", "monomial", "--m", "2", "--lambda", "1"],
        ["gegen", "--op", "product", "--n", "4", "--m", "3", "--lambda", "5/2"],
        ["gegen", "--op", "zonal", "--D", "4", "--n", "2"],
        ["graph-coproduct", "--graphs", str(graphs)],
        ["graph-antipode", "--graphs", str(graphs)],
        ["renorm", "--target", "laurent", "--graphs", str(graphs),
         "--phi", str(phi)],
        ["renorm", "--target", "logform", "--graphs", str(graphs), "--seed", "7"],
        ["beta", "--target", "logform", "--graphs", str(graphs), "--seed", "7"],
        ["divisors", "--n", "3", "--k", "2"],
        ["gegen", "--op", "coeffs", "--n", "6", "--lambda", "3/2"],
        ["gegen", "--op", "chebyshev", "--n", "7", "--lambda", "2"],
        ["gegen", "--op", "reproject", "--ell", "5/2", "--n", "6", "--lambda", "1"],
    ]


def test_criterion_10_cli_goldens(tmp_path, capsysbinary):
    suite = golden_suite(tmp_path)
    # stored stdout of each command; an intended output change rewrites the
    # file (the command with ``--out tests/goldens/cli/<name>``) and says why
    for i, cmd in enumerate(suite):
        golden = GOLDENS / f"{i:02d}_{cmd[0]}.json"
        assert cli_main(cmd) == 0, cmd
        assert capsysbinary.readouterr().out == golden.read_bytes(), cmd
    _report(10, f"stdout byte-identical to the stored goldens for {len(suite)} "
                "CLI invocations")
