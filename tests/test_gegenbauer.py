"""Gegenbauer engine: oracles, exact conversions, orthogonality, zonal checks."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from confeyn.exact import SymbolicCoeff
from confeyn.gegenbauer import (_chebyshev_monomials,
                                chebyshev_to_gegenbauer, gegenbauer_coeffs,
                                gegenbauer_table, gegenbauer_value,
                                generating_series_coeff,
                                monomial_to_gegenbauer, product_linearize,
                                reproject_gegenbauer, sphere_volume,
                                zonal_coefficient)
from confeyn.specfun import gamma_exact
from gegen_oracles import (chebyshev_limit_check, expand, product_by_gamma,
                           reproject_by_double_sum)

F = Fraction
WEIGHTS = [F(1, 2), 1, F(3, 2), 2, F(5, 2), 3]
ORACLE_WEIGHTS = [F(1, 2), F(1), F(3, 2), F(2), F(5, 2), F(7, 2), F(51, 2)]
SOURCE_WEIGHTS = [F(1, 2), F(1), F(2), F(5, 2), F(9, 2)]


def as_rat(combo: dict[int, Fraction]) -> dict[int, Fraction]:
    assert all(type(c) is Fraction for c in combo.values())
    return combo


def poly_mul(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for p, c in a.items():
        for q, d in b.items():
            out[p + q] = out.get(p + q, 0) + c * d
    return {k: v for k, v in out.items() if v}


class TestExplicitCoefficients:
    def test_degree_zero(self):
        for lam in WEIGHTS:
            assert gegenbauer_coeffs(lam, 0) == {0: 1}

    def test_known_polynomials(self):
        assert as_rat(gegenbauer_coeffs(1, 2)) == {2: F(4), 0: F(-1)}
        assert as_rat(gegenbauer_coeffs(F(1, 2), 2)) == {2: F(3, 2), 0: F(-1, 2)}

    def test_generating_function_oracle(self):
        rng = random.Random(11)
        for lam in [F(1, 2), 1, F(3, 2), 2]:
            for n in range(13):
                for _ in range(4):
                    x = rng.uniform(-1, 1)
                    direct = gegenbauer_value(lam, n, x)
                    oracle = generating_series_coeff(lam, n, x)
                    scale = max(abs(oracle), 1e-9)
                    assert abs(direct - oracle) / scale < 1e-12

    @pytest.mark.parametrize("lam", [F(1, 2), 1, F(3, 2), 2, F(5, 2)])
    def test_scipy_grid_to_degree_60(self, lam):
        # |C_d^(lam)(x)| <= C(d + 2 lam - 1, d) on [-1, 1]; the monomial form
        # summed in floats missed this by 1e+5 at d = 60, x = 0.95
        from scipy.special import eval_gegenbauer
        for d in range(61):
            bound = math.comb(d + int(2 * lam) - 1, d)
            for x in (0.3, -0.3, 0.95, -0.95, 0.99, -0.99):
                got = gegenbauer_value(lam, d, x)
                assert abs(got - eval_gegenbauer(d, float(lam), x)) <= 1e-12 * bound

    def test_table_lengths(self):
        assert len(gegenbauer_table(F(3, 2), 30, 0.95)) == 31
        assert gegenbauer_table(1, 0, 0.5) == [1.0]
        assert gegenbauer_table(1, 1, 0.5) == [1.0, 1.0]
        with pytest.raises(ValueError):
            gegenbauer_table(1, -1, 0.5)

    def test_combo_eval_float_at_high_degree(self):
        from scipy.special import eval_gegenbauer
        combo = {40: F(1), 2: F(1, 3)}
        want = eval_gegenbauer(40, 1.0, 0.95) + eval_gegenbauer(2, 1.0, 0.95) / 3
        got = sum(float(c) * gegenbauer_value(1, d, 0.95) for d, c in combo.items())
        assert abs(got - want) <= 1e-12 * math.comb(41, 40)

    def test_legendre_special_case(self):
        assert generating_series_coeff(F(1, 2), 1, 0.37) == pytest.approx(0.37, abs=1e-15)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            gegenbauer_coeffs(F(-1, 2), 1)
        with pytest.raises(ValueError):
            gegenbauer_coeffs(1, -1)


class TestConversions:
    def test_monomial_examples(self):
        assert as_rat(monomial_to_gegenbauer(0, 2)) == {0: F(1)}
        assert as_rat(monomial_to_gegenbauer(1, 1)) == {1: F(1, 2)}
        assert as_rat(monomial_to_gegenbauer(2, 1)) == {2: F(1, 4), 0: F(1, 4)}

    def test_chebyshev_examples(self):
        assert as_rat(chebyshev_to_gegenbauer(0, 2)) == {0: F(1)}
        assert as_rat(chebyshev_to_gegenbauer(1, 1)) == {1: F(1, 2)}
        assert as_rat(chebyshev_to_gegenbauer(2, 1)) == {2: F(1, 2), 0: F(-1, 2)}

    def test_reproject_examples(self):
        assert as_rat(reproject_gegenbauer(2, 1, 1)) == {1: F(2)}
        assert as_rat(reproject_gegenbauer(1, 1, 1)) == {1: F(1)}

    def test_product_examples(self):
        assert as_rat(product_linearize(0, 5, F(3, 2))) == {5: F(1)}
        assert as_rat(product_linearize(1, 1, 1)) == {2: F(1), 0: F(1)}
        assert as_rat(product_linearize(1, 1, F(1, 2))) == {2: F(2, 3), 0: F(1, 3)}

    def test_monomial_inverts_exactly(self):
        for lam in WEIGHTS:
            for m in range(11):
                expanded = expand(monomial_to_gegenbauer(m, lam), lam)
                assert expanded == {m: 1}

    def test_chebyshev_inverts_exactly(self):
        for lam in WEIGHTS:
            for n in range(11):
                expanded = expand(chebyshev_to_gegenbauer(n, lam), lam)
                want = dict(_chebyshev_monomials(n))
                assert expanded == want

    def test_reproject_inverts_exactly(self):
        for lam in WEIGHTS:
            for ell in [F(1, 2), 1, 2, F(5, 2)]:
                for n in range(11):
                    expanded = expand(reproject_gegenbauer(ell, n, lam), lam)
                    assert expanded == gegenbauer_coeffs(ell, n)

    def test_product_inverts_exactly(self):
        for lam in WEIGHTS:
            for n in range(0, 11, 2):
                for m in range(1, 11, 3):
                    got = expand(product_linearize(n, m, lam), lam)
                    want = poly_mul(gegenbauer_coeffs(lam, n),
                                    gegenbauer_coeffs(lam, m))
                    assert got == want

    def test_product_matches_gamma_oracle(self):
        # the Gamma-function linearization in the exact ring, whose sqrt(pi)
        # factors cancel, against the product of the monomial forms
        for lam in ORACLE_WEIGHTS:
            for n in range(13):
                for m in range(13):
                    assert as_rat(product_linearize(n, m, lam)) == product_by_gamma(n, m, lam)

    def test_reproject_matches_double_sum_oracle(self):
        for lam in ORACLE_WEIGHTS:
            for ell in SOURCE_WEIGHTS:
                for n in range(13):
                    assert as_rat(reproject_gegenbauer(ell, n, lam)) == \
                        reproject_by_double_sum(ell, n, lam)

    def test_combo_json_is_rational_strings(self):
        # the CLI writes this dict as {"0": "1/3", "2": "2/3"}; the gegen goldens pin it
        assert product_linearize(1, 1, F(1, 2)) == {0: F(1, 3), 2: F(2, 3)}

    def test_small_weight_rejected(self):
        with pytest.raises(ValueError):
            monomial_to_gegenbauer(2, F(1, 4))
        with pytest.raises(ValueError):
            chebyshev_to_gegenbauer(2, F(1, 3))


class TestOrthogonality:
    @staticmethod
    def quad_theta(n, m, lam, nodes):
        # x = cos(theta) turns the weight into a trig polynomial, which
        # Gauss-Legendre in theta integrates to machine precision
        t, w = np.polynomial.legendre.leggauss(nodes)
        theta = (t + 1) * (math.pi / 2)
        x = np.cos(theta)
        cn = np.array([gegenbauer_value(lam, n, xx) for xx in x])
        cm = np.array([gegenbauer_value(lam, m, xx) for xx in x])
        return (math.pi / 2) * float(np.sum(w * cn * cm * np.sin(theta) ** (2 * float(lam))))

    def test_orthogonality_relation(self):
        for lam in [F(1, 2), 1, F(3, 2), 2]:
            for n in range(11):
                nodes = int(4 * (2 * n + float(lam) + 2))
                want = (math.pi * 2.0 ** (1 - 2 * float(lam))
                        * float(gamma_exact(n + 2 * lam))
                        / (math.factorial(n) * (n + float(lam))
                           * float(gamma_exact(lam)) ** 2))
                got = self.quad_theta(n, n, lam, nodes)
                assert abs(got - want) / want < 1e-10
                if n + 2 <= 10:
                    off = self.quad_theta(n, n + 2, lam, nodes + 8)
                    assert abs(off) / want < 1e-10


class TestZonal:
    def test_sphere_volumes(self):
        assert sphere_volume(3) == SymbolicCoeff.monomial(4, pi_half=2)      # 4 pi
        assert sphere_volume(4) == SymbolicCoeff.monomial(2, pi_half=4)      # 2 pi^2

    def test_coefficients(self):
        assert zonal_coefficient(3, 0) == SymbolicCoeff.monomial(4, pi_half=2)
        assert zonal_coefficient(4, 0) == SymbolicCoeff.monomial(2, pi_half=4)
        assert zonal_coefficient(3, 1) == SymbolicCoeff.monomial(F(4, 3), pi_half=2)

    def test_reproducing_property_monte_carlo(self):
        # int_{S^2} C_n(w1.w) C_n(w.w2) dw = c_{3,n} C_n(w1.w2), lam = 1/2
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
                vals = np.polyval(poly, d1) * np.polyval(poly, d2)
                estimate = 4 * math.pi * float(np.mean(vals))
                want = float(zonal_coefficient(3, n)) * np.polyval(poly, cos12)
                assert abs(estimate - want) / abs(want) < 0.02


class TestChebyshevLimit:
    @pytest.mark.parametrize("n", [24, 40, 60])
    @pytest.mark.parametrize("x", [0.99, -0.99, 0.3])
    def test_oracles_at_high_degree(self, n, x):
        # both sums cancel near |x| = 1; summed in floats, at n = 60 and
        # x = 0.99 they gave 869376 for C_60^(1) (scipy: 5.04) and 114176 for T_60
        from scipy.special import eval_gegenbauer
        for lam in (F(1, 2), 1, F(5, 2)):
            want = eval_gegenbauer(n, float(lam), x)
            bound = math.comb(n + int(2 * lam) - 1, n)
            assert abs(generating_series_coeff(lam, n, x) - want) <= 1e-13 * bound
        t_n, approx = chebyshev_limit_check(n, x, 1e-7)
        assert abs(t_n - math.cos(n * math.acos(x))) <= 1e-12
        assert abs(approx - t_n) <= 1e-5

    @pytest.mark.parametrize("n,x", [(1, 0.3), (2, 1.0), (3, 0.5), (5, -0.7)])
    def test_limit_matches(self, n, x):
        t_n, approx = chebyshev_limit_check(n, x, 1e-7)
        assert approx == pytest.approx(t_n, rel=1e-5, abs=1e-5)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_limit_check(0, 0.5, 1e-6)
        with pytest.raises(ValueError):
            chebyshev_limit_check(2, 0.5, 0.0)
