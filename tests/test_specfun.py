"""Gamma/digamma exact values and Macdonald-function evaluation."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import kv

from confeyn.exact import SymbolicCoeff
from confeyn import propagators
from confeyn.specfun import (MAX_ORDER, BesselEvalConfig, asym_coeff, bessel_k,
                             bessel_k_ladder, digamma_exact, gamma_exact)
from confeyn.propagators import Kinematics, gm_integral
from confeyn.cli import main
from bessel_oracles import bessel_k_branch

F = Fraction


class TestGammaExact:
    def test_integer_factorial(self):
        assert gamma_exact(4) == SymbolicCoeff.from_rational(6)
        assert gamma_exact(1) == SymbolicCoeff.one()

    def test_half_integer_values(self):
        assert gamma_exact(F(1, 2)) == SymbolicCoeff.monomial(pi_half=1)
        assert gamma_exact(F(5, 2)) == SymbolicCoeff.monomial(F(3, 4), pi_half=1)

    def test_functional_equation(self):
        z = F(1, 2)
        while z <= 20:
            assert gamma_exact(z + 1) == gamma_exact(z) * z
            z += F(1, 2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma_exact(0)
        with pytest.raises(ValueError):
            gamma_exact(F(-3, 2))
        with pytest.raises(ValueError):
            gamma_exact(F(1, 3))


class TestDigammaExact:
    def test_psi_one(self):
        assert digamma_exact(1) == -SymbolicCoeff.monomial(gamma=1)

    def test_psi_three(self):
        want = SymbolicCoeff.from_rational(F(3, 2)) - SymbolicCoeff.monomial(gamma=1)
        assert digamma_exact(3) == want

    def test_psi_half(self):
        want = (-SymbolicCoeff.monomial(gamma=1)
                - 2 * SymbolicCoeff.monomial(log2=1))
        assert digamma_exact(F(1, 2)) == want

    def test_recurrence(self):
        z = F(1, 2)
        while z <= 10:
            lhs = digamma_exact(z + 1)
            rhs = digamma_exact(z) + SymbolicCoeff.from_rational(1 / z)
            assert lhs == rhs
            z += F(1, 2)


class TestAsymCoeff:
    def test_base_case(self):
        for nu in (0, F(1, 2), 1, F(7, 2), 3):
            assert asym_coeff(nu, 0) == 1
            assert type(asym_coeff(nu, 0)) is Fraction

    def test_examples(self):
        assert asym_coeff(1, 1) == F(3, 4)
        assert asym_coeff(F(1, 2), 1) == 0

    def test_gamma_ratio_against_floats(self):
        for nu in (0, 1, 2, F(3, 2)):
            for ell in range(5):
                lower = nu - ell + F(1, 2)
                if lower.denominator == 1 and lower <= 0:
                    assert asym_coeff(nu, ell) == 0
                    continue
                want = math.gamma(float(nu) + ell + 0.5) / (
                    math.factorial(ell) * math.gamma(float(lower)))
                assert float(asym_coeff(nu, ell)) == pytest.approx(want, rel=1e-12)

    def test_half_integer_termination(self):
        # series for K_{n+1/2} stops after n+1 terms
        assert asym_coeff(F(5, 2), 3) == 0
        assert asym_coeff(F(5, 2), 2) != 0


class TestBesselK:
    def test_half_order_closed_form(self):
        for z in [0.1, 0.5, 1.0, 3.0, 7.5, 20.0]:
            want = math.sqrt(math.pi / (2 * z)) * math.exp(-z)
            assert bessel_k(0.5, z) == pytest.approx(want, rel=1e-12)

    def test_k32_closed_form(self):
        for z in [0.2, 1.0, 9.0]:
            want = math.sqrt(math.pi / (2 * z)) * math.exp(-z) * (1 + 1 / z)
            assert bessel_k(1.5, z) == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            bessel_k(1, 0.0)
        with pytest.raises(ValueError):
            bessel_k(1, -2.0)
        with pytest.raises(ValueError):
            bessel_k(-1.0, 1.0)

    def test_crossover_continuity(self):
        cfg = BesselEvalConfig()
        for nu in (0, 0.5, 1, 1.5, 1, 2, 3):
            zc = cfg.crossover(nu)
            a = bessel_k_branch(nu, zc, "series", cfg)
            b = bessel_k_branch(nu, zc, "asymptotic", cfg)
            assert abs(a - b) / abs(b) < 1e-8

    def test_asymptotic_branch_definitional(self):
        # the large-z branch equals the partial sum it is defined by
        cfg = BesselEvalConfig(asymptotic_terms=8)
        for nu in (0.0, 1.0, 2.0):
            z = 40.0
            partial = 0.0
            term = 1.0
            partial += term
            for ell in range(7):
                term *= (nu + ell + 0.5) * (nu - ell - 0.5) / (ell + 1)
                partial += term / (2 * z) ** (ell + 1)
            want = math.sqrt(math.pi / (2 * z)) * math.exp(-z) * partial
            assert bessel_k_branch(nu, z, "asymptotic", cfg) == pytest.approx(want, rel=1e-12, abs=0)

    def test_quadrature_oracle_identity(self):
        # K_1(2) from the heat-kernel representation of the D=4 kernel:
        # G_m(r) = (2 pi)^-2 m r^-1 K_1(m r) at m = 1, r = 2
        oracle = gm_integral(Kinematics.radial(4, 2.0, 1.0))
        k1 = oracle * (2 * math.pi) ** 2 * 2.0
        assert bessel_k(1, 2.0) == pytest.approx(k1, rel=1e-10)

    def test_general_real_order_rejected(self):
        # only integer and half-integer orders: (D-2)/2 and D-1 at integer D
        for nu in (0.25, 1.7, 2.5 + 1e-9):
            with pytest.raises(ValueError, match="integer or half-integer order"):
                bessel_k(nu, 2.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BesselEvalConfig(series_terms=0)
        with pytest.raises(ValueError):
            BesselEvalConfig(crossover_z=-1.0)


HALF_ORDERS = [k / 2 for k in range(41)]  # 0, 1/2, ..., 20


class TestBesselKDouble:
    """The double-precision K_nu against scipy and mpmath oracles."""

    def test_grid_against_scipy(self):
        worst = 0.0
        for nu in HALF_ORDERS:
            for z in np.logspace(-3, math.log10(700.0), 400):
                want = kv(nu, z)
                if not (np.isfinite(want) and want >= np.finfo(float).tiny):
                    continue
                worst = max(worst, abs(bessel_k(nu, float(z)) - want) / want)
        assert worst <= 1e-13

    @pytest.mark.parametrize("nu", [0, 1, 2, 0.5, 2.5, 5, 7, 12, 19.5, 20])
    def test_spot_checks_against_mpmath(self, nu):
        # includes orders 0-2 just above z = 10, where the asymptotic partial
        # sum is off by 2e-11, and the 46 < z < 2 nu^2 window of integer nu >= 5,
        # where the 80-term series has not converged
        with mpmath.workdps(40):
            for z in (1e-3, 0.7, 1.999, 2.0, 2.001, 10.2, 11.0, 11.9, 47.0, 60.0,
                      80.0, 300.0, 699.0, 705.0):
                want = float(mpmath.besselk(nu, z))
                assert bessel_k(nu, z) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_underflow_is_zero(self):
        assert bessel_k(1, 5e4) == 0.0
        assert bessel_k(20, 1e300) == 0.0

    def test_overflow_is_inf(self):
        assert bessel_k(MAX_ORDER, 1e-3) == math.inf

    def test_rejects_non_finite_and_large_orders(self):
        for nu, z in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan),
                      (1.0, math.inf), (MAX_ORDER + 1, 1.0)):
            with pytest.raises(ValueError):
                bessel_k(nu, z)

    @pytest.mark.parametrize("nu", [0, 0.5, 3, 4.5])
    def test_ladder_matches_single_orders(self, nu):
        for z in (0.3, 2.0, 9.0, 720.0):
            ladder = bessel_k_ladder(nu, z, 4)
            assert [math.ldexp(*k) for k in ladder] == [bessel_k(nu + i, z) for i in range(5)]
            assert ladder == [bessel_k_ladder(nu + i, z, 0)[0] for i in range(5)]

    @pytest.mark.parametrize("nu", [0, 0.5, 1, 7.5, 40, 151.5, 400, 777, MAX_ORDER - 0.5,
                                    MAX_ORDER])
    def test_scaled_ladder_against_mpmath(self, nu):
        # mantissa * 2^exponent, also where K_nu is far outside the doubles
        # (K_1000(1e-3) is about 10^5564); past z = 700 e^-z is split as
        # 2^-k exp(k log 2 - z)
        for z in (*np.logspace(-3, math.log10(700.0), 9), 700.5, 2e3, 1e5, 1.4e6):
            mantissa, exponent = bessel_k_ladder(nu, float(z), 0)[0]
            want = _k_reference(nu, float(z))
            got = mpmath.ldexp(mpmath.mpf(mantissa), exponent)
            assert abs(got - want) <= 1e-13 * want, (nu, z, mantissa, exponent)

    def test_ladder_steps_stay_scaled(self):
        # K_0 .. K_1000 at z = 1e-3 in one ladder, each a finite mantissa
        ladder = bessel_k_ladder(0, 1e-3, MAX_ORDER)
        assert all(0.0 < m < math.inf for m, _ in ladder)
        assert ladder[0][1] == 0 and ladder[-1][1] > 1024
        for n in (250, 600, MAX_ORDER):
            want = _k_reference(n, 1e-3)
            assert abs(mpmath.ldexp(mpmath.mpf(ladder[n][0]), ladder[n][1]) - want) <= 1e-13 * want

    def test_ladder_rejects_general_order(self):
        with pytest.raises(ValueError):
            bessel_k_ladder(0.25, 1.0, 2)
        with pytest.raises(ValueError):
            bessel_k_ladder(1, 1.0, -1)


def _k_reference(nu, z):
    """K_nu(z) in mpmath at 40 digits: the upward recurrence from mpmath's
    K_0 and K_1, or the closed forms of K_1/2 and K_3/2.  mpmath's own
    besselk is slow or fails to converge for orders in the hundreds at z of
    about the order, and loses its digits at large half-integer orders."""
    with mpmath.workdps(40):
        z = mpmath.mpf(z)
        if nu % 1:
            a = mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.exp(-z)
            b = a * (1 + 1 / z)
        else:
            a, b = mpmath.besselk(0, z), mpmath.besselk(1, z)
        mu = nu % 1
        for i in range(round(nu - mu)):
            a, b = b, a + 2 * (mu + i + 1) / z * b
        return +a


def _gm_closed_form(D, m, r):
    nu = (D - 2) / 2
    return (2 * math.pi) ** (-D / 2) * m ** (D - 2) * (m * r) ** (-nu) * kv(nu, m * r)


class TestPropagatorRegressions:
    @pytest.mark.parametrize("D, r", [(16, 80.0), (12, 48.0)])
    def test_prop_eval_in_former_defect_window(self, D, r, capsys):
        assert main(["prop-eval", "--D", str(D), "--m", "1", "--r", str(r)]) == 0
        got = float(capsys.readouterr().out.split(":")[-1].rstrip("}\n"))
        assert got == pytest.approx(_gm_closed_form(D, 1.0, r), rel=1e-12, abs=0)

    @pytest.mark.parametrize("flags", [["--r", "inf"], ["--r", "nan"],
                                       ["--r", "1", "--m", "nan"],
                                       ["--D", "40", "--r", "1e-100"]])
    def test_prop_eval_bad_floats_exit_2(self, flags, capsys):
        argv = ["prop-eval", "--D", "4", "--m", "1", "--r", "1"] + flags
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @staticmethod
    def ladder_arguments(monkeypatch) -> list:
        """The z of every bessel_k_ladder call the propagators make; a
        bessel_k call fails."""
        args = []

        def counting(nu, z, steps):
            args.append(z)
            return bessel_k_ladder(nu, z, steps)

        def no_single_order(nu, z):
            raise AssertionError("kernel called bessel_k")

        monkeypatch.setattr(propagators, "bessel_k_ladder", counting)
        monkeypatch.setattr(propagators, "bessel_k", no_single_order, raising=False)
        return args

    @pytest.mark.parametrize("D", [3, 4, 5, 6, 7, 8])
    def test_boson_one_ladder_per_argument(self, D, monkeypatch):
        args = self.ladder_arguments(monkeypatch)
        x = (0.8, -0.3) + (0.2,) * (D - 2)
        propagators.boson_propagator(Kinematics(D, x, 1.3), 1.7, 0, 1)
        assert len(args) == len(set(args)) == 2

    @pytest.mark.parametrize("D", [4, 6, 8])
    def test_dirac_one_ladder(self, D, monkeypatch):
        args = self.ladder_arguments(monkeypatch)
        x = (0.8, -0.3) + (0.2,) * (D - 2)
        propagators.dirac_propagator(Kinematics(D, x, 1.3))
        assert len(args) == 1
