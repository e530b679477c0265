"""Propagator evaluations against their independent oracles."""

import math
import sys
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate
from operator import mul

import pytest

from confeyn.propagators import (BOSON_ROUNDING_LIMIT, ComplexPhase, DiagonalError,
                                 QUADRATURE_TARGET, Kinematics, QuadratureError,
                                 boson_propagator, diag_continuation,
                                 dirac_propagator, g0_complex, g0_real,
                                 gm_complex, gm_integral, gm_real)
from propagator_oracles import helmholtz_residual

GRID = [(D, m, r) for D in (3, 4, 6) for m in (0.5, 1.0, 2.0) for r in (0.25, 1.0, 4.0)]


class TestMassless:
    def test_examples(self):
        assert g0_real(Kinematics.radial(4, 1.0)) == 1.0
        assert g0_real(Kinematics.radial(4, 2.0)) == 0.25
        assert g0_real(Kinematics.radial(6, 2.0)) == pytest.approx(1 / 16)

    def test_diagonal_rejected(self):
        with pytest.raises(DiagonalError):
            g0_real(Kinematics(4, (0.0, 0.0, 0.0, 0.0)))

    def test_harmonicity_fd(self):
        for D in (3, 4, 6):
            k = Kinematics.radial(D, 1.0, 0.0)
            assert helmholtz_residual(k, 2e-4) < 1e-5


class TestMassive:
    def test_d3_closed_form(self):
        for m in (0.5, 1.0, 2.0):
            for r in (0.3, 1.0, 5.0):
                want = math.exp(-m * r) / (4 * math.pi * r)
                got = gm_real(Kinematics.radial(3, r, m))
                assert abs(got - want) / want < 1e-12

    @pytest.mark.parametrize("D,m,r", GRID)
    def test_integral_representation_oracle(self, D, m, r):
        k = Kinematics.radial(D, r, m)
        direct = gm_real(k)
        oracle = gm_integral(k)
        assert abs(direct - oracle) / abs(oracle) < 1e-8

    @pytest.mark.parametrize("D,m,r", GRID)
    def test_scaling_law(self, D, m, r):
        lhs = gm_real(Kinematics.radial(D, r, m))
        rhs = m ** (D - 2) * gm_real(Kinematics.radial(D, m * r, 1.0))
        assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_small_mass_limit(self):
        for lam in (1, 2, 3):
            D = 2 * lam + 2
            got = ((2 * math.pi) ** (lam + 1)
                   * gm_real(Kinematics.radial(D, 1.0, 1e-4)))
            want = 2 ** (lam - 1) * math.factorial(lam - 1)
            assert abs(got - want) / want < 1e-6

    def test_monotone_decay(self):
        for D, m in [(3, 0.5), (4, 1.0), (6, 2.0)]:
            values = [gm_real(Kinematics.radial(D, r, m))
                      for r in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]]
            assert all(a > b > 0 for a, b in zip(values, values[1:]))

    def test_decay_to_zero_with_bound(self):
        # Cauchy-Schwarz bound from the heat-kernel representation
        D, m = 4, 1.0
        prev = math.inf
        for r in (2.0, 4.0, 8.0, 16.0):
            v = gm_integral(Kinematics.radial(D, r, m))
            bound_sq = (2 ** (D - 1) / (4 * math.pi) ** D
                        * math.factorial(D - 2) / (2 * m * m) * r ** (-2 * D + 2))
            assert v < prev
            assert v * v <= bound_sq
            prev = v

    @pytest.mark.parametrize("m", [1e-100, 1e-150])
    def test_quadrature_converges_across_a_wide_span(self, m):
        # the step spanned the whole window: both masses raised QuadratureError
        # (estimates 1.9e-3 and 3.1e-2) with the default 1600 points
        k = Kinematics.radial(4, 1.0, m)
        assert abs(gm_integral(k) - gm_real(k)) / gm_real(k) < QUADRATURE_TARGET

    def test_quadrature_failure_reports_estimate(self):
        k = Kinematics.radial(4, 1.0, 1.0)
        with pytest.raises(QuadratureError) as err:
            gm_integral(k, points=8)
        assert err.value.estimate > 0

    def test_squares_and_value_outside_the_doubles_refused(self):
        # m^2 = 0 raised ZeroDivisionError, a subnormal m^2 printed nan,
        # r^2 = inf a math domain error, and m r = 1e40 printed 0
        for r, m in ((1.0, 1e-170), (1.0, 1e-160), (1e300, 1.0), (1e-300, 1.0)):
            with pytest.raises(ValueError, match="inside the normal doubles"):
                gm_integral(Kinematics.radial(4, r, m))
        with pytest.raises(ValueError, match="outside the normal doubles"):
            gm_integral(Kinematics.radial(4, 1e20, 1e20))

    @pytest.mark.parametrize("points", [1, -4, 2.5])
    def test_quadrature_needs_two_integer_points(self, points):
        # 1 (and 0) raised ZeroDivisionError, -4 returned -0.0
        with pytest.raises(ValueError, match="integer points >= 2"):
            gm_integral(Kinematics.radial(4, 1.0, 1.0), points)

    def test_diagonal_rejected_every_dimension(self):
        for D in (3, 4, 5, 6):
            with pytest.raises(DiagonalError):
                gm_real(Kinematics(D, (0.0,) * D, 1.0))

    def test_diag_continuation_odd_only(self):
        want = (4 * math.pi) ** -1.5 * 2.0 * math.gamma(-0.5)
        assert diag_continuation(3, 2.0) == pytest.approx(want, rel=1e-14)
        with pytest.raises(DiagonalError):
            diag_continuation(4, 1.0)
        for D, m in ((1, 1.0), (3.0, 1.0), (3, 0.0), (3, math.inf)):
            with pytest.raises(ValueError):
                diag_continuation(D, m)

    def test_diag_continuation_against_mpmath(self):
        # every odd D up to 401, m from 1e-3 to 1e3: within 1e-13 wherever the
        # value is a normal double (2.29e-195 at D 401, m 10), ValueError
        # elsewhere (4.70e-500 at D 345, m 1)
        import mpmath
        masses = [10.0 ** (k / 4) for k in range(-12, 13)]
        with mpmath.workdps(40):
            for D in range(3, 402, 2):
                for m in masses:
                    want = (4 * mpmath.pi) ** (-mpmath.mpf(D) / 2) * mpmath.mpf(m) ** (D - 2) \
                        * mpmath.gamma(1 - mpmath.mpf(D) / 2)
                    if sys.float_info.min <= abs(want) <= sys.float_info.max:
                        assert diag_continuation(D, m) == pytest.approx(float(want), rel=1e-13, abs=0)
                    else:
                        with pytest.raises(ValueError, match="outside the normal doubles"):
                            diag_continuation(D, m)


class TestHelmholtz:
    def test_pde_residual(self):
        k = Kinematics.radial(3, 1.0, 1.0)
        assert helmholtz_residual(k, 1e-3) < 1e-5

    def test_residual_second_order(self):
        for D, m in [(3, 1.0), (4, 1.0), (4, 0.0)]:
            k = Kinematics.radial(D, 1.0, m)
            r1 = helmholtz_residual(k, 1e-3)
            r2 = helmholtz_residual(k, 5e-4)
            assert r1 / r2 == pytest.approx(4.0, rel=0.02)

    def test_step_validation(self):
        k = Kinematics.radial(4, 1.0, 1.0)
        with pytest.raises(ValueError):
            helmholtz_residual(k, 0.5)


class TestComplexCase:
    def test_phase_metadata(self):
        phase = g0_complex(Kinematics.radial(4, 1.0))
        # -(2)!/(2 pi i)^4 = -2/(2 pi)^4: i_power 2 encodes the minus sign
        assert isinstance(phase, ComplexPhase)
        assert phase.i_power == (2 - 4) % 4 == 2
        assert phase.magnitude == pytest.approx(2 / (2 * math.pi) ** 4, rel=1e-14)
        value = phase.magnitude * 1j ** phase.i_power
        assert value == pytest.approx(-2 / (2 * math.pi) ** 4)

    @pytest.mark.parametrize("D", [100, 160, 172, 173, 200, 400])
    def test_g0_complex_magnitude_against_mpmath(self, D):
        # past D = 172 the factorial alone is beyond the doubles, and at
        # r = 10 the power r^(2-2D) underflows from D = 160 on
        import mpmath
        with mpmath.workdps(40):
            for r in (0.1, 0.5, 1.0, 3.0, 10.0, 100.0):
                want = (mpmath.factorial(D - 2) * (2 * mpmath.pi) ** -D
                        * mpmath.mpf(r) ** (2 - 2 * D))
                k = Kinematics.radial(D, r)
                if not sys.float_info.min <= want <= sys.float_info.max:
                    with pytest.raises(ValueError, match="outside the normal doubles"):
                        g0_complex(k)
                    continue
                phase = g0_complex(k)
                assert phase.i_power == (2 - D) % 4
                assert abs(phase.magnitude - want) <= 1e-12 * want, (D, r)

    def test_g0_complex_keeps_the_product_where_it_is_normal(self):
        # every magnitude the three-factor product gives as a normal double
        # comes out bit for bit as that product
        for D in range(3, 172):
            for r in (0.3, 1.0, 2.5, 10.0):
                product = math.factorial(D - 2) * (2 * math.pi) ** (-D) * r ** (2 - 2 * D)
                power = r ** (2 - 2 * D)
                if min(product, power) >= sys.float_info.min and product <= sys.float_info.max:
                    assert g0_complex(Kinematics.radial(D, r)).magnitude == product

    def test_gm_complex_formula(self):
        from confeyn.specfun import bessel_k
        D, m, r = 2 + 1, 1.3, 0.8  # D=3: nu = 2
        want = (2 * math.pi) ** -3 * m ** 2 * r ** -2 * bessel_k(2, m * r)
        assert gm_complex(Kinematics.radial(3, r, m)) == pytest.approx(want, rel=1e-14)

    def test_gm_complex_matches_real_at_doubled_dimension(self):
        # the complex kernel in dimension D coincides with the real kernel in
        # dimension 2D: same Macdonald order D-1 and same normalization
        for D, m, r in [(3, 1.0, 1.5), (4, 0.7, 2.0)]:
            ratio = (gm_complex(Kinematics.radial(D, r, m))
                     / gm_real(Kinematics.radial(2 * D, r, m)))
            assert ratio == pytest.approx(1.0, rel=1e-12)


def _reference(kind: str, D: int, r, m):
    """The value of a real or complex kernel in mpmath."""
    import mpmath
    r, m = mpmath.mpf(r), mpmath.mpf(m)
    if kind == "g0":
        return r ** (2 - D)
    if kind == "gm":
        nu = mpmath.mpf(D - 2) / 2
        return (2 * mpmath.pi) ** (-mpmath.mpf(D) / 2) * m ** (D - 2) * (m * r) ** -nu \
            * mpmath.besselk(nu, m * r)
    return (2 * mpmath.pi) ** -D * m ** (D - 1) * r ** (1 - D) * mpmath.besselk(D - 1, m * r)


@lru_cache(maxsize=None)
def _radial_reference(D: int, M: float, r: float):
    """(G, G', G'') of the real kernel G(r) at mass M in mpmath, from
    K_nu'(z) = -(K_{nu-1} + K_{nu+1})/2 rather than the dimension shift."""
    import mpmath
    lam, M, r = mpmath.mpf(D - 2) / 2, mpmath.mpf(M), mpmath.mpf(r)
    k = {i: mpmath.besselk(lam + i, M * r) for i in range(-2, 3)}
    k0, k1, k2 = k[0], -(k[-1] + k[1]) / 2, (k[-2] + 2 * k[0] + k[2]) / 4
    c = (2 * mpmath.pi) ** (-mpmath.mpf(D) / 2) * M ** lam
    return (c * r ** -lam * k0,
            c * (-lam * r ** (-lam - 1) * k0 + r ** -lam * M * k1),
            c * (lam * (lam + 1) * r ** (-lam - 2) * k0 - 2 * lam * r ** (-lam - 1) * M * k1
                 + r ** -lam * M * M * k2))


VECTOR_DIRECTION = (0.6, 0.8)  # x = r (0.6, 0.8, 0, ...): every (mu, nu) below is non-zero


def _vector_checks(kind: str, D: int, r: float, m: float):
    """(call, value, scale) of each Dirac coefficient, or each boson component
    over alpha and (mu, nu), with its mpmath value and the scale of its terms."""
    import mpmath
    if kind == "dirac":
        g, gp, _ = _radial_reference(D, math.sqrt(m), r)
        k = Kinematics.radial(D, r, m)
        a, b = -gp / r, m * g
        return [(lambda: dirac_propagator(k).a, a, a), (lambda: dirac_propagator(k).b, b, b)]
    x = tuple(c * r for c in VECTOR_DIRECTION) + (0.0,) * (D - 2)
    k = Kinematics(D, x, m)

    def dd(M, mu, nu):  # d_mu d_nu G = delta G'/r + x_mu x_nu (G'' - G'/r)/r^2
        _, gp, gpp = _radial_reference(D, M, k.r)
        return ((gp / k.r if mu == nu else 0)
                + mpmath.mpf(x[mu]) * x[nu] * (gpp - gp / k.r) / k.r ** 2)

    g = _radial_reference(D, math.sqrt(m), k.r)[0]
    checks = []
    for alpha in (0.5, 1.5):
        for mu, nu in ((0, 0), (1, 1), (0, 1)):
            d1, d2 = dd(math.sqrt(m), mu, nu), dd(math.sqrt(m / alpha), mu, nu)
            value = (g if mu == nu else 0) + (d2 - d1) / m ** 2
            scale = abs(g) + (abs(d1) + abs(d2)) / m ** 2
            checks.append((partial(boson_propagator, k, alpha, mu, nu), value, scale))
    return checks


def _product(kind: str, D: int, r: float, m: float) -> tuple[list[float], float]:
    """The factors and the product of the plain double formula of a kernel."""
    from confeyn.specfun import bessel_k
    if kind == "g0":
        factors = [r ** (2 - D)]
    elif kind == "gm":
        nu = (D - 2) / 2.0
        factors = [(2 * math.pi) ** (-D / 2.0), m ** (D - 2), (m * r) ** (-nu),
                   bessel_k(nu, m * r)]
    else:  # the real kernel at dimension 2D
        factors = [(2 * math.pi) ** (-D), m ** (2 * D - 2), (m * r) ** (1 - D),
                   bessel_k(D - 1, m * r)]
    return factors, math.prod(factors)


KERNELS = {"g0": g0_real, "gm": gm_real, "gm-complex": gm_complex}


def _normal(x) -> bool:
    return sys.float_info.min <= abs(x) <= sys.float_info.max


class TestDoubleRange:
    @pytest.mark.parametrize("kind, D", [("g0", 100), ("g0", 400), ("g0", 2000),
                                         ("gm", 4), ("gm", 100), ("gm", 300), ("gm", 600),
                                         ("gm-complex", 3), ("gm-complex", 100),
                                         ("gm-complex", 200),
                                         *((kind, D) for kind in ("dirac", "boson")
                                           for D in (4, 100, 300, 400, 600))])
    def test_magnitude_against_mpmath(self, kind, D):
        # a ValueError exactly where the value is outside the normal doubles,
        # never a silent 0, inf or nan; where only K_nu is, the value prints
        import mpmath
        with mpmath.workdps(40):
            for r in (0.1, 1.0, 3.0, 10.0, 100.0):
                for m in ((0.0,) if kind == "g0" else (0.5, 2.0)):
                    if kind in ("dirac", "boson"):
                        self.check_vector_kernel(kind, D, r, m)
                        continue
                    want = _reference(kind, D, r, m)
                    k = Kinematics.radial(D, r, m)
                    if not _normal(want):
                        with pytest.raises(ValueError, match="outside the normal doubles"):
                            KERNELS[kind](k)
                        continue
                    assert abs(KERNELS[kind](k) - want) <= 1e-11 * want, (kind, D, r, m)

    @staticmethod
    def check_vector_kernel(kind, D, r, m):
        # a normal value within 1e-12 of its term scale, else a ValueError
        for call, want, scale in _vector_checks(kind, D, r, m):
            if not _normal(want):
                with pytest.raises(ValueError, match="outside the normal doubles"):
                    call()
                continue
            got = call()
            assert abs(got - want) <= 1e-12 * scale, (kind, D, r, m, got, want)

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_keeps_the_product_where_it_is_normal(self, kind):
        # bit for bit wherever every factor and partial product is normal
        for D in range(3, 200, 7):
            for r in (0.3, 1.0, 2.5, 10.0):
                for m in ((0.0,) if kind == "g0" else (0.5, 1.7)):
                    factors, product = _product(kind, D, r, m)
                    if all(map(_normal, (*factors, *accumulate(factors, mul)))):
                        assert KERNELS[kind](Kinematics.radial(D, r, m)) == product

    @pytest.mark.parametrize("kind, D", [("gm", 22), ("gm", 101), ("gm-complex", 12),
                                         ("gm-complex", 60)])
    def test_tiny_masses_against_mpmath(self, kind, D):
        # below z = m r of about 1e-154 one K_nu ladder step overflowed to inf
        import mpmath
        with mpmath.workdps(40):
            for m in (1e-155, 1e-160, 1e-230, 1e-300):
                for r in (0.5, 1.0, 3.0):
                    want = _reference(kind, D, r, m)
                    got = KERNELS[kind](Kinematics.radial(D, r, m))
                    assert abs(got - want) <= 1e-12 * want, (kind, D, r, m)

    def test_dirac_and_boson_refuse_non_finite_values(self):
        # mpmath: a = 3.2e+882 and the (0, 0) component 8.1e+881
        k = Kinematics.radial(1000, 1.0, 1.0)
        with pytest.raises(ValueError, match="outside the normal doubles"):
            dirac_propagator(k)
        with pytest.raises(ValueError, match="outside the normal doubles"):
            boson_propagator(k, 2.0, 0, 0)

    def test_scaled_product_keeps_double_accuracy(self):
        # 23.7^598 and 350.76^-299 leave the doubles; the product in summed
        # logarithms was 2.8e-13 from mpmath's value of the same formula at
        # the same double z = m r and 2 pi
        import mpmath
        D, r, m = 300, 14.8, 23.7
        nu, z = D - 1, m * r
        with mpmath.workdps(60):
            want = (mpmath.mpf(2 * math.pi) ** (-1 - nu) * mpmath.mpf(m) ** (2 * nu)
                    * mpmath.mpf(z) ** -nu * mpmath.besselk(nu, z))
            assert abs(gm_complex(Kinematics.radial(D, r, m)) - want) <= 1e-14 * want


class TestDirac:
    def test_b_is_mass_times_scalar_kernel(self):
        for D, m, r in [(4, 1.3, 1.5), (6, 0.7, 0.9)]:
            dc = dirac_propagator(Kinematics.radial(D, r, m))
            want = m * gm_real(Kinematics.radial(D, r, math.sqrt(m)))
            assert dc.b == pytest.approx(want, rel=1e-12)

    def test_a_matches_derivative_oracle(self):
        # -i dslash G contributes -G'(r)/r on the i gamma.x structure
        D, m, r = 4, 1.3, 1.5
        dc = dirac_propagator(Kinematics.radial(D, r, m))
        h = 1e-3
        g = lambda rr: gm_real(Kinematics.radial(D, rr, math.sqrt(m)))
        gp = (g(r + h) - g(r - h)) / (2 * h)
        assert dc.a == pytest.approx(-gp / r, rel=1e-5)

    def test_componentwise_gradient_oracle(self):
        D, m = 4, 1.1
        x = (0.8, -0.4, 0.3, 0.1)
        dc = dirac_propagator(Kinematics(D, x, m))
        h = 1e-4
        for mu in range(D):
            xp = list(x); xp[mu] += h
            xm = list(x); xm[mu] -= h
            grad = (gm_real(Kinematics(D, tuple(xp), math.sqrt(m)))
                    - gm_real(Kinematics(D, tuple(xm), math.sqrt(m)))) / (2 * h)
            assert grad == pytest.approx(-dc.a * x[mu], rel=1e-5)

    def test_decay_at_infinity(self):
        small = dirac_propagator(Kinematics.radial(4, 30.0, 1.0))
        assert abs(small.a) < 1e-8 and abs(small.b) < 1e-8

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            dirac_propagator(Kinematics.radial(5, 1.0, 1.0))


class TestBoson:
    def test_feynman_type_gauge(self):
        k = Kinematics(4, (1.0, 0.2, -0.3, 0.5), 1.2)
        scalar = gm_real(Kinematics(4, k.x, math.sqrt(1.2)))
        for mu in range(4):
            for nu in range(4):
                want = scalar if mu == nu else 0.0
                assert boson_propagator(k, 1.0, mu, nu) == pytest.approx(want, abs=1e-15)

    def test_off_diagonal_symmetry_zero(self):
        k = Kinematics(4, (1.0, 0.0, 0.0, 0.0), 1.0)
        assert boson_propagator(k, 2.0, 1, 2) == 0.0

    def test_finite_difference_oracle(self):
        D, m, alpha = 4, 1.0, 2.0
        x = (1.0, 0.0, 0.0, 0.0)
        k = Kinematics(D, x, m)
        h = 1e-3
        m1, m2 = math.sqrt(m), math.sqrt(m / alpha)

        def scal(pt, mass):
            return gm_real(Kinematics(D, tuple(pt), mass))

        def dd(mass, mu, nu):
            if mu == nu:
                xp = list(x); xp[mu] += h
                xm = list(x); xm[mu] -= h
                return (scal(xp, mass) - 2 * scal(x, mass) + scal(xm, mass)) / h ** 2
            out = 0.0
            for s1 in (1, -1):
                for s2 in (1, -1):
                    xx = list(x)
                    xx[mu] += s1 * h
                    xx[nu] += s2 * h
                    out += s1 * s2 * scal(xx, mass)
            return out / (4 * h ** 2)

        for mu, nu in [(1, 1), (0, 0), (0, 1)]:
            fd = (1.0 if mu == nu else 0.0) * scal(x, m1) \
                + (dd(m2, mu, nu) - dd(m1, mu, nu)) / m ** 2
            got = boson_propagator(k, alpha, mu, nu)
            scale = max(abs(fd), abs(scal(x, m1)))
            assert abs(got - fd) / scale < 1e-5

    def test_small_mass_prints_near_mpmath_or_refuses(self):
        # (h - g)/m^2 cancels as m -> 0: at m = 1e-20 the (0, 1) component
        # printed -1.64e23 where mpmath gives +6.08e17.  The refusal bound is
        # eps times the terms' magnitudes, and each kernel value carries a few
        # ulps, so a printed value is held to 10 times the limit
        import mpmath
        printed = refused = 0
        with mpmath.workdps(40):
            for D in (4, 6, 12):
                for m in (1e-1, 1e-3, 1e-5, 10 ** -5.5, 1e-6, 1e-20):
                    for call, want, _ in _vector_checks("boson", D, 1.0, m):
                        try:
                            got = call()
                        except ValueError as exc:
                            assert "rounding" in str(exc), exc
                            refused += 1
                            continue
                        assert abs(got - want) <= 10 * BOSON_ROUNDING_LIMIT * abs(want), (D, m)
                        printed += 1
        assert printed and refused

    def test_underflowing_mass_square_refused(self):
        k = Kinematics(4, (0.6, 0.8, 0.0, 0.0), 1e-170)
        with pytest.raises(ValueError, match="m\\^2, which underflows"):
            boson_propagator(k, 2.0, 0, 1)
        # alpha = 1 divides by nothing
        assert boson_propagator(k, 1.0, 0, 0) == gm_real(Kinematics(4, k.x, math.sqrt(1e-170)))

    def test_validation(self):
        k = Kinematics(4, (1.0, 0.0, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            boson_propagator(k, -1.0, 0, 0)
        with pytest.raises(ValueError):
            boson_propagator(k, 1.0, 0, 9)
        for alpha in (math.nan, math.inf):
            # nan failed inside bessel_k, inf with "z > 0"
            with pytest.raises(ValueError, match="alpha must be finite and positive"):
                boson_propagator(k, alpha, 0, 0)


class TestKinematics:
    def test_validation(self):
        with pytest.raises(ValueError):
            Kinematics(2, (1.0, 0.0))
        with pytest.raises(ValueError):
            Kinematics(3, (1.0, 0.0, 0.0), -1.0)
        for x, m in (((math.inf, 0.0, 0.0), 1.0), ((1.0, math.nan, 0.0), 1.0),
                     ((1.0, 0.0, 0.0), math.nan), ((1.0, 0.0, 0.0), math.inf)):
            with pytest.raises(ValueError):
                Kinematics(3, x, m)

    def test_distance_without_squaring(self):
        # sqrt(sum x^2) underflowed to 0 below about 1e-154 and overflowed to
        # inf above about 1e154; a radial distance is returned as given
        for r in (1e-300, 1e-200, 0.7, 1e200, 1e300):
            assert Kinematics.radial(5, r).r == r
        assert Kinematics(3, (3e-200, -4e-200, 0.0)).r == pytest.approx(5e-200, rel=1e-15)
        assert Kinematics(3, (3e200, 4e200, 0.0)).r == pytest.approx(5e200, rel=1e-15)
        huge = Kinematics(3, (1.5e308, 1.5e308, 0.0))
        assert huge.r == math.inf
        for kernel in (g0_real, g0_complex):
            with pytest.raises(ValueError, match="beyond the doubles"):
                kernel(huge)

    def test_lambda(self):
        assert Kinematics.radial(4, 1.0).lam == Fraction(1)
        assert Kinematics.radial(3, 1.0).lam == Fraction(1, 2)
