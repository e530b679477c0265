"""Amplitude expansions: exact coefficients, numeric truncations, resummation.

The resummation oracle expands (1 - 2 u c + u^2)^a directly through the
generalized binomial series in Y = u^2 - 2 u c (and log(1+Y) for the log
factor), entirely independent of the Gegenbauer re-projection / Chebyshev /
linearization route used by the implementation, and compares exactly.
"""

import math
import random
from fractions import Fraction

import pytest

from amplitude_oracles import (edge_asymptotic_terms, edge_gegenbauer_terms,
                               edge_taylor_terms, expansion_value,
                               half_integer_taylor_scalar, separation, taylor_term_value)
from confeyn import amplitude
from confeyn.amplitude import (DivergentRatioError, EdgeGeometry,
                               GegenExpansion, TruncationOrders,
                               amplitude_truncated_eval, asymptotic_term_coefficient,
                               complex_case_weight,
                               edge_asymptotic_value, edge_gegenbauer_expansion,
                               edge_gegenbauer_value, edge_taylor_value,
                               taylor_term_coefficient, two_pi_power)
from confeyn.exact import SymbolicCoeff
from confeyn.feyngraph import FeynmanGraph
from confeyn.gegenbauer import gegenbauer_coeffs
from confeyn.propagators import Kinematics, gm_real

F = Fraction


# -- independent bivariate series oracles -------------------------------------


def binomial_series(exponent: Fraction, radial_order: int) -> dict[tuple[int, int], Fraction]:
    """(1 + Y)^exponent with Y = u^2 - 2 u c, as {(u_pow, c_pow): coeff}."""
    out: dict[tuple[int, int], Fraction] = {}
    binom = Fraction(1)
    for k in range(radial_order + 1):
        if binom:
            for i in range(k + 1):
                upow = 2 * i + (k - i)
                if upow > radial_order:
                    continue
                key = (upow, k - i)
                c = binom * math.comb(k, i) * Fraction(-2) ** (k - i)
                out[key] = out.get(key, Fraction(0)) + c
        binom = binom * (exponent - k) / (k + 1)
    return {k: v for k, v in out.items() if v}


def half_log_series(radial_order: int) -> dict[tuple[int, int], Fraction]:
    """(1/2) log(1 + Y) with Y = u^2 - 2 u c."""
    out: dict[tuple[int, int], Fraction] = {}
    for k in range(1, radial_order + 1):
        base = Fraction((-1) ** (k + 1), 2 * k)
        for i in range(k + 1):
            upow = 2 * i + (k - i)
            if upow > radial_order:
                continue
            key = (upow, k - i)
            c = base * math.comb(k, i) * Fraction(-2) ** (k - i)
            out[key] = out.get(key, Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def series_product(a, b, radial_order):
    out: dict[tuple[int, int], Fraction] = {}
    for (u1, c1), v1 in a.items():
        for (u2, c2), v2 in b.items():
            if u1 + u2 > radial_order:
                continue
            key = (u1 + u2, c1 + c2)
            out[key] = out.get(key, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def tensor_to_cos_powers(tensor, lam) -> dict[tuple[int, int], SymbolicCoeff]:
    """Expand Gegenbauer degrees into powers of cos, exactly."""
    out: dict[tuple[int, int], SymbolicCoeff] = {}
    for (n, d), coeff in tensor.items():
        for p, a in gegenbauer_coeffs(lam, d).items():
            key = (n, p)
            prev = out.get(key, SymbolicCoeff.zero())
            acc = prev + coeff * a
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def as_symbolic(series) -> dict[tuple[int, int], SymbolicCoeff]:
    return {k: SymbolicCoeff.from_rational(v) for k, v in series.items()}


def outer_mass(exp: GegenExpansion, m: float) -> float:
    """The term coefficient prefactor * m^k of ``exp``, k = rho_exponent + 2 lam."""
    return float(exp.prefactor) * m ** float(exp.rho_exponent + 2 * exp.lam)


def bare_value(exp: GegenExpansion, geom: EdgeGeometry, m: float) -> float:
    """The value of ``exp`` without its term coefficient (the prefactor)."""
    return expansion_value(exp, geom, m) / outer_mass(exp, m)


def full_entries(exp: GegenExpansion) -> list[SymbolicCoeff]:
    """Complete coefficients (prefactor folded in) of every entry of the plain
    and log(rho) tensors."""
    return [exp.prefactor * c for c in (*exp.plain.values(), *exp.log_rho.values())]


# -- coefficient examples -------------------------------------------------------


class TestTaylorCoefficients:
    def test_power_branch_leading(self):
        # lam=1, ell=-1 (Laurent index 0): coefficient (2 pi)^-2 of r^-2
        t = taylor_term_coefficient(-1, 1)
        assert t.z_power == 0
        assert t.a == two_pi_power(-2)
        assert t.b.is_zero()

    def test_log_branch_leading(self):
        # lam=1, ell=0: the log coefficient of r^-2 z^2 is +(2 pi)^-2/2 (the
        # overall (-1/(2 pi))^(lam+1) is positive at lam = 1)
        t = taylor_term_coefficient(0, 1)
        assert t.z_power == 2
        want_b = two_pi_power(-2) * SymbolicCoeff.monomial(F(1, 2))
        assert t.b == want_b
        # constant part: b * (-log 2 - (psi(1)+psi(2))/2), psi sum = 1 - 2 gamma
        want_a = want_b * (-SymbolicCoeff.monomial(log2=1)
                           - SymbolicCoeff.from_rational(F(1, 2))
                           + SymbolicCoeff.monomial(gamma=1))
        assert t.a == want_a

    def test_massless_reduction(self):
        # at m = 0 only the ell = -lam term survives numerically
        lam, r = 2, 0.7
        lead = taylor_term_coefficient(-2, lam)
        assert taylor_term_value(lead, lam, r, 0.0) == pytest.approx(
            float(two_pi_power(-3)) * 2 ** 1 * 1 * r ** -4, rel=1e-14)
        higher = taylor_term_coefficient(-1, lam)
        assert taylor_term_value(higher, lam, r, 0.0) == 0.0

    def test_taylor_sum_converges_to_kernel(self):
        for lam in (1, 2, 3):
            D = 2 * lam + 2
            m, r = 0.1, 1.0
            direct = gm_real(Kinematics.radial(D, r, m))
            got = edge_taylor_value(lam, r, m, TruncationOrders(ell_max=20))
            assert abs(got - direct) / direct < 1e-10

    def test_half_integer_taylor(self):
        for lam, D in [(F(1, 2), 3), (F(3, 2), 5)]:
            m, r = 0.25, 0.8
            direct = gm_real(Kinematics.radial(D, r, m))
            got = edge_taylor_value(lam, r, m, TruncationOrders(ell_max=24))
            assert abs(got - direct) / direct < 1e-12

    def test_complex_case_via_weight_shift(self):
        # complex kernel in dimension D == real kernel at weight D - 1
        from confeyn.amplitude import complex_case_weight
        from confeyn.propagators import gm_complex
        D, m, r = 3, 0.2, 0.6
        lam = complex_case_weight(D)
        assert lam == F(2)
        direct = gm_complex(Kinematics.radial(D, r, m))
        got = edge_taylor_value(lam, r, m, TruncationOrders(ell_max=20))
        assert abs(got - direct) / direct < 1e-12

    def test_coefficients_are_cached(self):
        assert taylor_term_coefficient(1, 2) is taylor_term_coefficient(1, F(2))
        edge_taylor_value(2, 0.3, 0.8, TruncationOrders(ell_max=4))
        before = taylor_term_coefficient.cache_info()
        edge_taylor_value(2, 0.4, 0.8, TruncationOrders(ell_max=4))
        # a warm edge reads its cached kernel: no coefficient lookups
        assert taylor_term_coefficient.cache_info() == before

    @pytest.mark.parametrize("lam", [F(t, 2) for t in (1, 3, 5, 7, 9, 21, 51, 201, 799)], ids=str)
    def test_half_integer_running_ratio_equals_direct_sum(self, lam):
        ells = {-lam, -lam + F(1, 2), F(16)}
        if lam < 100:
            ells |= {-lam + 1, F(-1, 2), F(0), F(1, 2), F(7)}
        for ell in sorted(ells):
            term = taylor_term_coefficient(ell, lam)
            want = half_integer_taylor_scalar(lam, ell)
            assert term.a == want
            assert term.z_power == 2 * lam + 2 * ell and term.b.is_zero()

    def test_terms_are_free_of_the_mass(self):
        # every stored coefficient is a constant of the exact ring, whose keys
        # have no slot for m or log m: the mass enters only through z = m r
        def mass_free(c):
            return isinstance(c, SymbolicCoeff) and all(len(key) == 4 for key in c.terms)
        for lam in (F(1, 2), F(1), F(3, 2), F(4), F(21, 2)):
            for ell in amplitude._taylor_indices(lam, 4):
                term = taylor_term_coefficient(ell, lam)
                exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=2))
                assert all(map(mass_free, (term.a, term.b, exp.prefactor, exp.kappa)))
                assert term.z_power == 2 * (ell + lam)
            for ell in range(4):
                term = asymptotic_term_coefficient(ell, lam)
                assert mass_free(term.a) and term.b.is_zero()
                assert term.z_power == lam - ell - F(1, 2)

    def test_half_integer_has_no_log_branch(self):
        assert taylor_term_coefficient(F(1), F(1, 2)).b.is_zero()

    def test_laurent_branch_needs_integer_order(self):
        with pytest.raises(ValueError):
            taylor_term_coefficient(F(1, 2), 1)


class TestAsymptoticCoefficients:
    def test_leading_coefficient_uses_unit(self):
        # m^(1/2) r^(-3/2) = r^-2 z^(1/2)
        t = asymptotic_term_coefficient(0, 1)
        want = SymbolicCoeff.monomial(F(1, 2), sqrt2=1, pi_half=1) * two_pi_power(-2)
        assert t.a == want and t.b.is_zero()
        assert t.z_power == F(1, 2)

    def test_second_coefficient_proportional_to_three_quarters(self):
        t0 = asymptotic_term_coefficient(0, 1)
        t1 = asymptotic_term_coefficient(1, 1)
        # ratio of scalars: (1,1)/2 = 3/8, z exponent drops by one
        assert float(t1.a) / float(t0.a) == pytest.approx(3 / 8, rel=1e-14)
        assert t1.z_power == t0.z_power - 1

    def test_truncated_sum_matches_kernel_far_away(self):
        m, r = 1.0, 20.0
        direct = gm_real(Kinematics.radial(4, r, m))
        got = edge_asymptotic_value(1, r, m, TruncationOrders(asym_terms=6))
        assert abs(got - direct) / direct < 1e-8


# -- Gegenbauer expansions -------------------------------------------------------


class TestGegenExpansion:
    def test_massless_branch_unit_entries(self):
        exp = edge_gegenbauer_expansion(-1, 1, TruncationOrders(radial=8))
        for n in range(9):
            assert exp.plain[(n, n)] == SymbolicCoeff.one()
        assert not exp.log_rho

    def test_worked_value(self):
        # cos = 0, r/rho = 1/2, bare 1/sep^2 = 0.8/rho^2
        exp = edge_gegenbauer_expansion(-1, 1, TruncationOrders(radial=60))
        geom = EdgeGeometry(rho=1.0, r=0.5, cos=0.0)
        val = bare_value(exp, geom, 1.0)
        assert abs(val - 0.8) < 1e-10
        geom2 = EdgeGeometry(rho=3.0, r=1.5, cos=0.0)
        val2 = bare_value(exp, geom2, 1.0)
        assert abs(val2 - 0.8 / 9) < 1e-10

    def test_log_branch_pure_logrho_term(self):
        exp = edge_gegenbauer_expansion(0, 1, TruncationOrders(radial=6))
        assert exp.log_rho == {(0, 0): SymbolicCoeff.one()}

    def test_degree_bounded_by_radial_power(self):
        for ell, lam in [(-1, 1), (0, 1), (1, 2), (F(-1, 2), F(1, 2)),
                         (F(1, 2), F(1, 2)), (1, F(3, 2))]:
            exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=10))
            for (n, d) in list(exp.plain) + list(exp.log_rho):
                assert d <= n

    @pytest.mark.parametrize("ell,lam", [
        (-1, 1), (-2, 2), (-1, 2),
        (F(-1, 2), F(1, 2)), (F(-3, 2), F(3, 2)), (F(-1, 2), F(3, 2)),
        (F(1, 2), F(1, 2)), (1, F(1, 2)), (F(3, 2), F(3, 2)), (2, F(1, 2)),
    ])
    def test_resummation_power_branch(self, ell, lam):
        # tensor expanded to cos powers == direct binomial series, exactly
        radial = 9
        exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=radial))
        got = tensor_to_cos_powers(exp.plain, lam)
        want = as_symbolic(binomial_series(F(ell), radial))
        assert got == want

    @pytest.mark.parametrize("ell,lam", [(0, 1), (1, 1), (2, 2), (1, 3)])
    def test_resummation_log_branch(self, ell, lam):
        from confeyn.specfun import digamma_exact
        radial = 8
        exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=radial))
        poly = binomial_series(F(ell), radial)
        # log(rho) tensor carries the bare polynomial
        assert tensor_to_cos_powers(as_symbolic(exp.log_rho), lam) == as_symbolic(poly)
        # plain tensor, the bracket at m = 1:
        # poly * (-log 2 - psi-sum/2) + poly * (1/2) log(1+Y)
        k0 = (-SymbolicCoeff.monomial(log2=1)
              - F(1, 2) * (digamma_exact(ell + 1) + digamma_exact(lam + ell + 1)))
        want: dict[tuple[int, int], SymbolicCoeff] = {}
        for key, v in poly.items():
            want[key] = SymbolicCoeff.from_rational(v) * k0
        for key, v in series_product(poly, half_log_series(radial), radial).items():
            prev = want.get(key, SymbolicCoeff.zero())
            acc = prev + SymbolicCoeff.from_rational(v)
            if acc.is_zero():
                want.pop(key, None)
            else:
                want[key] = acc
        assert tensor_to_cos_powers(exp.plain, lam) == want

    def test_coefficient_field_structure(self):
        # integer lam: every fully-assembled entry has integer pi powers and
        # no sqrt(2); half-integer lam: entries stay in Q[sqrt(pi)^{+-1}]
        for ell, lam in [(-1, 1), (0, 1), (1, 2), (-2, 3)]:
            exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=6))
            for coeff in full_entries(exp):
                assert all(p % 2 == 0 for (*_, p), _ in coeff.terms.items())
                assert all(s == 0 for (*_, s, _), _ in coeff.terms.items())
        for ell, lam in [(F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2)), (1, F(3, 2))]:
            exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=6))
            for coeff in full_entries(exp):
                assert isinstance(coeff, SymbolicCoeff)  # lies in the sqrt(pi) ring
                assert all(s == 0 for (*_, s, _), _ in coeff.terms.items())

    def test_geometric_truncation_decay(self):
        # at u <= 1/2 the partial sums converge geometrically with per-order
        # rate <= 0.6 (individual deltas oscillate through the Gegenbauer
        # zeros, so the rate is measured as the long-run geometric mean)
        exp = edge_gegenbauer_expansion(-1, 1, TruncationOrders(radial=40))
        for cos in (0.9, 0.3, -0.5):
            geom = EdgeGeometry(rho=1.0, r=0.5, cos=cos)
            exact = 1.0 / separation(geom) ** 2
            errors = []
            for cap in range(4, 31):
                capped = GegenExpansion(
                    exp.lam, exp.rho_exponent, exp.prefactor, exp.kappa, {},
                    {k: v for k, v in exp.series.items() if k[0] <= cap}, cap)
                errors.append(abs(bare_value(capped, geom, 1.0) - exact))
            steps = len(errors) - 1
            rate = (errors[-1] / errors[0]) ** (1.0 / steps)
            assert rate <= 0.6
            # and the decreasing envelope never grows
            env = [max(errors[i:]) for i in range(len(errors))]
            assert all(a >= b for a, b in zip(env, env[1:]))

    def test_full_edge_value_matches_kernel(self):
        geom = EdgeGeometry(rho=1.0, r=0.5, cos=0.3)
        xs = (1.0, 0.0, 0.0, 0.0)
        xt = (0.5 * 0.3, 0.5 * math.sqrt(1 - 0.09), 0.0, 0.0)
        m = 0.05
        direct = gm_real(Kinematics(4, tuple(a - b for a, b in zip(xs, xt)), m))
        got = edge_gegenbauer_value(1, geom, m, TruncationOrders(radial=40, ell_max=12))
        assert abs(got - direct) / direct < 1e-10

    def test_serialization_shape(self):
        exp = edge_gegenbauer_expansion(0, 1, TruncationOrders(radial=3))
        doc = exp.to_json()
        assert set(doc) == {"lambda", "rho_exponent", "radial_order",
                            "prefactor", "plain", "log_rho"}
        assert all(set(e) == {"radial", "degree", "coeff"} for e in doc["plain"])


def reference_value(exp: GegenExpansion, geom: EdgeGeometry, m: float,
                    include_prefactor: bool = True) -> tuple[float, float]:
    """The series of ``exp`` summed entry by entry from the exact tensors,
    with scipy's Gegenbauer values (independent of the float rows), and the
    same sum over absolute values: the scale of the rounding of any order of
    summation.  Where the terms cancel, both sums are off by about 1e-16
    times the scale, which may be far above 1e-16 times the value."""
    from scipy.special import eval_gegenbauer
    u = geom.u if geom.rho else 0.0
    total = scale = 0.0
    # the plain entries at mass m: plain is the bracket at m = 1
    at_mass = {key: c.bind() + math.log(m) * float(exp.log_rho.get(key, 0))
               for key, c in exp.plain.items()}
    for tensor, factor in ((at_mass, 1.0), (exp.log_rho, math.log(geom.rho))):
        for (n, d), c in tensor.items():
            term = (float(c) * factor * u ** n
                    * eval_gegenbauer(d, float(exp.lam), geom.cos))
            total += term
            scale += abs(term)
    outer = geom.rho ** float(exp.rho_exponent)
    if include_prefactor:
        outer *= outer_mass(exp, m)
    return total * outer, scale * abs(outer)


def assert_matches_reference(got: float, exp: GegenExpansion, geom: EdgeGeometry,
                             m: float, include_prefactor: bool = True):
    want, scale = reference_value(exp, geom, m, include_prefactor)
    assert abs(got - want) <= 1e-13 * scale, (geom, include_prefactor, got, want)


# (ell, lam) per branch: log, negative power, zero, even and odd positive powers
EVAL_CASES = [
    (0, 1), (2, 1), (-1, 1), (1, 2), (-2, 2), (1, 3), (-3, 3),
    (F(-1, 2), F(1, 2)), (0, F(1, 2)), (1, F(1, 2)), (F(1, 2), F(1, 2)),
    (F(-3, 2), F(3, 2)), (F(3, 2), F(3, 2)), (2, F(3, 2)),
]


class TestFloatEvaluation:
    @pytest.mark.parametrize("ell,lam", EVAL_CASES)
    @pytest.mark.parametrize("gegen", [6, None])
    def test_matches_reference_sum(self, ell, lam, gegen):
        exp = edge_gegenbauer_expansion(ell, lam, TruncationOrders(radial=10, gegen=gegen))
        for u in (0.0, 0.3, 0.9):
            for cos in (-0.99, 0.3, 0.95):
                geom = EdgeGeometry(rho=1.3, r=1.3 * u, cos=cos)
                got = expansion_value(exp, geom, 0.7)
                assert_matches_reference(got, exp, geom, 0.7)
                assert_matches_reference(bare_value(exp, geom, 0.7), exp, geom, 0.7, False)

    def test_hand_built_capped_expansion(self):
        # a hand-built expansion evaluates its own tensors, not those of the
        # expansion it was cut from
        exp = edge_gegenbauer_expansion(1, 1, TruncationOrders(radial=10))
        geom = EdgeGeometry(rho=2.0, r=0.8, cos=0.95)
        full = expansion_value(exp, geom, 0.7)
        for cap in (0, 3, 7):
            capped = GegenExpansion(
                exp.lam, exp.rho_exponent, exp.prefactor, exp.kappa,
                {k: v for k, v in exp.log_rho.items() if k[0] <= cap},
                {k: v for k, v in exp.series.items() if k[0] <= cap}, cap)
            assert_matches_reference(expansion_value(capped, geom, 0.7), capped, geom, 0.7)
            assert expansion_value(capped, geom, 0.7) != full
        assert expansion_value(exp, geom, 0.7) == full

    def test_tensors_are_read_only(self):
        import dataclasses
        exp = edge_gegenbauer_expansion(-1, 1, TruncationOrders(radial=4))
        with pytest.raises(TypeError):
            exp.plain[(0, 0)] = SymbolicCoeff.zero()
        with pytest.raises(dataclasses.FrozenInstanceError):
            exp.plain = {}

    def test_edge_value_is_sum_of_term_references(self):
        lam, orders = F(3, 2), TruncationOrders(radial=8, ell_max=3)
        geom = EdgeGeometry(rho=1.1, r=0.4, cos=-0.95)
        refs = [reference_value(
            edge_gegenbauer_expansion(F(t, 2), lam, orders),
            geom, 0.9) for t in range(-3, 7)]
        want, scale = sum(v for v, _ in refs), sum(s for _, s in refs)
        got = edge_gegenbauer_value(lam, geom, 0.9, orders)
        assert abs(got - want) <= 1e-13 * scale

    def test_divergent_ratio_still_raised(self):
        exp = edge_gegenbauer_expansion(-1, 1, TruncationOrders(radial=4))
        for r in (1.0, 2.5):
            geom = EdgeGeometry(rho=r, r=r, cos=0.3)
            with pytest.raises(DivergentRatioError):
                expansion_value(exp, geom, 1.0)
            with pytest.raises(DivergentRatioError):
                edge_gegenbauer_value(1, geom, 1.0, TruncationOrders(radial=4, ell_max=1))


# weights of the kernel grid: both parities and the complex case of D = 5
KERNEL_WEIGHTS = [F(1, 2), F(1), F(3, 2), F(2), F(3), F(7, 2), complex_case_weight(5)]
# the probe and full sizes of the amplitude benchmark, and a capped set
KERNEL_ORDERS = [TruncationOrders(radial=10, ell_max=4), TruncationOrders(radial=12, ell_max=6),
                 TruncationOrders(radial=12, gegen=5, ell_max=3, asym_terms=10)]


def assert_near(got: float, want_scale: tuple[float, float]):
    want, scale = want_scale
    assert abs(got - want) <= 1e-13 * scale, (got, want, scale)


class TestEdgeKernels:
    """The compiled kernels against the term-by-term sums of
    ``amplitude_oracles``, within 1e-13 of the sum of absolute terms (the
    truncated series cancel at large m r, so a plain relative bound would
    measure the cancellation, not the kernel)."""

    @pytest.mark.parametrize("lam", KERNEL_WEIGHTS, ids=str)
    @pytest.mark.parametrize("orders", KERNEL_ORDERS, ids=("probe", "full", "capped"))
    def test_matches_term_sums(self, lam, orders):
        for m, r in ((0.7, 0.01), (1.3, 0.4), (0.8, 1.5), (2.0, 2.5), (1.0, 5.0)):
            assert_near(edge_taylor_value(lam, r, m, orders),
                        edge_taylor_terms(lam, r, m, orders))
            assert_near(edge_asymptotic_value(lam, r + 10, m, orders),
                        edge_asymptotic_terms(lam, r + 10, m, orders))
            for u in (0.0, 0.3, 0.9):
                for cos in (-0.99, 0.2, 0.95):
                    geom = EdgeGeometry(rho=r, r=u * r, cos=cos)
                    assert_near(edge_gegenbauer_value(lam, geom, m, orders),
                                edge_gegenbauer_terms(lam, geom, m, orders))

    def test_massless_edges(self):
        # half-integer lam at m = 0 keeps the leading, massless term; integer
        # lam has log m in its terms and refuses m = 0, as the term sums do
        orders = TruncationOrders(radial=8, ell_max=3)
        geom = EdgeGeometry(rho=1.2, r=0.5, cos=0.4)
        for lam in (F(1, 2), F(3, 2)):
            lead = taylor_term_coefficient(-lam, lam)
            massless = float(lead.a) * 0.7 ** float(-2 * lam)
            assert edge_taylor_value(lam, 0.7, 0.0, orders) == pytest.approx(massless, rel=1e-15)
            assert_near(edge_taylor_value(lam, 0.7, 0.0, orders),
                        edge_taylor_terms(lam, 0.7, 0.0, orders))
            assert_near(edge_gegenbauer_value(lam, geom, 0.0, orders),
                        edge_gegenbauer_terms(lam, geom, 0.0, orders))
        for lam in (1, 2):
            with pytest.raises(ValueError):
                edge_taylor_value(lam, 0.7, 0.0, orders)
            with pytest.raises(ValueError):
                edge_gegenbauer_value(lam, geom, 0.0, orders)
        with pytest.raises(ValueError):
            edge_asymptotic_value(1, 20.0, 0.0, orders)
        for value in (lambda: edge_taylor_value(F(1, 2), 0.7, -1.0, orders),
                      lambda: edge_gegenbauer_value(F(1, 2), geom, -1.0, orders)):
            with pytest.raises(ValueError, match="mass must be >= 0"):
                value()

    def test_edges_beyond_the_doubles_raise(self):
        # each of these once returned -inf or nan, or raised OverflowError
        orders = TruncationOrders(radial=6, ell_max=3, asym_terms=4)
        geom = EdgeGeometry(rho=1.0, r=0.3, cos=0.2)
        for value in (lambda: edge_taylor_value(F(1, 2), 0.9, 1e300, orders),
                      lambda: edge_taylor_value(1, 0.9, 1e300, orders),
                      lambda: edge_taylor_value(1, 0.9, math.inf, orders),
                      lambda: edge_asymptotic_value(1, 0.9, 1e300, orders),
                      lambda: edge_asymptotic_value(1, 0.9, math.inf, orders),
                      lambda: edge_gegenbauer_value(F(1, 2), geom, 1e300, orders)):
            with pytest.raises(ValueError):
                value()

    def test_invalid_lambda_is_never_cached(self):
        for _ in range(2):
            for lam in (0, F(1, 3), -1):
                with pytest.raises(ValueError):
                    edge_taylor_value(lam, 0.5, 1.0, TruncationOrders(ell_max=2))
                with pytest.raises(ValueError):
                    edge_gegenbauer_value(lam, EdgeGeometry(1.0, 0.5, 0.0), 1.0,
                                          TruncationOrders(radial=4, ell_max=1))

    def test_float_weights_convert_exactly(self):
        # 0.7 and 1.3 are no half-integers: refused, not rounded to 1/2 and 3/2
        orders = TruncationOrders(ell_max=2)
        for lam in (0.7, 1.3, math.inf, math.nan):
            with pytest.raises(ValueError):
                edge_taylor_value(lam, 0.5, 1.0, orders)
        for lam in (0.5, 1.0, 1.5):
            assert (edge_taylor_value(lam, 0.5, 1.0, orders)
                    == edge_taylor_value(F(lam), 0.5, 1.0, orders))
        graph = FeynmanGraph.build(2, [(0, 1)])
        positions = {0: (0.0,) * 5, 1: (0.4,) + (0.0,) * 4}
        with pytest.raises(ValueError, match="half-integer"):
            amplitude_truncated_eval(graph, positions, 1.0, lam=1.3)
        assert amplitude_truncated_eval(graph, positions, 1.0, lam=1.5) > 0

    def test_warm_edges_bind_nothing(self, monkeypatch):
        calls = []
        bind = SymbolicCoeff.bind
        monkeypatch.setattr(SymbolicCoeff, "bind",
                            lambda self: calls.append(self) or bind(self))
        orders = TruncationOrders(radial=6, ell_max=2, asym_terms=4)
        geom = EdgeGeometry(rho=1.0, r=0.3, cos=0.1)
        for lam in (F(5, 2), F(5)):
            edges = (lambda: edge_taylor_value(lam, 0.4, 0.9, orders),
                     lambda: edge_asymptotic_value(lam, 15.0, 0.9, orders),
                     lambda: edge_gegenbauer_value(lam, geom, 0.9, orders))
            for edge in edges:
                edge()
                assert calls  # the first call compiles the kernel
                calls.clear()
                edge()
                assert calls == []


class TestAmplitudeEval:
    def geometry(self, D):
        pos = {0: (1.0,) + (0.0,) * (D - 1), 1: (0.0, 0.1) + (0.0,) * (D - 2)}
        return pos

    def test_single_edge_taylor_matches_direct(self):
        g = FeynmanGraph.build(2, [(0, 1)])
        for lam in (1, 2, 3):
            D = 2 * lam + 2
            pos = self.geometry(D)
            direct = amplitude_truncated_eval(g, pos, 0.1, lam, "direct")
            taylor = amplitude_truncated_eval(g, pos, 0.1, lam, "taylor",
                                              TruncationOrders(ell_max=20))
            assert abs(taylor - direct) / abs(direct) < 1e-10

    def test_single_edge_asymptotic(self):
        g = FeynmanGraph.build(2, [(0, 1)])
        pos = {0: (20.5, 0.0, 0.0, 0.0), 1: (0.5, 0.0, 0.0, 0.0)}
        direct = amplitude_truncated_eval(g, pos, 1.0, 1, "direct")
        asym = amplitude_truncated_eval(g, pos, 1.0, 1, "asymptotic",
                                        TruncationOrders(asym_terms=6))
        assert abs(asym - direct) / abs(direct) < 1e-8

    def test_product_over_edges(self):
        path = FeynmanGraph.build(3, [(0, 1), (1, 2)])
        pos = {0: (1.0, 0.0, 0.0, 0.0), 1: (0.0, 0.4, 0.0, 0.0),
               2: (0.0, 0.0, 0.2, 0.0)}
        total = amplitude_truncated_eval(path, pos, 0.3, 1, "direct")
        e1 = FeynmanGraph.build(2, [(0, 1)])
        v1 = amplitude_truncated_eval(e1, {0: pos[0], 1: pos[1]}, 0.3, 1, "direct")
        v2 = amplitude_truncated_eval(e1, {0: pos[1], 1: pos[2]}, 0.3, 1, "direct")
        assert total == pytest.approx(v1 * v2, rel=1e-14)

    def test_gegenbauer_method_matches_direct(self):
        g = FeynmanGraph.build(2, [(0, 1)])
        pos = {0: (1.0, 0.0, 0.0, 0.0), 1: (0.15, 0.25, 0.0, 0.0)}
        direct = amplitude_truncated_eval(g, pos, 0.05, 1, "direct")
        gegen = amplitude_truncated_eval(g, pos, 0.05, 1, "gegenbauer",
                                         TruncationOrders(radial=40, ell_max=12))
        assert abs(gegen - direct) / abs(direct) < 1e-9

    def test_divergent_ratio_rejected(self):
        g = FeynmanGraph.build(2, [(0, 1)])
        pos = {0: (1.0, 0.0, 0.0, 0.0), 1: (0.0, 1.0, 0.0, 0.0)}
        with pytest.raises(DivergentRatioError):
            amplitude_truncated_eval(g, pos, 0.1, 1, "gegenbauer")

    def test_coincident_points_rejected(self):
        g = FeynmanGraph.build(2, [(0, 1)])
        pos = {0: (1.0, 0.0, 0.0, 0.0), 1: (1.0, 0.0, 0.0, 0.0)}
        for method in ("direct", "taylor", "asymptotic", "gegenbauer"):
            with pytest.raises(ValueError, match="coincident"):
                amplitude_truncated_eval(g, pos, 0.1, 1, method)

    @pytest.mark.parametrize("method", ["direct", "taylor"])
    def test_separation_with_subnormal_square(self, method):
        """An edge of length 1e-160, whose square is subnormal, keeps full
        precision: the norm does not square the coordinates."""
        g = FeynmanGraph.build(2, [(0, 1)])
        pos = {0: (0.0, 0.0, 0.0), 1: (1e-160, 0.0, 0.0)}
        got = amplitude_truncated_eval(g, pos, 1.0, Fraction(1, 2), method)
        assert got == pytest.approx(gm_real(Kinematics.radial(3, 1e-160, 1.0)), rel=1e-14)


# name -> (internal vertices, internal edges)
LOOP_GRAPHS = {
    "banana": (2, [(0, 1), (0, 1), (0, 1)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "square": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "doubled_triangle": (3, [(0, 1), (0, 1), (0, 2), (2, 1)]),
}
METHODS = ("direct", "taylor", "asymptotic", "gegenbauer")


def seeded_case(name: str, D: int, seed: int):
    """The graph, seeded positions and one mass per edge.  Each vertex norm is
    0.3-0.55 times the one before, so every edge has r/rho < 1."""
    rng = random.Random(f"{name}/{D}/{seed}")
    nv, edges = LOOP_GRAPHS[name]
    norm, pos = rng.uniform(0.8, 1.2), {}
    for v in range(nv):
        direction = [rng.gauss(0.0, 1.0) for _ in range(D)]
        scale = norm / math.sqrt(sum(c * c for c in direction))
        pos[v] = [c * scale for c in direction]
        norm *= rng.uniform(0.3, 0.55)
    masses = {i: rng.uniform(0.5, 1.5) for i in range(len(edges))}
    return FeynmanGraph.build(nv, edges), pos, masses


def edge_by_edge(graph, pos, masses, lam, method, orders) -> float:
    """The product, in edge order, of the public per-edge functions."""
    D = int(2 * lam + 2)
    total = 1.0
    for idx, e in enumerate(graph.edges):
        xs, xt = tuple(map(float, pos[e.src])), tuple(map(float, pos[e.tgt]))
        diff = tuple(a - b for a, b in zip(xs, xt))
        r = math.hypot(*diff)
        m = masses if isinstance(masses, float) else masses[idx]
        if method == "direct":
            total *= gm_real(Kinematics.radial(D, r, m))
        elif method == "taylor":
            total *= edge_taylor_value(lam, r, m, orders)
        elif method == "asymptotic":
            total *= edge_asymptotic_value(lam, r, m, orders)
        else:
            total *= edge_gegenbauer_value(lam, EdgeGeometry.from_points(xs, xt), m, orders)
    return total


ONE_EDGE = FeynmanGraph.build(2, [(0, 1)])
NEAR_4D = {0: (1.0, 0.0, 0.0, 0.0), 1: (0.1, 0.2, 0.0, 0.0)}


class TestAmplitudeLoop:
    """The per-call plan of amplitude_truncated_eval: the same floats as the
    public edge functions, no per-edge set-up when warm, and one refusal of
    bad input for every method."""

    @pytest.mark.parametrize("name", LOOP_GRAPHS)
    @pytest.mark.parametrize("D", (3, 4, 6))
    def test_equals_the_product_of_edge_functions(self, name, D):
        lam = F(D - 2, 2)
        orders = TruncationOrders(radial=10, ell_max=4, asym_terms=5)
        for seed in range(3):
            graph, pos, masses = seeded_case(name, D, seed)
            for method in METHODS:
                for mass in (masses, masses[0]):
                    want = edge_by_edge(graph, pos, mass, lam, method, orders)
                    got = amplitude_truncated_eval(graph, pos, mass, lam, method, orders)
                    assert got == want, (seed, method, mass)

    def test_one_plan_serves_edges_and_amplitudes(self, monkeypatch):
        # the plan is the only cache of compiled kernels: an edge function
        # and an amplitude at the same lam, method and orders compile once
        caches = {name for name, obj in vars(amplitude).items() if hasattr(obj, "cache_info")}
        assert caches == {"taylor_term_coefficient", "_edge_plan"}
        built = []
        init = amplitude._GegenKernel.__init__
        monkeypatch.setattr(amplitude._GegenKernel, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        orders = TruncationOrders(radial=7, gegen=3, ell_max=1, asym_terms=3)
        graph, pos, masses = seeded_case("triangle", 5, 1)
        edge_gegenbauer_value(F(3, 2), EdgeGeometry(rho=1.0, r=0.3, cos=0.1), 0.9, orders)
        amplitude_truncated_eval(graph, pos, masses, F(3, 2), "gegenbauer", orders)
        assert len(built) == 1
        for method, edge in (("taylor", edge_taylor_value), ("asymptotic", edge_asymptotic_value)):
            edge(F(3, 2), 15.0, 0.9, orders)
            before = amplitude._edge_plan.cache_info()
            amplitude_truncated_eval(graph, pos, masses, F(3, 2), method, orders)
            after = amplitude._edge_plan.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses), method

    def test_warm_calls_build_no_kinematics_and_bind_nothing(self, monkeypatch):
        built, bound = [], []
        init, bind = Kinematics.__post_init__, SymbolicCoeff.bind
        monkeypatch.setattr(Kinematics, "__post_init__",
                            lambda self: built.append(self) or init(self))
        monkeypatch.setattr(SymbolicCoeff, "bind",
                            lambda self: bound.append(self) or bind(self))
        orders = TruncationOrders(radial=6, ell_max=2, asym_terms=4)
        graph, pos, masses = seeded_case("doubled_triangle", 5, 0)
        for method in METHODS:
            amplitude_truncated_eval(graph, pos, masses, F(3, 2), method, orders)
            built.clear()
            bound.clear()
            amplitude_truncated_eval(graph, pos, masses, F(3, 2), method, orders)
            assert built == [] and bound == [], method

    @pytest.mark.parametrize("method", METHODS)
    def test_wrong_length_or_non_finite_positions_refused(self, method):
        # 3 and 5 coordinates at D = 4 once gave a value for all but direct;
        # nan gave nan for taylor and asymptotic
        for pos in ({0: (1.0, 0.0, 0.0), 1: (0.1, 0.2, 0.0)},
                    {0: (1.0, 0.0, 0.0, 0.0, 0.0), 1: (0.1, 0.2, 0.0, 0.0, 0.0)},
                    {0: (1.0, 0.0, 0.0, math.nan), 1: (0.1, 0.2, 0.0, 0.0)},
                    {0: (1.0, 0.0, 0.0, 0.0), 1: (0.1, math.inf, 0.0, 0.0)}):
            with pytest.raises(ValueError, match="needs D = 4 finite coordinates"):
                amplitude_truncated_eval(ONE_EDGE, pos, 1.0, 1, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_missing_position_or_mass_is_named(self, method):
        # both once raised a bare KeyError: 1
        graph = FeynmanGraph.build(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError, match="vertex 1 has no position"):
            amplitude_truncated_eval(graph, {0: NEAR_4D[0]}, 1.0, 1, method)
        for masses in ({0: 1.0}, [1.0]):
            with pytest.raises(ValueError, match="edge 1 has no mass"):
                amplitude_truncated_eval(graph, NEAR_4D, masses, 1, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_infinite_mass_refused(self, method):
        with pytest.raises(ValueError, match="finite"):
            amplitude_truncated_eval(ONE_EDGE, NEAR_4D, math.inf, 1, method)

    @pytest.mark.parametrize("method", ("taylor", "gegenbauer"))
    def test_edge_factor_beyond_the_doubles_refused(self, method):
        # lam = 1/2, m = 1e300 once returned -inf
        pos = {0: (1.0, 0.0, 0.0), 1: (0.1, 0.2, 0.0)}
        with pytest.raises(ValueError, match="not a finite double"):
            amplitude_truncated_eval(ONE_EDGE, pos, 1e300, F(1, 2), method)

    def test_underflowing_asymptotic_edge_refused(self):
        # e^(-m r) underflows: asymptotic returned 0.0 where every other
        # method refuses the edge
        pos = {0: (0.92, 0.0, 0.0), 1: (0.0, 0.0, 0.0)}
        for method in METHODS:
            with pytest.raises(ValueError):
                amplitude_truncated_eval(ONE_EDGE, pos, 1e300, F(1, 2), method)
        with pytest.raises(ValueError, match="not a finite double of normal magnitude"):
            amplitude_truncated_eval(ONE_EDGE, pos, 1e300, F(1, 2), "asymptotic")

    @pytest.mark.parametrize("method", ("taylor", "asymptotic", "gegenbauer"))
    def test_overflowing_power_is_a_value_error(self, method):
        # lam = 1, m = 1e300: z ** k once raised OverflowError
        with pytest.raises(ValueError, match="not a finite double"):
            amplitude_truncated_eval(ONE_EDGE, NEAR_4D, 1e300, 1, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_infinite_separation_refused(self, method):
        pos = {0: (1e308, 0.0, 0.0, 0.0), 1: (-1e308, 0.0, 0.0, 0.0)}
        with pytest.raises(ValueError, match="edge 0 has r = inf"):
            amplitude_truncated_eval(ONE_EDGE, pos, 1.0, 1, method)

    @pytest.mark.parametrize("method", ("direct", "taylor", "asymptotic"))
    def test_far_separation_refused(self, method):
        # vertices at 1e200 once gave nan (taylor) and 0.0 (asymptotic); their
        # separation is a finite double, and the edge factor is not
        pos = {0: (1e200, 0.0, 0.0, 0.0), 1: (0.0, 1e200, 0.0, 0.0)}
        with pytest.raises(ValueError, match="doubles|finite double"):
            amplitude_truncated_eval(ONE_EDGE, pos, 1.0, 1, method)

    @pytest.mark.parametrize("method", METHODS)
    def test_product_beyond_the_doubles_refused(self, method):
        # two finite edge factors of about 1e198 whose product is inf
        graph = FeynmanGraph.build(2, [(0, 1), (0, 1)])
        pos = {0: (0.0,) * 6, 1: (1e-50,) + (0.0,) * 5}
        with pytest.raises(ValueError, match="finite"):
            amplitude_truncated_eval(graph, pos, 1.0, 2, method)

    @pytest.mark.parametrize("method", ("taylor", "gegenbauer"))
    def test_massless_log_terms_name_the_cause(self, method):
        # integer lam at m = 0 once raised a bare "math domain error"
        with pytest.raises(ValueError, match="log m needs m > 0"):
            amplitude_truncated_eval(ONE_EDGE, NEAR_4D, 0.0, 1, method)


class TestEdgeGeometry:
    def test_from_points(self):
        geom = EdgeGeometry.from_points((2.0, 0.0), (0.0, 1.0))
        assert geom.rho == 2.0 and geom.r == 1.0 and geom.cos == 0.0
        assert separation(geom) == pytest.approx(math.sqrt(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeGeometry(rho=1.0, r=2.0, cos=0.0)
        with pytest.raises(ValueError):
            EdgeGeometry(rho=1.0, r=0.5, cos=1.5)
