"""Ring axioms and representation invariants of the exact scalar types."""

import math
import random
from fractions import Fraction

import pytest

from confeyn.exact import ExactScalar, SymbolicCoeff


def rand_scalar(rng) -> ExactScalar:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(0, 1), rng.randint(-3, 3))
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return ExactScalar(terms)


def rand_symbolic(rng) -> SymbolicCoeff:
    poly = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(-4, 4), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1))
        poly[key] = rand_scalar(rng)
    return SymbolicCoeff(poly)


@pytest.mark.parametrize("maker", [rand_scalar, rand_symbolic])
def test_commutative_ring_axioms(maker):
    rng = random.Random(20240 + (0 if maker is rand_scalar else 1))
    for _ in range(300):
        a, b, c = maker(rng), maker(rng), maker(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_no_zero_terms_stored():
    a = ExactScalar({(0, 1): Fraction(1), (0, 2): Fraction(0)})
    assert a.pi_half_exponents() == {1}
    assert (a - a).is_zero()


def test_sqrt2_folding():
    s2 = ExactScalar.term(1, sqrt2=1)
    assert s2 * s2 == ExactScalar.from_rational(2)
    assert abs(float(s2) - math.sqrt(2)) < 1e-15
    # sqrt(pi/2) squared is pi/2
    half = ExactScalar.term(Fraction(1, 2), sqrt2=1, pi_half=1)
    assert half * half == ExactScalar.pi_power(2, Fraction(1, 2))


def test_pi_powers_and_float():
    x = ExactScalar.pi_power(1)  # sqrt(pi)
    assert abs(float(x) - math.sqrt(math.pi)) < 1e-15
    assert float(x * x) == pytest.approx(math.pi, rel=1e-15)
    assert (x * x).pi_half_exponents() == {2}


def test_inverse_of_monomials():
    x = ExactScalar.pi_power(3, Fraction(5, 2))
    assert x * x.inverse() == ExactScalar.one()
    y = ExactScalar.term(Fraction(3), sqrt2=1, pi_half=-1)
    assert y * y.inverse() == ExactScalar.one()
    with pytest.raises(ValueError):
        (x + ExactScalar.one()).inverse()


def test_exact_equality_decidable():
    a = ExactScalar.from_rational(Fraction(1, 3)) + ExactScalar.pi_power(2)
    b = ExactScalar.pi_power(2) + ExactScalar.from_rational(Fraction(1, 3))
    assert a == b and hash(a) == hash(b)
    assert a != b + ExactScalar.one()


def test_serialization_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_scalar(rng)
        assert ExactScalar.from_json(a.to_json()) == a
        s = rand_symbolic(rng)
        assert SymbolicCoeff.from_json(s.to_json()) == s


def test_symbolic_bind():
    # m^2 log(m) gamma + log(2)
    s = (SymbolicCoeff.monomial(ExactScalar.one(), m_exp=2) * SymbolicCoeff.logm_symbol()
         * SymbolicCoeff.gamma_symbol() + SymbolicCoeff.log2_symbol())
    m = 1.7
    want = m ** 2 * math.log(m) * 0.5772156649015329 + math.log(2)
    assert s.bind(m) == pytest.approx(want, rel=1e-14)


def test_symbolic_half_integer_mass_exponent():
    s = SymbolicCoeff.monomial(ExactScalar.one(), m_exp=Fraction(-3, 2))
    assert s.bind(4.0) == pytest.approx(4.0 ** -1.5, rel=1e-15)
    with pytest.raises(ValueError):
        SymbolicCoeff.monomial(ExactScalar.one(), m_exp=Fraction(1, 3))


def test_invalid_negative_symbol_exponents():
    with pytest.raises(ValueError):
        SymbolicCoeff({(0, -1, 0, 0): ExactScalar.one()})
