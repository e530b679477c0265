"""Ring axioms and representation invariants of the exact ring."""

import math
import random
from fractions import Fraction

import pytest

from confeyn.exact import SymbolicCoeff

ONE_KEY = (0, 0, 0, 0, 0, 0)


def scalar_terms(rng) -> dict[tuple[int, int], Fraction]:
    """Random {(sqrt2, pi_half): rational} terms."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(0, 1), rng.randint(-3, 3))
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return terms


def rand_scalar(rng) -> SymbolicCoeff:
    """A random element free of m, log(m), gamma and log(2)."""
    return SymbolicCoeff({(0, 0, 0, 0, s, p): q for (s, p), q in scalar_terms(rng).items()})


def rand_symbolic(rng) -> SymbolicCoeff:
    poly = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(-4, 4), rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 1))
        poly[key] = scalar_terms(rng)
    return SymbolicCoeff({(*key, s, p): q for key, terms in poly.items()
                          for (s, p), q in terms.items()})


def pi_half_exponents(c: SymbolicCoeff) -> set[int]:
    return {key[5] for key, _ in c.terms.items()}


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
    a = SymbolicCoeff({(0, 0, 0, 0, 0, 1): Fraction(1), (0, 0, 0, 0, 0, 2): Fraction(0)})
    assert pi_half_exponents(a) == {1}
    assert (a - a).is_zero()
    # (sqrt(2) + 1)(sqrt(2) - 1) = 1: the sqrt(2) terms cancel and are dropped
    s2 = SymbolicCoeff.monomial(sqrt2=1)
    product = (s2 + SymbolicCoeff.one()) * (s2 - SymbolicCoeff.one())
    assert list(product.terms.items()) == [(ONE_KEY, Fraction(1))]


def test_sqrt2_folding():
    s2 = SymbolicCoeff.monomial(1, sqrt2=1)
    assert s2 * s2 == SymbolicCoeff.from_rational(2)
    assert abs(float(s2) - math.sqrt(2)) < 1e-15
    # sqrt(pi/2) squared is pi/2
    half = SymbolicCoeff.monomial(Fraction(1, 2), sqrt2=1, pi_half=1)
    assert half * half == SymbolicCoeff.monomial(Fraction(1, 2), pi_half=2)


def test_pi_powers_and_float():
    x = SymbolicCoeff.monomial(pi_half=1)  # sqrt(pi)
    assert abs(float(x) - math.sqrt(math.pi)) < 1e-15
    assert float(x * x) == pytest.approx(math.pi, rel=1e-15)
    assert pi_half_exponents(x * x) == {2}


def test_inverse_of_monomials():
    x = SymbolicCoeff.monomial(Fraction(5, 2), pi_half=3)
    assert x * x.inverse() == SymbolicCoeff.one()
    y = SymbolicCoeff.monomial(Fraction(3), sqrt2=1, pi_half=-1)
    assert y * y.inverse() == SymbolicCoeff.one()
    z = SymbolicCoeff.monomial(Fraction(-2, 7), m_exp=Fraction(3, 2), sqrt2=1)
    assert z * z.inverse() == SymbolicCoeff.one()
    assert y / z == y * z.inverse()
    with pytest.raises(ValueError):
        (x + SymbolicCoeff.one()).inverse()
    with pytest.raises(ValueError):
        SymbolicCoeff.monomial(gamma=1).inverse()
    with pytest.raises(ZeroDivisionError):
        x / 0


def test_exact_equality_decidable():
    a = SymbolicCoeff.from_rational(Fraction(1, 3)) + SymbolicCoeff.monomial(pi_half=2)
    b = SymbolicCoeff.monomial(pi_half=2) + SymbolicCoeff.from_rational(Fraction(1, 3))
    assert a == b and hash(a) == hash(b)
    assert a != b + SymbolicCoeff.one()


def test_serialization_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_scalar(rng)
        assert SymbolicCoeff.from_json(a.to_json()) == a
        # the bare scalar layout is the "value" of the one nested entry
        assert a.scalar_json() == (a.to_json()[0]["value"] if a.to_json() else [])
        s = rand_symbolic(rng)
        assert SymbolicCoeff.from_json(s.to_json()) == s
    with pytest.raises(ValueError):
        SymbolicCoeff.monomial(m_exp=1).scalar_json()


def test_symbolic_bind():
    # m^2 log(m) gamma + log(2)
    s = (SymbolicCoeff.monomial(m_exp=2) * SymbolicCoeff.monomial(logm=1)
         * SymbolicCoeff.monomial(gamma=1) + SymbolicCoeff.monomial(log2=1))
    m = 1.7
    want = m ** 2 * math.log(m) * 0.5772156649015329 + math.log(2)
    assert s.bind(m) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError, match="mass value required"):
        s.bind()


def test_symbolic_half_integer_mass_exponent():
    s = SymbolicCoeff.monomial(m_exp=Fraction(-3, 2))
    assert s.bind(4.0) == pytest.approx(4.0 ** -1.5, rel=1e-15)
    with pytest.raises(ValueError):
        SymbolicCoeff.monomial(m_exp=Fraction(1, 3))


def test_non_integer_exponents_rejected():
    # a third of a power of m is neither truncated nor rounded
    entry = {"m_exp": "1/3", "logm_exp": 0, "gamma_exp": 0, "log2_exp": 0,
             "value": [{"rational": "1", "pi_half_exp": 0}]}
    with pytest.raises(ValueError, match="integers"):
        SymbolicCoeff.from_json([entry])
    with pytest.raises(ValueError, match="integers"):
        SymbolicCoeff({(1.5, 0, 0, 0, 0, 0): 1})


def test_invalid_negative_symbol_exponents():
    with pytest.raises(ValueError):
        SymbolicCoeff({(0, -1, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        SymbolicCoeff({(0, 0, 0, 0, 2, 0): 1})
