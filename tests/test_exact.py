"""Ring axioms and representation invariants of the exact ring."""

import math
import operator
import random
from fractions import Fraction

import pytest

from confeyn.exact import SymbolicCoeff

ONE_KEY = (0, 0, 0, 0)


def scalar_terms(rng) -> dict[tuple[int, int], Fraction]:
    """Random {(sqrt2, pi_half): rational} terms."""
    terms = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(0, 1), rng.randint(-3, 3))
        terms[key] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return terms


def rand_scalar(rng) -> SymbolicCoeff:
    """A random element free of gamma and log(2)."""
    return SymbolicCoeff({(0, 0, s, p): q for (s, p), q in scalar_terms(rng).items()})


def rand_symbolic(rng) -> SymbolicCoeff:
    poly = {}
    for _ in range(rng.randint(0, 3)):
        key = (rng.randint(0, 2), rng.randint(0, 1))
        poly[key] = scalar_terms(rng)
    return SymbolicCoeff({(*key, s, p): q for key, terms in poly.items()
                          for (s, p), q in terms.items()})


def pi_half_exponents(c: SymbolicCoeff) -> set[int]:
    return {key[3] for key, _ in c.terms.items()}


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
    a = SymbolicCoeff({(0, 0, 0, 1): Fraction(1), (0, 0, 0, 2): Fraction(0)})
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
    z = SymbolicCoeff.monomial(Fraction(-2, 7), sqrt2=1)
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


@pytest.mark.parametrize("number", [1, Fraction(1, 2)], ids=["int", "fraction"])
def test_adding_a_number_raises_type_error(number):
    # a number is no ring element here: from_rational makes it one
    one = SymbolicCoeff.one()
    for combine in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            combine(one, number)
        with pytest.raises(TypeError):
            combine(number, one)
    assert one + SymbolicCoeff.from_rational(number) == SymbolicCoeff.from_rational(1 + number)


def read_json(doc: list[dict]) -> SymbolicCoeff:
    """The element whose ``to_json`` is ``doc``."""
    return SymbolicCoeff({(e["gamma_exp"], e["log2_exp"], int(t.get("sqrt2", False)),
                           t["pi_half_exp"]): Fraction(t["rational"])
                          for e in doc for t in e["value"]})


def test_serialization_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        a = rand_scalar(rng)
        assert read_json(a.to_json()) == a
        # the bare scalar layout is the "value" of the one nested entry
        assert a.scalar_json() == (a.to_json()[0]["value"] if a.to_json() else [])
        s = rand_symbolic(rng)
        doc = s.to_json(Fraction(3, 2), 1)
        assert read_json(doc) == s
        # the caller's power of m and log(m) is written into every entry
        assert all(e["m_exp"] == "3/2" and e["logm_exp"] == 1 for e in doc)
    with pytest.raises(ValueError):
        SymbolicCoeff.monomial(gamma=1).scalar_json()


def test_symbolic_bind():
    # gamma log(2)^2 + sqrt(2) pi^(-1/2)
    s = (SymbolicCoeff.monomial(gamma=1, log2=2)
         + SymbolicCoeff.monomial(sqrt2=1, pi_half=-1))
    want = 0.5772156649015329 * math.log(2) ** 2 + math.sqrt(2) / math.sqrt(math.pi)
    assert s.bind() == pytest.approx(want, rel=1e-14)
    assert s.bind() == float(s)


def test_non_integer_exponents_rejected():
    # a quarter power of pi is neither truncated nor rounded
    with pytest.raises(ValueError, match="integers"):
        SymbolicCoeff({(0, 0, 0, 1.5): 1})


def test_invalid_negative_symbol_exponents():
    with pytest.raises(ValueError):
        SymbolicCoeff({(-1, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        SymbolicCoeff({(0, 0, 2, 0): 1})
