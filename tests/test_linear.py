"""The sparse core against a plain {key: Fraction} model.

Sums, differences, negation, scaling by an int and by a Fraction, products,
equality and both pole projections agree with the model on Laurent series and
on log forms, over mixed denominators and results that cancel to zero; every
result is stored as int numerators over one denominator in lowest terms, with
den 1 for zero, and reads back an int wherever its value is integral."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from confeyn.hopf import HopfAlgebra, HopfElement
from confeyn.rotabaxter import LaurentSeries, MultiLogForm, divisor_labels, laurent_T, multi_T
from conftest import necklace

CORE = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _log_keys() -> list[tuple]:
    """A small pool of log-form keys, so that drawn terms often meet: the unit,
    one-space polar blocks that share a label or not, regular monomials, and
    wedges over two spaces."""
    a, b, c, d = sorted(divisor_labels(2, 1))[:4]
    comps = [("polar", (a, b)), ("polar", (c, d)), ("polar", (a, c)),
             ("reg", ((a, 1),)), ("reg", ((b, 2),))]
    return ([()] + [((1, comp),) for comp in comps]
            + [((1, comps[0]), (2, comps[3])), ((1, comps[3]), (2, comps[1])), ((2, comps[2]),)])


FAMILIES = {
    "laurent": (LaurentSeries, list(range(-3, 4)), laurent_T, lambda e: e < 0),
    "logform": (MultiLogForm, _log_keys(), multi_T,
                lambda key: any(kind == "polar" for _, (kind, _) in key)),
}

DENOMINATORS = (1, 2, 3, 4, 6, 9, 10, 12, 35)
coefficients = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-12, 12), st.sampled_from(DENOMINATORS)))


def clean(terms: dict) -> dict:
    return {key: c for key, c in terms.items() if c}


def model_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + sign * c
    return clean(out)


def model_product(cls, a: dict, b: dict) -> dict:
    out: dict = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            merged = cls.key_product(k1, k2)
            if not cls.factored:
                merged = (1, merged)
            if merged is not None:
                factor, key = merged
                out[key] = out.get(key, 0) + factor * c1 * c2
    return clean(out)


def check(x, want: dict):
    """x has the model's values, stored reduced, and equals the element built
    from those values."""
    assert {key: Fraction(c) for key, c in x.terms.items()} == want
    assert all(type(c) is int or c.denominator > 1 for c in x.terms.values())
    assert all(type(n) is int and n for n in x.nums.values())
    assert x.den > 0 and math.gcd(x.den, *x.nums.values()) == 1  # den 1 when empty
    assert x == type(x)(want)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@given(data=st.data())
@CORE
def test_core_matches_the_fraction_model(family, data):
    cls, keys, T, polar = FAMILIES[family]
    elements = st.dictionaries(st.sampled_from(keys), coefficients, max_size=6)
    raw_a, raw_b = data.draw(elements), data.draw(elements)
    a, b = cls(raw_a), cls(raw_b)
    ma = clean({k: Fraction(c) for k, c in raw_a.items()})
    mb = clean({k: Fraction(c) for k, c in raw_b.items()})
    n = data.draw(st.integers(-4, 4))
    q = data.draw(st.builds(Fraction, st.integers(-12, 12), st.sampled_from(DENOMINATORS)))

    check(a, ma)
    check(a + b, model_sum(ma, mb))
    check(a - b, model_sum(ma, mb, -1))
    check(-a, model_sum({}, ma, -1))
    check(a - a, {})
    check(a + (-a), {})
    check(a.scale(n), clean({k: c * n for k, c in ma.items()}))
    check(n * a, clean({k: c * n for k, c in ma.items()}))
    check(a.scale(q), clean({k: c * q for k, c in ma.items()}))
    check(a * q, clean({k: c * q for k, c in ma.items()}))
    check(a * b, model_product(cls, ma, mb))
    check(T(a), {k: c for k, c in ma.items() if polar(k)})
    check(a - T(a), {k: c for k, c in ma.items() if not polar(k)})
    assert (a == b) == (ma == mb)
    assert (a + b - b) == a


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_empty_products_equal_zero(family):
    """A product whose terms all cancel or vanish has den 1, so it equals 0."""
    cls, keys, _, _ = FAMILIES[family]
    half = cls({keys[1]: Fraction(1, 2)})
    if cls is LaurentSeries:
        third, fifth = Fraction(1, 3), Fraction(1, 5)
        # (z + z^2)/3 * (1 - z)/5 = (z - z^3)/15
        empty = (cls({1: third, 2: third}) * cls({0: fifth, 1: -fifth})
                 - cls({1: third * fifth, 3: -third * fifth}))
    else:  # polar x regular on one space vanishes
        empty = cls({keys[1]: Fraction(1, 3)}) * cls({keys[4]: Fraction(2, 7)})
    assert empty.den == 1 and empty == cls.zero() == half - half


def test_hopf_elements_keep_den_one():
    """The algebra's coproducts and antipodes are integral: ``terms`` is ``nums``."""
    hopf = HopfAlgebra()
    g = necklace(4)
    for x in (hopf.coproduct(g), hopf.antipode(g), hopf.reduced_coproduct((g,))):
        assert x.den == 1 and x.terms is x.nums
    half = HopfElement.generator(g).scale(Fraction(1, 2))
    assert half.terms == {(g,): Fraction(1, 2)} and hopf.coproduct(half).den == 2
