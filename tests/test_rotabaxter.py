"""Rota-Baxter weight -1 identities in both models, exact arithmetic; the
single-space log forms are the one-factor case of the multi-space model."""

import math
import operator
import random
from fractions import Fraction

import pytest

from confeyn.exact import SymbolicCoeff
from confeyn.rotabaxter import (LaurentSeries, MultiLogForm, diagonal_label,
                                divisor_labels, label_str,
                                laurent_T, multi_T, separation_label)
from conftest import one_factor_form

F = Fraction


def divisor_label_count(n: int, k: int) -> int:
    """Closed form: (k+1)(2^n - 1) separation plus 2^n - n - 1 diagonal labels."""
    return (k + 1) * (2 ** n - 1) + (2 ** n - n - 1)


def rand_laurent(rng) -> LaurentSeries:
    return LaurentSeries({e: F(rng.randint(-5, 5), rng.randint(1, 4))
                          for e in range(rng.randint(-3, 0), rng.randint(1, 4))})


LABELS = sorted(divisor_labels(3, 1))


def rand_logform(rng, space=3, labels=LABELS) -> MultiLogForm:
    """A random one-factor log form on ``space``."""
    polar = {}
    for _ in range(rng.randint(0, 3)):
        size = rng.choice([2, 2, 4])
        J = frozenset(rng.sample(labels, size))
        polar[J] = F(rng.randint(-4, 4), rng.randint(1, 5))
    regular = {}
    for _ in range(rng.randint(0, 3)):
        vars_ = rng.sample(labels, rng.randint(0, 2))
        key = tuple(sorted((v, rng.randint(1, 2)) for v in vars_))
        regular[key] = F(rng.randint(-4, 4), rng.randint(1, 5))
    return one_factor_form(space, polar, regular)


def rand_multi(rng) -> MultiLogForm:
    out = MultiLogForm.zero()
    for _ in range(rng.randint(1, 3)):
        out = out + rand_logform(rng, rng.choice([2, 3]))
    return out


def is_polar(key) -> bool:
    return any(kind == "polar" for _, (kind, _) in key)


def residues(a: MultiLogForm) -> dict:
    """Iterated residues of a one-factor form: block J -> its coefficient."""
    return {frozenset(key[0][1][1]): c for key, c in a.terms.items() if is_polar(key)}


def residue_single(a: MultiLogForm, label) -> dict:
    """Single-divisor residue of a one-factor form: for each polar block J
    containing the label, the leftover block J - {label} with the sign of
    moving dlog f_label to the front."""
    out = {}
    for key, c in a.terms.items():
        if is_polar(key) and label in key[0][1][1]:
            J = key[0][1][1]
            out[frozenset(J) - {label}] = c * ((-1) ** J.index(label))
    return out


def legacy_sort_key(label) -> tuple:
    """Reference for the label order: the sort key labels had when they were
    tagged tuples, read off the label's string.  Separation labels come
    before diagonal ones, components 1..k before inf, then the points."""
    kind, *rest = label_str(label).split(":")
    points = tuple(int(i) for i in rest[-1].split(","))
    if kind == "sep":
        return (0, (1, 0) if rest[0] == "inf" else (0, int(rest[0])), points)
    return (1, (0, 0), points)


def legacy_merge_polar(J1: frozenset, J2: frozenset):
    """Reference for the wedge of two dlog blocks: None if they share a label,
    else (sign, block), the sign from a quadratic count of inversions."""
    if J1 & J2:
        return None
    inversions = sum(1 for x in J1 for y in J2 if legacy_sort_key(y) < legacy_sort_key(x))
    return (-1) ** inversions, tuple(sorted(J1 | J2, key=legacy_sort_key))


# coefficients that are not exact rationals: a float (LaurentSeries used to
# store 0.1 as 3602879701896397/36028797018963968), a string, a pi-ring scalar
NOT_RATIONAL = {"float": 0.1, "str": "1/2", "exact_scalar": SymbolicCoeff.one()}


@pytest.mark.parametrize("value", NOT_RATIONAL.values(), ids=NOT_RATIONAL)
@pytest.mark.parametrize("make", [lambda c: LaurentSeries({0: c}),
                                  lambda c: MultiLogForm({(): c})],
                         ids=["laurent", "logform"])
def test_non_rational_coefficient_rejected(make, value):
    with pytest.raises(TypeError, match="int or Fraction"):
        make(value)


def test_elements_of_different_targets_do_not_add():
    # the unit key () of a log form is no Laurent exponent, nor 0 a log-form key
    series, form = LaurentSeries({0: 1}), MultiLogForm.one()
    for combine in (operator.add, operator.sub):
        with pytest.raises(TypeError):
            combine(series, form)
        with pytest.raises(TypeError):
            combine(form, series)


class TestLaurent:
    def test_int_and_fraction_kept_as_given(self):
        s = LaurentSeries({-1: 2, 0: F(1, 3), 1: 0})
        assert s.coeffs == {-1: 2, 0: F(1, 3)}
        assert type(s.coeffs[-1]) is int and type(s.coeffs[0]) is F
        assert LaurentSeries.from_json({"0": "1/2"}) == LaurentSeries({0: F(1, 2)})
        with pytest.raises(TypeError):
            s * 0.5

    def test_projection_example(self):
        s = LaurentSeries({-2: 2, 0: 3, 1: 1})
        assert laurent_T(s) == LaurentSeries({-2: 2})

    def test_idempotent(self):
        rng = random.Random(1)
        for _ in range(200):
            s = rand_laurent(rng)
            assert laurent_T(laurent_T(s)) == laurent_T(s)

    def test_rb_identity_worked(self):
        x = LaurentSeries({-1: 1})
        lhs = laurent_T(x) * laurent_T(x)
        rhs = (laurent_T(x * laurent_T(x)) + laurent_T(laurent_T(x) * x)
               - laurent_T(x * x))
        assert lhs == rhs == LaurentSeries({-2: 1})

    def test_rb_identity_fuzz(self):
        rng = random.Random(2)
        for _ in range(500):
            x, y = rand_laurent(rng), rand_laurent(rng)
            lhs = laurent_T(x) * laurent_T(y)
            rhs = (laurent_T(x * laurent_T(y)) + laurent_T(laurent_T(x) * y)
                   - laurent_T(x * y))
            assert lhs == rhs

    def test_json_round_trip(self):
        s = LaurentSeries({-2: F(1, 3), 1: 2})
        assert LaurentSeries.from_json(s.to_json()) == s


class TestDivisorLabels:
    def test_two_point_example(self):
        labels = divisor_labels(2, 0)
        assert {label_str(l) for l in labels} == \
            {"sep:inf:1", "sep:inf:2", "sep:inf:1,2", "diag:1,2"}

    def test_one_point_one_component(self):
        labels = divisor_labels(1, 1)
        assert {label_str(l) for l in labels} == {"sep:1:1", "sep:inf:1"}

    def test_count_formula(self):
        for n in range(1, 6):
            for k in range(4):
                assert len(divisor_labels(n, k)) == divisor_label_count(n, k)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            diagonal_label({1})
        with pytest.raises(ValueError):
            separation_label(1, set())
        with pytest.raises(ValueError):
            divisor_labels(0, 0)

    def test_zero_component_refused(self):
        # printed sep:0:1
        with pytest.raises(ValueError, match="int >= 1"):
            separation_label(0, {1})

    def test_negative_component_refused(self):
        # printed sep:-2:1
        with pytest.raises(ValueError, match="int >= 1"):
            separation_label(-2, {1})

    def test_math_inf_component_accepted(self):
        # int(math.inf) raised OverflowError
        assert separation_label(math.inf, {1, 2}) == separation_label("inf", {1, 2})
        assert label_str(separation_label(math.inf, {1})) == "sep:inf:1"

    def test_plain_sort_is_the_legacy_order(self):
        for n in range(1, 6):
            for k in range(4):
                labels = divisor_labels(n, k)
                assert len({legacy_sort_key(l) for l in labels}) == len(labels)
                assert sorted(labels) == sorted(labels, key=legacy_sort_key), (n, k)


class TestLogForm:
    """Single-space log forms: one-factor multi-space forms."""

    def test_shared_factor_kills_product(self):
        a = one_factor_form(3, {frozenset(LABELS[:2]): 1})
        b = one_factor_form(3, {frozenset([LABELS[0], LABELS[2]]): 1})
        assert (a * b).is_zero()

    def test_disjoint_blocks_merge(self):
        a = one_factor_form(3, {frozenset(LABELS[:2]): 2})
        b = one_factor_form(3, {frozenset(LABELS[2:4]): 3})
        assert a * b == one_factor_form(3, {frozenset(LABELS[:4]): 6})
        # interleaved blocks: moving dlog of LABELS[1] past LABELS[2] flips the sign
        a = one_factor_form(3, {frozenset([LABELS[0], LABELS[2]]): 2})
        b = one_factor_form(3, {frozenset([LABELS[1], LABELS[3]]): 3})
        assert a * b == one_factor_form(3, {frozenset(LABELS[:4]): -6})

    def test_polar_times_regular_keeps_the_constant(self):
        J = frozenset(LABELS[:2])
        a = one_factor_form(3, {J: 2})
        b = one_factor_form(3, None, {(): 5, ((LABELS[3], 1),): 7})
        assert a * b == one_factor_form(3, {J: 10})

    def test_even_cardinality_enforced(self):
        with pytest.raises(ValueError, match="even cardinality"):
            one_factor_form(3, {frozenset([LABELS[0]]): 1})
        with pytest.raises(ValueError, match="even cardinality"):
            one_factor_form(3, {frozenset(LABELS[:3]): 1})
        with pytest.raises(ValueError, match="even cardinality"):
            MultiLogForm({((3, ("polar", ())),): 1})
        with pytest.raises(ValueError, match="even cardinality"):
            one_factor_form(3, {frozenset([LABELS[0]]): 0})

    def test_unsorted_polar_block_refused(self):
        # was its own key: unequal to the sorted block, and f - g kept 2 terms
        sep, diag = separation_label("inf", {1}), diagonal_label({1, 2})
        with pytest.raises(ValueError, match="label order"):
            MultiLogForm({((3, ("polar", (diag, sep))),): 1})

    def test_repeated_polar_label_refused(self):
        # dlog a ^ dlog a = 0 was kept as a nonzero monomial
        sep = separation_label("inf", {1})
        with pytest.raises(ValueError, match="label order"):
            MultiLogForm({((3, ("polar", (sep, sep))),): 1})

    def test_unsorted_regular_monomial_refused(self):
        # was its own key: unequal to the sorted monomial, and f - g kept 2 terms
        sep, diag = separation_label("inf", {1}), diagonal_label({1, 2})
        with pytest.raises(ValueError, match="label order"):
            MultiLogForm({((3, ("reg", ((diag, 1), (sep, 1)))),): 1})

    def test_repeated_regular_label_refused(self):
        # sep * sep was kept apart from sep^2
        sep = separation_label("inf", {1})
        with pytest.raises(ValueError, match="label order"):
            MultiLogForm({((3, ("reg", ((sep, 1), (sep, 1)))),): 1})

    def test_unit_written_as_a_component_refused(self):
        # compared unequal to MultiLogForm.one()
        with pytest.raises(ValueError, match="unit"):
            MultiLogForm({((3, ("reg", ())),): 1})

    @pytest.mark.parametrize("exponent", [0, -1])
    def test_nonpositive_regular_exponent_refused(self, exponent):
        # sep^0 was kept apart from the unit
        sep = separation_label("inf", {1})
        with pytest.raises(ValueError, match="positive"):
            MultiLogForm({((3, ("reg", ((sep, exponent),))),): 1})

    def test_polar_products_match_the_legacy_sign(self):
        rng = random.Random(13)
        labels = sorted(divisor_labels(4, 2))
        for _ in range(300):
            drawn = rng.sample(labels, rng.choice([4, 6, 8]))
            cut = rng.choice(range(2, len(drawn) - 1, 2))
            J1, J2 = frozenset(drawn[:cut]), frozenset(drawn[cut:])
            sign, block = legacy_merge_polar(J1, J2)
            got = one_factor_form(3, {J1: 1}) * one_factor_form(3, {J2: 1})
            assert got.terms == {((3, ("polar", block)),): sign}

    def test_commutativity_fuzz(self):
        rng = random.Random(3)
        for _ in range(300):
            a, b = rand_logform(rng), rand_logform(rng)
            assert a * b == b * a

    def test_associativity_fuzz(self):
        rng = random.Random(4)
        for _ in range(200):
            a, b, c = (rand_logform(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_projection_and_subtraction(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rand_logform(rng)
            Ta = multi_T(a)
            assert multi_T(Ta) == Ta
            sub = a - Ta
            assert sub.terms == {k: c for k, c in a.terms.items() if not is_polar(k)}
            assert sub - multi_T(sub) == sub

    def test_rb_identity_fuzz(self):
        rng = random.Random(6)
        for _ in range(500):
            x, y = rand_logform(rng), rand_logform(rng)
            Tx, Ty = multi_T(x), multi_T(y)
            assert Tx * Ty == multi_T(x * Ty) + multi_T(Tx * y) - multi_T(x * y)

    def test_image_is_ideal_kernel_is_subalgebra(self):
        rng = random.Random(7)
        for _ in range(150):
            x, y = rand_logform(rng), rand_logform(rng)
            # image of T times anything stays in the image
            prod = multi_T(x) * y
            assert multi_T(prod) == prod
            # kernel of T (regular forms) is multiplicatively closed, with unit
            k1, k2 = x - multi_T(x), y - multi_T(y)
            assert multi_T(k1 * k2).is_zero()
        assert multi_T(MultiLogForm.one()).is_zero()

    def test_projection_preserves_residues(self):
        rng = random.Random(8)
        for _ in range(150):
            a = rand_logform(rng)
            Ta = multi_T(a)
            assert residues(Ta) == residues(a)
            for lab in LABELS:
                assert residue_single(Ta, lab) == residue_single(a, lab)
                assert residue_single(a - Ta, lab) == {}

    def test_json_deterministic(self):
        # labels of the toy character's kind: separation only at infinity
        rng = random.Random(9)
        a = rand_logform(rng, labels=sorted(divisor_labels(3, 0)))
        assert a.to_json() == a.to_json()
        assert a.to_json() and all(comp["space"] == 3 for mono in a.to_json()
                                   for comp in mono["components"])

    def test_json_mixed_separation_components(self):
        # a finite and the infinite component at the same label position used
        # to be compared as 1 < "inf" and raise TypeError
        sep1, sep_inf = separation_label(1, {1}), separation_label("inf", {1})
        a = one_factor_form(2, {frozenset({sep1, sep_inf}): F(1),
                                frozenset({sep_inf, diagonal_label({1, 2})}): F(2)})
        blocks = [mono["components"][0]["polar"] for mono in a.to_json()]
        assert blocks == [["sep:1:1", "sep:inf:1"], ["sep:inf:1", "diag:1,2"]]

    def test_json_independent_of_insertion_order(self):
        rng = random.Random(10)
        for _ in range(100):
            a = rand_logform(rng, labels=LABELS) * rand_logform(rng, 2, labels=LABELS)
            items = list(a.terms.items())
            rng.shuffle(items)
            assert MultiLogForm(dict(items)).to_json() == a.to_json()
        # blocks that are not nested: {1,3} and {1,2,3} used to keep insertion order
        blocks = [frozenset({separation_label("inf", I), diagonal_label(I)})
                  for I in ({1, 3}, {1, 2, 3})]
        forward = one_factor_form(3, dict.fromkeys(blocks, F(1)))
        backward = one_factor_form(3, dict.fromkeys(reversed(blocks), F(1)))
        assert forward.to_json() == backward.to_json()
        assert [mono["components"][0]["polar"][0] for mono in forward.to_json()] == \
            ["sep:inf:1,2,3", "sep:inf:1,3"]


class TestMultiLogForm:
    def test_t_product_rule(self):
        rng = random.Random(11)
        for _ in range(200):
            f2 = rand_logform(rng, 2)
            f3 = rand_logform(rng, 3)
            lhs = multi_T(f2 * f3)
            rhs = (multi_T(f2) * f3 + f2 * multi_T(f3)
                   - multi_T(f2) * multi_T(f3))
            assert lhs == rhs

    def test_fixed_points(self):
        rng = random.Random(12)
        for _ in range(150):
            x, y = rand_multi(rng), rand_multi(rng)
            assert multi_T(multi_T(x) * y) == multi_T(x) * y
            assert multi_T(multi_T(x)) == multi_T(x)

    def test_polar_free_wedges(self):
        rng = random.Random(13)
        for _ in range(100):
            x, y = rand_multi(rng), rand_multi(rng)
            pf = (x - multi_T(x)) * (y - multi_T(y))
            assert multi_T(pf).is_zero()

    def test_rb_identity_fuzz(self):
        rng = random.Random(14)
        for _ in range(400):
            x, y = rand_multi(rng), rand_multi(rng)
            Tx, Ty = multi_T(x), multi_T(y)
            assert Tx * Ty == multi_T(x * Ty) + multi_T(Tx * y) - multi_T(x * y)

    def test_distinct_spaces_enforced(self):
        key = ((2, ("reg", ((LABELS[0], 1),))), (2, ("reg", ((LABELS[1], 1),))))
        with pytest.raises(ValueError):
            MultiLogForm({key: 1})
