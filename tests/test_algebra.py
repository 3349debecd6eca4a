"""Presentation parsing, validation witnesses, and linear-map arithmetic."""
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import cumalg as cm
from cumalg.algebra import Rational, exact, read_vector
from cumalg.morphisms import _wedge_in

from conftest import E2_DOC, random_vector


def test_parse_reflects_stated_products(e2):
    """Stating a*b alone must fill in b*a with the Koszul sign."""
    a, b, g = e2.generators()
    assert e2.multiply(a, b) == g
    assert e2.multiply(b, a) == (-1) * g


def test_odd_squares_default_to_zero(e2):
    a, _, g = e2.generators()
    assert e2.multiply(a, a).is_zero()
    assert e2.multiply(g, g).is_zero()


def test_truncated_powers(p8):
    x = p8.generators()
    assert p8.multiply(x[0], x[0]) == x[1]
    assert p8.multiply(x[2], x[3]) == x[6]
    assert p8.multiply(x[4], x[4]).is_zero()


def test_commutativity_violation_names_the_pair():
    doc = {
        "generators": [{"name": "a", "degree": 1}, {"name": "b", "degree": 1},
                       {"name": "g", "degree": 2}],
        "products": [
            {"left": "a", "right": "b", "value": [{"gen": "g", "coeff": "1"}]},
            {"left": "b", "right": "a", "value": [{"gen": "g", "coeff": "1"}]},
        ],
    }
    with pytest.raises(cm.ValidationError) as err:
        cm.parse_algebra(doc)
    assert set(err.value.witness["pair"]) == {"a", "b"}


def test_associativity_violation_names_a_triple():
    # u*u = v and v*v = w, so (u*u)*v = w while u*(u*v) = 0
    products = {(0, 0): {1: Fraction(1)}, (1, 1): {2: Fraction(1)}}
    with pytest.raises(cm.ValidationError) as err:
        cm.AlgebraPresentation([("u", 0), ("v", 0), ("w", 0)], products)
    # triples are tried in i, j, k order, so (u, u, v) is the first witness
    assert err.value.witness["triple"] == ["u", "u", "v"]


@pytest.mark.parametrize(
    "generators", [[("a", 0), ("b", 0)], [("a", 0)]], ids=["two-generators", "one-generator"]
)
def test_product_vector_over_another_presentation_rejected(generators):
    # q of another algebra, at the index of b (or past the end of a one-generator basis)
    other = cm.AlgebraPresentation([("p", 0), ("q", 0)], {})
    with pytest.raises(cm.ValidationError, match="another presentation"):
        cm.AlgebraPresentation(generators, {(0, 0): other.generator(1)})


def test_inhomogeneous_product_rejected():
    doc = {
        "generators": [{"name": "a", "degree": 1}, {"name": "g", "degree": 2}],
        "products": [{"left": "a", "right": "a",
                      "value": [{"gen": "a", "coeff": "1"}]}],
    }
    with pytest.raises(cm.ValidationError):
        cm.parse_algebra(doc)


# a trailing newline and non-ASCII digits ("١" is ARABIC-INDIC DIGIT ONE)
@pytest.mark.parametrize("bad", ["1.5", "3/-2", "", "x", "1/0", "1\n", "\u0661", "1/1\u0660"])
def test_malformed_scalars_rejected(bad):
    doc = {
        "generators": [{"name": "u", "degree": 0}],
        "products": [{"left": "u", "right": "u",
                      "value": [{"gen": "u", "coeff": bad}]}],
    }
    with pytest.raises(cm.SchemaError):
        cm.parse_algebra(doc)


def test_scalars_normalize_to_lowest_terms():
    doc = {
        "generators": [{"name": "u", "degree": 0}],
        "products": [{"left": "u", "right": "u",
                      "value": [{"gen": "u", "coeff": "2/4"}]}],
    }
    alg = cm.parse_algebra(doc)
    (u,) = alg.generators()
    assert alg.multiply(u, u) == Fraction(1, 2) * u


class _Float(float):
    """A float subclass, as NumPy's `float64` is one."""


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, _Float(0.5)],
                         ids=["tenth", "half", "integral", "subclass"])
def test_floats_are_refused_wherever_a_scalar_enters(e2, value):
    """A float is binary digits, not the rational it was written as, so a
    coefficient, a scale, a map entry or a family value that is one is
    refused with its type named."""
    name = type(value).__name__
    with pytest.raises(cm.ValidationError, match=name):
        cm.Vector(e2, {0: value})
    with pytest.raises(cm.ValidationError, match=name):
        value * e2.generator(0)
    with pytest.raises(cm.ValidationError, match=name):
        cm.LinearMap(e2, e2, 0, {0: {0: value}})
    family = cm.TaylorFamily(e2, e2, 0, cap=1,
                             fn=lambda w: cm.Vector(e2, {w.indices[0]: value}))
    with pytest.raises(cm.ValidationError, match=name):
        family.coefficient(cm.monomial(e2, (0,)))
    with pytest.raises(cm.ValidationError, match=name):
        cm.Vector(e2).accumulate(e2.generator(0), value)
    with pytest.raises(cm.ValidationError, match=name):
        _wedge_in(cm.SElement(e2, 2), e2.generator(0), [(cm.monomial(e2, (2,)), 1)], value)


@pytest.mark.parametrize("scale", [Fraction(1, 2), Fraction(-4, 2), Rational(4, 2)],
                         ids=["half", "integral", "integral-rational"])
def test_scales_enter_as_exact_scalars(e2, scale):
    """A scale that is a plain Fraction, or an integral Rational, is stored
    as an int when integral and as a Rational otherwise."""
    want = int if scale.denominator == 1 else Rational
    stored = cm.Vector(e2).accumulate(e2.generator(0), scale).terms[0]
    assert stored == scale and type(stored) is want
    out = cm.SElement(e2, 2)
    _wedge_in(out, e2.generator(0), [(cm.monomial(e2, (2,)), 1)], scale)
    (stored,) = out.terms.values()
    assert stored == scale and type(stored) is want


def test_rational_equality_with_other_types_is_fractions():
    """Past ints, Fractions and Rationals, `==` is Fraction's own: a float or
    a Decimal compares by value, and a string never equals."""
    for value in (0.5, 2.0, Decimal("0.5"), "1/2", None):
        for q in (Rational(1, 2), Rational(4, 2)):
            assert (q == value) is (Fraction(q) == value)
            assert (value == q) is (value == Fraction(q))


def test_exact_gives_the_int_of_an_integral_rational():
    for value in (Rational(4, 2), Rational(-3), Rational(0), Fraction(6, 3)):
        assert exact(value) == value and type(exact(value)) is int
    half = exact(Rational(1, 2))
    assert half == Fraction(1, 2) and type(half) is Rational


@pytest.mark.parametrize("value", [
    0, -7, Fraction(-3, 4), 10**5000 + 1, -(10**5000) + 3, Fraction(10**5000 + 1, 3),
    Fraction(2, 3 * 10**5000 + 1), Fraction(-(7**6000), 11**5000),
], ids=["zero", "int", "fraction", "long-int", "long-negative-int", "long-numerator",
        "long-denominator", "long-both"])
def test_format_scalar_writes_every_digit(value):
    """Exact digits on both sides of the interpreter's int-to-str limit,
    which stays as it was."""
    limit = sys.get_int_max_str_digits()
    text = cm.format_scalar(value)
    numerator, _, denominator = text.partition("/")
    value = Fraction(value)
    assert Decimal(numerator) == Decimal(value.numerator)
    assert Decimal(denominator or 1) == Decimal(value.denominator)
    assert (denominator == "") == (value.denominator == 1)
    if max(abs(value.numerator), value.denominator) < 10**4000:
        assert text == str(value)
    assert sys.get_int_max_str_digits() == limit


def test_duplicate_product_statement_rejected():
    doc = dict(E2_DOC)
    doc["products"] = E2_DOC["products"] * 2
    with pytest.raises(cm.SchemaError):
        cm.parse_algebra(doc)


def test_unknown_generator_in_product_rejected():
    doc = {
        "generators": [{"name": "u", "degree": 0}],
        "products": [{"left": "u", "right": "z", "value": []}],
    }
    with pytest.raises(cm.SchemaError):
        cm.parse_algebra(doc)


def test_integer_moduli_are_not_supported():
    doc = dict(E2_DOC)
    doc = {**doc, "modulus": 7}
    with pytest.raises(cm.SchemaError):
        cm.parse_algebra(doc)


def test_vector_round_trip(e2):
    a, b, g = e2.generators()
    v = Fraction(2, 3) * a - b + 5 * g
    assert read_vector(v.to_doc(), e2) == v


def test_elements_and_maps_are_not_hashable(e2):
    """`accumulate` and `add_term` change an element in place, so no value
    hash may key it in a set or a dict."""
    for value in (e2.generator(0), cm.SElement.from_vector(e2.generator(0), 2),
                  cm.LinearMap.identity(e2)):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


def test_reprs_list_the_terms_in_order(e2):
    a, b, g = e2.generators()
    v = 2 * g + (-1) * a + Fraction(1, 3) * b
    assert repr(v) == "(-1)*a + (1/3)*b + (2)*g"
    assert repr(cm.wedge(cm.SElement.from_vector(v, 2), cm.SElement.from_vector(a, 2))) == (
        "(-1/3)*a^b + (2)*a^g"
    )
    assert repr(cm.Vector(e2)) == repr(cm.SElement(e2, 2)) == "0"


def test_vector_homogeneity(e2):
    a, b, g = e2.generators()
    assert (a + b).is_homogeneous(1)
    assert not (a + g).is_homogeneous()
    assert cm.Vector(e2).is_homogeneous(3)


def test_multiply_is_bilinear(e2):
    rng = random.Random(7)
    for _ in range(20):
        u = random_vector(rng, e2)
        v = random_vector(rng, e2)
        w = random_vector(rng, e2)
        left = e2.multiply(u + 2 * v, w)
        assert left == e2.multiply(u, w) + 2 * e2.multiply(v, w)


def test_linear_map_composition_and_identity(e2):
    f = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(2)}, 1: {1: Fraction(3)},
                                 2: {2: Fraction(6)}})
    ident = cm.LinearMap.identity(e2)
    assert f.compose(ident).columns == f.columns
    assert ident.compose(f).columns == f.columns
    a, b, g = e2.generators()
    assert f.apply(a + b) == 2 * a + 3 * b


def test_linear_map_degree_validation(e2):
    with pytest.raises(cm.ValidationError):
        cm.LinearMap(e2, e2, 0, {0: {2: Fraction(1)}})
    # a column index outside the source: negative, or past its last generator
    for index in (-3, 5):
        with pytest.raises(cm.ValidationError, match="out of range"):
            cm.LinearMap(e2, e2, 0, {index: {0: 1}})


def test_bracket_of_odd_maps_is_an_anticommutator(e2):
    d1 = cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    d2 = cm.LinearMap(e2, e2, -1, {2: {1: Fraction(1)}})
    br = cm.linear_bracket(d1, d2)
    assert br == d1.compose(d2) + d2.compose(d1)


def test_bracket_of_even_with_odd_is_a_commutator(e2):
    euler = cm.LinearMap(e2, e2, 0, {0: {0: Fraction(1)}, 1: {1: Fraction(1)},
                                     2: {2: Fraction(2)}})
    d = cm.LinearMap(e2, e2, -1, {2: {0: Fraction(1)}})
    br = cm.linear_bracket(euler, d)
    assert br == euler.compose(d) - d.compose(euler)


def test_chain_complex_carries_no_product():
    C = cm.ChainComplex([("c", 0), ("e", 1)], {1: {0: Fraction(1)}})
    assert not isinstance(C, cm.AlgebraPresentation)
    assert not hasattr(C, "products")
    (col,) = C.differential.columns.values()
    assert col == cm.Vector(C, {0: Fraction(1)})


def test_chain_complex_differential_must_square_to_zero():
    with pytest.raises(cm.ValidationError):
        cm.ChainComplex([("u", 0), ("v", 1), ("w", 2)],
                        {1: {0: Fraction(1)}, 2: {1: Fraction(1)}})


def test_parse_linear_map_round_trip(e2):
    doc = {"source": "A", "target": "A", "degree": 0,
           "entries": [{"gen": "a", "value": [{"gen": "a", "coeff": "2"}]},
                       {"gen": "g", "value": [{"gen": "g", "coeff": "1/3"}]}]}
    f = cm.parse_linear_map(doc, e2, e2)
    a, _, g = e2.generators()
    assert f.apply(a) == 2 * a
    assert f.apply(g) == Fraction(1, 3) * g
