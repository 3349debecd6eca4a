"""Classical cumulants, pinned values, and the recursion oracle."""
import math
import random
from fractions import Fraction

import pytest

import cumalg as cm


def test_parse_moments_happy_path():
    got = cm.parse_moments({"moments": ["1/2", "3", -2]})
    assert got == [Fraction(1, 2), Fraction(3), Fraction(-2)]


@pytest.mark.parametrize("doc", [
    {"wrong": []},
    {"moments": []},
    {"moments": ["0.5"]},
    "[]",
])
def test_parse_moments_rejects_bad_documents(doc):
    with pytest.raises(cm.SchemaError):
        cm.parse_moments(doc)


def test_fair_coin_cumulants():
    half = Fraction(1, 2)
    got = cm.cumulants_from_moments([half, half, half, half])
    assert got == [half, Fraction(1, 4), Fraction(0), Fraction(-1, 8)]


def test_unit_rate_poisson_cumulants():
    got = cm.cumulants_from_moments([1, 2, 5, 15])
    assert got == [Fraction(1)] * 4


def test_constant_variable_has_only_a_mean():
    c = Fraction(7, 3)
    got = cm.cumulants_from_moments([c, c**2, c**3, c**4, c**5])
    assert got == [c, 0, 0, 0, 0]


def test_first_two_cumulants_symbolically():
    rng = random.Random(13)
    for _ in range(5):
        m1 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        m2 = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        got = cm.cumulants_from_moments([m1, m2])
        assert got == [m1, m2 - m1 * m1]


def test_matches_the_recursion_oracle():
    rng = random.Random(97)
    for _ in range(25):
        n = rng.randint(1, 6)
        moments = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        assert cm.cumulants_from_moments(moments) == cm.oracle_cumulants(moments)


def test_shift_moves_only_the_mean():
    rng = random.Random(29)
    moments = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5)]
    shift = Fraction(3, 2)
    padded = [Fraction(1)] + moments
    shifted = [
        sum(math.comb(n, k) * shift**k * padded[n - k] for k in range(n + 1))
        for n in range(1, 6)
    ]
    base = cm.cumulants_from_moments(moments)
    moved = cm.cumulants_from_moments(shifted)
    assert moved[0] == base[0] + shift
    assert moved[1:] == base[1:]


def test_scaling_scales_the_nth_cumulant_by_the_nth_power():
    rng = random.Random(31)
    moments = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
    a = Fraction(-5, 3)
    scaled = [a ** n * m for n, m in enumerate(moments, start=1)]
    base = cm.cumulants_from_moments(moments)
    assert cm.cumulants_from_moments(scaled) == [a ** n * k for n, k in enumerate(base, start=1)]


def test_cumulants_of_independent_variables_add():
    rng = random.Random(37)
    x, y = (
        [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(6)]
        for _ in range(2)
    )
    # E[(X+Y)^n] for independent X and Y, by binomial convolution
    total = [
        sum(math.comb(n, k) * x[k] * y[n - k] for k in range(n + 1)) for n in range(1, 7)
    ]
    kx, ky = cm.cumulants_from_moments(x[1:]), cm.cumulants_from_moments(y[1:])
    assert cm.cumulants_from_moments(total) == [a + b for a, b in zip(kx, ky)]


def test_expectation_map_lands_in_the_ground_field():
    f = cm.expectation_map([Fraction(1), Fraction(2)])
    assert f.target is cm.ground_field_algebra()
    assert len(f.target) == 1
    (u,) = f.target.generators()
    assert f.target.multiply(u, u) == u


def test_truncated_algebras_are_shared():
    assert cm.truncated_polynomial_algebra(5) is cm.truncated_polynomial_algebra(5)


def test_truncated_algebra_cache_stays_bounded():
    """The cache keeps at most its bound however many sizes a process asks
    for, and holds every size a CLI job can ask for (n <= 10) at once."""
    build = cm.truncated_polynomial_algebra
    bound = build.cache_info().maxsize
    assert bound is not None and bound >= 10
    for n in range(1, 41):
        build(n)
        assert build.cache_info().currsize <= bound
    first = [build(n) for n in range(1, 11)]
    assert all(build(n) is kept for n, kept in zip(range(1, 11), first))
