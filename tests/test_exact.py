import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palette.exact import PHI_OVER_SQRT5, Sqrt5, sqrt, surd

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=50
)
radicands = st.sampled_from([2, 3, 5, 7])
ints = st.integers(min_value=-10**6, max_value=10**6)
divisors = st.integers(min_value=1, max_value=12)


def as_float(a, b, rad):
    return float(a) + float(b) * math.sqrt(rad)


@settings(max_examples=150, deadline=None)
@given(radicands, fractions, fractions, fractions, fractions)
def test_ring_ops_match_floats(rad, a, b, c, d):
    x, y = surd(a, b, rad), surd(c, d, rad)
    assert float(x + y) == pytest.approx(as_float(a + c, b + d, rad))
    assert float(x - y) == pytest.approx(as_float(a - c, b - d, rad))
    prod = x * y
    assert float(prod) == pytest.approx(float(x) * float(y), abs=1e-9)
    if y != 0:
        assert (x / y) * y == x


@settings(max_examples=150, deadline=None)
@given(radicands, fractions, fractions, fractions, fractions)
def test_ordering_matches_floats(rad, a, b, c, d):
    x, y = surd(a, b, rad), surd(c, d, rad)
    fx, fy = float(x), float(y)
    if abs(fx - fy) > 1e-9:
        assert (x < y) == (fx < fy)
        assert (x > y) == (fx > fy)
    if (a, b) == (c, d):
        assert x == y


def test_mixed_arithmetic_with_rationals():
    x = Sqrt5(Fraction(1, 2), Fraction(1, 10))
    assert x + 1 == Sqrt5(Fraction(3, 2), Fraction(1, 10))
    assert 1 - x == Sqrt5(Fraction(1, 2), Fraction(-1, 10))
    assert 2 * x == Sqrt5(1, Fraction(1, 5))
    assert (x / 2).a == Fraction(1, 4)
    assert Fraction(2, 3) * x == Sqrt5(Fraction(1, 3), Fraction(1, 15))


def test_division_by_sqrt5_number():
    x = Sqrt5(0, 1)  # sqrt(5)
    assert x / x == Sqrt5(1)
    assert 1 / x == Sqrt5(0, Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        x / Sqrt5(0)


def test_sign_of_conjugate_pairs():
    # a > 0 > b with a^2 vs 5 b^2 on either side
    assert Sqrt5(3, -1) > 0  # 9 > 5
    assert Sqrt5(2, -1) < 0  # 4 < 5
    assert Sqrt5(-3, 1) < 0
    assert Sqrt5(-2, 1) > 0
    assert Sqrt5(Fraction(5), Fraction(-1)) * Sqrt5(Fraction(5), Fraction(1)) == 20
    assert surd(2, -1, 3) > 0 and surd(1, -1, 3) < 0  # 4 > 3 > 1
    assert str(Sqrt5(Fraction(1, 2), Fraction(-1, 10))) == "1/2 - 1/10*sqrt(5)"
    assert repr(surd(1, 2, 3)) == "surd(1, 2, 3)"
    assert surd(5, 0, 5) == Sqrt5(5)  # d = 5 either way


def test_golden_ratio_constant():
    p = PHI_OVER_SQRT5
    phi = (1 + math.sqrt(5)) / 2
    assert float(p) == pytest.approx(phi / math.sqrt(5))
    # the two ratio branches coincide at 4/5 exactly
    assert p * p - p + 1 == Fraction(4, 5)
    assert Fraction(2, 3) * (-(p * p) + p + 1) == Fraction(4, 5)


def test_rejects_unsupported_types():
    with pytest.raises(TypeError):
        Sqrt5(1) + 0.5  # floats stay out of the exact domain
    with pytest.raises(TypeError):
        0.5 + Sqrt5(1)  # in either operand order
    with pytest.raises(TypeError):
        Sqrt5(1) < 0.5
    with pytest.raises(TypeError):
        0.5 < Sqrt5(1)
    assert (Sqrt5(1) == 0.5) is False  # equality answers, never raises
    with pytest.raises(ValueError):
        Sqrt5(1, 1) + surd(1, 1, 3)  # sqrt(5) and sqrt(3) do not mix
    with pytest.raises(ValueError):
        surd(1, 1, 4)  # sqrt(4) is rational: not a quadratic field


def _int_coordinates(x):
    return type(x.a) is int and type(x.b) is int


@settings(max_examples=150, deadline=None)
@given(radicands, ints, ints, ints, ints, divisors)
def test_int_coordinates_stay_ints_until_divided(rad, a, b, c, d, n):
    x, y = surd(a, b, rad), surd(c, d, rad)
    assert _int_coordinates(x)
    for z in (x + y, x - y, x * y, -x, x + c, c - x, c * x, x // n):
        assert _int_coordinates(z)
    quotients = [x / n, x / Fraction(n, 7), n / surd(1, 1, rad)]
    if y != 0:
        quotients.append(x / y)
        assert (x / y) * y == x
    for q in quotients:
        assert type(q.a) is Fraction and type(q.b) is Fraction
    assert x / n == surd(Fraction(a, n), Fraction(b, n), rad)


@settings(max_examples=150, deadline=None)
@given(radicands, ints, ints, divisors)
def test_floor_split_is_exact_on_multiples(rad, a, b, n):
    x = surd(a * n, b * n, rad)
    assert (x // n) * n == x and x // n == surd(a, b, rad)
    y = x + 1
    if n > 1:  # n no longer divides the rational coordinate: the split drops value
        assert (y // n) * n != y and (y // n).a == (a * n + 1) // n


def test_sqrt_is_an_int_exactly_at_square_k():
    for k in range(1, 401):
        root = sqrt(k)
        assert (type(root) is int) == (math.isqrt(k) ** 2 == k)
        assert root * root == k
        if type(root) is not int:
            assert root.d == k and _int_coordinates(root) and root > 0


@settings(max_examples=150, deadline=None)
@given(radicands, ints, ints)
def test_hash_agrees_across_coordinate_types(rad, a, b):
    x, y = surd(a, b, rad), surd(Fraction(a), Fraction(b), rad)
    assert _int_coordinates(x) and type(y.a) is Fraction and type(y.b) is Fraction
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    assert len({x, y}) == 1
    if b == 0:
        assert x == a and hash(x) == hash(a) == hash(Fraction(a))


def test_equality_is_exact_across_radicands():
    assert surd(1, 2, 5) != surd(1, 2, 10) and Sqrt5(1, 2) != surd(1, 2, 10)
    assert surd(0, 2, 5) == surd(0, 1, 20) and hash(surd(0, 2, 5)) == hash(surd(0, 1, 20))
    assert surd(3, -2, 5) == surd(3, -1, 20) != surd(3, 1, 20)
    assert surd(4, 0, 3) == surd(4, 0, 7) == 4 and hash(surd(4, 0, 7)) == hash(4)
    assert len({surd(1, 2, 5), surd(1, 2, 10), surd(0, 2, 5), surd(0, 1, 20)}) == 3
    # ordering and arithmetic still refuse two radicands, even between equal values
    for x, y in ((surd(1, 2, 5), surd(1, 2, 10)), (surd(0, 2, 5), surd(0, 1, 20))):
        for op in (lambda: x < y, lambda: x >= y, lambda: x + y, lambda: x * y, lambda: x / y):
            with pytest.raises(ValueError, match="cannot mix radicands"):
                op()


@settings(max_examples=150, deadline=None)
@given(radicands, radicands, fractions, fractions, st.integers(1, 6))
def test_equality_and_hash_across_radicands_follow_the_value(r1, r2, a, b, n):
    x, y = surd(a, b * n, r1), surd(a, b, r1 * n * n)  # b*n*sqrt(r1) = b*sqrt(r1*n*n)
    assert x == y and hash(x) == hash(y)
    assert (x == surd(a, b, r2)) == (b == 0 or (n, r1) == (1, r2))
    assert (x == a) == (b == 0)


def test_a_surd_is_false_exactly_at_zero():
    assert not bool(surd(0, 0, 5)) and not bool(Sqrt5(0)) and not surd(0, 0, 3)
    assert Sqrt5(0, 1) and surd(1, 0, 3) and Sqrt5(Fraction(1, 2), Fraction(-1, 10))


@settings(max_examples=150, deadline=None)
@given(radicands, fractions, fractions)
def test_truth_agrees_with_zero(rad, a, b):
    x = surd(a, b, rad)
    assert bool(x) == (x != 0) == ((a, b) != (0, 0))
