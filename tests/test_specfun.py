"""Pochhammer and sine-product kernels, and the Gamma oracle behind the
series pass's pole test, checked against mpmath and against exact rational
arithmetic."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gamma, pochhammer_exact, pochhammer_reflection_check

from gkzeuler import specfun
from gkzeuler.errors import PoleAtNonpositiveInteger, SineZero, UndefinedRatio

_safe_reals = st.floats(min_value=-15.0, max_value=15.0,
                        allow_nan=False, allow_infinity=False)
_safe_imags = st.floats(min_value=-10.0, max_value=10.0,
                        allow_nan=False, allow_infinity=False)


def _off_poles(z):
    return abs(z.imag) > 1e-3 or abs(z.real - round(z.real)) > 1e-3 \
        or round(z.real) > 0


@given(re=_safe_reals, im=_safe_imags)
@settings(max_examples=200, deadline=None)
def test_gamma_matches_mpmath(re, im):
    z = complex(re, im)
    if not _off_poles(z):
        return
    got = gamma(z)
    want = complex(mpmath.gamma(z))
    assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)


def test_gamma_raises_on_nonpositive_integers():
    for n in (0, -1, -2, -7):
        with pytest.raises(PoleAtNonpositiveInteger):
            gamma(n)


@given(re=_safe_reals, im=_safe_imags, m=st.integers(min_value=-6, max_value=8))
@settings(max_examples=200, deadline=None)
def test_pochhammer_integer_shift_is_a_product(re, im, m):
    a = complex(re, im)
    if m < 0 and any(a == i for i in range(1, -m + 1)):
        return
    got = specfun.pochhammer(a, m)
    want = 1.0 + 0j
    if m >= 0:
        for i in range(m):
            want *= a + i
    else:
        for i in range(1, -m + 1):
            want /= a - i
    assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_pochhammer_finite_on_gamma_pole_with_integer_shift():
    # (-2)_3 = (-2)(-1)(0) = 0, even though Gamma(-2) is a pole
    assert specfun.pochhammer(-2, 3) == 0j
    # (-2)_5 = (-2)(-1)(0)(1)(2) = 0
    assert specfun.pochhammer(-2.0, 5) == 0j
    assert specfun.pochhammer(-3, 2) == complex((-3) * (-2))


def test_pochhammer_exact_is_rational():
    assert pochhammer_exact(Fraction(1, 3), 3) == \
        Fraction(1, 3) * Fraction(4, 3) * Fraction(7, 3)
    assert pochhammer_exact(Fraction(5, 2), -2) == \
        1 / (Fraction(3, 2) * Fraction(1, 2))
    with pytest.raises(UndefinedRatio):
        pochhammer_exact(Fraction(2), -3)


@given(st.lists(st.floats(min_value=-4.0, max_value=4.0,
                          allow_nan=False, allow_infinity=False),
                min_size=0, max_size=5))
@settings(max_examples=150, deadline=None)
def test_sin_pi_product(vs):
    if any(abs(x - round(x)) <= 1e-6 for x in vs):
        return
    got = specfun.sin_pi_product(vs)
    want = 1.0 + 0j
    for x in vs:
        want *= cmath.sin(math.pi * x)
    assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


def test_sin_pi_product_raises_on_integers():
    with pytest.raises(SineZero):
        specfun.sin_pi_product([0.5, 3.0])


def test_pochhammer_reflection_identity_holds():
    rng = random.Random(20260826)
    for _ in range(100):
        g = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.5, 1.5))
        if abs(g.imag) < 0.05 and abs(g.real - round(g.real)) < 0.05:
            continue
        m = rng.randrange(0, 12)
        assert pochhammer_reflection_check(g, m) < 1e-11 * max(
            abs(specfun.pochhammer(g, m)), 1.0)
