"""Riemann-Liouville operators: goldens, power rule, classical reduction."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfi.fracint import rl_left, rl_right
from hqfi.quad import integrate
from hqfi.specialfn import gamma


def test_rl_of_constant():
    # J^alpha 1 = (b-u)^alpha / Gamma(alpha+1) on either side
    for alpha in (0.25, 0.5, 1.0, 1.7, 2.6):
        assert rl_left(lambda t: 1.0, 1.0, alpha, 2.5) == pytest.approx(
            1.5**alpha / gamma(alpha + 1.0), rel=1e-11
        )
        assert rl_right(lambda t: 1.0, 2.5, alpha, 1.0) == pytest.approx(
            1.5**alpha / gamma(alpha + 1.0), rel=1e-11
        )


def test_rl_right_half_order_golden():
    # (1/Gamma(1/2)) int_0^1 t^{-1/2} t dt = 2/(3 sqrt(pi))
    got = rl_right(lambda t: t, 1.0, 0.5, 0.0)
    assert got == pytest.approx(2.0 / (3.0 * math.sqrt(math.pi)), rel=1e-12)


def test_rl_left_half_order_golden():
    # (1/Gamma(1/2)) int_0^1 (1-t)^{-1/2} t dt = B(2,1/2)/sqrt(pi) = 4/(3 sqrt(pi))
    got = rl_left(lambda t: t, 0.0, 0.5, 1.0)
    assert got == pytest.approx(4.0 / (3.0 * math.sqrt(math.pi)), rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(0.1, 3.0), p=st.floats(0.0, 3.0), span=st.floats(0.2, 2.0))
def test_rl_right_power_rule(alpha, p, span):
    # J_{v-}^alpha (v-t)^p at a: Gamma(p+1)/Gamma(alpha+p+1) * (v-a)^{alpha+p}
    a, v = 1.0, 1.0 + span
    expected = gamma(p + 1.0) / gamma(alpha + p + 1.0) * span ** (alpha + p)
    got = rl_right(lambda t: (v - t) ** p, v, alpha, a)
    assert got == pytest.approx(expected, rel=1e-9)


@settings(deadline=None, max_examples=40)
@given(alpha=st.floats(0.1, 3.0), p=st.floats(0.0, 3.0), span=st.floats(0.2, 2.0))
def test_rl_left_power_rule(alpha, p, span):
    # J_{u+}^alpha (t-u)^p at b: Gamma(p+1)/Gamma(alpha+p+1) * (b-u)^{alpha+p}
    u, b = 1.0, 1.0 + span
    expected = gamma(p + 1.0) / gamma(alpha + p + 1.0) * span ** (alpha + p)
    got = rl_left(lambda t: (t - u) ** p, u, alpha, b)
    assert got == pytest.approx(expected, rel=1e-9)


def test_alpha_one_reduces_to_plain_integration():
    rng = random.Random(3)
    fns = [math.exp, math.sqrt, lambda t: 1.0 / t, lambda t: t * math.log(t)]
    for f in fns:
        for _ in range(5):
            u = rng.uniform(0.5, 1.5)
            b = u + rng.uniform(0.3, 1.5)
            plain = integrate(f, u, b)
            assert rl_left(f, u, 1.0, b) == pytest.approx(plain, rel=1e-10, abs=1e-12)
            assert rl_right(f, b, 1.0, u) == pytest.approx(plain, rel=1e-10, abs=1e-12)


def test_linearity():
    f, g = math.exp, math.sin
    combo = lambda t: 2.0 * f(t) - 3.0 * g(t)
    got = rl_left(combo, 0.0, 0.7, 1.0)
    expected = 2.0 * rl_left(f, 0.0, 0.7, 1.0) - 3.0 * rl_left(g, 0.0, 0.7, 1.0)
    assert got == pytest.approx(expected, rel=1e-11)


def test_order_validation():
    with pytest.raises(ValueError):
        rl_left(lambda t: 1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        rl_right(lambda t: 1.0, 1.0, -0.5, 0.0)


def test_endpoint_ordering_validation():
    with pytest.raises(ValueError):
        rl_left(lambda t: 1.0, 2.0, 0.5, 1.0)  # base > at
    with pytest.raises(ValueError):
        rl_right(lambda t: 1.0, 1.0, 0.5, 2.0)  # at > base
    with pytest.raises(ValueError):
        rl_left(lambda t: 1.0, 1.0, 0.5, 1.0)  # empty interval
