"""Gamma/beta and the dual-route Gauss hypergeometric implementation."""
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfi import kernels, specialfn
from hqfi.quad import integrate_singular
from hqfi.specialfn import _lgamma_slope, beta, gamma, hyp2f1, hyp2f1_integral, hyp2f1_series

EULER_GAMMA = 0.5772156649015329
# above z = 0.9, where the w-series cancels more than 100-fold and hyp2f1 takes the Euler integral
_W_CANCELS = (26.626786447863417, 28.529754408299173, 56.372857676315924, 0.9221868645536049)


def test_gamma_goldens():
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)
    assert gamma(1.0) == 1.0


def test_gamma_against_truncated_euler_integral():
    # int_0^50 e^{-t} t^{-1/2} dt misses Gamma(1/2) by less than e^{-50}
    got = integrate_singular(lambda t: math.exp(-t), 0.5, "lower", 0.0, 50.0)
    assert got == pytest.approx(gamma(0.5), abs=1e-9)


def test_gamma_domain():
    with pytest.raises(ValueError):
        gamma(0.0)
    with pytest.raises(ValueError):
        gamma(-1.5)


@settings(deadline=None, max_examples=50)
@given(x=st.floats(0.05, 20.0))
def test_gamma_recurrence(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_beta_golden():
    # B(2.5, 3.5) = Gamma(2.5)Gamma(3.5)/Gamma(6)
    assert beta(2.5, 3.5) == pytest.approx(gamma(2.5) * gamma(3.5) / gamma(6.0), rel=1e-13)
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)


@settings(deadline=None, max_examples=50)
@given(x=st.floats(0.1, 8.0), y=st.floats(0.1, 8.0))
def test_beta_symmetry(x, y):
    assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-12)


# (a, b, c, z, message): finiteness is checked first, then c > b > 0, then z
_BAD_HYP_ARGS = [
    (1.0, 2.0, 2.0, 0.5, "hyp2f1 requires c > b > 0, got b=2.0, c=2.0"),  # c == b
    (1.0, 0.0, 1.0, 0.5, "hyp2f1 requires c > b > 0, got b=0.0, c=1.0"),  # b == 0
    (1.0, -1.0, 2.0, 0.95, "hyp2f1 requires c > b > 0, got b=-1.0, c=2.0"),
    (1.0, 1.0, 2.0, 1.0, "hyp2f1 defined for z in [0, 1), got z=1.0"),
    (1.0, 1.0, 2.0, -0.1, "hyp2f1 defined for z in [0, 1), got z=-0.1"),
    (1.0, 1.0, 2.0, 1.5, "hyp2f1 defined for z in [0, 1), got z=1.5"),
    (math.nan, 1.0, 2.0, 0.5, "hyp2f1 parameter a must be finite"),
    (1.0, math.inf, 2.0, 0.95, "hyp2f1 parameter b must be finite"),
    (1.0, 1.0, math.inf, 0.5, "hyp2f1 parameter c must be finite"),
    (1.0, 1.0, 2.0, math.nan, "hyp2f1 parameter z must be finite"),
    (1.0, 1.0, 2.0, -math.inf, "hyp2f1 parameter z must be finite"),
    (math.inf, 0.0, 2.0, 2.0, "hyp2f1 parameter a must be finite"),
]


def test_hyp2f1_argument_validation():
    # every route checks its own arguments, with the same messages
    for route in (hyp2f1, hyp2f1_series, hyp2f1_integral):
        for *args, message in _BAD_HYP_ARGS:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                route(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        # the power series sums to inf
        ((2000, 2, 3, 0.5), "hyp2f1(a=2000, b=2, c=3, z=0.5) = inf is not finite in double precision"),
        # w^d in Euler's transformation raises before any series runs
        ((800.0, 2.0, 3.0, 0.99), "hyp2f1(a=800.0, b=2.0, c=3.0, z=0.99) overflows double precision: ("),
    ],
)
def test_hyp2f1_names_its_overflow_on_every_route(args, message):
    with pytest.raises(OverflowError) as info:
        hyp2f1(*args)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize(
    "route, args, message",
    [
        # the power series sums to inf at both points
        (hyp2f1_series, (2000, 2, 3, 0.5), "hyp2f1_series(a=2000, b=2, c=3, z=0.5) = inf is not finite in double"),
        (hyp2f1_series, (800.0, 2.0, 3.0, 0.99), "hyp2f1_series(a=800.0, b=2.0, c=3.0, z=0.99) = inf is not finite"),
        # (1 - z t)^(-a) raises inside the Euler integral
        (hyp2f1_integral, (2000, 2, 3, 0.5), "hyp2f1_integral(a=2000, b=2, c=3, z=0.5) overflows double precision: ("),
        (hyp2f1_integral, (800.0, 2.0, 3.0, 0.99), "hyp2f1_integral(a=800.0, b=2.0, c=3.0, z=0.99) overflows double precision: ("),
    ],
    ids=["series-0.5", "series-0.99", "integral-0.5", "integral-0.99"],
)
def test_public_2f1_routes_name_their_overflow(route, args, message):
    # the overflow on every route of hyp2f1 is named, the two public routes included
    with pytest.raises(OverflowError) as info:
        route(*args)
    assert str(info.value).startswith(message)


def _refuse_public_route(*args):
    raise AssertionError(f"public 2F1 route called with {args}")


def test_hyp2f1_composes_the_route_bodies_not_the_public_routes(monkeypatch):
    # hyp2f1 names a failure once, itself: it never passes through the public routes,
    # which would name the failure first
    monkeypatch.setattr(specialfn, "hyp2f1_series", _refuse_public_route)
    monkeypatch.setattr(specialfn, "hyp2f1_integral", _refuse_public_route)
    for params, bits in (
        ((2.0, 1.5, 3.0, 0.5), "0x1.f0ed99bed9b2ep+0"),  # power series
        ((2.0, 1.5, 3.0, 0.97), "0x1.0c747a0a699c6p+4"),  # w-series
        ((-0.5, 1.0, 2.0, 0.95), "0x1.6347fab2d796cp-1"),  # a <= 0: Euler integral
        (_W_CANCELS, "0x1.536336dd62822p+34"),  # w-series cancels: Euler integral
        ((120.0, 20.0, 30.0, 0.95), "0x1.99f15cc918a19p+453"),  # a + b + c > 150: Euler integral
    ):
        assert hyp2f1(*params).hex() == bits, params
    with pytest.raises(OverflowError) as info:
        hyp2f1(2000, 2, 3, 0.5)
    assert str(info.value) == "hyp2f1(a=2000, b=2, c=3, z=0.5) = inf is not finite in double precision"
    assert info.value.__cause__ is None


def test_hyp2f1_at_zero_is_one():
    assert hyp2f1(3.2, 1.1, 2.7, 0.0) == 1.0


def test_hyp2f1_goldens():
    # 2F1(2,2;3;1/2) = 8(1 - ln 2)
    assert hyp2f1(2.0, 2.0, 3.0, 0.5) == pytest.approx(
        8.0 * (1.0 - math.log(2.0)), rel=1e-10
    )
    # 2F1(1,1;2;z) = -ln(1-z)/z at z = 1/2 gives 2 ln 2
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-10)
    # a <= 0: the series' first term is negative, so its stopping test needs abs.  At a = -3 it
    # terminates: 1 - 9/5 + 162/125 - 1458/4375 = 712/4375 at z = 9/10
    assert hyp2f1_series(-3.0, 1.0, 1.5, 0.9) == pytest.approx(712 / 4375, rel=1e-14, abs=0.0)
    # 0.75879773408334033 from mpmath at 40 digits
    assert hyp2f1(-0.5, 1.0, 2.0, 0.8) == pytest.approx(0.75879773408334033, rel=1e-14, abs=0.0)


def test_hyp2f1_binomial_identity():
    # 2F1(a,b;b;z) = (1-z)^{-a}; c > b forces a nearby c, use the Euler route
    got = hyp2f1_integral(1.5, 2.0, 2.0 + 1e-12, 0.4)
    assert got == pytest.approx((1.0 - 0.4) ** -1.5, rel=1e-9)


@settings(deadline=None, max_examples=60)
@given(z=st.floats(0.0, 0.9))
def test_hyp2f1_log_family(z):
    expected = 1.0 if z == 0.0 else -math.log1p(-z) / z
    assert hyp2f1(1.0, 1.0, 2.0, z) == pytest.approx(expected, rel=1e-11)


def test_series_vs_integral_on_random_admissible_points():
    # dual-route agreement: the acceptance criterion at module scale
    rng = random.Random(7)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(0.05, 8.0)
        b = rng.uniform(0.3, 4.0)
        c = b + rng.uniform(0.3, 4.0)
        z = rng.uniform(0.0, 0.9)
        s = hyp2f1_series(a, b, c, z)
        i = hyp2f1_integral(a, b, c, z)
        rel = abs(s - i) / max(abs(i), 1e-300)
        worst = max(worst, rel)
    assert worst <= 1e-10


def test_dispatcher_matches_integral_above_switch():
    # above z = 0.9 hyp2f1 sums series in 1 - z, a route independent of the Euler integral
    p = (2.0, 1.5, 3.0, 0.97)
    assert hyp2f1(*p) == pytest.approx(hyp2f1_integral(*p), rel=1e-12)


@settings(deadline=None, max_examples=80)
@given(a=st.floats(2.0, 20.0), z=st.floats(0.9, 0.9999, exclude_min=True))
def test_hyp2f1_elementary_family_above_switch(a, z):
    # 2F1(a, 1; 2; z) = ((1-z)^(1-a) - 1) / ((a-1) z); c - a - b = 1 - a spans integers and non-integers
    expected = ((1.0 - z) ** (1.0 - a) - 1.0) / ((a - 1.0) * z)
    assert hyp2f1(a, 1.0, 2.0, z) == pytest.approx(expected, rel=1e-13)


def test_digamma_goldens():
    assert _lgamma_slope(1.0, 0.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)
    assert _lgamma_slope(0.5, 0.0) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=2e-15)


@settings(deadline=None, max_examples=60)
@given(x=st.floats(0.05, 40.0))
def test_digamma_recurrence(x):
    assert _lgamma_slope(x + 1.0, 0.0) == pytest.approx(_lgamma_slope(x, 0.0) + 1.0 / x, rel=1e-14, abs=1e-14)


@settings(deadline=None, max_examples=60)
@given(x=st.floats(0.6, 30.0), e=st.floats(0.05, 0.5), sign=st.sampled_from([-1.0, 1.0]))
def test_lgamma_slope_is_the_divided_difference(x, e, sign):
    # |e| >= 0.05 keeps the lgamma difference itself good to ~1e-14
    e *= sign
    expected = (math.lgamma(x + e) - math.lgamma(x)) / e
    assert _lgamma_slope(x, e) == pytest.approx(expected, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("x", [0.3, 1.0, 2.5, 11.0, 12.5])
def test_lgamma_slope_tends_to_digamma(x):
    # no loss of digits as e -> 0: the slope moves by about e * psi'(x) / 2 < e (1/x + 1/x^2)
    psi = _lgamma_slope(x, 0.0)
    for e in (1e-3, 1e-6, 1e-9, 1e-12):
        assert _lgamma_slope(x, e) == pytest.approx(psi, abs=e * (1.0 / x + 1.0 / x**2) + 1e-14)
        assert _lgamma_slope(x, -e) == pytest.approx(psi, abs=e * (1.0 / x + 1.0 / x**2) + 1e-14)


@pytest.mark.parametrize(
    "a, b, c", [(16.0, 1.0, 2.0), (4.0, 3.0, 4.0), (2.0, 1.0, 3.0), (3.0, 6.0, 7.0), (7.0, 1.0, 12.0)]
)
def test_hyp2f1_continuous_across_integer_d(a, b, c):
    # d = c - a - b is an integer here; 1e-12 away the value may move only by about
    # 1e-12 * |d ln F / dc|, never by the 1/sin(pi d) of the connection formula's terms
    for z in (0.95, 0.999):
        at = hyp2f1(a, b, c, z)
        for dc in (1e-12, -1e-12, 1e-9, -1e-9):
            near = hyp2f1(a, b, c + dc, z)
            assert near == pytest.approx(at, rel=20.0 * abs(dc) + 1e-14)


def _refuse(*args, **kwargs):
    raise AssertionError("quadrature reached")


def test_moments_near_z_one_run_without_quadrature(monkeypatch):
    # the constants grid's points with r <= 0.1 put z = 1 - r and the kink's z above 0.9
    monkeypatch.setattr(specialfn, "integrate", _refuse)
    monkeypatch.setattr(specialfn, "integrate_singular", _refuse)
    for alpha in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        for lam in (0.0, 1.0 / 3.0, 0.5, 1.0):
            for q in (1.0, 2.0, 4.0, 8.0):
                for r in (0.01, 0.05, 0.1):
                    assert kernels.c2(alpha, lam, q, r) > 0.0
                    assert kernels.c3(alpha, lam, q, r) > 0.0


@pytest.mark.parametrize(
    "params",
    [
        (-0.5, 1.0, 2.0, 0.95),  # a <= 0
        _W_CANCELS,
        (120.0, 20.0, 30.0, 0.95),  # a + b + c > 150
    ],
)
def test_fallback_points_reach_the_integral(params, monkeypatch):
    # hyp2f1 takes the Euler integral through its body, which the public route wraps
    expected = hyp2f1_integral(*params)
    seen = []
    monkeypatch.setattr(specialfn, "_hyp2f1_integral", lambda *p: seen.append(p) or expected)
    assert hyp2f1(*params) == expected
    assert seen == [params]


def test_integral_route_with_singular_endpoint_weights():
    # b < 1 and c - b < 1 puts integrable singularities at both endpoints
    p = (0.8, 0.4, 1.1, 0.6)
    assert hyp2f1_integral(*p) == pytest.approx(hyp2f1_series(*p), rel=1e-10)
