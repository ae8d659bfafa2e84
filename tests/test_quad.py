"""Adaptive Gauss-Kronrod engine: closed-form goldens, tolerance behaviour, weights."""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfi.quad import QuadratureError, QuadSpec, SingularWeight, gk15, integrate, integrate_singular


def test_gk15_polynomial_exactness():
    # the 15-point Kronrod rule is exact through degree 22
    for k in range(23):
        got, _ = gk15(lambda t: t**k, 0.0, 1.0)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_gk15_error_estimate_bounds_true_error():
    got, err = gk15(math.sin, 0.0, math.pi / 2.0)
    assert abs(got - 1.0) <= max(err, 1e-15)


def test_integrate_smooth_goldens():
    assert integrate(math.exp, QuadSpec(0.0, 1.0)) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert integrate(math.sin, QuadSpec(0.0, math.pi)) == pytest.approx(2.0, rel=1e-12)
    # int_0^1 1/(1+t^2) = pi/4
    assert integrate(lambda t: 1.0 / (1.0 + t * t), QuadSpec(0.0, 1.0)) == pytest.approx(
        math.pi / 4.0, rel=1e-12
    )


def test_integrate_interior_kink():
    # int_0^1 |t - 1/3| dt = 5/18
    got = integrate(lambda t: abs(t - 1.0 / 3.0), QuadSpec(0.0, 1.0))
    assert got == pytest.approx(5.0 / 18.0, abs=1e-11)


def test_integrate_jump_discontinuity():
    got = integrate(lambda t: 0.0 if t < 0.5 else 1.0, QuadSpec(0.0, 1.0, abs_tol=1e-9, rel_tol=1e-8))
    assert got == pytest.approx(0.5, abs=1e-8)


def test_integrate_undeclared_endpoint_singularity_depth_wall():
    # hidden integrable singularities stop at the double-precision bisection
    # wall near the endpoint: ~1e-8 absolute is the documented limit, not 1e-11
    got = integrate(
        lambda u: 1.0 / math.sqrt(1.0 - u * u),
        QuadSpec(-1.0, 1.0, abs_tol=1e-9, rel_tol=1e-9),
    )
    assert got == pytest.approx(math.pi, abs=1e-6)


def test_integrate_nonintegrable_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / t, QuadSpec(0.0, 1.0, max_depth=40))


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(1.0, 1.0)
    with pytest.raises(ValueError):
        QuadSpec(0.0, 1.0, abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadSpec(0.0, 1.0, max_depth=0)
    with pytest.raises(ValueError):
        QuadSpec(0.0, math.inf)


def test_singular_weight_validation():
    with pytest.raises(ValueError):
        SingularWeight(0.0, "lower")
    with pytest.raises(ValueError):
        SingularWeight(0.5, "left")


def test_integrate_singular_lower_exact():
    # int_0^1 t^{-1/2} dt = 2, integrand constant after substitution
    got = integrate_singular(lambda t: 1.0, SingularWeight(0.5, "lower"), QuadSpec(0.0, 1.0))
    assert got == pytest.approx(2.0, rel=1e-13)


def test_integrate_singular_upper_beta_golden():
    # int_0^1 t (1-t)^{-1/2} dt = B(2, 1/2) = 4/3
    got = integrate_singular(lambda t: t, SingularWeight(0.5, "upper"), QuadSpec(0.0, 1.0))
    assert got == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_integrate_singular_exponent_above_one():
    # int_0^1 t^{1.5} dt = 2/5 via the continuous-weight branch (g = 2.5)
    got = integrate_singular(lambda t: 1.0, SingularWeight(2.5, "lower"), QuadSpec(0.0, 1.0))
    assert got == pytest.approx(0.4, rel=1e-12)


def test_integrate_singular_plain_reduction():
    got = integrate_singular(math.exp, SingularWeight(1.0, "lower"), QuadSpec(0.0, 1.0))
    assert got == pytest.approx(math.e - 1.0, rel=1e-12)


def test_integrate_singular_offset_interval():
    # int_1^3 (t-1)^{-0.7} t dt: substitve u = (t-1)^{0.3}; closed form via B-pieces
    # = int_0^2 s^{-0.7} (s+1) ds = [s^{0.3}/0.3 + s^{1.3}/1.3]_0^2
    expected = 2.0**0.3 / 0.3 + 2.0**1.3 / 1.3
    got = integrate_singular(lambda t: t, SingularWeight(0.3, "lower"), QuadSpec(1.0, 3.0))
    assert got == pytest.approx(expected, rel=1e-12)


@settings(deadline=None, max_examples=40)
@given(
    c0=st.floats(-3.0, 3.0),
    c1=st.floats(-3.0, 3.0),
    c2=st.floats(-3.0, 3.0),
    c3=st.floats(-3.0, 3.0),
    hi=st.floats(0.5, 4.0),
)
def test_integrate_matches_antiderivative(c0, c1, c2, c3, hi):
    f = lambda t: c0 + c1 * t + c2 * t * t + c3 * t**3
    F = lambda t: c0 * t + c1 * t * t / 2.0 + c2 * t**3 / 3.0 + c3 * t**4 / 4.0
    got = integrate(f, QuadSpec(0.0, hi))
    assert got == pytest.approx(F(hi), rel=1e-10, abs=1e-10)


@settings(deadline=None, max_examples=30)
@given(g=st.floats(0.1, 0.95), p=st.floats(0.0, 3.0))
def test_integrate_singular_power_rule(g, p):
    # int_0^1 t^p (1-t)^{g-1} dt = B(p+1, g)
    expected = math.exp(math.lgamma(p + 1.0) + math.lgamma(g) - math.lgamma(p + 1.0 + g))
    got = integrate_singular(lambda t: t**p, SingularWeight(g, "upper"), QuadSpec(0.0, 1.0))
    assert got == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("g", [0.05, 0.3, 1.0, 2.5])
@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("c", [1.2, 2.0, 2.9])
def test_integrate_singular_cut_at_a_kink(g, side, c):
    # int_1^3 w(t) |t - c| dt; with d the distance from the weight's end to c
    # and H = 2 the span, it is d^(g+1)/(g(g+1)) + (H^(g+1) - d^(g+1))/(g+1) - d(H^g - d^g)/g
    lo, hi = 1.0, 3.0
    d = c - lo if side == "lower" else hi - c
    span = hi - lo
    expected = d ** (g + 1.0) / (g * (g + 1.0)) + (span ** (g + 1.0) - d ** (g + 1.0)) / (g + 1.0)
    expected -= d * (span**g - d**g) / g
    spec = QuadSpec(lo, hi, abs_tol=1e-13, rel_tol=1e-13)
    f = lambda t: abs(t - c)
    got = integrate_singular(f, SingularWeight(g, side), spec, cuts=(c, 0.5, 3.0))
    assert got == pytest.approx(expected, rel=1e-12)
