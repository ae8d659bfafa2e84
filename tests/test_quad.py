"""Adaptive Gauss-Kronrod engine: closed-form goldens, tolerance behaviour, weights."""
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqfi import quad
from hqfi.bounds import ParamPoint, identity_lhs, identity_rhs
from hqfi.fracint import rl_left, rl_right
from hqfi.harmonic import IntervalDomain, ScalarFunction, corpus
from hqfi.kernels import integrate_kinked
from hqfi.quad import QuadratureError, gk15, integrate, integrate_singular


def test_gk15_polynomial_exactness():
    # the 15-point Kronrod rule is exact through degree 22
    for k in range(23):
        got, _ = gk15(lambda t: t**k, 0.0, 1.0)
        assert got == pytest.approx(1.0 / (k + 1), rel=1e-14)


def test_gk15_error_estimate_bounds_true_error():
    got, err = gk15(math.sin, 0.0, math.pi / 2.0)
    assert abs(got - 1.0) <= max(err, 1e-15)


def _gk15_loop(f, lo, hi):
    """The loop form of gk15 that clamps every node; the reference the straight-line panel must match bit for bit."""
    xgk, wgk, wg = quad._XGK, quad._WGK, quad._WG
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    inlo = math.nextafter(lo, hi)
    inhi = math.nextafter(hi, lo)
    fc = f(min(max(c, inlo), inhi))
    resg = wg[3] * fc
    resk = wgk[7] * fc
    resabs = wgk[7] * abs(fc)
    pairs = []
    for i in range(7):
        dx = h * xgk[i]
        f1 = f(max(c - dx, inlo))
        f2 = f(min(c + dx, inhi))
        pairs.append((f1, f2))
        s = f1 + f2
        resk += wgk[i] * s
        resabs += wgk[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            resg += wg[i // 2] * s
    reskh = 0.5 * resk
    resasc = wgk[7] * abs(fc - reskh)
    for i in range(7):
        resasc += wgk[i] * (abs(pairs[i][0] - reskh) + abs(pairs[i][1] - reskh))
    result = resk * h
    resabs *= h
    resasc *= h
    err = abs((resk - resg) * h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(50.0 * quad._EPS * resabs, err)
    return result, err


def _integrand(kind, k):
    return {
        "poly": lambda t: k + t * (0.5 - t * (k - t)),
        "kink": lambda t: abs(t - k),
        "sqrt": lambda t: math.sqrt(abs(t - k)),
        "negzero": lambda t: -0.0,
    }[kind]


def _bits(pair):
    return tuple(v.hex() for v in pair)


def _run_both(f, lo, hi):
    """(bits, points) of the straight-line and the loop panel."""
    got_pts, ref_pts = [], []
    got = gk15(lambda t: got_pts.append(t) or f(t), lo, hi)
    ref = _gk15_loop(lambda t: ref_pts.append(t) or f(t), lo, hi)
    return (_bits(got), got_pts), (_bits(ref), ref_pts)


def _step_ulps(lo, n):
    hi = lo
    for _ in range(n):
        hi = math.nextafter(hi, math.inf)
    return hi


@settings(deadline=None, max_examples=300)
@given(
    lo=st.floats(-1e3, 1e3),
    width=st.one_of(st.integers(1, 4), st.floats(1e-12, 1e3)),
    kind=st.sampled_from(["poly", "kink", "sqrt", "negzero"]),
    k=st.floats(-2e3, 2e3),
)
def test_gk15_matches_loop_reference(lo, width, kind, k):
    # an int width is that many ulps: the clamped path; a float width is mostly the unclamped one
    hi = _step_ulps(lo, width) if isinstance(width, int) else lo + width
    if not lo < hi:
        return
    got, ref = _run_both(_integrand(kind, k), lo, hi)
    assert got == ref


@pytest.mark.parametrize("lo", [0.0, 1.0, -3.5, 1e-300, 0.1, 2.0 - 2.0**-52, 1e300])
@pytest.mark.parametrize("ulps", [1, 2, 3, 4])
def test_gk15_clamps_panels_a_few_ulps_wide(lo, ulps):
    hi = _step_ulps(lo, ulps)
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # an outer node rounds onto (or past) an endpoint, so the clamped path runs
    assert not (lo < c - h * quad._XGK[0] and c + h * quad._XGK[0] < hi)
    for kind in ("poly", "kink", "sqrt", "negzero"):
        (got, pts), ref = _run_both(_integrand(kind, 1.0), lo, hi)
        assert (got, pts) == ref, kind
        assert len(pts) == 15
        if ulps >= 2:
            # a 1-ulp panel has no float inside it; any wider one is sampled strictly inside
            assert all(lo < t < hi for t in pts), kind


def test_integrate_negative_zero_panel_is_positive_zero():
    got = integrate(lambda t: -0.0, 0.0, 1.0)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0


def test_integrate_stops_after_a_panel_whose_error_meets_the_tolerance(monkeypatch):
    # the tolerance test is err <= tol: a first panel with err equal to abs_tol
    # ends the run there, and one ulp less asks for a bisection
    f = lambda t: abs(t - 1.0 / 3.0)
    res, err = gk15(f, 0.0, 1.0)
    assert err > 0.0
    calls = []

    def counted(f, lo, hi):
        calls.append((lo, hi))
        return gk15(f, lo, hi)

    monkeypatch.setattr(quad, "gk15", counted)
    got = integrate(f, 0.0, 1.0, abs_tol=err, rel_tol=0.0)
    assert calls == [(0.0, 1.0)]
    assert got.hex() == (res + 0.0).hex()
    calls.clear()
    integrate(f, 0.0, 1.0, abs_tol=math.nextafter(err, 0.0), rel_tol=0.0)
    assert len(calls) > 1


def test_integrate_smooth_goldens():
    assert integrate(math.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-12)
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, rel=1e-12)
    # int_0^1 1/(1+t^2) = pi/4
    assert integrate(lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0) == pytest.approx(
        math.pi / 4.0, rel=1e-12
    )


def test_integrate_interior_kink():
    # int_0^1 |t - 1/3| dt = 5/18
    got = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0)
    assert got == pytest.approx(5.0 / 18.0, abs=1e-11)


def test_integrate_jump_discontinuity():
    got = integrate(lambda t: 0.0 if t < 0.5 else 1.0, 0.0, 1.0, abs_tol=1e-9, rel_tol=1e-8)
    assert got == pytest.approx(0.5, abs=1e-8)


def test_integrate_undeclared_endpoint_singularity_depth_wall():
    # hidden integrable singularities stop at the double-precision bisection
    # wall near the endpoint: ~1e-8 absolute is the documented limit, not 1e-11
    got = integrate(lambda u: 1.0 / math.sqrt(1.0 - u * u), -1.0, 1.0, abs_tol=1e-9, rel_tol=1e-9)
    assert got == pytest.approx(math.pi, abs=1e-6)


def test_integrate_nonintegrable_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda t: 1.0 / t, 0.0, 1.0)


@pytest.mark.parametrize(
    "f",
    [
        lambda t: math.nan,
        lambda t: math.inf if t > 0.5 else 1.0,
        lambda t: -math.inf if t < 0.25 else math.inf,  # the panel sums inf - inf to NaN
    ],
)
def test_integrate_nonfinite_panel_raises(f):
    # a NaN error estimate fails both tolerance tests, so the loop used to stop and return the NaN
    with pytest.raises(QuadratureError, match=r"non-finite integrand on \[0.0, 1.0\]"):
        integrate(f, 0.0, 1.0)


def test_integrate_nonfinite_child_panel_raises(monkeypatch):
    # sqrt needs bisection; the right half of the first split reads NaN
    panels = [0]

    def nan_on_third(f, lo, hi):
        panels[0] += 1
        res, err = gk15(f, lo, hi)
        return (math.nan, err) if panels[0] == 3 else (res, err)

    monkeypatch.setattr(quad, "gk15", nan_on_third)
    with pytest.raises(QuadratureError, match=r"on \[0.0, 1.0\]: panel \[0.5, 1.0\] gives nan"):
        integrate(math.sqrt, 0.0, 1.0)


def test_identity_lhs_of_a_partly_nan_function_raises():
    f = ScalarFunction("nan_above", IntervalDomain(1.0, 2.0), lambda u: u if u < 1.5 else math.nan, lambda u: 1.0)
    with pytest.raises(QuadratureError, match="non-finite integrand"):
        identity_lhs(f, ParamPoint(1.0, 2.0, 1.25, 0.5, 1.0))


def test_integrate_below_the_roundoff_floor_raises_at_once(monkeypatch):
    # exp keeps one sign, so the panel's error is its floor 50*eps*resabs; bisecting keeps the
    # floor's sum, and without the check the loop spends its 10,000-panel budget, about 7 s, first
    _, err = gk15(math.exp, 0.0, 1.0)
    panels = [0]

    def counted(*args):
        panels[0] += 1
        return gk15(*args)

    monkeypatch.setattr(quad, "gk15", counted)
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="roundoff floor"):
        integrate(math.exp, 0.0, 1.0, abs_tol=math.nextafter(err, 0.0), rel_tol=0.0)
    assert time.perf_counter() - start < 1.0
    assert panels[0] == 1


_INTERVAL = "quadrature interval must be finite"
_SIGNS = "require abs_tol > 0 and rel_tol >= 0"

# (lo, hi, abs_tol, rel_tol, message); the interval is checked before its order, then the tolerances
_BAD_REQUESTS = [
    (1.0, 1.0, 1e-11, 1e-10, "require lo < hi, got [1.0, 1.0]"),
    (0.0, 1.0, 0.0, 1e-10, _SIGNS),
    (0.0, math.inf, 1e-11, 1e-10, _INTERVAL),
    (math.nan, 1.0, 0.0, math.nan, _INTERVAL),
    (2.0, 1.0, math.nan, 1e-10, "require lo < hi, got [2.0, 1.0]"),
    (0.0, 1.0, -math.inf, 1e-10, _SIGNS),
    (0.0, 1.0, 1e-11, -1e-10, _SIGNS),
    (0.0, 1.0, math.nan, 1e-10, "quadrature tolerances must be finite, got abs_tol=nan, rel_tol=1e-10"),
    (0.0, 1.0, math.inf, 1e-10, "quadrature tolerances must be finite, got abs_tol=inf, rel_tol=1e-10"),
    (0.0, 1.0, 1e-11, math.nan, "quadrature tolerances must be finite, got abs_tol=1e-11, rel_tol=nan"),
    (0.0, 1.0, 1e-11, math.inf, "quadrature tolerances must be finite, got abs_tol=1e-11, rel_tol=inf"),
]

_PLATEAU = {g.label: g for g in corpus()}["piecewise_plateau"]

# each caller of the request check; the last three fix their intervals, so only the tolerance cases reach them
_REQUEST_CALLERS = {
    "integrate": lambda lo, hi, **tol: integrate(math.exp, lo, hi, **tol),
    "integrate_singular": lambda lo, hi, **tol: integrate_singular(math.exp, 0.5, "lower", lo, hi, **tol),
    "rl_left": lambda lo, hi, **tol: rl_left(math.exp, lo, 0.5, hi, **tol),
    "rl_right": lambda lo, hi, **tol: rl_right(math.exp, hi, 0.5, lo, **tol),
    "integrate_kinked": lambda lo, hi, **tol: integrate_kinked(math.exp, 0.5, 0.5, **tol),
    "identity_lhs": lambda lo, hi, **tol: identity_lhs(_PLATEAU, ParamPoint(0.5, 2.0, 0.8, 0.5, 0.5), **tol),
    "identity_rhs": lambda lo, hi, **tol: identity_rhs(_PLATEAU, ParamPoint(0.5, 2.0, 0.8, 0.5, 0.5), **tol),
}


@pytest.mark.parametrize("name", sorted(_REQUEST_CALLERS))
def test_quadrature_request_validation(name):
    # a NaN tolerance fails every accuracy test and an infinite one passes every panel: both are refused
    call = _REQUEST_CALLERS[name]
    fixed = name in ("integrate_kinked", "identity_lhs", "identity_rhs")
    for lo, hi, abs_tol, rel_tol, message in _BAD_REQUESTS:
        if fixed and not message.startswith(("quadrature tolerances", _SIGNS)):
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(lo, hi, abs_tol=abs_tol, rel_tol=rel_tol)


# (exponent, side, message); the exponent is checked before the side
_BAD_WEIGHTS = [
    (0.0, "lower", "weight exponent must be positive and finite"),
    (-0.5, "upper", "weight exponent must be positive and finite"),
    (math.inf, "lower", "weight exponent must be positive and finite"),
    (math.nan, "upper", "weight exponent must be positive and finite"),
    (0.0, "left", "weight exponent must be positive and finite"),
    (0.5, "left", "weight side must be 'lower' or 'upper', got 'left'"),
    (1.0, "", "weight side must be 'lower' or 'upper', got ''"),
]

# each caller of the weight check; rl_left puts the weight on the upper end, rl_right on the lower
_WEIGHT_CALLERS = {
    integrate_singular: lambda g, side: integrate_singular(lambda t: 1.0, g, side, 0.0, 1.0),
    rl_left: lambda g, side: rl_left(lambda t: 1.0, 0.0, g, 1.0),
    rl_right: lambda g, side: rl_right(lambda t: 1.0, 1.0, g, 0.0),
}


def test_singular_weight_validation():
    # rl_left and rl_right fix the side, so only the exponent cases reach them
    for caller, call in _WEIGHT_CALLERS.items():
        for g, side, message in _BAD_WEIGHTS:
            if caller is integrate_singular or "exponent" in message:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(g, side)


def test_integrate_singular_lower_exact():
    # int_0^1 t^{-1/2} dt = 2, integrand constant after substitution
    got = integrate_singular(lambda t: 1.0, 0.5, "lower", 0.0, 1.0)
    assert got == pytest.approx(2.0, rel=1e-13)


def test_integrate_singular_upper_beta_golden():
    # int_0^1 t (1-t)^{-1/2} dt = B(2, 1/2) = 4/3
    got = integrate_singular(lambda t: t, 0.5, "upper", 0.0, 1.0)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_integrate_singular_exponent_above_one():
    # int_0^1 t^{1.5} dt = 2/5 via the continuous-weight branch (g = 2.5)
    got = integrate_singular(lambda t: 1.0, 2.5, "lower", 0.0, 1.0)
    assert got == pytest.approx(0.4, rel=1e-12)


def test_integrate_singular_plain_reduction():
    got = integrate_singular(math.exp, 1.0, "lower", 0.0, 1.0)
    assert got == pytest.approx(math.e - 1.0, rel=1e-12)


def test_integrate_singular_offset_interval():
    # int_1^3 (t-1)^{-0.7} t dt: substitve u = (t-1)^{0.3}; closed form via B-pieces
    # = int_0^2 s^{-0.7} (s+1) ds = [s^{0.3}/0.3 + s^{1.3}/1.3]_0^2
    expected = 2.0**0.3 / 0.3 + 2.0**1.3 / 1.3
    got = integrate_singular(lambda t: t, 0.3, "lower", 1.0, 3.0)
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
    got = integrate(f, 0.0, hi)
    assert got == pytest.approx(F(hi), rel=1e-10, abs=1e-10)


@settings(deadline=None, max_examples=30)
@given(g=st.floats(0.1, 0.95), p=st.floats(0.0, 3.0))
def test_integrate_singular_power_rule(g, p):
    # int_0^1 t^p (1-t)^{g-1} dt = B(p+1, g)
    expected = math.exp(math.lgamma(p + 1.0) + math.lgamma(g) - math.lgamma(p + 1.0 + g))
    got = integrate_singular(lambda t: t**p, g, "upper", 0.0, 1.0)
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
    f = lambda t: abs(t - c)
    got = integrate_singular(f, g, side, lo, hi, cuts=(c, 0.5, 3.0), abs_tol=1e-13, rel_tol=1e-13)
    assert got == pytest.approx(expected, rel=1e-12)
