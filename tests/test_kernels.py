"""Closed-form kernel moments vs the independent quadrature oracle."""
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqfi.kernels as kernels
import hqfi.quad as quad
from hqfi.bounds import ParamPoint, Theorem, bound, identity_lhs, identity_rhs
from hqfi.fracint import rl_left, rl_right
from hqfi.cli import main
from hqfi.harmonic import IntervalDomain, ScalarFunction, corpus
from hqfi.harness import run_constants
from hqfi.kernels import c1, c2, c3, integrate_kinked, kernel_oracle
from hqfi.quad import integrate
from hqfi.specialfn import hyp2f1, hyp2f1_integral


def test_c1_closed_forms():
    # lam = 1/3, alpha = 1: the Simpson constant 5/18
    assert c1(1.0, 1.0 / 3.0) == pytest.approx(5.0 / 18.0, rel=1e-14)
    for alpha in (0.5, 1.0, 2.0, 3.7):
        assert c1(alpha, 0.0) == pytest.approx(1.0 / (alpha + 1.0), rel=1e-14)
        assert c1(alpha, 1.0) == pytest.approx(alpha / (alpha + 1.0), rel=1e-14)


@settings(deadline=None, max_examples=60)
@given(alpha=st.floats(0.2, 3.0), lam=st.floats(0.0, 1.0))
def test_c1_triangle_lower_bound_and_range(alpha, lam):
    v = c1(alpha, lam)
    # |int (t^alpha - lam)| <= int |t^alpha - lam| <= 1
    assert v >= abs(1.0 / (alpha + 1.0) - lam) - 1e-12
    assert v <= 1.0 + 1e-12


def test_c2_frozen_goldens():
    # alpha=1, lam=0: C2(1,0,1,r) = (2/(1-r)^2) [ (1-r)(... ) ] reduces to
    # elementary logs; the two grid values below were re-derived symbolically
    assert c2(1.0, 0.0, 1.0, 0.75) == pytest.approx(16.0 / 3.0 + 16.0 * math.log(0.75), rel=1e-12)
    assert c2(1.0, 0.0, 2.0, 0.5) == pytest.approx(10.0 / 3.0, rel=1e-12)
    assert c2(1.0, 0.0, 2.0, 0.75) == pytest.approx(88.0 / 81.0, rel=1e-12)
    # lam=0, q=1, r=1/2: 4(1 - ln 2)
    assert c2(1.0, 0.0, 1.0, 0.5) == pytest.approx(4.0 * (1.0 - math.log(2.0)), rel=1e-12)


def test_c3_frozen_goldens():
    assert c3(1.0, 0.0, 1.0, 2.0 / 3.0) == pytest.approx(-3.0 + 9.0 * math.log(1.5), rel=1e-12)
    assert c3(1.0, 0.0, 2.0, 2.0 / 3.0) == pytest.approx(7.0 / 8.0, rel=1e-12)


def test_kernel_oracle_golden():
    # int_0^1 t/(2-t)^2 dt = 1 - ln 2
    assert kernel_oracle(1.0, 0.0, 1.0, 1.0, 2.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-11)


def test_closed_forms_match_oracle_on_seeded_grid():
    # module-scale rehearsal of the acceptance grid (full 200 points there)
    rng = random.Random(42)
    for _ in range(60):
        alpha = rng.uniform(0.2, 3.0)
        lam = rng.uniform(0.0, 1.0)
        q = rng.choice((1.0, 1.5, 2.0, 3.0))
        r = rng.uniform(0.3, 1.0)
        o2 = kernel_oracle(alpha, lam, q, r, 1.0)
        o3 = kernel_oracle(alpha, lam, q, 1.0, r)
        assert c2(alpha, lam, q, r) == pytest.approx(o2, rel=1e-9)
        assert c3(alpha, lam, q, r) == pytest.approx(o3, rel=1e-9)
        assert c1(alpha, lam) == pytest.approx(
            kernel_oracle(alpha, lam, 1.0, 1.0, 1.0), rel=1e-10
        )  # u = v = 1 makes the weight identically 1: plain |t^alpha - lam| moment


def test_moments_collapse_at_r_equal_one():
    for alpha, lam, q in ((0.5, 0.2, 1.5), (1.0, 0.0, 2.0), (2.6, 0.9, 3.0), (1.7, 1.0, 1.0)):
        assert c2(alpha, lam, q, 1.0) == pytest.approx(c1(alpha, lam), rel=1e-11)
        assert c3(alpha, lam, q, 1.0) == pytest.approx(c1(alpha, lam), rel=1e-11)


def test_oracle_split_vs_unsplit():
    # kink handling is a convergence aid, not a value change
    alpha, lam, q, u, v = 1.3, 0.4, 2.0, 0.6, 1.0
    split = kernel_oracle(alpha, lam, q, u, v)
    unsplit = integrate(lambda t: abs(t**alpha - lam) / (t * u + (1.0 - t) * v) ** (2.0 * q), 0.0, 1.0)
    assert split == pytest.approx(unsplit, rel=1e-9)


def c3_as_stated(alpha: float, lam: float, q: float, r: float) -> float:
    """Right-brace moment as the source text prints it: the correction term unrescaled.

    Diverges from kernel_oracle for 0 < lam < 1 (e.g. alpha=1, lam=1/2, q=1,
    r=1/2: 0.38629 here vs 0.52887 from the integral); agrees at lam in {0,1}.
    Kept here as a record of the erratum; kernels.c3 is the form the bounds use.
    """
    z1 = 1.0 - r
    main = hyp2f1(2.0 * q, 1.0, alpha + 2.0, z1) / (alpha + 1.0)
    if lam == 0.0:
        return main
    main -= lam * hyp2f1(2.0 * q, 1.0, 2.0, z1)
    corr = 2.0 * lam ** (1.0 + 1.0 / alpha) * (
        hyp2f1(2.0 * q, 1.0, 2.0, z1)
        - hyp2f1(2.0 * q, 1.0, alpha + 2.0, z1) / (alpha + 1.0)
    )
    return main + corr


def test_unrescaled_c3_variant_diverges_for_interior_lam():
    # the unrescaled correction term: wrong for 0 < lam < 1 ...
    unrescaled = c3_as_stated(1.0, 0.5, 1.0, 0.5)
    oracle = kernel_oracle(1.0, 0.5, 1.0, 1.0, 0.5)
    assert abs(unrescaled - oracle) > 0.1
    assert c3(1.0, 0.5, 1.0, 0.5) == pytest.approx(oracle, rel=1e-10)
    # ... and identical to the corrected form at the lam extremes
    for lam in (0.0, 1.0):
        assert c3_as_stated(1.2, lam, 2.0, 0.7) == pytest.approx(c3(1.2, lam, 2.0, 0.7), rel=1e-13)


@settings(deadline=None, max_examples=40)
@given(
    alpha=st.floats(0.3, 2.5),
    lam=st.floats(0.0, 1.0),
    q=st.floats(1.0, 3.0),
    r=st.floats(0.3, 1.0),
)
def test_moments_positive_and_ordered(alpha, lam, q, r):
    # both weight factors (tr+(1-t))^{-2q} and (t+(1-t)r)^{-2q} lie in
    # [1, r^{-2q}], sandwiching each moment between c1 and c1/r^{2q}
    base = c1(alpha, lam)
    for v in (c2(alpha, lam, q, r), c3(alpha, lam, q, r)):
        assert v >= base - 1e-9
        assert v <= base / r ** (2.0 * q) * (1.0 + 1e-10) + 1e-9


# (bad argument, alpha, lam, q, r, message); the first bad argument in (alpha, lam, q, r) order is named
_BAD_MOMENT_ARGS = [
    ("alpha", 0.0, 0.5, 2.0, 0.5, "require alpha > 0, got 0.0"),
    ("alpha", -1.0, 0.5, 2.0, 0.5, "require alpha > 0, got -1.0"),
    ("alpha", math.nan, 0.5, 2.0, 0.5, "require alpha > 0, got nan"),
    ("alpha", math.inf, 0.5, 2.0, 0.5, "require alpha > 0, got inf"),
    ("alpha", 0.0, 1.5, 0.5, -1.0, "require alpha > 0, got 0.0"),
    ("lam", 1.0, -0.1, 2.0, 0.5, "require lam in [0, 1], got -0.1"),
    ("lam", 1.0, 1.5, 2.0, 0.5, "require lam in [0, 1], got 1.5"),
    ("lam", 1.0, math.nan, 2.0, 0.5, "require lam in [0, 1], got nan"),
    ("lam", 1.0, 1.5, 0.5, -1.0, "require lam in [0, 1], got 1.5"),
    ("q", 1.0, 0.5, 0.9, 0.5, "require q >= 1, got 0.9"),
    ("q", 1.0, 0.5, math.inf, 0.5, "require q >= 1, got inf"),
    ("q", 1.0, 0.5, math.nan, 0.5, "require q >= 1, got nan"),
    ("q", 1.0, 0.5, 0.2, -3.0, "require q >= 1, got 0.2"),
    ("r", 1.0, 0.5, 2.0, 0.0, "require r in (0, 1], got 0.0"),
    ("r", 1.0, 0.5, 2.0, -0.2, "require r in (0, 1], got -0.2"),
    ("r", 1.0, 0.5, 2.0, 1.1, "require r in (0, 1], got 1.1"),
    ("r", 1.0, 0.5, 2.0, math.nan, "require r in (0, 1], got nan"),
]

# each caller of the moment check, and the arguments it takes from (alpha, lam, q, r)
_MOMENT_CALLERS = [
    (lambda alpha, lam, q, r: c1(alpha, lam), {"alpha", "lam"}),
    (c2, {"alpha", "lam", "q", "r"}),
    (c3, {"alpha", "lam", "q", "r"}),
    # kernel_oracle's r = min(u, v) / max(u, v) is in (0, 1] for every pair of positive endpoints
    (lambda alpha, lam, q, r: kernel_oracle(alpha, lam, q, 0.5, 1.0), {"alpha", "lam", "q"}),
    (lambda alpha, lam, q, r: run_constants(alpha, lam, q, r, "c1"), {"alpha", "lam", "q", "r"}),
    (lambda alpha, lam, q, r: ParamPoint(1.0, 2.0, 1.5, lam, alpha, q), {"alpha", "lam", "q"}),
]


def test_domain_validation():
    # every caller of the one moment check rejects what it takes, with the same message
    for call, takes in _MOMENT_CALLERS:
        for bad, *args, message in _BAD_MOMENT_ARGS:
            if bad in takes:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    call(*args)
    with pytest.raises(ValueError, match="require positive endpoints"):
        kernel_oracle(1.0, 0.5, 1.0, 0.0, 1.0)


# --- integrate_kinked: cuts and the t = s^k substitution ---

_TOL = {"abs_tol": 1e-11, "rel_tol": 1e-10}


@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("lam", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_integrate_kinked_at_alpha_one_or_more_is_the_plain_split(alpha, lam):
    # k = ceil(1/alpha) = 1: no substitution, and bit for bit [0, kink] + [kink, 1]
    def f(t):
        return abs(t**alpha - lam) / (0.3 * t + 0.7) ** 3

    kink = lam ** (1.0 / alpha)
    if 0.0 < kink < 1.0:
        expected = integrate(f, 0.0, kink, **_TOL) + integrate(f, kink, 1.0, **_TOL)
    else:
        expected = integrate(f, 0.0, 1.0, **_TOL)
    assert integrate_kinked(f, alpha, lam, **_TOL) == expected


@pytest.mark.parametrize("alpha", [1e-6, 1e-4, 0.05, 0.1, 0.3, 0.5, 0.99])
def test_integrate_kinked_substitution_keeps_the_value(alpha):
    # int_0^1 |t^alpha - lam| dt has the closed form c1; a cut where the
    # integrand is smooth must not move the value either.  At alpha = 1e-4 an
    # uncapped k = 10^4 puts the whole integral between the first panel's nodes.
    for lam in (0.0, 1.0 / 3.0, 0.5, 1.0):
        f = lambda t: abs(t**alpha - lam)
        for cuts in ((), (0.25,), (0.7, 1e-3)):
            assert integrate_kinked(f, alpha, lam, cuts=cuts, **_TOL) == pytest.approx(c1(alpha, lam), rel=1e-12)


def _panels(monkeypatch):
    calls = [0]
    inner = quad.gk15

    def counting(*args):
        calls[0] += 1
        return inner(*args)

    monkeypatch.setattr(quad, "gk15", counting)
    return calls


@pytest.mark.parametrize("alpha", [0.1, 0.5])
@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 1.0])
def test_identity_rhs_panel_budget_below_alpha_one(monkeypatch, alpha, lam):
    # integrating in t took 80-124 GK15 panels here; in s = t^(1/k) at most 20
    f = {g.label: g for g in corpus()}["expx"]
    calls = _panels(monkeypatch)
    identity_rhs(f, ParamPoint(1.0, 2.0, 1.25, lam, alpha))
    assert 0 < calls[0] <= 20


_PLATEAU = {g.label: g for g in corpus()}["piecewise_plateau"]
_POINT = ParamPoint(0.1, 4.0, 2.0, 1.0 / 3.0, 0.5)
_TOLERANCE_FORWARDERS = {
    "rl_left": lambda **tol: rl_left(math.exp, 0.5, 0.7, 2.0, **tol),
    "rl_right": lambda **tol: rl_right(math.exp, 2.0, 0.7, 0.5, **tol),
    "identity_lhs": lambda **tol: identity_lhs(_PLATEAU, _POINT, **tol),
    "identity_rhs": lambda **tol: identity_rhs(_PLATEAU, _POINT, **tol),
    "integrate_kinked": lambda **tol: integrate_kinked(lambda t: abs(t - 0.3) / (0.1 * t + 0.045) ** 4, 1.0, 0.3, **tol),
}


@pytest.mark.parametrize("name", sorted(_TOLERANCE_FORWARDERS))
def test_tolerance_keywords_reach_integrate(monkeypatch, name):
    # a misspelled keyword is an error, not a silent fall-back to the defaults
    run = _TOLERANCE_FORWARDERS[name]
    with pytest.raises(TypeError):
        run(abs_tl=1e-4)
    calls = _panels(monkeypatch)
    run()
    default_panels = calls[0]
    calls[0] = 0
    run(abs_tol=1e-4, rel_tol=1e-4)
    assert 0 < calls[0] < default_panels


# At q = 400, r = 0.01, Euler's transformation of 2F1(800, b; c; 0.99) in hyp2f1 takes 0.01^(c - b - 800),
# past the double range, before any route runs.
_OVERFLOW_POINT = (1.0, 0.0, 400.0, 0.01)


@pytest.mark.parametrize("name", ["c2", "c3"])
def test_float_overflow_in_a_moment_names_the_point(name):
    moment = {"c2": c2, "c3": c3}[name]
    with pytest.raises(OverflowError, match=re.escape(f"{name}(alpha=1.0, lam=0.0, q=400.0, r=0.01) overflows")) as info:
        moment(*_OVERFLOW_POINT)
    assert isinstance(info.value.__cause__, OverflowError)


@pytest.mark.parametrize("name", ["c2", "c3"])
def test_float_overflow_on_the_euler_integral_route_names_the_point(monkeypatch, name):
    # the a + b + c > 150 route that hyp2f1 would take past the transformation overflows in (1 - zt)^(-a) alike
    with pytest.raises(OverflowError):
        hyp2f1_integral(800.0, 2.0, 3.0, 0.99)
    monkeypatch.setattr(kernels, "hyp2f1", hyp2f1_integral)
    moment = {"c2": c2, "c3": c3}[name]
    with pytest.raises(OverflowError, match=re.escape(f"{name}(alpha=1.0, lam=0.0, q=400.0, r=0.01) overflows")):
        moment(*_OVERFLOW_POINT)


def test_float_overflow_in_a_bound_names_the_moment():
    # the bounds reach c2 through their memo of its lam-free part; x = b leaves only the left brace, r = a/x = 0.01
    f = ScalarFunction("linear", IntervalDomain(0.01, 1.0), lambda u: u, lambda u: 1.0)
    with pytest.raises(OverflowError, match=re.escape("c2(alpha=1.0, lam=0.0, q=400.0, r=0.01) overflows")):
        bound(f, ParamPoint(0.01, 1.0, 1.0, 0.0, 1.0, 400.0), Theorem.T22)


def test_cli_float_overflow_in_a_moment_exits_3_naming_it(capsys):
    assert main(["constants", "--alpha", "1", "--lambda", "0", "--q", "400", "--r", "0.01", "--which", "c2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: c2(alpha=1.0, lam=0.0, q=400.0, r=0.01) overflows")
