"""Convexity checkers, the reference corpus, and derivative plumbing."""
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqfi.harmonic as harmonic
from hqfi.harmonic import (
    NO_VIOLATION,
    VIOLATED,
    ConvexityVerdict,
    IntervalDomain,
    ScalarFunction,
    abs_derivative_power,
    check_harmonically_convex,
    check_harmonically_quasiconvex,
    corpus,
    validate_corpus,
)


def _by_label():
    return {f.label: f for f in corpus()}


def test_interval_domain_validation():
    with pytest.raises(ValueError):
        IntervalDomain(0.0, 1.0)
    with pytest.raises(ValueError):
        IntervalDomain(2.0, 1.0)
    with pytest.raises(ValueError):
        IntervalDomain(1.0, math.inf)
    d = IntervalDomain(1.0, 2.0)
    assert d.contains(1.5) and not d.contains(2.1)
    assert IntervalDomain(0.5, 3.0).encloses(d) and not d.encloses(IntervalDomain(0.5, 3.0))


def test_monotone_functions_certified_quasiconvex():
    for label in ("identity", "square", "reciprocal", "sqrtx", "expx"):
        verdict = check_harmonically_quasiconvex(_by_label()[label], n=15)
        assert verdict.status == NO_VIOLATION
        assert verdict.witness is None


def test_interior_peak_refuted():
    # -(u-2)^2 peaks mid-interval: its sublevel sets split, quasi-convexity fails
    f = ScalarFunction("peak", IntervalDomain(1.0, 4.0), lambda u: -((u - 2.0) ** 2))
    verdict = check_harmonically_quasiconvex(f, n=30)
    assert verdict.violated
    x, y, lam = verdict.witness
    mix = x * y / (lam * x + (1.0 - lam) * y)
    assert f(mix) > max(f(x), f(y))  # witness replays against the definition


def test_plateau_quasi_but_not_harmonically_convex():
    f = _by_label()["piecewise_plateau"]
    assert check_harmonically_quasiconvex(f, n=30).status == NO_VIOLATION
    verdict = check_harmonically_convex(f, n=30)
    assert verdict.violated
    x, y, lam = verdict.witness
    mix = x * y / (lam * x + (1.0 - lam) * y)
    assert f(mix) > lam * f(y) + (1.0 - lam) * f(x)


def test_piecewise_derivative_power_not_quasiconvex_on_full_domain():
    f = _by_label()["piecewise_plateau"]
    for q in (1.0, 2.0):
        verdict = check_harmonically_quasiconvex(abs_derivative_power(f, q), n=25)
        assert verdict.violated
    # but on [1,2] the derivative magnitude is monotone, so the check passes
    sub = IntervalDomain(1.0, 2.0)
    assert check_harmonically_quasiconvex(abs_derivative_power(f, 2.0), sub, n=15).status == NO_VIOLATION


def test_checker_determinism():
    f = _by_label()["piecewise_plateau"]
    v1 = check_harmonically_convex(f, n=18, seed=11)
    v2 = check_harmonically_convex(f, n=18, seed=11)
    assert (v1.status, v1.witness, v1.samples_checked) == (v2.status, v2.witness, v2.samples_checked)


def test_checker_rejects_small_grid_and_escaping_domain():
    f = _by_label()["identity"]
    with pytest.raises(ValueError):
        check_harmonically_quasiconvex(f, n=1)
    with pytest.raises(ValueError):
        check_harmonically_quasiconvex(f, IntervalDomain(0.5, 3.0))


def test_constant_always_passes_both_checks():
    f = _by_label()["const_3_2"]
    assert check_harmonically_quasiconvex(f, n=10).status == NO_VIOLATION
    assert check_harmonically_convex(f, n=10).status == NO_VIOLATION


def test_finite_difference_matches_analytic_derivatives():
    rng = random.Random(5)
    for f in corpus():
        if f.derivative is None:
            continue
        bare = ScalarFunction(f.label + "_fd", f.domain, f.value)
        for _ in range(6):
            u = rng.uniform(f.domain.lo * 1.01, f.domain.hi * 0.99)
            if f.label == "piecewise_plateau" and abs(u - 1.0) < 0.01:
                continue  # FD straddles the kink there
            analytic = f.df(u)
            assert bare.df(u) == pytest.approx(analytic, rel=1e-6, abs=1e-8)


def test_df_is_resolved_once():
    # a given derivative is df itself; without one, df is the central difference at step cbrt(eps)*max(1, |x|)
    for f in corpus():
        assert f.df is f.derivative
    assert harmonic._CBRT_EPS == pytest.approx(sys.float_info.epsilon ** (1.0 / 3.0), rel=1e-15)
    g = lambda u: u * math.log(u) + math.sin(3.0 * u)
    xlnx = _by_label()["xlnx"]
    fd = ScalarFunction(xlnx.label, xlnx.domain, g, None, xlnx.quasi, xlnx.breaks)
    assert fd.value is g and fd.derivative is None
    for x in (0.5, 1.0, 1.0 + 2**-40, 1.37, 2.0, 123.456):
        h = harmonic._CBRT_EPS * max(1.0, abs(x))
        assert fd.df(x).hex() == ((g(x + h) - g(x - h)) / (2.0 * h)).hex(), x


def test_abs_derivative_power_values_and_validation():
    f = _by_label()["square"]
    g = abs_derivative_power(f, 2.0)
    assert g(1.5) == pytest.approx((2.0 * 1.5) ** 2, rel=1e-12)
    assert g.domain == f.domain
    with pytest.raises(ValueError):
        abs_derivative_power(f, 0.5)


def test_validate_corpus_passes_and_returns_functions():
    fns = validate_corpus()
    assert {f.label for f in fns} == set(_by_label())


def test_validate_corpus_raises_on_bad_tag(monkeypatch):
    peak = ScalarFunction(
        "bad_peak",
        IntervalDomain(1.0, 4.0),
        lambda u: u,
        lambda u: -((u - 2.0) ** 2) + 4.0,  # |f'| peaks mid-interval
        quasi=True,
    )
    slope = ScalarFunction("bad_slope", IntervalDomain(1.0, 4.0), lambda u: u * u, lambda u: 2.0 * u, quasi=False)
    for bad in (peak, slope):
        monkeypatch.setattr(harmonic, "corpus", lambda: [bad])
        with pytest.raises(RuntimeError, match=bad.label):
            validate_corpus()


def test_validate_corpus_skips_functions_without_a_claim(monkeypatch):
    peak = ScalarFunction("no_claim", IntervalDomain(1.0, 4.0), lambda u: u, lambda u: -((u - 2.0) ** 2) + 4.0)
    monkeypatch.setattr(harmonic, "corpus", lambda: [peak])
    assert validate_corpus() == [peak]


def test_quasi_verdict_does_not_depend_on_q():
    # t -> t^q is increasing for q >= 1, so |f'|^q has the sublevel sets of |f'|
    # and the gate may check |f'| alone
    intervals = [IntervalDomain(lo, hi) for lo, hi in ((1, 2), (0.1, 4), (0.5, 4), (1, 4), (0.5, 3))]
    pairs = [(f, d) for f in corpus() for d in intervals if f.domain.encloses(d)]
    assert len(pairs) == 13  # eight functions on [1, 2], piecewise_plateau on all five
    for f, d in pairs:
        for n in (15, 25):
            for seed in (0, 1, 7):
                base = check_harmonically_quasiconvex(abs_derivative_power(f, 1.0), d, n=n, seed=seed).violated
                for q in (1.5, 2.0, 4.0, 8.0):
                    verdict = check_harmonically_quasiconvex(abs_derivative_power(f, q), d, n=n, seed=seed)
                    assert verdict.violated == base, (f.label, d, n, seed, q)


def test_verdict_violated_property():
    assert ConvexityVerdict(VIOLATED, (1.0, 2.0, 0.5), 3).violated
    assert not ConvexityVerdict(NO_VIOLATION, None, 3).violated


@settings(deadline=None, max_examples=25)
@given(k=st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 0.05))
def test_power_functions_are_harmonically_quasiconvex(k):
    # u^k is monotone on (0, inf), hence quasi-convex along harmonic mixes
    f = ScalarFunction(f"pow_{k:.3f}", IntervalDomain(0.5, 2.5), lambda u: u**k)
    assert not check_harmonically_quasiconvex(f, n=8).violated


@settings(deadline=None, max_examples=25)
@given(
    x=st.floats(1.0, 2.0),
    y=st.floats(1.0, 2.0),
    lam=st.floats(0.0, 1.0),
)
def test_harmonic_mix_stays_inside_interval(x, y, lam):
    mix = x * y / (lam * x + (1.0 - lam) * y)
    assert min(x, y) - 1e-12 <= mix <= max(x, y) + 1e-12
