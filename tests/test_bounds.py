"""Identity assembly, the three bound families, and corollary transcriptions.

The corollary expressions below are written out independently of bounds.py
(straight from the specialized formulas, using only the kernel moments), so a
transcription slip in either place breaks the 1e-12 agreement checks.
"""
import bisect
import collections
import inspect
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqfi.bounds
import hqfi.kernels
from hqfi.bounds import (
    _SLACK_TOL,
    ParamPoint,
    Theorem,
    Variant,
    bound,
    evaluate_bound,
    identity_lhs,
    identity_rhs,
    ostrowski_bound,
    specialize,
    _verdicts,
)
from hqfi.harmonic import IntervalDomain, ScalarFunction, abs_derivative_power, check_harmonically_quasiconvex, corpus
from hqfi.harness import SweepConfig, run_verify
from hqfi.kernels import c1, c2, c3
from hqfi.quad import integrate

FNS = {f.label: f for f in corpus()}
WORKED = ParamPoint(1.0, 2.0, 4.0 / 3.0, 0.0, 1.0, 1.0)


# --- parameter plumbing ---


def test_param_point_validation():
    with pytest.raises(ValueError):
        ParamPoint(2.0, 1.0, 1.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(1.0, 2.0, 2.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(1.0, 2.0, 1.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        ParamPoint(1.0, 2.0, 1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        ParamPoint(1.0, 2.0, 1.5, 0.0, 1.0, 0.5)


def test_h_point_between_endpoints():
    pt = ParamPoint(1.0, 2.0, 1.5, 0.0, 1.0)
    assert pt.h_point == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert pt.a < pt.h_point < pt.b


# --- identity ---


def test_identity_vanishes_for_constants():
    for label in ("const_zero", "const_3_2"):
        f = FNS[label]
        for alpha in (0.5, 1.0, 2.0):
            pt = ParamPoint(WORKED.a, WORKED.b, WORKED.x, 0.3, alpha, WORKED.q)
            assert identity_lhs(f, pt) == pytest.approx(0.0, abs=1e-11)
            assert identity_rhs(f, pt) == pytest.approx(0.0, abs=1e-11)


def test_identity_worked_golden():
    # f(u)=u at (1,2,H,0,1): lhs = (4/3 - 2 ln 2)/2, negative
    lhs = identity_lhs(FNS["identity"], WORKED)
    assert lhs == pytest.approx((4.0 / 3.0 - 2.0 * math.log(2.0)) / 2.0, abs=1e-11)
    assert identity_rhs(FNS["identity"], WORKED) == pytest.approx(lhs, abs=1e-10)


def test_identity_lhs_equals_rhs_across_parameters():
    rng = random.Random(19)
    for label in ("square", "reciprocal", "xlnx", "expx"):
        f = FNS[label]
        for _ in range(6):
            pt = ParamPoint(
                1.0,
                2.0,
                rng.uniform(1.0, 2.0),
                rng.uniform(0.0, 1.0),
                rng.choice((0.5, 1.0, 1.7, 2.6)),
                1.0,
            )
            lhs, rhs = identity_lhs(f, pt), identity_rhs(f, pt)
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


def test_identity_without_analytic_derivative():
    # a function without `derivative` reaches the kernel integrals through
    # ScalarFunction.df's central difference, the only route on which
    # identity_rhs calls f.value; the sides still agree to the sweep's gate
    for label in ("square", "xlnx", "expx"):
        f = FNS[label]
        calls = []

        def value(u, plain=f.value):
            calls.append(u)
            return plain(u)

        fd = ScalarFunction(f.label, f.domain, value, None, f.quasi, f.breaks)
        for alpha in (0.5, 1.0, 2.0):
            pt = ParamPoint(1.0, 2.0, 1.3, 0.4, alpha, 1.0)
            lhs = identity_lhs(fd, pt)
            calls.clear()
            rhs = identity_rhs(fd, pt)
            assert calls, (label, alpha)
            assert abs(lhs - rhs) / (1.0 + abs(lhs)) <= 1e-8, (label, alpha)


def test_identity_degenerate_endpoints():
    # x=a (or x=b) empties one fractional interval; the identity stays finite
    # and both sides agree through the single surviving brace
    f = FNS["square"]
    for x, lam in ((1.0, 0.0), (1.0, 0.7), (2.0, 1.0), (2.0, 0.2)):
        pt = ParamPoint(WORKED.a, WORKED.b, x, lam, WORKED.alpha, WORKED.q)
        lhs = identity_lhs(f, pt)
        assert math.isfinite(lhs)
        assert identity_rhs(f, pt) == pytest.approx(lhs, abs=1e-10)


def test_identity_alpha_one_displayed_form():
    # at alpha=1 the identity collapses to the classical weighted average minus
    # (ab/(b-a)) int f/u^2, all wrapped in (b-a)/(ab)
    rng = random.Random(23)
    for label in ("identity", "square", "xlnx", "reciprocal"):
        f = FNS[label]
        for _ in range(4):
            a, b = 1.0, 2.0
            x = rng.uniform(a, b)
            lam = rng.uniform(0.0, 1.0)
            pt = ParamPoint(a, b, x, lam, 1.0, 1.0)
            mean = integrate(lambda u: f(u) / (u * u), a, b)
            displayed = (b - a) / (a * b) * (
                (1.0 - lam) * f(x)
                + lam * (b * (x - a) * f(a) + a * (b - x) * f(b)) / (x * (b - a))
                - (a * b / (b - a)) * mean
            )
            assert identity_lhs(f, pt) == pytest.approx(displayed, abs=1e-9)


def test_identity_sides_in_closed_form_for_the_reciprocal():
    # f(u) = 1/u makes f o inv linear, so both fractional integrals are exact:
    # Gamma(alpha+1) J_{1/x+}^alpha (f o inv)(1/a) = wa/a - alpha/(alpha+1) wa (x-a)/(ax), and
    # Gamma(alpha+1) J_{1/x-}^alpha (f o inv)(1/b) = wb/b + alpha/(alpha+1) wb (b-x)/(bx).
    # f'(end x/A) = -A^2/(end x)^2, so each brace has P = -1/((alpha+1)(end x)^2) and Q = -1/(end x)^2.
    for a, b in ((1.0, 2.0), (0.5, 4.0), (0.1, 4.0), (0.01, 5.0)):
        f = ScalarFunction("recip", IntervalDomain(a, b), lambda u: 1.0 / u, lambda u: -1.0 / (u * u))
        for x in (a, (a + b) / 2.0, 2.0 * a * b / (a + b), b):
            for alpha in (0.05, 0.5, 1.0, 4.0, 10.0):
                wa = ((x - a) / (a * x)) ** alpha
                wb = ((b - x) / (b * x)) ** alpha
                k = alpha / (alpha + 1.0)
                fractional = (wa / a, -k * wa * (x - a) / (a * x), wb / b, k * wb * (b - x) / (b * x))
                for lam in (0.0, 1.0 / 3.0, 1.0):
                    lhs_terms = [(1.0 - lam) * (wa + wb) / x, lam * (wa / a + wb / b), *(-t for t in fractional)]
                    rhs_terms = []
                    for sign, end in ((1.0, a), (-1.0, b)):  # the left brace minus the right one
                        pref = abs(end - x) ** (alpha + 1.0) / (end * x) ** (alpha - 1.0)
                        p, q = -1.0 / ((alpha + 1.0) * (end * x) ** 2), -1.0 / (end * x) ** 2
                        rhs_terms += [sign * pref * p, -sign * lam * pref * q]
                    pt = ParamPoint(a, b, x, lam, alpha)
                    scale = 1.0 + sum(map(abs, lhs_terms)) + sum(map(abs, rhs_terms))
                    case = (a, b, x, alpha, lam)
                    assert abs(math.fsum(lhs_terms) - math.fsum(rhs_terms)) <= 1e-13 * scale, case
                    for got, terms in ((identity_lhs(f, pt), lhs_terms), (identity_rhs(f, pt), rhs_terms)):
                        assert abs(got - math.fsum(terms)) <= 1e-13 * (1.0 + sum(map(abs, terms))), case


# --- bounds: goldens and variant behaviour ---


def test_t22_worked_golden():
    rep = evaluate_bound(FNS["identity"], WORKED, Theorem.T22)
    assert rep.lhs_abs == pytest.approx(math.log(2.0) - 2.0 / 3.0, abs=1e-9)
    # term-by-term: C2(1,0,1,3/4)/16 + C3(1,0,1,2/3)/9 = ln(9/8)
    assert rep.bound == pytest.approx(math.log(9.0 / 8.0), abs=1e-6)
    assert rep.bound == pytest.approx(
        c2(1.0, 0.0, 1.0, 0.75) / 16.0 + c3(1.0, 0.0, 1.0, 2.0 / 3.0) / 9.0, rel=1e-12
    )
    assert rep.holds and rep.slack > 0.09


def test_t23_example_with_frozen_slack():
    # f(u)=u^2 at (1, 2, 1.5, 1/2, 1), q=2: lhs is exactly 1/16
    pt = ParamPoint(1.0, 2.0, 1.5, 0.5, 1.0, 2.0)
    rep = evaluate_bound(FNS["square"], pt, Theorem.T23)
    assert rep.lhs_abs == pytest.approx(1.0 / 16.0, abs=1e-10)
    assert rep.bound == pytest.approx(0.21172353429495855, abs=1e-12)
    assert rep.holds
    assert rep.slack == pytest.approx(0.14922353429495855, abs=1e-9)


def test_t24_worked_golden():
    pt = ParamPoint(WORKED.a, WORKED.b, WORKED.x, WORKED.lam, WORKED.alpha, 2.0)
    rep = evaluate_bound(FNS["identity"], pt, Theorem.T24)
    # B* assembled from C1(1,0)=1/2 and the q=2 kernel moments
    expected = math.sqrt(0.5) * (
        (1.0 / 3.0) ** 2 / (4.0 / 3.0) ** 2 * math.sqrt(c2(1.0, 0.0, 2.0, 0.75))
        + (2.0 / 3.0) ** 2 / 4.0 * math.sqrt(c3(1.0, 0.0, 2.0, 2.0 / 3.0))
    )
    assert rep.bound == pytest.approx(expected, rel=1e-12)
    assert rep.bound == pytest.approx(0.11955732517339696, abs=1e-12)
    assert rep.holds


def test_t22_equals_t23_at_q_one():
    rng = random.Random(31)
    for label in ("identity", "square", "expx", "sqrtx"):
        f = FNS[label]
        for _ in range(5):
            pt = ParamPoint(
                1.0, 2.0, rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.3, 2.5), 1.0
            )
            t22 = bound(f, pt, Theorem.T22)
            t23 = bound(f, pt, Theorem.T23)
            assert abs(t22 - t23) <= 1e-12 * max(1.0, abs(t22))


def test_t24_requires_q_above_one(moment_calls):
    # the guard fires before any brace moment is computed
    with pytest.raises(ValueError, match="q > 1"):
        bound(FNS["identity"], WORKED, Theorem.T24)
    assert not moment_calls


def test_as_stated_variant_counterexample():
    # x=b, q=2: the printed b^{2q} denominator shrinks the surviving brace
    # four-fold and the bound drops below |lhs| = 1 - ln 2
    f = FNS["identity"]
    pt = ParamPoint(1.0, 2.0, 2.0, 0.0, 1.0, 2.0)
    lhs_abs = abs(identity_lhs(f, pt))
    assert lhs_abs == pytest.approx(1.0 - math.log(2.0), abs=1e-10)
    for theorem in (Theorem.T22, Theorem.T23, Theorem.T24):
        rep = evaluate_bound(f, pt, theorem, Variant.AS_STATED)
        assert not rep.holds, theorem
        corrected = evaluate_bound(f, pt, theorem)
        assert corrected.holds, theorem


def _hand_bound(f, pt, theorem, variant):
    """Independent assembly of every theorem x variant row from the kernel moments."""
    a, b, x, lam, alpha, q = pt.a, pt.b, pt.x, pt.lam, pt.alpha, pt.q
    if theorem is Theorem.T22:
        kq, pre, far = q, c1(alpha, lam) ** (1.0 - 1.0 / q), a
    elif theorem is Theorem.T23:
        kq, pre, far = 1.0, 1.0, b
    else:
        kq, pre, far = q / (q - 1.0), c1(alpha, lam) ** (1.0 / q), b
    if variant is Variant.SYMMETRIC_CORRECTED:
        den_left, den_right, far = x**2, b**2, b
    else:
        # the printed denominators: x^{2q}, b^{2q}, with the conjugate exponent for T24
        e = 2.0 * (kq if theorem is Theorem.T24 else q)
        den_left, den_right = x**e, b**e
    left = (x - a) ** (alpha + 1.0) / ((a * x) ** (alpha - 1.0) * den_left) * max(
        abs(f.df(x)), abs(f.df(a))
    ) * c2(alpha, lam, kq, a / x) ** (1.0 / kq)
    right = (b - x) ** (alpha + 1.0) / ((b * x) ** (alpha - 1.0) * den_right) * max(
        abs(f.df(x)), abs(f.df(far))
    ) * c3(alpha, lam, kq, x / b) ** (1.0 / kq)
    return pre * (left + right)


def test_every_theorem_variant_row_matches_hand_assembly():
    # f(u)=u^2 has f'(a) != f'(b), so the far point of each second sup shows
    f = FNS["square"]
    assert f.df(1.0) != f.df(2.0)
    for x in (1.3, 1.7):
        for lam in (0.0, 0.4):
            for q in (1.5, 3.0):
                pt = ParamPoint(1.0, 2.0, x, lam, 0.8, q)
                for theorem in Theorem:
                    for variant in Variant:
                        got = bound(f, pt, theorem, variant)
                        assert got == pytest.approx(_hand_bound(f, pt, theorem, variant), rel=1e-12), (
                            x, lam, q, theorem, variant
                        )


def test_brace_moments_computed_once_per_argument(moment_calls, monkeypatch):
    # the conftest empties the 2F1-value memos before the test; every 2F1 value the
    # kernels compute goes through one of these two bindings, and is counted per argument tuple
    computed = collections.Counter()
    for name in ("hyp2f1", "_hyp2f1_tail"):

        def counted(*args, name=name, inner=getattr(hqfi.kernels, name)):
            computed[name, *args] += 1
            return inner(*args)

        monkeypatch.setattr(hqfi.kernels, name, counted)
    cfg = SweepConfig.from_dict(
        {
            "lambdas": [0.0, 0.5, 1.0],
            "alphas": [0.5, 1.0],
            "qs": [1.0, 2.0],
            "functions": ["identity", "square", "reciprocal"],
            "variant": "both",
        }
    )
    rep = run_verify(cfg)
    assert len({r["function"] for r in rep.records}) >= 2
    # every function, theorem and variant shares the same braces, yet each distinct
    # (side, alpha, lam, kq, r) moment is computed exactly once
    assert moment_calls and set(moment_calls.values()) == {1}, moment_calls
    # each memo miss computes one 2F1 value at an argument tuple no other miss had, and
    # the moments at different lam read the values they share from the memos
    assert computed and set(computed.values()) == {1}, computed
    memos = {"hyp2f1": hqfi.kernels._g.cache_info(), "_hyp2f1_tail": hqfi.kernels._d.cache_info()}
    for name, info in memos.items():
        assert info.misses == info.currsize == sum(key[0] == name for key in computed) > 0, (name, info)
        assert info.hits > 0, (name, info)
    for r in rep.records:
        pt = ParamPoint(r["a"], r["b"], r["x"], r["lam"], r["alpha"], r["q"])
        want = _hand_bound(FNS[r["function"]], pt, Theorem(r["theorem"]), Variant(r["variant"]))
        assert r["bound"] == pytest.approx(want, rel=1e-12), r


def test_public_kernel_moments_stay_plain_functions():
    # a cached public moment would hide its calls from per-function tracing
    for name in ("c1", "c2", "c3", "kernel_oracle"):
        assert inspect.isfunction(getattr(hqfi.kernels, name)), name


def test_corrected_t23_is_sharp_at_linear_endpoint_case():
    # equality: the corrected bound touches |lhs| exactly here
    pt = ParamPoint(1.0, 2.0, 2.0, 0.0, 1.0, 2.0)
    rep = evaluate_bound(FNS["identity"], pt, Theorem.T23)
    assert rep.slack == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize(
    "scale, a, b, x, alpha, theorem",
    [
        (1e6, 0.1, 0.2, 0.2, 5.0, Theorem.T22),  # slack -5.7e-7 on a bound of 2.3e8
        (1e7, 1.0, 2.0, 1.0, 0.1, Theorem.T22),  # slack -8.4e-9 on a bound of 1.16e6
        (1e7, 1.0, 2.0, 1.0, 0.1, Theorem.T23),
    ],
)
def test_corrected_bound_holds_at_scale_in_the_linear_equality_case(scale, a, b, x, alpha, theorem):
    # f linear, x at an endpoint, lam = 1 and q = 1: the kernel keeps one sign, the corrected
    # bound equals |lhs|, and roundoff alone decides the sign of the slack.  An absolute gate,
    # slack >= -1e-9, refuted all three; the gate scaled by 1 + bound holds them
    f = ScalarFunction(f"{scale:g}u", IntervalDomain(a, b), lambda u: scale * u, lambda u: scale, True)
    assert evaluate_bound(f, ParamPoint(a, b, x, 1.0, alpha, 1.0), theorem, Variant.SYMMETRIC_CORRECTED).holds


@pytest.mark.parametrize("lam", [0.0, 1.0 / 3.0, 0.5, 1.0])
@pytest.mark.parametrize("alpha, q", [(0.5, 1.0), (1.0, 2.0), (2.0, 1.0)])
def test_the_scaled_slack_gate_still_refutes_as_stated_t22(lam, alpha, q):
    # f(u) = (u - 1)^2 on [1, 2] meets the hypothesis (|f'| = 2(u - 1) rises), and at x = a both sups
    # of as_stated T22 are |f'(1)| = 0: the bound is 0 under a nonzero |lhs|, which the gate must refute
    f = ScalarFunction("(u-1)^2", IntervalDomain(1.0, 2.0), lambda u: (u - 1.0) ** 2, lambda u: 2.0 * (u - 1.0), True)
    point = ParamPoint(1.0, 2.0, 1.0, lam, alpha, q)
    stated = evaluate_bound(f, point, Theorem.T22, Variant.AS_STATED)
    assert stated.bound == 0.0 and stated.lhs_abs > 0.02
    assert not stated.holds
    assert evaluate_bound(f, point, Theorem.T22, Variant.SYMMETRIC_CORRECTED).holds


def _equality_cases():
    """The linear equality case at scale 1e6: 2 intervals x 3 alpha x 2 x x 2 lam x 3 rows = 72 cases.

    The 3 cases at alpha = 2, x = a = 0.1, lam = 0 each have a slack of -1.51e-9 on a bound of
    5.69e5: an absolute gate, slack >= -1e-9, refuted them, and the gate scaled by 1 + bound holds.
    """
    rows = ((Theorem.T22, 1.0), (Theorem.T23, 1.0), (Theorem.T23, 2.0))
    for (a, b), alpha, end, lam, (theorem, q) in itertools.product(
        ((1.0, 2.0), (0.1, 0.2)), (0.5, 1.0, 2.0), (0, 1), (0.0, 1.0), rows
    ):
        yield a, b, (a, b)[end], lam, alpha, q, theorem


@pytest.mark.parametrize("a, b, x, lam, alpha, q, theorem", list(_equality_cases()))
def test_corrected_bound_holds_over_the_linear_equality_grid_at_scale(a, b, x, lam, alpha, q, theorem):
    # one brace is absent at x = a and at x = b, and the kernel keeps one sign at lam = 0 and 1,
    # so corrected T22 at q = 1 and T23 at every q equal |lhs| up to roundoff
    f = ScalarFunction("1e6u", IntervalDomain(a, b), lambda u: 1e6 * u, lambda u: 1e6, True)
    assert evaluate_bound(f, ParamPoint(a, b, x, lam, alpha, q), theorem, Variant.SYMMETRIC_CORRECTED).holds


def _valley_in_s(lo, ratio, values, sign):
    """f on [lo, lo*ratio] whose |f'| is piecewise linear in s = 1/u through `values`, in closed form.

    The knots are equispaced in s over [1/hi, 1/lo], and `values` is valley-shaped, so |f'| is
    harmonically quasi-convex.  On the piece between two knots |f'| = c0 + c1 s = c0 + c1/u, so
    f = sign (c0 u + c1 ln u + K), with K making f continuous; the interior knots are f's breaks.
    """
    hi = lo * ratio
    m = len(values) - 1
    knots = [1.0 / hi + (1.0 / lo - 1.0 / hi) * j / m for j in range(m + 1)]  # in s, increasing
    pieces = []  # (u at the piece's right end, c0, c1, K), in increasing u
    at = 0.0  # f / sign at the piece's left end
    for j in reversed(range(m)):
        c1 = (values[j + 1] - values[j]) / (knots[j + 1] - knots[j])
        c0 = values[j] - c1 * knots[j]
        u_lo = lo if j == m - 1 else 1.0 / knots[j + 1]
        u_hi = hi if j == 0 else 1.0 / knots[j]
        k = at - (c0 * u_lo + c1 * math.log(u_lo))
        pieces.append((u_hi, c0, c1, k))
        at = c0 * u_hi + c1 * math.log(u_hi) + k
    ends = [end for end, *_ in pieces]

    def piece(u):
        return pieces[min(bisect.bisect_left(ends, u), m - 1)]

    def value(u):
        _, c0, c1, k = piece(u)
        return sign * (c0 * u + c1 * math.log(u) + k)

    def derivative(u):
        _, c0, c1, _ = piece(u)
        return sign * (c0 + c1 / u)

    return ScalarFunction(f"valley{values}", IntervalDomain(lo, hi), value, derivative, True, breaks=tuple(ends[:-1]))


_CORRECTED_ROWS = [(q, theorem) for q in (1.0, 2.0, 4.0) for theorem in Theorem if theorem is not Theorem.T24 or q > 1.0]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    lo=st.floats(0.1, 2.0),
    ratio=st.floats(1.5, 10.0),
    drawn=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=5),
    split=st.integers(0, 5),
    sign=st.sampled_from((1.0, -1.0)),
    step=st.integers(0, 6),
    lam=st.sampled_from((0.0, 1.0 / 3.0, 0.5, 1.0)),
    alpha=st.sampled_from((0.1, 0.5, 1.0, 2.0, 5.0)),
)
def test_corrected_bounds_hold_on_drawn_valleys_in_s(lo, ratio, drawn, split, sign, step, lam, alpha):
    # ROADMAP item 11: |f'| drawn as a valley in s = 1/u meets the hypothesis, so every corrected row must hold
    values = sorted(drawn[:split], reverse=True) + sorted(drawn[split:])  # non-increasing, then non-decreasing
    f = _valley_in_s(lo, ratio, values, sign)
    a, b = f.domain.lo, f.domain.hi
    assert not check_harmonically_quasiconvex(abs_derivative_power(f, 1.0)).violated
    x = b if step == 6 else a + step * (b - a) / 6.0  # the sweep's 7-point x grid
    lhs_abs = abs(identity_lhs(f, ParamPoint(a, b, x, lam, alpha)))
    bounds = [bound(f, ParamPoint(a, b, x, lam, alpha, q), theorem) for q, theorem in _CORRECTED_ROWS]
    slacks, holds = _verdicts(bounds, lhs_abs, _SLACK_TOL)
    assert all(holds), [(row, value, slack) for row, value, slack, ok in zip(_CORRECTED_ROWS, bounds, slacks, holds) if not ok]


# Equality witnesses at interior lam (ROADMAP item 20).  At x = a only the right brace exists (c3), at
# x = b only the left one (c2).  With t* = lam^(1/alpha), the kink of |t^alpha - lam|, and u* its image
# end*x/(t* end + (1 - t*) x), where end is the other endpoint, f' = +1 below u* and -1 above keeps
# f'(t^alpha - lam) of one sign over the brace, so |I| equals corrected T23.  These are the only
# two-sided checks of the three-term interior-lam branches of c2 and c3.
_WITNESS_INTERVALS = [(1.0, 2.0), (0.1, 0.2), (0.1, 4.0), (0.01, 5.0)]
_WITNESS_ALPHAS = (0.1, 0.5, 1.0, 2.0, 5.0)


def _witness_gaps(a, b, end, lam):
    """Per alpha, |(|identity_rhs| - corrected T23) / T23| for the witness at x = (a, b)[end]."""
    x, other = (a, b)[end], (b, a)[end]
    gaps = {}
    for alpha in _WITNESS_ALPHAS:
        t = lam ** (1.0 / alpha)
        kink = other * x / (t * other + (1.0 - t) * x)
        f = ScalarFunction(
            "witness",
            IntervalDomain(a, b),
            lambda u, kink=kink: u if u < kink else 2.0 * kink - u,
            lambda u, kink=kink: 1.0 if u < kink else -1.0,
            breaks=(kink,),
        )
        point = ParamPoint(a, b, x, lam, alpha, 1.0)
        t23 = bound(f, point, Theorem.T23, Variant.SYMMETRIC_CORRECTED)
        gaps[alpha] = abs(abs(identity_rhs(f, point)) - t23) / t23
    return gaps


@pytest.mark.parametrize("lam", [0.1, 1.0 / 3.0, 0.5, 0.9])
@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("a, b", _WITNESS_INTERVALS)
def test_interior_lam_witnesses_attain_corrected_t23(a, b, end, lam):
    # the worst gap over these 160 cases is 2.2e-13
    gaps = _witness_gaps(a, b, end, lam)
    assert max(gaps.values()) <= 1e-12, gaps


@pytest.mark.parametrize("name, end", [("c2", 1), ("c3", 0)])
def test_interior_lam_witnesses_flag_an_inflated_moment(monkeypatch, name, end):
    # an inflated moment only loosens the one-sided bound check, but moves every witness of its brace
    # by about the inflation, 1e-6, far past the witnesses' 1e-12
    inner = getattr(hqfi.bounds, name)
    monkeypatch.setattr(hqfi.bounds, name, lambda *args: inner(*args) * (1.0 + 1e-6))
    for (a, b), lam in itertools.product(_WITNESS_INTERVALS, (0.1, 1.0 / 3.0, 0.5, 0.9)):
        gaps = _witness_gaps(a, b, end, lam)
        assert min(gaps.values()) > 9e-7, (a, b, lam, gaps)


def test_bounds_hold_on_mini_sweep():
    rng = random.Random(47)
    for _ in range(25):
        label = rng.choice(("identity", "square", "reciprocal", "xlnx", "expx", "sqrtx"))
        q = rng.choice((1.0, 1.5, 2.0))
        pt = ParamPoint(
            1.0, 2.0, rng.uniform(1.0, 2.0), rng.uniform(0.0, 1.0), rng.uniform(0.3, 2.6), q
        )
        for theorem in (Theorem.T22, Theorem.T23, Theorem.T24):
            if theorem is Theorem.T24 and q == 1.0:
                continue
            assert evaluate_bound(FNS[label], pt, theorem).holds


# --- specializations and corollaries ---


def test_specialize_kinds():
    base = ParamPoint(1.0, 2.0, 1.9, 0.7, 1.3, 2.0)
    h = base.h_point
    assert specialize("simpson", base) == ParamPoint(1.0, 2.0, h, 1.0 / 3.0, 1.3, 2.0)
    assert specialize("midpoint", base) == ParamPoint(1.0, 2.0, h, 0.0, 1.3, 2.0)
    assert specialize("trapezoid", base) == ParamPoint(1.0, 2.0, h, 1.0, 1.3, 2.0)
    assert specialize("ostrowski", base) == ParamPoint(1.0, 2.0, 1.9, 0.0, 1.3, 2.0)
    assert specialize("hadamard_weighted", base) == ParamPoint(1.0, 2.0, h, 0.7, 1.3, 2.0)
    with pytest.raises(ValueError):
        specialize("bogus", base)


def _corollary_braces(f, a, b, lam, alpha, kq):
    """Independent transcription of the x=H corollary braces at moment slot kq."""
    h = 2.0 * a * b / (a + b)
    sup1 = max(abs(f.df(h)), abs(f.df(a)))
    sup2 = max(abs(f.df(h)), abs(f.df(b)))
    r1 = (a + b) / (2.0 * b)  # = a/H
    r2 = 2.0 * a / (a + b)  # = H/b
    return (b - a) / (4.0 * a * b) * (
        a * a * sup1 * c2(alpha, lam, kq, r1) ** (1.0 / kq)
        + h * h * sup2 * c3(alpha, lam, kq, r2) ** (1.0 / kq)
    )


def _corollary_bound(f, a, b, lam, alpha, q, theorem):
    if theorem is Theorem.T22:
        return c1(alpha, lam) ** (1.0 - 1.0 / q) * _corollary_braces(f, a, b, lam, alpha, q)
    if theorem is Theorem.T23:
        return _corollary_braces(f, a, b, lam, alpha, 1.0)
    p = q / (q - 1.0)
    return c1(alpha, lam) ** (1.0 / q) * _corollary_braces(f, a, b, lam, alpha, p)


_KIND_LAMBDA = {"simpson": 1.0 / 3.0, "midpoint": 0.0, "trapezoid": 1.0}


def test_corollaries_match_scaled_theorems():
    # the corollary statements carry the factor (1/2)(2ab/(b-a))^alpha on the
    # identity; their bounds must equal that multiple of the general bound at x=H
    rng = random.Random(101)
    for _ in range(20):
        a = rng.uniform(0.5, 2.0)
        b = a + rng.uniform(0.3, 2.0)
        alpha = rng.uniform(0.3, 2.5)
        q = rng.uniform(1.0 + 1e-9, 3.0)
        f = FNS[rng.choice(("identity", "square", "expx", "xlnx"))]
        fn = f if f.domain.encloses(IntervalDomain(a, b)) else ScalarFunction(
            f.label, IntervalDomain(a, b), f.value, f.derivative
        )
        scale = 0.5 * (2.0 * a * b / (b - a)) ** alpha
        base = ParamPoint(a, b, a, 0.5, alpha, q)
        for kind, lam in _KIND_LAMBDA.items():
            pt = specialize(kind, ParamPoint(base.a, base.b, base.x, lam, base.alpha, base.q))
            for theorem, general in (
                (Theorem.T22, bound(fn, pt, Theorem.T22)),
                (Theorem.T23, bound(fn, pt, Theorem.T23)),
                (Theorem.T24, bound(fn, pt, Theorem.T24)),
            ):
                transcribed = _corollary_bound(fn, a, b, lam, alpha, q, theorem)
                assert transcribed == pytest.approx(scale * general, rel=1e-12), (kind, theorem)


def test_trapezoid_t24_alpha_one_prefactor():
    # at lam=1, alpha=1, q=2 the leading factor is C1(1,1)^{1/q} = (1/2)^{1/2};
    # braces assembled here by hand at the conjugate slot p = 2
    a, b, q = 1.0, 2.0, 2.0
    pt = specialize("trapezoid", ParamPoint(a, b, a, 0.0, 1.0, q))
    f = FNS["square"]
    h = pt.h_point
    braces = (h - a) ** 2 / h**2 * max(abs(f.df(h)), abs(f.df(a))) * math.sqrt(
        c2(1.0, 1.0, 2.0, a / h)
    ) + (b - h) ** 2 / b**2 * max(abs(f.df(h)), abs(f.df(b))) * math.sqrt(
        c3(1.0, 1.0, 2.0, h / b)
    )
    assert c1(1.0, 1.0) == pytest.approx(0.5, rel=1e-15)
    assert bound(f, pt, Theorem.T24) == pytest.approx(0.5 ** (1.0 / q) * braces, rel=1e-12)


# --- Ostrowski form ---


def test_ostrowski_requires_lam_zero():
    with pytest.raises(ValueError):
        ostrowski_bound(1.0, ParamPoint(WORKED.a, WORKED.b, WORKED.x, 0.5, WORKED.alpha, WORKED.q), Theorem.T22)
    with pytest.raises(ValueError):
        ostrowski_bound(-1.0, WORKED, Theorem.T22)


def test_ostrowski_matches_worked_bound():
    # |f'| <= 1 with f(u)=u saturates sup = M, reproducing the T22 golden
    assert ostrowski_bound(1.0, WORKED, Theorem.T22) == pytest.approx(
        math.log(9.0 / 8.0), abs=1e-6
    )


def test_ostrowski_homogeneous_in_m_and_matches_transcription():
    rng = random.Random(77)
    for theorem in (Theorem.T22, Theorem.T23, Theorem.T24):
        for _ in range(6):
            a = rng.uniform(0.5, 2.0)
            b = a + rng.uniform(0.3, 2.0)
            q = rng.uniform(1.1, 3.0)
            pt = ParamPoint(a, b, rng.uniform(a, b), 0.0, rng.uniform(0.3, 2.5), q)
            M = rng.uniform(0.1, 4.0)
            got = ostrowski_bound(M, pt, theorem)
            assert got == pytest.approx(M * ostrowski_bound(1.0, pt, theorem), rel=1e-12)
            # independent transcription with every sup replaced by M
            kq = q if theorem is Theorem.T22 else (1.0 if theorem is Theorem.T23 else q / (q - 1.0))
            pre = (
                c1(pt.alpha, 0.0) ** (1.0 - 1.0 / q)
                if theorem is Theorem.T22
                else (1.0 if theorem is Theorem.T23 else c1(pt.alpha, 0.0) ** (1.0 / q))
            )
            braces = 0.0
            if pt.x > a:
                braces += (pt.x - a) ** (pt.alpha + 1.0) / (
                    (a * pt.x) ** (pt.alpha - 1.0) * pt.x**2
                ) * c2(pt.alpha, 0.0, kq, a / pt.x) ** (1.0 / kq)
            if pt.x < b:
                braces += (b - pt.x) ** (pt.alpha + 1.0) / (
                    (b * pt.x) ** (pt.alpha - 1.0) * b**2
                ) * c3(pt.alpha, 0.0, kq, pt.x / b) ** (1.0 / kq)
            assert got == pytest.approx(M * pre * braces, rel=1e-12)


# f' is +inf at a, or NaN from the interior point 1.5 on (so at x = a it is f'(b) that is NaN)
_NOT_FINITE = {
    "inf_at_a": lambda u: math.inf if u == 1.0 else 2.0 * u,
    "nan_inside": lambda u: math.nan if u >= 1.5 else 2.0 * u,
}


@pytest.mark.parametrize("kind", sorted(_NOT_FINITE))
@pytest.mark.parametrize("x", [1.0, 1.5, 2.0])
def test_bound_refuses_a_derivative_that_is_not_finite(kind, x):
    # an infinite sup makes a bound vacuous (inf), and a NaN one, or an infinite one times the
    # 0.0 weight of an empty brace, makes it NaN, which would read as a violation
    f = ScalarFunction(kind, IntervalDomain(1.0, 2.0), lambda u: u * u, _NOT_FINITE[kind])
    p = ParamPoint(1.0, 2.0, x, 0.5, 1.5, 2.0)
    message = f"bound of {kind} at a=1.0, b=2.0, x={x} needs finite derivatives"
    for theorem in Theorem:
        with pytest.raises(ValueError, match=message):
            bound(f, p, theorem)
        with pytest.raises(ValueError, match=message):
            evaluate_bound(f, p, theorem, Variant.AS_STATED)


# --- property sweeps ---


@settings(deadline=None, max_examples=30)
@given(
    x=st.floats(1.0, 2.0),
    lam=st.floats(0.0, 1.0),
    alpha=st.floats(0.3, 2.5),
    q=st.floats(1.0, 3.0),
)
def test_bound_reports_are_consistent(x, lam, alpha, q):
    pt = ParamPoint(1.0, 2.0, x, lam, alpha, q)
    rep = evaluate_bound(FNS["square"], pt, Theorem.T23)
    assert rep.slack == pytest.approx(rep.bound - rep.lhs_abs, abs=1e-15)
    assert rep.holds == (rep.slack >= -1e-9 * (1.0 + rep.bound))
    assert rep.lhs_abs >= 0.0 and rep.bound >= 0.0
