"""Declared breakpoints: the identity's integrals are cut where f or f' is not smooth.

At alpha = 1 both Riemann-Liouville operators are plain integrals and the
identity value has a closed form.  For a continuous piecewise-linear f with
f(u) = p + m*u on a piece,

  I = (1-lam)(wa + wb) f(x) + lam (wa f(a) + wb f(b)) - int_{1/b}^{1/a} f(1/t) dt,
  wa = 1/a - 1/x,  wb = 1/x - 1/b,

and each piece [u1, u2] adds p (1/u1 - 1/u2) + m ln(u2/u1) to the integral.
Both identity_lhs and identity_rhs are compared against it.
"""
import bisect
import math
import random

import pytest

from hqfi.bounds import ParamPoint, identity_lhs, identity_rhs
from hqfi.harmonic import IntervalDomain, ScalarFunction

# Each integral is asked for a relative error of 1e-10 (the default rel_tol),
# so both sides must land within that of the summed size of the terms.
_REL = 1e-10


def _piecewise_linear(knots, values, breaks=None):
    """Continuous interpolant of (knots, values); f' is the slope of the piece on the right."""
    slopes = [(v2 - v1) / (u2 - u1) for u1, u2, v1, v2 in zip(knots, knots[1:], values, values[1:])]

    def piece(u):
        return min(max(bisect.bisect_right(knots, u) - 1, 0), len(slopes) - 1)

    def value(u):
        i = piece(u)
        return values[i] + slopes[i] * (u - knots[i])

    return ScalarFunction(
        "piecewise_linear",
        IntervalDomain(knots[0], knots[-1]),
        value,
        lambda u: slopes[piece(u)],
        breaks=tuple(knots[1:-1]) if breaks is None else breaks,
    )


def _closed_form(f, p):
    """Identity value at alpha = 1 and the summed size of the terms that cancel in it."""
    a, b, x, lam = p.a, p.b, p.x, p.lam
    wa, wb = 1.0 / a - 1.0 / x, 1.0 / x - 1.0 / b
    boundary = (1.0 - lam) * (wa + wb) * f(x) + lam * (wa * f(a) + wb * f(b))
    edges = [a, *(u for u in f.breaks if a < u < b), b]
    integral = 0.0
    size = abs(boundary)
    for u1, u2 in zip(edges, edges[1:]):
        m = f.df(0.5 * (u1 + u2))
        pc = f(u1) - m * u1
        term = pc * (1.0 / u1 - 1.0 / u2) + m * math.log(u2 / u1)
        integral += term
        size += abs(term)
    return boundary - integral, size


def _check(f, p):
    expected, size = _closed_form(f, p)
    for side in (identity_lhs, identity_rhs):
        got = side(f, p)
        assert abs(got - expected) <= _REL * (1.0 + size), (side.__name__, got, expected, size)


def _random_case(rng):
    a = rng.uniform(0.05, 1.0)
    b = a * rng.uniform(2.0, 50.0)
    inner = sorted(rng.uniform(a, b) for _ in range(rng.randint(1, 4)))
    knots = [a, *inner, b]
    values = [rng.uniform(-2.0, 2.0)]
    for _ in knots[1:]:
        # flat pieces give plateaus, whose kinks a panel can miss entirely
        values.append(values[-1] if rng.random() < 0.5 else rng.uniform(-2.0, 2.0))
    f = _piecewise_linear(knots, values)
    x = rng.choice([rng.uniform(a, b), rng.choice(inner)])
    lam = rng.choice([0.0, 1.0 / 3.0, 0.5, 1.0, rng.uniform(0.0, 1.0)])
    return f, ParamPoint(a, b, x, lam, 1.0)


@pytest.mark.parametrize("seed", range(40))
def test_identity_matches_closed_form_at_random_breaks(seed):
    f, p = _random_case(random.Random(seed))
    _check(f, p)


def test_narrow_tent_between_gk15_nodes():
    # a tent of width 1e-3 on a plateau: every node of a first panel over the
    # whole interval sees the plateau, so only the cut finds the tent
    f = _piecewise_linear([0.1, 2.0, 2.0005, 2.001, 4.0], [1.0, 1.0, 1.5, 1.0, 1.0])
    for x in (0.1, 1.0, 3.0, 4.0):
        for lam in (0.0, 1.0 / 3.0, 1.0):
            _check(f, ParamPoint(0.1, 4.0, x, lam, 1.0))


@pytest.mark.parametrize("where", ["a", "b", "x"])
def test_break_at_an_endpoint_or_at_x(where):
    # the break is declared on a wider domain and lands on a, b or x of the point
    a, b, x = 0.5, 3.0, 1.25
    at = {"a": a, "b": b, "x": x}[where]
    knots = [0.25, at, 5.0]
    f = _piecewise_linear(knots, [0.5, 2.0, -1.0])
    for lam in (0.0, 0.5, 1.0):
        _check(f, ParamPoint(a, b, x, lam, 1.0))
    for xx in (a, b):
        _check(f, ParamPoint(a, b, xx, 0.5, 1.0))


def test_break_validation():
    dom = IntervalDomain(1.0, 2.0)
    for bad in ((2.5,), (0.5,), (1.5, 1.2), (1.5, 1.5), (math.nan,), (math.inf,)):
        with pytest.raises(ValueError, match="breaks"):
            ScalarFunction("f", dom, lambda u: u, breaks=bad)
    f = ScalarFunction("f", dom, lambda u: u, breaks=[1, 1.5, 2])
    assert f.breaks == (1.0, 1.5, 2.0)
    assert ScalarFunction("g", dom, lambda u: u).breaks == ()
