"""Gamma, beta, and the Gauss hypergeometric function 2F1 on the real slice used here.

2F1 has two independent public routes: the defining power series and the
Euler integral representation evaluated with this package's own quadrature,
whose `integrate_singular` treats both endpoint weights of the integral.
Both are exposed so cross-checks between them stay meaningful.  `hyp2f1` sums
the power series for z <= 0.9.  Above that it sums series in w = 1 - z < 0.1:
the 1 - z connection formula (A&S 15.3.6, DLMF 15.8.4), written so that it
stays exact as d = c - a - b nears an integer and becomes the log form of
A&S 15.3.10-12 (DLMF 15.8.8-10) at one.  The Euler integral remains the route
for a <= 0 and for the large parameters where those series cancel.  Each
route takes a, b, c and z as plain floats and checks them itself (`_check`):
all finite, c > b > 0 and 0 <= z < 1.  `hyp2f1` composes the route bodies
`_hyp2f1_series` and `_hyp2f1_integral`, not their public wrappers, so a value
past the double range is named once: by `_finite`, under the public name that
was called.  `_hyp2f1_tail` gives (2F1 - 1)/z, the power series from its n = 1
term, for the kernel moments.

The inner loops skip the tests their arguments already settle, so each value
keeps its bits.  The power series (`_series_from`) drops `abs` from its
stopping test when a > 0: with c > b > 0 and z >= 0 from `_check`, every term
and the total are then >= 0, and `abs` would return them unchanged.  For
a <= 0, which `hyp2f1` and `hyp2f1_series` accept, terms can be negative and
the loop keeps `abs`.  The w-series (`_w_series`) tests its term factor p, not
|p|: p starts positive and `hyp2f1`'s guard (a + m, b + m > 0, w > 0) keeps
every factor it is multiplied by positive.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from .quad import integrate_singular

__all__ = ["gamma", "beta", "hyp2f1", "hyp2f1_series", "hyp2f1_integral"]

_SERIES_TERM_CUTOFF = 1e-16
_SERIES_MAX_TERMS = 10_000
_SERIES_Z_LIMIT = 0.9
_INNER_TOL = {"abs_tol": 1e-14, "rel_tol": 1e-12}
# Keeps every gamma argument of the w = 1 - z series far below the overflow at 171.
_W_SERIES_MAX_PARAMS = 150.0
# The w = 1 - z series loses about 1e-15 times the ratio of the summed magnitudes of
# its parts to its result; above this ratio the Euler integral is the better route.
_W_SERIES_MAX_CANCELLATION = 100.0
# ln Gamma differences recur upward to here before Stirling's series; from 12 on,
# its terms through B_14 leave less than 1e-17.
_STIRLING_FROM = 12.0
# (2k - 1, B_2k / (2k (2k - 1))), k = 1..7: Stirling's series is sum_k B_2k / (2k (2k - 1) x^(2k - 1))
_STIRLING = tuple(zip(range(1, 15, 2), (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)))


def gamma(x: float) -> float:
    """Gamma function for x > 0."""
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def beta(x: float, y: float) -> float:
    """Euler beta function for x, y > 0, computed in log space."""
    if not (math.isfinite(x) and x > 0.0 and math.isfinite(y) and y > 0.0):
        raise ValueError(f"beta requires x, y > 0, got ({x}, {y})")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def _check(a: float, b: float, c: float, z: float) -> None:
    """The arguments of every 2F1 route: finite, c > b > 0 and 0 <= z < 1."""
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(z)):
        name = next(name for name, value in (("a", a), ("b", b), ("c", c), ("z", z)) if not math.isfinite(value))
        raise ValueError(f"hyp2f1 parameter {name} must be finite")
    if not c > b > 0.0:
        raise ValueError(f"hyp2f1 requires c > b > 0, got b={b}, c={c}")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"hyp2f1 defined for z in [0, 1), got z={z}")


def hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    """2F1 by its power series; terms stop at 1e-16 relative.

    A value past the double range raises an OverflowError naming hyp2f1_series(a, b, c, z);
    `hyp2f1` calls the body `_hyp2f1_series`, and names its own failures.
    """
    return _finite("hyp2f1_series", _hyp2f1_series, a=a, b=b, c=c, z=z)


def _hyp2f1_series(a: float, b: float, c: float, z: float) -> float:
    _check(a, b, c, z)
    return _series_from(a, b, c, z, 1.0, 0)


def _series_from(a: float, b: float, c: float, z: float, term: float, start: int) -> float:
    """The 2F1 power series summed from its term `term` at index `start` on; terms stop at 1e-16 relative.

    The routes' `_check` gives c > b > 0 and z >= 0, so for a > 0 every factor,
    every term and the total are >= 0, and the stopping test skips `abs`, which
    would return its argument.  For a <= 0 a term can be negative, and the loop
    keeps `abs`.
    """
    total = term
    # a float index keeps every step on float arithmetic; a + n rounds the same either way
    if a > 0.0:
        for n in map(float, range(start, _SERIES_MAX_TERMS)):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
            if term <= _SERIES_TERM_CUTOFF * total:
                return total
    else:
        for n in map(float, range(start, _SERIES_MAX_TERMS)):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
            total += term
            if abs(term) <= _SERIES_TERM_CUTOFF * abs(total):
                return total
    raise RuntimeError(f"2F1 series did not converge within {_SERIES_MAX_TERMS} terms for {(a, b, c, z)}")


def _hyp2f1_tail(a: float, b: float, c: float, z: float) -> float:
    """(2F1(a, b; c; z) - 1) / z, summed from the n = 1 term of the power series; ab/c at z = 0.

    Nothing is subtracted, so the result keeps its relative precision as z -> 0.
    Above z = 0.9 it is (hyp2f1 - 1) / z, where 2F1 is well away from 1.
    """
    if z > _SERIES_Z_LIMIT:
        return (hyp2f1(a, b, c, z) - 1.0) / z
    _check(a, b, c, z)
    return _series_from(a, b, c, z, a * b / c, 1)


def hyp2f1_integral(a: float, b: float, c: float, z: float) -> float:
    """2F1 by the Euler integral, split at 1/2 so each endpoint weight is declared.

    int_0^1 t^(b-1) (1-t)^(c-b-1) (1-zt)^(-a) dt / beta(b, c-b).  Each half
    hands its endpoint weight to `quad.integrate_singular`: t^(b-1) on
    [0, 1/2] as the lower weight, (1-t)^(c-b-1) on [1/2, 1] as the upper one.
    That function decides how to treat it: it samples a weight whose exponent
    is at least 1 and substitutes away one below 1.  A value past the double
    range raises an OverflowError naming hyp2f1_integral(a, b, c, z);
    `hyp2f1` calls the body `_hyp2f1_integral`, and names its own failures.
    """
    return _finite("hyp2f1_integral", _hyp2f1_integral, a=a, b=b, c=c, z=z)


def _hyp2f1_integral(a: float, b: float, c: float, z: float) -> float:
    _check(a, b, c, z)
    cb = c - b
    low = integrate_singular(lambda t: (1.0 - t) ** (cb - 1.0) * (1.0 - z * t) ** (-a), b, "lower", 0.0, 0.5, **_INNER_TOL)
    high = integrate_singular(lambda t: t ** (b - 1.0) * (1.0 - z * t) ** (-a), cb, "upper", 0.5, 1.0, **_INNER_TOL)
    return (low + high) / beta(b, cb)


def _finite(name: str, fn: Callable[..., float], **args: float) -> float:
    """fn at the values of `args`, in order; an overflow or a non-finite value raises an OverflowError naming them.

    The error is raised from the overflow, or from None for an inf or nan
    value, and its text is built only on failure.  An error that `fn` named
    itself is nested, not renamed: `c2` and `c3` carry the `hyp2f1(...)` text
    inside theirs, and `hyp2f1` runs the route bodies, which name nothing.
    """
    try:
        value = fn(*args.values())
        if math.isfinite(value):
            return value
        # an inf or nan value would make every bound on it hold, and is no JSON number
        cause, detail = None, f"= {value} is not finite in double precision"
    except OverflowError as exc:  # a power or a Gamma value past the double range
        cause, detail = exc, f"overflows double precision: {exc}"
    raise OverflowError(f"{name}({', '.join(f'{key}={v}' for key, v in args.items())}) {detail}") from cause


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """2F1(a, b; c; z): power series for z <= 0.9, series in w = 1 - z above.

    Above 0.9 the series of `_w_series` hold for every d = c - a - b,
    integer or not.  The Euler integral takes the rest: a <= 0, a + b + c > 150,
    and points where those series cancel more than 100-fold.  On the four
    families of the kernel moments (a = 2q up to 32, alpha up to 10) they
    cancel at most 9-fold.  The routes are the bodies `_hyp2f1_series` and
    `_hyp2f1_integral`, which name nothing, so a value past the double range
    raises one OverflowError, naming hyp2f1(a, b, c, z) whichever route it takes.
    """
    return _finite("hyp2f1", _hyp2f1_routes, a=a, b=b, c=c, z=z)


def _hyp2f1_routes(a: float, b: float, c: float, z: float) -> float:
    """`hyp2f1` without the overflow naming: the route choice and its value."""
    if z <= _SERIES_Z_LIMIT:
        return _hyp2f1_series(a, b, c, z)
    _check(a, b, c, z)
    w = 1.0 - z
    d = c - a - b
    sa, sb, scale = a, b, 1.0
    if d < 0.0:
        # Euler's transformation 2F1(a, b; c; z) = w^d 2F1(c - a, c - b; c; z) makes d positive
        scale, sa, sb, d = w**d, c - a, c - b, -d
    m = round(d)
    eps = d - m
    if eps > 0.0 and min(sa, sb) + m <= 0.0:
        # the split index m must keep a + m and b + m positive; one more term does,
        # whenever a + d and b + d are, with eps in (-1, 0)
        m, eps = m + 1, eps - 1.0
    if a <= 0.0 or a + b + c > _W_SERIES_MAX_PARAMS or min(sa, sb) + m + min(eps, 0.0) <= 0.0:
        return _hyp2f1_integral(a, b, c, z)
    value, magnitude = _w_series(sa, sb, c, w, m, eps)
    if magnitude > _W_SERIES_MAX_CANCELLATION * abs(value):
        return _hyp2f1_integral(a, b, c, z)
    return scale * value


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _lgamma_slope(x: float, e: float) -> float:
    """(ln Gamma(x + e) - ln Gamma(x)) / e for x > 0 and x + e > 0; psi(x) at e = 0.

    Recurs upward to x >= 12 by Gamma(x + 1) = x Gamma(x), then takes the
    divided difference of Stirling's series term by term, each in a form that
    keeps its relative precision as e -> 0.
    """
    shift = 0.0
    while x < _STIRLING_FROM:
        shift += math.log1p(e / x) / e if e else 1.0 / x
        x += 1.0
    u = e / x
    log1pu = math.log1p(u)
    # divided difference of (y - 1/2) ln y - y
    slope = (x - 0.5) * (log1pu / u if u else 1.0) / x + math.log(x + e) - 1.0
    inv = 1.0 / x
    for n, coef in _STIRLING:
        # divided difference of coef * y^-n
        slope += coef * inv**n * (math.expm1(-n * log1pu) / e if e else -n * inv)
    return slope - shift


def _w_series(a: float, b: float, c: float, w: float, m: int, eps: float) -> tuple[float, float]:
    """2F1(a, b; c; 1 - w) for c - a - b = d = m + eps, m >= 0 an integer, -1 < eps <= 1/2.

    Both terms of A&S 15.3.6 have poles at integer d.  Split the first one's
    series at n = m: its m leading terms stay finite (`finite`), and each later
    term pairs with the same-index term of the second one.  With
        P_k = Gamma(a+m+k) Gamma(b+m+k) / (Gamma(1+k-eps) Gamma(1+m+k)),
        Q_k = Gamma(a+d+k) Gamma(b+d+k) / (Gamma(1+k) Gamma(1+d+k)),
    the pair is proportional to
        (pi / sin(pi eps)) (P_k - w^eps Q_k) = -(pi eps / sin(pi eps)) P_k expm1(eps e_k) / eps,
    where eps e_k = ln(w^eps Q_k / P_k) comes from ln Gamma differences and
    log1p, so no pole is evaluated and nothing cancels as eps -> 0.  At
    eps = 0 this is A&S 15.3.10-11, with
        e_k = ln w + psi(a+m+k) + psi(b+m+k) - psi(1+m+k) - psi(1+k).
    Needs a + m, b + m, a + d and b + d > 0.

    Returns the value and the summed magnitude of its parts; their ratio
    measures the digits lost to cancellation.
    """
    d = m + eps
    finite = 0.0
    if m > 0:
        term = finite = 1.0
        for n in range(m - 1):
            term *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0 - d)) * w
            finite += term
        finite *= math.gamma(d) / math.gamma(a + d) / math.gamma(b + d)  # the product could overflow
    am, bm = a + m, b + m
    slope_a, slope_b = _lgamma_slope(am, eps), _lgamma_slope(bm, eps)
    e = math.log(w) + slope_a + slope_b - _lgamma_slope(m + 1.0, eps) - _lgamma_slope(1.0, -eps)
    p = _rgamma(1.0 - eps) / math.gamma(m + 1.0)  # P_k / (Gamma(a+m) Gamma(b+m)) times w^k
    total = spread = 0.0
    for k in range(_SERIES_MAX_TERMS):
        term = p * (math.expm1(eps * e) / eps if eps else e)
        total += term
        spread += abs(term)
        # e can cross 0, so the test puts p beside it.  p needs no abs: it starts at
        # 1/(Gamma(1 - eps) m!) > 0, and the routes' guard keeps every factor it takes > 0
        if p * (abs(e) + 1.0) <= _SERIES_TERM_CUTOFF * abs(total):
            break
        ak, bk, mk, k1 = am + k, bm + k, m + k + 1.0, k + 1.0
        if eps:
            e += (math.log1p(eps / ak) + math.log1p(eps / bk) - math.log1p(eps / mk) + math.log1p(-eps / k1)) / eps
        else:
            e += 1.0 / ak + 1.0 / bk - 1.0 / mk - 1.0 / k1
        p *= ak * bk / ((k1 - eps) * mk) * w
    else:
        raise RuntimeError(f"2F1 w-series did not converge within {_SERIES_MAX_TERMS} terms for {(a, b, c, w)}")
    pi_eps_over_sin = math.pi * eps / math.sin(math.pi * eps) if eps else 1.0
    # (-w)^m Gamma(a+m) Gamma(b+m) / (Gamma(a) Gamma(b) Gamma(a+d) Gamma(b+d)); a or b may sit on a pole
    pre = (-w) ** m * _rgamma(a) * _rgamma(b) * math.exp(-eps * (slope_a + slope_b)) * pi_eps_over_sin
    gc = math.gamma(c)
    value = gc * (finite - pre * total)
    return value, gc * (abs(finite) + abs(pre) * spread)
