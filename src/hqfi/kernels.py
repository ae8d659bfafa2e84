"""Closed-form kernel moments and their brute-force quadrature oracle.

The moments are weighted integrals of |t^alpha - lam| against the squared
harmonic-interpolation denominator:

  c1(alpha, lam)       = int_0^1 |t^alpha - lam| dt
  c2(alpha, lam, q, r) = x^{2q} int_0^1 |t^alpha - lam| (ta + (1-t)x)^{-2q} dt,  r = a/x
  c3(alpha, lam, q, r) = b^{2q} int_0^1 |t^alpha - lam| (tb + (1-t)x)^{-2q} dt,  r = x/b

Both c2 and c3 depend on the endpoints only through the ratio r in (0, 1].
The closed forms split the integral at the kink t = lam^(1/alpha) and resolve
each piece through 2F1; every identity here is pinned against `kernel_oracle`
by the tests.  The oracle and `integrate_kinked`, which the rhs integrals of
`bounds` go through, split at the kink too and integrate in s = t^(1/k), on
the k and the s-edges of `_s_edges`, with k picked from alpha so that the
integrand is smooth at s = 0.  The oracle alone also grades its panels
toward the heavy end, where the denominator tu + (1-t)v of its integrand is
least (s = 1 for c2, s = 0 for c3): it takes the piece next to that end in
y, s = end -/+ c*expm1(y), with c the distance in s over which the
integrand falls by about e, wherever that piece is more than 2c wide.  With
A = 2q and z1 = 1 - r, c2 rests on
D(z) = 2F1(A, 1; 2; z) - 2F1(A, alpha+1; alpha+2; z)/(alpha+1)
     = (2F1(A-1, alpha; alpha+1; z) - 1) / ((A-1) z),
summed without the subtraction, and c3 on the elementary
2F1(A, 1; 2; z) = ((1-z)^(1-A) - 1) / ((A-1) z).  Each 2F1-level value
is memoized by exactly the arguments it depends on: `_g(A, b, alpha, z)`,
2F1(A, b; alpha+2; z)/(alpha+1), and `_d(A, alpha, z)`.  `_c2_at` and
`_c3_at` ask only for the values their lam keeps, so at lam = 0 and lam = 1
each moment needs one memoized value; c2 and c3 call them and are plain
functions themselves.  Each public function takes plain floats and checks
them with `_check_args` (alpha > 0, lam in [0, 1], q >= 1, r in (0, 1]),
the one check that `bounds.ParamPoint` and `harness.run_constants` call too.
"""
from __future__ import annotations

import functools
import math
from collections.abc import Callable

from .quad import integrate
from .specialfn import _finite, _hyp2f1_tail, hyp2f1

__all__ = ["c1", "c2", "c3", "kernel_oracle"]


def _check_args(alpha: float, lam: float, q: float, r: float) -> None:
    """Moment arguments: alpha > 0, lam in [0,1], q >= 1, r in (0,1]."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"require alpha > 0, got {alpha}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"require lam in [0, 1], got {lam}")
    if not (math.isfinite(q) and q >= 1.0):
        raise ValueError(f"require q >= 1, got {q}")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"require r in (0, 1], got {r}")


def c1(alpha: float, lam: float) -> float:
    """int_0^1 |t^alpha - lam| dt."""
    _check_args(alpha, lam, 1.0, 1.0)
    return (2.0 * alpha * lam ** (1.0 + 1.0 / alpha) + 1.0) / (alpha + 1.0) - lam


def _hyp_a12(a: float, z: float) -> float:
    """2F1(a, 1; 2; z) = ((1-z)^(1-a) - 1) / ((a-1) z) for a > 1: 1 at z = 0, inf past the double range."""
    if z == 0.0:
        return 1.0
    try:
        return math.expm1((1.0 - a) * math.log1p(-z)) / ((a - 1.0) * z)
    except OverflowError:
        return math.inf


# One entry per distinct argument tuple: the 9-function dense sweep needs 834 over both
# memos.  The fixed size keeps a long-lived library process from growing without limit.
_MEMO_SIZE = 2**16


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _g(a: float, b: float, alpha: float, z: float) -> float:
    """2F1(a, b; alpha+2; z)/(alpha+1): c2's F1 at b = alpha+1, c3's G at b = 1."""
    return hyp2f1(a, b, alpha + 2.0, z) / (alpha + 1.0)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _d(a: float, alpha: float, z: float) -> float:
    """D(z) = 2F1(a, 1; 2; z) - 2F1(a, alpha+1; alpha+2; z)/(alpha+1) = (2F1(a-1, alpha; alpha+1; z) - 1) / ((a-1) z).

    The second form comes from integration by parts and subtracts nothing large.
    """
    return _hyp2f1_tail(a - 1.0, alpha, alpha + 1.0, z) / (a - 1.0)


def _c2_at(alpha: float, lam: float, q: float, r: float) -> float:
    """c2 at one lam: F1 alone at lam = 0, D(z1) alone at lam = 1, else all three terms.

    From alpha = 2^53 on, alpha + 1 rounds to alpha or alpha + 2 to alpha + 1,
    so the 2F1 parameters are lost: an OverflowError, not a c <= b to reject.
    """
    if not alpha < alpha + 1.0 < alpha + 2.0:
        raise OverflowError("alpha, alpha + 1 and alpha + 2 are not distinct in double precision")
    a, z1 = 2.0 * q, 1.0 - r
    if lam == 1.0:
        return _d(a, alpha, z1)  # z2 = z1, and -D(z1) + 2 D(z1) = D(z1)
    f1 = _g(a, alpha + 1.0, alpha, z1)
    if lam == 0.0:
        return f1
    d1 = _d(a, alpha, z1)
    d2 = _d(a, alpha, lam ** (1.0 / alpha) * z1)
    return (1.0 - lam) * f1 - lam * d1 + 2.0 * lam ** (1.0 + 1.0 / alpha) * d2


def c2(alpha: float, lam: float, q: float, r: float) -> float:
    """Closed form of the left-brace moment; r = a/x.

    With z1 = 1 - r, F1 = 2F1(2q, alpha+1; alpha+2; z1)/(alpha+1) and
    D(z) = (2F1(2q-1, alpha; alpha+1; z) - 1) / ((2q-1) z),
        c2 = (1-lam) F1 - lam D(z1) + 2 lam^(1+1/alpha) D(lam^(1/alpha) z1).
    At lam = 0 that is F1 alone, and at lam = 1 D(z1) alone; `_c2_at`
    computes only the terms its lam keeps, each through its memo (`_g`, `_d`).
    """
    _check_args(alpha, lam, q, r)
    return _finite("c2", _c2_at, alpha=alpha, lam=lam, q=q, r=r)


def _c3_at(alpha: float, lam: float, q: float, r: float) -> float:
    """c3 at one lam: G(z1) alone at lam = 0, E(z1) - G(z1) at lam = 1, else the correction at z3 = m(1-r)/s too."""
    a, z1 = 2.0 * q, 1.0 - r
    g1 = _g(a, 1.0, alpha, z1)
    if lam == 0.0:
        return g1
    if lam == 1.0:
        return _hyp_a12(a, z1) - g1  # m = 1, so s = 1, z3 = z1 and G - E + 2 (E - G) = E - G
    m = lam ** (1.0 / alpha)
    s = r + m * z1
    z3 = m * z1 / s
    g3 = _g(a, 1.0, alpha, z3)
    return g1 - lam * _hyp_a12(a, z1) + 2.0 * lam ** (1.0 + 1.0 / alpha) * s ** (-a) * (_hyp_a12(a, z3) - g3)


def c3(alpha: float, lam: float, q: float, r: float) -> float:
    """Closed form of the right-brace moment; r = x/b.

    With z1 = 1 - r, m = lam^(1/alpha), s = r + m(1-r) and z3 = m(1-r)/s,
        c3 = G(z1) - lam E(z1) + 2 lam^(1+1/alpha) s^{-2q} [E(z3) - G(z3)],
    where G(z) = 2F1(2q, 1; alpha+2; z)/(alpha+1) and E(z) = 2F1(2q, 1; 2; z)
    takes the elementary form ((1-z)^(1-2q) - 1) / ((2q-1) z), evaluated with
    expm1 and log1p, so c3 needs two 2F1 series values.  The interior-lam
    correction rescales the denominator to the kink point.  The source text
    prints it without the rescaling; tests/test_kernels.py keeps that form
    (`c3_as_stated`) and shows it diverging from kernel_oracle for
    0 < lam < 1.  At lam = 0 that is G(z1) alone, and at lam = 1
    E(z1) - G(z1); `_c3_at` computes only the terms its lam keeps, each G
    through the memo `_g`.
    """
    _check_args(alpha, lam, q, r)
    return _finite("c3", _c3_at, alpha=alpha, lam=lam, q=q, r=r)


def kernel_oracle(alpha: float, lam: float, q: float, u: float, v: float) -> float:
    """Adaptive quadrature of int_0^1 |t^alpha - lam| (tu + (1-t)v)^{-2q} dt.

    Independent of the closed forms: no 2F1 involved.  The integral is split
    at the kink t = lam^(1/alpha) and taken in s with t = s^k, on the k and
    the s-edges that `integrate_kinked` uses too (`_s_edges`).  Each piece
    has one integrand that computes t, the Jacobian, |t^alpha - lam| and
    A^(-2q), A = tu + (1-t)v, in one call.  Where u != v, A^(1-2q) peaks at
    the heavy end, where A is least: s = 1 when u < v, s = 0 when u > v.
    The piece next to it is integrated in y, s = end -/+ c*expm1(y), whose
    panels grade toward that end.  The scale c is the distance in s over
    which A^(1-2q) falls by about e: u/((v-u) k (2q-1)) at s = 1 and
    (v/((u-v)(2q-1)))^(1/k) at s = 0.  A piece with c at least half its
    width needs no grading and is integrated in s, as is every other piece.
    Every piece runs at `integrate`'s default tolerances, and the pieces are
    summed left to right.
    """
    if not (math.isfinite(u) and u > 0.0 and math.isfinite(v) and v > 0.0):
        raise ValueError(f"require positive endpoints, got u={u}, v={v}")
    _check_args(alpha, lam, q, min(u, v) / max(u, v))

    two_q = 2.0 * q
    k, edges = _s_edges(alpha, lam)
    kf = float(k)
    km1 = kf - 1.0
    if k == 1:

        def f(s: float) -> float:
            return abs(s**alpha - lam) / (s * u + (1.0 - s) * v) ** two_q

    else:

        def f(s: float) -> float:
            t = s**kf
            return kf * s**km1 * (abs(t**alpha - lam) / (t * u + (1.0 - t) * v) ** two_q)

    if u < v:
        end, sign, c = 1.0, -1.0, u / ((v - u) * kf * (two_q - 1.0))
    elif u > v:
        end, sign, c = 0.0, 1.0, (v / ((u - v) * (two_q - 1.0))) ** (1.0 / kf)
    else:
        end = None  # A is constant: no end is heavy

    def graded(y: float) -> float:
        e = c * math.expm1(y)
        s = end + sign * e
        t = s**kf
        return (c + e) * kf * s**km1 * (abs(t**alpha - lam) / (t * u + (1.0 - t) * v) ** two_q)

    def piece(lo: float, hi: float) -> float:
        if end in (lo, hi) and c < 0.5 * (hi - lo):
            return integrate(graded, 0.0, math.log1p((hi - lo) / c))
        return integrate(f, lo, hi)

    total = piece(edges[0], edges[1])
    for lo, hi in zip(edges[1:-1], edges[2:]):
        total += piece(lo, hi)
    return total


# The Jacobian k*s^(k-1) puts the integral's weight within about 1/k of s = 1.
# From k near 1e4 on, every node of the first GK15 panel lies outside that
# band, the panel reports an error of 0 and the integral comes out as 0.  Both
# rules for k in `_s_edges` stop here; the smoothness rule needs at most 6.
_MAX_POWER = 64
# Bounded derivatives of the term k*s^(k(alpha+1)-1) at s = 0 when k*alpha is not an integer.
# Of 3, 5 and 8, 5 took the fewest GK15 panels (12,716, 11,852, 12,282) over 576 c1/c2/c3
# oracle triples at alphas where ceil(1/alpha)*alpha is no integer.
_SMOOTH_ORDER = 5


def _s_edges(alpha: float, lam: float, cuts: tuple[float, ...] = ()) -> tuple[int, list[float]]:
    """The power k of t = s^k for a kernel |t^alpha - lam|, and the s-edges of the pieces between its cut points.

    k starts at ceil(1/alpha), so that s^(k*alpha) has a bounded derivative;
    for alpha >= 1 that is k = 1.  When k*alpha is an integer, s^(k*alpha) is
    a polynomial and k stays.  Otherwise the integrand keeps the non-analytic
    term k*s^(k(alpha+1)-1) at s = 0, and k rises to the least value with
    k(alpha+1) - 1 >= _SMOOTH_ORDER, so that GK15 need not bisect toward 0 to
    resolve it.  Either way k stops at _MAX_POWER.  The edges run from 0 to 1
    through the cuts and the kink t = lam^(1/alpha), each moved to s = t^(1/k).
    """
    k = math.ceil(1.0 / max(alpha, 1.0 / _MAX_POWER))
    if not float(k * alpha).is_integer():
        k = min(max(k, math.ceil((_SMOOTH_ORDER + 1.0) / (alpha + 1.0))), _MAX_POWER)
    # t in (0, 1) maps into (0, 1]; a cut that rounds onto s = 1 is no cut
    inner = sorted({t ** (1.0 / k) for t in (*cuts, lam ** (1.0 / alpha)) if 0.0 < t < 1.0} - {1.0})
    return k, [0.0, *inner, 1.0]


def integrate_kinked(
    f: Callable[[float], float], alpha: float, lam: float, *, cuts: tuple[float, ...] = (), **tol
) -> float:
    """int_0^1 f dt, summed left to right over the pieces between the interior cut points.

    The cuts are the caller's `cuts` plus the kernel kink t = lam^(1/alpha).
    The integral is taken in s with t = s^k, on the k and the s-edges of
    `_s_edges`: the Jacobian k*s^(k-1) is a polynomial, the kernel factor
    t^alpha becomes s^(k*alpha), and every cut moves to s = t^(1/k).  For
    alpha >= 1, k = 1 and f is integrated as given.  The `abs_tol` and
    `rel_tol` keywords are passed on to each piece's `integrate`.
    """
    k, edges = _s_edges(alpha, lam, cuts)
    if k > 1:
        g = f
        kf = float(k)
        km1 = kf - 1.0
        f = lambda s: kf * s**km1 * g(s**kf)
    total = integrate(f, edges[0], edges[1], **tol)
    for lo, hi in zip(edges[1:-1], edges[2:]):
        total += integrate(f, lo, hi, **tol)
    return total
