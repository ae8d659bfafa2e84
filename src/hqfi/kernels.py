"""Closed-form kernel moments and their brute-force quadrature oracle.

The moments are weighted integrals of |t^alpha - lam| against the squared
harmonic-interpolation denominator:

  c1(alpha, lam)       = int_0^1 |t^alpha - lam| dt
  c2(alpha, lam, q, r) = x^{2q} int_0^1 |t^alpha - lam| (ta + (1-t)x)^{-2q} dt,  r = a/x
  c3(alpha, lam, q, r) = b^{2q} int_0^1 |t^alpha - lam| (tb + (1-t)x)^{-2q} dt,  r = x/b

Both c2 and c3 depend on the endpoints only through the ratio r in (0, 1].
The closed forms split the integral at the kink t = lam^(1/alpha) and resolve
each piece through 2F1; every identity here is pinned against `kernel_oracle`
by the tests.  With A = 2q and z1 = 1 - r, c2 rests on
D(z) = 2F1(A, 1; 2; z) - 2F1(A, alpha+1; alpha+2; z)/(alpha+1)
     = (2F1(A-1, alpha; alpha+1; z) - 1) / ((A-1) z),
summed without the subtraction, and c3 on the elementary
2F1(A, 1; 2; z) = ((1-z)^(1-A) - 1) / ((A-1) z).  Each moment is a lam-free
part at (alpha, q, r) (`_c2_part`, `_c3_part`) and a lam step on top of it
(`_c2_at`, `_c3_at`); the bounds memoize the part, and the public c2 and c3
compose the two at one point.  Each public function takes plain floats and
checks them with `_check_args` (alpha > 0, lam in [0, 1], q >= 1, r in (0, 1]),
the one check that `bounds.ParamPoint` and `harness.run_constants` call too.
"""
from __future__ import annotations

import math
from collections.abc import Callable

from .quad import integrate
from .specialfn import _hyp2f1_tail, hyp2f1

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
    if lam == 0.0:
        return 1.0 / (alpha + 1.0)
    return (2.0 * alpha * lam ** (1.0 + 1.0 / alpha) + 1.0) / (alpha + 1.0) - lam


def _moment(name: str, step: Callable, part: Callable, alpha: float, lam: float, q: float, r: float) -> float:
    """`step` at lam on the lam-free `part(alpha, q, r)`; an overflow or a non-finite value names the moment."""
    point = f"{name}(alpha={alpha}, lam={lam}, q={q}, r={r})"
    try:
        value = step(part(alpha, q, r), alpha, lam, q, r)
    except OverflowError as exc:  # a power past the double range, as in Euler's transformation of 2F1
        raise OverflowError(f"{point} overflows double precision: {exc}") from exc
    if not math.isfinite(value):  # an inf or nan moment would make every bound on it hold, and is no JSON number
        raise OverflowError(f"{point} = {value} is not finite in double precision")
    return value


def _hyp_a12(a: float, z: float) -> float:
    """2F1(a, 1; 2; z) = ((1-z)^(1-a) - 1) / ((a-1) z) for a > 1: 1 at z = 0, inf past the double range."""
    if z == 0.0:
        return 1.0
    try:
        return math.expm1((1.0 - a) * math.log1p(-z)) / ((a - 1.0) * z)
    except OverflowError:
        return math.inf


def _d(a: float, alpha: float, z: float) -> float:
    """D(z) = 2F1(a, 1; 2; z) - 2F1(a, alpha+1; alpha+2; z)/(alpha+1) = (2F1(a-1, alpha; alpha+1; z) - 1) / ((a-1) z).

    The second form comes from integration by parts and subtracts nothing large.
    """
    return _hyp2f1_tail(a - 1.0, alpha, alpha + 1.0, z) / (a - 1.0)


def _c2_part(alpha: float, q: float, r: float) -> tuple[float, float]:
    """The lam-free part of c2 at (alpha, q, r): 2F1(2q, alpha+1; alpha+2; z1)/(alpha+1) and D(z1), z1 = 1 - r."""
    a, z1 = 2.0 * q, 1.0 - r
    return hyp2f1(a, alpha + 1.0, alpha + 2.0, z1) / (alpha + 1.0), _d(a, alpha, z1)


def _c2_at(part: tuple[float, float], alpha: float, lam: float, q: float, r: float) -> float:
    """c2 at one lam from `_c2_part`: (1-lam) F1 - lam D(z1) + 2 lam^(1+1/alpha) D(z2), z2 = lam^(1/alpha) z1."""
    main, d1 = part
    if lam == 0.0:
        return main
    if lam == 1.0:
        return d1  # z2 = z1, and -D(z1) + 2 D(z1) = D(z1)
    d2 = _d(2.0 * q, alpha, lam ** (1.0 / alpha) * (1.0 - r))
    return (1.0 - lam) * main - lam * d1 + 2.0 * lam ** (1.0 + 1.0 / alpha) * d2


def c2(alpha: float, lam: float, q: float, r: float) -> float:
    """Closed form of the left-brace moment; r = a/x.

    With z1 = 1 - r, F1 = 2F1(2q, alpha+1; alpha+2; z1)/(alpha+1) and
    D(z) = (2F1(2q-1, alpha; alpha+1; z) - 1) / ((2q-1) z),
        c2 = (1-lam) F1 - lam D(z1) + 2 lam^(1+1/alpha) D(lam^(1/alpha) z1).
    F1 and D(z1) do not depend on lam (`_c2_part`); the lam step on top of
    them (`_c2_at`) needs one more 2F1 value for 0 < lam < 1 and none at
    lam = 0 or 1.  The sweep memoizes the part; this function composes the two.
    """
    _check_args(alpha, lam, q, r)
    return _moment("c2", _c2_at, _c2_part, alpha, lam, q, r)


def _c3_part(alpha: float, q: float, r: float) -> tuple[float, float]:
    """The lam-free part of c3 at (alpha, q, r): 2F1(2q, 1; alpha+2; z1)/(alpha+1) and 2F1(2q, 1; 2; z1), z1 = 1 - r."""
    a, z1 = 2.0 * q, 1.0 - r
    return hyp2f1(a, 1.0, alpha + 2.0, z1) / (alpha + 1.0), _hyp_a12(a, z1)


def _c3_at(part: tuple[float, float], alpha: float, lam: float, q: float, r: float) -> float:
    """c3 at one lam from `_c3_part`; the interior-lam correction is taken at z3 = m(1-r)/s."""
    main, e1 = part
    if lam == 0.0:
        return main
    if lam == 1.0:
        return e1 - main  # m = 1, so s = 1, z3 = z1 and G - E + 2 (E - G) = E - G
    a = 2.0 * q
    m = lam ** (1.0 / alpha)
    s = r + m * (1.0 - r)
    z3 = m * (1.0 - r) / s
    g3, e3 = hyp2f1(a, 1.0, alpha + 2.0, z3) / (alpha + 1.0), _hyp_a12(a, z3)
    try:
        rescale = s ** (-a)
    except OverflowError:  # left to `_moment` to name
        rescale = math.inf
    return main - lam * e1 + 2.0 * lam ** (1.0 + 1.0 / alpha) * rescale * (e3 - g3)


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
    0 < lam < 1.  G(z1) and E(z1) do not depend on lam (`_c3_part`); the lam
    step (`_c3_at`) adds G(z3) and E(z3).  The sweep memoizes the part; this
    function composes the two.
    """
    _check_args(alpha, lam, q, r)
    return _moment("c3", _c3_at, _c3_part, alpha, lam, q, r)


def kernel_oracle(alpha: float, lam: float, q: float, u: float, v: float) -> float:
    """Adaptive quadrature of int_0^1 |t^alpha - lam| (tu + (1-t)v)^{-2q} dt.

    Independent of the closed forms: no 2F1 involved.  The integrand has a
    kink at t = lam^(1/alpha), where `integrate_kinked` splits it.  Every
    piece runs at `integrate`'s default tolerances.
    """
    if not (math.isfinite(u) and u > 0.0 and math.isfinite(v) and v > 0.0):
        raise ValueError(f"require positive endpoints, got u={u}, v={v}")
    _check_args(alpha, lam, q, min(u, v) / max(u, v))

    two_q = 2.0 * q

    def f(t: float) -> float:
        return abs(t**alpha - lam) / (t * u + (1.0 - t) * v) ** two_q

    return integrate_kinked(f, alpha, lam)


# The Jacobian k*s^(k-1) puts the integral's weight within about 1/k of s = 1.
# From k near 1e4 on, every node of the first GK15 panel lies outside that
# band, the panel reports an error of 0 and the integral comes out as 0.
_MAX_POWER = 64


def integrate_kinked(
    f: Callable[[float], float], alpha: float, lam: float, *, cuts: tuple[float, ...] = (), **tol
) -> float:
    """int_0^1 f dt, summed left to right over the pieces between the interior cut points.

    The cuts are the caller's `cuts` plus the kernel kink t = lam^(1/alpha).
    For alpha < 1 the kernel factor t^alpha has an unbounded derivative at 0,
    so the integral is taken in s with t = s^k, k = ceil(1/alpha): t^alpha =
    s^(k*alpha) then has a bounded derivative, the Jacobian k*s^(k-1) is a
    polynomial, and every cut moves to s = t^(1/k).  For alpha >= 1, k = 1
    and f is integrated in t as given.  k stops at _MAX_POWER.  The `abs_tol`
    and `rel_tol` keywords are passed on to each piece's `integrate`.
    """
    k = math.ceil(1.0 / max(alpha, 1.0 / _MAX_POWER))
    # t in (0, 1) maps into (0, 1]; a cut that rounds onto s = 1 is no cut
    inner = sorted({t ** (1.0 / k) for t in (*cuts, lam ** (1.0 / alpha)) if 0.0 < t < 1.0} - {1.0})
    if k > 1:
        g = f
        f = lambda s: k * s ** (k - 1) * g(s**k)
    edges = [0.0, *inner, 1.0]
    total = integrate(f, edges[0], edges[1], **tol)
    for lo, hi in zip(edges[1:-1], edges[2:]):
        total += integrate(f, lo, hi, **tol)
    return total
