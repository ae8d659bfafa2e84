"""Closed-form kernel moments and their brute-force quadrature oracle.

The moments are weighted integrals of |t^alpha - lam| against the squared
harmonic-interpolation denominator:

  c1(alpha, lam)       = int_0^1 |t^alpha - lam| dt
  c2(alpha, lam, q, r) = x^{2q} int_0^1 |t^alpha - lam| (ta + (1-t)x)^{-2q} dt,  r = a/x
  c3(alpha, lam, q, r) = b^{2q} int_0^1 |t^alpha - lam| (tb + (1-t)x)^{-2q} dt,  r = x/b

Both c2 and c3 depend on the endpoints only through the ratio r in (0, 1].
The closed forms split the integral at the kink t = lam^(1/alpha) and resolve
each piece through 2F1; every identity here is pinned against `kernel_oracle`
by the tests.  Each function takes plain floats and checks them with
`_check_args` (alpha > 0, lam in [0, 1], q >= 1, r in (0, 1]), the one check
that `bounds.ParamPoint` and `harness.run_constants` call too.
"""
from __future__ import annotations

import math
from typing import Callable

from .quad import integrate
from .specialfn import hyp2f1

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


def _finite(name: str, value: float, alpha: float, lam: float, q: float, r: float) -> float:
    # an inf or nan moment would make every bound built on it hold, and is no JSON number
    if not math.isfinite(value):
        raise OverflowError(
            f"{name}(alpha={alpha}, lam={lam}, q={q}, r={r}) = {value} is not finite in double precision"
        )
    return value


def c2(alpha: float, lam: float, q: float, r: float) -> float:
    """Closed form of the left-brace moment; r = a/x."""
    _check_args(alpha, lam, q, r)
    z1 = 1.0 - r
    main = hyp2f1(2.0 * q, alpha + 1.0, alpha + 2.0, z1) / (alpha + 1.0)
    if lam == 0.0:
        return _finite("c2", main, alpha, lam, q, r)
    main -= lam * hyp2f1(2.0 * q, 1.0, 2.0, z1)
    m = lam ** (1.0 / alpha)
    z2 = m * (1.0 - r)
    corr = 2.0 * lam ** (1.0 + 1.0 / alpha) * (
        hyp2f1(2.0 * q, 1.0, 2.0, z2)
        - hyp2f1(2.0 * q, alpha + 1.0, alpha + 2.0, z2) / (alpha + 1.0)
    )
    return _finite("c2", main + corr, alpha, lam, q, r)


def c3(alpha: float, lam: float, q: float, r: float) -> float:
    """Closed form of the right-brace moment; r = x/b.

    The interior-lam correction rescales the denominator to the kink point:
    with m = lam^(1/alpha) and s = r + m(1-r), the correction is
    2 lam^(1+1/alpha) s^{-2q} [2F1(2q,1;2;z3) - 2F1(2q,1;alpha+2;z3)/(alpha+1)],
    z3 = m(1-r)/s.  The source text prints the correction without the
    rescaling; tests/test_kernels.py keeps that form (`c3_as_stated`) and
    shows it diverging from kernel_oracle for 0 < lam < 1.
    """
    _check_args(alpha, lam, q, r)
    z1 = 1.0 - r
    main = hyp2f1(2.0 * q, 1.0, alpha + 2.0, z1) / (alpha + 1.0)
    if lam == 0.0:
        return _finite("c3", main, alpha, lam, q, r)
    main -= lam * hyp2f1(2.0 * q, 1.0, 2.0, z1)
    m = lam ** (1.0 / alpha)
    s = r + m * (1.0 - r)
    z3 = m * (1.0 - r) / s
    corr = 2.0 * lam ** (1.0 + 1.0 / alpha) * s ** (-2.0 * q) * (
        hyp2f1(2.0 * q, 1.0, 2.0, z3)
        - hyp2f1(2.0 * q, 1.0, alpha + 2.0, z3) / (alpha + 1.0)
    )
    return _finite("c3", main + corr, alpha, lam, q, r)


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
